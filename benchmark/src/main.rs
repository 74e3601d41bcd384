//! The repository benchmark: end-to-end and per-layer metrics of the
//! simulator, the sweep engine, the result cache and the alerter.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--out FILE] [--spans FILE] [--smoke]
//! benchmark compare --base <files…> --head <files…> [--bench BENCHMARK.json]
//! ```
//!
//! A run prints every metric by name and unit, then, as its last line,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! It exits 1 when any output check failed (after printing) and 2 on a
//! usage error (without printing a result). See `README.md`.

mod compare;
mod digest;
mod host;
mod layers;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
    smoke: bool,
}

fn parse_run(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: workloads::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        out: None,
        spans: None,
        smoke: false,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => a.workload = value("--workload")?,
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
                if a.seed > workloads::MAX_SEED {
                    return Err(format!("--seed must be at most {}", workloads::MAX_SEED));
                }
            }
            "--seconds" => {
                a.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            // `--trace 0|1`, or a bare `--trace` meaning 1.
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--out" => a.out = Some(value("--out")?.into()),
            "--spans" => a.spans = Some(value("--spans")?.into()),
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !workloads::NAMES.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(a)
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let a = parse_run(args)?;
    let cwd = std::env::current_dir().map_err(|e| format!("working directory: {e}"))?;
    let ctx = workloads::Ctx {
        seed: a.seed,
        smoke: a.smoke,
        tmp: cwd
            .join(".bench_tmp")
            .join(format!("{}-{}", a.workload, std::process::id())),
    };
    let result = workloads::run(&a.workload, &ctx, a.seconds, a.trace)?;
    print!("{}", result.human());
    if let Some(path) = &a.out {
        std::fs::write(path, result.full_json() + "\n")
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    if let Some(path) = &a.spans {
        std::fs::write(path, &result.spans)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    println!("{}", result.summary_json());
    Ok(if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn run_compare(args: &[String]) -> Result<ExitCode, String> {
    let (mut base, mut head) = (Vec::new(), Vec::new());
    let mut bench = PathBuf::from("BENCHMARK.json");
    let mut side: Option<&mut Vec<String>> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--base" => side = Some(&mut base),
            "--head" => side = Some(&mut head),
            "--bench" => {
                bench = it.next().ok_or("--bench needs a value")?.into();
                side = None;
            }
            file => match side.as_mut() {
                Some(files) => files.push(file.to_string()),
                None => return Err(format!("{file:?} is neither under --base nor --head")),
            },
        }
    }
    if base.is_empty() || head.is_empty() {
        return Err("compare needs --base <files…> and --head <files…>".to_string());
    }
    let bench_json =
        std::fs::read_to_string(&bench).map_err(|e| format!("{}: {e}", bench.display()))?;
    let (report, any_worse) = compare::run(&base, &head, &bench_json)?;
    print!("{report}");
    Ok(if any_worse {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => run_compare(&args[1..]),
        _ => run(&args),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::from(2)
    })
}
