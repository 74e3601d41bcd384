//! `secloc-alerter` — the streaming revocation service CLI.
//!
//! ```text
//! secloc-alerter serve  [--stdin | --unix PATH | --tcp ADDR] [--once]
//!                       [--out FILE] [--tau N] [--tau-prime N]
//!                       [--stall-timeout-secs N] [--malformed-budget N]
//! secloc-alerter replay --events FILE [--checkpoint FILE] [--out FILE]
//!                       [--tau N] [--tau-prime N] [--malformed-budget N]
//! ```
//!
//! `serve` runs the long-lived service: JSONL alert events in (stdin by
//! default, or a Unix/TCP socket accepting one producer at a time),
//! `alerter.*` decisions out (to `--out`, JSONL), with a health
//! watchdog (stalled stream, counter anomalies, malformed-input budget)
//! ticking on a background thread. Exit status 2 when any health alert
//! fired.
//!
//! `replay` feeds a sweep's recorded `obs_events.jsonl` back through the
//! service in verify mode and — optionally — diffs per-cell revocation
//! counts against the sweep checkpoint. Exit status 1 on any batch/stream
//! divergence, 2 on a health alert; the summary JSON goes to stdout.

#![forbid(unsafe_code)]

use secloc_alerter::{diff_checkpoint, replay_stream, Alerter, AlerterConfig};
use secloc_core::RevocationConfig;
use secloc_obs::health::{
    CounterAnomalyDetector, HealthDetector, MalformedInputDetector, StalledStreamDetector,
};
use secloc_obs::{EventSink, HealthMonitor, JsonlSink, Obs};
use std::fmt::Write as _;
use std::io::{BufReader, Read};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage:
  secloc-alerter serve  [--stdin | --unix PATH | --tcp ADDR] [--once]
                        [--out FILE] [--tau N] [--tau-prime N]
                        [--stall-timeout-secs N] [--malformed-budget N]
  secloc-alerter replay --events FILE [--checkpoint FILE] [--out FILE]
                        [--tau N] [--tau-prime N] [--malformed-budget N]";

enum Transport {
    Stdin,
    Unix(PathBuf),
    Tcp(String),
}

struct Options {
    transport: Transport,
    once: bool,
    events: Option<PathBuf>,
    checkpoint: Option<PathBuf>,
    out: Option<PathBuf>,
    policy: RevocationConfig,
    stall_timeout: Duration,
    malformed_budget: u64,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            transport: Transport::Stdin,
            once: false,
            events: None,
            checkpoint: None,
            out: None,
            policy: RevocationConfig::paper_default(),
            stall_timeout: Duration::from_secs(30),
            malformed_budget: 0,
        }
    }
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--stdin" => opts.transport = Transport::Stdin,
            "--unix" => opts.transport = Transport::Unix(PathBuf::from(value("--unix")?)),
            "--tcp" => opts.transport = Transport::Tcp(value("--tcp")?),
            "--once" => opts.once = true,
            "--events" => opts.events = Some(PathBuf::from(value("--events")?)),
            "--checkpoint" => opts.checkpoint = Some(PathBuf::from(value("--checkpoint")?)),
            "--out" => opts.out = Some(PathBuf::from(value("--out")?)),
            "--tau" => {
                opts.policy.tau = value("--tau")?.parse().map_err(|e| format!("--tau: {e}"))?
            }
            "--tau-prime" => {
                opts.policy.tau_prime = value("--tau-prime")?
                    .parse()
                    .map_err(|e| format!("--tau-prime: {e}"))?
            }
            "--stall-timeout-secs" => {
                opts.stall_timeout = Duration::from_secs(
                    value("--stall-timeout-secs")?
                        .parse()
                        .map_err(|e| format!("--stall-timeout-secs: {e}"))?,
                )
            }
            "--malformed-budget" => {
                opts.malformed_budget = value("--malformed-budget")?
                    .parse()
                    .map_err(|e| format!("--malformed-budget: {e}"))?
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(opts)
}

/// The health watchdog every mode runs: counter anomalies against the
/// announced τ′, a malformed-line budget, and (serve mode, tick-driven)
/// stall detection.
fn detectors(opts: &Options, with_stall: bool) -> Vec<Box<dyn HealthDetector>> {
    let mut d: Vec<Box<dyn HealthDetector>> = vec![
        Box::new(CounterAnomalyDetector::new(Some(
            opts.policy.tau_prime as u64,
        ))),
        Box::new(MalformedInputDetector::new(opts.malformed_budget)),
    ];
    if with_stall {
        d.push(Box::new(StalledStreamDetector::new(opts.stall_timeout)));
    }
    d
}

/// Builds the sink chain `Obs → HealthMonitor → JSONL file?` and the
/// facade the service emits through.
fn monitored_obs(
    opts: &Options,
    sink_path: Option<&PathBuf>,
    with_stall: bool,
) -> Result<(Arc<HealthMonitor>, Obs), String> {
    let downstream: Option<Arc<dyn EventSink + Send + Sync>> = match sink_path {
        Some(path) => Some(Arc::new(JsonlSink::create(path).map_err(|e| {
            format!("cannot create event sink {}: {e}", path.display())
        })?)),
        None => None,
    };
    let monitor = Arc::new(HealthMonitor::new(detectors(opts, with_stall), downstream));
    let obs = Obs::with_sink(monitor.clone());
    Ok((monitor, obs))
}

fn summary_json(alerter: &Alerter, extra: &str, healthy: bool) -> String {
    let s = alerter.stats();
    format!(
        "{{\"deployments\":{},\"active\":{},\"peak_active\":{},\"decisions\":{},\
         \"revocations\":{},\"malformed\":{},\"mismatches\":{}{extra},\"healthy\":{healthy}}}",
        s.deploys + s.implicit_deploys,
        alerter.active_deployments(),
        s.peak_active,
        s.decisions,
        s.revocations,
        s.malformed,
        s.parity_mismatches,
    )
}

/// Ingests each accepted connection in turn until the first error, or
/// after the first connection when `once` is set.
fn accept_loop<S: Read>(
    alerter: &mut Alerter,
    incoming: impl Iterator<Item = std::io::Result<S>>,
    once: bool,
) -> std::io::Result<()> {
    let mut result = Ok(());
    for stream in incoming {
        result = stream.and_then(|stream| alerter.ingest_reader(BufReader::new(stream)));
        if once || result.is_err() {
            break;
        }
    }
    result
}

fn serve(opts: &Options) -> Result<ExitCode, String> {
    let (monitor, obs) = monitored_obs(opts, opts.out.as_ref().or(opts.events.as_ref()), true)?;
    let cfg = AlerterConfig {
        default_policy: opts.policy,
        verify_recorded: false,
    };
    let mut alerter = Alerter::new(cfg, obs);

    // Event streams have no heartbeat of their own: a background ticker
    // drives the stall detector while the reader blocks.
    let done = Arc::new(AtomicBool::new(false));
    let ticker = {
        let monitor = monitor.clone();
        let done = done.clone();
        std::thread::spawn(move || {
            while !done.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(250));
                monitor.tick();
            }
        })
    };

    let io_result = match &opts.transport {
        Transport::Stdin => {
            let stdin = std::io::stdin();
            alerter.ingest_reader(stdin.lock())
        }
        Transport::Unix(path) => {
            let _ = std::fs::remove_file(path);
            let listener = std::os::unix::net::UnixListener::bind(path)
                .map_err(|e| format!("bind {}: {e}", path.display()))?;
            eprintln!(
                "secloc-alerter: listening on unix socket {}",
                path.display()
            );
            let result = accept_loop(&mut alerter, listener.incoming(), opts.once);
            let _ = std::fs::remove_file(path);
            result
        }
        Transport::Tcp(addr) => {
            let listener =
                std::net::TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
            eprintln!(
                "secloc-alerter: listening on tcp {}",
                listener.local_addr().map_err(|e| e.to_string())?
            );
            accept_loop(&mut alerter, listener.incoming(), opts.once)
        }
    };

    done.store(true, Ordering::Relaxed);
    let _ = ticker.join();
    io_result.map_err(|e| format!("input stream: {e}"))?;

    alerter.finish();
    monitor.finish();
    let healthy = monitor.is_healthy();
    println!("{}", summary_json(&alerter, "", healthy));
    for alert in monitor.alerts() {
        eprintln!("health.{}: {}", alert.detector, alert.message);
    }
    Ok(if healthy {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

fn replay(opts: &Options) -> Result<ExitCode, String> {
    let events = opts
        .events
        .as_ref()
        .ok_or_else(|| "replay requires --events FILE".to_string())?;
    let (monitor, obs) = monitored_obs(opts, opts.out.as_ref(), false)?;
    let cfg = AlerterConfig {
        default_policy: opts.policy,
        verify_recorded: true,
    };
    let file = std::fs::File::open(events)
        .map_err(|e| format!("cannot open {}: {e}", events.display()))?;
    let (alerter, elapsed) = replay_stream(BufReader::new(file), cfg, obs)
        .map_err(|e| format!("replay {}: {e}", events.display()))?;
    monitor.finish();

    let mut divergences = alerter.mismatches().to_vec();
    let mut extra = format!(",\"elapsed_ms\":{}", elapsed.as_millis());
    if let Some(path) = &opts.checkpoint {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let diff = diff_checkpoint(&alerter, &text);
        let _ = write!(
            extra,
            ",\"checkpoint_cells\":{},\"cells_compared\":{},\"cells_skipped\":{}",
            diff.cells_total, diff.cells_compared, diff.cells_skipped
        );
        divergences.extend(diff.mismatches);
    }
    let _ = write!(
        extra,
        ",\"parity\":\"{}\"",
        if divergences.is_empty() {
            "ok"
        } else {
            "divergent"
        }
    );

    let healthy = monitor.is_healthy();
    println!("{}", summary_json(&alerter, &extra, healthy));
    for d in &divergences {
        eprintln!("parity: {d}");
    }
    for alert in monitor.alerts() {
        eprintln!("health.{}: {}", alert.detector, alert.message);
    }
    Ok(if !divergences.is_empty() {
        ExitCode::from(1)
    } else if !healthy {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((mode, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(64);
    };
    let run = match (mode.as_str(), parse_options(rest)) {
        ("serve", Ok(opts)) => serve(&opts),
        ("replay", Ok(opts)) => replay(&opts),
        (_, Err(e)) => Err(e),
        (other, _) => Err(format!("unknown mode {other}")),
    };
    match run {
        Ok(code) => code,
        Err(e) => {
            eprintln!("secloc-alerter: {e}\n{USAGE}");
            ExitCode::from(64)
        }
    }
}
