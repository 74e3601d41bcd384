//! Sweep CLI: run an `attacker_p × seed` grid through the orchestrator
//! with caching, checkpointing, live progress, and an optional health
//! watchdog + flight recorder over the event stream.
//!
//! ```text
//! cargo run --release --example sweep -- \
//!     [--p 0.1,0.3,0.5] [--seeds 5] [--workers 0] \
//!     [--nodes 1000 --beacons 100 --malicious 10] \
//!     [--cache results/sweep_cache.bin] \
//!     [--checkpoint results/sweep_checkpoint.jsonl] \
//!     [--events results/sweep_events.jsonl] \
//!     [--flightrec results] [--watchdog] [--stall-timeout 30]
//! ```
//!
//! Interrupt it mid-run and re-run the same command: the checkpoint
//! replays the finished prefix and only the remainder is simulated. Run it
//! twice to completion and the second invocation reports 100% cache hits.
//!
//! The cache is a sharded binary directory. A JSONL file at the `--cache`
//! path, left by an older build, is refused untouched: point the sweep at
//! a new path and its cells recompute. The `export` subcommand writes a
//! cache out as JSONL, one `{"key":…,"outcome":…}` line per cell in
//! append order, for reading with text tools:
//!
//! ```text
//! cargo run --release --example sweep -- export \
//!     --from results/sweep_cache.bin --to /tmp/sweep_cache.jsonl
//! ```
//!
//! With `--watchdog` the event stream is monitored inline by the
//! `secloc_obs::health` detectors (stalled stream, revocation-counter
//! anomalies, cache-hit collapse, checkpoint gap); any alert makes the
//! process exit with status 2 after printing what fired. With
//! `--flightrec DIR` a bounded flight recorder taps the stream and a
//! panicking cell (or a detected cache conflict) dumps its trace to
//! `DIR/flightrec_<cellkey>.jsonl` for post-mortem replay.

use secloc::obs::health::{
    CacheHitRateDetector, CheckpointGapDetector, CounterAnomalyDetector, HealthDetector,
    HealthMonitor, StalledStreamDetector,
};
use secloc::obs::{EventSink, FlightRecorder, JsonlSink, MetricsRegistry, Obs};
use secloc::sim::orchestrator::export_jsonl;
use secloc::sim::{average_outcomes, BinaryCache, Orchestrator, SimConfig, SweepSpec};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    p_values: Vec<f64>,
    seeds: u64,
    workers: usize,
    nodes: u32,
    beacons: u32,
    malicious: u32,
    cache: Option<PathBuf>,
    checkpoint: Option<PathBuf>,
    events: Option<PathBuf>,
    flightrec: Option<PathBuf>,
    watchdog: bool,
    stall_timeout: u64,
}

fn parse_args() -> Args {
    let mut args = Args {
        p_values: vec![0.1, 0.3, 0.5, 0.7, 0.9],
        seeds: 5,
        workers: 0,
        nodes: 300,
        beacons: 30,
        malicious: 3,
        cache: Some(PathBuf::from("results/sweep_cache.bin")),
        checkpoint: Some(PathBuf::from("results/sweep_checkpoint.jsonl")),
        events: None,
        flightrec: None,
        watchdog: false,
        stall_timeout: 30,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match flag.as_str() {
            "--p" => {
                args.p_values = value("--p")
                    .split(',')
                    .map(|s| s.trim().parse().expect("--p takes comma-separated floats"))
                    .collect();
            }
            "--seeds" => args.seeds = value("--seeds").parse().expect("--seeds takes an integer"),
            "--workers" => {
                args.workers = value("--workers")
                    .parse()
                    .expect("--workers takes an integer")
            }
            "--nodes" => args.nodes = value("--nodes").parse().expect("--nodes takes an integer"),
            "--beacons" => {
                args.beacons = value("--beacons")
                    .parse()
                    .expect("--beacons takes an integer")
            }
            "--malicious" => {
                args.malicious = value("--malicious")
                    .parse()
                    .expect("--malicious takes an integer")
            }
            "--cache" => args.cache = Some(PathBuf::from(value("--cache"))),
            "--checkpoint" => args.checkpoint = Some(PathBuf::from(value("--checkpoint"))),
            "--no-cache" => args.cache = None,
            "--no-checkpoint" => args.checkpoint = None,
            "--events" => args.events = Some(PathBuf::from(value("--events"))),
            "--flightrec" => args.flightrec = Some(PathBuf::from(value("--flightrec"))),
            "--watchdog" => args.watchdog = true,
            "--stall-timeout" => {
                args.stall_timeout = value("--stall-timeout")
                    .parse()
                    .expect("--stall-timeout takes seconds")
            }
            other => panic!("unknown flag {other} (see the doc comment for usage)"),
        }
    }
    args
}

/// `sweep export`: writes the binary cache at `--from` to `--to` as
/// JSONL, one line per cell in `(shard, offset)` order, so two exports of
/// the same cache are byte-identical.
fn run_export(rest: Vec<String>) {
    let mut from: Option<PathBuf> = None;
    let mut to: Option<PathBuf> = None;
    let mut it = rest.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match flag.as_str() {
            "--from" => from = Some(PathBuf::from(value("--from"))),
            "--to" => to = Some(PathBuf::from(value("--to"))),
            other => panic!("unknown export flag {other} (use --from/--to)"),
        }
    }
    let from = from.expect("export requires --from <cache dir>");
    let to = to.expect("export requires --to <file>");
    // Opening creates a missing directory; an export must not.
    if !from.is_dir() {
        eprintln!("export: {} is not a cache directory", from.display());
        std::process::exit(1);
    }
    let cache = BinaryCache::open(&from, 0).expect("open binary cache");
    let mut out = std::io::BufWriter::new(std::fs::File::create(&to).expect("create export file"));
    let lines = export_jsonl(&cache, &mut out).expect("write export");
    out.flush().expect("write export");
    println!(
        "export: {lines} entries, {} -> {}",
        from.display(),
        to.display()
    );
}

fn main() {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("export") {
        raw.remove(0);
        run_export(raw);
        return;
    }
    let args = parse_args();
    let configs: Vec<SimConfig> = args
        .p_values
        .iter()
        .map(|&p| SimConfig {
            nodes: args.nodes,
            beacons: args.beacons,
            malicious: args.malicious,
            attacker_p: p,
            ..SimConfig::paper_default()
        })
        .collect();
    // Refuse an invalid grid before any worker starts: a cell that fails
    // validation would panic inside the pool instead.
    for config in &configs {
        if let Err(err) = config.validate() {
            eprintln!("sweep: invalid configuration: {err}");
            std::process::exit(1);
        }
    }
    let seeds: Vec<u64> = (1..=args.seeds).collect();
    let spec = SweepSpec::product(&configs, &seeds);
    println!(
        "sweep: {} configs x {} seeds = {} cells",
        configs.len(),
        seeds.len(),
        spec.len()
    );

    // Sink chain, innermost first: JSONL file <- health monitor. The
    // flight recorder is handed to the orchestrator, which fans it into
    // whatever chain is installed here.
    let registry = Arc::new(MetricsRegistry::new());
    let events_sink: Option<Arc<JsonlSink>> = args.events.as_ref().map(|path| {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).expect("create events dir");
            }
        }
        Arc::new(JsonlSink::create(path).expect("create events file"))
    });
    let downstream: Option<Arc<dyn EventSink + Send + Sync>> = events_sink
        .clone()
        .map(|s| s as Arc<dyn EventSink + Send + Sync>);
    let monitor: Option<Arc<HealthMonitor>> = args.watchdog.then(|| {
        let detectors: Vec<Box<dyn HealthDetector>> = vec![
            Box::new(StalledStreamDetector::new(Duration::from_secs(
                args.stall_timeout,
            ))),
            Box::new(CounterAnomalyDetector::new(None)),
            Box::new(CacheHitRateDetector::new(0.5, 16)),
            Box::new(CheckpointGapDetector::new(64)),
        ];
        Arc::new(HealthMonitor::new(detectors, downstream.clone()))
    });
    let sink: Option<Arc<dyn EventSink + Send + Sync>> = match &monitor {
        Some(m) => Some(m.clone() as Arc<dyn EventSink + Send + Sync>),
        None => downstream,
    };
    let obs = Obs::new(Some(registry.clone()), sink);

    let recorder = args
        .flightrec
        .as_ref()
        .map(|_| Arc::new(FlightRecorder::new(4096)));
    let mut orch = Orchestrator::new().workers(args.workers).observed(&obs);
    if let Some(cache) = &args.cache {
        orch = orch.cache(cache);
    }
    if let Some(checkpoint) = &args.checkpoint {
        orch = orch.checkpoint(checkpoint);
    }
    if let (Some(recorder), Some(dir)) = (&recorder, &args.flightrec) {
        orch = orch.flight_recorder(recorder.clone(), dir);
    }

    // Live progress from the obs counters, polled while the sweep runs;
    // the same loop drives the watchdog's wall-clock detectors.
    let done_counter = registry.counter("sweep.cells_done");
    let resumed_counter = registry.counter("sweep.cells_resumed");
    let cached_counter = registry.counter("sweep.cells_cached");
    let shards_gauge = registry.gauge("sweep.cache_shards");
    let total = spec.len() as u64;
    let started = Instant::now();
    let tick_monitor = monitor.clone();
    // Set when `run` returns, so a failed sweep stops the progress loop.
    let run_over = &AtomicBool::new(false);
    let report = std::thread::scope(|scope| {
        let progress = scope.spawn(move || {
            let mut last = u64::MAX;
            loop {
                let done = done_counter.get();
                if done != last {
                    let reused = resumed_counter.get() + cached_counter.get();
                    let reuse_pct = if done > 0 {
                        100.0 * reused.min(done) as f64 / done as f64
                    } else {
                        0.0
                    };
                    let elapsed = started.elapsed().as_secs_f64();
                    let rate = if elapsed > 0.0 {
                        done as f64 / elapsed
                    } else {
                        0.0
                    };
                    let eta = if rate > 0.0 {
                        (total - done) as f64 / rate
                    } else {
                        f64::INFINITY
                    };
                    let shards = shards_gauge.get();
                    let shard_note = if shards > 0 {
                        format!(" | {shards} shards")
                    } else {
                        String::new()
                    };
                    eprint!(
                        "\r  {done}/{total} cells | {rate:.1} cells/s | reuse {reuse_pct:.0}%{shard_note} | ETA {eta:.0}s   "
                    );
                    last = done;
                }
                if done >= total || run_over.load(Ordering::Relaxed) {
                    eprintln!();
                    return;
                }
                if let Some(m) = &tick_monitor {
                    m.tick();
                }
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
        });
        let report = orch.run(&spec);
        run_over.store(true, Ordering::Relaxed);
        progress.join().expect("progress thread");
        report
    });
    let report = report.unwrap_or_else(|err| {
        eprintln!("sweep failed: {err}");
        std::process::exit(1);
    });

    println!(
        "resumed {} | cached {} | executed {} | workers {} (used {}) | steals {} | {:.1} cells/s",
        report.resumed,
        report.cache_hits,
        report.executed,
        report.workers_spawned,
        report.workers_used,
        report.steal_batches,
        report.cells_per_sec
    );
    if report.cache_shards > 0 {
        println!("cache shards: {}", report.cache_shards);
    }
    if report.executed == 0 {
        println!("all cells served without simulation (100% cache/checkpoint reuse)");
    }

    println!("\n  P     detect  false+  N'");
    for (i, &p) in args.p_values.iter().enumerate() {
        let rows = &report.outcomes[i * seeds.len()..(i + 1) * seeds.len()];
        let agg = average_outcomes(rows);
        println!(
            "  {p:<5} {:<7.3} {:<7.3} {:.2}",
            agg.detection_rate, agg.false_positive_rate, agg.affected_after
        );
    }
    if let Some(cache) = &args.cache {
        println!("\ncache: {}", cache.display());
    }
    if let Some(checkpoint) = &args.checkpoint {
        println!("checkpoint: {}", checkpoint.display());
    }

    // End-of-stream invariants, then surface sink I/O errors loudly: a
    // silently truncated event log is worse than a failed run.
    if let Some(m) = &monitor {
        m.finish();
    }
    if let Some(sink) = &events_sink {
        if let Err(err) = sink.try_flush() {
            eprintln!("events sink error: {err}");
            std::process::exit(1);
        }
        if let Some(path) = &args.events {
            println!("events: {}", path.display());
        }
    }
    if let Some(m) = &monitor {
        let alerts = m.alerts();
        if !alerts.is_empty() {
            eprintln!("\nWATCHDOG: {} health alert(s)", alerts.len());
            for alert in &alerts {
                eprintln!("  [{}] {}", alert.detector, alert.message);
            }
            if let (Some(recorder), Some(dir)) = (&recorder, &args.flightrec) {
                let path = dir.join("flightrec_health.jsonl");
                if let Ok(n) = recorder.dump(&path) {
                    eprintln!("  flight dump: {} ({n} events)", path.display());
                }
            }
            std::process::exit(2);
        }
        println!("watchdog: healthy");
    }
}
