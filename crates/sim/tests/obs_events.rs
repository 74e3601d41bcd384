//! Integration test: an instrumented run emits the expected event stream
//! and produces the exact same measurements as an uninstrumented run.

use secloc_obs::health::{CounterAnomalyDetector, HealthDetector, HealthMonitor};
use secloc_obs::{Event, MemorySink, MetricsRegistry, Obs, Value};
use secloc_sim::orchestrator::{cell_key, code_version_tag, CellKey};
use secloc_sim::{
    BinaryCache, Orchestrator, RunOptions, Runner, SimConfig, SweepSpec, PHASE_NAMES,
};
use std::sync::Arc;

fn shrunk() -> SimConfig {
    SimConfig {
        nodes: 200,
        beacons: 20,
        malicious: 2,
        attacker_p: 0.5,
        ..SimConfig::paper_default()
    }
}

#[test]
fn instrumented_run_emits_expected_event_kinds_in_order() {
    let registry = Arc::new(MetricsRegistry::new());
    let sink = Arc::new(MemorySink::new());
    let telemetry = Obs::new(Some(registry.clone()), Some(sink.clone()));

    let runner = Runner::new_observed(shrunk(), 11, &telemetry);
    let outcome = runner.run(RunOptions::new().observed(&telemetry)).outcome;

    let events = sink.events();
    assert!(!events.is_empty());

    // Sequence numbers are strictly increasing — emission order is real.
    for pair in events.windows(2) {
        assert!(pair[0].seq < pair[1].seq);
    }

    // The deploy phase is announced at construction time, before run.start.
    let kinds: Vec<&str> = events.iter().map(|e| e.kind.as_str()).collect();
    assert_eq!(kinds[0], "phase");
    assert_eq!(
        events[0].field("name"),
        Some(&Value::Str("deploy".to_string()))
    );

    // One run.start, then phases in pipeline order, then the closing pair.
    let phase_names: Vec<String> = events
        .iter()
        .filter(|e| e.kind == "phase")
        .filter_map(|e| match e.field("name") {
            Some(Value::Str(s)) => Some(s.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(
        phase_names,
        [
            "deploy",
            "detection",
            "location",
            "alert_delivery",
            "revocation",
            "impact"
        ]
    );

    let run_start = kinds.iter().position(|k| *k == "run.start").unwrap();
    assert_eq!(run_start, 2, "deploy phase + span precede run.start");
    assert_eq!(*kinds.last().unwrap(), "run.end");
    assert_eq!(kinds[kinds.len() - 2], "round.snapshot");

    // Every phase gets a span event; spans close after their phase opens.
    let span_count = kinds.iter().filter(|k| **k == "span").count();
    assert_eq!(span_count, 6, "one span per phase");

    // Revocation events match the decisions that revoked.
    let revocation_events = events.iter().filter(|e| e.kind == "revocation").count();
    assert_eq!(
        revocation_events as u32,
        outcome.revoked_malicious + outcome.revoked_benign
    );
    let revoking_decisions = events
        .iter()
        .filter(|e| e.kind == "bs.alert")
        .filter(|e| e.field("outcome") == Some(&Value::Str("accepted_and_revoked".to_string())))
        .count();
    assert_eq!(revocation_events, revoking_decisions);
}

#[test]
fn instrumented_counters_agree_with_outcome() {
    let registry = Arc::new(MetricsRegistry::new());
    let telemetry = Obs::with_metrics(registry.clone());

    let runner = Runner::new_observed(shrunk(), 23, &telemetry);
    let outcome = runner.run(RunOptions::new().observed(&telemetry)).outcome;
    let snap = registry.snapshot();

    assert_eq!(
        snap.counter("detect.alerts_raised"),
        Some(outcome.benign_alerts as u64)
    );
    assert_eq!(
        snap.counter("alerts.sent.collusion").unwrap_or(0),
        outcome.collusion_alerts as u64
    );
    assert_eq!(
        snap.gauge("sim.revoked_malicious"),
        Some(outcome.revoked_malicious as i64)
    );
    assert_eq!(
        snap.gauge("sim.revoked_benign"),
        Some(outcome.revoked_benign as i64)
    );
    // Every base-station decision on a delivered alert is accounted for.
    let decisions: u64 = [
        "bs.alert.accepted",
        "bs.alert.accepted_and_revoked",
        "bs.alert.ignored_reporter_budget",
        "bs.alert.ignored_target_revoked",
    ]
    .iter()
    .map(|n| snap.counter(n).unwrap_or(0))
    .sum();
    let sent = snap.counter("alerts.sent.detection").unwrap_or(0)
        + snap.counter("alerts.sent.collusion").unwrap_or(0);
    let dropped = snap.counter("alerts.dropped_in_transit").unwrap_or(0);
    assert_eq!(decisions, sent - dropped);
    // Every phase is timed exactly once.
    for name in PHASE_NAMES {
        let h = snap
            .histogram(&format!("span.phase.{name}.ns"))
            .unwrap_or_else(|| panic!("phase {name} untimed"));
        assert_eq!(h.count, 1, "phase {name}");
        assert!(h.sum > 0.0, "phase {name}");
    }
}

/// Counts `cell.complete` events by their `cache` classification.
fn cache_class_counts(events: &[Event]) -> (usize, usize, usize, usize) {
    let (mut miss, mut memo, mut hit, mut resumed) = (0, 0, 0, 0);
    for event in events.iter().filter(|e| e.kind == "cell.complete") {
        match event.field("cache") {
            Some(Value::Str(s)) if s == "miss" => miss += 1,
            Some(Value::Str(s)) if s == "memo" => memo += 1,
            Some(Value::Str(s)) if s == "hit" => hit += 1,
            Some(Value::Str(s)) if s == "resumed" => resumed += 1,
            other => panic!("cell.complete with unexpected cache field {other:?}"),
        }
    }
    (miss, memo, hit, resumed)
}

#[test]
fn sweep_cell_complete_accounting_adds_up() {
    // A sweep mixing every cache class: one cell resumed from a truncated
    // checkpoint, two served by the cache, and three executed (two paying
    // a probe stage, one replaying a shared one). The per-cell
    // `cell.complete` events must classify each exactly once and agree
    // with the `SweepReport` tallies.
    let mut variants = Vec::new();
    for tau in [1u32, 2, 3] {
        let mut c = shrunk();
        c.tau = tau;
        variants.push(c);
    }
    let seeds = [31u64, 32];
    let spec = SweepSpec::product(&variants, &seeds);
    let dir = std::env::temp_dir().join(format!("secloc-obs-acct-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cold_cache = dir.join("cold.bin");
    let cache = dir.join("cache.bin");
    let ckpt = dir.join("ckpt.jsonl");

    let cold = Orchestrator::new()
        .workers(2)
        .cache(&cold_cache)
        .checkpoint(&ckpt)
        .run(&spec)
        .unwrap();
    assert_eq!(cold.executed, spec.len());

    // Truncate the checkpoint to header + 1 cell, and copy the cache
    // without the entries for cells 3..6 so they must re-execute. Cell
    // order is config-major, so the pending set {3, 4, 5} spans two probe
    // fingerprints: {3, 5} share seed 32's stage, {4} is alone on seed 31.
    let kept: String = std::fs::read_to_string(&ckpt)
        .unwrap()
        .lines()
        .take(2)
        .map(|l| format!("{l}\n"))
        .collect();
    std::fs::write(&ckpt, kept).unwrap();
    let tag = code_version_tag();
    let dropped: Vec<CellKey> = spec.cells()[3..]
        .iter()
        .map(|c| cell_key(&c.config, c.seed, &tag))
        .collect();
    let mut filtered = BinaryCache::open(&cache, 0).unwrap();
    for (key, outcome) in BinaryCache::open(&cold_cache, 0)
        .unwrap()
        .entries()
        .unwrap()
    {
        if !dropped.contains(&key) {
            filtered.insert_checked(key, outcome).unwrap();
        }
    }
    drop(filtered);

    let sink = Arc::new(MemorySink::new());
    let obs = Obs::new(Some(Arc::new(MetricsRegistry::new())), Some(sink.clone()));
    let report = Orchestrator::new()
        .workers(2)
        .cache(&cache)
        .checkpoint(&ckpt)
        .observed(&obs)
        .run(&spec)
        .unwrap();
    assert_eq!(report.outcomes, cold.outcomes);
    assert_eq!(
        (report.resumed, report.cache_hits, report.executed),
        (1, 2, 3)
    );

    let events = sink.events();
    let (miss, memo, hit, resumed) = cache_class_counts(&events);
    assert_eq!(resumed, report.resumed);
    assert_eq!(hit, report.cache_hits);
    assert_eq!(miss + memo, report.executed, "executed = misses + memos");
    assert_eq!((miss, memo), (2, 1), "one cell replays a shared stage");
    assert_eq!(miss + memo + hit + resumed, spec.len());

    // Every cell.complete is attributable: trace id == cell key, and the
    // standard fields name the cell.
    for event in events.iter().filter(|e| e.kind == "cell.complete") {
        let ctx = event.ctx.expect("cell events carry a span context");
        let cell = match event.field("cell") {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("cell.complete without cell field: {other:?}"),
        };
        assert_eq!(format!("{:016x}", ctx.trace_id), cell);
        assert!(event.field("seed").is_some());
    }
    // sweep.end agrees with the report.
    let end = events.iter().find(|e| e.kind == "sweep.end").unwrap();
    assert_eq!(end.field("cells"), Some(&Value::U64(spec.len() as u64)));
    assert_eq!(end.field("resumed"), Some(&Value::U64(1)));
    assert_eq!(end.field("cached"), Some(&Value::U64(2)));
    assert_eq!(end.field("executed"), Some(&Value::U64(3)));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn counter_anomaly_detector_flags_doctored_streams_only() {
    // End-to-end watchdog check: a real sweep's event stream is healthy,
    // and the same stream with one corrupted counter — an
    // `alerts.summary` whose `delivered` total disagrees with the
    // per-decision `bs.alert` events — trips the counter-anomaly detector.
    let sink = Arc::new(MemorySink::new());
    let obs = Obs::new(None, Some(sink.clone()));
    Orchestrator::new()
        .workers(1)
        .observed(&obs)
        .run(&SweepSpec::single(&shrunk(), &[41, 42]))
        .unwrap();
    let events = sink.events();
    assert!(events.iter().any(|e| e.kind == "bs.alert"));

    let replay = |events: &[Event]| -> Vec<String> {
        let detectors: Vec<Box<dyn HealthDetector>> =
            vec![Box::new(CounterAnomalyDetector::new(None))];
        let monitor = HealthMonitor::new(detectors, None);
        for event in events {
            use secloc_obs::EventSink as _;
            monitor.emit(event);
        }
        monitor.finish();
        monitor
            .alerts()
            .iter()
            .map(|a| a.detector.clone())
            .collect()
    };

    assert!(replay(&events).is_empty(), "clean stream must stay healthy");

    let mut doctored = events.clone();
    let summary = doctored
        .iter_mut()
        .find(|e| e.kind == "alerts.summary")
        .expect("sweep emits alerts.summary");
    for (name, value) in &mut summary.fields {
        if name == "delivered" {
            if let Value::U64(v) = value {
                *v += 1; // one decision went uncounted
            }
        }
    }
    let alerts = replay(&doctored);
    assert!(
        alerts.iter().any(|d| d == "counter_anomaly"),
        "doctored stream must trip the detector, got {alerts:?}"
    );
}

#[test]
fn instrumentation_does_not_change_outcomes() {
    for seed in [1u64, 17, 99] {
        let plain = Runner::new(shrunk(), seed).run(RunOptions::new()).outcome;

        let registry = Arc::new(MetricsRegistry::new());
        let sink = Arc::new(MemorySink::new());
        let telemetry = Obs::new(Some(registry), Some(sink));
        let observed = Runner::new_observed(shrunk(), seed, &telemetry)
            .run(RunOptions::new().observed(&telemetry))
            .outcome;

        assert_eq!(plain, observed, "instrumentation perturbed seed {seed}");
    }
}

/// FNV-1a over the JSONL text of `events`, with the fields that differ
/// between identical runs zeroed: `seq` is a process-wide counter, and
/// `nanos`, `busy_ns` and `idle_ns` are wall-clock timings.
fn masked_stream_digest(events: &[Event]) -> u64 {
    let mut text = String::new();
    for event in events {
        let mut event = event.clone();
        event.seq = 0;
        for (name, value) in &mut event.fields {
            if matches!(name.as_str(), "nanos" | "busy_ns" | "idle_ns") {
                *value = Value::U64(0);
            }
        }
        text.push_str(&event.to_json());
        text.push('\n');
    }
    secloc_obs::fnv1a(text.as_bytes())
}

#[test]
fn event_stream_bytes_are_pinned() {
    // The exact event bytes of (a) one observed run and (b) one serial
    // sweep over a τ axis × 2 seeds, whose multi-cell units finish cells
    // from a shared probe stage. Both streams carry `bs.alert` and
    // `revocation` events. A change to either literal is a change to the
    // event schema or to a decision, never a side effect of a refactor.
    // Four malicious beacons collude, so both alert sources and both
    // benign and malicious revocations appear.
    let config = SimConfig {
        malicious: 4,
        ..shrunk()
    };
    let sink = Arc::new(MemorySink::new());
    let obs = Obs::new(Some(Arc::new(MetricsRegistry::new())), Some(sink.clone()));
    Runner::new(config.clone(), 14).run(RunOptions::new().observed(&obs));
    let run_events = sink.drain();
    for kind in ["bs.alert", "revocation"] {
        assert!(
            run_events.iter().any(|e| e.kind == kind),
            "run lacks {kind}"
        );
    }

    let variants: Vec<SimConfig> = [1u32, 2, 3]
        .iter()
        .map(|&tau| SimConfig {
            tau,
            ..config.clone()
        })
        .collect();
    let spec = SweepSpec::product(&variants, &[7, 14]);
    Orchestrator::new()
        .workers(1)
        .observed(&obs)
        .run(&spec)
        .unwrap();
    let sweep_events = sink.drain();
    for kind in ["bs.alert", "revocation"] {
        assert!(
            sweep_events.iter().any(|e| e.kind == kind),
            "sweep lacks {kind}"
        );
    }
    let memo_cells = sweep_events
        .iter()
        .filter(|e| e.kind == "cell.complete")
        .filter(|e| e.field("cache") == Some(&Value::Str("memo".to_string())))
        .count();
    assert_eq!(memo_cells, 4, "two seeds × two shared-stage cells each");

    assert_eq!(
        (
            masked_stream_digest(&run_events),
            masked_stream_digest(&sweep_events)
        ),
        (4648419364886478759, 3974430054931853472)
    );
}
