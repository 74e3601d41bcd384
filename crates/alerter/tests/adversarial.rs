//! Adversarial-input tests: the service must keep exact protocol
//! semantics under malformed lines (invalid UTF-8 included), duplicate
//! and out-of-order accusations, mid-stream deployment churn, and heavy
//! interleaving — and N concurrent deployments must never
//! cross-contaminate.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::peak_live_bytes;
use proptest::prelude::*;
use secloc_alerter::{replay_stream, Alerter, AlerterConfig, MAX_LINE_BYTES};
use secloc_core::{AlertOutcome, RevocationConfig, RevocationMachine};
use secloc_crypto::NodeId;
use secloc_obs::{MemorySink, Obs, Value};
use std::io::{self, BufReader, Read as _};
use std::sync::Arc;

#[global_allocator]
static GLOBAL: counting_alloc::Counting = counting_alloc::Counting;

fn alert(dep: &str, reporter: u32, target: u32) -> String {
    format!(r#"{{"kind":"alert","deployment":"{dep}","reporter":{reporter},"target":{target}}}"#)
}

fn fresh() -> Alerter {
    Alerter::new(AlerterConfig::default(), Obs::disabled())
}

#[test]
fn garbage_between_valid_lines_changes_nothing() {
    let garbage: &[&str] = &[
        "",
        "   ",
        "not json at all",
        "{\"kind\":",
        "[1,2,3]",
        "42",
        r#"{"no_kind":true}"#,
        r#"{"kind":42}"#,
        r#"{"kind":"alert"}"#,
        r#"{"kind":"alert","reporter":"one","target":2}"#,
        r#"{"kind":"alert","reporter":1,"target":99999999999}"#,
        r#"{"kind":"cell.start"}"#,
        r#"{"kind":"cell.start","cell":"x","tau":-1}"#,
        "\u{0}\u{1}\u{2}",
    ];
    let mut clean = fresh();
    let mut dirty = fresh();
    for r in 1..=3u32 {
        clean.ingest_line(&alert("d", r, 9));
        for g in garbage {
            dirty.ingest_line(g);
        }
        dirty.ingest_line(&alert("d", r, 9));
    }
    assert!(clean.is_revoked("d", 9));
    assert!(dirty.is_revoked("d", 9));
    assert_eq!(
        clean.machine("d").unwrap().state(),
        dirty.machine("d").unwrap().state(),
        "malformed lines must not perturb protocol state"
    );
    assert!(dirty.stats().malformed > 0, "they are counted, though");
}

#[test]
fn non_utf8_line_between_valid_lines_is_one_malformed_line() {
    let valid: Vec<String> = (1..=3u32).map(|r| alert("d", r, 9)).collect();
    let clean_stream = valid.join("\n") + "\n";
    let mut dirty_stream = Vec::new();
    for (i, line) in valid.iter().enumerate() {
        dirty_stream.extend_from_slice(line.as_bytes());
        dirty_stream.extend_from_slice(if i == 0 { b"\r\n" } else { b"\n" });
        if i == 0 {
            dirty_stream.extend_from_slice(b"{\"kind\":\"alert\",\"deployment\":\"d\xff\xfe\"}\n");
        }
    }
    let sink = Arc::new(MemorySink::new());
    let mut clean = fresh();
    let mut dirty = Alerter::new(AlerterConfig::default(), Obs::with_sink(sink.clone()));
    clean
        .ingest_reader(clean_stream.as_bytes())
        .expect("clean stream");
    dirty
        .ingest_reader(&dirty_stream[..])
        .expect("a non-UTF-8 line does not end the stream");

    assert!(dirty.is_revoked("d", 9), "lines after it still count");
    assert_eq!(
        clean.machine("d").unwrap().state(),
        dirty.machine("d").unwrap().state()
    );
    let (c, d) = (clean.stats(), dirty.stats());
    assert_eq!(d.malformed, c.malformed + 1);
    assert_eq!(d.lines, c.lines + 1, "the bad line is still a line");
    assert_eq!(
        (d.decisions, d.revocations, d.ignored, d.implicit_deploys),
        (c.decisions, c.revocations, c.ignored, c.implicit_deploys)
    );
    let malformed: Vec<_> = sink
        .events()
        .into_iter()
        .filter(|e| e.kind == "alerter.malformed")
        .collect();
    assert_eq!(malformed.len(), 1);
    assert!(
        matches!(malformed[0].field("error"), Some(Value::Str(e)) if e.starts_with("invalid UTF-8")),
        "{:?}",
        malformed[0]
    );

    // Replay survives it the same way instead of aborting.
    let (replayed, _) = replay_stream(&dirty_stream[..], AlerterConfig::default(), Obs::disabled())
        .expect("replay survives a non-UTF-8 line");
    assert_eq!(replayed.stats().malformed, 1);
    assert_eq!(replayed.stats().decisions, c.decisions);
}

#[test]
fn an_oversized_line_is_skipped_in_bounded_memory() {
    let (block, peak) = peak_live_bytes(|| vec![0u8; 4 << 20]);
    assert!(peak >= 4 << 20, "the live-byte counter sees allocations");
    drop(block);

    // A valid line, 16 MiB of one line generated on the fly (so the input
    // itself is never in memory), then another valid line.
    let huge = 16u64 << 20;
    let stream = io::Cursor::new(alert("d", 1, 9) + "\n")
        .chain(io::repeat(b'x').take(huge))
        .chain(io::Cursor::new(format!("\n{}\n", alert("d", 2, 9))));
    let reader = BufReader::new(stream);
    let sink = Arc::new(MemorySink::new());
    let mut alerter = Alerter::new(AlerterConfig::default(), Obs::with_sink(sink.clone()));
    let (result, peak) = peak_live_bytes(|| alerter.ingest_reader(reader));
    result.expect("an oversized line does not end the stream");

    let stats = alerter.stats();
    assert_eq!((stats.lines, stats.malformed), (3, 1));
    assert_eq!(stats.decisions, 2, "both valid lines were ingested");
    assert!(
        peak < 2 << 20,
        "ingesting a 16 MiB line held {peak} bytes live at once"
    );
    let errors: Vec<_> = sink
        .events()
        .into_iter()
        .filter(|e| e.kind == "alerter.malformed")
        .filter_map(|e| match e.field("error") {
            Some(Value::Str(error)) => Some(error.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(errors.len(), 1);
    assert!(
        errors[0].contains(&MAX_LINE_BYTES.to_string()),
        "the reason names the cap: {}",
        errors[0]
    );
}

#[test]
fn a_line_just_under_the_cap_is_read_whole() {
    // Padding in a string value keeps the line valid JSON at any length.
    let line = |pad: usize| {
        format!(
            r#"{{"kind":"alert","deployment":"d","reporter":1,"target":9,"pad":"{}"}}"#,
            "x".repeat(pad)
        )
    };
    let long = line(MAX_LINE_BYTES - 1 - line(0).len());
    assert_eq!(
        long.len() + 1,
        MAX_LINE_BYTES,
        "newline included, exactly the cap"
    );
    let mut alerter = fresh();
    alerter
        .ingest_reader(format!("{long}\n{}\n", line(MAX_LINE_BYTES)).as_bytes())
        .expect("stream");
    let stats = alerter.stats();
    assert_eq!((stats.lines, stats.malformed, stats.decisions), (2, 1, 1));
}

#[test]
fn a_deeply_nested_line_is_one_malformed_line() {
    // 100,000 levels of brackets: 200 KB, well under the line cap. A parser
    // that recursed once per bracket without a bound would overflow the
    // stack here and abort the whole process.
    let deep = format!(
        r#"{{"kind":"phase","x":{}{}}}"#,
        "[".repeat(100_000),
        "]".repeat(100_000)
    );
    let stream = format!("{}\n{deep}\n{}\n", alert("d", 1, 9), alert("d", 2, 9));
    let sink = Arc::new(MemorySink::new());
    let mut alerter = Alerter::new(AlerterConfig::default(), Obs::with_sink(sink.clone()));
    alerter
        .ingest_reader(stream.as_bytes())
        .expect("a deeply nested line does not end the stream");
    let stats = alerter.stats();
    assert_eq!((stats.lines, stats.malformed, stats.decisions), (3, 1, 2));
    let errors: Vec<_> = sink
        .events()
        .into_iter()
        .filter(|e| e.kind == "alerter.malformed")
        .filter_map(|e| match e.field("error") {
            Some(Value::Str(error)) => Some(error.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(
        errors,
        ["invalid JSON: nesting deeper than 128 levels at byte 147"]
    );
}

#[test]
fn duplicate_accusations_consume_nothing_streamwise() {
    let mut a = fresh();
    // Reporter 1 spams the same accusation: one acceptance, τ' never
    // cleared, and reporter 1's budget (τ+1 = 3) is charged once.
    for _ in 0..50 {
        a.ingest_line(&alert("d", 1, 9));
    }
    assert!(!a.is_revoked("d", 9));
    let m = a.machine("d").unwrap();
    assert_eq!(m.suspiciousness(NodeId(9)), 1);
    assert_eq!(m.reports_spent(NodeId(1)), 1);
    // Two more distinct accusers still revoke: duplicates were free.
    a.ingest_line(&alert("d", 2, 9));
    a.ingest_line(&alert("d", 3, 9));
    assert!(a.is_revoked("d", 9));
}

#[test]
fn out_of_order_lifecycle_is_survived() {
    let mut a = fresh();
    // End before start, accusations before any start, duplicate starts,
    // end of a never-seen deployment.
    a.ingest_line(r#"{"kind":"deploy.end","deployment":"ghost"}"#);
    a.ingest_line(&alert("late", 1, 9));
    a.ingest_line(r#"{"kind":"deploy.start","deployment":"late","tau":2,"tau_prime":2}"#);
    a.ingest_line(&alert("late", 2, 9));
    a.ingest_line(r#"{"kind":"deploy.start","deployment":"late","tau":0,"tau_prime":0}"#);
    a.ingest_line(&alert("late", 3, 9));
    let s = a.stats();
    assert_eq!(s.malformed, 0, "out-of-order input is not malformed");
    assert_eq!(
        s.implicit_deploys, 1,
        "the early accusation opened the slot"
    );
    assert!(
        a.is_revoked("late", 9),
        "three distinct accusers clear tau'=2"
    );
    // The mid-stream policy downgrade was ignored: decisions had begun.
    assert_eq!(a.machine("late").unwrap().config().tau_prime, 2);
}

#[test]
fn churned_key_reincarnates_with_clean_state() {
    let mut a = fresh();
    for generation in 0..10u32 {
        a.ingest_line(&alert("site", 1, 9));
        a.ingest_line(&alert("site", 2, 9));
        assert!(
            !a.is_revoked("site", 9),
            "generation {generation}: two accusers stay below the tau'=2 quorum"
        );
        a.ingest_line(r#"{"kind":"deploy.end","deployment":"site"}"#);
    }
    let s = a.stats();
    assert_eq!(s.retired, 10);
    assert_eq!(s.revocations, 0, "no generation ever reached quorum");
    assert_eq!(s.peak_active, 1, "churned generations reuse one slot");
}

#[test]
fn emitted_decisions_carry_the_deployment_scope() {
    let sink = Arc::new(MemorySink::new());
    let mut a = Alerter::new(AlerterConfig::default(), Obs::with_sink(sink.clone()));
    a.ingest_line(&alert("field-7", 1, 9));
    a.ingest_line(&alert("other", 1, 9));
    a.finish();
    let events = sink.events();
    let decisions: Vec<_> = events
        .iter()
        .filter(|e| e.kind == "alerter.decision")
        .collect();
    assert_eq!(decisions.len(), 2);
    assert_eq!(
        decisions[0].field("cell"),
        Some(&Value::Str("field-7".into()))
    );
    assert_eq!(
        decisions[1].field("cell"),
        Some(&Value::Str("other".into()))
    );
    assert_ne!(
        decisions[0].ctx.unwrap().trace_id,
        decisions[1].ctx.unwrap().trace_id,
        "each deployment gets its own trace"
    );
    assert!(events.iter().any(|e| e.kind == "alerter.summary"));
}

/// The reference for the cross-contamination property: one machine per
/// deployment, fed only its own accusations, in order.
fn reference_machines(deployments: usize, stream: &[(usize, u32, u32)]) -> Vec<RevocationMachine> {
    let mut machines: Vec<RevocationMachine> = (0..deployments)
        .map(|_| RevocationMachine::new(RevocationConfig::paper_default()))
        .collect();
    for &(dep, reporter, target) in stream {
        machines[dep].decide(NodeId(reporter), NodeId(target));
    }
    machines
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn interleaved_deployments_never_cross_contaminate(
        deployments in 2usize..8,
        stream in proptest::collection::vec((0usize..8, 0u32..6, 0u32..6), 1..120),
    ) {
        let stream: Vec<(usize, u32, u32)> = stream
            .into_iter()
            .map(|(d, r, t)| (d % deployments, r, t))
            .collect();
        let mut a = fresh();
        for &(dep, reporter, target) in &stream {
            a.ingest_line(&alert(&format!("dep-{dep}"), reporter, target));
        }
        // However the deployments interleave, every machine's final state
        // is exactly what its own sub-stream produces in isolation — the
        // batch semantics, unpolluted by the other deployments.
        let reference = reference_machines(deployments, &stream);
        for (dep, want) in reference.iter().enumerate() {
            let touched = stream.iter().any(|&(d, _, _)| d == dep);
            let got = a.machine(&format!("dep-{dep}"));
            match (touched, got) {
                (false, None) => {}
                (true, Some(got)) => prop_assert_eq!(
                    got.state(),
                    want.state(),
                    "deployment {} diverged from its isolated replay",
                    dep
                ),
                (touched, got) => prop_assert!(
                    false,
                    "deployment {} touched={} but machine present={}",
                    dep,
                    touched,
                    got.is_some()
                ),
            }
        }
        prop_assert_eq!(a.stats().decisions, stream.len() as u64);
        prop_assert_eq!(a.stats().malformed, 0u64);
    }

    #[test]
    fn retired_and_interleaved_deployments_match_fresh_machines(
        stream in proptest::collection::vec((0usize..4, 0u32..6, 0u32..7), 1..200),
    ) {
        // Target 6 stands for the deployment's end. Slots, and the machines
        // in them, pass from retired deployments to new ones without
        // carrying state across.
        let mut a = fresh();
        let mut reference: Vec<Option<RevocationMachine>> = vec![None; 4];
        let (mut revocations, mut retired) = (0u64, 0u64);
        for &(dep, reporter, target) in &stream {
            let key = format!("dep-{dep}");
            if target == 6 {
                a.ingest_line(&format!(r#"{{"kind":"deploy.end","deployment":"{key}"}}"#));
                retired += u64::from(reference[dep].take().is_some());
            } else {
                a.ingest_line(&alert(&key, reporter, target));
                let outcome = reference[dep]
                    .get_or_insert_with(|| RevocationMachine::new(RevocationConfig::paper_default()))
                    .decide(NodeId(reporter), NodeId(target));
                revocations += u64::from(outcome == AlertOutcome::AcceptedAndRevoked);
            }
        }
        for (dep, want) in reference.iter().enumerate() {
            let got = a.machine(&format!("dep-{dep}"));
            prop_assert_eq!(got.map(|m| m.state()), want.as_ref().map(|m| m.state()));
        }
        let stats = a.stats();
        prop_assert_eq!((stats.revocations, stats.retired), (revocations, retired));
    }

    #[test]
    fn wire_state_round_trips_under_interleaving(
        stream in proptest::collection::vec((0u32..5, 0u32..5), 1..60),
    ) {
        // Serializing a live machine mid-stream and resuming from the wire
        // form continues identically — the state machine is its state.
        let mut a = fresh();
        let (head, tail) = stream.split_at(stream.len() / 2);
        for &(r, t) in head {
            a.ingest_line(&alert("d", r, t));
        }
        let wire = a.machine("d").map(|m| m.to_wire());
        let mut resumed = wire
            .map(|w| RevocationMachine::from_wire(&w).expect("wire round-trip"))
            .unwrap_or_else(|| RevocationMachine::new(RevocationConfig::paper_default()));
        for &(r, t) in tail {
            a.ingest_line(&alert("d", r, t));
            resumed.decide(NodeId(r), NodeId(t));
        }
        if let Some(live) = a.machine("d") {
            prop_assert_eq!(live.state(), resumed.state());
        }
    }
}
