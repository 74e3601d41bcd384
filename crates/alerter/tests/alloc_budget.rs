//! The decode path's allocation budget, counted by a global allocator.
//!
//! - `parse_line` on an escape-free recorded line allocates nothing: the
//!   event borrows its strings from the line.
//! - `ingest_line` of a `bs.alert` into a live deployment with
//!   [`Obs::disabled`] allocates nothing once the machine's tables and
//!   the reporters' accused lists cover the IDs it names.
//! - A deployment that takes over a retired one's slot, and with it the
//!   retired machine, allocates only copies of its key and its cache
//!   label.
//!
//! Counts are per thread (see `common/counting_alloc.rs`), so tests
//! running in parallel do not disturb each other.

mod common;
#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;
use secloc_alerter::{parse_line, Alerter, AlerterConfig};
use secloc_core::{RevocationConfig, RevocationMachine};
use secloc_crypto::NodeId;
use secloc_obs::Obs;

#[global_allocator]
static GLOBAL: counting_alloc::Counting = counting_alloc::Counting;

#[test]
fn counter_sees_allocations() {
    let (v, n) = allocations(|| vec![1u8; 64]);
    assert_eq!((v.len(), n), (64, 1));
}

#[test]
fn parse_line_allocates_nothing_on_recorded_lines() {
    let lines = common::recorded_lines();
    let kinds = [
        "cell.start",
        "bs.alert",
        "revocation",
        "cell.complete",
        "phase",
    ];
    for line in common::first_of_each(&lines, &kinds) {
        assert!(!line.contains('\\'), "escape-free by construction: {line}");
        let (event, n) = allocations(|| parse_line(line));
        assert!(event.is_ok(), "{line}");
        assert_eq!(n, 0, "parse_line allocated {n} times on {line}");
    }
}

/// A `bs.alert` line in the recorded format (trace coordinates, source,
/// recorded verdict, then the cell scope).
fn bs_alert(cell: &str, reporter: u32, target: u32, outcome: &str) -> String {
    format!(
        r#"{{"kind":"bs.alert","seq":19,"trace":"{cell}","span":"{cell}","reporter":{reporter},"target":{target},"source":"collusion","outcome":"{outcome}","cell":"{cell}","seed":1}}"#
    )
}

#[test]
fn ingest_line_of_an_alert_into_a_live_deployment_allocates_nothing() {
    let cell = "ca458327acc9d37e";
    let mut alerter = Alerter::new(
        AlerterConfig {
            verify_recorded: true,
            ..AlerterConfig::default()
        },
        Obs::disabled(),
    );
    // The batch verdicts, from a machine fed the same accusations.
    let mut shadow = RevocationMachine::new(RevocationConfig::paper_default());
    let mut line = |reporter: u32, target: u32| {
        let outcome = shadow.decide(NodeId(reporter), NodeId(target));
        bs_alert(cell, reporter, target, outcome.wire_label())
    };

    alerter.ingest_line(&format!(
        r#"{{"kind":"cell.start","seq":1,"trace":"{cell}","span":"{cell}","tau":2,"tau_prime":2,"cell":"{cell}","seed":1}}"#
    ));
    // Warm-up: every reporter and target below is already in the
    // machine's tables, and each reporter's accused list has room.
    for reporter in 1..=4 {
        alerter.ingest_line(&line(reporter, 40 + reporter));
    }
    // Three distinct accusers revoke node 9 (τ′ = 2); then a revoked
    // target, a duplicate, and reporter 1's last report within τ = 2 and
    // one past it.
    let measured = [(1, 9), (2, 9), (3, 9), (4, 9), (1, 41), (1, 12), (1, 13)];
    let mut outcomes = Vec::new();
    for (reporter, target) in measured {
        let text = line(reporter, target);
        outcomes.push(common::str_field(&text, "outcome").to_string());
        let ((), n) = allocations(|| alerter.ingest_line(&text));
        assert_eq!(n, 0, "ingest_line allocated {n} times on {text}");
    }
    assert_eq!(
        outcomes,
        [
            "accepted",
            "accepted",
            "accepted_and_revoked",
            "ignored_target_revoked",
            "ignored_duplicate",
            "accepted",
            "ignored_reporter_budget"
        ]
    );
    assert!(alerter.is_revoked(cell, 9));
    let stats = alerter.stats();
    assert_eq!((stats.malformed, stats.parity_mismatches), (0, 0));
    assert_eq!(stats.implicit_deploys, 0, "the deployment was live");
}

/// One deployment's lines in the recorded format: `cell.start`, 18
/// `bs.alert`s (six reporters each accuse targets 40, 41 and 42, so the
/// mix holds acceptances, revocations and revoked targets) and
/// `cell.complete`, with the verdicts of a fresh machine.
fn deployment(cell: &str) -> Vec<String> {
    let mut shadow = RevocationMachine::new(RevocationConfig::paper_default());
    let mut lines = vec![format!(
        r#"{{"kind":"cell.start","seq":1,"trace":"{cell}","span":"{cell}","tau":2,"tau_prime":2,"cell":"{cell}","seed":1}}"#
    )];
    for reporter in 1..=6 {
        for target in 40..=42 {
            let outcome = shadow.decide(NodeId(reporter), NodeId(target));
            lines.push(bs_alert(cell, reporter, target, outcome.wire_label()));
        }
    }
    lines.push(format!(
        r#"{{"kind":"cell.complete","seq":21,"trace":"{cell}","span":"{cell}","cache":"miss","cell":"{cell}","seed":1}}"#
    ));
    lines
}

#[test]
fn a_deployment_in_a_recycled_slot_allocates_only_its_key_and_label() {
    let mut alerter = Alerter::new(
        AlerterConfig {
            verify_recorded: true,
            ..AlerterConfig::default()
        },
        Obs::disabled(),
    );
    let deployments: Vec<Vec<String>> = (0..4u64)
        .map(|k| deployment(&format!("{:016x}", 0xc0ff_ee00 + k)))
        .collect();
    let counts: Vec<u64> = deployments
        .iter()
        .map(|lines| {
            let ((), n) = allocations(|| lines.iter().for_each(|l| alerter.ingest_line(l)));
            n
        })
        .collect();
    // The first deployment grows the machine and the service's tables.
    // Each later one resets that machine and allocates three strings: the
    // slot's and the index's copies of its key, and the summary's cache
    // label. (The summary list starts with room for four deployments, so
    // it does not grow within these.)
    assert_eq!(counts[1..], [3, 3, 3], "all counts: {counts:?}");
    let stats = alerter.stats();
    assert_eq!((stats.deploys, stats.retired, stats.peak_active), (4, 4, 1));
    assert_eq!((stats.decisions, stats.revocations), (72, 12));
    assert_eq!((stats.malformed, stats.parity_mismatches), (0, 0));
}

/// Runs `deployment` through `accusations` alerts by reporter 1 against
/// `target`, then retires it; returns its tables' length while it was live.
fn cover(alerter: &mut Alerter, deployment: &str, target: u32, accusations: usize) -> usize {
    let alert =
        format!(r#"{{"kind":"alert","deployment":"{deployment}","reporter":1,"target":{target}}}"#);
    for _ in 0..accusations {
        alerter.ingest_line(&alert);
    }
    let len = alerter.machine(deployment).expect("live").state().len();
    alerter.ingest_line(&format!(
        r#"{{"kind":"deploy.end","deployment":"{deployment}"}}"#
    ));
    len
}

#[test]
fn a_retired_machine_is_kept_only_while_its_decisions_pay_for_its_tables() {
    let mut alerter = Alerter::new(AlerterConfig::default(), Obs::disabled());
    let a = &mut alerter;
    // One decision pays for 64 IDs: tables covering IDs 0..=63 are kept,
    // and the next deployment resets them.
    assert_eq!(cover(a, "within", 63, 1), 64);
    assert_eq!(cover(a, "after-within", 2, 1), 64);
    // One ID more and the machine goes with its deployment, so the next
    // one covers only its own IDs.
    assert_eq!(cover(a, "past", 64, 1), 65);
    assert_eq!(cover(a, "after-past", 2, 1), 3);
    // One accusation naming a high ID never outlives its deployment.
    for target in [65_535, 70_000] {
        assert_eq!(cover(a, "hostile", target, 1), target as usize + 1);
        assert_eq!(cover(a, "after-hostile", 2, 1), 3, "after {target}");
    }
    // Wide tables stay only when paid for in decisions, here 1,024
    // repeats of one accusation. The next deployment resets them once,
    // and having decided once, drops them.
    assert_eq!(cover(a, "paid", 65_535, 1024), 65_536);
    assert_eq!(cover(a, "after-paid", 2, 1), 65_536);
    assert_eq!(cover(a, "after-after-paid", 2, 1), 3);
    assert_eq!(alerter.stats().retired, 11);
}
