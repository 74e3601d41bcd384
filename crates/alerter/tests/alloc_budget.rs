//! The decode path's allocation budget, counted by a global allocator.
//!
//! - `parse_line` on an escape-free recorded line allocates nothing: the
//!   event borrows its strings from the line.
//! - `ingest_line` of a `bs.alert` into a live deployment with
//!   [`Obs::disabled`] allocates nothing once the machine's tables and
//!   the reporters' accused lists cover the IDs it names.
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
