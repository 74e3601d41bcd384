//! Shared fixtures for the alerter's integration tests.

use secloc_obs::{MemorySink, Obs};
use secloc_sim::{Orchestrator, SimConfig, SweepSpec};
use std::sync::Arc;

/// The JSONL event stream of a small cold sweep (two seeds, aggressive
/// attackers, so decisions and revocations are recorded), one line per
/// event exactly as `sweep --events` writes it.
pub(crate) fn recorded_lines() -> Vec<String> {
    let sink = Arc::new(MemorySink::new());
    let config = SimConfig {
        nodes: 250,
        beacons: 25,
        malicious: 3,
        attacker_p: 0.8,
        ..SimConfig::paper_default()
    };
    Orchestrator::new()
        .observed(&Obs::with_sink(sink.clone()))
        .run(&SweepSpec::single(&config, &[1, 2]))
        .expect("sweep");
    sink.events().iter().map(|e| e.to_json()).collect()
}

/// The value of the escape-free string member `name` of a line.
pub(crate) fn str_field<'a>(line: &'a str, name: &str) -> &'a str {
    let key = format!("\"{name}\":\"");
    let start = line
        .find(&key)
        .unwrap_or_else(|| panic!("no {name} in {line}"))
        + key.len();
    let len = line[start..].find('"').expect("closing quote");
    &line[start..start + len]
}

/// The first recorded line of each of `kinds`, in that order.
pub(crate) fn first_of_each<'a>(lines: &'a [String], kinds: &[&str]) -> Vec<&'a str> {
    kinds
        .iter()
        .map(|kind| {
            lines
                .iter()
                .find(|l| str_field(l, "kind") == *kind)
                .unwrap_or_else(|| panic!("the recording has no {kind} line"))
                .as_str()
        })
        .collect()
}
