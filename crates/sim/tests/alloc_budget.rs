//! The staged finish's allocation budget, counted by a global allocator.
//!
//! Inside a probe unit (cells that differ only in revocation knobs):
//!
//! - a re-key, `Deployment::with_policy` keeping the unit's attacker
//!   knobs, allocates nothing: it shares the topology and the
//!   compromised-beacon table;
//! - a finish whose revoked set the stage's memo already holds allocates
//!   nothing: it works in the buffers the stage keeps for its finishes;
//! - a finish on a revoked set the memo has not seen allocates only what
//!   it adds to the memo, pinned exactly.
//!
//! A unit's probe stage and its first finish are pinned exactly too:
//! the stage on a deployment re-keyed from one whose stage already ran
//! allocates less, because the topology's probe schedules are drawn once.
//!
//! Counts are per thread (see the alerter's `common/counting_alloc.rs`),
//! so tests running in parallel do not disturb each other.

#[path = "../../alerter/tests/common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;
use secloc_sim::{RunOptions, Runner, SimConfig, SimOutcome};

#[global_allocator]
static GLOBAL: counting_alloc::Counting = counting_alloc::Counting;

/// The revocation axis of the benchmark's grids on `base`: τ 1..5 × τ′
/// 1..5 × each alert loss rate.
fn policies(base: &SimConfig, losses: &[f64]) -> Vec<SimConfig> {
    let mut out = Vec::new();
    for tau in 1..=5 {
        for tau_prime in 1..=5 {
            for &alert_loss_rate in losses {
                out.push(SimConfig {
                    tau,
                    tau_prime,
                    alert_loss_rate,
                    ..base.clone()
                });
            }
        }
    }
    out
}

/// A scale_cold cell: 120 nodes, 12 beacons, 3 malicious.
fn scale_cold() -> SimConfig {
    SimConfig {
        nodes: 120,
        beacons: 12,
        malicious: 3,
        attacker_p: 0.7,
        ..SimConfig::paper_default()
    }
}

/// What the budget pins for one unit.
#[derive(Debug, PartialEq, Eq)]
struct Budget {
    /// Allocations of every re-key in the unit, summed.
    rekeys: u64,
    /// Allocations of one finish on a revoked set the memo had not seen,
    /// on buffers an earlier finish grew.
    first_of_set: u64,
    /// Allocations of a second pass over the unit's cells, each of whose
    /// revoked sets the first pass put in the memo, summed.
    memo_hits: u64,
}

/// Finishes every policy of `base`'s unit from one stage, cell `first`
/// and then cell `second` before the rest, and counts.
fn budget(base: SimConfig, seed: u64, losses: &[f64], first: usize, second: usize) -> Budget {
    let unit = Runner::new(base.clone(), seed);
    let policies = policies(&base, losses);
    let mut rekeys = 0;
    let cells: Vec<Runner> = policies
        .iter()
        .map(|c| {
            let c = c.clone();
            let (rekeyed, n) = allocations(|| unit.deployment().with_policy(c).expect("policy"));
            rekeys += n;
            Runner::from_deployment(rekeyed)
        })
        .collect();

    // Plain runs, for the outcomes every finish must reproduce.
    let plain: Vec<SimOutcome> = cells
        .iter()
        .map(|c| c.run(RunOptions::new()).outcome)
        .collect();

    let stage = unit.probe_stage();
    // The first finish grows the stage's buffers; the second lands on a
    // revoked set the memo has not seen.
    assert_eq!(cells[first].finish_from_stage(&stage), plain[first]);
    let (outcome, first_of_set) = allocations(|| cells[second].finish_from_stage(&stage));
    assert_eq!(outcome, plain[second]);
    assert_ne!(
        (plain[first].revoked_malicious, plain[first].revoked_benign),
        (
            plain[second].revoked_malicious,
            plain[second].revoked_benign
        ),
        "the second finish must revoke a set the first did not"
    );
    for (cell, want) in cells.iter().zip(&plain) {
        assert_eq!(&cell.finish_from_stage(&stage), want);
    }
    let mut memo_hits = 0;
    for (cell, want) in cells.iter().zip(&plain) {
        let (outcome, n) = allocations(|| cell.finish_from_stage(&stage));
        assert_eq!(&outcome, want);
        memo_hits += n;
    }
    Budget {
        rekeys,
        first_of_set,
        memo_hits,
    }
}

#[test]
fn counter_sees_allocations() {
    let (v, n) = allocations(|| vec![1u8; 64]);
    assert_eq!((v.len(), n), (64, 1));
}

#[test]
fn a_scale_cold_unit_rekeys_and_rehits_without_allocating() {
    // After (τ, τ′) = (5, 1), whose revocations touch every sensor the
    // later sets do, the new set (1, 1) adds entries to existing per-sensor
    // lists only: its one allocation is the copy of its revoked set.
    assert_eq!(
        budget(scale_cold(), 1_000_003, &[0.1], 20, 0),
        Budget {
            rekeys: 0,
            first_of_set: 1,
            memo_hits: 0,
        }
    );
}

#[test]
fn a_paper_scale_unit_rekeys_and_rehits_without_allocating() {
    // After (τ, τ′, loss) = (5, 5, 0.3), the new set of (1, 1, 0) starts
    // the per-sensor entry lists of 161 sensors, one allocation each, and
    // copies its revoked set.
    assert_eq!(
        budget(SimConfig::paper_default(), 2, &[0.0, 0.1, 0.3], 74, 0),
        Budget {
            rekeys: 0,
            first_of_set: 162,
            memo_hits: 0,
        }
    );
}

#[test]
fn a_scale_cold_stage_and_its_first_finish_allocate_their_pinned_counts() {
    // A unit of a fresh deployment, then a unit of its group under another
    // P value, re-keyed from it as the sweep engine re-keys: its stage
    // probes from the schedules the first stage drew. A plain run in
    // between leaves its finish buffers to the second stage, as a worker's
    // previous unit does.
    let first = Runner::new(scale_cold(), 1_000_003);
    let (stage, fresh_stage) = allocations(|| first.probe_stage());
    let (outcome, fresh_finish) = allocations(|| first.finish_from_stage(&stage));
    assert_eq!(outcome, first.run(RunOptions::new()).outcome);
    assert!(
        outcome.affected_before > 0.0,
        "no sensor kept a malicious reference"
    );
    let other_p = SimConfig {
        attacker_p: 0.3,
        ..scale_cold()
    };
    let second = Runner::from_deployment(first.deployment().with_policy(other_p.clone()).unwrap());
    let (stage, rekeyed_stage) = allocations(|| second.probe_stage());
    let (outcome, rekeyed_finish) = allocations(|| second.finish_from_stage(&stage));
    assert_eq!(
        outcome,
        Runner::new(other_p, 1_000_003)
            .run(RunOptions::new())
            .outcome
    );
    // The re-keyed stage probes from the schedules the first one drew, and
    // both stages count poisoning sensors per beacon in one vector, where
    // drawing the schedules took six vectors and a list of sensors per
    // poisoning beacon took one allocation per growth. Their kept lists
    // share one buffer, the precompute grows the buffers the first finish
    // works in, and the spare buffers come grown.
    assert_eq!(
        (fresh_stage, fresh_finish, rekeyed_stage, rekeyed_finish),
        (30, 47, 12, 32),
        "(fresh stage, its first finish, re-keyed stage, its first finish)"
    );
}
