//! Figure 14 — ROC curves of the revocation scheme: detection rate vs
//! false positive rate for N_a ∈ {5, 10} malicious beacons and report cap
//! τ ∈ {2, 3, 4}, with the attacker choosing `P` to maximise `N′` and the
//! operating point swept via the revocation threshold τ′.
//!
//! Paper: "our technique can detect most of malicious beacon nodes with
//! small false positive rate (e.g., 5%) when there are a small number of
//! compromised beacon nodes. However, when the number of compromised beacon
//! nodes increases, the performance decreases accordingly."
//!
//! Includes the DESIGN.md ablation: the same sweep with the report-counter
//! cap removed (τ = ∞), showing unbounded collusion damage.

use secloc_analysis::roc::RocModel;
use secloc_analysis::NetworkPopulation;
use secloc_bench::{banner, f3, results_dir, Table};
use secloc_sim::{average_outcomes, Orchestrator, SimConfig, SimOutcome, SweepSpec};

const SEEDS: u64 = 4;

/// All 42 ROC cells (36 sweep + 2 ablation configs x 4 seeds each) are
/// pure functions of their config, so the bench keeps a persistent result
/// cache: a re-run replays from the `results/fig14_cache.bin` directory
/// instead of simulating.
fn run_cached(cfg: &SimConfig, seeds: &[u64]) -> Vec<SimOutcome> {
    Orchestrator::new()
        .cache(results_dir().join("fig14_cache.bin"))
        .run(&SweepSpec::single(cfg, seeds))
        .expect("fig14 sweep cache I/O")
        .outcomes
}

fn sweep(na: u32, tau: u32, tau_primes: &[u32], table: &mut Table) {
    let pop = NetworkPopulation {
        total: 1000,
        beacons: 100,
        malicious: na as u64,
    };
    let theory = RocModel {
        population: pop,
        tau,
        detecting_ids: 8,
        requesters_per_beacon: 60,
        wormholes: 1, // the single §4 wormhole
        wormhole_detection_rate: 0.9,
    };
    for &tp in tau_primes {
        // The attacker tunes P against this (m, tau', Nc) operating point.
        let point = theory.point(tp);
        let cfg = SimConfig {
            malicious: na,
            tau,
            tau_prime: tp,
            attacker_p: point.attacker_p,
            ..SimConfig::paper_default()
        };
        let outcomes = run_cached(&cfg, &(1000..1000 + SEEDS).collect::<Vec<u64>>());
        let agg = average_outcomes(&outcomes);
        table.row([
            na.to_string(),
            tau.to_string(),
            tp.to_string(),
            f3(point.attacker_p),
            f3(agg.false_positive_rate),
            f3(agg.detection_rate),
            f3(point.false_positive_rate),
            f3(point.detection_rate),
        ]);
    }
}

fn main() {
    banner(
        "Figure 14",
        "ROC curves: detection rate vs false positive rate (attacker-optimal P)",
    );
    let tau_primes = [0u32, 1, 2, 3, 4, 6];
    let mut table = Table::new([
        "Na",
        "tau",
        "tau'",
        "P*",
        "fp_sim",
        "det_sim",
        "fp_theory",
        "det_theory",
    ]);
    for na in [5u32, 10] {
        for tau in [2u32, 3, 4] {
            sweep(na, tau, &tau_primes, &mut table);
        }
    }
    table.print();
    table.write_csv("fig14_roc");

    // Ablation: remove the report cap (tau huge) and watch collusion
    // damage scale with the colluders' unbounded budget.
    banner(
        "Figure 14 (ablation)",
        "report-counter cap removed (tau = 1000): collusion revokes at will",
    );
    let mut ablation = Table::new(["Na", "tau", "tau'", "fp_rate", "det_rate"]);
    for na in [5u32, 10] {
        let cfg = SimConfig {
            malicious: na,
            tau: 1000,
            tau_prime: 2,
            attacker_p: 0.1,
            ..SimConfig::paper_default()
        };
        let outcomes = run_cached(&cfg, &(2000..2000 + SEEDS).collect::<Vec<u64>>());
        let agg = average_outcomes(&outcomes);
        ablation.row([
            na.to_string(),
            "inf".to_string(),
            "2".to_string(),
            f3(agg.false_positive_rate),
            f3(agg.detection_rate),
        ]);
    }
    ablation.print();
    ablation.write_csv("fig14_ablation_no_cap");
    println!(
        "\n  Shape check: with the cap, Na=5 reaches high detection at a few\n  \
         percent false positives while Na=10 needs a noticeably higher\n  \
         false-positive budget (the paper's degradation); without the cap\n  \
         the colluders revoke benign beacons essentially at will."
    );
}
