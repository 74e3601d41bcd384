//! Beyond the paper: revocation without the base station.
//!
//! **Distributed revocation** (the paper's §6 future-work item): alerts
//! gossip through the beacon overlay and every node keeps a local
//! blacklist with the §3 counters — no base station involved.
//!
//! Run with: `cargo run --release --example distributed_revocation`

use secloc::prelude::*;
use secloc::sim::distributed::{run_distributed, DistributedConfig};
use secloc::sim::Deployment;

fn main() {
    println!("== distributed revocation (no base station) ==");
    let config = SimConfig {
        attacker_p: 0.4,
        wormhole: None,
        ..SimConfig::paper_default()
    };
    let deployment = Deployment::generate(config, 2005);
    println!(
        "{} nodes, {} beacons ({} malicious, P = 0.4)",
        deployment.config().nodes,
        deployment.config().beacons,
        deployment.config().malicious
    );
    println!(
        "{:>6} | {:>14} | {:>9} | {:>7} | {:>11}",
        "hops", "detection", "FP rate", "N'", "alert msgs"
    );
    for hops in [0, 1, 2, 3] {
        let out = run_distributed(
            &deployment,
            DistributedConfig {
                tau: 2,
                tau_prime: 2,
                gossip_hops: hops,
            },
            7,
        );
        println!(
            "{hops:>6} | {:>14.3} | {:>9.3} | {:>7.2} | {:>11}",
            out.neighbourhood_detection_rate,
            out.neighbourhood_false_positive_rate,
            out.affected_after,
            out.alert_transmissions,
        );
    }
    println!(
        "-> one gossip hop already matches the base station's coverage here;\n   \
         the price is the alert traffic column."
    );
}
