//! End-to-end network simulation of secure location discovery.
//!
//! This crate is the Rust stand-in for the paper's TinyOS/Nido simulation
//! (§4): it deploys a sensor network, runs the beacon/detection protocol of
//! `secloc-core` over the radio models of `secloc-radio` against the
//! adversaries of `secloc-attack`, delivers alerts to a base station, and
//! measures the paper's three headline quantities:
//!
//! - **detection rate** — fraction of malicious beacons revoked;
//! - **false positive rate** — fraction of benign beacons revoked;
//! - **N′** — average number of non-beacon nodes still accepting a
//!   malicious beacon signal after revocation.
//!
//! The canonical configuration is [`SimConfig::paper_default`]: 1000 nodes
//! in a 1000 × 1000 ft field, 100 beacons of which 10 are compromised, a
//! wormhole between (100, 100) and (800, 700), radio range 150 ft, ε = 10
//! ft, `m = 8`, `p_d = 0.9` (all reconstructed constants are catalogued in
//! `DESIGN.md`).
//!
//! # Examples
//!
//! ```
//! use secloc_sim::{RunOptions, Runner, SimConfig};
//!
//! let mut config = SimConfig::paper_default();
//! config.nodes = 200;           // shrink for a doc test
//! config.beacons = 20;
//! config.malicious = 2;
//! config.attacker_p = 0.3;
//! let outcome = Runner::new(config, 7).run(RunOptions::new()).outcome;
//! assert!(outcome.detection_rate() >= 0.0 && outcome.detection_rate() <= 1.0);
//! ```
//!
//! Degraded conditions are injected by attaching a
//! [`FaultPlan`] — see `RunOptions::faults` and
//! the `secloc-faults` crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
mod config;
mod deploy;
pub mod distributed;
mod metrics;
pub mod orchestrator;
mod probe;
pub mod report;
mod runner;

pub use cache::{BinaryCache, CacheRecovery};
pub use config::{ConfigError, SimConfig};
pub use deploy::{subseed, Deployment, NodeKind};
pub use metrics::{average_outcomes, AggregateOutcome, SimOutcome};
pub use orchestrator::{CacheFormat, Orchestrator, SweepCell, SweepReport, SweepSpec, WorkerStats};
pub use probe::{ProbeContext, ProbeFaults, ProbeResult};
pub use report::RunReport;
pub use runner::{ProbeStage, RunOptions, RunOutput, Runner};
// Re-exported so sim callers can build fault plans without naming the
// faults crate in their own manifest.
pub use secloc_faults::FaultPlan;
