//! # secloc — secure location discovery for wireless sensor networks
//!
//! A production-quality Rust reproduction of **Liu, Ning & Du,
//! "Detecting Malicious Beacon Nodes for Secure Location Discovery in
//! Wireless Sensor Networks" (ICDCS 2005)**, including the substrate the
//! paper assumes: detecting IDs, cycle-accurate radio timing, RSSI ranging,
//! localization estimators, attacker models, the detection and revocation
//! suite itself, its closed-form analysis, and a seeded whole-network
//! simulator. The frame-level exchange (MAC'd frames, pairwise keys, the
//! broadcast medium) lives in the dev-only `secloc-oracle` crate, where a
//! conformance test holds the simulator's one-call exchange to it.
//!
//! ## Crate map
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`obs`] | `secloc-obs` | metrics registry, spans, event sinks, report writers |
//! | [`geometry`] | `secloc-geometry` | points, fields, deployments, spatial index |
//! | [`crypto`] | `secloc-crypto` | PRF, node IDs and detecting IDs |
//! | [`radio`] | `secloc-radio` | cycle timing, RTT model, ranging, link loss, energy |
//! | [`localization`] | `secloc-localization` | MMSE / min-max / centroid estimators |
//! | [`attack`] | `secloc-attack` | compromised beacons, wormholes, collusion |
//! | [`core`] | `secloc-core` | **the paper's contribution**: detector, replay filters, revocation |
//! | [`analysis`] | `secloc-analysis` | closed-form `P_r`, `P_d`, `N′`, `N_f`, `P_o`, empirical ROC curves |
//! | [`sim`] | `secloc-sim` | end-to-end §4 simulation and metrics |
//! | [`faults`] | `secloc-faults` | fault injection: burst loss, regional noise, clock drift, churn |
//!
//! ## Quickstart
//!
//! Detect a lying beacon and revoke it:
//!
//! ```
//! use secloc::core::{Alert, BaseStation, DetectionPipeline, Observation, RevocationConfig};
//! use secloc::crypto::NodeId;
//! use secloc::geometry::Point2;
//! use secloc::radio::Cycles;
//!
//! let pipeline = DetectionPipeline::paper_default();
//! let observation = Observation {
//!     detector_position: Point2::new(0.0, 0.0),
//!     declared_position: Point2::new(700.0, 0.0), // the lie
//!     measured_distance_ft: 120.0,                // the physics
//!     rtt: Cycles::new(6_700),
//!     wormhole_detector_fired: false,
//! };
//! assert!(pipeline.evaluate(&observation).raises_alert());
//!
//! let mut station = BaseStation::new(RevocationConfig::paper_default());
//! for detector in [1, 2, 3] {
//!     station.process(Alert::new(NodeId(detector), NodeId(99)));
//! }
//! assert!(station.is_revoked(NodeId(99)));
//! ```
//!
//! Run the paper's full simulation:
//!
//! ```no_run
//! use secloc::prelude::*;
//!
//! let outcome = Runner::new(SimConfig::paper_default(), 1)
//!     .run(RunOptions::new())
//!     .outcome;
//! println!(
//!     "detection rate {:.2}, false positives {:.2}, N' = {:.2}",
//!     outcome.detection_rate(),
//!     outcome.false_positive_rate(),
//!     outcome.affected_after,
//! );
//! ```
//!
//! Degrade the run with a [`faults::FaultPlan`] (burst loss, regional
//! ranging noise, clock drift, beacon churn) via
//! `RunOptions::new().faults(plan)` — an empty plan is guaranteed
//! bit-identical to a fault-free run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use secloc_analysis as analysis;
pub use secloc_attack as attack;
pub use secloc_core as core;
pub use secloc_crypto as crypto;
pub use secloc_faults as faults;
pub use secloc_geometry as geometry;
pub use secloc_localization as localization;
pub use secloc_obs as obs;
pub use secloc_radio as radio;
pub use secloc_sim as sim;

/// The most commonly used items in one import.
pub mod prelude {
    pub use secloc_analysis::{
        acceptance_probability, affected_nonbeacons, detection_rate_pr, revocation_rate_pd,
        NetworkPopulation,
    };
    pub use secloc_attack::{Action, BeaconStrategy, CompromisedBeacon, Wormhole};
    pub use secloc_core::{
        Alert, BaseStation, DetectionOutcome, DetectionPipeline, Observation, ProtocolAction,
        ProtocolEvent, RevocationConfig, RevocationMachine, RttFilter, SignalDetector,
        WormholeFilter,
    };
    pub use secloc_crypto::{IdSpace, NodeId};
    pub use secloc_faults::{BurstLossSpec, ChurnSpec, FaultPlan, NoiseRegion};
    pub use secloc_geometry::{Field, Point2, Vector2};
    pub use secloc_localization::{Estimator, LocationReference, MmseEstimator};
    pub use secloc_obs::Obs;
    pub use secloc_radio::{timing::RttModel, Cycles};
    pub use secloc_sim::{RunOptions, RunOutput, Runner, SimConfig, SimOutcome};
}
