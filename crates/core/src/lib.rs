//! Detection and revocation of malicious beacon nodes — the primary
//! contribution of Liu, Ning & Du (ICDCS 2005), as a reusable library.
//!
//! The suite has three layers, mirroring the paper's structure:
//!
//! 1. **Malicious-signal detection** (§2.1, [`SignalDetector`]): a beacon
//!    node posing as a regular sensor (under a *detecting ID*) requests a
//!    beacon signal and checks the measured distance against the distance
//!    calculated from the declared location. A disagreement beyond the
//!    ranging error bound proves the signal malicious.
//! 2. **Replay filtering** (§2.2, [`WormholeFilter`], [`RttFilter`]): before
//!    accusing the *target node*, the detector rules out the two ways a
//!    benign beacon's signal can look malicious — a wormhole replay from
//!    far away, and a local store-and-forward replay (caught by the
//!    round-trip-time test). [`DetectionPipeline`] composes all three
//!    stages exactly as the paper prescribes.
//! 3. **Revocation** (§3, [`BaseStation`]): detectors report [`Alert`]s;
//!    the base station counts them per target (threshold τ′) while capping
//!    each reporter's accepted alerts (threshold τ) so colluding malicious
//!    beacons cannot freely frame benign ones.
//!
//! # Examples
//!
//! End-to-end check of one beacon signal:
//!
//! ```
//! use secloc_core::{DetectionPipeline, DetectionOutcome, Observation};
//! use secloc_geometry::Point2;
//! use secloc_radio::Cycles;
//!
//! let pipeline = DetectionPipeline::paper_default();
//! // A beacon 100 ft away claims to be at (800, 700) — inconsistent.
//! let obs = Observation {
//!     detector_position: Point2::new(100.0, 100.0),
//!     declared_position: Point2::new(800.0, 700.0),
//!     measured_distance_ft: 100.0,
//!     rtt: Cycles::new(6_500),
//!     wormhole_detector_fired: false,
//! };
//! assert_eq!(pipeline.evaluate(&obs), DetectionOutcome::Alert);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alert;
mod detector;
pub mod machine;
mod pipeline;
pub mod protocol;
mod revocation;
mod rtt;
mod telemetry;
mod wormhole_detector;
mod wormhole_filter;

pub use alert::{Alert, SignedAlert};
pub use detector::{SignalDetector, SignalVerdict};
pub use machine::{MachineState, ProtocolAction, ProtocolEvent, RevocationMachine, StateWireError};
pub use pipeline::{DetectionOutcome, DetectionPipeline, Observation};
pub use revocation::{AlertOutcome, BaseStation, RevocationConfig};
pub use rtt::{rtt_from_timestamps, LocalReplayVerdict, RttFilter};
pub use telemetry::{AlertMetrics, PipelineMetrics};
pub use wormhole_detector::{
    FixedRateDetector, GeographicLeash, LeashContext, TemporalLeash, WormholeDetector,
};
pub use wormhole_filter::{WormholeFilter, WormholeVerdict};
