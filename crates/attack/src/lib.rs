//! Attacker models against beacon-based location discovery.
//!
//! The attackers the simulator runs, plus the adaptive evasion and
//! collusion behaviours the paper's analysis assumes:
//!
//! - [`CompromisedBeacon`] — an insider beacon with valid keys following a
//!   [`BeaconStrategy`]: it either answers honestly or sends a malicious
//!   signal. Decisions are a deterministic function of the requester ID,
//!   because "the malicious beacon node behaves in the same way for the
//!   same requesting node, which is the best strategy for the node to avoid
//!   being detected" (§2.3);
//! - [`Wormhole`] — a low-latency tunnel replaying benign signals between
//!   two far-apart field locations (§2.2.1);
//! - [`CollusionPolicy`] — malicious beacons spending their full report
//!   budget on alerts against benign beacons (§3.2, §4).
//!
//! # Examples
//!
//! ```
//! use secloc_attack::{BeaconStrategy, CompromisedBeacon, Action};
//! use secloc_crypto::NodeId;
//! use secloc_geometry::{Point2, Vector2};
//!
//! let strategy = BeaconStrategy::with_acceptance(0.4);
//! let beacon = CompromisedBeacon::new(
//!     NodeId(4),
//!     Point2::new(100.0, 100.0),
//!     Vector2::new(250.0, 0.0),
//!     strategy,
//!     99, // seed
//! );
//! let action = beacon.decide(NodeId(500));
//! // Same requester, same decision — the paper's best-evasion assumption.
//! assert_eq!(action, beacon.decide(NodeId(500)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod beacon;
mod collusion;
mod wormhole;

pub use beacon::{Action, BeaconStrategy, CompromisedBeacon};
pub use collusion::{CollusionPolicy, CollusionScratch};
pub use wormhole::Wormhole;
