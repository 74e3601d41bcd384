//! Radio substrate: cycle-accurate timing, ranging and framing.
//!
//! The reproduced paper measures round-trip times in **CPU clock cycles** on
//! MICA motes (ATmega128L at 7.3728 MHz driving a CC1000 radio): "the
//! transmission time of one bit is about 384 clock cycles". This crate
//! models that hardware at the fidelity the paper's detectors need:
//!
//! - [`Cycles`] — a cycle-count timestamp with bit/byte/packet arithmetic;
//! - [`timing`] — the hardware shift-register delays `d1..d4` whose sum is
//!   the residual RTT after the paper's `(t4−t1)−(t3−t2)` cancellation, and
//!   the [`timing::RttModel`] producing RTT samples (Fig. 3 / Fig. 4);
//! - [`ranging`] — RSSI log-distance ranging with a bounded maximum error
//!   `ε_max`, the paper's distance-measurement assumption;
//! - [`Frame`] / [`BeaconPayload`] — authenticated packets, with sizes that
//!   drive transmission-time computations;
//! - [`medium`] — the shared broadcast medium with attacker taps;
//! - [`loss`] — per-link loss models and retransmitting reliable delivery.
//!
//! # Examples
//!
//! ```
//! use secloc_radio::{timing::RttModel, Cycles};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let model = RttModel::paper_default();
//! let mut rng = StdRng::seed_from_u64(1);
//! let rtt = model.sample(10.0, Cycles::ZERO, &mut rng);
//! assert!(rtt >= model.min_rtt() && rtt <= model.max_rtt());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod energy;
mod frame;
pub mod loss;
pub mod medium;
pub mod ranging;
pub mod telemetry;
mod time;
pub mod timing;
pub mod wire;

pub use frame::{BeaconPayload, Frame, FrameBody, FrameError, RequestPayload};
pub use telemetry::RadioMetrics;
pub use time::{Cycles, CPU_HZ, CYCLES_PER_BIT, SPEED_OF_LIGHT_FT_S};
