//! Reference implementations for the secloc equivalence tests and the
//! `hot_paths` "before" timers.
//!
//! The production crates keep one implementation of each concept, and only
//! what a workload runs. The straight-line versions they replaced live
//! here, unchanged, so the bit-identity suites keep proving the optimized
//! code against the same reference and the perf ratios keep timing the same
//! "before" work:
//!
//! - [`run`] — a whole seeded simulation: [`EventQueue`] scheduling, an
//!   allocating audible-beacon scan, kept lists that grow on push and a
//!   two-pass impact phase over the scalar MMSE;
//! - [`mmse::estimate`] — the scalar linear-seed plus Gauss–Newton solve;
//! - [`EventQueue`] — the binary-heap discrete-event scheduler.
//!
//! Every item draws from the same seeded RNG streams in the same order as
//! its production counterpart, so outcomes compare with `==` (and floats
//! with `to_bits`).
//!
//! # The frame-level exchange
//!
//! `secloc_sim::probe` runs the paper's detection exchange (Fig. 3) as one
//! call. This crate holds the same exchange at the frame level, the twin
//! the `secloc-sim` exchange-conformance test replays every probe through:
//!
//! - [`Frame`] and its bodies — MAC-authenticated packets under
//!   [`Key`] / [`Mac`], keyed by a [`PairwiseKeyStore`];
//! - [`RequesterSession`] → [`RequestSent`] → [`BeaconReceived`] and
//!   [`BeaconResponder`] — the two sides of the exchange as typestate
//!   machines, with the one RTT formula [`rtt_from_timestamps`];
//! - [`GeographicLeash`] — a packet-leash wormhole detector;
//! - [`SignedAlert`] — an alert authenticated for the base station;
//! - [`LocalReplayer`] and [`Masquerader`] — the store-and-forward and
//!   keyless attackers;
//! - [`Medium`] — the linear-scan broadcast medium with attacker [`Tap`]s.
//!
//! This crate is only ever a dev-dependency. It depends on the production
//! crates, and they name it under `[dev-dependencies]` for their
//! integration tests (`tests/`), which cargo compiles against the same
//! library build the oracle links. In-file `#[cfg(test)]` modules cannot
//! compare against it: there the library is compiled a second time and
//! its types no longer match the oracle's.
//!
//! # Examples
//!
//! ```
//! use secloc_sim::{RunOptions, Runner, SimConfig};
//!
//! let runner = Runner::new(SimConfig {
//!     nodes: 200,
//!     beacons: 20,
//!     malicious: 2,
//!     ..SimConfig::paper_default()
//! }, 7);
//! let plain = runner.run(RunOptions::new()).outcome;
//! let deployment = runner.deployment();
//! assert_eq!(plain, secloc_oracle::run(deployment, &deployment.config().faults));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alert;
mod event;
mod frame;
mod leash;
mod mac;
mod masquerade;
mod medium;
pub mod mmse;
mod pairwise;
mod protocol;
mod replayer;
mod run;

pub use alert::SignedAlert;
pub use event::EventQueue;
pub use frame::{BeaconPayload, Frame, FrameBody, FrameError, RequestPayload};
pub use leash::{GeographicLeash, LeashContext};
pub use mac::{Key, Mac};
pub use masquerade::Masquerader;
pub use medium::{Delivery, Medium, Tap};
pub use pairwise::PairwiseKeyStore;
pub use protocol::{
    rtt_from_timestamps, BeaconReceived, BeaconResponder, ProtocolError, RequestSent,
    RequesterSession,
};
pub use replayer::LocalReplayer;
pub use run::run;
