//! Reference implementations for the secloc equivalence tests and the
//! `hot_paths` "before" timers.
//!
//! The production crates keep one implementation of each concept. The
//! straight-line versions they replaced live here, unchanged, so the
//! bit-identity suites keep proving the optimized code against the same
//! reference and the perf ratios keep timing the same "before" work:
//!
//! - [`run`] — a whole seeded simulation: [`EventQueue`] scheduling, an
//!   allocating audible-beacon scan, kept lists that grow on push and a
//!   two-pass impact phase over the scalar MMSE;
//! - [`ReferenceMedium`] — the linear-scan radio transmit, with no cached
//!   geometry;
//! - [`mmse::estimate`] — the scalar linear-seed plus Gauss–Newton solve;
//! - [`EventQueue`] — the binary-heap discrete-event scheduler.
//!
//! Every item draws from the same seeded RNG streams in the same order as
//! its production counterpart, so outcomes compare with `==` (and floats
//! with `to_bits`).
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

mod event;
mod medium;
pub mod mmse;
mod run;

pub use event::EventQueue;
pub use medium::ReferenceMedium;
pub use run::run;
