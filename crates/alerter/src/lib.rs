//! # secloc-alerter — streaming revocation for recorded and live streams
//!
//! The batch simulator arbitrates alerts with [`secloc_core`]'s
//! [`RevocationMachine`](secloc_core::RevocationMachine) — a pure protocol
//! state machine with no clocks, RNGs, or I/O. This crate runs the *same*
//! machine online: a long-lived service that ingests JSONL beacon-alert
//! events (stdin, a Unix socket, or TCP), demultiplexes them into one
//! machine per deployment, and emits its decisions as `alerter.*` events
//! through [`secloc_obs`] sinks, under the sweep engine's `cell`/`seed`/
//! trace conventions.
//!
//! Because both paths share one machine, streaming and batch cannot drift:
//! the [`replay`] module feeds a sweep's recorded `obs_events.jsonl` back
//! through the service and proves — per decision and per cell — that the
//! online path reaches byte-identical revocation outcomes.
//!
//! ```
//! use secloc_alerter::{Alerter, AlerterConfig};
//! use secloc_obs::Obs;
//!
//! let mut alerter = Alerter::new(AlerterConfig::default(), Obs::disabled());
//! for reporter in 1..=3 {
//!     alerter.ingest_line(&format!(
//!         r#"{{"kind":"alert","deployment":"field-7","reporter":{reporter},"target":9}}"#
//!     ));
//! }
//! assert!(alerter.is_revoked("field-7", 9));
//! ```
//!
//! The binary (`secloc-alerter serve` / `secloc-alerter replay`) wraps the
//! service with transport, health monitoring ([`secloc_obs::health`]), and
//! the parity gate CI runs; see the README quickstart.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod replay;
pub mod service;
pub mod wire;

pub use replay::{diff_checkpoint, replay_stream, CheckpointDiff, ReplayReport};
pub use service::{Alerter, AlerterConfig, AlerterStats, DeploymentSummary, MAX_LINE_BYTES};
pub use wire::{parse_line, WireEvent};
