//! Identity and keyed-randomness substrate for secure location discovery.
//!
//! The reproduced paper assumes that "two communicating nodes share a unique
//! pairwise key" and that "every beacon packet is authenticated ... with the
//! pairwise key shared between two communicating nodes". The simulator
//! takes that filtering as given and models what survives it, so this crate
//! keeps the two pieces every run uses:
//!
//! - [`prf`] — a from-scratch 64-bit ARX pseudo-random function
//!   (SipHash-2-4 construction), keying the per-link wormhole verdicts and
//!   seed derivation;
//! - [`NodeId`] / [`IdSpace`] — network identities, including the paper's
//!   *detecting IDs* that must be indistinguishable from non-beacon IDs.
//!
//! # Examples
//!
//! ```
//! use secloc_crypto::{IdSpace, NodeRole};
//!
//! let ids = IdSpace::new(100, 900, 8);
//! let det = ids.detecting_id(5, 3);
//! assert_eq!(ids.role_of(det), NodeRole::NonBeacon); // the wire view
//! assert_eq!(ids.owner_of_detecting_id(det), Some(ids.beacon(5)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod identity;
pub mod prf;

pub use identity::{IdSpace, NodeId, NodeRole};
