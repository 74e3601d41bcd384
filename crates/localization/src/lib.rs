//! Beacon-based localization estimators.
//!
//! Stage 2 of location discovery (paper §1): once a sensor holds enough
//! *location references* — `(beacon location, measured distance)` pairs —
//! it solves for its own position. The paper's detection techniques protect
//! whichever estimator is in use; this crate provides the standard ones so
//! end-to-end experiments can quantify the damage malicious beacons do and
//! the benefit of revoking them:
//!
//! - [`MmseEstimator`] — minimum-mean-square-error multilateration
//!   (linearised least squares seeded, Gauss–Newton refined), the "typical
//!   approach ... finding a mathematical solution that satisfies these
//!   constraints with minimum estimation error";
//! - [`MinMaxEstimator`] — the bounding-box method of Savvides et al.;
//! - [`CentroidEstimator`] — the coarse-grained centroid scheme of Bulusu,
//!   Heidemann & Estrin (its ref \[2\]).
//!
//! # Examples
//!
//! ```
//! use secloc_geometry::Point2;
//! use secloc_localization::{Estimator, LocationReference, MmseEstimator};
//!
//! let truth = Point2::new(40.0, 60.0);
//! let refs: Vec<LocationReference> = [(0.0, 0.0), (100.0, 0.0), (0.0, 100.0)]
//!     .iter()
//!     .map(|&(x, y)| {
//!         let anchor = Point2::new(x, y);
//!         LocationReference::new(anchor, anchor.distance(truth))
//!     })
//!     .collect();
//! let est = MmseEstimator::default().estimate(&refs)?;
//! assert!(est.position.distance(truth) < 1e-6);
//! # Ok::<(), secloc_localization::EstimateError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
mod centroid;
pub mod dvhop;
mod estimator;
pub mod gdop;
mod minmax;
mod mmse;
mod reference;
mod robust;
pub(crate) mod simd;

pub use batch::{BatchedMmse, MmseScratch};
pub use centroid::CentroidEstimator;
pub use dvhop::DvHop;
pub use estimator::{Estimate, EstimateError, Estimator};
pub use minmax::MinMaxEstimator;
pub use mmse::MmseEstimator;
pub use reference::LocationReference;
pub use robust::{ConsensusEstimator, ResidualFilterEstimator};
