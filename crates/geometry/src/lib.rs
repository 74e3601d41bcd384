//! Planar geometry primitives for wireless-sensor-network simulation.
//!
//! This crate is the lowest substrate of the `secloc` workspace. It provides:
//!
//! - [`Point2`] / [`Vector2`] — positions and displacements in a 2-D field,
//!   measured in feet (the unit used throughout the reproduced paper);
//! - [`Field`] — the rectangular sensing field nodes are deployed in;
//! - [`deploy`] — seeded random and grid deployment generators;
//! - [`GridIndex`] — a bucket-grid spatial index answering "who is within
//!   radio range of this point" queries in expected O(k) time.
//!
//! # Examples
//!
//! ```
//! use secloc_geometry::{Field, Point2, GridIndex};
//!
//! let field = Field::new(1000.0, 1000.0);
//! let positions = secloc_geometry::deploy::uniform(&field, 100, 42);
//! let index = GridIndex::build(&field, 150.0, positions.iter().copied());
//! let mut near_origin = Vec::new();
//! index.within_into(Point2::new(0.0, 0.0), 150.0, &mut near_origin);
//! assert!(near_origin.len() <= 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deploy;
mod field;
mod index;
mod point;

pub use field::Field;
pub use index::GridIndex;
pub use point::{Point2, Vector2};
