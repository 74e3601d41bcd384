//! The rectangular sensing field.

use crate::Point2;
use std::fmt;

/// A rectangular sensing field with its origin at `(0, 0)`.
///
/// All deployments in the reproduced paper happen in an axis-aligned
/// rectangle; the simulation in §4 uses a square field (reconstructed as
/// 1000 × 1000 ft, see `DESIGN.md`).
///
/// # Examples
///
/// ```
/// use secloc_geometry::{Field, Point2};
///
/// let field = Field::new(1000.0, 1000.0);
/// assert!(field.contains(Point2::new(500.0, 500.0)));
/// assert!(!field.contains(Point2::new(-1.0, 0.0)));
/// assert_eq!(field.area(), 1_000_000.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Field {
    width: f64,
    height: f64,
}

impl Field {
    /// Creates a field of the given dimensions in feet.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is not a finite positive number.
    pub fn new(width: f64, height: f64) -> Self {
        assert!(
            width.is_finite() && width > 0.0 && height.is_finite() && height > 0.0,
            "field dimensions must be finite and positive, got {width} x {height}"
        );
        Field { width, height }
    }

    /// Creates a square field of the given side length in feet.
    ///
    /// # Panics
    ///
    /// Panics if `side` is not a finite positive number.
    pub fn square(side: f64) -> Self {
        Field::new(side, side)
    }

    /// Field width in feet.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Field height in feet.
    pub fn height(&self) -> f64 {
        self.height
    }

    /// Field area in square feet.
    pub fn area(&self) -> f64 {
        self.width * self.height
    }

    /// The geometric center of the field.
    pub fn center(&self) -> Point2 {
        Point2::new(self.width / 2.0, self.height / 2.0)
    }

    /// Returns `true` when `p` lies inside the field (boundary inclusive).
    pub fn contains(&self, p: Point2) -> bool {
        p.x >= 0.0 && p.x <= self.width && p.y >= 0.0 && p.y <= self.height
    }

    /// Clamps `p` to the nearest point inside the field.
    pub fn clamp(&self, p: Point2) -> Point2 {
        Point2::new(p.x.clamp(0.0, self.width), p.y.clamp(0.0, self.height))
    }

    /// The length of the field's diagonal — an upper bound on any
    /// node-to-node distance.
    pub fn diagonal(&self) -> f64 {
        Point2::ORIGIN.distance(Point2::new(self.width, self.height))
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.0}ft x {:.0}ft field", self.width, self.height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_boundary_inclusive() {
        let f = Field::new(10.0, 20.0);
        assert!(f.contains(Point2::new(0.0, 0.0)));
        assert!(f.contains(Point2::new(10.0, 20.0)));
        assert!(!f.contains(Point2::new(10.0001, 5.0)));
        assert!(!f.contains(Point2::new(5.0, -0.0001)));
    }

    #[test]
    fn clamp_projects_outside_points() {
        let f = Field::new(10.0, 10.0);
        assert_eq!(f.clamp(Point2::new(-5.0, 5.0)), Point2::new(0.0, 5.0));
        assert_eq!(f.clamp(Point2::new(15.0, 12.0)), Point2::new(10.0, 10.0));
        let inside = Point2::new(3.0, 4.0);
        assert_eq!(f.clamp(inside), inside);
    }

    #[test]
    fn area_and_center() {
        let f = Field::new(100.0, 50.0);
        assert_eq!(f.area(), 5000.0);
        assert_eq!(f.center(), Point2::new(50.0, 25.0));
    }

    #[test]
    fn square_constructor() {
        assert_eq!(Field::square(7.0), Field::new(7.0, 7.0));
    }

    #[test]
    fn diagonal_bounds_distances() {
        let f = Field::new(30.0, 40.0);
        assert_eq!(f.diagonal(), 50.0);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn rejects_zero_width() {
        Field::new(0.0, 5.0);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn rejects_nan_height() {
        Field::new(5.0, f64::NAN);
    }
}
