//! Points and vectors in the plane.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A position in the 2-D sensing field, in feet.
///
/// `Point2` is an affine point: subtracting two points yields a
/// [`Vector2`], and adding a `Vector2` to a point yields another point.
///
/// # Examples
///
/// ```
/// use secloc_geometry::Point2;
///
/// let a = Point2::new(0.0, 0.0);
/// let b = Point2::new(3.0, 4.0);
/// assert_eq!(a.distance(b), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point2 {
    /// Easting coordinate in feet.
    pub x: f64,
    /// Northing coordinate in feet.
    pub y: f64,
}

/// A displacement in the plane, in feet.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vector2 {
    /// X component in feet.
    pub x: f64,
    /// Y component in feet.
    pub y: f64,
}

impl Point2 {
    /// The origin `(0, 0)`.
    pub const ORIGIN: Point2 = Point2 { x: 0.0, y: 0.0 };

    /// Creates a point from its coordinates.
    pub const fn new(x: f64, y: f64) -> Self {
        Point2 { x, y }
    }

    /// Euclidean distance to `other`, in feet.
    pub fn distance(self, other: Point2) -> f64 {
        self.distance_squared(other).sqrt()
    }

    /// Squared Euclidean distance to `other`.
    ///
    /// Cheaper than [`Point2::distance`]; prefer it for comparisons.
    pub fn distance_squared(self, other: Point2) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Midpoint of the segment between `self` and `other`.
    pub fn midpoint(self, other: Point2) -> Point2 {
        Point2::new((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)
    }

    /// Returns `true` when both coordinates are finite.
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl Vector2 {
    /// The zero vector.
    pub const ZERO: Vector2 = Vector2 { x: 0.0, y: 0.0 };

    /// Creates a vector from its components.
    pub const fn new(x: f64, y: f64) -> Self {
        Vector2 { x, y }
    }

    /// Euclidean norm (length) of the vector.
    pub fn norm(self) -> f64 {
        self.norm_squared().sqrt()
    }

    /// Squared Euclidean norm.
    pub fn norm_squared(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// 2-D cross product (z component of the 3-D cross product).
    pub fn cross(self, other: Vector2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// A unit vector at `angle` radians from the positive x axis.
    pub fn from_angle(angle: f64) -> Vector2 {
        Vector2::new(angle.cos(), angle.sin())
    }
}

impl fmt::Display for Point2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.2}, {:.2})", self.x, self.y)
    }
}

impl fmt::Display for Vector2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{:.2}, {:.2}>", self.x, self.y)
    }
}

impl Sub for Point2 {
    type Output = Vector2;
    fn sub(self, rhs: Point2) -> Vector2 {
        Vector2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Add<Vector2> for Point2 {
    type Output = Point2;
    fn add(self, rhs: Vector2) -> Point2 {
        Point2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub<Vector2> for Point2 {
    type Output = Point2;
    fn sub(self, rhs: Vector2) -> Point2 {
        Point2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl AddAssign<Vector2> for Point2 {
    fn add_assign(&mut self, rhs: Vector2) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl SubAssign<Vector2> for Point2 {
    fn sub_assign(&mut self, rhs: Vector2) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl Add for Vector2 {
    type Output = Vector2;
    fn add(self, rhs: Vector2) -> Vector2 {
        Vector2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Vector2 {
    type Output = Vector2;
    fn sub(self, rhs: Vector2) -> Vector2 {
        Vector2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl AddAssign for Vector2 {
    fn add_assign(&mut self, rhs: Vector2) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl SubAssign for Vector2 {
    fn sub_assign(&mut self, rhs: Vector2) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl Neg for Vector2 {
    type Output = Vector2;
    fn neg(self) -> Vector2 {
        Vector2::new(-self.x, -self.y)
    }
}

impl Mul<f64> for Vector2 {
    type Output = Vector2;
    fn mul(self, rhs: f64) -> Vector2 {
        Vector2::new(self.x * rhs, self.y * rhs)
    }
}

impl Mul<Vector2> for f64 {
    type Output = Vector2;
    fn mul(self, rhs: Vector2) -> Vector2 {
        rhs * self
    }
}

impl Div<f64> for Vector2 {
    type Output = Vector2;
    fn div(self, rhs: f64) -> Vector2 {
        Vector2::new(self.x / rhs, self.y / rhs)
    }
}

impl From<(f64, f64)> for Point2 {
    fn from((x, y): (f64, f64)) -> Self {
        Point2::new(x, y)
    }
}

impl From<Point2> for (f64, f64) {
    fn from(p: Point2) -> Self {
        (p.x, p.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_symmetric_345() {
        let a = Point2::new(1.0, 2.0);
        let b = Point2::new(4.0, 6.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(b.distance(a), 5.0);
    }

    #[test]
    fn distance_squared_matches_distance() {
        let a = Point2::new(-3.0, 7.5);
        let b = Point2::new(2.25, -1.0);
        let d = a.distance(b);
        assert!((a.distance_squared(b) - d * d).abs() < 1e-12);
    }

    #[test]
    fn midpoint_is_halfway() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(10.0, -4.0);
        assert_eq!(a.midpoint(b), Point2::new(5.0, -2.0));
    }

    #[test]
    fn vector_algebra_roundtrip() {
        let a = Point2::new(1.0, 1.0);
        let b = Point2::new(5.0, -2.0);
        let v = b - a;
        assert_eq!(a + v, b);
        assert_eq!(b - v, a);
    }

    #[test]
    fn dot_and_cross_orthogonality() {
        let e1 = Vector2::new(1.0, 0.0);
        let e2 = Vector2::new(0.0, 1.0);
        assert_eq!(e1.x * e2.x + e1.y * e2.y, 0.0);
        assert_eq!(e1.cross(e2), 1.0);
        assert_eq!(e2.cross(e1), -1.0);
    }

    #[test]
    fn from_angle_is_unit() {
        for i in 0..16 {
            let v = Vector2::from_angle(i as f64 * std::f64::consts::PI / 8.0);
            assert!((v.norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn scalar_ops() {
        let v = Vector2::new(2.0, -6.0);
        assert_eq!(v * 0.5, Vector2::new(1.0, -3.0));
        assert_eq!(0.5 * v, v / 2.0);
        assert_eq!(-v, Vector2::new(-2.0, 6.0));
    }

    #[test]
    fn tuple_conversions() {
        let p: Point2 = (1.5, 2.5).into();
        let t: (f64, f64) = p.into();
        assert_eq!(t, (1.5, 2.5));
    }

    #[test]
    fn display_nonempty() {
        assert_eq!(format!("{}", Point2::new(1.0, 2.0)), "(1.00, 2.00)");
        assert_eq!(format!("{}", Vector2::new(1.0, 2.0)), "<1.00, 2.00>");
    }

    #[test]
    fn finite_detection() {
        assert!(Point2::new(1.0, 2.0).is_finite());
        assert!(!Point2::new(f64::NAN, 0.0).is_finite());
        assert!(!Point2::new(0.0, f64::INFINITY).is_finite());
    }
}
