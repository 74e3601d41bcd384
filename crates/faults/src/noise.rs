//! Spatially non-uniform ranging noise.

use crate::FaultError;
use secloc_geometry::Point2;

/// A disc of elevated ranging noise.
///
/// Inside the disc the maximum ranging error is multiplied by
/// `noise_figure`; a figure above 1 breaks the detector's hard `ε_max`
/// premise for nodes standing there (benign signals start failing the
/// consistency check), a figure below 1 models a calibrated quiet zone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseRegion {
    /// Centre of the disc.
    pub center: Point2,
    /// Radius of the disc, in feet.
    pub radius_ft: f64,
    /// Multiplier applied to the maximum ranging error inside the disc.
    pub noise_figure: f64,
}

impl NoiseRegion {
    /// A disc at `center` of radius `radius_ft` with multiplier
    /// `noise_figure`.
    pub fn disc(center: Point2, radius_ft: f64, noise_figure: f64) -> Self {
        NoiseRegion {
            center,
            radius_ft,
            noise_figure,
        }
    }

    /// A region big enough to cover any point of a square field of side
    /// `field_side_ft` — uniform degradation.
    pub fn whole_field(field_side_ft: f64, noise_figure: f64) -> Self {
        let half = field_side_ft / 2.0;
        NoiseRegion {
            center: Point2::new(half, half),
            // The corner is half·√2 away; double it for slack.
            radius_ft: field_side_ft * 1.5,
            noise_figure,
        }
    }

    /// Whether `p` falls inside the disc (inclusive).
    pub fn contains(&self, p: Point2) -> bool {
        self.center.distance(p) <= self.radius_ft
    }

    /// Checks the region's parameters for internal consistency.
    pub fn validate(&self) -> Result<(), FaultError> {
        if !(self.noise_figure.is_finite() && self.noise_figure > 0.0) {
            return Err(FaultError::NonPositiveNoiseFigure(self.noise_figure));
        }
        if !(self.radius_ft.is_finite() && self.radius_ft > 0.0) {
            return Err(FaultError::NonPositiveNoiseRadius(self.radius_ft));
        }
        Ok(())
    }
}

/// The resolved noise map: answers "what is the noise figure at `p`?".
///
/// Built once per run from the plan's regions. Points outside every region
/// get figure 1.0; where regions overlap, the **last** matching region
/// wins, so plans can layer a broad degradation with local exceptions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NoiseField {
    regions: Vec<NoiseRegion>,
}

impl NoiseField {
    /// Builds the map from `regions` (order matters on overlap).
    pub fn new(regions: &[NoiseRegion]) -> Self {
        NoiseField {
            regions: regions.to_vec(),
        }
    }

    /// The noise figure in force at `p`.
    pub fn figure_at(&self, p: Point2) -> f64 {
        self.regions
            .iter()
            .rev()
            .find(|r| r.contains(p))
            .map_or(1.0, |r| r.noise_figure)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_field_is_uniform_unity() {
        let f = NoiseField::default();
        assert!(f.regions.is_empty());
        assert_eq!(f.figure_at(Point2::new(123.0, 456.0)), 1.0);
    }

    #[test]
    fn figure_applies_inside_only() {
        let f = NoiseField::new(&[NoiseRegion::disc(Point2::new(100.0, 100.0), 50.0, 3.0)]);
        assert_eq!(f.figure_at(Point2::new(100.0, 100.0)), 3.0);
        assert_eq!(f.figure_at(Point2::new(149.0, 100.0)), 3.0);
        assert_eq!(f.figure_at(Point2::new(151.0, 100.0)), 1.0);
    }

    #[test]
    fn later_region_wins_on_overlap() {
        let f = NoiseField::new(&[
            NoiseRegion::whole_field(1000.0, 2.0),
            NoiseRegion::disc(Point2::new(500.0, 500.0), 100.0, 0.5),
        ]);
        assert_eq!(f.figure_at(Point2::new(500.0, 500.0)), 0.5);
        assert_eq!(f.figure_at(Point2::new(10.0, 10.0)), 2.0);
    }

    #[test]
    fn whole_field_covers_corners() {
        let r = NoiseRegion::whole_field(1000.0, 2.0);
        for (x, y) in [(0.0, 0.0), (1000.0, 0.0), (0.0, 1000.0), (1000.0, 1000.0)] {
            assert!(r.contains(Point2::new(x, y)), "corner ({x}, {y})");
        }
    }

    #[test]
    fn bad_figures_rejected() {
        assert!(NoiseRegion::disc(Point2::new(0.0, 0.0), 10.0, 0.0)
            .validate()
            .is_err());
        assert!(NoiseRegion::disc(Point2::new(0.0, 0.0), -1.0, 2.0)
            .validate()
            .is_err());
        assert!(NoiseRegion::disc(Point2::new(0.0, 0.0), 10.0, f64::NAN)
            .validate()
            .is_err());
    }
}
