//! Bucket-grid spatial index for neighbourhood queries.

use crate::{Field, Point2};

/// A uniform bucket grid over a [`Field`] answering range queries.
///
/// Positions are stored once at build time (node positions are static in the
/// reproduced paper) and queried many times — every beacon exchange needs the
/// set of nodes within radio range. With bucket size equal to the query
/// radius, a query touches at most 9 buckets.
///
/// Indices returned by queries refer to the order of the iterator passed to
/// [`GridIndex::build`].
///
/// # Examples
///
/// ```
/// use secloc_geometry::{Field, GridIndex, Point2};
///
/// let field = Field::square(100.0);
/// let pts = vec![Point2::new(10.0, 10.0), Point2::new(90.0, 90.0)];
/// let idx = GridIndex::build(&field, 20.0, pts.iter().copied());
/// let mut hits = Vec::new();
/// idx.within_into(Point2::new(12.0, 12.0), 20.0, &mut hits);
/// assert_eq!(hits, vec![0]);
/// ```
#[derive(Debug, Clone)]
pub struct GridIndex {
    cell: f64,
    cols: usize,
    rows: usize,
    buckets: Vec<Vec<u32>>,
    positions: Vec<Point2>,
}

impl GridIndex {
    /// Builds an index over `positions` with bucket side `cell` (feet).
    ///
    /// `cell` should normally equal the most common query radius.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is not finite and positive, or if any position lies
    /// outside `field`.
    pub fn build<I>(field: &Field, cell: f64, positions: I) -> Self
    where
        I: IntoIterator<Item = Point2>,
    {
        assert!(
            cell.is_finite() && cell > 0.0,
            "cell must be positive, got {cell}"
        );
        let cols = (field.width() / cell).ceil().max(1.0) as usize;
        let rows = (field.height() / cell).ceil().max(1.0) as usize;
        let mut index = GridIndex {
            cell,
            cols,
            rows,
            buckets: vec![Vec::new(); cols * rows],
            positions: Vec::new(),
        };
        for p in positions {
            assert!(field.contains(p), "position {p} outside {field}");
            let id = index.positions.len() as u32;
            let b = index.bucket_of(p);
            index.buckets[b].push(id);
            index.positions.push(p);
        }
        index
    }

    /// Number of indexed positions.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Returns `true` when the index holds no positions.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Position of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn position(&self, i: usize) -> Point2 {
        self.positions[i]
    }

    /// All indexed positions, in insertion order.
    pub fn positions(&self) -> &[Point2] {
        &self.positions
    }

    /// Clears `out` and fills it with the indices of all positions within
    /// `radius` of `center` (inclusive), sorted ascending.
    ///
    /// Reusing one scratch buffer across queries keeps steady-state queries
    /// allocation-free (the buffer grows to the largest result ever seen
    /// and stays there).
    pub fn within_into(&self, center: Point2, radius: f64, out: &mut Vec<usize>) {
        out.clear();
        out.extend(self.within_iter(center, radius));
        out.sort_unstable();
    }

    /// Lazily yields the indices of all positions within `radius` of
    /// `center` (inclusive), in **bucket order** (unsorted). Use this when
    /// the caller only folds over the result (counting, summing) and does
    /// not need the ascending order that [`GridIndex::within_into`]
    /// guarantees.
    pub fn within_iter(&self, center: Point2, radius: f64) -> impl Iterator<Item = usize> + '_ {
        let r2 = radius * radius;
        let empty = center.x + radius < 0.0
            || center.y + radius < 0.0
            || center.x - radius > self.cols as f64 * self.cell
            || center.y - radius > self.rows as f64 * self.cell;
        let min_cx = (((center.x - radius) / self.cell).floor().max(0.0)) as usize;
        let min_cy = (((center.y - radius) / self.cell).floor().max(0.0)) as usize;
        let max_cx = ((((center.x + radius) / self.cell).floor()) as usize).min(self.cols - 1);
        let max_cy = ((((center.y + radius) / self.cell).floor()) as usize).min(self.rows - 1);
        let (min_cy, max_cy) = if empty { (1, 0) } else { (min_cy, max_cy) };
        (min_cy..=max_cy)
            .flat_map(move |cy| (min_cx..=max_cx).map(move |cx| cy * self.cols + cx))
            .flat_map(move |b| self.buckets[b].iter().copied())
            .filter_map(move |id| {
                (self.positions[id as usize].distance_squared(center) <= r2).then_some(id as usize)
            })
    }

    /// Number of positions within `radius` of `center` (inclusive), without
    /// materialising the index list.
    pub fn count_within(&self, center: Point2, radius: f64) -> usize {
        self.within_iter(center, radius).count()
    }

    fn bucket_of(&self, p: Point2) -> usize {
        let cx = ((p.x / self.cell) as usize).min(self.cols - 1);
        let cy = ((p.y / self.cell) as usize).min(self.rows - 1);
        cy * self.cols + cx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy;

    /// One query into a fresh buffer.
    fn within(idx: &GridIndex, c: Point2, r: f64) -> Vec<usize> {
        let mut out = Vec::new();
        idx.within_into(c, r, &mut out);
        out
    }

    fn brute_force(pts: &[Point2], c: Point2, r: f64) -> Vec<usize> {
        pts.iter()
            .enumerate()
            .filter(|(_, p)| p.distance(c) <= r)
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn matches_brute_force_on_random_deployments() {
        let field = Field::new(500.0, 300.0);
        let pts = deploy::uniform(&field, 400, 17);
        let idx = GridIndex::build(&field, 60.0, pts.iter().copied());
        for (i, &q) in pts.iter().enumerate().step_by(13) {
            for r in [1.0, 25.0, 60.0, 130.0] {
                assert_eq!(
                    within(&idx, q, r),
                    brute_force(&pts, q, r),
                    "query {i} radius {r}"
                );
            }
        }
    }

    #[test]
    fn boundary_is_inclusive() {
        let field = Field::square(100.0);
        let pts = [Point2::new(0.0, 0.0), Point2::new(10.0, 0.0)];
        let idx = GridIndex::build(&field, 10.0, pts.iter().copied());
        assert_eq!(within(&idx, Point2::new(0.0, 0.0), 10.0), vec![0, 1]);
        assert_eq!(within(&idx, Point2::new(0.0, 0.0), 9.999), vec![0]);
    }

    #[test]
    fn query_outside_field_is_safe() {
        let field = Field::square(50.0);
        let pts = [Point2::new(1.0, 1.0)];
        let idx = GridIndex::build(&field, 10.0, pts.iter().copied());
        assert_eq!(
            within(&idx, Point2::new(-100.0, -100.0), 5.0),
            Vec::<usize>::new()
        );
        assert_eq!(
            within(&idx, Point2::new(200.0, 200.0), 5.0),
            Vec::<usize>::new()
        );
        // A query centred outside but reaching inside still works.
        assert_eq!(within(&idx, Point2::new(-1.0, 1.0), 3.0), vec![0]);
    }

    #[test]
    fn empty_index() {
        let field = Field::square(10.0);
        let idx = GridIndex::build(&field, 5.0, std::iter::empty());
        assert!(idx.is_empty());
        assert_eq!(
            within(&idx, Point2::new(5.0, 5.0), 100.0),
            Vec::<usize>::new()
        );
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn rejects_positions_outside_field() {
        let field = Field::square(10.0);
        GridIndex::build(&field, 5.0, [Point2::new(20.0, 0.0)]);
    }

    #[test]
    fn within_into_matches_within_and_reuses_buffer() {
        let field = Field::new(500.0, 300.0);
        let pts = deploy::uniform(&field, 400, 23);
        let idx = GridIndex::build(&field, 60.0, pts.iter().copied());
        let mut scratch = Vec::new();
        for (i, &q) in pts.iter().enumerate().step_by(17) {
            for r in [1.0, 25.0, 60.0, 130.0] {
                idx.within_into(q, r, &mut scratch);
                assert_eq!(scratch, brute_force(&pts, q, r), "query {i} radius {r}");
            }
        }
        // The scratch buffer is cleared per query, not appended to.
        idx.within_into(pts[0], 60.0, &mut scratch);
        let first = scratch.clone();
        idx.within_into(pts[0], 60.0, &mut scratch);
        assert_eq!(scratch, first);
    }

    #[test]
    fn within_iter_is_unsorted_within() {
        let field = Field::new(500.0, 300.0);
        let pts = deploy::uniform(&field, 300, 31);
        let idx = GridIndex::build(&field, 60.0, pts.iter().copied());
        for &q in pts.iter().step_by(19) {
            let mut collected: Vec<usize> = idx.within_iter(q, 75.0).collect();
            collected.sort_unstable();
            assert_eq!(collected, within(&idx, q, 75.0));
        }
    }

    #[test]
    fn count_within_matches_within_len() {
        let field = Field::new(500.0, 300.0);
        let pts = deploy::uniform(&field, 300, 37);
        let idx = GridIndex::build(&field, 60.0, pts.iter().copied());
        for &q in pts.iter().step_by(13) {
            for r in [1.0, 60.0, 200.0] {
                assert_eq!(idx.count_within(q, r), within(&idx, q, r).len());
            }
        }
        // Queries fully outside the field count zero.
        assert_eq!(idx.count_within(Point2::new(-500.0, -500.0), 10.0), 0);
        assert_eq!(idx.count_within(Point2::new(9000.0, 9000.0), 10.0), 0);
    }

    #[test]
    fn positions_accessor_preserves_order() {
        let field = Field::square(10.0);
        let pts = [Point2::new(1.0, 2.0), Point2::new(3.0, 4.0)];
        let idx = GridIndex::build(&field, 5.0, pts.iter().copied());
        assert_eq!(idx.positions(), &pts[..]);
        assert_eq!(idx.position(1), pts[1]);
        assert_eq!(idx.len(), 2);
    }
}
