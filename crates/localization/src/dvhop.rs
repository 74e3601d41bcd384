//! DV-hop range-free localization (Niculescu & Nath's APS — the paper's
//! ref \[23\]).
//!
//! When nodes cannot measure distances at all, they can still count hops:
//! each anchor floods the network; nodes record their minimum hop count to
//! every anchor; anchors derive an *average hop size* from their true
//! pairwise distances and hop counts; unknowns convert hop counts into
//! distance estimates and multilaterate.
//!
//! Included as the representative range-free baseline from the paper's
//! related work — the detection suite protects range-free schemes too,
//! since a compromised anchor lies in exactly the same ways (false
//! declared location, manipulated hop/flood behaviour).

use crate::{Estimate, EstimateError, Estimator, LocationReference, MmseEstimator};
use secloc_geometry::Point2;
use std::collections::VecDeque;

/// DV-hop over a static connectivity graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvHop {
    /// Radio range defining graph edges, in feet.
    pub range_ft: f64,
    /// Multilateration backend.
    pub estimator: MmseEstimator,
}

impl DvHop {
    /// Creates a DV-hop instance for radio range `range_ft`.
    ///
    /// # Panics
    ///
    /// Panics unless the range is finite and positive.
    pub fn new(range_ft: f64) -> Self {
        assert!(
            range_ft.is_finite() && range_ft > 0.0,
            "range must be positive, got {range_ft}"
        );
        DvHop {
            range_ft,
            estimator: MmseEstimator::default(),
        }
    }

    /// Runs the full scheme with honest anchors.
    ///
    /// `anchors` know their positions; `unknowns` are the true positions of
    /// the other nodes (used only for connectivity). Returns one estimate
    /// per unknown; `None` for nodes that cannot reach three anchors.
    pub fn localize(&self, anchors: &[Point2], unknowns: &[Point2]) -> Vec<Option<Estimate>> {
        self.localize_with_declared(anchors, anchors, unknowns)
    }

    /// Runs the scheme with possibly lying anchors: radio connectivity is
    /// governed by `anchors_true` (physics), while hop sizes and references
    /// are computed from `anchors_declared` (what the floods carry) — the
    /// separation a compromised anchor exploits.
    ///
    /// # Panics
    ///
    /// Panics if the two anchor slices differ in length.
    pub fn localize_with_declared(
        &self,
        anchors_true: &[Point2],
        anchors_declared: &[Point2],
        unknowns: &[Point2],
    ) -> Vec<Option<Estimate>> {
        assert_eq!(
            anchors_true.len(),
            anchors_declared.len(),
            "true/declared anchor lists must align"
        );
        let anchors = anchors_declared;
        let n_anchors = anchors.len();
        let all: Vec<Point2> = anchors_true
            .iter()
            .chain(unknowns.iter())
            .copied()
            .collect();
        let n = all.len();

        // Adjacency by range (O(n^2); fine at simulation scale).
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for i in 0..n {
            for j in i + 1..n {
                if all[i].distance(all[j]) <= self.range_ft {
                    adj[i].push(j);
                    adj[j].push(i);
                }
            }
        }

        // BFS hop counts from every anchor.
        let mut hops: Vec<Vec<Option<u32>>> = vec![vec![None; n]; n_anchors];
        for (a, hop_row) in hops.iter_mut().enumerate() {
            let mut queue = VecDeque::from([a]);
            hop_row[a] = Some(0);
            while let Some(u) = queue.pop_front() {
                let d = hop_row[u].expect("visited");
                for &v in &adj[u] {
                    if hop_row[v].is_none() {
                        hop_row[v] = Some(d + 1);
                        queue.push_back(v);
                    }
                }
            }
        }

        // Per-anchor average hop size from true anchor-anchor distances.
        let mut hop_size = vec![None::<f64>; n_anchors];
        for a in 0..n_anchors {
            let mut dist_sum = 0.0;
            let mut hop_sum = 0u32;
            for b in 0..n_anchors {
                if a == b {
                    continue;
                }
                if let Some(h) = hops[a][b] {
                    dist_sum += anchors[a].distance(anchors[b]);
                    hop_sum += h;
                }
            }
            if hop_sum > 0 {
                hop_size[a] = Some(dist_sum / hop_sum as f64);
            }
        }

        // Each unknown adopts the hop size of its nearest (fewest-hop)
        // anchor — the APS correction-flooding rule.
        unknowns
            .iter()
            .enumerate()
            .map(|(u, _)| {
                let node = n_anchors + u;
                let nearest = (0..n_anchors)
                    .filter_map(|a| Some((a, hops[a][node]?)))
                    .min_by_key(|&(_, h)| h)?;
                let size = hop_size[nearest.0]?;
                let refs: Vec<LocationReference> = (0..n_anchors)
                    .filter_map(|a| {
                        let h = hops[a][node]?;
                        Some(LocationReference::new(anchors[a], h as f64 * size))
                    })
                    .collect();
                self.estimator.estimate(&refs).ok()
            })
            .collect()
    }

    /// Mean localization error of `estimates` (one per unknown, as
    /// [`DvHop::localize`] returns them) over the unknowns they localized;
    /// `None` when they localized none.
    pub fn mean_error(estimates: &[Option<Estimate>], unknowns: &[Point2]) -> Option<f64> {
        let mut sum = 0.0;
        let mut k = 0usize;
        for (est, truth) in estimates.iter().zip(unknowns) {
            if let Some(e) = est {
                sum += e.position.distance(*truth);
                k += 1;
            }
        }
        (k > 0).then(|| sum / k as f64)
    }
}

impl Estimator for DvHop {
    /// DV-hop as a reference-consuming estimator is meaningless (it builds
    /// its own references); this impl multilaterates directly so `DvHop`
    /// can slot into estimator-generic code once hop-derived references
    /// exist.
    fn estimate(&self, refs: &[LocationReference]) -> Result<Estimate, EstimateError> {
        self.estimator.estimate(refs)
    }

    fn min_references(&self) -> usize {
        self.estimator.min_references()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secloc_geometry::{deploy, Field};

    /// Dense uniform network: DV-hop should localize everyone with error
    /// well under the radio range.
    #[test]
    fn dense_network_localizes_everyone() {
        let field = Field::square(500.0);
        let anchors = vec![
            Point2::new(20.0, 20.0),
            Point2::new(480.0, 30.0),
            Point2::new(30.0, 470.0),
            Point2::new(470.0, 480.0),
            Point2::new(250.0, 250.0),
        ];
        let unknowns = deploy::uniform(&field, 150, 3);
        let dv = DvHop::new(120.0);
        let estimates = dv.localize(&anchors, &unknowns);
        let localized = estimates.iter().flatten().count();
        assert!(localized > 140, "only {localized}/150 localized");
        let err = DvHop::mean_error(&estimates, &unknowns).unwrap();
        assert!(err < 120.0, "mean error {err} exceeds one radio range");
    }

    #[test]
    fn straight_line_chain_exact() {
        // Anchors at both ends of a line, unknowns evenly between: hop
        // size equals true spacing, so estimates are near-exact along x.
        let anchors = vec![
            Point2::new(0.0, 0.0),
            Point2::new(400.0, 0.0),
            Point2::new(200.0, 90.0),
        ];
        let unknowns = vec![
            Point2::new(100.0, 0.0),
            Point2::new(200.0, 0.0),
            Point2::new(300.0, 0.0),
        ];
        let dv = DvHop::new(110.0);
        let estimates = dv.localize(&anchors, &unknowns);
        for (est, truth) in estimates.iter().zip(&unknowns) {
            let e = est.expect("chain is connected");
            assert!(
                e.position.distance(*truth) < 60.0,
                "truth {truth}, got {}",
                e.position
            );
        }
    }

    #[test]
    fn disconnected_node_unlocalized() {
        let anchors = vec![
            Point2::new(0.0, 0.0),
            Point2::new(100.0, 0.0),
            Point2::new(50.0, 80.0),
        ];
        let unknowns = vec![Point2::new(50.0, 30.0), Point2::new(5000.0, 5000.0)];
        let dv = DvHop::new(120.0);
        let estimates = dv.localize(&anchors, &unknowns);
        assert!(estimates[0].is_some());
        assert!(estimates[1].is_none(), "unreachable node must not localize");
    }

    #[test]
    fn too_few_anchors_gives_none() {
        let anchors = vec![Point2::new(0.0, 0.0), Point2::new(100.0, 0.0)];
        let unknowns = vec![Point2::new(50.0, 10.0)];
        let dv = DvHop::new(150.0);
        // Two anchors: MMSE needs three references, so no estimate.
        assert!(dv.localize(&anchors, &unknowns)[0].is_none());
    }

    #[test]
    fn lying_anchor_poisons_dv_hop_too() {
        // The motivation for applying the paper's detection to range-free
        // schemes: a compromised anchor declaring a false position skews
        // every hop-derived reference built from it.
        let honest_anchors = vec![
            Point2::new(0.0, 0.0),
            Point2::new(380.0, 60.0),
            Point2::new(200.0, 300.0),
            Point2::new(50.0, 250.0),
        ];
        let unknowns = vec![
            Point2::new(150.0, 100.0),
            Point2::new(250.0, 150.0),
            Point2::new(100.0, 180.0),
        ];
        let dv = DvHop::new(200.0);
        let honest = dv.localize(&honest_anchors, &unknowns);
        let honest_err = DvHop::mean_error(&honest, &unknowns).unwrap();
        let mut declared = honest_anchors.clone();
        declared[0] = Point2::new(800.0, 800.0); // the lie in the flood packets
        let estimates = dv.localize_with_declared(&honest_anchors, &declared, &unknowns);
        let lying_err = DvHop::mean_error(&estimates, &unknowns).unwrap();
        assert!(
            lying_err > honest_err + 50.0,
            "lie had no effect: {honest_err} -> {lying_err}"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn range_validated() {
        DvHop::new(0.0);
    }
}
