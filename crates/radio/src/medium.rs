//! The shared radio medium.
//!
//! Ties the substrate together: node positions (for range checks and
//! propagation), frame transmission times, per-link loss, and attacker
//! *taps* that re-inject captured frames elsewhere (the physical mechanism
//! behind wormholes and local replayers). Deliveries come back as timed
//! events, sorted by arrival time.

use crate::loss::{BernoulliLoss, LossModel};
use crate::telemetry::RadioMetrics;
use crate::{Cycles, Frame, FrameBody};
use rand::rngs::StdRng;
use rand::SeedableRng;
use secloc_geometry::{Field, GridIndex, Point2};
use std::sync::Arc;

/// One frame arriving at one receiver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delivery {
    /// Receiver node index (into the medium's position table).
    pub receiver: usize,
    /// The frame as received (bit-identical to what was sent; integrity is
    /// the MAC layer's job).
    pub frame: Frame,
    /// Absolute arrival time of the last bit.
    pub at: Cycles,
    /// Whether this copy travelled through an attacker tap.
    pub via_tap: bool,
}

/// A passive attacker tap: captures frames airing within `capture_range`
/// of `capture_at` and re-injects them from `replay_from` after
/// `extra_delay` (plus a full store-and-forward frame time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tap {
    /// Where the tap listens.
    pub capture_at: Point2,
    /// Capture radius in feet.
    pub capture_range: f64,
    /// Where the captured frame is re-transmitted.
    pub replay_from: Point2,
    /// Tunnel latency added on top of store-and-forward.
    pub extra_delay: Cycles,
}

/// The broadcast medium.
///
/// # Examples
///
/// ```
/// use secloc_crypto::{Key, NodeId};
/// use secloc_geometry::Point2;
/// use secloc_radio::medium::Medium;
/// use secloc_radio::{Cycles, Frame, FrameBody, RequestPayload};
///
/// let mut medium = Medium::new(
///     vec![Point2::new(0.0, 0.0), Point2::new(100.0, 0.0), Point2::new(500.0, 0.0)],
///     150.0,
///     0.0, // lossless
///     7,
/// );
/// let frame = Frame::seal(
///     NodeId(0),
///     NodeId(1),
///     FrameBody::Request(RequestPayload { requester: NodeId(0) }),
///     &Key::from_u128(1),
/// );
/// let deliveries = medium.transmit(0, &frame, Cycles::ZERO);
/// // Node 1 hears it; node 2 is out of range; the sender never hears itself.
/// assert_eq!(deliveries.len(), 1);
/// assert_eq!(deliveries[0].receiver, 1);
/// ```
#[derive(Debug)]
pub struct Medium {
    positions: Arc<[Point2]>,
    range_ft: f64,
    loss: BernoulliLoss,
    taps: Vec<Tap>,
    rng: StdRng,
    metrics: Option<RadioMetrics>,
    // Positions and taps are static between `add_tap` calls, so everything
    // geometric about a transmission is an invariant worth caching: who
    // hears a given sender (with the propagation delay already computed),
    // which taps capture it, and who hears each tap's replay point. Only
    // the per-receiver loss draws remain per transmit. The caches fill
    // lazily (first transmit from a sender) so construction stays cheap.
    // Everything cached is immutable once built and lives behind `Arc`, so
    // [`Medium::fork`] can hand policy variants of one topology the primed
    // geometry without copying it.
    grid: Option<Arc<GridIndex>>,
    grid_built: bool,
    direct: Vec<Option<InRangeList>>,
    tap_capture: Vec<Option<Arc<[u32]>>>,
    tap_replay: Vec<InRangeList>,
    taps_primed: bool,
}

/// Receivers in range of some point, ascending, with the propagation delay
/// to each one precomputed. Shared, not copied, when a medium is forked.
type InRangeList = Arc<[(u32, Cycles)]>;

/// Why a [`Medium`] could not be constructed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MediumError {
    /// The radio range must be positive and finite.
    NonPositiveRange(f64),
    /// The per-packet loss rate must lie in `[0, 1]`.
    LossRateOutOfRange(f64),
}

impl std::fmt::Display for MediumError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MediumError::NonPositiveRange(r) => {
                write!(f, "range must be positive, got {r}")
            }
            MediumError::LossRateOutOfRange(r) => {
                write!(f, "loss rate must be in [0,1], got {r}")
            }
        }
    }
}

impl std::error::Error for MediumError {}

impl Medium {
    /// Creates a medium over static node positions.
    ///
    /// # Panics
    ///
    /// Panics unless the range is positive and the loss rate is in
    /// `[0, 1]`. Fallible callers (config builders, sweep drivers) should
    /// prefer [`Medium::try_new`].
    pub fn new(positions: Vec<Point2>, range_ft: f64, loss_rate: f64, seed: u64) -> Self {
        match Self::try_new(positions, range_ft, loss_rate, seed) {
            Ok(m) => m,
            Err(e) => panic!("{e}"),
        }
    }

    /// Like [`Medium::new`], but reports invalid parameters as a typed
    /// [`MediumError`] instead of panicking.
    pub fn try_new(
        positions: Vec<Point2>,
        range_ft: f64,
        loss_rate: f64,
        seed: u64,
    ) -> Result<Self, MediumError> {
        if !(range_ft.is_finite() && range_ft > 0.0) {
            return Err(MediumError::NonPositiveRange(range_ft));
        }
        if !(0.0..=1.0).contains(&loss_rate) {
            return Err(MediumError::LossRateOutOfRange(loss_rate));
        }
        let n = positions.len();
        Ok(Medium {
            positions: positions.into(),
            range_ft,
            loss: BernoulliLoss::new(loss_rate),
            taps: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            metrics: None,
            grid: None,
            grid_built: false,
            direct: vec![None; n],
            tap_capture: vec![None; n],
            tap_replay: Vec::new(),
            taps_primed: true, // no taps yet, nothing to prime
        })
    }

    /// Attaches traffic counters; every subsequent [`Medium::transmit`]
    /// records frames sent, delivered, dropped and tap-replayed.
    pub fn attach_metrics(&mut self, metrics: RadioMetrics) {
        self.metrics = Some(metrics);
    }

    /// Installs an attacker tap (wormhole end or local replayer).
    pub fn add_tap(&mut self, tap: Tap) {
        self.taps.push(tap);
        // Tap geometry changed: drop every tap-derived cache. Direct
        // delivery lists only depend on positions and stay valid.
        self.taps_primed = false;
        self.tap_replay.clear();
        for c in &mut self.tap_capture {
            *c = None;
        }
    }

    /// An independent medium over the same geometry: shares every built
    /// immutable cache (positions, spatial index, delivery and tap lists)
    /// by reference, starts a fresh loss-RNG stream from `seed`, and
    /// carries no metrics handle. Sweep engines sharing one topology
    /// across policy variants fork the primed medium instead of
    /// re-deriving its geometry; a fork seeded like a fresh
    /// [`Medium::new`] over the same inputs is bit-identical to it.
    pub fn fork(&self, seed: u64) -> Medium {
        Medium {
            positions: Arc::clone(&self.positions),
            range_ft: self.range_ft,
            loss: self.loss,
            taps: self.taps.clone(),
            rng: StdRng::seed_from_u64(seed),
            metrics: None,
            grid: self.grid.clone(),
            grid_built: self.grid_built,
            direct: self.direct.clone(),
            tap_capture: self.tap_capture.clone(),
            tap_replay: self.tap_replay.clone(),
            taps_primed: self.taps_primed,
        }
    }

    /// Node count.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the medium has no nodes.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Position of node `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds.
    pub fn position(&self, i: usize) -> Point2 {
        self.positions[i]
    }

    /// Transmits `frame` from node `sender` starting at `at`. Returns all
    /// deliveries — direct listeners in range plus copies re-injected by
    /// taps — sorted by arrival time.
    ///
    /// Allocates the returned `Vec` per call. Hot paths issuing many
    /// transmits should reuse a scratch buffer via
    /// [`Medium::transmit_into`]; this variant is kept for one-off sends
    /// and API compatibility.
    ///
    /// # Panics
    ///
    /// Panics when `sender` is out of bounds.
    pub fn transmit(&mut self, sender: usize, frame: &Frame, at: Cycles) -> Vec<Delivery> {
        let mut out = Vec::new();
        self.transmit_into(sender, frame, at, &mut out);
        out
    }

    /// Allocation-free variant of [`Medium::transmit`]: clears `out` and
    /// fills it with the deliveries, sorted by arrival time.
    ///
    /// Consumes the RNG stream exactly like [`Medium::transmit`] — one
    /// loss draw per in-range candidate, in ascending receiver order,
    /// direct listeners first and then each capturing tap in installation
    /// order — so the two entry points are interchangeable mid-stream
    /// without perturbing seeded simulations. The linear-scan reference
    /// medium in `secloc-oracle` draws the same way, which the radio
    /// crate's integration tests check bit for bit.
    ///
    /// # Panics
    ///
    /// Panics when `sender` is out of bounds.
    pub fn transmit_into(
        &mut self,
        sender: usize,
        frame: &Frame,
        at: Cycles,
        out: &mut Vec<Delivery>,
    ) {
        out.clear();
        self.prime_taps();
        self.prime_sender(sender);
        let airtime = frame.transmission_time();
        let n = self.positions.len();
        if let Some(m) = &self.metrics {
            m.frames_sent.incr();
            if matches!(frame.peek_body(), FrameBody::Request(_)) {
                m.ranging_requests.incr();
            }
        }

        // Direct deliveries: one pass over the precomputed in-range list,
        // touching only the loss draw per candidate. The cached list plays
        // the role of the range check, which therefore still stays ahead of
        // the loss draw — attaching metrics never changes the RNG stream.
        let direct = self.direct[sender].as_deref().expect("primed above");
        for &(receiver, prop) in direct {
            if self.loss.is_lost(&mut self.rng) {
                if let Some(m) = &self.metrics {
                    m.frames_dropped_loss.incr();
                }
                continue;
            }
            out.push(Delivery {
                receiver: receiver as usize,
                frame: *frame,
                at: at + airtime + prop,
                via_tap: false,
            });
        }
        if let Some(m) = &self.metrics {
            m.frames_dropped_range.add((n - 1 - direct.len()) as u64);
        }

        // Tap re-injections: a tap that hears the frame re-transmits it
        // after fully receiving it (store-and-forward) plus its tunnel
        // latency. Which taps hear this sender and who hears each tap are
        // both cached; only the sender exclusion is per-call.
        let capturing = self.tap_capture[sender].as_deref().expect("primed above");
        for &t in capturing {
            let tap = self.taps[t as usize];
            let replay_start = at + airtime + tap.extra_delay;
            let mut candidates = 0usize;
            for &(receiver, prop) in self.tap_replay[t as usize].iter() {
                if receiver as usize == sender {
                    continue;
                }
                candidates += 1;
                if self.loss.is_lost(&mut self.rng) {
                    if let Some(m) = &self.metrics {
                        m.frames_dropped_loss.incr();
                    }
                    continue;
                }
                out.push(Delivery {
                    receiver: receiver as usize,
                    frame: *frame,
                    at: replay_start + airtime + prop,
                    via_tap: true,
                });
            }
            if let Some(m) = &self.metrics {
                m.frames_dropped_range.add((n - 1 - candidates) as u64);
            }
        }

        if let Some(m) = &self.metrics {
            m.frames_delivered.add(out.len() as u64);
            m.frames_tap_replayed
                .add(out.iter().filter(|d| d.via_tap).count() as u64);
        }
        out.sort_by_key(|d| (d.at, d.receiver));
    }

    /// Builds the per-tap replay lists (and the spatial index underneath)
    /// the first time they are needed after construction or `add_tap`.
    fn prime_taps(&mut self) {
        if self.taps_primed {
            return;
        }
        self.taps_primed = true;
        self.build_grid();
        let mut lists = Vec::with_capacity(self.taps.len());
        for t in 0..self.taps.len() {
            lists.push(self.in_range_list(self.taps[t].replay_from, None));
        }
        self.tap_replay = lists;
    }

    /// Builds the direct-delivery and tap-capture lists for `sender` on its
    /// first transmission.
    fn prime_sender(&mut self, sender: usize) {
        if self.direct[sender].is_none() {
            self.build_grid();
            let src = self.positions[sender];
            self.direct[sender] = Some(self.in_range_list(src, Some(sender)));
        }
        if self.tap_capture[sender].is_none() {
            let src = self.positions[sender];
            let caps: Arc<[u32]> = self
                .taps
                .iter()
                .enumerate()
                .filter(|(_, t)| src.distance(t.capture_at) <= t.capture_range)
                .map(|(i, _)| i as u32)
                .collect();
            self.tap_capture[sender] = Some(caps);
        }
    }

    /// Builds the bucket-grid index over node positions once. Positions
    /// with negative or non-finite coordinates cannot live in a [`Field`],
    /// so such media fall back to linear scans during cache builds (the
    /// caches themselves still apply).
    fn build_grid(&mut self) {
        if self.grid_built {
            return;
        }
        self.grid_built = true;
        let fits = !self.positions.is_empty()
            && self
                .positions
                .iter()
                .all(|p| p.x.is_finite() && p.y.is_finite() && p.x >= 0.0 && p.y >= 0.0);
        if !fits {
            return;
        }
        let mut w = 1.0f64;
        let mut h = 1.0f64;
        for p in self.positions.iter() {
            w = w.max(p.x);
            h = h.max(p.y);
        }
        let field = Field::new(w, h);
        self.grid = Some(Arc::new(GridIndex::build(
            &field,
            self.range_ft,
            self.positions.iter().copied(),
        )));
    }

    /// All receivers within radio range of `from` (excluding `exclude`),
    /// ascending, with their propagation delays precomputed. Allocates —
    /// called once per cache entry, never per transmit.
    fn in_range_list(&self, from: Point2, exclude: Option<usize>) -> InRangeList {
        let entry = |i: usize| {
            let d = from.distance(self.positions[i]);
            (
                i as u32,
                Cycles::new(Cycles::propagation_fractional(d).round() as u64),
            )
        };
        match &self.grid {
            Some(grid) => {
                let mut hits = Vec::new();
                grid.within_into(from, self.range_ft, &mut hits);
                hits.into_iter()
                    .filter(|&i| Some(i) != exclude)
                    .map(entry)
                    .collect()
            }
            None => (0..self.positions.len())
                .filter(|&i| Some(i) != exclude)
                .filter(|&i| from.distance(self.positions[i]) <= self.range_ft)
                .map(entry)
                .collect(),
        }
    }

    /// Per-packet delivery probability on an in-range link (loss model
    /// only; out-of-range links deliver nothing).
    pub fn link_delivery_probability(&self) -> f64 {
        1.0 - self.loss.long_run_loss_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secloc_crypto::{Key, NodeId};
    use secloc_radio_test_helpers::request_frame;

    /// Local helper namespace so tests read cleanly.
    mod secloc_radio_test_helpers {
        use super::*;
        use crate::{FrameBody, RequestPayload};

        pub fn request_frame(src: u32, dst: u32) -> Frame {
            Frame::seal(
                NodeId(src),
                NodeId(dst),
                FrameBody::Request(RequestPayload {
                    requester: NodeId(src),
                }),
                &Key::from_u128(9),
            )
        }
    }

    fn line_medium(loss: f64) -> Medium {
        Medium::new(
            vec![
                Point2::new(0.0, 0.0),
                Point2::new(100.0, 0.0),
                Point2::new(200.0, 0.0),
                Point2::new(900.0, 0.0),
            ],
            150.0,
            loss,
            3,
        )
    }

    #[test]
    fn range_limits_direct_delivery() {
        let mut m = line_medium(0.0);
        let f = request_frame(0, 1);
        let deliveries = m.transmit(0, &f, Cycles::ZERO);
        // Node 1 at 100 ft hears; node 2 at 200 ft and node 3 at 900 ft do not.
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].receiver, 1);
        assert!(!deliveries[0].via_tap);
        // Arrival after one full frame time plus ~1 propagation cycle.
        assert!(deliveries[0].at >= f.transmission_time());
        assert!(deliveries[0].at <= f.transmission_time() + Cycles::new(2));
    }

    #[test]
    fn sender_does_not_hear_itself() {
        let mut m = line_medium(0.0);
        let f = request_frame(1, 0);
        let receivers: Vec<usize> = m
            .transmit(1, &f, Cycles::ZERO)
            .iter()
            .map(|d| d.receiver)
            .collect();
        assert!(!receivers.contains(&1));
        assert_eq!(receivers, vec![0, 2]);
    }

    #[test]
    fn loss_thins_deliveries() {
        let mut lossy = line_medium(0.5);
        let f = request_frame(1, 0);
        let mut delivered = 0usize;
        for _ in 0..2000 {
            delivered += lossy.transmit(1, &f, Cycles::ZERO).len();
        }
        // Two in-range receivers, 50% each: expect ~2000.
        assert!((1800..2200).contains(&delivered), "got {delivered}");
        assert_eq!(lossy.link_delivery_probability(), 0.5);
    }

    #[test]
    fn wormhole_tap_reinjects_far_away() {
        let mut m = line_medium(0.0);
        m.add_tap(Tap {
            capture_at: Point2::new(0.0, 0.0),
            capture_range: 50.0,
            replay_from: Point2::new(900.0, 0.0),
            extra_delay: Cycles::ZERO,
        });
        let f = request_frame(0, 3);
        let deliveries = m.transmit(0, &f, Cycles::ZERO);
        // Direct: node 1. Tapped: node 3 (and node 2? 900->200 = 700 no).
        let tapped: Vec<&Delivery> = deliveries.iter().filter(|d| d.via_tap).collect();
        assert_eq!(tapped.len(), 1);
        assert_eq!(tapped[0].receiver, 3);
        // Store-and-forward: at least two full frame times.
        assert!(tapped[0].at >= f.transmission_time() + f.transmission_time());
    }

    #[test]
    fn tap_out_of_capture_range_is_inert() {
        let mut m = line_medium(0.0);
        m.add_tap(Tap {
            capture_at: Point2::new(500.0, 500.0),
            capture_range: 50.0,
            replay_from: Point2::new(900.0, 0.0),
            extra_delay: Cycles::ZERO,
        });
        let f = request_frame(0, 1);
        assert!(m.transmit(0, &f, Cycles::ZERO).iter().all(|d| !d.via_tap));
    }

    #[test]
    fn tap_delay_visible_in_arrival_times() {
        let mut m = line_medium(0.0);
        m.add_tap(Tap {
            capture_at: Point2::new(0.0, 0.0),
            capture_range: 50.0,
            replay_from: Point2::new(0.0, 0.0), // local replayer
            extra_delay: Cycles::new(5_000),
        });
        let f = request_frame(0, 1);
        let deliveries = m.transmit(0, &f, Cycles::ZERO);
        let direct = deliveries.iter().find(|d| !d.via_tap).unwrap();
        let replayed = deliveries.iter().find(|d| d.via_tap).unwrap();
        assert_eq!(replayed.receiver, direct.receiver);
        // Replay is one frame time + 5000 cycles behind the original —
        // exactly the delay the RTT filter keys on.
        let gap = replayed.at - direct.at;
        assert_eq!(gap, f.transmission_time() + Cycles::new(5_000));
    }

    #[test]
    fn deliveries_sorted_by_time() {
        let mut m = Medium::new(
            vec![
                Point2::new(0.0, 0.0),
                Point2::new(10.0, 0.0),
                Point2::new(140.0, 0.0),
            ],
            150.0,
            0.0,
            1,
        );
        m.add_tap(Tap {
            capture_at: Point2::new(0.0, 0.0),
            capture_range: 20.0,
            replay_from: Point2::new(5.0, 0.0),
            extra_delay: Cycles::new(100),
        });
        let f = request_frame(0, 1);
        let deliveries = m.transmit(0, &f, Cycles::ZERO);
        assert!(deliveries.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(deliveries.len() >= 4); // 2 direct + 2 replayed
    }

    #[test]
    fn empty_and_len() {
        let m = Medium::new(vec![], 10.0, 0.0, 0);
        assert!(m.is_empty());
        assert_eq!(line_medium(0.0).len(), 4);
    }

    #[test]
    fn metrics_count_traffic() {
        use secloc_obs::MetricsRegistry;
        let registry = MetricsRegistry::new();
        let mut m = line_medium(0.0);
        m.add_tap(Tap {
            capture_at: Point2::new(0.0, 0.0),
            capture_range: 50.0,
            replay_from: Point2::new(900.0, 0.0),
            extra_delay: Cycles::ZERO,
        });
        m.attach_metrics(RadioMetrics::new(&registry));
        let f = request_frame(0, 3);
        let deliveries = m.transmit(0, &f, Cycles::ZERO);
        let s = registry.snapshot();
        assert_eq!(s.counter("radio.frames.sent"), Some(1));
        assert_eq!(s.counter("radio.ranging.requests"), Some(1));
        assert_eq!(
            s.counter("radio.frames.delivered"),
            Some(deliveries.len() as u64)
        );
        let tapped = deliveries.iter().filter(|d| d.via_tap).count() as u64;
        assert_eq!(s.counter("radio.frames.tap_replayed"), Some(tapped));
        // Lossless medium: every non-delivery was a range drop.
        assert!(s.counter("radio.frames.dropped_range").unwrap() > 0);
        assert_eq!(s.counter("radio.frames.dropped_loss"), Some(0));
    }

    /// A bigger medium with taps, for fork-vs-fresh equivalence.
    fn tapped_grid_medium(loss: f64, seed: u64) -> Medium {
        let mut positions = Vec::new();
        for i in 0..12 {
            for j in 0..12 {
                positions.push(Point2::new(i as f64 * 60.0, j as f64 * 60.0));
            }
        }
        let mut m = Medium::new(positions, 150.0, loss, seed);
        m.add_tap(Tap {
            capture_at: Point2::new(0.0, 0.0),
            capture_range: 120.0,
            replay_from: Point2::new(600.0, 600.0),
            extra_delay: Cycles::new(2_000),
        });
        m.add_tap(Tap {
            capture_at: Point2::new(600.0, 600.0),
            capture_range: 120.0,
            replay_from: Point2::new(0.0, 0.0),
            extra_delay: Cycles::new(2_000),
        });
        m
    }

    #[test]
    fn fork_shares_primed_caches_and_matches_a_fresh_medium() {
        // Prime every cache on the parent…
        let mut parent = tapped_grid_medium(0.3, 42);
        for sender in 0..parent.len() {
            parent.transmit(sender, &request_frame(sender as u32, 0), Cycles::ZERO);
        }
        // …fork it, and drive the fork in lockstep with a fresh medium
        // built from the same inputs and the fork's seed. Loss enabled so
        // any RNG-stream divergence desynchronizes the comparison.
        let mut fork = parent.fork(77);
        let mut fresh = tapped_grid_medium(0.3, 77);
        assert!(Arc::ptr_eq(&parent.positions, &fork.positions));
        assert!(parent
            .direct
            .iter()
            .zip(&fork.direct)
            .all(|(a, b)| match (a, b) {
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            }));
        for round in 0..2u32 {
            for sender in 0..fork.len() {
                let f = request_frame(sender as u32, 0);
                let at = Cycles::new(u64::from(round) * 1_000_000);
                assert_eq!(
                    fork.transmit(sender, &f, at),
                    fresh.transmit(sender, &f, at),
                    "round={round} sender={sender}"
                );
            }
        }
        // The fork is independent: a tap added to it never reaches the
        // parent, whose caches stay primed.
        fork.add_tap(Tap {
            capture_at: Point2::new(60.0, 60.0),
            capture_range: 10.0,
            replay_from: Point2::new(660.0, 660.0),
            extra_delay: Cycles::ZERO,
        });
        assert_eq!(parent.taps.len(), 2);
        assert!(parent.taps_primed);
    }

    #[test]
    fn add_tap_invalidates_caches() {
        let mut m = line_medium(0.0);
        let f = request_frame(0, 3);
        // Prime the caches with a tapless transmit…
        assert!(m.transmit(0, &f, Cycles::ZERO).iter().all(|d| !d.via_tap));
        // …then install a tap; the next transmit must see it.
        m.add_tap(Tap {
            capture_at: Point2::new(0.0, 0.0),
            capture_range: 50.0,
            replay_from: Point2::new(900.0, 0.0),
            extra_delay: Cycles::ZERO,
        });
        let tapped: Vec<usize> = m
            .transmit(0, &f, Cycles::ZERO)
            .iter()
            .filter(|d| d.via_tap)
            .map(|d| d.receiver)
            .collect();
        assert_eq!(tapped, vec![3]);
    }

    #[test]
    fn transmit_into_clears_stale_scratch() {
        let mut m = line_medium(0.0);
        let f = request_frame(0, 1);
        let mut out = m.transmit(3, &f, Cycles::ZERO); // node 3 is isolated…
        assert!(out.is_empty());
        m.transmit_into(0, &f, Cycles::ZERO, &mut out);
        assert_eq!(out.len(), 1); // …and a reused buffer holds only fresh results
        m.transmit_into(3, &f, Cycles::ZERO, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn metrics_do_not_perturb_rng_stream() {
        // Attaching metrics must not change what gets delivered: the loss
        // draws have to happen in exactly the same order.
        let f = request_frame(1, 0);
        let run = |instrument: bool| -> Vec<Vec<usize>> {
            let mut m = line_medium(0.4);
            if instrument {
                let registry = secloc_obs::MetricsRegistry::new();
                m.attach_metrics(RadioMetrics::new(&registry));
            }
            (0..50)
                .map(|_| {
                    m.transmit(1, &f, Cycles::ZERO)
                        .iter()
                        .map(|d| d.receiver)
                        .collect()
                })
                .collect()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn try_new_reports_typed_errors() {
        let positions = vec![Point2::new(0.0, 0.0)];
        assert_eq!(
            Medium::try_new(positions.clone(), 0.0, 0.1, 1).err(),
            Some(MediumError::NonPositiveRange(0.0))
        );
        assert!(matches!(
            Medium::try_new(positions.clone(), f64::NAN, 0.1, 1),
            Err(MediumError::NonPositiveRange(r)) if r.is_nan()
        ));
        assert_eq!(
            Medium::try_new(positions.clone(), 100.0, 1.5, 1).err(),
            Some(MediumError::LossRateOutOfRange(1.5))
        );
        assert!(Medium::try_new(positions, 100.0, 0.5, 1).is_ok());
        assert!(MediumError::LossRateOutOfRange(1.5)
            .to_string()
            .contains("[0,1]"));
    }

    #[test]
    #[should_panic(expected = "range must be positive")]
    fn new_panics_via_typed_error() {
        Medium::new(vec![Point2::new(0.0, 0.0)], -5.0, 0.1, 1);
    }
}
