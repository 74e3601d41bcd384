//! The shared radio medium.
//!
//! Node positions (for range checks and propagation), frame transmission
//! times, per-link loss, and attacker *taps* that re-inject captured
//! frames elsewhere (the physical mechanism behind wormholes and local
//! replayers). Deliveries come back as timed events, sorted by arrival
//! time.

use crate::Frame;
use rand::rngs::StdRng;
use rand::SeedableRng;
use secloc_geometry::Point2;
use secloc_radio::loss::{BernoulliLoss, LossModel};
use secloc_radio::Cycles;

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

/// The broadcast medium: a linear scan over every node per transmit.
///
/// Loss draws come from one seeded stream, one draw per in-range
/// candidate, in ascending receiver order, direct listeners first and
/// then each capturing tap in installation order.
///
/// # Examples
///
/// ```
/// use secloc_crypto::NodeId;
/// use secloc_geometry::Point2;
/// use secloc_oracle::{Frame, FrameBody, Key, Medium, RequestPayload};
/// use secloc_radio::Cycles;
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
    positions: Vec<Point2>,
    range_ft: f64,
    loss: BernoulliLoss,
    taps: Vec<Tap>,
    rng: StdRng,
}

impl Medium {
    /// A medium over static node positions with a per-packet loss rate.
    pub fn new(positions: Vec<Point2>, range_ft: f64, loss_rate: f64, seed: u64) -> Self {
        Medium {
            positions,
            range_ft,
            loss: BernoulliLoss::new(loss_rate),
            taps: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Installs an attacker tap (wormhole end or local replayer).
    pub fn add_tap(&mut self, tap: Tap) {
        self.taps.push(tap);
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

    /// Transmits `frame` from node `sender` starting at `at` and returns
    /// every delivery — direct listeners in range plus copies re-injected
    /// by taps — sorted by arrival time.
    ///
    /// # Panics
    ///
    /// Panics when `sender` is out of bounds.
    pub fn transmit(&mut self, sender: usize, frame: &Frame, at: Cycles) -> Vec<Delivery> {
        let src = self.positions[sender];
        let airtime = frame.transmission_time();
        let mut out = Vec::new();
        self.deliver_from(src, sender, *frame, at + airtime, false, &mut out);

        // Tap re-injections: a tap that hears the frame re-transmits it
        // after fully receiving it (store-and-forward) plus its tunnel
        // latency.
        let capturing: Vec<Tap> = self
            .taps
            .iter()
            .copied()
            .filter(|t| src.distance(t.capture_at) <= t.capture_range)
            .collect();
        for tap in capturing {
            let replay_end = at + airtime + tap.extra_delay + airtime;
            self.deliver_from(tap.replay_from, sender, *frame, replay_end, true, &mut out);
        }
        out.sort_by_key(|d| (d.at, d.receiver));
        out
    }

    /// Pushes one delivery per node (other than `sender`) within range of
    /// `from` that survives its loss draw, arriving at `airtime_end` plus
    /// the propagation delay. The range check stays ahead of the loss
    /// draw, so out-of-range nodes consume no randomness.
    fn deliver_from(
        &mut self,
        from: Point2,
        sender: usize,
        frame: Frame,
        airtime_end: Cycles,
        via_tap: bool,
        out: &mut Vec<Delivery>,
    ) {
        for (i, &pos) in self.positions.iter().enumerate() {
            if i == sender {
                continue;
            }
            let d = from.distance(pos);
            if d > self.range_ft || self.loss.is_lost(&mut self.rng) {
                continue;
            }
            let prop = Cycles::new(Cycles::propagation_fractional(d).round() as u64);
            out.push(Delivery {
                receiver: i,
                frame,
                at: airtime_end + prop,
                via_tap,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FrameBody, Key, RequestPayload};
    use secloc_crypto::NodeId;

    fn request_frame(src: u32, dst: u32) -> Frame {
        Frame::seal(
            NodeId(src),
            NodeId(dst),
            FrameBody::Request(RequestPayload {
                requester: NodeId(src),
            }),
            &Key::from_u128(9),
        )
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
}
