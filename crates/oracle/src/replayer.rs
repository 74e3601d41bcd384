//! Local replay attacks (§2.2.2).

use crate::Frame;
use secloc_geometry::Point2;
use secloc_radio::Cycles;

/// An attacking node that replays a neighbour beacon's signal locally.
///
/// The paper's §2.3 collision assumption makes the physics explicit: while
/// a node is transmitting during period `T`, a neighbour "either receives
/// the original signal or receives nothing", so a replayer must receive the
/// *whole* packet before retransmitting it. The minimum replay delay is
/// therefore one full packet transmission time — "typically much larger
/// than 4.5 bits" — plus whatever turnaround the attacker's hardware adds.
///
/// # Examples
///
/// ```
/// use secloc_crypto::NodeId;
/// use secloc_geometry::Point2;
/// use secloc_oracle::{BeaconPayload, Frame, FrameBody, Key, LocalReplayer};
/// use secloc_radio::Cycles;
///
/// let attacker = LocalReplayer::new(Point2::new(50.0, 50.0), Cycles::new(200));
/// let frame = Frame::seal(
///     NodeId(1),
///     NodeId(2),
///     FrameBody::Beacon(BeaconPayload { beacon: NodeId(1), declared: Point2::new(0.0, 0.0) }),
///     &Key::from_u128(1),
/// );
/// // The replay arrives at least one packet-time late: far beyond the
/// // 4.5-bit RTT margin, so the RTT filter catches it.
/// assert!(attacker.replay_delay(&frame).as_bits() > 4.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalReplayer {
    position: Point2,
    turnaround: Cycles,
}

impl LocalReplayer {
    /// Creates a replayer at `position` whose hardware needs `turnaround`
    /// cycles between finishing reception and starting retransmission.
    pub fn new(position: Point2, turnaround: Cycles) -> Self {
        LocalReplayer {
            position,
            turnaround,
        }
    }

    /// Where the attacker physically sits.
    pub fn position(&self) -> Point2 {
        self.position
    }

    /// The delay this attacker adds when replaying `frame`: one full
    /// store-and-forward packet time plus hardware turnaround.
    pub fn replay_delay(&self, frame: &Frame) -> Cycles {
        frame.transmission_time() + self.turnaround
    }

    /// Whether this attacker can overhear a transmission from `src` and
    /// reach a victim at `dst`, given radio `range`.
    pub fn in_position(&self, src: Point2, dst: Point2, range: f64) -> bool {
        self.position.distance(src) <= range && self.position.distance(dst) <= range
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BeaconPayload, FrameBody, Key};
    use secloc_crypto::NodeId;

    fn beacon_frame() -> Frame {
        Frame::seal(
            NodeId(1),
            NodeId(2),
            FrameBody::Beacon(BeaconPayload {
                beacon: NodeId(1),
                declared: Point2::new(5.0, 5.0),
            }),
            &Key::from_u128(3),
        )
    }

    #[test]
    fn replay_delay_is_at_least_one_packet() {
        let r = LocalReplayer::new(Point2::ORIGIN, Cycles::ZERO);
        let f = beacon_frame();
        assert_eq!(r.replay_delay(&f), f.transmission_time());
        // 45-byte frame = 360 bits >> 4.5-bit margin.
        assert!(r.replay_delay(&f).as_bits() >= 360.0);
    }

    #[test]
    fn turnaround_adds_on_top() {
        let r = LocalReplayer::new(Point2::ORIGIN, Cycles::new(777));
        let f = beacon_frame();
        assert_eq!(r.replay_delay(&f), f.transmission_time() + Cycles::new(777));
    }

    #[test]
    fn positioning_check() {
        let r = LocalReplayer::new(Point2::new(50.0, 0.0), Cycles::ZERO);
        let src = Point2::new(0.0, 0.0);
        let dst = Point2::new(100.0, 0.0);
        assert!(r.in_position(src, dst, 60.0));
        assert!(!r.in_position(src, dst, 40.0));
        assert_eq!(r.position(), Point2::new(50.0, 0.0));
    }
}
