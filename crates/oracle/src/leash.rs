//! A geographic packet leash: one instantiation of the wormhole detector
//! the filter of §2.2.1 consumes.
//!
//! The paper treats the wormhole detector as a black box with detection
//! rate `p_d`, citing packet leashes (Hu, Perrig & Johnson — its ref [13])
//! and directional antennas as instantiations. The simulator draws that
//! black box as a per-link Bernoulli(`p_d`) verdict; frame-level tests use
//! this leash instead.

use secloc_geometry::Point2;

/// The evidence a detector may inspect about one received packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeashContext {
    /// Receiver's own location.
    pub receiver_position: Point2,
    /// The location the sender embedded in the packet (a *leash*, distinct
    /// from the beacon payload's declared location — leashes are added at
    /// the link layer by every node).
    pub sender_claimed_position: Point2,
}

/// Geographic leash: `|receiver − claimed_sender| ≤ range + slack`,
/// otherwise the packet must have been tunnelled.
///
/// Detects every wormhole longer than `range + slack` between honest
/// endpoints; a *colluding* sender can defeat it by lying in the leash,
/// which is why the paper's filter combines the detector with its own
/// distance pre-check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeographicLeash {
    /// Radio range in feet.
    pub range_ft: f64,
    /// Localisation slack added to the range (position uncertainty of
    /// both ends), in feet.
    pub slack_ft: f64,
}

impl GeographicLeash {
    /// Returns `true` when the packet is judged wormhole-replayed.
    pub fn detects(&self, ctx: &LeashContext) -> bool {
        ctx.receiver_position.distance(ctx.sender_claimed_position) > self.range_ft + self.slack_ft
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(receiver: (f64, f64), claimed: (f64, f64)) -> LeashContext {
        LeashContext {
            receiver_position: Point2::new(receiver.0, receiver.1),
            sender_claimed_position: Point2::new(claimed.0, claimed.1),
        }
    }

    #[test]
    fn geographic_leash_catches_long_tunnels() {
        let leash = GeographicLeash {
            range_ft: 150.0,
            slack_ft: 20.0,
        };
        // Paper wormhole: ~922 ft.
        assert!(leash.detects(&ctx((800.0, 700.0), (100.0, 100.0))));
        // Honest neighbour at 120 ft.
        assert!(!leash.detects(&ctx((0.0, 0.0), (120.0, 0.0))));
        // Slack zone: 160 ft with 20 ft slack passes.
        assert!(!leash.detects(&ctx((0.0, 0.0), (160.0, 0.0))));
        assert!(leash.detects(&ctx((0.0, 0.0), (171.0, 0.0))));
    }

    #[test]
    fn geographic_leash_blind_to_lying_colluders() {
        // A colluding tunnel endpoint lies in the leash: geographic leashes
        // cannot catch that — the documented limitation that motivates the
        // filter's own distance pre-check.
        let leash = GeographicLeash {
            range_ft: 150.0,
            slack_ft: 0.0,
        };
        let lying = ctx((0.0, 0.0), (100.0, 0.0)); // claims nearby
        assert!(!leash.detects(&lying));
    }
}
