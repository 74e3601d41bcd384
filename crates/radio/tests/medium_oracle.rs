//! The cached `Medium` against the linear-scan reference medium of
//! `secloc-oracle`: same deliveries, same loss-RNG stream, same traffic
//! counters, transmit after transmit.

use secloc_crypto::{Key, NodeId};
use secloc_geometry::Point2;
use secloc_obs::MetricsRegistry;
use secloc_oracle::ReferenceMedium;
use secloc_radio::medium::{Medium, Tap};
use secloc_radio::{Cycles, Frame, FrameBody, RadioMetrics, RequestPayload};

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

/// A 12 × 12 grid of nodes with two wormhole taps between opposite
/// corners.
fn grid_positions() -> Vec<Point2> {
    let mut positions = Vec::new();
    for i in 0..12 {
        for j in 0..12 {
            positions.push(Point2::new(i as f64 * 60.0, j as f64 * 60.0));
        }
    }
    positions
}

const TAPS: [Tap; 2] = [
    Tap {
        capture_at: Point2::new(0.0, 0.0),
        capture_range: 120.0,
        replay_from: Point2::new(600.0, 600.0),
        extra_delay: Cycles::new(2_000),
    },
    Tap {
        capture_at: Point2::new(600.0, 600.0),
        capture_range: 120.0,
        replay_from: Point2::new(0.0, 0.0),
        extra_delay: Cycles::new(2_000),
    },
];

fn tapped_grid_medium(loss: f64, seed: u64) -> Medium {
    let mut m = Medium::new(grid_positions(), 150.0, loss, seed);
    for tap in TAPS {
        m.add_tap(tap);
    }
    m
}

fn tapped_grid_reference(loss: f64, seed: u64, metrics: Option<RadioMetrics>) -> ReferenceMedium {
    let mut m = ReferenceMedium::new(grid_positions(), 150.0, loss, seed, metrics);
    for tap in TAPS {
        m.add_tap(tap);
    }
    m
}

#[test]
fn transmit_into_matches_reference_bit_for_bit() {
    // Two same-seeded media, one driven through the cached path and one
    // through the reference scan. Every delivery list and the RNG stream
    // position must agree transmit after transmit — with loss enabled so a
    // single extra/missing/misordered draw anywhere desynchronizes
    // everything after it.
    for loss in [0.0, 0.3] {
        let mut cached = tapped_grid_medium(loss, 42);
        let mut reference = tapped_grid_reference(loss, 42, None);
        let mut out = Vec::new();
        for round in 0..3u32 {
            for sender in 0..cached.len() {
                let f = request_frame(sender as u32, 0);
                let at = Cycles::new(u64::from(round) * 1_000_000);
                cached.transmit_into(sender, &f, at, &mut out);
                let expected = reference.transmit(sender, &f, at);
                assert_eq!(out, expected, "loss={loss} round={round} sender={sender}");
            }
        }
    }
}

#[test]
fn transmit_metrics_match_reference_totals() {
    let cached = {
        let registry = MetricsRegistry::new();
        let mut m = tapped_grid_medium(0.25, 7);
        m.attach_metrics(RadioMetrics::new(&registry));
        for sender in 0..m.len() {
            m.transmit(sender, &request_frame(sender as u32, 0), Cycles::ZERO);
        }
        registry.snapshot()
    };
    let reference = {
        let registry = MetricsRegistry::new();
        let mut m = tapped_grid_reference(0.25, 7, Some(RadioMetrics::new(&registry)));
        for sender in 0..grid_positions().len() {
            m.transmit(sender, &request_frame(sender as u32, 0), Cycles::ZERO);
        }
        registry.snapshot()
    };
    for counter in [
        "radio.frames.sent",
        "radio.frames.delivered",
        "radio.frames.dropped_range",
        "radio.frames.dropped_loss",
        "radio.frames.tap_replayed",
        "radio.ranging.requests",
    ] {
        assert_eq!(
            cached.counter(counter),
            reference.counter(counter),
            "{counter}"
        );
    }
}

#[test]
fn negative_coordinates_fall_back_to_linear_scan() {
    // Positions a Field can't host: the grid is skipped but the caches
    // still work and agree with the reference scan.
    let positions = vec![
        Point2::new(-100.0, -50.0),
        Point2::new(-20.0, -50.0),
        Point2::new(300.0, 40.0),
    ];
    let mut cached = Medium::new(positions.clone(), 150.0, 0.2, 5);
    let mut reference = ReferenceMedium::new(positions, 150.0, 0.2, 5, None);
    let f = request_frame(0, 1);
    for sender in 0..3 {
        for _ in 0..10 {
            assert_eq!(
                cached.transmit(sender, &f, Cycles::ZERO),
                reference.transmit(sender, &f, Cycles::ZERO),
            );
        }
    }
}
