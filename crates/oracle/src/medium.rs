//! The linear-scan radio medium.

use rand::rngs::StdRng;
use rand::SeedableRng;
use secloc_geometry::Point2;
use secloc_radio::loss::{BernoulliLoss, LossModel};
use secloc_radio::medium::{Delivery, Tap};
use secloc_radio::{Cycles, Frame, FrameBody, RadioMetrics};

/// The pre-optimization transmit path of
/// [`Medium`](secloc_radio::medium::Medium): full linear scans over every
/// node per call, no caching.
///
/// Built from the same inputs and seed, it delivers what
/// `Medium::transmit_into` delivers and consumes the loss-RNG stream the
/// same way — one draw per in-range candidate, in ascending receiver
/// order, direct listeners first and then each capturing tap in
/// installation order — and counts the same traffic on the optional
/// [`RadioMetrics`].
#[derive(Debug)]
pub struct ReferenceMedium {
    positions: Vec<Point2>,
    range_ft: f64,
    loss: BernoulliLoss,
    taps: Vec<Tap>,
    rng: StdRng,
    metrics: Option<RadioMetrics>,
}

impl ReferenceMedium {
    /// A medium over static node positions, counting traffic on `metrics`
    /// when given.
    pub fn new(
        positions: Vec<Point2>,
        range_ft: f64,
        loss_rate: f64,
        seed: u64,
        metrics: Option<RadioMetrics>,
    ) -> Self {
        ReferenceMedium {
            positions,
            range_ft,
            loss: BernoulliLoss::new(loss_rate),
            taps: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            metrics,
        }
    }

    /// Installs an attacker tap (wormhole end or local replayer).
    pub fn add_tap(&mut self, tap: Tap) {
        self.taps.push(tap);
    }

    /// Transmits `frame` from node `sender` starting at `at` and returns
    /// every delivery, sorted by arrival time.
    ///
    /// # Panics
    ///
    /// Panics when `sender` is out of bounds.
    pub fn transmit(&mut self, sender: usize, frame: &Frame, at: Cycles) -> Vec<Delivery> {
        let src = self.positions[sender];
        let airtime = frame.transmission_time();
        let mut out = Vec::new();
        if let Some(m) = &self.metrics {
            m.frames_sent.incr();
            if matches!(frame.peek_body(), FrameBody::Request(_)) {
                m.ranging_requests.incr();
            }
        }

        // Direct deliveries.
        for (i, &pos) in self.positions.iter().enumerate() {
            if i == sender {
                continue;
            }
            let d = src.distance(pos);
            // The range check must stay ahead of the loss draw so that
            // attaching metrics never changes the RNG stream.
            if d > self.range_ft {
                if let Some(m) = &self.metrics {
                    m.frames_dropped_range.incr();
                }
                continue;
            }
            if self.loss.is_lost(&mut self.rng) {
                if let Some(m) = &self.metrics {
                    m.frames_dropped_loss.incr();
                }
                continue;
            }
            let prop = Cycles::new(Cycles::propagation_fractional(d).round() as u64);
            out.push(Delivery {
                receiver: i,
                frame: *frame,
                at: at + airtime + prop,
                via_tap: false,
            });
        }

        // Tap re-injections: a tap that hears the frame re-transmits it
        // after fully receiving it (store-and-forward) plus its tunnel
        // latency.
        let taps: Vec<Tap> = self
            .taps
            .iter()
            .copied()
            .filter(|t| src.distance(t.capture_at) <= t.capture_range)
            .collect();
        for tap in taps {
            let replay_start = at + airtime + tap.extra_delay;
            for (i, &pos) in self.positions.iter().enumerate() {
                if i == sender {
                    continue;
                }
                let d = tap.replay_from.distance(pos);
                if d > self.range_ft {
                    if let Some(m) = &self.metrics {
                        m.frames_dropped_range.incr();
                    }
                    continue;
                }
                if self.loss.is_lost(&mut self.rng) {
                    if let Some(m) = &self.metrics {
                        m.frames_dropped_loss.incr();
                    }
                    continue;
                }
                let prop = Cycles::new(Cycles::propagation_fractional(d).round() as u64);
                out.push(Delivery {
                    receiver: i,
                    frame: *frame,
                    at: replay_start + airtime + prop,
                    via_tap: true,
                });
            }
        }

        if let Some(m) = &self.metrics {
            m.frames_delivered.add(out.len() as u64);
            m.frames_tap_replayed
                .add(out.iter().filter(|d| d.via_tap).count() as u64);
        }
        out.sort_by_key(|d| (d.at, d.receiver));
        out
    }
}
