//! Metric handles for the radio substrate.

use secloc_obs::{Counter, MetricsRegistry};

/// Counters for medium-level traffic (see `DESIGN.md` § Observability).
///
/// - `radio.frames.sent` — transmissions put on the air;
/// - `radio.frames.delivered` — per-receiver successful deliveries
///   (direct or via tap);
/// - `radio.frames.dropped_range` — receiver out of radio range;
/// - `radio.frames.dropped_loss` — receiver in range but the loss model
///   dropped the copy (the Bernoulli model folds collisions and noise into
///   one per-link loss rate);
/// - `radio.frames.tap_replayed` — deliveries that travelled through an
///   attacker tap (wormhole end or local replayer);
/// - `radio.ranging.requests` — transmitted frames carrying a ranging
///   request body.
#[derive(Debug, Clone)]
pub struct RadioMetrics {
    /// `radio.frames.sent`.
    pub frames_sent: Counter,
    /// `radio.frames.delivered`.
    pub frames_delivered: Counter,
    /// `radio.frames.dropped_range`.
    pub frames_dropped_range: Counter,
    /// `radio.frames.dropped_loss`.
    pub frames_dropped_loss: Counter,
    /// `radio.frames.tap_replayed`.
    pub frames_tap_replayed: Counter,
    /// `radio.ranging.requests`.
    pub ranging_requests: Counter,
}

impl RadioMetrics {
    /// Resolves the radio counters from `registry`.
    pub fn new(registry: &MetricsRegistry) -> Self {
        RadioMetrics {
            frames_sent: registry.counter("radio.frames.sent"),
            frames_delivered: registry.counter("radio.frames.delivered"),
            frames_dropped_range: registry.counter("radio.frames.dropped_range"),
            frames_dropped_loss: registry.counter("radio.frames.dropped_loss"),
            frames_tap_replayed: registry.counter("radio.frames.tap_replayed"),
            ranging_requests: registry.counter("radio.ranging.requests"),
        }
    }
}
