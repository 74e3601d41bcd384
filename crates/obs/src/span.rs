//! Wall-clock phase timing.

use crate::Obs;
use std::time::Instant;

/// A plain wall-clock stopwatch.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Elapsed nanoseconds since start (saturating at `u64::MAX`).
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Stopwatch::start()
    }
}

/// A timing guard tied to an [`Obs`]: created by [`Obs::span`], it records
/// its elapsed time — into histogram `span.<name>.ns` and as a `span` event —
/// when finished or dropped. On a facade with neither a registry nor a sink
/// the guard is inert: it keeps no name and reads no clock.
#[derive(Debug)]
pub struct Span<'a> {
    obs: &'a Obs,
    /// The name and the clock, kept only while something records them.
    live: Option<(String, Stopwatch)>,
}

impl<'a> Span<'a> {
    pub(crate) fn enter(obs: &'a Obs, name: &str) -> Self {
        Span {
            obs,
            live: obs
                .enabled()
                .then(|| (name.to_string(), Stopwatch::start())),
        }
    }

    /// Elapsed nanoseconds so far, without ending the span (0 on an inert
    /// span).
    pub fn elapsed_ns(&self) -> u64 {
        self.live
            .as_ref()
            .map_or(0, |(_, watch)| watch.elapsed_ns())
    }

    /// Ends the span, recording its duration, and returns elapsed nanos (0
    /// on an inert span).
    pub fn finish(mut self) -> u64 {
        self.record()
    }

    /// Records the span once and returns its duration.
    fn record(&mut self) -> u64 {
        let Some((name, watch)) = self.live.take() else {
            return 0;
        };
        let nanos = watch.elapsed_ns();
        self.obs.record_span(&name, nanos);
        nanos
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.record();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_advances() {
        let w = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(w.elapsed_ns() >= 1_000_000);
    }

    #[test]
    fn finish_records_exactly_once() {
        use crate::{MemorySink, Obs};
        use std::sync::Arc;
        let sink = Arc::new(MemorySink::new());
        let obs = Obs::with_sink(sink.clone());
        let span = obs.span("once");
        let nanos = span.finish();
        assert!(nanos > 0);
        assert_eq!(sink.len(), 1, "finish must not double-record on drop");
    }

    #[test]
    fn a_span_on_a_disabled_facade_is_inert() {
        let obs = Obs::disabled();
        let span = obs.span("nothing");
        assert!(span.live.is_none(), "no name kept, no clock read");
        assert_eq!(span.elapsed_ns(), 0);
        assert_eq!(span.finish(), 0);
    }
}
