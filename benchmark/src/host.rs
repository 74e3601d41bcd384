//! Host-speed diagnostics. A shared VM can change speed between runs of
//! the same binary (other tenants, frequency scaling), so every run
//! records how fast a fixed calibration kernel ran and how much CPU the
//! hypervisor and the scheduler took away. These numbers are printed next
//! to the results to explain drift; they never rescale a metric.

use std::hint::black_box;
use std::time::Instant;

/// Times a fixed integer/float kernel that uses no repository code, in
/// milliseconds (about 1 ms on a 2020s x86 core).
pub fn calibrate_ms() -> f64 {
    let start = Instant::now();
    let mut x: u64 = black_box(0x9E37_79B9_7F4A_7C15);
    let mut acc = 0.0f64;
    for _ in 0..(1u32 << 18) {
        // xorshift64* plus a dependent float op, so neither the integer
        // nor the float pipeline can be skipped or vectorised away.
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let r = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
        acc = acc * 0.999_999 + (r >> 40) as f64;
    }
    black_box((x, acc));
    start.elapsed().as_secs_f64() * 1e3
}

/// Cumulative counters read at the start and end of a measurement.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostCounters {
    /// Steal ticks summed over all CPUs (`/proc/stat`, USER_HZ units).
    steal_ticks: Option<u64>,
    /// Nanoseconds this thread spent runnable but waiting for a CPU
    /// (`/proc/self/schedstat`).
    runq_wait_ns: Option<u64>,
}

impl HostCounters {
    pub fn read() -> Self {
        HostCounters {
            steal_ticks: std::fs::read_to_string("/proc/stat")
                .ok()
                .and_then(|s| parse_steal_ticks(&s)),
            runq_wait_ns: std::fs::read_to_string("/proc/self/schedstat")
                .ok()
                .and_then(|s| s.split_whitespace().nth(1)?.parse().ok()),
        }
    }

    /// Steal time between `self` and `later` in ms, assuming the usual
    /// USER_HZ of 100. `None` when the host does not expose it.
    pub fn steal_ms_until(&self, later: &HostCounters) -> Option<f64> {
        Some(later.steal_ticks?.saturating_sub(self.steal_ticks?) as f64 * 10.0)
    }

    /// Run-queue wait between `self` and `later` in ms.
    pub fn runq_wait_ms_until(&self, later: &HostCounters) -> Option<f64> {
        Some(later.runq_wait_ns?.saturating_sub(self.runq_wait_ns?) as f64 / 1e6)
    }
}

/// The steal column (8th value) of the aggregate `cpu` line.
fn parse_steal_ticks(proc_stat: &str) -> Option<u64> {
    let line = proc_stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_is_the_eighth_cpu_column() {
        let stat = "cpu  10 20 30 40 50 60 70 88 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n";
        assert_eq!(parse_steal_ticks(stat), Some(88));
        assert_eq!(parse_steal_ticks("intr 1 2 3"), None);
    }

    #[test]
    fn calibration_kernel_takes_measurable_time() {
        assert!(calibrate_ms() > 0.0);
    }
}
