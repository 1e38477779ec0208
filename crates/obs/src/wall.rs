//! The one audited wall-clock source in the workspace.
//!
//! Library code runs purely on the logical tick clock; benchmarks,
//! however, exist to measure real time. Rather than scatter timer reads
//! through bench code (and trip the workspace's `disallowed-types`
//! determinism wall tree-wide), this module confines every wall-clock
//! read to a single adapter behind one justified `#[expect]`. Bench
//! binaries construct a [`WallClock`], measure, and print the result or
//! feed it into the (unstable, never-diffed) `bench.wall_ns` histogram.

#![expect(
    clippy::disallowed_types,
    reason = "bench-only adapter: the single audited wall-clock source; its readings feed stdout \
              and the unstable bench.wall_ns histogram, never a diffed artifact"
)]

use crate::{Key, Obs};

/// A wall-clock stopwatch for bench binaries. **Not** for library
/// code: constructing one anywhere that feeds a stable snapshot
/// breaks the byte-stability contract.
#[derive(Debug)]
pub struct WallClock {
    start: std::time::Instant,
}

impl WallClock {
    /// Start a stopwatch.
    #[must_use]
    pub fn start() -> Self {
        Self {
            start: std::time::Instant::now(),
        }
    }

    /// Nanoseconds elapsed since [`WallClock::start`], saturating at
    /// `u64::MAX`.
    #[must_use]
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Seconds elapsed since [`WallClock::start`].
    #[must_use]
    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Record the elapsed nanoseconds into the unstable
    /// [`Key::BenchWallNs`] histogram and return them.
    pub fn record(&self, obs: Obs<'_>) -> u64 {
        let ns = self.elapsed_ns();
        obs.observe(Key::BenchWallNs, ns);
        ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn wall_clock_records_into_the_unstable_histogram() {
        let reg = Registry::new();
        let clock = WallClock::start();
        let ns = clock.record(Obs::local(&reg));
        let h = reg.histogram(Key::BenchWallNs);
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, ns);
        // The stable snapshot must never see it.
        assert!(!reg
            .stable_snapshot()
            .histograms
            .contains_key("bench.wall_ns"));
    }
}
