//! # dual-obs — deterministic in-tree observability
//!
//! A zero-dependency metrics registry (monotonic counters, gauges,
//! fixed-bound histograms) plus span-based tracing on a **logical tick
//! clock**, threaded through every hot path in the workspace.
//!
//! Three properties make this layer safe to leave enabled in a system
//! whose headline claim is bit-identical parallel results:
//!
//! 1. **No wall clock in library code.** Spans and phase attribution
//!    run on a logical `u64` tick clock advanced by the instrumented
//!    algorithms themselves. The only wall-clock source lives in
//!    [`WallClock`], behind this crate's one `clippy::disallowed_types` exemption, and is
//!    only ever constructed by bench binaries.
//! 2. **Deterministic merges.** Counters are sharded per thread and
//!    summed in fixed order; snapshots serialize through `BTreeMap`s
//!    over a closed [`Key`] vocabulary. Equal values ⇒ equal bytes.
//! 3. **Branch-on-null off state.** When no recorder is installed,
//!    [`Obs::global`] yields [`Obs::OFF`] and every instrumentation
//!    site reduces to one well-predicted null check.
//!
//! ## Quickstart
//!
//! ```
//! use dual_obs::{Key, Obs, Registry};
//!
//! let reg = Registry::new();
//! let obs = Obs::local(&reg);
//! for _ in 0..10 {
//!     obs.add(Key::KmeansIterations, 1);
//!     obs.tick(1);
//! }
//! obs.gauge(Key::PimEnergyPj, 42.5);
//! assert_eq!(reg.counter(Key::KmeansIterations), 10);
//! let json = reg.stable_snapshot().to_json();   // byte-stable
//! let prom = reg.to_prometheus();               // exposition text
//! assert!(json.contains("\"cluster.kmeans.iterations\":10"));
//! assert!(prom.contains("dual_cluster_kmeans_iterations_total 10"));
//! ```

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]
#![warn(missing_docs)]

mod key;
mod registry;
mod wall;

pub use key::{Key, Kind, OpFamily, Stage};
pub use registry::{
    bucket_bound, bucket_index, json_f64, to_prometheus_merged, HistogramSnapshot, Registry,
    Snapshot, HIST_BUCKETS,
};
pub use wall::WallClock;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Process-global registry storage. The separate `AtomicBool` fast-path
/// flag lets [`Obs::global`] skip the `OnceLock` acquire-load entirely
/// until something installs a recorder.
static GLOBAL: OnceLock<Registry> = OnceLock::new();
static INSTALLED: AtomicBool = AtomicBool::new(false);

/// Install the process-global registry and return it. Idempotent:
/// later calls return the same instance. Library code never calls
/// this — binaries and tests opt in.
pub fn install_global() -> &'static Registry {
    let reg = GLOBAL.get_or_init(Registry::new);
    INSTALLED.store(true, Ordering::Release);
    reg
}

/// The recording context every instrumentation site takes: either a
/// live registry or the null recorder. `Copy`, two words, free to pass
/// down call chains.
#[derive(Debug, Clone, Copy)]
pub struct Obs<'a>(Option<&'a Registry>);

impl Obs<'static> {
    /// The null recorder: every operation is a no-op after one branch.
    pub const OFF: Obs<'static> = Obs(None);

    /// The process-global recorder, or [`Obs::OFF`] when none has been
    /// installed. This is the default context for instrumentation
    /// sites that have no scoped registry in reach.
    #[must_use]
    pub fn global() -> Obs<'static> {
        if INSTALLED.load(Ordering::Acquire) {
            match GLOBAL.get() {
                Some(reg) => Obs(Some(reg)),
                None => Obs::OFF,
            }
        } else {
            Obs::OFF
        }
    }
}

impl<'a> Obs<'a> {
    /// A context recording into a caller-owned registry. Exact-equality
    /// tests use this to stay isolated from the process-global state.
    #[must_use]
    pub fn local(registry: &'a Registry) -> Obs<'a> {
        Obs(Some(registry))
    }

    /// Whether a recorder is attached. Sites that need extra work to
    /// *compute* a metric (rather than just bump one) gate on this.
    #[must_use]
    pub fn enabled(self) -> bool {
        self.0.is_some()
    }

    /// Increment a counter.
    #[inline]
    pub fn add(self, key: Key, by: u64) {
        if let Some(reg) = self.0 {
            reg.add(key, by);
        }
    }

    /// Set a gauge.
    #[inline]
    pub fn gauge(self, key: Key, value: f64) {
        if let Some(reg) = self.0 {
            reg.gauge(key, value);
        }
    }

    /// Observe a histogram value.
    #[inline]
    pub fn observe(self, key: Key, value: u64) {
        if let Some(reg) = self.0 {
            reg.observe(key, value);
        }
    }

    /// Advance the logical clock.
    #[inline]
    pub fn tick(self, ticks: u64) {
        if let Some(reg) = self.0 {
            reg.tick(ticks);
        }
    }

    /// Current logical time (0 when off).
    #[must_use]
    pub fn now(self) -> u64 {
        self.0.map_or(0, Registry::now)
    }

    /// Open a span that records the number of logical ticks elapsed
    /// between now and its drop into the histogram `key`.
    #[must_use]
    pub fn span(self, key: Key) -> Span<'a> {
        Span {
            obs: self,
            key,
            start: self.now(),
        }
    }
}

/// A drop guard measuring elapsed logical ticks into a histogram key.
///
/// The span brackets work that *itself* advances the clock (every
/// instrumented loop ticks once per iteration), so the recorded width
/// is a deterministic function of the workload — never of the
/// scheduler.
#[derive(Debug)]
pub struct Span<'a> {
    obs: Obs<'a>,
    key: Key,
    start: u64,
}

impl Span<'_> {
    /// Ticks elapsed since the span opened.
    #[must_use]
    pub fn elapsed(&self) -> u64 {
        self.obs.now().saturating_sub(self.start)
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if self.obs.enabled() {
            self.obs.observe(self.key, self.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_context_is_inert() {
        let obs = Obs::OFF;
        assert!(!obs.enabled());
        obs.add(Key::HdcEncoded, 1);
        obs.gauge(Key::PimTimeNs, 1.0);
        obs.observe(Key::SpanKmeansFit, 1);
        obs.tick(5);
        assert_eq!(obs.now(), 0);
        drop(obs.span(Key::SpanKmeansFit));
    }

    #[test]
    fn local_context_records() {
        let reg = Registry::new();
        let obs = Obs::local(&reg);
        assert!(obs.enabled());
        obs.add(Key::HdcEncoded, 2);
        assert_eq!(reg.counter(Key::HdcEncoded), 2);
    }

    #[test]
    fn span_measures_logical_ticks() {
        let reg = Registry::new();
        let obs = Obs::local(&reg);
        {
            let span = obs.span(Key::SpanKmeansFit);
            obs.tick(7);
            assert_eq!(span.elapsed(), 7);
        }
        let h = reg.histogram(Key::SpanKmeansFit);
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 7);
    }

    #[test]
    fn global_installs_idempotently() {
        // Before installation the global context may be OFF or already
        // installed by a sibling test; after installation it must be
        // live, and repeated installs return the same registry.
        let a = install_global() as *const Registry;
        let b = install_global() as *const Registry;
        assert_eq!(a, b);
        assert!(Obs::global().enabled());
    }
}
