//! The metric store: sharded atomic counters, `f64`-bit gauges,
//! fixed-bound histograms, and the logical tick clock — plus the two
//! deterministic exports (byte-stable JSON, Prometheus text).
//!
//! # Determinism
//!
//! Counters are sharded per thread so concurrent workers never contend,
//! and `u64` addition commutes: the snapshot value is the fixed-order
//! sum over shards, identical regardless of which worker incremented
//! which shard. Gauges are last-write-wins and only ever set from
//! serial control code. Histogram buckets are themselves counters.
//! Snapshots iterate [`Key::ALL`] — a fixed array — and serialize
//! through `BTreeMap`s, so two registries holding equal values render
//! byte-identical text with no dependence on insertion order, hash
//! seeds, or thread interleaving.

use crate::key::{Key, Kind, N_COUNTERS, N_GAUGES, N_HISTS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Number of counter shards. A small fixed power of two: enough to keep
/// the bench-visible contention negligible at the thread counts the
/// workspace uses (`DUAL_THREADS` ≤ 8 in every gate), cheap to sum.
const NUM_SHARDS: usize = 8;

/// Histogram bucket upper bounds: `2^0 .. 2^23` inclusive, plus an
/// implicit overflow bucket. Covers batch sizes, loop trip counts, and
/// logical-clock span widths with O(1) indexing via `leading_zeros`.
pub const HIST_BUCKETS: usize = 24;

/// Process-wide monotone source of shard ids; each new thread takes the
/// next id modulo [`NUM_SHARDS`].
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % NUM_SHARDS;
}

/// One fixed-bound histogram: cumulative-free raw bucket counts, a
/// wrapping sum, and a total count. All fields are atomics so parallel
/// observation is lock-free; wrapping arithmetic keeps the sum
/// well-defined (and deterministic) even if a pathological workload
/// overflows `u64`.
#[derive(Debug, Default)]
struct Hist {
    /// `buckets[i]` counts observations with `value <= 2^i`; the last
    /// extra slot counts everything larger.
    buckets: [AtomicU64; HIST_BUCKETS + 1],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Hist {
    fn observe(&self, value: u64) {
        let idx = bucket_index(value);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        // Wrapping add via fetch_add's inherent modular arithmetic.
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HIST_BUCKETS + 1];
        for (out, b) in buckets.iter_mut().zip(&self.buckets) {
            *out = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            sum: self.sum.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// Bucket index for a `u64` observation: bucket `i` holds values
/// `<= 2^i`, the final bucket holds the overflow.
#[must_use]
pub fn bucket_index(value: u64) -> usize {
    if value <= 1 {
        0
    } else {
        // ceil(log2(value)) for value >= 2; 2^i itself lands in bucket i.
        let ceil_log2 = 64 - (value - 1).leading_zeros() as usize;
        ceil_log2.min(HIST_BUCKETS)
    }
}

/// Upper bound of histogram bucket `i` (`2^i`); the overflow bucket has
/// no finite bound and renders as `+Inf` in Prometheus text.
#[must_use]
pub fn bucket_bound(i: usize) -> u64 {
    1u64 << i.min(63)
}

/// The metric store. Create one per scope that needs isolated numbers
/// (e.g. every `StreamEngine` owns one), or install a process-global
/// instance with [`crate::install_global`].
#[derive(Debug)]
pub struct Registry {
    /// `counters[shard][slot]`.
    counters: [[AtomicU64; N_COUNTERS]; NUM_SHARDS],
    /// Gauge `f64` values stored as raw bits.
    gauges: [AtomicU64; N_GAUGES],
    hists: [Hist; N_HISTS],
    clock: AtomicU64,
}

// Hand-written because `Default` is not derivable for atomic arrays
// past 32 slots; `N_COUNTERS` outgrew that when the topology vocabulary
// landed. `from_fn` keeps this zero-cost and slot-count agnostic.
impl Default for Registry {
    fn default() -> Self {
        Self {
            counters: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            gauges: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: std::array::from_fn(|_| Hist::default()),
            clock: AtomicU64::new(0),
        }
    }
}

impl Clone for Registry {
    fn clone(&self) -> Self {
        let fresh = Registry::default();
        for (dst_shard, src_shard) in fresh.counters.iter().zip(&self.counters) {
            for (dst, src) in dst_shard.iter().zip(src_shard) {
                dst.store(src.load(Ordering::Relaxed), Ordering::Relaxed);
            }
        }
        for (dst, src) in fresh.gauges.iter().zip(&self.gauges) {
            dst.store(src.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        for (dst, src) in fresh.hists.iter().zip(&self.hists) {
            for (db, sb) in dst.buckets.iter().zip(&src.buckets) {
                db.store(sb.load(Ordering::Relaxed), Ordering::Relaxed);
            }
            dst.sum
                .store(src.sum.load(Ordering::Relaxed), Ordering::Relaxed);
            dst.count
                .store(src.count.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        fresh
            .clock
            .store(self.clock.load(Ordering::Relaxed), Ordering::Relaxed);
        fresh
    }
}

impl Registry {
    /// A fresh, all-zero registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment a counter key by `by` on the calling thread's shard.
    ///
    /// Non-counter keys are ignored (callers go through [`crate::Obs`],
    /// which routes by kind; this keeps the hot path branch-free).
    pub fn add(&self, key: Key, by: u64) {
        if let (Kind::Counter, slot) = key.slot() {
            SHARD.with(|&s| {
                self.counters[s][slot].fetch_add(by, Ordering::Relaxed);
            });
        }
    }

    /// Set a gauge key to an `f64` value (last write wins).
    pub fn gauge(&self, key: Key, value: f64) {
        if let (Kind::Gauge, slot) = key.slot() {
            self.gauges[slot].store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// Observe a `u64` value into a histogram key.
    pub fn observe(&self, key: Key, value: u64) {
        if let (Kind::Histogram, slot) = key.slot() {
            self.hists[slot].observe(value);
        }
    }

    /// Advance the logical clock by `ticks` and return the new time.
    pub fn tick(&self, ticks: u64) -> u64 {
        self.clock.fetch_add(ticks, Ordering::Relaxed) + ticks
    }

    /// Overwrite a histogram key's buckets and moments from a snapshot —
    /// the snapshot-restore path. Counters and gauges restore through
    /// [`Registry::add`]/[`Registry::gauge`] on a fresh registry;
    /// histograms need this store because bucket state is otherwise
    /// only reachable one observation at a time.
    pub fn restore_histogram(&self, key: Key, snap: &HistogramSnapshot) {
        if let (Kind::Histogram, slot) = key.slot() {
            let h = &self.hists[slot];
            for (dst, &src) in h.buckets.iter().zip(&snap.buckets) {
                dst.store(src, Ordering::Relaxed);
            }
            h.sum.store(snap.sum, Ordering::Relaxed);
            h.count.store(snap.count, Ordering::Relaxed);
        }
    }

    /// Current logical time.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    /// Current value of a counter key (fixed-order sum over shards);
    /// `0` for non-counter keys.
    #[must_use]
    pub fn counter(&self, key: Key) -> u64 {
        match key.slot() {
            (Kind::Counter, slot) => self
                .counters
                .iter()
                .map(|shard| shard[slot].load(Ordering::Relaxed))
                .fold(0u64, u64::wrapping_add),
            _ => 0,
        }
    }

    /// Current value of a gauge key; `0.0` for non-gauge keys.
    #[must_use]
    pub fn gauge_value(&self, key: Key) -> f64 {
        match key.slot() {
            (Kind::Gauge, slot) => f64::from_bits(self.gauges[slot].load(Ordering::Relaxed)),
            _ => 0.0,
        }
    }

    /// Snapshot of a histogram key; all-zero for non-histogram keys.
    #[must_use]
    pub fn histogram(&self, key: Key) -> HistogramSnapshot {
        match key.slot() {
            (Kind::Histogram, slot) => self.hists[slot].snapshot(),
            _ => HistogramSnapshot::default(),
        }
    }

    /// Full point-in-time snapshot over every key.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn snapshot(&self) -> Snapshot {
        self.snapshot_filtered(|_| true)
    }

    /// Snapshot restricted to [`Key::stable`] keys — the byte-stable
    /// artifact `ci.sh` diffs across runs and thread counts.
    #[must_use]
    pub fn stable_snapshot(&self) -> Snapshot {
        self.snapshot_filtered(Key::stable)
    }

    fn snapshot_filtered(&self, keep: impl Fn(Key) -> bool) -> Snapshot {
        let mut counters = BTreeMap::new();
        let mut gauges = BTreeMap::new();
        let mut histograms = BTreeMap::new();
        for key in Key::ALL {
            if !keep(key) {
                continue;
            }
            match key.kind() {
                Kind::Counter => {
                    counters.insert(key.name(), self.counter(key));
                }
                Kind::Gauge => {
                    gauges.insert(key.name(), self.gauge_value(key));
                }
                Kind::Histogram => {
                    histograms.insert(key.name(), self.histogram(key));
                }
            }
        }
        Snapshot {
            clock: self.now(),
            counters,
            gauges,
            histograms,
        }
    }

    /// Render every metric as Prometheus text exposition format.
    /// Includes unstable keys — this is the live-endpoint view, not the
    /// diffed artifact.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for key in Key::ALL {
            let metric = prometheus_name(key.name());
            match key.kind() {
                Kind::Counter => {
                    let _ = writeln!(out, "# TYPE dual_{metric}_total counter");
                    let _ = writeln!(out, "dual_{metric}_total {}", self.counter(key));
                }
                Kind::Gauge => {
                    let _ = writeln!(out, "# TYPE dual_{metric} gauge");
                    let _ = writeln!(out, "dual_{metric} {}", self.gauge_value(key));
                }
                Kind::Histogram => {
                    let h = self.histogram(key);
                    let _ = writeln!(out, "# TYPE dual_{metric} histogram");
                    let mut cum = 0u64;
                    for (i, &b) in h.buckets.iter().enumerate().take(HIST_BUCKETS) {
                        cum = cum.wrapping_add(b);
                        let _ = writeln!(
                            out,
                            "dual_{metric}_bucket{{le=\"{}\"}} {cum}",
                            bucket_bound(i)
                        );
                    }
                    let _ = writeln!(out, "dual_{metric}_bucket{{le=\"+Inf\"}} {}", h.count);
                    let _ = writeln!(out, "dual_{metric}_sum {}", h.sum);
                    let _ = writeln!(out, "dual_{metric}_count {}", h.count);
                }
            }
        }
        out
    }
}

fn prometheus_name(dotted: &str) -> String {
    dotted.replace('.', "_")
}

/// Render several registries as one Prometheus text document, each
/// sample labeled `{<label>="<name>"}` — the multi-tenant parity of
/// [`Snapshot::to_json_namespaced`]. Every metric gets exactly one
/// `# TYPE` line followed by one sample (or bucket series) per
/// registry, in the caller's order; pass streams sorted by name for a
/// byte-stable document. Histogram buckets carry the stream label
/// first, then `le`.
#[must_use]
pub fn to_prometheus_merged(label: &str, registries: &[(&str, &Registry)]) -> String {
    let mut out = String::new();
    for key in Key::ALL {
        let metric = prometheus_name(key.name());
        match key.kind() {
            Kind::Counter => {
                let _ = writeln!(out, "# TYPE dual_{metric}_total counter");
                for (name, reg) in registries {
                    let _ = writeln!(
                        out,
                        "dual_{metric}_total{{{label}=\"{name}\"}} {}",
                        reg.counter(key)
                    );
                }
            }
            Kind::Gauge => {
                let _ = writeln!(out, "# TYPE dual_{metric} gauge");
                for (name, reg) in registries {
                    let _ = writeln!(
                        out,
                        "dual_{metric}{{{label}=\"{name}\"}} {}",
                        reg.gauge_value(key)
                    );
                }
            }
            Kind::Histogram => {
                let _ = writeln!(out, "# TYPE dual_{metric} histogram");
                for (name, reg) in registries {
                    let h = reg.histogram(key);
                    let mut cum = 0u64;
                    for (i, &b) in h.buckets.iter().enumerate().take(HIST_BUCKETS) {
                        cum = cum.wrapping_add(b);
                        let _ = writeln!(
                            out,
                            "dual_{metric}_bucket{{{label}=\"{name}\",le=\"{}\"}} {cum}",
                            bucket_bound(i)
                        );
                    }
                    let _ = writeln!(
                        out,
                        "dual_{metric}_bucket{{{label}=\"{name}\",le=\"+Inf\"}} {}",
                        h.count
                    );
                    let _ = writeln!(out, "dual_{metric}_sum{{{label}=\"{name}\"}} {}", h.sum);
                    let _ = writeln!(out, "dual_{metric}_count{{{label}=\"{name}\"}} {}", h.count);
                }
            }
        }
    }
    out
}

/// Point-in-time values for one histogram.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Raw (non-cumulative) per-bucket counts; index [`HIST_BUCKETS`]
    /// is the overflow bucket.
    pub buckets: [u64; HIST_BUCKETS + 1],
    /// Wrapping sum of all observed values.
    pub sum: u64,
    /// Total number of observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Cumulative bucket counts (Prometheus `le` semantics): entry `i`
    /// counts observations `<= 2^i`; the final entry equals
    /// [`Self::count`].
    #[must_use]
    pub fn cumulative(&self) -> [u64; HIST_BUCKETS + 1] {
        let mut out = [0u64; HIST_BUCKETS + 1];
        let mut acc = 0u64;
        for (o, &b) in out.iter_mut().zip(&self.buckets) {
            acc = acc.wrapping_add(b);
            *o = acc;
        }
        out
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0 ..= 1.0`): the
    /// bound of the first bucket whose cumulative count reaches rank
    /// `ceil(q * count)`. Exact at bucket granularity (powers of two),
    /// fully deterministic, `0` for an empty histogram, and
    /// `u64::MAX` when the rank lands in the overflow bucket.
    #[must_use]
    #[expect(
        clippy::cast_precision_loss,
        clippy::cast_sign_loss,
        clippy::cast_possible_truncation,
        reason = "q is clamped to [0, 1], so the rank is a non-negative count no larger than `self.count`"
    )]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        for (i, &cum) in self.cumulative().iter().enumerate() {
            if cum >= rank {
                return if i == HIST_BUCKETS {
                    u64::MAX
                } else {
                    bucket_bound(i)
                };
            }
        }
        u64::MAX
    }

    /// The `(p50, p95, p99)` summary triple the report binaries embed.
    #[must_use]
    pub fn summary_quantiles(&self) -> (u64, u64, u64) {
        (
            self.quantile(0.50),
            self.quantile(0.95),
            self.quantile(0.99),
        )
    }
}

/// A merged, ordered view of a registry at one instant. Field order and
/// formatting are fixed, so equal values always serialize to equal
/// bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Logical-clock reading at snapshot time.
    pub clock: u64,
    /// Counter values by canonical name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Gauge values by canonical name.
    pub gauges: BTreeMap<&'static str, f64>,
    /// Histogram snapshots by canonical name.
    pub histograms: BTreeMap<&'static str, HistogramSnapshot>,
}

impl Snapshot {
    /// Byte-stable compact JSON. Keys render in `BTreeMap` (lexical)
    /// order; floats use Rust's shortest-roundtrip `Display`, which is
    /// deterministic across platforms; no wall-clock field exists.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.to_json_namespaced("")
    }

    /// [`Snapshot::to_json`] with every metric name prefixed by
    /// `namespace` — the multi-tenant export: a topology renders each
    /// tenant's registry under `tenant.<name>.` so one merged document
    /// carries every tenant's metrics without key collisions. The
    /// prefix participates in the lexical key order exactly as written
    /// (pass a trailing dot yourself: `"tenant.alice."`).
    #[must_use]
    pub fn to_json_namespaced(&self, namespace: &str) -> String {
        let mut out = String::new();
        out.push_str("{\"clock\":");
        let _ = write!(out, "{}", self.clock);
        out.push_str(",\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{namespace}{name}\":{v}");
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{namespace}{name}\":{}", json_f64(*v));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{namespace}{name}\":{{\"count\":{},\"sum\":{},\"buckets\":[",
                h.count, h.sum
            );
            for (j, b) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{b}");
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }
}

/// JSON-safe float rendering, shared by every byte-stable exporter:
/// finite values use shortest-roundtrip `Display` (with a `.0` suffix
/// for integral values so the token stays a float), non-finite values
/// become `null`.
#[must_use]
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') || s.contains('E') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::{OpFamily, Stage};

    #[test]
    fn bucket_index_is_ceil_log2_with_overflow() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1 << 23), 23);
        assert_eq!(bucket_index((1 << 23) + 1), HIST_BUCKETS);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS);
    }

    #[test]
    fn counters_sum_over_shards() {
        let r = Registry::new();
        r.add(Key::HdcEncoded, 3);
        r.add(Key::HdcEncoded, 4);
        assert_eq!(r.counter(Key::HdcEncoded), 7);
        // Wrong-kind routing is a no-op, not a crash.
        r.add(Key::PimTimeNs, 1);
        assert_eq!(r.gauge_value(Key::PimTimeNs), 0.0);
    }

    #[test]
    fn gauges_are_last_write_wins() {
        let r = Registry::new();
        r.gauge(Key::PimEnergyPj, 1.5);
        r.gauge(Key::PimEnergyPj, 2.25);
        assert_eq!(r.gauge_value(Key::PimEnergyPj).to_bits(), 2.25f64.to_bits());
    }

    #[test]
    fn histogram_counts_and_cumulative_agree() {
        let r = Registry::new();
        for v in [0u64, 1, 2, 16, 1 << 23, u64::MAX] {
            r.observe(Key::StreamBatchPoints, v);
        }
        let h = r.histogram(Key::StreamBatchPoints);
        assert_eq!(h.count, 6);
        assert_eq!(h.buckets.iter().sum::<u64>(), 6);
        let cum = h.cumulative();
        assert_eq!(cum[HIST_BUCKETS], h.count);
        assert!(cum.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn clock_ticks_monotonically() {
        let r = Registry::new();
        assert_eq!(r.now(), 0);
        assert_eq!(r.tick(3), 3);
        assert_eq!(r.tick(2), 5);
        assert_eq!(r.now(), 5);
    }

    #[test]
    fn equal_values_render_equal_bytes() {
        let a = Registry::new();
        let b = Registry::new();
        for r in [&a, &b] {
            r.add(Key::KmeansIterations, 9);
            r.gauge(Key::PimTimeNs, 123.456);
            r.observe(Key::SpanKmeansFit, 9);
            r.tick(9);
        }
        assert_eq!(a.snapshot().to_json(), b.snapshot().to_json());
        assert_eq!(a.to_prometheus(), b.to_prometheus());
        assert_eq!(a.stable_snapshot(), b.stable_snapshot());
    }

    #[test]
    fn stable_snapshot_excludes_unstable_keys() {
        let r = Registry::new();
        r.add(Key::HdcTopKPushes, 5);
        r.add(Key::PoolTasks, 5);
        r.observe(Key::BenchWallNs, 5);
        let stable = r.stable_snapshot();
        assert!(!stable.counters.contains_key("hdc.search.topk_pushes"));
        assert!(!stable.counters.contains_key("pool.tasks_spawned"));
        assert!(!stable.histograms.contains_key("bench.wall_ns"));
        // ...but the full snapshot and Prometheus render keep them.
        let full = r.snapshot();
        assert_eq!(full.counters["hdc.search.topk_pushes"], 5);
        assert!(r
            .to_prometheus()
            .contains("dual_hdc_search_topk_pushes_total 5"));
    }

    #[test]
    fn clone_copies_values() {
        let r = Registry::new();
        r.add(Key::StreamIngested, 11);
        r.gauge(Key::PimTimeNs, 7.0);
        r.observe(Key::StreamBatchPoints, 3);
        r.tick(4);
        let c = r.clone();
        assert_eq!(c.snapshot(), r.snapshot());
        // Cloned storage is independent.
        c.add(Key::StreamIngested, 1);
        assert_eq!(r.counter(Key::StreamIngested), 11);
        assert_eq!(c.counter(Key::StreamIngested), 12);
    }

    #[test]
    fn json_floats_are_tokens_not_strings() {
        let r = Registry::new();
        r.gauge(Key::PimTimeNs, 2.0);
        r.gauge(Key::PimEnergyPj, 0.125);
        let json = r.snapshot().to_json();
        assert!(json.contains("\"pim.time_ns\":2.0"));
        assert!(json.contains("\"pim.energy_pj\":0.125"));
        assert!(json.ends_with("}}"));
    }

    #[test]
    fn json_f64_keeps_floats_floats_and_nulls_non_finite() {
        assert_eq!(json_f64(2.0), "2.0");
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(0.25), "0.25");
    }

    #[test]
    fn namespaced_json_prefixes_every_metric_name() {
        let r = Registry::new();
        r.add(Key::StreamIngested, 4);
        r.gauge(Key::PimTimeNs, 2.0);
        r.observe(Key::StreamBatchPoints, 3);
        r.tick(7);
        let snap = r.snapshot();
        let json = snap.to_json_namespaced("tenant.alice.");
        assert!(json.contains("\"tenant.alice.stream.ingested\":4"));
        assert!(json.contains("\"tenant.alice.pim.time_ns\":2.0"));
        assert!(json.contains("\"tenant.alice.stream.batch_points\""));
        // The clock is structural, not a metric name — never prefixed.
        assert!(json.starts_with("{\"clock\":7,"));
        // Empty prefix is the plain render.
        assert_eq!(snap.to_json_namespaced(""), snap.to_json());
    }

    #[test]
    fn prometheus_buckets_are_cumulative_and_end_at_inf() {
        let r = Registry::new();
        r.observe(Key::SpanKmeansFit, 1);
        r.observe(Key::SpanKmeansFit, 100);
        let text = r.to_prometheus();
        assert!(text.contains("dual_span_kmeans_fit_bucket{le=\"1\"} 1"));
        assert!(text.contains("dual_span_kmeans_fit_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("dual_span_kmeans_fit_count 2"));
        assert!(text.contains("dual_span_kmeans_fit_sum 101"));
    }

    #[test]
    fn quantiles_pick_the_covering_bucket_bound() {
        let h = HistogramSnapshot::default();
        assert_eq!(h.quantile(0.5), 0, "empty histogram");

        let r = Registry::new();
        // 90 observations of 1, 9 of 100 (bucket bound 128), 1 of
        // 10_000 (bound 16384): ranks land exactly where expected.
        for _ in 0..90 {
            r.observe(Key::StreamBatchPoints, 1);
        }
        for _ in 0..9 {
            r.observe(Key::StreamBatchPoints, 100);
        }
        r.observe(Key::StreamBatchPoints, 10_000);
        let h = r.histogram(Key::StreamBatchPoints);
        assert_eq!(h.summary_quantiles(), (1, 128, 128));
        assert_eq!(h.quantile(1.0), 16_384);
        assert_eq!(h.quantile(0.0), 1, "q=0 clamps to rank 1");
    }

    #[test]
    fn quantile_overflow_bucket_saturates() {
        let r = Registry::new();
        r.observe(Key::StreamBatchPoints, u64::MAX);
        let h = r.histogram(Key::StreamBatchPoints);
        assert_eq!(h.quantile(0.5), u64::MAX);
    }

    #[test]
    fn merged_prometheus_labels_every_sample_once_per_stream() {
        let a = Registry::new();
        let b = Registry::new();
        a.add(Key::StreamIngested, 5);
        b.add(Key::StreamIngested, 7);
        b.observe(Key::StreamBatchPoints, 3);
        let text = to_prometheus_merged("tenant", &[("atlas", &a), ("bravo", &b)]);
        // One TYPE line per key, one sample per stream, label first.
        assert_eq!(
            text.matches("# TYPE dual_stream_ingested_total counter")
                .count(),
            1
        );
        assert!(text.contains("dual_stream_ingested_total{tenant=\"atlas\"} 5"));
        assert!(text.contains("dual_stream_ingested_total{tenant=\"bravo\"} 7"));
        assert!(text.contains("dual_stream_batch_points_bucket{tenant=\"bravo\",le=\"4\"} 1"));
        assert!(text.contains("dual_stream_batch_points_count{tenant=\"atlas\"} 0"));
        let types = text.lines().filter(|l| l.starts_with("# TYPE")).count();
        assert_eq!(types, Key::ALL.len(), "exactly one TYPE line per key");
    }

    // Keep the shared-vocabulary types referenced from this module's
    // tests so the import list above stays honest.
    #[test]
    fn stage_and_family_are_reexported_through_keys() {
        assert_eq!(Key::PhaseTimeNs(Stage::Encoding).kind(), Kind::Gauge);
        assert_eq!(Key::PimOpIssues(OpFamily::Add).kind(), Kind::Gauge);
    }
}
