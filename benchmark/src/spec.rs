//! The four workloads, their sizes, and the metric tables.
//!
//! Sizes are fixed point counts per *pass*. A run repeats whole passes
//! (fresh system, same input) until `--seconds` has elapsed, so every
//! count, digest and simulated cost repeats exactly from pass to pass
//! and from run to run, while the host-time metrics are medians over
//! passes. README.md records why each workload exists and which layer
//! it is expected to stress.

use crate::gen::Mixture;

/// Workload names, in suite order.
pub const WORKLOADS: [&str; 4] = [
    "stream_wide",
    "stream_codebook",
    "topo_resilient",
    "batch_offline",
];

/// Tenants of `topo_resilient`, in registration (= lane) order.
pub const TENANTS: [&str; 3] = ["t0", "t1", "t2"];

/// Seed of every product encoder. Product configuration, not workload
/// input: `--seed` changes the points only.
pub const ENCODER_SEED: u64 = 0x5eed;

/// End-to-end metrics `(name, unit)`, measured with tracing off. Every
/// workload reports every one of them.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("points_per_s", "1/s"),
    ("commit_latency_ms_p50", "ms"),
    ("commit_latency_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("cluster_accuracy", "ratio"),
    ("sim_energy_pj_per_point", "pJ/point"),
    ("sim_time_ns_per_point", "sim-ns/point"),
];

/// Per-layer metrics `(name, unit)`, from the traced run. A workload
/// that does not exercise a layer reports `0` for it.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("hdc.encode.ns_per_point", "ns"),
    ("hdc.project.ns_per_point", "ns"),
    ("hdc.encode.base_bytes_per_point", "B"),
    ("hdc.mapper_build_ms", "ms"),
    ("hdc.search.ns_per_point", "ns"),
    ("hdc.search.popcount_words_per_point", "count"),
    ("stream.online.update_ns_per_point", "ns"),
    ("stream.online.rebinarized_per_batch", "count"),
    ("stream.ingest.ns_per_point", "ns"),
    ("stream.push.ns_p50", "ns"),
    ("stream.push.ns_p99", "ns"),
    ("stream.tick.ms_p50", "ms"),
    ("stream.tick.ms_p90", "ms"),
    ("stream.drain.ms", "ms"),
    ("stream.batches", "count"),
    ("stream.inline_flushes", "count"),
    ("stream.size_cuts", "count"),
    ("stream.deadline_cuts", "count"),
    ("stream.engine.residual_ns_per_point", "ns"),
    ("pim.meter.ns_per_batch", "ns"),
    ("obs.add_ns", "ns"),
    ("obs.export_us", "us"),
    ("obs.prometheus_us", "us"),
    ("trace.span_ns", "ns"),
    ("trace.export_us", "us"),
    ("trace.share", "ratio"),
    ("snap.checkpoint_ms", "ms"),
    ("snap.restore_ms", "ms"),
    ("snap.bytes", "B"),
    ("snap.share", "ratio"),
    ("fault.read_bit_ns", "ns"),
    ("fault.share", "ratio"),
    ("fault.injected", "count"),
    ("fault.healed", "count"),
    ("topology.push.ns_p50", "ns"),
    ("topology.tick.ms_p50", "ms"),
    ("topology.deferred_ticks", "count"),
    ("core.encode_parallel.ns_per_point", "ns"),
    ("cluster.kmeans_s", "s"),
    ("cluster.kmeans_iters", "count"),
    ("cluster.kmeans_accuracy", "ratio"),
    ("cluster.kmeans_ns_per_point_iter", "ns"),
    ("cluster.pairwise_s", "s"),
    ("cluster.ward_s", "s"),
    ("cluster.dbscan_s", "s"),
    ("pool.encode_speedup_t2", "ratio"),
    ("bench.gen_s", "s"),
    ("bench.spans", "count"),
    ("bench.trace_overhead", "ratio"),
    ("bench.coverage", "ratio"),
    ("bench.passes", "count"),
];

/// Shape of one streaming engine (or tenant).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineSpec {
    /// Hypervector dimensionality `D`.
    pub dim: usize,
    /// Input features `m`.
    pub features: usize,
    /// HD-Mapper kernel bandwidth (≈ √m for unit-variance noise).
    pub sigma: f64,
    /// Clusters.
    pub k: usize,
    /// Sub-centroids per cluster.
    pub subs: usize,
    /// Micro-batch size; the driver ticks after this many pushes.
    pub max_batch: usize,
    /// Ingest ring capacity.
    pub capacity: usize,
    /// Forgetting factor.
    pub decay: f64,
    /// Write-ahead capture interval in ticks (`0` = off).
    pub snapshot_every: u64,
    /// Flight-recorder ring capacity (`0` = off).
    pub trace_capacity: usize,
}

impl EngineSpec {
    /// Sub-centroid slots.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.k * self.subs
    }
}

/// A single-engine streaming workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamSpec {
    /// Engine shape.
    pub engine: EngineSpec,
    /// Input distribution.
    pub mix: Mixture,
    /// Offered points per pass.
    pub points: usize,
    /// Held-out points scored after the first pass.
    pub heldout: usize,
}

/// The multi-tenant resilience workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopoSpec {
    /// Shape shared by the three tenants.
    pub engine: EngineSpec,
    /// Input distribution (each tenant draws its own stream).
    pub mix: Mixture,
    /// Offered points per tenant per pass.
    pub points_per_tenant: usize,
    /// Held-out points per tenant.
    pub heldout_per_tenant: usize,
    /// Whether tenants run with fault injection and full healing.
    pub faults: bool,
    /// `t1`'s energy quota per topology tick, picojoules: about 0.8 of
    /// what one of its batches costs (94 400 pJ), so after the first few
    /// ticks the scheduler defers it on nearly every tick and its
    /// points commit through the ring's inline flush instead, without
    /// loss.
    pub t1_quota_pj_per_tick: f64,
}

/// Fault plan rates of `topo_resilient`.
pub const STUCK_RATE: f64 = 1e-3;
/// See [`STUCK_RATE`].
pub const DEAD_ROW_RATE: f64 = 1e-3;
/// See [`STUCK_RATE`].
pub const FLIP_RATE: f64 = 5e-4;
/// Spare rows and re-reads of `HealingPolicy::Full`.
pub const SPARES: usize = 8;
/// See [`SPARES`].
pub const REREADS: u32 = 3;

/// The offline batch workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchSpec {
    /// Hypervector dimensionality `D`.
    pub dim: usize,
    /// Clusters.
    pub k: usize,
    /// Input distribution (stationary).
    pub mix: Mixture,
    /// Points encoded and clustered by k-means per pass.
    pub points: usize,
    /// Leading hypervectors also clustered by Ward linkage and DBSCAN.
    pub subset: usize,
    /// Lloyd iterations per k-means fit. A cap that always binds (see
    /// README.md): the iteration count to an exact fixpoint depends on
    /// the seed, and a throughput metric needs fixed work.
    pub kmeans_iters: usize,
    /// k-means fits with different initialisations; the one with the
    /// lowest inertia supplies the labels.
    pub kmeans_restarts: usize,
}

/// Full or `--quick` sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes recorded in `BENCHMARK.json`.
    Full,
    /// About 1 % of the points: a smoke run for `cargo test`.
    Quick,
}

impl Scale {
    fn points(self, full: usize, batch: usize) -> usize {
        match self {
            Self::Full => full,
            // Whole batches, and at least four of them so ticks, size
            // cuts and the drain all still happen.
            Self::Quick => (full / 100).div_ceil(batch).max(4) * batch,
        }
    }
}

/// `stream_wide`: the ROADMAP's headline shape, encode-bound.
#[must_use]
pub fn stream_wide(scale: Scale) -> StreamSpec {
    StreamSpec {
        engine: EngineSpec {
            dim: 4000,
            features: 784,
            sigma: 28.0,
            k: 10,
            subs: 1,
            max_batch: 64,
            capacity: 256,
            decay: 0.95,
            snapshot_every: 0,
            trace_capacity: 256,
        },
        mix: Mixture {
            features: 784,
            regimes: 10,
            separation: 1.2,
            drift: 0.1,
        },
        points: scale.points(512, 64),
        heldout: if scale == Scale::Full { 256 } else { 32 },
    }
}

/// `stream_codebook`: MEMHD-style 4 096-slot codebook, assign/update-bound.
#[must_use]
pub fn stream_codebook(scale: Scale) -> StreamSpec {
    StreamSpec {
        engine: EngineSpec {
            dim: 1024,
            features: 16,
            sigma: 4.0,
            k: 128,
            subs: 32,
            max_batch: 256,
            capacity: 1024,
            decay: 0.95,
            snapshot_every: 0,
            trace_capacity: 256,
        },
        mix: Mixture {
            features: 16,
            regimes: 128,
            separation: 2.0,
            drift: 0.3,
        },
        points: scale.points(7_680, 256),
        heldout: if scale == Scale::Full { 2_000 } else { 100 },
    }
}

/// `topo_resilient`: three small tenants with every resilience and
/// observability feature on.
#[must_use]
pub fn topo_resilient(scale: Scale) -> TopoSpec {
    TopoSpec {
        engine: EngineSpec {
            dim: 1024,
            features: 16,
            sigma: 4.0,
            k: 8,
            subs: 4,
            max_batch: 32,
            capacity: 128,
            decay: 0.95,
            snapshot_every: 1,
            trace_capacity: 256,
        },
        mix: Mixture {
            features: 16,
            regimes: 8,
            separation: 1.5,
            drift: 0.3,
        },
        points_per_tenant: scale.points(1_600, 32),
        heldout_per_tenant: if scale == Scale::Full { 1_000 } else { 64 },
        faults: true,
        t1_quota_pj_per_tick: 75_000.0,
    }
}

/// `batch_offline`: the paper's offline encode → k-means → Ward → DBSCAN.
#[must_use]
pub fn batch_offline(scale: Scale) -> BatchSpec {
    let quick = scale == Scale::Quick;
    BatchSpec {
        dim: 4000,
        k: 8,
        mix: Mixture {
            features: 16,
            regimes: 8,
            separation: 1.25,
            drift: 0.0,
        },
        points: if quick { 200 } else { 4_000 },
        subset: if quick { 100 } else { 1_000 },
        kmeans_iters: 4,
        kmeans_restarts: 6,
    }
}

/// Whether `name` is made only of `[A-Za-z0-9_.-]`, starts with a
/// letter or digit and is at most 64 bytes — the charset result files
/// and `BENCHMARK.json` allow for workload and metric names.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    let mut bytes = name.bytes();
    bytes.next().is_some_and(|b| b.is_ascii_alphanumeric())
        && name.len() <= 64
        && bytes.all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_stay_in_the_charset_and_are_unique() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|m| m.0))
            .chain(PER_LAYER.iter().map(|m| m.0));
        for name in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "duplicate {name}");
        }
        for bad in ["", "-x", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        for ok in ["a", "9", "a.b-c_d", &"x".repeat(64)] {
            assert!(valid_name(ok), "{ok:?}");
        }
    }

    #[test]
    fn quick_scale_keeps_whole_batches() {
        for (spec, batch) in [
            (stream_wide(Scale::Quick), 64),
            (stream_codebook(Scale::Quick), 256),
        ] {
            assert_eq!(spec.points % batch, 0);
            assert!(spec.points / batch >= 4);
        }
        let topo = topo_resilient(Scale::Quick);
        assert_eq!(topo.points_per_tenant % 32, 0);
        assert!(topo.points_per_tenant >= 128);
    }
}
