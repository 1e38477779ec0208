//! The tree's one wall-clock perf gate: the `dual-obs` metrics hooks
//! threaded through the hot kernels, and the streaming pipeline around
//! the encoder, must stay within fixed bounds of their bare paths.
//!
//! ```text
//! cargo run --release -p dual-bench --bin obs_overhead
//! ```
//!
//! A timing is the minimum of [`SAMPLES`] wall-clock samples (the
//! minimum is the standard noise-robust estimator for short
//! deterministic kernels). Each pair runs [`REPS`] rounds that time the
//! bare side, then the instrumented one:
//!
//! 1. **k-means fit** — `KMeans::fit` with no global registry installed
//!    (every site is a branch-on-null no-op) against
//!    `KMeans::fit_recorded` into a live local registry.
//! 2. **HD encode** — `HdMapper::encode` without and with
//!    [`dual_obs::install_global`]. Installation is irreversible, so
//!    each side runs in a child process of this binary, re-entered
//!    through the internal `--side base|instr` argument, which prints
//!    the side's timing.
//! 3. **Stream pipeline** — a full push/tick/drain pass with the
//!    flight recorder disabled (`trace_capacity = 0`) against the same
//!    pass with the recorder and two alert rules armed.
//! 4. **Pipeline over encode** — the full serial streaming pipeline
//!    against bare serial `encode_batch` of the same points in the same
//!    256-point batches, one sample per side and round.
//!
//! The bounds are constants; no flag or variable loosens them:
//!
//! * pairs 1–3: the instrumented minimum over every round is at most
//!   [`OVERHEAD_TOL`] over the bare one. While it is not, up to
//!   [`MAX_ROUNDS`] more rounds may lower both minima.
//! * pairs 1, 2 and 4: the median over the [`REPS`] rounds of the
//!   per-round ratio is at most its baseline × (1 + [`RATIO_TOL`]):
//!   [`KMEANS_BASELINE`], [`ENCODE_BASELINE`], [`PIPELINE_BASELINE`].
//!
//! Both sides of a pair run on one host in one run, so the ratios are
//! machine-normalized. Wall-clock enters only through the lint-audited
//! [`dual_obs::WallClock`] adapter, and nothing is written to
//! `results/`. A bound past its limit prints each failure and exits 1;
//! a bad command line exits 2.

use std::process::Command;

use dual_bench::{exit_failed, exit_usage};
use dual_cluster::KMeans;
use dual_data::DriftSpec;
use dual_hdc::{Encoder, HdMapper};
use dual_obs::{Key, WallClock};
use dual_stream::{StreamConfig, StreamEngine};
use dual_trace::{AlertRule, Signal};

/// Samples per timing.
const SAMPLES: usize = 5;
/// Rounds feeding the medians (odd: a true median).
const REPS: usize = 5;
/// Extra rounds to damp scheduler noise before declaring an overhead.
const MAX_ROUNDS: usize = 5;
/// Largest overhead of an instrumented minimum over its bare one.
const OVERHEAD_TOL: f64 = 0.03;
/// Headroom of a median ratio over its baseline.
const RATIO_TOL: f64 = 0.10;
/// Pair 1's baseline median instrumented/bare ratio.
const KMEANS_BASELINE: f64 = 1.0098;
/// Pair 2's baseline median instrumented/bare ratio.
const ENCODE_BASELINE: f64 = 1.0144;
/// Pair 4's baseline median pipeline/encode ratio.
const PIPELINE_BASELINE: f64 = 1.4081;

// Pair 4's workload: `stream_throughput`'s encoder and stream shape,
// over fewer points (enough work to dominate timer noise; the result
// is a ratio, not a throughput).
const FEATURES: usize = 16;
const CLUSTERS: usize = 8;
const DIM: usize = 512;
const TICK_EVERY: usize = 1536;
const PIPELINE_POINTS: usize = 24_000;
/// Micro-batch size of pair 4's engine, and of the bare
/// `encode_batch` calls it is divided by.
const PIPELINE_BATCH: usize = 256;

/// One wall-clock sample of `f`, in nanoseconds.
fn sample_ns(f: &mut impl FnMut()) -> u64 {
    let clock = WallClock::start();
    f();
    clock.elapsed_ns()
}

/// Minimum of `SAMPLES` samples of `f`.
fn min_ns(f: &mut impl FnMut()) -> u64 {
    (0..SAMPLES).map(|_| sample_ns(f)).min().unwrap_or(u64::MAX)
}

fn overhead(base: u64, instr: u64) -> f64 {
    instr as f64 / base.max(1) as f64 - 1.0
}

/// Median of an odd number of samples.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// A timed pair: each side's minimum over every round, and the median
/// of the per-round instrumented/bare ratios of the first [`REPS`].
struct Pair {
    base: u64,
    instr: u64,
    median: f64,
}

/// Time `base` then `instr` (each returns one timing, in ns) for
/// [`REPS`] rounds, then for up to [`MAX_ROUNDS`] more while the minima
/// stay more than [`OVERHEAD_TOL`] apart. Both minima may still drop
/// in those rounds.
fn interleaved(mut base: impl FnMut() -> u64, mut instr: impl FnMut() -> u64) -> Pair {
    let mut ratios = Vec::with_capacity(REPS);
    let (mut base_min, mut instr_min) = (u64::MAX, u64::MAX);
    for round in 0..REPS + MAX_ROUNDS {
        if round >= REPS && overhead(base_min, instr_min) <= OVERHEAD_TOL {
            break;
        }
        let (b, i) = (base(), instr());
        if round < REPS {
            ratios.push(i as f64 / b.max(1) as f64);
        }
        base_min = base_min.min(b);
        instr_min = instr_min.min(i);
    }
    Pair {
        base: base_min,
        instr: instr_min,
        median: median(ratios),
    }
}

fn report(name: &str, pair: &Pair) {
    println!(
        "  {name:<24} base={:>9}ns  instr={:>9}ns  overhead={:>+6.2}%  median ratio {:.4}",
        pair.base,
        pair.instr,
        overhead(pair.base, pair.instr) * 100.0,
        pair.median
    );
}

/// One failure per `(pair, base ns, instrumented ns)` whose overhead is
/// past [`OVERHEAD_TOL`].
fn over_tolerance(pairs: &[(&str, u64, u64)]) -> Vec<String> {
    pairs
        .iter()
        .filter(|&&(_, base, instr)| overhead(base, instr) > OVERHEAD_TOL)
        .map(|&(name, base, instr)| {
            format!(
                "{name} overhead {:+.2}% exceeds the {:.2}% tolerance",
                overhead(base, instr) * 100.0,
                OVERHEAD_TOL * 100.0
            )
        })
        .collect()
}

/// One failure per `(name, median ratio, baseline)` whose median is
/// past baseline × (1 + [`RATIO_TOL`]), compared unrounded.
fn past_baseline(medians: &[(&str, f64, f64)]) -> Vec<String> {
    medians
        .iter()
        .filter(|&&(_, got, baseline)| got > baseline * (1.0 + RATIO_TOL))
        .map(|&(name, got, baseline)| {
            format!(
                "{name} median ratio {got:.4} exceeds baseline {baseline:.4} × {:.2} = {:.4}",
                1.0 + RATIO_TOL,
                baseline * (1.0 + RATIO_TOL)
            )
        })
        .collect()
}

/// Which side of pair 2 a child process times.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Side {
    Base,
    Instr,
}

impl Side {
    fn arg(self) -> &'static str {
        match self {
            Side::Base => "base",
            Side::Instr => "instr",
        }
    }
}

/// Pair 2's side `side`, timed in this process: encoding 192 points at
/// D = 2000 × 64, after installing the global registry for
/// [`Side::Instr`].
fn encode_side_ns(side: Side) -> u64 {
    let global = (side == Side::Instr).then(dual_obs::install_global);
    // 192 points keep one sample near 10 ms now that the sign test no
    // longer pays a cosine per dimension; at 64 a sample was 3.4 ms and
    // scheduler noise alone read as 3 %.
    let mapper = HdMapper::new(2000, 64, 7).expect("valid");
    let feats: Vec<Vec<f64>> = (0..192)
        .map(|i| {
            (0..64)
                .map(|j| ((i * 64 + j) as f64 * 0.13).sin())
                .collect()
        })
        .collect();
    let mut encode_all = || {
        for f in &feats {
            std::hint::black_box(mapper.encode(f).expect("valid dims"));
        }
    };
    encode_all();
    let ns = min_ns(&mut encode_all);
    if let Some(global) = global {
        assert!(
            global.counter(Key::HdcEncoded) > 0,
            "installed registry must observe the encode loop"
        );
    }
    ns
}

/// Pair 2's side `side`, timed in a child process of this binary, so
/// the instrumented side's install never reaches the bare one.
fn encode_child_ns(side: Side) -> u64 {
    let exe = std::env::current_exe().expect("own executable path");
    let out = Command::new(exe)
        .args(["--side", side.arg()])
        .output()
        .expect("spawn a pair 2 side");
    assert!(
        out.status.success(),
        "pair 2 side `{}` failed: {}",
        side.arg(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .expect("a side prints its timing in ns")
}

/// Pair 4: wall time of the full serial streaming pipeline divided by
/// wall time of bare serial HD encoding of the same points, median of
/// [`REPS`] rounds. The denominator calls `encode_batch` on
/// [`PIPELINE_BATCH`]-point batches because that is what the engine's
/// encode stage calls: timing `encode` per point would set the tiled
/// pipeline against an untiled encoder and read below 1. Serial on
/// both sides (`threads = 1`) so the ratio is independent of
/// `DUAL_THREADS` and core count.
///
/// Also returns the median of the rounds' pipeline − encode time per
/// batch, in µs: what the pipeline adds around the encoder, which a
/// faster encoder leaves alone while the ratio rises.
fn pipeline_over_encode() -> (f64, f64) {
    let make_encoder = || {
        HdMapper::builder(DIM, FEATURES)
            .seed(7)
            .sigma(6.0)
            .build()
            .expect("valid encoder spec")
    };
    let mut spec = DriftSpec::new(FEATURES, CLUSTERS);
    spec.drift_rate = 1e-3;
    let stream: Vec<Vec<f64>> = spec
        .stream(42)
        .take(PIPELINE_POINTS)
        .map(|(p, _)| p)
        .collect();

    let batches = PIPELINE_POINTS.div_ceil(PIPELINE_BATCH) as f64;
    let (mut ratios, mut extra_us) = (Vec::with_capacity(REPS), Vec::with_capacity(REPS));
    for _ in 0..REPS {
        // Denominator: bare serial encode of every batch.
        let enc = make_encoder();
        let t0 = WallClock::start();
        for batch in stream.chunks(PIPELINE_BATCH) {
            std::hint::black_box(enc.encode_batch(batch).expect("well-shaped points"));
        }
        let t_encode = t0.elapsed_s();

        // Numerator: the full pipeline (ring -> batch -> encode ->
        // assign -> update -> meter) over the same points, serial.
        let mut cfg = StreamConfig::new(CLUSTERS);
        cfg.capacity = 1024;
        cfg.max_batch = PIPELINE_BATCH;
        cfg.max_ticks = 4;
        cfg.centroids_per_cluster = 2;
        cfg.decay = 0.95;
        cfg.threads = 1;
        let mut engine = StreamEngine::new(make_encoder(), cfg).expect("valid stream config");
        let t0 = WallClock::start();
        for (i, p) in stream.iter().enumerate() {
            engine.push(p).expect("well-shaped point");
            if (i + 1) % TICK_EVERY == 0 {
                engine.tick().expect("tick");
            }
        }
        engine.drain().expect("drain");
        let t_pipeline = t0.elapsed_s();
        ratios.push(t_pipeline / t_encode.max(1e-9));
        extra_us.push((t_pipeline - t_encode) / batches * 1e6);
    }
    (median(ratios), median(extra_us))
}

/// Parse the command line: empty runs the gate, the internal
/// `--side base|instr` times one side of pair 2.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Option<Side>, String> {
    let bad = |problem: &str| format!("obs_overhead: {problem}\nusage: obs_overhead");
    let mut args = args.into_iter();
    let Some(arg) = args.next() else {
        return Ok(None);
    };
    if arg != "--side" {
        return Err(bad(&format!("unknown argument `{arg}`")));
    }
    let side = match args.next().as_deref() {
        Some("base") => Side::Base,
        Some("instr") => Side::Instr,
        _ => return Err(bad("--side takes `base` or `instr`")),
    };
    match args.next() {
        None => Ok(Some(side)),
        Some(extra) => Err(bad(&format!("unknown argument `{extra}`"))),
    }
}

fn main() {
    if let Some(side) = parse_args(std::env::args().skip(1)).unwrap_or_else(exit_usage) {
        println!("{}", encode_side_ns(side));
        return;
    }
    println!(
        "obs_overhead: instrumented minima within {:.0}% of bare, median ratios within {:.0}% of baseline\n",
        OVERHEAD_TOL * 100.0,
        RATIO_TOL * 100.0
    );

    // ---- Pair 1: k-means (no-op global vs live local registry). ----
    let pts: Vec<Vec<f64>> = (0..2000)
        .map(|i| vec![(i % 37) as f64, (i % 11) as f64, (i % 5) as f64])
        .collect();
    let km = KMeans::new(8).expect("k > 0").max_iters(8).threads(1);
    let mut base_fit = || {
        std::hint::black_box(km.fit(&pts).expect("n >= k"));
    };
    // Warm up caches/allocator before the first timed sample.
    base_fit();
    let registry = dual_obs::Registry::new();
    let mut instr_fit = || {
        std::hint::black_box(km.fit_recorded(&pts, &registry).expect("n >= k"));
    };
    instr_fit();
    let kmeans = interleaved(|| min_ns(&mut base_fit), || min_ns(&mut instr_fit));
    report("kmeans_2000x3_k8", &kmeans);
    assert!(
        registry.counter(Key::KmeansIterations) > 0,
        "instrumented fit must actually record"
    );

    // ---- Pair 2: HD encode (one child process per side and round). ----
    let encode = interleaved(
        || encode_child_ns(Side::Base),
        || encode_child_ns(Side::Instr),
    );
    report("hdmapper_encode_2000x64", &encode);

    // ---- Pair 3: stream pipeline (recorder off vs recorder + alerts). ----
    let stream_enc = HdMapper::new(512, 8, 7).expect("valid");
    let stream_pts: Vec<Vec<f64>> = (0..512)
        .map(|i| (0..8).map(|j| ((i * 8 + j) as f64 * 0.17).sin()).collect())
        .collect();
    let run_stream = |trace: bool| {
        let mut cfg = StreamConfig::new(4);
        cfg.capacity = 1024;
        cfg.max_batch = 32;
        cfg.max_ticks = 4;
        cfg.shards = 2;
        cfg.trace_capacity = if trace { 256 } else { 0 };
        let mut engine = StreamEngine::new(stream_enc.clone(), cfg).expect("valid stream config");
        if trace {
            engine = engine
                .with_alerts(vec![
                    AlertRule::edge("backlog", Signal::Gauge(Key::StreamRingOccupancy), 16.0),
                    AlertRule::edge("ingest-burst", Signal::Delta(Key::StreamIngested), 48.0),
                ])
                .expect("valid alert rules");
        }
        for (i, p) in stream_pts.iter().enumerate() {
            engine.push(p).expect("well-shaped point");
            if (i + 1) % 64 == 0 {
                engine.tick().expect("tick");
            }
        }
        std::hint::black_box(engine.drain().expect("drain"));
    };
    let mut base_stream = || run_stream(false);
    let mut instr_stream = || run_stream(true);
    base_stream();
    instr_stream();
    let stream = interleaved(|| min_ns(&mut base_stream), || min_ns(&mut instr_stream));
    report("stream_512x8_recorder", &stream);

    // ---- Pair 4: serial pipeline over bare serial encode. ----
    let (pipeline, extra_us) = pipeline_over_encode();
    println!(
        "  {:<24} median ratio {pipeline:.4}, pipeline − encode {extra_us:.1} µs per batch",
        "pipeline_over_encode"
    );

    let mut failures = over_tolerance(&[
        ("kmeans", kmeans.base, kmeans.instr),
        ("encode", encode.base, encode.instr),
        ("stream", stream.base, stream.instr),
    ]);
    failures.extend(past_baseline(&[
        ("kmeans", kmeans.median, KMEANS_BASELINE),
        ("encode", encode.median, ENCODE_BASELINE),
        ("pipeline/encode", pipeline, PIPELINE_BASELINE),
    ]));
    if !failures.is_empty() {
        exit_failed("obs_overhead", &failures);
    }
    println!("\nobs_overhead OK");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_pair_past_the_tolerance_is_a_failure() {
        // 2.99 % is inside the 3 % bound, 3.01 % past it.
        let failures = over_tolerance(&[
            ("inside", 10_000, 10_299),
            ("past", 10_000, 10_301),
            ("faster", 100, 90),
        ]);
        assert_eq!(
            failures,
            ["past overhead +3.01% exceeds the 3.00% tolerance"]
        );
        assert!(over_tolerance(&[("a", 100, 100)]).is_empty());
    }

    #[test]
    fn a_median_ratio_past_its_baseline_bound_is_a_failure() {
        for (name, baseline) in [
            ("kmeans", KMEANS_BASELINE),
            ("encode", ENCODE_BASELINE),
            ("pipeline/encode", PIPELINE_BASELINE),
        ] {
            let limit = baseline * 1.10;
            assert!(past_baseline(&[(name, limit - 1e-9, baseline)]).is_empty());
            let failures = past_baseline(&[(name, limit + 1e-9, baseline)]);
            assert_eq!(failures.len(), 1, "{name}");
            assert!(failures[0].starts_with(&format!("{name} median ratio ")));
        }
        // Compared unrounded: 1.115845 prints as 1.1158, which is under
        // encode's limit of 1.11584, but the value itself is past it.
        assert_eq!(
            past_baseline(&[("encode", 1.115_845, ENCODE_BASELINE)]),
            ["encode median ratio 1.1158 exceeds baseline 1.0144 × 1.10 = 1.1158"]
        );
    }

    #[test]
    fn args_take_defaults_overrides_and_reject_with_usage() {
        let parse = |a: &str| parse_args(a.split_whitespace().map(String::from));
        assert_eq!(parse(""), Ok(None));
        assert_eq!(parse("--side base"), Ok(Some(Side::Base)));
        assert_eq!(parse("--side instr"), Ok(Some(Side::Instr)));
        for bad in [
            "--side",
            "--side both",
            "--side Base",
            "--side base instr",
            "--bogus",
            "base",
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.ends_with("usage: obs_overhead"), "{err}");
        }
    }
}
