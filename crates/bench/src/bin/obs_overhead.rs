//! `dual-obs` overhead smoke: prove that the metrics hooks threaded
//! through the hot kernels cost less than `DUAL_OBS_TOL` (default 3%)
//! relative to the uninstrumented paths.
//!
//! ```text
//! cargo run --release -p dual-bench --bin obs_overhead
//! DUAL_OBS_TOL=0.05 cargo run --release -p dual-bench --bin obs_overhead
//! ```
//!
//! Two kernel pairs are timed with min-of-samples (the minimum is the
//! standard noise-robust estimator for short deterministic kernels):
//!
//! 1. **k-means fit** — `KMeans::fit` with the global registry *not*
//!    installed (every site is a branch-on-null no-op) against
//!    `KMeans::fit_recorded` into a live local registry. Because both
//!    sides stay runnable, retry rounds interleave base/instrumented
//!    samples.
//! 2. **HD encode** — `HdMapper::encode` before and after
//!    [`dual_obs::install_global`]. Installation is irreversible, so
//!    every baseline sample is taken *first*; retry rounds can then
//!    only refine the instrumented minimum (which is conservative: the
//!    baseline minimum is final while the instrumented one may drop).
//! 3. **Stream pipeline** — a full push/tick/drain pass with the
//!    flight recorder disabled (`trace_capacity = 0`) against the same
//!    pass with the recorder and two alert rules armed. Both sides
//!    stay runnable, so retry rounds interleave like pair 1.
//!
//! Wall-clock enters only through the lint-audited
//! [`dual_obs::WallClock`] adapter and is used purely for the
//! pass/fail ratio — nothing here is written to `results/` unless
//! `--summary-out PATH` is given, which records the perf-ratchet
//! metrics `obs_kmeans_overhead` / `obs_encode_overhead`: the
//! median-of-5 instrumented/baseline timing ratios (machine-normalized
//! — both sides run in the same process on the same host) that
//! `bench_ratchet` compares against the committed
//! `results/bench_summary.json`. An overhead past the tolerance prints
//! each failing pair and exits 1.

use dual_bench::{exit_failed, exit_usage, write_out, JsonObject};
use dual_cluster::KMeans;
use dual_hdc::{Encoder, HdMapper};
use dual_obs::{Key, WallClock};
use dual_stream::{StreamConfig, StreamEngine};
use dual_trace::{AlertRule, Signal};

/// Samples per measurement round.
const SAMPLES: usize = 5;
/// Extra rounds to damp scheduler noise before declaring a regression.
const MAX_ROUNDS: usize = 5;
/// Repetitions feeding the ratchet medians (odd: a true median).
const REPS: usize = 5;

fn tolerance() -> f64 {
    std::env::var("DUAL_OBS_TOL")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.03)
}

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

fn ratio(base: u64, instr: u64) -> f64 {
    instr as f64 / base.max(1) as f64 - 1.0
}

/// Median of an odd number of samples.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn report(name: &str, base: u64, instr: u64, tol: f64) {
    let r = ratio(base, instr);
    println!(
        "  {name:<24} base={:>9}ns  instr={:>9}ns  overhead={:>+6.2}%  (tol {:.0}%)",
        base,
        instr,
        r * 100.0,
        tol * 100.0
    );
}

/// One failure per `(pair, base ns, instrumented ns)` whose overhead is
/// past `tol`.
fn over_tolerance(pairs: &[(&str, u64, u64)], tol: f64) -> Vec<String> {
    pairs
        .iter()
        .filter(|&&(_, base, instr)| ratio(base, instr) > tol)
        .map(|&(name, base, instr)| {
            format!(
                "{name} overhead {:+.2}% exceeds the {:.2}% tolerance",
                ratio(base, instr) * 100.0,
                tol * 100.0
            )
        })
        .collect()
}

/// Parse `[--summary-out PATH]` into the summary path, if any.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Option<String>, String> {
    let bad = |problem: &str| {
        format!("obs_overhead: {problem}\nusage: obs_overhead [--summary-out PATH]")
    };
    let mut summary_out = None;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg != "--summary-out" {
            return Err(bad(&format!("unknown argument `{arg}`")));
        }
        summary_out = Some(
            args.next()
                .ok_or_else(|| bad("--summary-out requires a path"))?,
        );
    }
    Ok(summary_out)
}

fn main() {
    let summary_out = parse_args(std::env::args().skip(1)).unwrap_or_else(exit_usage);

    let tol = tolerance();
    println!("obs_overhead: instrumented kernels must stay within {tol:.2} of baseline\n");

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
    // REPS interleaved (base, instr) pairs: each pair yields one ratio
    // sample for the ratchet median; the pass/fail gate keeps using the
    // global minima.
    let mut km_ratios = Vec::with_capacity(REPS);
    let (mut km_base, mut km_instr) = (u64::MAX, u64::MAX);
    for _ in 0..REPS {
        let b = min_ns(&mut base_fit);
        let i = min_ns(&mut instr_fit);
        km_ratios.push(ratio(b, i) + 1.0);
        km_base = km_base.min(b);
        km_instr = km_instr.min(i);
    }
    let km_median = median(km_ratios);
    for _ in 0..MAX_ROUNDS {
        if ratio(km_base, km_instr) <= tol {
            break;
        }
        // Interleave: both minima may still drop.
        km_base = km_base.min(min_ns(&mut base_fit));
        km_instr = km_instr.min(min_ns(&mut instr_fit));
    }
    report("kmeans_2000x3_k8", km_base, km_instr, tol);
    assert!(
        registry.counter(dual_obs::Key::KmeansIterations) > 0,
        "instrumented fit must actually record"
    );

    // ---- Pair 2: HD encode (baseline before install_global). ----
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
    // Every baseline repetition must precede the irreversible install;
    // the ratchet median pairs rep i's baseline with rep i's
    // instrumented minimum.
    let enc_bases: Vec<u64> = (0..REPS).map(|_| min_ns(&mut encode_all)).collect();
    let enc_base = enc_bases.iter().copied().min().unwrap_or(u64::MAX);

    let global = dual_obs::install_global();
    let enc_instrs: Vec<u64> = (0..REPS).map(|_| min_ns(&mut encode_all)).collect();
    let enc_median = median(
        enc_bases
            .iter()
            .zip(&enc_instrs)
            .map(|(&b, &i)| ratio(b, i) + 1.0)
            .collect(),
    );
    let mut enc_instr = enc_instrs.iter().copied().min().unwrap_or(u64::MAX);
    for _ in 0..MAX_ROUNDS {
        if ratio(enc_base, enc_instr) <= tol {
            break;
        }
        // Baseline is frozen (install is irreversible); only the
        // instrumented minimum can improve — a conservative retry.
        enc_instr = enc_instr.min(min_ns(&mut encode_all));
    }
    report("hdmapper_encode_2000x64", enc_base, enc_instr, tol);
    assert!(
        global.counter(dual_obs::Key::HdcEncoded) > 0,
        "installed registry must observe the encode loop"
    );

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
    let (mut st_base, mut st_instr) = (u64::MAX, u64::MAX);
    for _ in 0..REPS {
        st_base = st_base.min(min_ns(&mut base_stream));
        st_instr = st_instr.min(min_ns(&mut instr_stream));
    }
    for _ in 0..MAX_ROUNDS {
        if ratio(st_base, st_instr) <= tol {
            break;
        }
        st_base = st_base.min(min_ns(&mut base_stream));
        st_instr = st_instr.min(min_ns(&mut instr_stream));
    }
    report("stream_512x8_recorder", st_base, st_instr, tol);

    let failures = over_tolerance(
        &[
            ("kmeans", km_base, km_instr),
            ("encode", enc_base, enc_instr),
            ("stream", st_base, st_instr),
        ],
        tol,
    );
    if !failures.is_empty() {
        exit_failed("obs_overhead", &failures);
    }

    if let Some(path) = summary_out {
        let payload = JsonObject::new()
            .field("version", 1)
            .field("obs_encode_overhead", format_args!("{enc_median:.4}"))
            .field("obs_kmeans_overhead", format_args!("{km_median:.4}"))
            .pretty();
        write_out(&path, payload).expect("writable --summary-out path");
        println!(
            "ratchet metrics written to {path}: obs_encode_overhead = {enc_median:.4}, obs_kmeans_overhead = {km_median:.4} (medians of {REPS})"
        );
    }
    println!("\nobs_overhead OK");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_pair_past_the_tolerance_is_a_failure() {
        let failures = over_tolerance(&[("a", 100, 102), ("b", 100, 110), ("c", 100, 90)], 0.03);
        assert_eq!(failures, ["b overhead +10.00% exceeds the 3.00% tolerance"]);
        assert!(over_tolerance(&[("a", 100, 100)], 0.03).is_empty());
    }

    #[test]
    fn args_take_defaults_overrides_and_reject_with_usage() {
        let parse = |a: &str| parse_args(a.split_whitespace().map(String::from));
        assert_eq!(parse(""), Ok(None));
        assert_eq!(parse("--summary-out s"), Ok(Some("s".into())));
        for bad in ["--summary-out", "--bogus", "s"] {
            let err = parse(bad).unwrap_err();
            assert!(
                err.ends_with("usage: obs_overhead [--summary-out PATH]"),
                "{err}"
            );
        }
    }
}
