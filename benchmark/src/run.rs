//! One workload, one process: the untraced end-to-end run (`--trace 0`)
//! or the traced per-layer run (`--trace 1`).

use crate::gen::{generate, Dataset};
use crate::json::Json;
use crate::offline;
use crate::span::{self_times, Tracer};
use crate::spec::{
    self, BatchSpec, EngineSpec, Scale, StreamSpec, TopoSpec, END_TO_END, PER_LAYER,
};
use crate::stats::{iqr_share, median, percentile, sort, supported_percentile};
use crate::streaming::{
    build_engine, build_mapper, build_topology, drive, encode_all, fault_config, heldout_accuracy,
    inspect, record_batch, shadow, Drive, Outcome, System,
};
use crate::Res;
use dual_fault::{FaultPlan, FaultPlanSpec};
use dual_hdc::{search, Encoder};
use dual_obs::{Key, Registry};
use dual_stream::FaultConfig;
use dual_trace::Recorder;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Set-up is timed at least this often per run; `setup_s` is the median.
const SETUP_SAMPLES: usize = 5;
/// Accuracy floor on the two workloads whose mixtures are built to be
/// separable (`stream_wide`, `batch_offline`), full scale only.
const MIN_ACCURACY: f64 = 0.80;
/// Expected band of shadow-layer time over engine wall time on the two
/// pristine single-engine workloads; outside it the run prints a warning.
const COVERAGE_BAND: (f64, f64) = (0.90, 1.10);

/// Arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measure for at least this long (whole passes).
    pub seconds: f64,
    /// Traced per-layer run instead of the end-to-end run.
    pub trace: bool,
    /// Full or quick sizing.
    pub scale: Scale,
    /// Where `<workload>.trace.json` goes.
    pub out_dir: PathBuf,
}

/// One named output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub pass: bool,
    /// The numbers behind the verdict.
    pub detail: String,
}

/// Everything a run reports.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Operations attempted (points offered, over all passes).
    pub attempted: u64,
    /// Operations that failed (not clustered after drain, or `Err`).
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Output checks; the run is `correct` when all pass.
    pub checks: Vec<Check>,
    /// Digest of model state, simulated cost and stable obs snapshot.
    pub state_digest: u64,
    /// Pass-to-pass spread (IQR ÷ median) of the host-time metrics.
    pub spreads: Vec<(&'static str, f64)>,
    /// Sample counts and other context for the human reader.
    pub notes: Vec<String>,
}

impl RunResult {
    /// Whether every output check passed and no operation failed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.pass)
    }

    /// Value of metric `name`.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// The metrics as `{"name": {"value": v, "unit": u}}`.
    #[must_use]
    pub fn metrics_json(&self) -> Json {
        let mut obj = Json::obj();
        for &(name, value, unit) in &self.metrics {
            obj.set(
                name,
                Json::obj()
                    .with("value", Json::Num(value))
                    .with("unit", Json::Str(unit.into())),
            );
        }
        obj
    }

    /// The one-line result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    #[must_use]
    pub fn result_line(&self) -> String {
        Json::obj()
            .with("correct", Json::Bool(self.correct()))
            .with("attempted", Json::Num(self.attempted as f64))
            .with("failed", Json::Num(self.failed as f64))
            .with("metrics", self.metrics_json())
            .render()
    }

    /// Digest, spreads and check verdicts, for `results.json`.
    #[must_use]
    pub fn extra_json(&self) -> Json {
        let mut spreads = Json::obj();
        for &(name, s) in &self.spreads {
            spreads.set(name, Json::Num(s));
        }
        let mut checks = Json::obj();
        for c in &self.checks {
            checks.set(c.name, Json::Bool(c.pass));
        }
        Json::obj()
            .with(
                "state_digest",
                Json::Str(format!("{:016x}", self.state_digest)),
            )
            .with("spread", spreads)
            .with("checks", checks)
    }

    /// Human-readable report: every metric by name with its unit, the
    /// checks, the notes.
    #[must_use]
    pub fn human(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for &(name, value, unit) in &self.metrics {
            let _ = writeln!(out, "{:<24} {name:<40} {value:>16.6} {unit}", self.workload);
        }
        for c in &self.checks {
            let verdict = if c.pass { "ok" } else { "FAILED" };
            let _ = writeln!(
                out,
                "{:<24} check {:<34} {verdict}  {}",
                self.workload, c.name, c.detail
            );
        }
        let _ = writeln!(
            out,
            "{:<24} attempted {} failed {} failed_ops_share {} state_digest {:016x}",
            self.workload,
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
            self.state_digest
        );
        for n in &self.notes {
            let _ = writeln!(out, "{:<24} note: {n}", self.workload);
        }
        out
    }
}

/// Metric values keyed by name, emitted in table order.
struct Report {
    table: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    fn new(table: &'static [(&'static str, &'static str)]) -> Self {
        Self {
            table,
            values: BTreeMap::new(),
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.table.iter().any(|m| m.0 == name),
            "metric {name} is not in the table"
        );
        self.values.insert(name, value);
    }

    /// Table order; a layer the workload does not exercise reads `0`.
    fn finish(self) -> Vec<(&'static str, f64, &'static str)> {
        self.table
            .iter()
            .map(|&(name, unit)| (name, self.values.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }
}

/// Peak resident set of this process (`VmHWM`), megabytes.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The fast quartile of per-pass rates (their 75th percentile). Every
/// pass does the same work on one thread, so passes differ only by what
/// the machine did to them, and on a shared machine that only ever
/// slows a pass down; the fast quartile stays put when up to three
/// quarters of a run's passes were disturbed, where the median moves as
/// soon as half were (README.md, "Steadiness", has the measurements).
fn fast_quartile(rates: &[f64]) -> f64 {
    let mut v = rates.to_vec();
    sort(&mut v);
    percentile(&v, 75.0)
}

/// Time further builds until `setups` holds [`SETUP_SAMPLES`] samples.
fn top_up_setups<T>(setups: &mut Vec<f64>, build: impl Fn() -> Res<T>) -> Res<()> {
    while setups.len() < SETUP_SAMPLES {
        let t = Instant::now();
        black_box(build()?);
        setups.push(secs(t));
    }
    Ok(())
}

/// Mean wall time of `call` over `sample`, nanoseconds per point.
fn per_point_ns<T>(sample: &[Vec<f64>], call: impl Fn(&[f64]) -> Res<T>) -> Res<f64> {
    let t = Instant::now();
    for p in sample {
        black_box(call(p)?);
    }
    Ok(secs(t) * 1e9 / sample.len() as f64)
}

/// Write the spans as `<out>/<workload>.trace.json`.
fn write_trace(args: &Args, tracer: &Tracer) -> Res<PathBuf> {
    std::fs::create_dir_all(&args.out_dir)?;
    let path = args.out_dir.join(format!("{}.trace.json", args.workload));
    std::fs::write(&path, tracer.chrome_trace())?;
    Ok(path)
}

/// Median wall time of `reps` calls of `f`, nanoseconds.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// Run the workload named in `args`.
///
/// # Errors
///
/// Unknown workload, product construction errors, or I/O errors writing
/// the trace file.
pub fn run(args: &Args) -> Res<RunResult> {
    let t = Instant::now();
    match args.workload.as_str() {
        "stream_wide" | "stream_codebook" => {
            let spec = if args.workload == "stream_wide" {
                spec::stream_wide(args.scale)
            } else {
                spec::stream_codebook(args.scale)
            };
            let data = [stream_data(&spec, args.seed)];
            let gen_s = secs(t);
            let build = || build_engine(&spec.engine, &data[0].exemplars);
            let min_accuracy = if args.workload == "stream_wide" {
                MIN_ACCURACY
            } else {
                0.0
            };
            if args.trace {
                streaming_traced(args, &spec.engine, &data, &build, gen_s, None, None)
            } else {
                streaming_e2e(args, &spec.engine, &data, &build, min_accuracy)
            }
        }
        "topo_resilient" => {
            let spec = spec::topo_resilient(args.scale);
            let data = topo_data(&spec, args.seed);
            let gen_s = secs(t);
            let build = || build_topology(&spec, &exemplars(&data));
            if args.trace {
                let ablate = |report: &mut Report| ablations(&spec, &data, report);
                let fault = fault_config(&spec.engine, 0)?;
                streaming_traced(
                    args,
                    &spec.engine,
                    &data,
                    &build,
                    gen_s,
                    Some(fault),
                    Some(&ablate),
                )
            } else {
                streaming_e2e(args, &spec.engine, &data, &build, 0.0)
            }
        }
        "batch_offline" => {
            let spec = spec::batch_offline(args.scale);
            let data = generate(&spec.mix, args.seed, 0, spec.points, 0);
            batch_run(args, &spec, &data, secs(t))
        }
        other => Err(format!("unknown workload {other:?}; one of {:?}", spec::WORKLOADS).into()),
    }
}

fn stream_data(spec: &StreamSpec, seed: u64) -> Dataset {
    generate(
        &spec.mix,
        seed,
        spec.engine.slots(),
        spec.points,
        spec.heldout,
    )
}

fn topo_data(spec: &TopoSpec, seed: u64) -> Vec<Dataset> {
    (0..spec::TENANTS.len() as u64)
        .map(|lane| {
            // Distinct streams per tenant from one run seed.
            let seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(lane);
            generate(
                &spec.mix,
                seed,
                spec.engine.slots(),
                spec.points_per_tenant,
                spec.heldout_per_tenant,
            )
        })
        .collect()
}

fn exemplars(data: &[Dataset]) -> Vec<&crate::gen::Labelled> {
    data.iter().map(|d| &d.exemplars).collect()
}

fn lanes(data: &[Dataset]) -> Vec<&[Vec<f64>]> {
    data.iter().map(|d| d.stream.points.as_slice()).collect()
}

fn min_passes(scale: Scale) -> usize {
    match scale {
        Scale::Full => 3,
        Scale::Quick => 2,
    }
}

fn digest_check(name: &'static str, a: u64, b: u64) -> Check {
    Check {
        name,
        pass: a == b,
        detail: format!("{a:016x} vs {b:016x}"),
    }
}

fn conservation_check(o: &Outcome, offered: u64) -> Check {
    Check {
        name: "conservation",
        pass: o.conservation_violations == 0
            && offered == o.clustered + o.dropped + o.rejected + o.pending,
        detail: format!(
            "offered {offered} = clustered {} + dropped {} + rejected {} + pending {}",
            o.clustered, o.dropped, o.rejected, o.pending
        ),
    }
}

// ------------------------------------------------- streaming, end to end

fn streaming_e2e<S: System>(
    args: &Args,
    spec: &EngineSpec,
    data: &[Dataset],
    build: &dyn Fn() -> Res<S>,
    min_accuracy: f64,
) -> Res<RunResult> {
    let lanes = lanes(data);
    let per_lane = lanes[0].len() as u64;
    let mut setups = Vec::new();
    let mut drives: Vec<Drive> = Vec::new();
    let mut first: Option<Outcome> = None;
    let mut accuracy = 0.0;
    let mut repeat_ok = true;
    let mut failed = 0u64;
    let clock = Instant::now();
    while drives.len() < min_passes(args.scale) || secs(clock) < args.seconds {
        let t = Instant::now();
        let mut sys = build()?;
        setups.push(secs(t));
        let d = drive(&mut sys, &lanes, spec.max_batch, &mut Tracer::new(false));
        let o = inspect(&sys, per_lane);
        failed += d.offered.saturating_sub(o.clustered) + d.errors;
        match &first {
            None => {
                for (lane, set) in data.iter().enumerate() {
                    accuracy += heldout_accuracy(sys.engine(lane), &set.heldout)?;
                }
                accuracy /= data.len() as f64;
                first = Some(o);
            }
            Some(f) => repeat_ok &= *f == o,
        }
        drives.push(d);
    }
    top_up_setups(&mut setups, build)?;
    let first = first.ok_or("no pass ran")?;

    let rates: Vec<f64> = drives
        .iter()
        .map(|d| d.offered as f64 / (d.wall_ns as f64 / 1e9))
        .collect();
    // Percentile within a lane (the topology's tenants have different
    // latency modes, and a percentile of their mixture sits in the gap
    // between two of them), mean over lanes.
    let lane_percentiles = |lanes: &[Vec<f64>], p: f64| -> f64 {
        let per_lane = lanes.iter().map(|lane| {
            let mut v = lane.clone();
            sort(&mut v);
            percentile(&v, p)
        });
        per_lane.sum::<f64>() / lanes.len() as f64
    };
    let pass_percentile = |p: f64| -> Vec<f64> {
        drives
            .iter()
            .map(|d| lane_percentiles(&d.latencies_ms, p))
            .collect()
    };
    let (pass_p50, pass_p90) = (pass_percentile(50.0), pass_percentile(90.0));
    // Every pass replays the same points through the same code, so point
    // `i` does the same work in each. Its latency on an undisturbed
    // machine is estimated by its fastest replay: a burst of interference
    // hits some batches of some passes, hardly ever the same batch of
    // every pass (README.md, "Steadiness").
    let mut undisturbed = drives[0].latencies_ms.clone();
    for d in &drives[1..] {
        for (best, lane) in undisturbed.iter_mut().zip(&d.latencies_ms) {
            for (b, &x) in best.iter_mut().zip(lane) {
                *b = b.min(x);
            }
        }
    }
    let samples: usize = drives
        .iter()
        .flat_map(|d| &d.latencies_ms)
        .map(Vec::len)
        .sum();
    let offered = drives[0].offered;
    let batches = first.batches * drives.len() as u64;

    let mut report = Report::new(&END_TO_END);
    report.set("setup_s", median(&setups));
    report.set("points_per_s", fast_quartile(&rates));
    report.set(
        "commit_latency_ms_p50",
        lane_percentiles(&undisturbed, 50.0),
    );
    report.set(
        "commit_latency_ms_p90",
        lane_percentiles(&undisturbed, 90.0),
    );
    report.set("peak_rss_mb", peak_rss_mb());
    report.set("cluster_accuracy", accuracy);
    report.set(
        "sim_energy_pj_per_point",
        first.energy_pj / first.clustered.max(1) as f64,
    );
    report.set(
        "sim_time_ns_per_point",
        first.time_ns / first.clustered.max(1) as f64,
    );

    let mut checks = vec![
        conservation_check(&first, offered),
        Check {
            name: "repeat_identical",
            pass: repeat_ok,
            detail: format!(
                "{} passes, counts, simulated cost and digests compared",
                drives.len()
            ),
        },
    ];
    if args.scale == Scale::Full && min_accuracy > 0.0 {
        checks.push(Check {
            name: "accuracy_floor",
            pass: accuracy >= min_accuracy,
            detail: format!("{accuracy:.4} >= {min_accuracy}"),
        });
    }
    Ok(RunResult {
        workload: args.workload.clone(),
        attempted: offered * drives.len() as u64,
        failed,
        metrics: report.finish(),
        checks,
        state_digest: first.state_digest,
        spreads: vec![
            ("setup_s", iqr_share(&setups)),
            ("points_per_s", iqr_share(&rates)),
            ("commit_latency_ms_p50", iqr_share(&pass_p50)),
            ("commit_latency_ms_p90", iqr_share(&pass_p90)),
        ],
        notes: vec![format!(
            "{} passes of {offered} points; commit latency over {samples} samples in {batches} batches, \
             highest supported percentile p{}",
            drives.len(),
            supported_percentile(batches as usize).unwrap_or(0.0)
        )],
    })
}

// ------------------------------------------------------ streaming, traced

/// Extra per-workload steps of the traced run.
type Ablate<'a> = &'a dyn Fn(&mut Report) -> Res<()>;

#[allow(clippy::too_many_lines)]
fn streaming_traced<S: System>(
    args: &Args,
    spec: &EngineSpec,
    data: &[Dataset],
    build: &dyn Fn() -> Res<S>,
    gen_s: f64,
    fault: Option<FaultConfig>,
    ablate: Option<Ablate<'_>>,
) -> Res<RunResult> {
    let lanes = lanes(data);
    let per_lane = lanes[0].len() as u64;
    let single = data.len() == 1;
    let mut report = Report::new(&PER_LAYER);
    let mut checks = Vec::new();
    report.set("bench.gen_s", gen_s);
    report.set("bench.passes", 3.0);

    // Reference passes with the benchmark's tracing off, one before and
    // one after the traced pass; their mean is the engine's wall time.
    let untraced = || -> Res<(Drive, Outcome)> {
        let mut sys = build()?;
        let d = drive(&mut sys, &lanes, spec.max_batch, &mut Tracer::new(false));
        let o = inspect(&sys, per_lane);
        Ok((d, o))
    };
    let (first_plain, reference) = untraced()?;

    // (a) The same pass with a span around every driver call.
    let mut tracer = Tracer::new(true);
    let mut sys = build()?;
    let traced = drive(&mut sys, &lanes, spec.max_batch, &mut tracer);
    let outcome = inspect(&sys, per_lane);
    let (second_plain, repeat) = untraced()?;
    checks.push(digest_check(
        "repeat_identical",
        reference.state_digest,
        repeat.state_digest,
    ));
    let errors = first_plain.errors + traced.errors + second_plain.errors;
    let plain_wall_ns = (first_plain.wall_ns + second_plain.wall_ns) as f64 / 2.0;
    checks.push(conservation_check(&outcome, traced.offered));
    checks.push(digest_check(
        "traced_equals_untraced",
        reference.state_digest,
        outcome.state_digest,
    ));
    report.set(
        "bench.trace_overhead",
        traced.wall_ns as f64 / plain_wall_ns,
    );

    let mut pushes = tracer.durations(S::PUSH);
    let mut ticks = tracer.durations(S::TICK);
    sort(&mut pushes);
    sort(&mut ticks);
    let drain_ms = tracer.durations(S::DRAIN).iter().sum::<f64>() / 1e6;
    if single {
        report.set("stream.push.ns_p50", percentile(&pushes, 50.0));
        report.set("stream.push.ns_p99", percentile(&pushes, 99.0));
        report.set("stream.tick.ms_p50", percentile(&ticks, 50.0) / 1e6);
        report.set("stream.tick.ms_p90", percentile(&ticks, 90.0) / 1e6);
    } else {
        report.set("topology.push.ns_p50", percentile(&pushes, 50.0));
        report.set("topology.tick.ms_p50", percentile(&ticks, 50.0) / 1e6);
        report.set("topology.deferred_ticks", outcome.deferred_ticks as f64);
    }
    report.set("stream.drain.ms", drain_ms);
    report.set("stream.batches", outcome.batches as f64);
    report.set("stream.inline_flushes", outcome.inline_flushes as f64);
    report.set("stream.size_cuts", outcome.size_cuts as f64);
    report.set("stream.deadline_cuts", outcome.deadline_cuts as f64);
    report.set(
        "stream.online.rebinarized_per_batch",
        outcome.rebinarized as f64 / outcome.batches.max(1) as f64,
    );
    report.set("fault.injected", outcome.fault_injected as f64);
    report.set("fault.healed", outcome.fault_healed as f64);

    // Exports and the snapshot path, on the system the traced pass left.
    {
        let engine = sys.engine(0);
        report.set(
            "obs.export_us",
            median_ns(20, || {
                black_box(engine.obs_registry().stable_snapshot().to_json());
            }) / 1e3,
        );
        report.set(
            "obs.prometheus_us",
            median_ns(20, || {
                black_box(engine.obs_registry().to_prometheus());
            }) / 1e3,
        );
        report.set(
            "trace.export_us",
            median_ns(20, || {
                black_box(dual_trace::chrome_trace(&[("engine", engine.trace())]));
            }) / 1e3,
        );
    }
    let mapper = sys.engine(0).encoder().clone();
    let span = tracer.begin("snap.checkpoint", 0);
    let blob = sys.checkpoint();
    tracer.end(span);
    let captured = inspect(&sys, per_lane).state_digest;
    let span = tracer.begin("snap.restore", 0);
    let restored = sys.restore(mapper, &blob, fault);
    tracer.end(span);
    checks.push(Check {
        name: "restore_exact",
        pass: restored && inspect(&sys, per_lane).state_digest == captured,
        detail: format!("{} byte checkpoint of lane 0 restored in place", blob.len()),
    });
    let own = self_times(tracer.spans());
    report.set("snap.checkpoint_ms", own["snap.checkpoint"] as f64 / 1e6);
    report.set("snap.restore_ms", own["snap.restore"] as f64 / 1e6);
    report.set("snap.bytes", blob.len() as f64);
    drop(sys);

    // (b) The same batches through the layers' public functions.
    let t = Instant::now();
    let mapper = build_mapper(spec)?;
    report.set("hdc.mapper_build_ms", secs(t) * 1e3);
    let seeds = encode_all(&mapper, &data[0].exemplars.points)?;
    let replay = shadow(spec, &mapper, &seeds, lanes[0], &mut tracer)?;
    let own = self_times(tracer.spans());
    let n = per_lane as f64;
    let layer = |name: &str| own.get(name).copied().unwrap_or(0) as f64;
    let update_ns = (layer("stream.online.observe") - layer("hdc.search")).max(0.0);
    let bookkeeping = layer("pim.meter") + layer("obs.record") + layer("trace.record");
    let shadow_sum =
        layer("stream.ingest") + layer("hdc.encode") + layer("stream.online.observe") + bookkeeping;
    let engine_ns_per_point = plain_wall_ns / traced.offered as f64;
    report.set("stream.ingest.ns_per_point", layer("stream.ingest") / n);
    report.set("hdc.encode.ns_per_point", layer("hdc.encode") / n);
    report.set("hdc.search.ns_per_point", layer("hdc.search") / n);
    report.set("stream.online.update_ns_per_point", update_ns / n);
    report.set(
        "pim.meter.ns_per_batch",
        layer("pim.meter") / replay.batches.max(1) as f64,
    );
    report.set(
        "stream.engine.residual_ns_per_point",
        engine_ns_per_point - shadow_sum / n,
    );
    let coverage = shadow_sum / n / engine_ns_per_point;
    report.set("bench.coverage", coverage);
    report.set(
        "hdc.encode.base_bytes_per_point",
        (spec.dim * spec.features * 8) as f64,
    );
    report.set(
        "hdc.search.popcount_words_per_point",
        (spec.slots() * spec.dim.div_ceil(64)) as f64,
    );
    if single {
        // Proof that the per-layer numbers describe the computation the
        // engine did. The topology's sensed assign path is private, so
        // there the shadow prices the pristine layers only.
        checks.push(digest_check(
            "shadow_equals_engine",
            reference.centroid_digest,
            replay.centroid_digest,
        ));
    }
    let mut notes = Vec::new();
    if single && !(COVERAGE_BAND.0..=COVERAGE_BAND.1).contains(&coverage) {
        // Two wall times a minute apart on a shared machine: a warning
        // for the reader, never a verdict on the program's output.
        notes.push(format!(
            "WARNING bench.coverage {coverage:.4} is outside [{}, {}]: rerun on a quieter machine \
             before reading the per-layer shares",
            COVERAGE_BAND.0, COVERAGE_BAND.1
        ));
    }

    // (c) Micro-probes of calls too short to time one at a time.
    let sample = &lanes[0][..lanes[0]
        .len()
        .min(if spec.features > 64 { 64 } else { 2_000 })];
    report.set(
        "hdc.project.ns_per_point",
        per_point_ns(sample, |p| Ok(mapper.project(p)?))?,
    );
    micro_probes(spec, &mut report);
    if args.workload == "stream_wide" {
        // Informational: wall-clock scaling of the encode fan-out on
        // this machine. No bound; see README.md, "Load model".
        let rows = &lanes[0][..lanes[0].len().min(2 * spec.max_batch)];
        let encode = |threads: usize| {
            median_ns(3, || {
                black_box(dual_pool::par_map_chunks(rows, threads, |_, part| {
                    part.iter().map(|r| mapper.encode(r)).collect::<Vec<_>>()
                }));
            })
        };
        report.set("pool.encode_speedup_t2", encode(1) / encode(2));
    }

    // (d) Ablations of what the shadow cannot see.
    if let Some(ablate) = ablate {
        ablate(&mut report)?;
    }

    report.set("bench.spans", tracer.spans().len() as f64);
    let path = write_trace(args, &tracer)?;

    Ok(RunResult {
        workload: args.workload.clone(),
        attempted: 3 * traced.offered,
        failed: (3 * traced.offered)
            .saturating_sub(reference.clustered + outcome.clustered + repeat.clustered)
            + errors,
        metrics: report.finish(),
        checks,
        state_digest: outcome.state_digest,
        spreads: Vec::new(),
        notes: {
            notes.push(format!(
                "{} spans written to {}; shadow replays lane 0 ({} points, {} batches)",
                tracer.spans().len(),
                path.display(),
                per_lane,
                replay.batches
            ));
            notes
        },
    })
}

/// Per-call cost of the bookkeeping primitives, averaged over a loop.
fn micro_probes(spec: &EngineSpec, report: &mut Report) {
    const REPS: u64 = 200_000;
    let per_call = |f: &mut dyn FnMut(u64)| {
        let t = Instant::now();
        for i in 0..REPS {
            f(i);
        }
        secs(t) * 1e9 / REPS as f64
    };
    let obs = Registry::new();
    report.set(
        "obs.add_ns",
        per_call(&mut |_| obs.add(Key::StreamIngested, 1)),
    );
    black_box(obs.counter(Key::StreamIngested));

    let mut recorder = Recorder::new(spec.trace_capacity.max(1));
    // `record_batch` opens and closes four spans.
    report.set(
        "trace.span_ns",
        per_call(&mut |i| record_batch(&mut recorder, i, 1, (1.0, 1.0))) / 4.0,
    );
    black_box(recorder.emitted());

    let plan = FaultPlan::new(FaultPlanSpec {
        seed: spec::ENCODER_SEED,
        stuck_rate: spec::STUCK_RATE,
        dead_row_rate: spec::DEAD_ROW_RATE,
        flip_rate: spec::FLIP_RATE,
        ..FaultPlanSpec::clean(spec.slots(), spec.dim)
    });
    if let Ok(plan) = plan {
        let (rows, cols) = (plan.rows() as u64, plan.cols() as u64);
        let mut ones = 0u64;
        report.set(
            "fault.read_bit_ns",
            per_call(&mut |i| {
                let (row, col) = ((i / cols % rows) as usize, (i % cols) as usize);
                ones += u64::from(plan.read_bit(row, col, i & 1 == 0, i / (rows * cols)));
            }),
        );
        black_box(ones);
    }
}

/// `topo_resilient` with one feature switched off at a time, using
/// existing configuration fields only. A share is
/// `1 - wall(off) / wall(on)`, each wall the fastest of three passes;
/// the variants take turns so a slow minute of the machine does not
/// land on one of them.
fn ablations(spec: &TopoSpec, data: &[Dataset], report: &mut Report) -> Res<()> {
    let lanes = lanes(data);
    let with_engine = |f: &dyn Fn(&mut EngineSpec)| {
        let mut v = *spec;
        f(&mut v.engine);
        v
    };
    let variants = [
        *spec,
        with_engine(&|e| e.trace_capacity = 0),
        with_engine(&|e| e.snapshot_every = 0),
        TopoSpec {
            faults: false,
            ..*spec
        },
    ];
    let mut best = [f64::INFINITY; 4];
    for _ in 0..3 {
        for (variant, best) in variants.iter().zip(&mut best) {
            let mut topo = build_topology(variant, &exemplars(data))?;
            let d = drive(
                &mut topo,
                &lanes,
                variant.engine.max_batch,
                &mut Tracer::new(false),
            );
            *best = best.min(d.wall_ns as f64);
        }
    }
    let [on, no_trace, no_snap, no_fault] = best;
    report.set("trace.share", 1.0 - no_trace / on);
    report.set("snap.share", 1.0 - no_snap / on);
    report.set("fault.share", 1.0 - no_fault / on);
    Ok(())
}

// ------------------------------------------------------------ batch_offline

fn batch_run(args: &Args, spec: &BatchSpec, data: &Dataset, gen_s: f64) -> Res<RunResult> {
    let points = &data.stream.points;
    let regimes = &data.stream.regimes;
    let n = points.len() as f64;
    let mut setups = Vec::new();
    let mut passes: Vec<offline::OfflinePass> = Vec::new();
    let mut repeat_ok = true;
    let mut tracer = Tracer::new(args.trace);
    let clock = Instant::now();
    // The traced run is one pass: its spans are the per-layer numbers.
    let (least, budget_s) = if args.trace {
        (1, 0.0)
    } else {
        (min_passes(args.scale), args.seconds)
    };
    while passes.len() < least || secs(clock) < budget_s {
        let t = Instant::now();
        let accel = offline::build(spec)?;
        setups.push(secs(t));
        let mut pass = offline::pass(spec, &accel, points, regimes, &mut tracer)?;
        if let Some(first) = passes.first() {
            repeat_ok &= first.digest == pass.digest && first.kmeans_iters == pass.kmeans_iters;
            // Only the first pass's hypervectors are used again; holding
            // every pass's would make peak_rss_mb grow with the pass count.
            pass.encoded = Vec::new();
            pass.centers = Vec::new();
        }
        passes.push(pass);
    }
    top_up_setups(&mut setups, || offline::build(spec))?;
    let first = &passes[0];
    let fixed_work = (spec.kmeans_iters * spec.kmeans_restarts) as u64;
    let mut checks = vec![Check {
        name: "repeat_identical",
        pass: repeat_ok,
        detail: format!(
            "{} passes, label digests and iteration counts compared",
            passes.len()
        ),
    }];
    // The quick mixture has too few points to keep a fit from converging
    // early or to land in a particular optimum, so both hold at full
    // scale only.
    if args.scale == Scale::Full {
        checks.push(Check {
            name: "kmeans_fixed_work",
            pass: first.kmeans_iters == fixed_work,
            detail: format!("{} Lloyd iterations, cap {fixed_work}", first.kmeans_iters),
        });
        checks.push(Check {
            name: "accuracy_floor",
            pass: first.kmeans_accuracy.min(first.ward_accuracy) >= MIN_ACCURACY,
            detail: format!(
                "k-means {:.4} and Ward {:.4} >= {MIN_ACCURACY}",
                first.kmeans_accuracy, first.ward_accuracy
            ),
        });
    }
    let notes = vec![format!(
        "{} passes of {} points; k-means accuracy {:.4}, Ward accuracy on the {}-point subset {:.4}",
        passes.len(),
        points.len(),
        first.kmeans_accuracy,
        spec.subset,
        first.ward_accuracy
    )];

    let (metrics, spreads) = if args.trace {
        let mut report = Report::new(&PER_LAYER);
        let accel = offline::build(spec)?;
        let mapper = accel.mapper();
        let sample = &points[..points.len().min(2_000)];
        report.set(
            "hdc.encode.ns_per_point",
            per_point_ns(sample, |p| Ok(mapper.encode(p)?))?,
        );
        report.set(
            "hdc.project.ns_per_point",
            per_point_ns(sample, |p| Ok(mapper.project(p)?))?,
        );
        let t = Instant::now();
        black_box(search::assign_batch(&first.encoded, &first.centers, 1));
        report.set("hdc.search.ns_per_point", secs(t) * 1e9 / n);
        report.set("hdc.mapper_build_ms", median(&setups) * 1e3);
        report.set(
            "hdc.encode.base_bytes_per_point",
            (spec.dim * spec.mix.features * 8) as f64,
        );
        report.set(
            "hdc.search.popcount_words_per_point",
            (spec.k * spec.dim.div_ceil(64)) as f64,
        );
        report.set(
            "core.encode_parallel.ns_per_point",
            first.encode_ns as f64 / n,
        );
        report.set("cluster.kmeans_s", first.kmeans_ns as f64 / 1e9);
        report.set("cluster.kmeans_iters", first.kmeans_iters as f64);
        report.set("cluster.kmeans_accuracy", first.kmeans_accuracy);
        report.set(
            "cluster.kmeans_ns_per_point_iter",
            first.kmeans_ns as f64 / n / first.kmeans_iters.max(1) as f64,
        );
        report.set("cluster.pairwise_s", first.pairwise_ns as f64 / 1e9);
        report.set("cluster.ward_s", first.ward_ns as f64 / 1e9);
        report.set("cluster.dbscan_s", first.dbscan_ns as f64 / 1e9);
        report.set("bench.gen_s", gen_s);
        report.set("bench.spans", tracer.spans().len() as f64);
        report.set("bench.passes", passes.len() as f64);
        let covered: u64 = self_times(tracer.spans()).values().sum();
        report.set("bench.coverage", covered as f64 / first.wall_ns as f64);
        write_trace(args, &tracer)?;
        (report.finish(), Vec::new())
    } else {
        let rates: Vec<f64> = passes
            .iter()
            .map(|p| n / (p.wall_ns as f64 / 1e9))
            .collect();
        // Every point of a pass gets its label when the k-means fit
        // returns, so a pass contributes one latency value.
        let commit_ms: Vec<f64> = passes
            .iter()
            .map(|p| (p.encode_ns + p.kmeans_ns) as f64 / 1e6)
            .collect();
        let (energy_pj, time_ns) = offline::simulated_cost(spec, first.kmeans_iters);
        let mut report = Report::new(&END_TO_END);
        report.set("setup_s", median(&setups));
        report.set("points_per_s", fast_quartile(&rates));
        // One value per pass, so the fastest replay is the fastest pass.
        let fastest_ms = commit_ms.iter().copied().fold(f64::INFINITY, f64::min);
        report.set("commit_latency_ms_p50", fastest_ms);
        report.set("commit_latency_ms_p90", fastest_ms);
        report.set("peak_rss_mb", peak_rss_mb());
        // Ward, not k-means: see README.md, "batch_offline".
        report.set("cluster_accuracy", first.ward_accuracy);
        report.set("sim_energy_pj_per_point", energy_pj / n);
        report.set("sim_time_ns_per_point", time_ns / n);
        let spreads = vec![
            ("setup_s", iqr_share(&setups)),
            ("points_per_s", iqr_share(&rates)),
            ("commit_latency_ms_p50", iqr_share(&commit_ms)),
            ("commit_latency_ms_p90", iqr_share(&commit_ms)),
        ];
        (report.finish(), spreads)
    };
    Ok(RunResult {
        workload: args.workload.clone(),
        attempted: points.len() as u64 * passes.len() as u64,
        failed: 0,
        metrics,
        checks,
        state_digest: first.digest,
        spreads,
        notes,
    })
}
