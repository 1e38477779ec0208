//! Offline stand-in for the subset of the `criterion` 0.5 API this
//! workspace's benches use: [`Criterion::bench_function`],
//! [`Bencher::iter`], [`Bencher::iter_batched`], [`BatchSize`], and the
//! [`criterion_group!`] / [`criterion_main!`] macros.
//!
//! Measurement model (much simpler than upstream, intentionally):
//! each benchmark is warmed up for ~50 ms, then timed in batches until
//! ~300 ms of samples or 61 batches are collected, and the median
//! per-iteration time is reported on stdout as
//! `name  time: [median ns/iter] (n samples)`.
//!
//! Under `cargo test` (cargo passes `--test` to `harness = false`
//! bench targets) every benchmark body runs exactly once as a smoke
//! test, mirroring upstream criterion's behavior.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How [`Bencher::iter_batched`] amortizes setup cost. The shim runs
/// one setup per measured invocation regardless of the variant, so the
/// distinction only documents intent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small inputs: many per batch upstream.
    SmallInput,
    /// Large inputs: few per batch upstream.
    LargeInput,
    /// One input per batch.
    PerIteration,
}

/// Benchmark driver handed to the functions in a
/// [`criterion_group!`].
#[derive(Debug)]
pub struct Criterion {
    test_mode: bool,
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let test_mode = args.iter().any(|a| a == "--test");
        // First free (non-flag) argument is a substring filter, as in
        // upstream criterion / libtest.
        let filter = args.iter().find(|a| !a.starts_with('-')).cloned();
        Self { test_mode, filter }
    }
}

impl Criterion {
    /// Run (or, under `--test`, smoke-run) one benchmark.
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        if let Some(filter) = &self.filter {
            if !id.contains(filter.as_str()) {
                return self;
            }
        }
        let mut bencher = Bencher {
            test_mode: self.test_mode,
            samples_ns: Vec::new(),
        };
        f(&mut bencher);
        if self.test_mode {
            println!("test {id} ... ok");
        } else {
            bencher.report(id);
        }
        self
    }

    /// Upstream-compat no-op.
    pub fn final_summary(&mut self) {}
}

/// Times one benchmark body.
#[derive(Debug)]
pub struct Bencher {
    test_mode: bool,
    samples_ns: Vec<f64>,
}

impl Bencher {
    /// Benchmark `routine` (its return value is black-boxed and
    /// dropped).
    pub fn iter<O, F>(&mut self, mut routine: F)
    where
        F: FnMut() -> O,
    {
        if self.test_mode {
            black_box(routine());
            return;
        }
        // Warm up and pick a batch size targeting ~5 ms per batch.
        let per_iter = Self::warmup(|| {
            black_box(routine());
        });
        let batch = Self::batch_for(per_iter);
        let deadline = Instant::now() + Duration::from_millis(300);
        while self.samples_ns.len() < 61 && Instant::now() < deadline {
            let t0 = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            self.samples_ns
                .push(t0.elapsed().as_nanos() as f64 / batch as f64);
        }
    }

    /// Benchmark `routine` on fresh inputs from `setup`; only the
    /// routine is timed.
    pub fn iter_batched<I, O, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> O,
    {
        if self.test_mode {
            black_box(routine(setup()));
            return;
        }
        // Warm up once.
        black_box(routine(setup()));
        let deadline = Instant::now() + Duration::from_millis(300);
        while self.samples_ns.len() < 61 && Instant::now() < deadline {
            let input = setup();
            let t0 = Instant::now();
            black_box(routine(input));
            self.samples_ns.push(t0.elapsed().as_nanos() as f64);
        }
    }

    /// Like [`Bencher::iter_batched`]; the shim does not distinguish.
    pub fn iter_batched_ref<I, O, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(&mut I) -> O,
    {
        self.iter_batched(&mut setup, |mut i| routine(&mut i), _size);
    }

    fn warmup(mut body: impl FnMut()) -> f64 {
        let t0 = Instant::now();
        let mut iters = 0u64;
        while t0.elapsed() < Duration::from_millis(50) {
            body();
            iters += 1;
        }
        t0.elapsed().as_nanos() as f64 / iters.max(1) as f64
    }

    fn batch_for(per_iter_ns: f64) -> u64 {
        // ~5 ms batches, at least one iteration.
        ((5e6 / per_iter_ns.max(1.0)).ceil() as u64).clamp(1, 1_000_000)
    }

    fn report(&mut self, id: &str) {
        if self.samples_ns.is_empty() {
            println!("{id:<44} time: [no samples]");
            return;
        }
        self.samples_ns.sort_by(f64::total_cmp);
        let median = self.samples_ns[self.samples_ns.len() / 2];
        println!(
            "{id:<44} time: [{} /iter] ({} samples)",
            format_ns(median),
            self.samples_ns.len()
        );
    }
}

fn format_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// Group benchmark functions, mirroring `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $(
                $target(&mut criterion);
            )+
        }
    };
    (name = $group:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $cfg;
            $(
                $target(&mut criterion);
            )+
        }
    };
}

/// Entry point for a `harness = false` bench target.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $(
                $group();
            )+
        }
    };
}
