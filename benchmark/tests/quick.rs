//! The `--quick` suite end to end, and the contract between the code's
//! metric tables and `BENCHMARK.json`.

use dual_benchmark::json::Json;
use dual_benchmark::run::{run, Args};
use dual_benchmark::spec::{valid_name, Scale, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::Command;

/// Tests run on parallel threads, so each passes its own `tag` and
/// never shares an output directory with another.
fn quick(workload: &str, trace: bool, seed: u64, tag: &str) -> dual_benchmark::run::RunResult {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag);
    run(&Args {
        workload: workload.to_owned(),
        seed,
        seconds: 0.0,
        trace,
        scale: Scale::Quick,
        out_dir,
    })
    .unwrap_or_else(|e| panic!("{workload} (trace {trace}): {e}"))
}

#[test]
fn quick_mode_runs_every_workload_with_every_check() {
    for workload in WORKLOADS {
        let e2e = quick(workload, false, 42, "suite");
        assert!(e2e.correct(), "{}", e2e.human());
        assert!(e2e.attempted >= 1 && e2e.failed == 0);
        let names: Vec<&str> = e2e.metrics.iter().map(|m| m.0).collect();
        assert_eq!(names, END_TO_END.iter().map(|m| m.0).collect::<Vec<_>>());
        for &(name, value, _) in &e2e.metrics {
            assert!(
                value.is_finite() && value > 0.0,
                "{workload} {name} = {value}"
            );
        }

        let traced = quick(workload, true, 42, "suite");
        assert!(traced.correct(), "{}", traced.human());
        let names: Vec<&str> = traced.metrics.iter().map(|m| m.0).collect();
        assert_eq!(names, PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>());
        assert!(traced.metrics.iter().all(|m| m.1.is_finite()));
        assert!(traced.metric("bench.spans").unwrap() >= 5.0);
        // Untraced run, traced run and a repeat agree on the state.
        assert_eq!(e2e.state_digest, traced.state_digest, "{workload}");
        assert_eq!(
            e2e.state_digest,
            quick(workload, false, 42, "suite").state_digest
        );
        // The seed reaches the generator.
        assert_ne!(
            e2e.state_digest,
            quick(workload, false, 43, "suite").state_digest
        );

        // The result line holds exactly the four contract keys.
        let line = Json::parse(&e2e.result_line()).unwrap();
        let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}

#[test]
fn traced_run_writes_a_chrome_trace() {
    let traced = quick("stream_codebook", true, 7, "chrome");
    assert!(traced.correct(), "{}", traced.human());
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("chrome")
        .join("stream_codebook.trace.json");
    let trace = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let events = trace.get("traceEvents").unwrap().items();
    assert_eq!(events.len() as f64, traced.metric("bench.spans").unwrap());
    for name in [
        "stream.push",
        "stream.tick",
        "hdc.encode",
        "hdc.search",
        "stream.online.observe",
    ] {
        assert!(
            events
                .iter()
                .any(|e| e.get("name").and_then(Json::as_str) == Some(name)),
            "no {name} span"
        );
    }
}

#[test]
fn unknown_workload_is_an_error() {
    let err = run(&Args {
        workload: "nope".into(),
        seed: 1,
        seconds: 0.0,
        trace: false,
        scale: Scale::Quick,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")),
    });
    assert!(err.is_err());
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let keys: Vec<&str> = spec.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let names = |group: &str| -> Vec<(String, String)> {
        spec.get(group)
            .unwrap()
            .items()
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter().map(|m| (m.0.to_owned(), m.1.to_owned())).collect()
    };
    assert_eq!(names("end_to_end"), table(&END_TO_END));
    assert_eq!(names("per_layer"), table(&PER_LAYER));
    let workloads: Vec<&str> = spec
        .get("workloads")
        .unwrap()
        .items()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(workloads, WORKLOADS);

    for m in spec.get("end_to_end").unwrap().items() {
        let name = m.get("name").and_then(Json::as_str).unwrap();
        let bound = m.get("bound").and_then(Json::as_f64).unwrap();
        assert!(valid_name(name));
        assert!(bound > 0.0 && bound <= 0.25, "{name}: {bound}");
        let better = m.get("better").and_then(Json::as_str).unwrap();
        assert!(better == "lower" || better == "higher");
    }
    let setup = &spec.get("end_to_end").unwrap().items()[0];
    assert_eq!(setup.get("name").and_then(Json::as_str), Some("setup_s"));
    assert_eq!(setup.get("better").and_then(Json::as_str), Some("lower"));
    let seconds = spec.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
}

#[test]
fn the_binary_refuses_to_measure_a_debug_build() {
    // `cargo test` builds the binary with debug assertions on.
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args([
            "run",
            "--workload",
            "stream_codebook",
            "--quick",
            "--seconds",
            "0",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("debug build"));
}
