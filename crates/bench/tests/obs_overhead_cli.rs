//! `obs_overhead`'s command line, run as a process: a bad argument
//! exits 2, and each internal `--side` prints one timing.

use std::process::{Command, Output};

fn obs_overhead(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_obs_overhead"))
        .args(args)
        .output()
        .expect("spawn obs_overhead")
}

#[test]
fn a_bad_argument_exits_2_with_the_usage() {
    for args in [
        &["--bogus"][..],
        &["--side"],
        &["--side", "both"],
        &["--side", "base", "--side", "instr"],
    ] {
        let out = obs_overhead(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.ends_with("usage: obs_overhead\n"), "{stderr}");
    }
}

#[test]
fn each_side_prints_its_timing_in_ns() {
    for side in ["base", "instr"] {
        let out = obs_overhead(&["--side", side]);
        assert!(out.status.success(), "{side}");
        let ns: u64 = String::from_utf8_lossy(&out.stdout)
            .trim()
            .parse()
            .expect("one integer");
        assert!(ns > 0, "{side}");
    }
}
