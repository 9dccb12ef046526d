//! The `repro` binary end to end: the §7 ablation numbers it prints are
//! pinned across builds, and its command line rejects what it would
//! otherwise silently ignore.

use std::process::Command;
use trips_experiments::runner::ablations;
use trips_workloads::Scale;

/// Every ablation point at Test scale as `study setting: workload cycles
/// mispredicts avg_hops`, computed by an earlier build of the simulator
/// (`avg_hops` in full, round-trip precision). A deliberate timing-model
/// change updates them; anything else must leave them be.
const PINNED: &str = "\
block cap 8: autocor 25540 67 1.177485284499673
block cap 24: autocor 14494 27 1.2529121673327097
block cap 64: autocor 7580 23 1.2790279322299993
dispatch interval 1: fft 5729 21 1.0568309519987158
dispatch interval 8: fft 5746 21 1.0568309519987158
dispatch interval 16: fft 6071 21 1.0568309519987158
predictor prototype: gzip 16513 9 1.0509806426883026
predictor improved: gzip 16513 9 1.0509806426883026
placement Sps: conv 11022 56 1.0219155844155845
placement RowMajor: conv 23101 56 1.6677489177489178
placement Scatter: conv 21101 56 3.4959415584415585";

#[test]
fn ablations_reproduce_the_pinned_numbers() {
    let measured: Vec<String> = ablations(Scale::Test)
        .iter()
        .map(|a| {
            format!(
                "{} {}: {} {} {} {:?}",
                a.study, a.setting, a.workload, a.cycles, a.mispredicts, a.avg_hops
            )
        })
        .collect();
    assert_eq!(measured.join("\n"), PINNED);
}

#[test]
fn trailing_arguments_are_an_error() {
    for args in [&["table1", "--bogus"][..], &["table1", "table2"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("repro runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("`{}`", args[1])),
            "{args:?}: error must name the leftover argument: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?}: nothing may run");
    }
}
