//! The `repro` binary end to end: the §7 ablation numbers it prints are
//! pinned across builds, its command line rejects what it would otherwise
//! silently ignore before touching the trace store, and its flags measure
//! exactly what the matching in-process [`Run`] does.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use trips_engine::{PhaseK, SamplePlan, Session};
use trips_experiments::runner::ablations;
use trips_experiments::{exps, Run};
use trips_workloads::Scale;

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("repro-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn path_arg(p: &Path) -> &str {
    p.to_str().expect("utf-8 path")
}

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
        let out = repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("`{}`", args[1])),
            "{args:?}: error must name the leftover argument: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?}: nothing may run");
    }
}

#[test]
fn rejected_command_lines_never_create_the_store() {
    let root = scratch("reject");
    let store = root.join("store");
    let dir = path_arg(&store);
    for (args, message) in [
        (
            &["--trace-dir", dir, "--sample", "bogus", "table1"][..],
            "--sample: expected `warmup,detailed,period`",
        ),
        (
            &[
                "--trace-dir",
                dir,
                "--sample",
                "16,48,128",
                "--phase",
                "auto",
                "table1",
            ],
            "--sample and --phase are mutually exclusive",
        ),
        (
            &["--trace-dir", dir, "--phase", "0", "table1"],
            "--phase: expected `auto` or a positive cluster count",
        ),
        (
            &["--trace-dir", dir, "nosuch"],
            "unknown experiment nosuch; known: [",
        ),
        (
            &["--trace-dir", dir, "table1", "table2"],
            "unexpected argument(s) after `table1`: `table2` (one experiment name per run)",
        ),
        (
            &["table1", "--trace-dir", dir, "--sample"],
            "--sample needs warmup,detailed,period",
        ),
        (
            &["--trace-dir", dir, "table1", "--phase"],
            "--phase needs k|auto",
        ),
    ] {
        let out = repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(!stderr.contains("trace store:"), "{args:?}: {stderr}");
        assert!(!store.exists(), "{args:?} created the store");
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn replay_flags_print_what_the_matching_run_renders() {
    let session = Session::new();
    let base = Run::new(&session, Scale::Test);
    let sampled = Run {
        sample: Some(SamplePlan::new(16, 48, 128).expect("valid plan")),
        ..base
    };
    let phased = Run {
        phase: Some(PhaseK::Auto),
        ..base
    };
    for (flags, run) in [
        (["--sample", "16,48,128"], sampled),
        (["--phase", "auto"], phased),
    ] {
        let out = repro(&["--quick", flags[0], flags[1], "fig8"]);
        assert!(
            out.status.success(),
            "{flags:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            String::from_utf8(out.stdout).expect("utf-8 report"),
            format!("{}\n", exps::fig8(&run)),
            "{flags:?}"
        );
    }
}

#[test]
fn a_second_run_replays_every_capture_from_the_store() {
    let root = scratch("warm");
    let store = root.join("store");
    let store_line = || {
        let out = repro(&["--quick", "--trace-dir", path_arg(&store), "fig8"]);
        let stderr = String::from_utf8(out.stderr).expect("utf-8 log");
        assert!(out.status.success(), "{stderr}");
        stderr
            .lines()
            .find(|l| l.contains("] store: "))
            .unwrap_or_else(|| panic!("no store line in {stderr}"))
            .to_string()
    };
    let cold = store_line();
    assert!(
        !cold.ends_with(" captures=0"),
        "cold run captured nothing: {cold}"
    );
    let warm = store_line();
    assert!(
        warm.contains("disk_misses=0") && warm.ends_with(" writes=0 captures=0"),
        "warm run re-captured: {warm}"
    );
    let _ = std::fs::remove_dir_all(&root);
}
