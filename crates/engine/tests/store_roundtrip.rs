//! The persistence contract, proven across real process boundaries:
//! process A (`trips-sweep --trace-dir`) populates the store, process B
//! replays with **zero captures**, and both report cycle counts
//! bit-identical to direct execution-driven simulation in this process.

use std::path::{Path, PathBuf};
use std::process::Command;

use trips_compiler::CompileOptions;
use trips_sim::timing::simulate_with_budget;
use trips_sim::TripsConfig;
use trips_workloads::{by_name, Scale};

/// Defaults the CLI runs under (see `SweepSpec::default`).
const MEM: usize = 1 << 22;
const BUDGET: u64 = 1_000_000;

fn sweep(store: &Path, out: &Path) -> String {
    let exe = env!("CARGO_BIN_EXE_trips-sweep");
    let output = Command::new(exe)
        .args([
            "--workloads",
            "vadd,autocor",
            "--configs",
            "prototype,improved",
            "--threads",
            "2",
            "--format",
            "csv",
        ])
        .arg("--trace-dir")
        .arg(store)
        .arg("--out")
        .arg(out)
        .output()
        .expect("spawn trips-sweep");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert!(output.status.success(), "trips-sweep failed:\n{stderr}");
    stderr
}

/// CSV rows without the header, truncated to the 15 deterministic
/// columns through `status` (wall_ms and the RowCost columns after it
/// may legitimately differ between runs — e.g. cold-capture vs warm-disk).
fn stable_rows(csv_path: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(csv_path).unwrap();
    let mut rows: Vec<String> = text
        .lines()
        .skip(1)
        .map(|l| l.split(',').take(15).collect::<Vec<_>>().join(","))
        .collect();
    rows.sort();
    rows
}

#[test]
fn two_process_round_trip_is_bit_identical_and_capture_free() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("store-roundtrip-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("store");

    // Process A: cold store, one capture per workload, both persisted.
    let err_a = sweep(&store, &dir.join("a.csv"));
    assert!(
        err_a.contains("disk_hits=0 disk_misses=2 disk_rejects=0 writes=2 captures=2"),
        "process A summary:\n{err_a}"
    );

    // Process B: same sweep, zero functional captures — every trace comes
    // off disk.
    let err_b = sweep(&store, &dir.join("b.csv"));
    assert!(
        err_b.contains("disk_hits=2 disk_misses=0 disk_rejects=0 writes=0 captures=0"),
        "process B summary:\n{err_b}"
    );

    // Identical measurements, modulo wall-clock.
    let rows_a = stable_rows(&dir.join("a.csv"));
    let rows_b = stable_rows(&dir.join("b.csv"));
    assert_eq!(rows_a, rows_b, "replayed-from-disk rows must match");
    assert_eq!(rows_a.len(), 4, "2 workloads x 2 configs");

    // And bit-identical to direct (execution-driven) simulation here in a
    // third process: persistence must not perturb a single cycle.
    let opts = CompileOptions::o1(); // the CLI's default preset
    for name in ["vadd", "autocor"] {
        let w = by_name(name).unwrap();
        let program = (w.build)(Scale::Test);
        let compiled = trips_compiler::compile(&program, &opts).unwrap();
        for (label, cfg) in [
            ("prototype", TripsConfig::prototype()),
            ("improved", TripsConfig::improved_predictor()),
        ] {
            let direct = simulate_with_budget(&compiled, &cfg, MEM, BUDGET).unwrap();
            let prefix = format!("{name},trips,{label},{},", direct.stats.cycles);
            assert!(
                rows_a.iter().any(|r| r.starts_with(&prefix)),
                "{name}/{label}: no row with cycles={} in {rows_a:?}",
                direct.stats.cycles
            );
        }
    }
}

/// A spec the sweep would reject fails before the store is opened: the
/// directory is never created, and `--trace-gc` neither scans nor prunes.
#[test]
fn rejected_spec_never_opens_the_store() {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("store-reject-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let cases: [(&[&str], &str); 2] = [
        (
            &["--trace-gc", "--workloads", "nosuch"],
            "unknown workload `nosuch`",
        ),
        (
            &["--sample", "16,48,128", "--phase", "auto"],
            "--sample and --phase are mutually exclusive",
        ),
    ];
    for (i, (args, message)) in cases.into_iter().enumerate() {
        let store = root.join(format!("store{i}"));
        let output = Command::new(env!("CARGO_BIN_EXE_trips-sweep"))
            .args(args)
            .arg("--trace-dir")
            .arg(&store)
            .output()
            .expect("spawn trips-sweep");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{args:?}:\n{stderr}");
        assert!(stderr.contains(message), "{args:?}:\n{stderr}");
        assert!(
            !stderr.contains("trace-gc:"),
            "{args:?} ran the gc:\n{stderr}"
        );
        assert!(!store.exists(), "{args:?} created {}", store.display());
    }
    let _ = std::fs::remove_dir_all(&root);
}
