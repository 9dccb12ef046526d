//! The OoO timing-reuse contract: every reference-platform configuration
//! times a *recorded* RISC event stream, and the resulting statistics are
//! bit-identical to driving the timing model from a live functional
//! execution — in-process through the [`Session`], and across real process
//! boundaries through the trace store with zero re-executions on the warm
//! side.

use std::path::{Path, PathBuf};
use std::process::Command;

use trips_compiler::CompileOptions;
use trips_engine::{ReplayMode, Session, Stream};
use trips_workloads::{by_name, Scale};

/// Defaults the CLI runs under (see `SweepSpec::default`).
const MEM: usize = 1 << 22;
const RISC_BUDGET: u64 = 400_000_000;

const WORKLOADS: [&str; 2] = ["vadd", "autocor"];

fn all_configs() -> [trips_ooo::OooConfig; 3] {
    [
        trips_ooo::core2(),
        trips_ooo::pentium4(),
        trips_ooo::pentium3(),
    ]
}

#[test]
fn replay_matches_direct_execution_for_every_config() {
    let session = Session::new();
    for name in WORKLOADS {
        let w = by_name(name).unwrap();
        let stream = Stream::new(&w, Scale::Test, CompileOptions::gcc_ref(), MEM, RISC_BUDGET);
        let art = session.risc_program(&stream).unwrap();
        for cfg in all_configs() {
            let direct =
                trips_ooo::run_timed(&art.program, &art.ir, &cfg, MEM, RISC_BUDGET).unwrap();
            let replayed = session
                .ooo_replayed(&stream, &cfg, &ReplayMode::Full, None)
                .unwrap();
            assert_eq!(
                replayed.return_value, direct.return_value,
                "{name}/{}",
                cfg.name
            );
            assert_eq!(replayed.stats, direct.stats, "{name}/{}", cfg.name);
        }
    }
    let c = session.cache_stats();
    assert_eq!(
        c.risc_captures,
        WORKLOADS.len() as u64,
        "one functional execution per workload, however many configs time it"
    );
    assert!(
        c.rtrace_hits >= (WORKLOADS.len() * (all_configs().len() - 1)) as u64,
        "later configs must reuse the recorded stream: {c:?}"
    );
}

fn sweep(store: &Path, out: &Path) -> String {
    let exe = env!("CARGO_BIN_EXE_trips-sweep");
    let output = Command::new(exe)
        .args([
            "--workloads",
            "vadd,autocor",
            "--configs",
            "prototype",
            "--backends",
            "risc,core2,p4,p3",
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
fn two_process_round_trip_times_ooo_points_with_zero_reexecutions() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("ooo-roundtrip-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("store");

    // Process A: cold store, one RISC execution per workload, persisted.
    let err_a = sweep(&store, &dir.join("a.csv"));
    assert!(
        err_a.contains("risc store: disk_hits=0 disk_misses=2 disk_rejects=0 writes=2 captures=2"),
        "process A summary:\n{err_a}"
    );

    // Process B: same sweep, zero functional RISC executions — every OoO
    // point and every instruction count comes off process A's streams.
    let err_b = sweep(&store, &dir.join("b.csv"));
    assert!(
        err_b.contains("risc store: disk_hits=2 disk_misses=0 disk_rejects=0 writes=0 captures=0"),
        "process B summary:\n{err_b}"
    );

    // Identical measurements, modulo wall-clock.
    let rows_a = stable_rows(&dir.join("a.csv"));
    let rows_b = stable_rows(&dir.join("b.csv"));
    assert_eq!(rows_a, rows_b, "replayed-from-disk rows must match");
    assert_eq!(rows_a.len(), 8, "2 workloads x (risc + 3 OoO platforms)");

    // And bit-identical to direct (execution-driven) timing here in a third
    // process: persistence must not perturb a single cycle.
    for name in WORKLOADS {
        let w = by_name(name).unwrap();
        let session = Session::new();
        let art = session
            .risc_program(&Stream::new(
                &w,
                Scale::Test,
                CompileOptions::gcc_ref(),
                MEM,
                RISC_BUDGET,
            ))
            .unwrap();
        for (label, cfg) in [
            ("core2", trips_ooo::core2()),
            ("p4", trips_ooo::pentium4()),
            ("p3", trips_ooo::pentium3()),
        ] {
            let direct =
                trips_ooo::run_timed(&art.program, &art.ir, &cfg, MEM, RISC_BUDGET).unwrap();
            let prefix = format!("{name},{label},-,{},", direct.stats.cycles);
            assert!(
                rows_a.iter().any(|r| r.starts_with(&prefix)),
                "{name}/{label}: no row with cycles={} in {rows_a:?}",
                direct.stats.cycles
            );
        }
        // The RISC row's instruction count came off the stream too.
        let direct = trips_risc::run(&art.program, &art.ir, MEM, RISC_BUDGET).unwrap();
        let prefix = format!("{name},risc,-,{},", direct.stats.insts);
        assert!(
            rows_a.iter().any(|r| r.starts_with(&prefix)),
            "{name}/risc: no row with insts={} in {rows_a:?}",
            direct.stats.insts
        );
    }
}
