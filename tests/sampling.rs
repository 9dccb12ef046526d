//! Sampled-replay invariants, end to end (sample-everything ≡ full
//! replay on every core and configuration is the shared
//! `{trips,ooo}_covering_plans_equal_full` contract in
//! `tests/timing_contracts.rs`):
//!
//! * **Accuracy** — the interval-sampled IPC estimate stays within the
//!   documented bounds of full replay on bundled workloads at Ref scale
//!   (the full-set gate runs in the `sampled-accuracy` CI job; see the
//!   `#[ignore]`d tests).
//! * **Speedup** — sampled replay of the largest bundled workload
//!   (`bzip2`) is ≥ 5× faster than full replay (ignored by default:
//!   wall-clock assertions belong in the release-built CI job).

mod common;

use common::best_of_interleaved;
use trips::compiler::CompileOptions;
use trips::engine::{Session, Stream};
use trips::experiments::Run;
use trips::sample::ReplayMode;
use trips::sim;
use trips::workloads::{by_name, Scale};

/// A fast subset of the accuracy gate that runs under tier-1 `cargo test`:
/// three Ref-scale workloads, both backends, documented bounds.
#[test]
fn sampled_ipc_tracks_full_replay_on_ref_workloads() {
    let rows = trips::experiments::runner::sample_accuracy(
        &Run::new(&Session::new(), Scale::Ref),
        &["autocor", "routelookup", "vadd"].map(|n| by_name(n).unwrap()),
    );
    assert_eq!(rows.len(), 6);
    for r in &rows {
        // The OoO bound tightened from 5% to 4% when window metering
        // moved to the issue-attributed smoothed clock (worst measured
        // workload: 3.24%).
        let bound = if r.backend == "trips" { 0.02 } else { 0.04 };
        assert!(
            r.rel_err <= bound,
            "{}/{}: sampled {:.4} vs full {:.4} ({:+.2}%)",
            r.workload,
            r.backend,
            r.sampled_ipc,
            r.full_ipc,
            r.rel_err * 100.0
        );
        assert!(
            r.detailed_frac < 1.0,
            "{}/{} must actually sample",
            r.workload,
            r.backend
        );
    }
}

/// The full accuracy gate (every simple benchmark plus the two largest
/// bundled streams): TRIPS within 2% per workload, OoO within 4% per
/// workload (tightened from 5% by the issue-attributed window clock) and
/// 2% in aggregate. Run by the `sampled-accuracy` CI job in release
/// (`cargo test --release -- --ignored`).
#[test]
#[ignore = "release-built CI gate (slow under the debug profile)"]
fn sampled_accuracy_gate_full_set() {
    let mut ws = trips::workloads::simple();
    ws.push(by_name("bzip2").unwrap());
    ws.push(by_name("equake").unwrap());
    let rows =
        trips::experiments::runner::sample_accuracy(&Run::new(&Session::new(), Scale::Ref), &ws);
    let mut sum = std::collections::HashMap::new();
    for r in &rows {
        let bound = if r.backend == "trips" { 0.02 } else { 0.04 };
        assert!(
            r.rel_err <= bound,
            "{}/{}: {:+.2}% exceeds {:.0}%",
            r.workload,
            r.backend,
            r.rel_err * 100.0,
            bound * 100.0
        );
        let e = sum.entry(r.backend.clone()).or_insert((0.0f64, 0u32));
        e.0 += (r.sampled_ipc - r.full_ipc) / r.full_ipc.max(1e-12);
        e.1 += 1;
    }
    for (backend, (total, n)) in sum {
        let mean = total / f64::from(n);
        assert!(
            mean.abs() <= 0.02,
            "{backend}: aggregate sampled-vs-full IPC off by {:+.2}%",
            mean * 100.0
        );
    }
    // Sampling must actually engage on the long streams.
    assert!(
        rows.iter().any(|r| r.detailed_frac < 0.5),
        "no workload sampled below 50% detail"
    );
}

/// The speedup gate: sampled TRIPS replay of the largest bundled workload
/// (`bzip2`, 109,058 blocks at Ref scale) under the sparse plan is ≥ 5×
/// faster than full replay, in best times of interleaved runs. Run by
/// the `sampled-accuracy` CI job in release.
#[test]
#[ignore = "wall-clock assertion; run release via the sampled-accuracy CI job"]
fn sampled_replay_is_5x_faster_on_the_largest_workload() {
    let w = by_name("bzip2").unwrap();
    let session = Session::new();
    let trips = Stream::new(&w, Scale::Ref, CompileOptions::o2(), 1 << 22, 1_000_000);
    let compiled = session.compiled(&trips).unwrap();
    let log = session.trace(&trips).unwrap();
    let cfg = sim::TripsConfig::prototype();
    let mode = ReplayMode::Sampled(trips::experiments::runner::speedup_plan());
    // Warm both paths once before timing them.
    let full = sim::replay_trace_mode(&compiled, &cfg, &log, &ReplayMode::Full)
        .unwrap()
        .stats;
    let sampled = sim::replay_trace_mode(&compiled, &cfg, &log, &mode)
        .unwrap()
        .stats;
    let (tf, ts) = best_of_interleaved(
        &|| {
            let _ = sim::replay_trace_mode(&compiled, &cfg, &log, &ReplayMode::Full).unwrap();
        },
        &|| {
            let _ = sim::replay_trace_mode(&compiled, &cfg, &log, &mode).unwrap();
        },
    );
    let speedup = tf / ts;
    let err = (sampled.est_cycles as f64 - full.cycles as f64).abs() / full.cycles as f64;
    // Printed on success too, so a narrowing margin shows in the CI log.
    eprintln!("sampled replay {speedup:.2}x faster (bar 5.0x; full {tf:.3}s vs sampled {ts:.3}s)");
    assert!(
        speedup >= 5.0,
        "sampled replay only {speedup:.1}x faster (full {tf:.3}s vs sampled {ts:.3}s)"
    );
    assert!(
        err < 0.02,
        "largest-workload estimate off by {:.2}%",
        err * 100.0
    );
    assert!(sampled.sampled && sampled.detailed_frac() < 0.2);
}
