//! Live-point invariants, end to end (restore ≡ sequential on every
//! core and configuration, for hand-made plans and random partitions, is
//! the shared `{trips,ooo}_restore_equals_sequential` contract in
//! `tests/timing_contracts.rs`):
//!
//! * **Warm-store zero re-warming** — a second session over a warm trace
//!   store restores checkpoints from disk and replays only the measured
//!   windows: zero captures, zero stream-prefix re-warming, identical
//!   results (the TRIPS-side twin lives in
//!   `crates/engine/tests/trace_store.rs`; this one drives the OoO tier).
//! * **Speedup** — parallel window replay of the largest bundled workload
//!   (`bzip2`) from warmed checkpoints is at least `min(3, 0.75 × threads)`
//!   times faster than the sequential phased replay that re-warms the whole
//!   stream prefix (ignored by default: wall-clock assertions belong in
//!   the release-built CI job).

mod common;

use common::{best_of_interleaved, tiny_spec};
use trips::compiler::CompileOptions;
use trips::engine::sample::assemble_windows;
use trips::engine::{parallel_map, PhaseK, PhaseSpec, ReplayMode, Session, Stream, TraceStore};
use trips::workloads::{by_name, Scale};
use trips::{ooo, sim};

const MEM: usize = 1 << 20;

#[test]
fn warm_store_replays_ooo_windows_without_rewarming() {
    let dir = std::env::temp_dir().join(format!(
        "trips-livepoint-store-{}-{:x}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    let w = by_name("vadd").unwrap();
    let risc = Stream::new(&w, Scale::Test, CompileOptions::gcc_ref(), MEM, 400_000_000);
    let spec = PhaseSpec {
        interval: 64,
        ..tiny_spec(PhaseK::Auto)
    };
    let run = |dir: &std::path::Path| {
        let s = Session::with_store(TraceStore::open(dir).unwrap());
        let plan = s.ooo_phase_plan(&risc, &spec).unwrap();
        assert!(!plan.covers_everything());
        let mode = ReplayMode::Phased((*plan).clone());
        let res = s
            .ooo_replayed(&risc, &ooo::core2(), &mode, Some(2))
            .unwrap();
        (res, s.cache_stats())
    };

    // Process A: captures checkpoints along its phased replay, persists.
    let (a, st) = run(&dir);
    assert_eq!(
        (st.livepoint_captures, st.livepoint_store_writes),
        (1, 1),
        "cold store must capture once and persist: {st:?}"
    );

    // Process B (fresh session, same store): the stored checkpoints stand
    // in for the warming entirely.
    let (b, st2) = run(&dir);
    assert_eq!(
        (st2.livepoint_captures, st2.livepoint_disk_hits),
        (0, 1),
        "warm store must re-warm nothing: {st2:?}"
    );
    assert_eq!(a.stats, b.stats, "disk-restored replay must be identical");
    assert_eq!(a.return_value, b.return_value);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The parallel-replay speedup gate: with warmed checkpoints in hand,
/// replaying the measured windows of the largest bundled workload
/// (`bzip2`, 109,058 blocks at Ref scale) in parallel is at least
/// `min(3, 0.75 × threads)` times faster than the sequential phased
/// replay, which must re-warm the whole stream prefix between windows,
/// in best times of interleaved runs. Run by the `sampled-accuracy` CI
/// job in release.
#[test]
#[ignore = "wall-clock assertion; run release via the sampled-accuracy CI job"]
fn parallel_window_replay_is_3x_faster_on_the_largest_workload() {
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    if threads < 2 {
        eprintln!("skipping speedup gate: only {threads} hardware thread(s)");
        return;
    }
    let w = by_name("bzip2").unwrap();
    let session = Session::new();
    let trips = Stream::new(&w, Scale::Ref, CompileOptions::o2(), 1 << 22, 1_000_000);
    let compiled = session.compiled(&trips).unwrap();
    let log = session.trace(&trips).unwrap();
    let plan = session
        .trips_phase_plan(&trips, &PhaseSpec::trips(PhaseK::Auto))
        .unwrap();
    assert!(
        !plan.covers_everything(),
        "bzip2 must classify at Ref scale"
    );
    let cfg = sim::TripsConfig::prototype();
    let mode = ReplayMode::Phased((*plan).clone());
    // The capture pass warms both code paths and provides the checkpoints.
    let (seq, snaps) = sim::replay_trace_phased_capture(&compiled, &cfg, &log, &plan).unwrap();
    let parallel = || {
        let jobs: Vec<_> = plan.windows.iter().copied().zip(snaps.iter()).collect();
        let measures: Vec<_> = parallel_map(jobs, threads, |(win, snap)| {
            sim::replay_trips_window(&compiled, &cfg, &log, &win, snap).unwrap()
        });
        assemble_windows(sim::TsimCore::new(&compiled, &cfg, &log), &plan, &measures).unwrap()
    };
    let assembled = parallel();
    assert_eq!(
        assembled.stats, seq.stats,
        "parallel replay must be bit-identical"
    );
    let (tf, tp) = best_of_interleaved(
        &|| {
            let _ = sim::replay_trace_mode(&compiled, &cfg, &log, &mode).unwrap();
        },
        &|| {
            let _ = parallel();
        },
    );
    // The full 3x bar applies on >= 4 hardware threads (the CI runner);
    // smaller machines still must see 75% parallel efficiency.
    let bar = 3.0f64.min(threads as f64 * 0.75);
    let speedup = tf / tp;
    // Printed on success too, so a narrowing margin shows in the CI log.
    eprintln!(
        "parallel window replay {speedup:.2}x faster on {threads} threads \
         (bar {bar:.1}x; sequential {tf:.3}s vs parallel {tp:.3}s)"
    );
    assert!(
        speedup >= bar,
        "parallel window replay only {speedup:.1}x faster on {threads} threads \
         (bar {bar:.1}x; sequential {tf:.3}s vs parallel {tp:.3}s)"
    );
}
