//! The engine's correctness contract: replaying a captured trace must be
//! *bit-identical* to direct execution-driven simulation — same cycles,
//! same per-class network histograms, same predictor counters — for every
//! workload × configuration pair. If this holds, a sweep's one-capture,
//! N-replay structure changes nothing but wall-clock time.

use trips_compiler::CompileOptions;
use trips_engine::cache::opts_sig;
use trips_isa::{TraceLog, TraceMeta};
use trips_sim::timing::{replay_trace_mode, simulate_with_budget};
use trips_sim::ReplayMode;
use trips_sim::TripsConfig;
use trips_workloads::{by_name, Scale};

const MEM: usize = 1 << 22;
const BUDGET: u64 = 1_000_000;

#[test]
fn replayed_simstats_are_bit_identical_to_direct_simulation() {
    let opts = CompileOptions::o2();
    for name in ["autocor", "matrix"] {
        let w = by_name(name).unwrap();
        let program = (w.build)(Scale::Test);
        let compiled = trips_compiler::compile(&program, &opts).unwrap();
        let meta = TraceMeta {
            workload: name.into(),
            scale: "test".into(),
            opts_sig: opts_sig(&opts),
        };
        let log = TraceLog::capture(&compiled.trips, &compiled.opt_ir, MEM, BUDGET, meta).unwrap();
        assert!(log.dedup_ratio() >= 1.0);

        for cfg in [TripsConfig::prototype(), TripsConfig::improved_predictor()] {
            let direct = simulate_with_budget(&compiled, &cfg, MEM, BUDGET).unwrap();
            let replayed = replay_trace_mode(&compiled, &cfg, &log, &ReplayMode::Full).unwrap();
            assert_eq!(
                replayed.return_value, direct.return_value,
                "{name}: return value"
            );
            assert_eq!(
                replayed.stats, direct.stats,
                "{name}: replayed SimStats must match direct simulation exactly"
            );
            // And replay is itself deterministic.
            let replayed2 = replay_trace_mode(&compiled, &cfg, &log, &ReplayMode::Full).unwrap();
            assert_eq!(
                replayed.stats, replayed2.stats,
                "{name}: replay must be deterministic"
            );
        }
    }
}

#[test]
fn trace_log_roundtrips_through_both_serde_formats() {
    let opts = CompileOptions::o1();
    let w = by_name("conven").unwrap();
    let program = (w.build)(Scale::Test);
    let compiled = trips_compiler::compile(&program, &opts).unwrap();
    let meta = TraceMeta {
        workload: "conven".into(),
        scale: "test".into(),
        opts_sig: opts_sig(&opts),
    };
    let log = TraceLog::capture(&compiled.trips, &compiled.opt_ir, MEM, BUDGET, meta).unwrap();
    assert!(log.header.dynamic_blocks > 0);

    // Binary format (the storage format): lossless round-trip, and the
    // restored log replays to identical timing.
    let bytes = serde::bin::to_bytes(&log);
    let restored: TraceLog = serde::bin::from_bytes(&bytes).unwrap();
    assert_eq!(restored, log);
    let cfg = TripsConfig::prototype();
    let a = replay_trace_mode(&compiled, &cfg, &log, &ReplayMode::Full).unwrap();
    let b = replay_trace_mode(&compiled, &cfg, &restored, &ReplayMode::Full).unwrap();
    assert_eq!(a.stats, b.stats);

    // JSON round-trips too (debugging / interchange format).
    let text = serde::json::to_string(&log);
    let restored: TraceLog = serde::json::from_str(&text).unwrap();
    assert_eq!(restored, log);

    // Interning keeps the log compact relative to the raw stream.
    assert!(
        log.header.unique_shapes <= log.header.dynamic_blocks,
        "shapes {} must not exceed dynamic blocks {}",
        log.header.unique_shapes,
        log.header.dynamic_blocks
    );
}
