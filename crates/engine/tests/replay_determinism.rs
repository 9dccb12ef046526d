//! Trace-log persistence: a captured block trace round-trips losslessly
//! through both serde formats and replays to identical timing. That
//! replay is bit-identical to direct execution-driven simulation is one
//! of the shared timing contracts (`tests/timing_contracts.rs` in the
//! umbrella crate).

use trips_compiler::CompileOptions;
use trips_engine::cache::opts_sig;
use trips_isa::{TraceLog, TraceMeta};
use trips_sim::timing::replay_trace_mode;
use trips_sim::ReplayMode;
use trips_sim::TripsConfig;
use trips_workloads::{by_name, Scale};

const MEM: usize = 1 << 22;
const BUDGET: u64 = 1_000_000;

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
