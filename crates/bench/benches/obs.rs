//! Observability overhead on the replay hot loop.
//!
//! The disabled path (`obs/trips_replay_bare`) is the shipping default: no
//! trace sink, no cost scope. The instrumented pairs measure the same
//! replay with the per-row cost collector active and with the span journal
//! writing to a scratch file. The acceptance bar is <1% between the bare
//! and cost-scoped runs — all the hot loop sees is one relaxed atomic
//! load per replay plus a handful of clock reads at phase boundaries.
//!
//! Ordering matters: `enable_trace` is process-global and irreversible, so
//! the bare and cost-only benchmarks register before the traced one runs.

use criterion::{criterion_group, criterion_main, Criterion};
use trips_bench::MEM;
use trips_compiler::{compile, CompileOptions};
use trips_isa::{TraceLog, TraceMeta};
use trips_sim::{ReplayMode, TripsConfig};
use trips_workloads::Scale;

const SIM_BUDGET: u64 = 1_000_000;

fn bench_obs_overhead(c: &mut Criterion) {
    // bzip2 at Ref scale: the largest bundled stream, the same hot loop
    // the sampling benchmarks gate on.
    let w = trips_workloads::by_name("bzip2").unwrap();
    let compiled = compile(&(w.build)(Scale::Ref), &CompileOptions::o2()).unwrap();
    let log = TraceLog::capture(
        &compiled.trips,
        &compiled.opt_ir,
        MEM,
        SIM_BUDGET,
        TraceMeta::default(),
    )
    .unwrap();
    let cfg = TripsConfig::prototype();
    let replay = || {
        trips_sim::timing::replay_trace_mode(&compiled, &cfg, &log, &ReplayMode::Full)
            .unwrap()
            .stats
            .cycles
    };

    assert!(!trips_obs::trace_enabled(), "bare run must precede tracing");
    c.bench_function("obs/trips_replay_bare/bzip2", |b| b.iter(replay));

    c.bench_function("obs/trips_replay_cost_scope/bzip2", |b| {
        b.iter(|| {
            let scope = trips_obs::cost::begin_row();
            let cycles = replay();
            (cycles, scope.finish().detailed_ns)
        })
    });

    let journal = std::env::temp_dir().join("trips-obs-bench-journal.jsonl");
    trips_obs::enable_trace(&journal).expect("install trace sink");
    c.bench_function("obs/trips_replay_traced/bzip2", |b| {
        b.iter(|| {
            let _span = trips_obs::span("bench.replay");
            let scope = trips_obs::cost::begin_row();
            let cycles = replay();
            (cycles, scope.finish().detailed_ns)
        })
    });
    trips_obs::flush_trace();
    let _ = std::fs::remove_file(&journal);
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
