//! Full vs sampled replay throughput on both timing cores — the perf
//! trajectory of the interval-sampling subsystem. Each pair times the same
//! recorded Ref-scale stream twice: everything in detail, then under the
//! accuracy plans the harness gates on (`trips 16,48,128`,
//! `ooo 64,384,1024`) and the sparse speedup plan (`16,48,1024`).

use criterion::{criterion_group, criterion_main, Criterion};
use trips_bench::MEM;
use trips_compiler::{compile, CompileOptions};
use trips_isa::{TraceLog, TraceMeta};
use trips_sample::{ReplayMode, SamplePlan};
use trips_sim::TripsConfig;
use trips_workloads::Scale;

const SIM_BUDGET: u64 = 1_000_000;
const RISC_BUDGET: u64 = 400_000_000;

fn bench_trips_replay(c: &mut Criterion) {
    // The largest bundled stream (~65k dynamic blocks at Ref): where the
    // sparse plan's ≥5× shows up. Small streams degenerate to full
    // coverage by design (boundary strata), so they would not measure
    // anything interesting here.
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
    c.bench_function("sampling/trips_replay_full/bzip2", |b| {
        b.iter(|| {
            trips_sim::timing::replay_trace_mode(&compiled, &cfg, &log, &ReplayMode::Full)
                .unwrap()
                .stats
                .cycles
        })
    });
    for plan in [
        SamplePlan::new(16, 48, 128).unwrap(),
        SamplePlan::new(16, 48, 1024).unwrap(),
    ] {
        let mode = ReplayMode::Sampled(plan);
        c.bench_function(format!("sampling/trips_replay_sampled_{plan}/bzip2"), |b| {
            b.iter(|| {
                trips_sim::timing::replay_trace_mode(&compiled, &cfg, &log, &mode)
                    .unwrap()
                    .stats
                    .est_cycles
            })
        });
    }
}

fn bench_ooo_replay(c: &mut Criterion) {
    let w = trips_workloads::by_name("vadd").unwrap();
    let mut ir = (w.build)(Scale::Ref);
    trips_compiler::opt::optimize(&mut ir, &CompileOptions::gcc_ref());
    let rp = trips_risc::compile_program(&ir).unwrap();
    let stream = trips_risc::RiscTrace::capture(
        &rp,
        &ir,
        MEM,
        RISC_BUDGET,
        trips_risc::RiscTraceMeta::default(),
    )
    .unwrap();
    let cfg = trips_ooo::core2();
    c.bench_function("sampling/ooo_replay_full/vadd", |b| {
        b.iter(|| {
            trips_ooo::run_timed_trace_mode(&rp, &stream, &cfg, &ReplayMode::Full)
                .unwrap()
                .stats
                .cycles
        })
    });
    let mode = ReplayMode::Sampled(SamplePlan::new(64, 384, 1024).unwrap());
    c.bench_function("sampling/ooo_replay_sampled_64,384,1024/vadd", |b| {
        b.iter(|| {
            trips_ooo::run_timed_trace_mode(&rp, &stream, &cfg, &mode)
                .unwrap()
                .stats
                .est_cycles
        })
    });
}

criterion_group!(benches, bench_trips_replay, bench_ooo_replay);
criterion_main!(benches);
