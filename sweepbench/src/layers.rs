//! The traced repetition: one more sweep with span journaling on, then
//! the benchmark's own timed calls into each layer's public functions,
//! each wrapped in a `bench.*` span. Per-layer numbers are read back from
//! the folded journal, never from a second stopwatch.

use std::collections::HashMap;
use std::path::PathBuf;

use trips_compiler::CompileOptions;
use trips_engine::cache::{
    code_sig, ooo_cfg_sig, opts_sig, risc_code_sig, trips_cfg_sig, RiscArtifacts,
};
use trips_engine::obs::report::{parse_journal, SpanRecord};
use trips_engine::store::{plan_sig, KIND_BLOCK_TRACE, KIND_RISC_TRACE};
use trips_engine::{
    parallel_map, BbvId, CacheStats, LivePointId, LivePointSet, LivePointStates, LoadOutcome,
    PhaseK, PhaseSpec, ReplayMode, RiscTraceId, SweepSpec, TraceStore,
};
use trips_isa::{TraceId, TraceLog, TraceMeta};
use trips_obs::span;
use trips_risc::{RiscTrace, RiscTraceMeta};
use trips_sim::TripsConfig;
use trips_workloads::{by_name, Scale};

use crate::measure::{fresh_session, median, timed_sweep, Scratch, Setup, Timed};
use crate::Metric;

/// `parallel_map` calls timed for `pool.parallel_map_us`.
const POOL_CALLS: usize = 101;

fn scale_label(scale: Scale) -> &'static str {
    match scale {
        Scale::Test => "test",
        Scale::Ref => "ref",
    }
}

/// Work counts of the layer calls, the numerators of their rates.
#[derive(Default)]
struct Work {
    blocks: u64,
    risc_insts: u64,
    saved_bytes: u64,
    trace_bytes: u64,
    livepoint_bytes: u64,
    files: Vec<PathBuf>,
}

fn file_len(path: &std::path::Path) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("stat {}: {e}", path.display()))
}

fn hit<T>(outcome: LoadOutcome<T>, what: &str) -> Result<Box<T>, String> {
    match outcome {
        LoadOutcome::Hit(v) => Ok(v),
        LoadOutcome::Miss => Err(format!("{what}: not in the store")),
        LoadOutcome::Reject(e) | LoadOutcome::IoError(e) => Err(format!("{what}: {e}")),
    }
}

fn bbv_id(parent_key: u64, spec: &PhaseSpec) -> BbvId {
    BbvId {
        parent_key,
        interval: spec.interval,
        warmup: spec.warmup,
        k_code: spec.k_code(),
        floor: spec.floor,
        rep_span: spec.rep_span,
        boundary: spec.boundary,
        tail: spec.tail,
    }
}

/// Calls every layer once for one program, the way a cold phased sweep
/// point does, then reads the containers back.
fn probe_program(
    name: &str,
    spec: &SweepSpec,
    cfg: &TripsConfig,
    store: &TraceStore,
    work: &mut Work,
) -> Result<(), String> {
    let w = by_name(name).ok_or_else(|| format!("unknown program {name}"))?;
    let scale = scale_label(spec.scale);
    let ropts = CompileOptions::gcc_ref();
    let core2 = trips_ooo::core2();

    let ir = (w.build)(spec.scale);
    let compiled = {
        let _s = span("bench.compiler.compile");
        trips_compiler::compile(&ir, &spec.opts).map_err(|e| format!("{name}: compile: {e}"))?
    };
    let mut rir = (w.build)(spec.scale);
    trips_compiler::opt::optimize(&mut rir, &ropts);
    let program = {
        let _s = span("bench.risc.compile");
        trips_risc::compile_program(&rir).map_err(|e| format!("{name}: risc codegen: {e}"))?
    };
    let art = RiscArtifacts { program, ir: rir };

    let tid = TraceId {
        workload: name.into(),
        scale: scale.into(),
        opts_sig: opts_sig(&spec.opts),
        hand: spec.hand,
        code_sig: code_sig(&compiled),
        mem_size: spec.mem as u64,
        max_blocks: spec.sim_budget,
    };
    let log = {
        let _s = span("bench.isa.capture");
        let meta = TraceMeta {
            workload: name.into(),
            scale: scale.into(),
            opts_sig: tid.opts_sig,
        };
        TraceLog::capture(
            &compiled.trips,
            &compiled.opt_ir,
            spec.mem,
            spec.sim_budget,
            meta,
        )
        .map_err(|e| format!("{name}: capture: {e}"))?
    };
    let rid = RiscTraceId {
        workload: name.into(),
        scale: scale.into(),
        opts_sig: opts_sig(&ropts),
        code_sig: risc_code_sig(&art),
        mem_size: spec.mem as u64,
        max_steps: spec.risc_budget,
    };
    let rtrace = {
        let _s = span("bench.risc.capture");
        let meta = RiscTraceMeta {
            workload: name.into(),
            scale: scale.into(),
            opts_sig: rid.opts_sig,
        };
        RiscTrace::capture(&art.program, &art.ir, spec.mem, spec.risc_budget, meta)
            .map_err(|e| format!("{name}: risc capture: {e}"))?
    };
    work.blocks += log.seq.len() as u64;
    work.risc_insts += rtrace.header.dynamic_insts;

    let (tkey, rkey) = (tid.stable_hash(), rid.stable_hash());
    let (tspec, rspec) = (PhaseSpec::trips(PhaseK::Auto), PhaseSpec::ooo(PhaseK::Auto));
    let tfit = {
        let _s = span("bench.phase.fit");
        trips_phase::trips_fit(&log, &tspec, tkey)
    };
    let rfit = {
        let _s = span("bench.phase.fit");
        trips_phase::risc_fit(&rtrace, &art.program, &rspec, rkey)
            .map_err(|e| format!("{name}: risc fit: {e}"))?
    };

    {
        let _s = span("bench.tsim.replay_full");
        trips_sim::timing::replay_trace_mode(&compiled, cfg, &log, &ReplayMode::Full)
            .map_err(|e| format!("{name}: replay: {e}"))?;
    }
    {
        let _s = span("bench.ooo.replay_full");
        trips_ooo::run_timed_trace_mode(&art.program, &rtrace, &core2, &ReplayMode::Full)
            .map_err(|e| format!("{name}: ooo replay: {e}"))?;
    }

    // Live-points: the sequential capture pass, then each window replayed
    // from its checkpoint. Plans that time everything have no windows to
    // restore.
    let mut sets: Vec<(LivePointId, LivePointSet)> = Vec::new();
    if !tfit.plan.covers_everything() {
        let (_, snaps) = {
            let _s = span("bench.tsim.livepoint_capture");
            trips_sim::timing::replay_trace_phased_capture(&compiled, cfg, &log, &tfit.plan)
                .map_err(|e| format!("{name}: live-point capture: {e}"))?
        };
        for (window, snap) in tfit.plan.windows.iter().zip(&snaps) {
            let _s = span("bench.tsim.window");
            trips_sim::replay_trips_window(&compiled, cfg, &log, window, snap)
                .map_err(|e| format!("{name}: window replay: {e}"))?;
        }
        let id = LivePointId {
            parent_key: tkey,
            plan_sig: plan_sig(&tfit.plan),
            cfg_sig: trips_cfg_sig(cfg),
            core: KIND_BLOCK_TRACE,
        };
        sets.push((
            id,
            livepoint_set(&id, tfit.plan.total_units, LivePointStates::Trips(snaps)),
        ));
    }
    if !rfit.plan.covers_everything() {
        let (_, snaps) = {
            let _s = span("bench.ooo.livepoint_capture");
            trips_ooo::run_ooo_phased_capture(&art.program, &rtrace, &core2, &rfit.plan)
                .map_err(|e| format!("{name}: ooo live-point capture: {e}"))?
        };
        for (window, snap) in rfit.plan.windows.iter().zip(&snaps) {
            let _s = span("bench.ooo.window");
            trips_ooo::replay_ooo_window(&art.program, &rtrace, &core2, window, snap)
                .map_err(|e| format!("{name}: ooo window replay: {e}"))?;
        }
        let id = LivePointId {
            parent_key: rkey,
            plan_sig: plan_sig(&rfit.plan),
            cfg_sig: ooo_cfg_sig(&core2),
            core: KIND_RISC_TRACE,
        };
        sets.push((
            id,
            livepoint_set(&id, rfit.plan.total_units, LivePointStates::Ooo(snaps)),
        ));
    }

    // Write all four container kinds, then read each back.
    let io = |e: std::io::Error| format!("{name}: store write: {e}");
    {
        let _s = span("bench.store.save");
        store.save(&tid, &log).map_err(io)?;
        store.save_risc(&rid, &rtrace).map_err(io)?;
        store.save_bbv(&bbv_id(tkey, &tspec), &tfit).map_err(io)?;
        store.save_bbv(&bbv_id(rkey, &rspec), &rfit).map_err(io)?;
        for (id, set) in &sets {
            store.save_livepoint(id, set).map_err(io)?;
        }
    }
    let traces = [store.path_for(&tid), store.path_for_risc(&rid)];
    let bbvs = [
        store.path_for_bbv(&bbv_id(tkey, &tspec)),
        store.path_for_bbv(&bbv_id(rkey, &rspec)),
    ];
    let ids: Vec<LivePointId> = sets.into_iter().map(|(id, _)| id).collect();
    let livepoints: Vec<PathBuf> = ids.iter().map(|id| store.path_for_livepoint(id)).collect();
    for p in &traces {
        work.trace_bytes += file_len(p)?;
    }
    for p in &livepoints {
        work.livepoint_bytes += file_len(p)?;
    }
    for p in traces.iter().chain(&bbvs).chain(&livepoints) {
        work.saved_bytes += file_len(p)?;
    }

    let loaded = {
        let _s = span("bench.store.load_trace");
        (
            hit(store.load(&tid), "trace")?,
            hit(store.load_risc(&rid), "risc trace")?,
        )
    };
    drop(loaded);
    for id in &ids {
        let set = {
            let _s = span("bench.store.load_livepoint");
            hit(store.load_livepoint(id), "live-points")?
        };
        drop(set);
    }
    work.files.extend(traces);
    work.files.extend(bbvs);
    work.files.extend(livepoints);
    Ok(())
}

fn livepoint_set(id: &LivePointId, total_units: u64, states: LivePointStates) -> LivePointSet {
    LivePointSet {
        parent_key: id.parent_key,
        plan_sig: id.plan_sig,
        cfg_sig: id.cfg_sig,
        core: id.core,
        total_units,
        states,
    }
}

/// Whole-program share of stream units timed in detail, over every
/// timing row (1.0 for full replay).
fn detailed_frac(rows: &[trips_engine::SweepRow]) -> f64 {
    use trips_engine::RowDetail;
    let (detailed, total) = rows.iter().fold((0u64, 0u64), |(d, t), r| match &r.detail {
        RowDetail::Trips(s) => (d + s.detailed_units, t + s.total_units),
        RowDetail::Ooo(s) => (d + s.insts, t + s.total_insts),
        _ => (d, t),
    });
    if total == 0 {
        0.0
    } else {
        detailed as f64 / total as f64
    }
}

fn memo_hit_ratio(c: &CacheStats) -> f64 {
    let hits = c.compile_hits
        + c.trace_hits
        + c.isa_hits
        + c.risc_hits
        + c.rtrace_hits
        + c.phase_hits
        + c.livepoint_hits
        + c.replay_hits
        + c.ooo_replay_hits;
    let misses = c.compile_misses
        + c.trace_misses
        + c.isa_misses
        + c.risc_misses
        + c.rtrace_misses
        + c.phase_misses
        + c.livepoint_misses
        + c.replay_misses
        + c.ooo_replay_misses;
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Runs the traced repetition and the layer calls, and folds the journal
/// into the per-layer metrics. The traced sweep's rows go through the
/// same output check as the timed ones.
pub fn traced(
    spec: &SweepSpec,
    setup: &mut Setup,
    timed: &mut Timed,
) -> Result<Vec<Metric>, String> {
    let scratch = Scratch::new("trace")?;
    let journal = scratch.path().join("spans.jsonl");
    trips_obs::enable_trace(&journal).map_err(|e| format!("opening span journal: {e}"))?;
    let probe_store = Scratch::new("probe")?;
    let store =
        TraceStore::open(probe_store.path()).map_err(|e| format!("opening probe store: {e}"))?;
    let mut work = Work::default();
    let (report, traced_s) = {
        let _root = span("bench.traced_run");
        let (session, cold_dir) = fresh_session(setup)?;
        let (report, secs, _) = {
            let _s = span("bench.sweep");
            timed_sweep(spec, &session)?
        };
        drop(session);
        drop(cold_dir);
        let cfg = &spec.configs[0].cfg;
        for name in &spec.workloads {
            probe_program(name, spec, cfg, &store, &mut work)?;
        }
        for path in &work.files {
            let _s = span("bench.store.read");
            let bytes =
                std::fs::read(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
            std::hint::black_box(bytes);
        }
        for _ in 0..POOL_CALLS {
            let jobs: Vec<usize> = (0..spec.threads * 8).collect();
            let _s = span("bench.pool.parallel_map");
            std::hint::black_box(parallel_map(jobs, spec.threads, std::hint::black_box));
        }
        (report, secs)
    };
    timed.check(setup, &report);
    trips_obs::flush_trace();
    let text =
        std::fs::read_to_string(&journal).map_err(|e| format!("reading span journal: {e}"))?;
    let records = parse_journal(&text).map_err(|e| format!("parsing span journal: {e}"))?;
    let profile = trips_obs::fold_report(&records);
    let incl: HashMap<&str, f64> = profile
        .labels
        .iter()
        .map(|l| (l.label.as_str(), l.incl_ns as f64 / 1e6))
        .collect();
    let ms = |label: &str| incl.get(label).copied().unwrap_or(0.0);
    let median_ms = |label: &str| {
        let v: Vec<f64> = records
            .iter()
            .filter(|r: &&SpanRecord| r.label == label)
            .map(|r| r.dur_ns as f64 / 1e6)
            .collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    };
    // Amount per second over a span total in milliseconds.
    let rate = |amount: f64, ms: f64| if ms > 0.0 { amount * 1e3 / ms } else { 0.0 };
    let (blocks, insts) = (work.blocks as f64, work.risc_insts as f64);
    let wall_ms: f64 = report.rows.iter().map(|r| r.wall_ms).sum();
    let attributed_ns: u64 = report.rows.iter().map(|r| r.cost.attributed_ns()).sum();
    let queue_ns: u64 = report.rows.iter().map(|r| r.cost.queue_ns).sum();
    let c = &report.cache;
    let m = |name, unit, value| Metric { name, unit, value };
    Ok(vec![
        m("compiler.compile_ms", "ms", ms("bench.compiler.compile")),
        m("risc.compile_ms", "ms", ms("bench.risc.compile")),
        m("isa.capture_ms", "ms", ms("bench.isa.capture")),
        m(
            "isa.capture_kblocks_per_s",
            "kblocks/s",
            rate(blocks / 1e3, ms("bench.isa.capture")),
        ),
        m("risc.capture_ms", "ms", ms("bench.risc.capture")),
        m(
            "risc.capture_minsts_per_s",
            "Minsts/s",
            rate(insts / 1e6, ms("bench.risc.capture")),
        ),
        m("phase.fit_ms", "ms", ms("bench.phase.fit")),
        m("sample.detailed_frac", "frac", detailed_frac(&report.rows)),
        m("sample.ipc_err_pct", "%", timed.ipc_err_pct),
        m(
            "tsim.replay_full_kblocks_per_s",
            "kblocks/s",
            rate(blocks / 1e3, ms("bench.tsim.replay_full")),
        ),
        m(
            "tsim.livepoint_capture_ms",
            "ms",
            ms("bench.tsim.livepoint_capture"),
        ),
        m("tsim.window_ms", "ms", median_ms("bench.tsim.window")),
        m(
            "ooo.replay_full_minsts_per_s",
            "Minsts/s",
            rate(insts / 1e6, ms("bench.ooo.replay_full")),
        ),
        m(
            "ooo.livepoint_capture_ms",
            "ms",
            ms("bench.ooo.livepoint_capture"),
        ),
        m("ooo.window_ms", "ms", median_ms("bench.ooo.window")),
        m(
            "store.save_mb_per_s",
            "MB/s",
            rate(work.saved_bytes as f64 / 1e6, ms("bench.store.save")),
        ),
        m(
            "store.load_trace_mb_per_s",
            "MB/s",
            rate(work.trace_bytes as f64 / 1e6, ms("bench.store.load_trace")),
        ),
        m(
            "store.load_livepoint_mb_per_s",
            "MB/s",
            rate(
                work.livepoint_bytes as f64 / 1e6,
                ms("bench.store.load_livepoint"),
            ),
        ),
        m(
            "store.read_mb_per_s",
            "MB/s",
            rate(work.saved_bytes as f64 / 1e6, ms("bench.store.read")),
        ),
        m("store.livepoint_bytes", "B", work.livepoint_bytes as f64),
        m(
            "cache.captures",
            "count",
            (c.captures + c.risc_captures) as f64,
        ),
        m(
            "cache.disk_hits",
            "count",
            (c.disk_hits + c.risc_disk_hits + c.phase_disk_hits) as f64,
        ),
        m(
            "cache.livepoint_disk_hits",
            "count",
            c.livepoint_disk_hits as f64,
        ),
        m("cache.memo_hit_ratio", "frac", memo_hit_ratio(c)),
        m(
            "pool.parallel_map_us",
            "us",
            median_ms("bench.pool.parallel_map") * 1e3,
        ),
        m("pool.queue_ms", "ms", queue_ns as f64 / 1e6),
        m(
            "pool.busy_frac",
            "frac",
            wall_ms / (traced_s * 1e3 * report.threads as f64),
        ),
        m(
            "sweep.attributed_frac",
            "frac",
            attributed_ns as f64 / (wall_ms * 1e6),
        ),
        m("obs.span_coverage", "frac", profile.coverage),
        m(
            "obs.tracing_overhead_pct",
            "%",
            (traced_s / median(&timed.sweep_s) - 1.0) * 100.0,
        ),
    ])
}
