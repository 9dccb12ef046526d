//! Shared measurement plumbing, built on the `trips-engine` session.
//!
//! Every measurement takes a [`Run`]: the [`Session`] it memoizes in, the
//! replay mode of its timing measurements and the problem scale. Figures
//! run on one session revisit the same workloads over and over but pay for
//! each compile and functional capture once. Timing comes from trace
//! *replay* on both backends: TRIPS cycle counts re-time one captured
//! [`trips_isa::TraceLog`] per configuration
//! ([`trips_sim::timing::replay_trace_mode`]), and out-of-order reference cycles
//! re-time one recorded [`trips_risc::RiscTrace`] per platform.
//!
//! Every figure number measures through a declarative [`SweepSpec`]
//! executed by [`trips_engine::run_sweep`] ([`sweep_rows`]), the same code
//! path `trips-sweep` drives from the command line: the sweep resolves the
//! run's `sample`/`phase` mode and runs a figure's points as parallel jobs
//! on the engine's pool. Three measurements stay off the sweep:
//! - the Core 2-icc column of [`perf_measurements`], because the sweep's
//!   OoO backends replay gcc-quality streams only;
//! - the §7 [`ablations`], which are execution-driven by design;
//! - the raw replays inside [`sample_accuracy`] and [`phase_accuracy`],
//!   which bypass the replay memo so their speedup column measures replay
//!   alone.
//!
//! A session built with [`Session::with_store`] also persists the captures
//! to a content-addressed directory, so successive figure runs (separate
//! processes) pay for each capture once per *store*. Runs with different
//! modes may share one session, or run side by side on their own.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use trips_compiler::placement::{place_block_with, PlacementPolicy};
use trips_compiler::{CompileOptions, CompiledProgram};
use trips_engine::{
    run_sweep, BackendSpec, ConfigVariant, PhaseK, PhasePlan, PhaseSpec, ReplayMode, RowDetail,
    SamplePlan, Session, Stream, SweepRow, SweepSpec,
};
use trips_isa::IsaStats;
use trips_ooo::OooStats;
use trips_risc::RiscStats;
use trips_sim::{SimStats, TripsConfig};
use trips_workloads::{Scale, Workload};

/// Memory size for all measurement runs.
pub const MEM: usize = 1 << 22;
/// Dynamic block budget for functional runs.
pub const FUNC_BUDGET: u64 = 3_000_000;
/// Dynamic block budget for cycle-level runs.
pub const SIM_BUDGET: u64 = 1_000_000;
/// Dynamic instruction budget for RISC/OoO runs.
pub const RISC_BUDGET: u64 = 400_000_000;

/// One run of the experiments: the session every measurement memoizes in,
/// the replay mode of the timing measurements, and the problem scale.
/// `sample` and `phase` mirror the [`SweepSpec`] fields of the same names:
/// both `None` is full replay, and at most one may be set.
#[derive(Clone, Copy)]
pub struct Run<'a> {
    /// The memoizing (and possibly store-backed) session.
    pub session: &'a Session,
    /// Interval-sample every timing measurement under this plan.
    pub sample: Option<SamplePlan>,
    /// Phase-classify every timing measurement with this cluster count.
    pub phase: Option<PhaseK>,
    /// Problem scale of every workload.
    pub scale: Scale,
}

impl<'a> Run<'a> {
    /// A full-replay run at `scale` on `session`.
    pub fn new(session: &'a Session, scale: Scale) -> Run<'a> {
        Run {
            session,
            sample: None,
            phase: None,
            scale,
        }
    }
}

/// ISA-level comparison data for one workload (Figures 3–5, §4.4).
#[derive(Debug, Clone)]
pub struct IsaMeasurement {
    /// Workload name.
    pub name: String,
    /// TRIPS functional statistics.
    pub trips: IsaStats,
    /// RISC (PowerPC-like) baseline statistics on equivalently optimized IR.
    pub risc: RiscStats,
    /// The compiled TRIPS program (for code-size accounting).
    pub compiled: Arc<CompiledProgram>,
}

/// The compile preset each flavour uses: gcc-quality scalar optimization
/// plus the aggressive block formation (unrolling + tree-height reduction)
/// the paper's compiler performs; `hand` maximizes both.
pub fn trips_preset(hand: bool) -> CompileOptions {
    if hand {
        CompileOptions::hand()
    } else {
        CompileOptions::o2()
    }
}

/// The TRIPS stream of `w` in the run ("compiled" or "hand" flavour)
/// under the cycle-level block budget.
fn trips_side(run: &Run, w: &Workload, hand: bool) -> Stream {
    Stream {
        hand,
        ..Stream::new(w, run.scale, trips_preset(hand), MEM, SIM_BUDGET)
    }
}

/// Compiles a workload for TRIPS ("compiled" or "hand" flavour), memoized
/// in the run's session.
pub fn compile_workload(run: &Run, w: &Workload, hand: bool) -> Arc<CompiledProgram> {
    run.session
        .compiled(&trips_side(run, w, hand))
        .unwrap_or_else(|e| panic!("{}: {e}", w.name))
}

/// The gcc-like optimization preset for the reference machines: full scalar
/// optimization but no loop unrolling (gcc -O2 does not unroll by default).
pub fn gcc_preset() -> CompileOptions {
    CompileOptions::gcc_ref()
}

/// The icc-like preset: unrolling and reassociation (icc -O3 flavour).
pub fn icc_preset() -> CompileOptions {
    CompileOptions::o2()
}

/// The RISC stream of `w` in the run under `opts` and the instruction
/// budget.
fn risc_side(run: &Run, w: &Workload, opts: CompileOptions) -> Stream {
    Stream::new(w, run.scale, opts, MEM, RISC_BUDGET)
}

/// The RISC-side artifacts (program + optimized IR) for the gcc-quality
/// baseline, memoized in the run's session.
pub fn risc_baseline(run: &Run, w: &Workload) -> Arc<trips_engine::RiscArtifacts> {
    run.session
        .risc_program(&risc_side(run, w, gcc_preset()))
        .unwrap_or_else(|e| panic!("{}: {e}", w.name))
}

/// The recorded RISC event stream of the gcc-quality baseline (memoized;
/// replayed by the OoO platforms and the predictor study).
pub fn risc_stream(run: &Run, w: &Workload) -> Arc<trips_risc::RiscTrace> {
    run.session
        .risc_trace(&risc_side(run, w, gcc_preset()))
        .unwrap_or_else(|e| panic!("{} (risc): {e}", w.name))
}

/// Executes a declarative sweep on the run's session, panicking on any
/// failed point (figures treat measurement failure as fatal, as the
/// hand-rolled loops did).
pub fn sweep_rows(run: &Run, spec: &SweepSpec) -> Vec<SweepRow> {
    let report = run_sweep(spec, run.session).unwrap_or_else(|e| panic!("sweep: {e}"));
    assert!(
        report.errors.is_empty(),
        "sweep points failed: {:?}",
        report.errors
    );
    report.rows
}

/// Deduplicates workloads by name, preserving first-seen order.
fn unique_names(ws: &[Workload]) -> Vec<String> {
    let mut seen = std::collections::HashSet::new();
    ws.iter()
        .filter(|w| seen.insert(w.name))
        .map(|w| w.name.to_string())
        .collect()
}

/// The [`SweepSpec`] behind [`figure_rows`].
fn figure_spec(run: &Run, ws: &[Workload], hand: bool, backends: &str) -> SweepSpec {
    SweepSpec {
        workloads: unique_names(ws),
        scale: run.scale,
        opts: trips_preset(hand),
        hand,
        configs: vec![ConfigVariant::prototype()],
        backends: BackendSpec::parse_group(backends).expect("static backend list"),
        mem: MEM,
        sim_budget: SIM_BUDGET,
        risc_budget: RISC_BUDGET,
        sample: run.sample,
        phase: run.phase,
        live_points: false,
        threads: 0,
    }
}

/// The sweep behind every timing figure: `backends` (a `trips-sweep
/// --backends` list) over `ws` on the prototype configuration, in the
/// run's replay mode. One row per workload and backend, measured as
/// parallel jobs on the engine's pool.
pub fn figure_rows(run: &Run, ws: &[Workload], hand: bool, backends: &str) -> Vec<SweepRow> {
    sweep_rows(run, &figure_spec(run, ws, hand, backends))
}

/// Measures ISA-level statistics for a workload set through one declarative
/// sweep (`isa` + `risc` backends), returning per-workload measurements.
/// The functional runs are memoized in the session; the RISC denominators
/// come off the recorded event stream.
pub fn isa_measurements(run: &Run, ws: &[Workload], hand: bool) -> HashMap<String, IsaMeasurement> {
    let rows = sweep_rows(
        run,
        &SweepSpec {
            configs: Vec::new(),
            sim_budget: FUNC_BUDGET,
            // Functional measurements: sampling has no cycle loop to shorten.
            sample: None,
            phase: None,
            ..figure_spec(run, ws, hand, "isa,risc")
        },
    );
    let mut isa: HashMap<String, (Arc<IsaStats>, Arc<CompiledProgram>)> = HashMap::new();
    let mut risc: HashMap<String, Arc<RiscStats>> = HashMap::new();
    for row in rows {
        match row.detail {
            RowDetail::Isa { stats, compiled } => {
                isa.insert(row.workload, (stats, compiled));
            }
            RowDetail::Risc(stats) => {
                risc.insert(row.workload, stats);
            }
            _ => {}
        }
    }
    isa.into_iter()
        .map(|(name, (stats, compiled))| {
            let r = risc
                .get(&name)
                .unwrap_or_else(|| panic!("{name}: no risc row"));
            // Results can differ in FP rounding (the TRIPS preset
            // reassociates FP reductions); integer workloads agree exactly.
            let m = IsaMeasurement {
                name: name.clone(),
                trips: (*stats).clone(),
                risc: (**r).clone(),
                compiled,
            };
            (name, m)
        })
        .collect()
}

/// Measures ISA-level statistics for one workload (convenience wrapper
/// over [`isa_measurements`] — still one sweep, one code path).
pub fn measure_isa(run: &Run, w: &Workload, hand: bool) -> IsaMeasurement {
    isa_measurements(run, std::slice::from_ref(w), hand)
        .remove(w.name)
        .expect("sweep returned the requested workload")
}

/// Measures TRIPS cycle-level statistics for a workload set through one
/// declarative sweep on the prototype configuration.
pub fn trips_measurements(run: &Run, ws: &[Workload], hand: bool) -> HashMap<String, SimStats> {
    figure_rows(run, ws, hand, "trips")
        .into_iter()
        .filter_map(|row| match row.detail {
            RowDetail::Trips(stats) => Some((row.workload, (*stats).clone())),
            _ => None,
        })
        .collect()
}

/// Cross-platform cycle-level comparison data for one workload (Figures 11
/// and 12).
#[derive(Debug, Clone, Default)]
pub struct PerfMeasurement {
    /// Workload name.
    pub name: String,
    /// TRIPS prototype, compiled code.
    pub trips_c: SimStats,
    /// TRIPS prototype, hand-optimized code (simple benchmarks only).
    pub trips_h: Option<SimStats>,
    /// Core 2 running gcc-quality code.
    pub core2_gcc: OooStats,
    /// Core 2 running icc-quality code.
    pub core2_icc: OooStats,
    /// Pentium 4, gcc.
    pub p4_gcc: OooStats,
    /// Pentium III, gcc.
    pub p3_gcc: OooStats,
}

/// Measures the cross-platform performance comparison for a workload set:
/// one sweep times compiled TRIPS code and the gcc-quality Core 2, Pentium 4
/// and Pentium III replays, and, with `include_hand`, a second times
/// hand-optimized TRIPS code. The Core 2-icc column is the one number off
/// the sweep (the sweep's OoO backends replay gcc-quality streams only): it
/// replays the icc-quality stream directly, in the same replay mode, one
/// parallel job per workload.
pub fn perf_measurements(
    run: &Run,
    ws: &[Workload],
    include_hand: bool,
) -> HashMap<String, PerfMeasurement> {
    let mut perf: HashMap<String, PerfMeasurement> = HashMap::new();
    for row in figure_rows(run, ws, false, "trips,core2,p4,p3") {
        let m = perf
            .entry(row.workload.clone())
            .or_insert_with(|| PerfMeasurement {
                name: row.workload.clone(),
                ..PerfMeasurement::default()
            });
        match (row.backend.as_str(), row.detail) {
            (_, RowDetail::Trips(stats)) => m.trips_c = (*stats).clone(),
            ("core2", RowDetail::Ooo(stats)) => m.core2_gcc = stats,
            ("p4", RowDetail::Ooo(stats)) => m.p4_gcc = stats,
            (_, RowDetail::Ooo(stats)) => m.p3_gcc = stats,
            _ => {}
        }
    }
    if include_hand {
        for (name, stats) in trips_measurements(run, ws, true) {
            perf.get_mut(&name).expect("compiled row").trips_h = Some(stats);
        }
    }
    let icc = trips_engine::parallel_map(ws.to_vec(), 0, |w| (w.name, core2_icc(run, &w)));
    for (name, stats) in icc {
        perf.get_mut(name).expect("compiled row").core2_icc = stats;
    }
    perf
}

/// Core 2 replaying the icc-quality stream of `w`, in the run's replay
/// mode.
fn core2_icc(run: &Run, w: &Workload) -> OooStats {
    let (session, stream) = (run.session, risc_side(run, w, icc_preset()));
    session
        .timing_mode(&stream, true, run.sample, run.phase)
        .and_then(|(mode, _)| session.ooo_replayed(&stream, &trips_ooo::core2(), &mode, None))
        .unwrap_or_else(|e| panic!("{} (core2-icc): {e}", w.name))
        .stats
        .clone()
}

/// Measures the cross-platform comparison for one workload (convenience
/// wrapper over [`perf_measurements`]).
pub fn measure_perf(run: &Run, w: &Workload, include_hand: bool) -> PerfMeasurement {
    perf_measurements(run, std::slice::from_ref(w), include_hand)
        .remove(w.name)
        .expect("sweep returned the requested workload")
}

/// The sampling plan the accuracy harness (and the CI gate) uses on the
/// TRIPS backend: 48-block measurement windows behind 16 blocks of timed
/// warmup, one per ~128-block mini-period. Measured on the bundled
/// workloads at Ref scale: every sampled stream within ±0.8% of full
/// replay.
pub fn trips_accuracy_plan() -> SamplePlan {
    SamplePlan::new(16, 48, 128).expect("static plan is valid")
}

/// The TRIPS-side sampling floor (in dynamic blocks): below this, streams
/// are too short for interval statistics (few mini-periods, phase
/// transients dominating) and the harness replays them in full instead —
/// which is also the cheaper option at that size.
pub const TRIPS_SAMPLE_FLOOR: u64 = 2048;

/// The OoO counterpart of [`trips_accuracy_plan`]: 384-instruction
/// windows behind 64 instructions of timed warmup per ~1024-instruction
/// mini-period. The OoO model's event-driven retirement clock is spikier
/// than the TRIPS commit clock (one DRAM miss moves it by a full memory
/// latency); metering windows on the issue-attributed smoothed clock
/// (see `trips_ooo::OooCore`) keeps in-flight DRAM tails out of whichever
/// window happens to be open, tightening the per-workload bound from
/// ~±4.2% to ≤3.3% (±0.2% in aggregate) on the bundled workloads at Ref
/// scale.
pub fn ooo_accuracy_plan() -> SamplePlan {
    SamplePlan::new(64, 384, 1024).expect("static plan is valid")
}

/// The OoO-side sampling floor (in dynamic instructions).
pub const OOO_SAMPLE_FLOOR: u64 = 32_768;

/// The sparse plan the speedup demonstration (and its CI gate) uses on
/// the largest bundled workload: ~11% detail, measured ≥5× faster than
/// full TRIPS replay on `bzip2` at Ref scale with ≤0.6% IPC error.
pub fn speedup_plan() -> SamplePlan {
    SamplePlan::new(16, 48, 1024).expect("static plan is valid")
}

fn mode_for(plan: SamplePlan, total_units: u64, floor: u64) -> ReplayMode {
    if total_units < floor {
        ReplayMode::Full
    } else {
        ReplayMode::Sampled(plan)
    }
}

/// What the accuracy harnesses read off one replay.
struct Replayed {
    ipc: f64,
    detailed_frac: f64,
    detailed_units: u64,
}

/// One timing core as the accuracy harnesses drive it: its backend label,
/// its systematic accuracy mode (full replay below the core's sampling
/// floor), its fitted phase plan (fetched on demand through the memoized,
/// store-backed session), and a replay of its recorded stream that calls
/// the timing model directly, bypassing the session's replay memo.
struct AccuracyCore<'a> {
    backend: &'static str,
    systematic: ReplayMode,
    phase_plan: Box<dyn Fn() -> Arc<PhasePlan> + 'a>,
    replay: Box<dyn Fn(&ReplayMode) -> Replayed>,
}

/// The two cores the accuracy harnesses score `w` on: the TRIPS prototype
/// over the captured block trace, and Core 2 over the recorded gcc-quality
/// RISC event stream. Captures are filled through the session first.
fn accuracy_cores<'a>(run: &Run<'a>, w: &Workload) -> [AccuracyCore<'a>; 2] {
    let session = run.session;
    let name = w.name;
    let (trips_src, gcc_src) = (trips_side(run, w, false), risc_side(run, w, gcc_preset()));
    let compiled = compile_workload(run, w, false);
    let log = session
        .trace(&trips_src)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let art = risc_baseline(run, w);
    let stream = risc_stream(run, w);
    let trips = AccuracyCore {
        backend: "trips",
        systematic: mode_for(
            trips_accuracy_plan(),
            log.seq.len() as u64,
            TRIPS_SAMPLE_FLOOR,
        ),
        phase_plan: Box::new(move || {
            session
                .trips_phase_plan(&trips_src, &PhaseSpec::trips(PhaseK::Auto))
                .unwrap_or_else(|e| panic!("{name} (phase): {e}"))
        }),
        replay: Box::new(move |mode| {
            let cfg = TripsConfig::prototype();
            let s = trips_sim::timing::replay_trace_mode(&compiled, &cfg, &log, mode)
                .unwrap_or_else(|e| panic!("{name} ({mode:?}): {e}"))
                .stats;
            Replayed {
                ipc: s.ipc_executed(),
                detailed_frac: s.detailed_frac(),
                detailed_units: s.detailed_units,
            }
        }),
    };
    let core2 = AccuracyCore {
        backend: "core2",
        systematic: mode_for(
            ooo_accuracy_plan(),
            stream.header.dynamic_insts,
            OOO_SAMPLE_FLOOR,
        ),
        phase_plan: Box::new(move || {
            session
                .ooo_phase_plan(&gcc_src, &PhaseSpec::ooo(PhaseK::Auto))
                .unwrap_or_else(|e| panic!("{name} (ooo phase): {e}"))
        }),
        replay: Box::new(move |mode| {
            let s =
                trips_ooo::run_timed_trace_mode(&art.program, &stream, &trips_ooo::core2(), mode)
                    .unwrap_or_else(|e| panic!("{name} (core2 {mode:?}): {e}"))
                    .stats;
            Replayed {
                ipc: s.ipc(),
                detailed_frac: s.detailed_frac(),
                detailed_units: s.insts,
            }
        }),
    };
    [trips, core2]
}

/// One row of the sampled-vs-full accuracy harness: how close an
/// interval-sampled measurement of a workload landed to the full-detail
/// truth on one timing backend, and what it paid for the answer.
#[derive(Debug, Clone)]
pub struct SampleAccuracy {
    /// Workload name.
    pub workload: String,
    /// Timing backend (`trips` or an OoO platform name).
    pub backend: String,
    /// IPC of the full-detail replay.
    pub full_ipc: f64,
    /// IPC estimate of the sampled replay.
    pub sampled_ipc: f64,
    /// `|sampled − full| / full` (0 when the full IPC is 0).
    pub rel_err: f64,
    /// Fraction of stream units the sampled replay timed in detail.
    pub detailed_frac: f64,
    /// Replay-only wall-clock speedup: full ms / sampled ms.
    pub speedup: f64,
}

/// Measures sampled-vs-full agreement for each workload on both timing
/// backends (TRIPS prototype and the Core 2 reference), under the
/// per-backend accuracy plans and sampling floors: the accuracy harness
/// behind the `sample_accuracy` experiment and the CI gate. Streams below
/// a backend's floor replay in full (reported with `detailed_frac` 1.0
/// and zero error) — sampling is for long streams.
///
/// Captures are filled through the (memoized, store-backed) session first;
/// the two replays are then wall-clocked directly against the recorded
/// streams — deliberately bypassing the memoized-replay tier — so the
/// speedup column reflects replay work alone, which is what sampling
/// accelerates.
pub fn sample_accuracy(run: &Run, ws: &[Workload]) -> Vec<SampleAccuracy> {
    let mut rows = Vec::new();
    for w in ws {
        for core in accuracy_cores(run, w) {
            let t0 = Instant::now();
            let full = (core.replay)(&ReplayMode::Full);
            let full_s = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let sampled = (core.replay)(&core.systematic);
            let sampled_s = t1.elapsed().as_secs_f64();
            rows.push(SampleAccuracy {
                workload: w.name.to_string(),
                backend: core.backend.to_string(),
                full_ipc: full.ipc,
                sampled_ipc: sampled.ipc,
                rel_err: rel_err(sampled.ipc, full.ipc),
                detailed_frac: sampled.detailed_frac,
                speedup: if sampled_s > 0.0 {
                    full_s / sampled_s
                } else {
                    0.0
                },
            });
        }
    }
    rows
}

/// One row of the phase-vs-systematic accuracy harness: how a
/// phase-classified measurement of a workload compares — against the full
/// truth *and* against PR 4's systematic plan — on one timing backend.
#[derive(Debug, Clone)]
pub struct PhaseAccuracy {
    /// Workload name.
    pub workload: String,
    /// Timing backend (`trips` or an OoO platform name).
    pub backend: String,
    /// IPC of the full-detail replay.
    pub full_ipc: f64,
    /// IPC estimate of the systematic-plan replay.
    pub sys_ipc: f64,
    /// IPC estimate of the phase-classified replay.
    pub phase_ipc: f64,
    /// Systematic `|sampled − full| / full`.
    pub sys_err: f64,
    /// Phase-classified `|sampled − full| / full`.
    pub phase_err: f64,
    /// Detailed units the systematic plan timed.
    pub sys_detailed: u64,
    /// Detailed units the phase plan timed.
    pub phase_detailed: u64,
    /// Clusters the fitted plan used (0 when the stream fell below the
    /// phase floor and replayed in full).
    pub k: u32,
    /// The fitted plan itself (for the cluster-assignment CSV artifact).
    pub plan: Arc<PhasePlan>,
}

impl PhaseAccuracy {
    /// The per-workload error budget the phase gate holds a row to: no
    /// worse than the systematic plan, except inside the tentpole's 1%
    /// target band (a phase estimate 0.4% off where the systematic one
    /// happens to land 0.1% off is success, not regression).
    #[must_use]
    pub fn phase_err_bound(&self) -> f64 {
        self.sys_err.max(0.01)
    }
}

fn rel_err(estimate: f64, truth: f64) -> f64 {
    if truth == 0.0 {
        0.0
    } else {
        (estimate - truth).abs() / truth
    }
}

/// Measures full vs systematic-sampled vs phase-classified agreement for
/// each workload on both timing backends (TRIPS prototype and the Core 2
/// reference): the harness behind the `phase_accuracy` experiment and the
/// CI phase gate, mirroring [`sample_accuracy`]. Systematic plans are the
/// PR 4 accuracy plans under their floors; phase plans are the default
/// [`PhaseSpec`]s with a BIC-chosen k, fetched through the (memoized,
/// store-backed) session so the clustering itself is paid once.
pub fn phase_accuracy(run: &Run, ws: &[Workload]) -> Vec<PhaseAccuracy> {
    let mut rows = Vec::new();
    for w in ws {
        for core in accuracy_cores(run, w) {
            let plan = (core.phase_plan)();
            let full = (core.replay)(&ReplayMode::Full);
            let sys = (core.replay)(&core.systematic);
            let ph = (core.replay)(&ReplayMode::Phased((*plan).clone()));
            rows.push(PhaseAccuracy {
                workload: w.name.to_string(),
                backend: core.backend.to_string(),
                full_ipc: full.ipc,
                sys_ipc: sys.ipc,
                phase_ipc: ph.ipc,
                sys_err: rel_err(sys.ipc, full.ipc),
                phase_err: rel_err(ph.ipc, full.ipc),
                sys_detailed: sys.detailed_units,
                phase_detailed: ph.detailed_units,
                k: if plan.covers_everything() { 0 } else { plan.k },
                plan,
            });
        }
    }
    rows
}

/// Renders the per-interval cluster assignments of the fitted plans in
/// `rows` as CSV (the CI artifact: one line per classification interval,
/// boundary intervals labeled `head`/`tail`, representatives flagged).
pub fn phase_assignment_csv(rows: &[PhaseAccuracy]) -> String {
    let mut out =
        String::from("workload,backend,interval,start_unit,units,cluster,representative\n");
    for r in rows {
        let plan = &r.plan;
        let interval = plan.interval.max(1);
        let covering = plan.covers_everything();
        for (i, &cluster) in plan.assignments.iter().enumerate() {
            let start = i as u64 * interval;
            let units = interval.min(plan.total_units - start);
            let label = if covering {
                "full".to_string()
            } else if cluster == plan.k {
                "head".to_string()
            } else if cluster == plan.k + 1 {
                "tail".to_string()
            } else {
                cluster.to_string()
            };
            // "Representative" = this interval is inside some window's
            // measured span (boundary strata count: they stand for
            // themselves).
            let rep = plan
                .windows
                .iter()
                .any(|w| w.detail_start <= start && start + units <= w.end);
            out.push_str(&format!(
                "{},{},{},{},{},{},{}\n",
                r.workload, r.backend, i, start, units, label, rep
            ));
        }
    }
    out
}

/// One point of the §7 ablation study: one design choice set one way,
/// measured by execution-driven simulation.
#[derive(Debug, Clone)]
pub struct Ablation {
    /// The design choice varied (`block cap`, `dispatch interval`,
    /// `predictor` or `placement`).
    pub study: &'static str,
    /// The setting of that choice this point measures.
    pub setting: String,
    /// The workload simulated.
    pub workload: &'static str,
    /// Simulated cycles.
    pub cycles: u64,
    /// Next-block predictor mispredictions.
    pub mispredicts: u64,
    /// Average operand-network hops per packet.
    pub avg_hops: f64,
}

/// Measures the design choices §7 ("Lessons Learned") calls out, each on
/// its own workload: the block-formation cap (`autocor` at `-O2`), the
/// per-block dispatch interval (`fft`), prototype vs improved predictor
/// sizing (`gzip`), and the instruction placement policy (`conv`). Every
/// point runs [`trips_sim::simulate`] to completion on its own compile —
/// no trace replay, no budget — so the placement and block-cap points
/// time programs the session caches never see.
pub fn ablations(scale: Scale) -> Vec<Ablation> {
    let build = |name: &str, opts: &CompileOptions| {
        let w = trips_workloads::by_name(name).unwrap_or_else(|| panic!("workload {name}"));
        trips_compiler::compile(&(w.build)(scale), opts)
            .unwrap_or_else(|e| panic!("{name} (compile): {e}"))
    };
    let measure = |study: &'static str,
                   setting: String,
                   workload: &'static str,
                   comp: &CompiledProgram,
                   cfg: &TripsConfig| {
        let s = trips_sim::simulate(comp, cfg, MEM)
            .unwrap_or_else(|e| panic!("{workload} ({study} {setting}): {e}"))
            .stats;
        Ablation {
            study,
            setting,
            workload,
            cycles: s.cycles,
            mispredicts: s.predictor.mispredicts(),
            avg_hops: s.opn.avg_hops(),
        }
    };
    let prototype = TripsConfig::prototype();
    let mut points = Vec::new();
    for cap in [8u32, 24, 64] {
        let mut opts = CompileOptions::o2();
        opts.region_cap = cap;
        let autocor = build("autocor", &opts);
        points.push(measure(
            "block cap",
            cap.to_string(),
            "autocor",
            &autocor,
            &prototype,
        ));
    }
    let fft = build("fft", &CompileOptions::o1());
    for di in [1u64, 8, 16] {
        let cfg = TripsConfig {
            dispatch_interval: di,
            ..TripsConfig::prototype()
        };
        points.push(measure(
            "dispatch interval",
            di.to_string(),
            "fft",
            &fft,
            &cfg,
        ));
    }
    let gzip = build("gzip", &CompileOptions::o1());
    for (label, cfg) in [
        ("prototype", TripsConfig::prototype()),
        ("improved", TripsConfig::improved_predictor()),
    ] {
        points.push(measure("predictor", label.into(), "gzip", &gzip, &cfg));
    }
    let mut conv = build("conv", &CompileOptions::o1());
    for policy in [
        PlacementPolicy::Sps,
        PlacementPolicy::RowMajor,
        PlacementPolicy::Scatter,
    ] {
        conv.placements = conv
            .trips
            .blocks
            .iter()
            .map(|b| place_block_with(b, policy))
            .collect();
        points.push(measure(
            "placement",
            format!("{policy:?}"),
            "conv",
            &conv,
            &prototype,
        ));
    }
    points
}

/// Geometric mean of the positive entries; zero/negative values are
/// skipped (they have no logarithm).
///
/// Total on every input: an empty iterator — or one with no positive
/// entries — returns `0.0`, never NaN. Figure aggregation routes through
/// here, so a degenerate series (e.g. a suite with no measurable rows)
/// renders as a zero cell instead of poisoning the table.
pub fn geomean(vals: impl IntoIterator<Item = f64>) -> f64 {
    let mut log = 0.0;
    let mut n = 0usize;
    for v in vals {
        if v > 0.0 {
            log += v.ln();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        (log / n as f64).exp()
    }
}

/// Arithmetic mean.
///
/// Total on every input: an empty iterator returns `0.0` (not the 0/0
/// NaN), for the same reason as [`geomean`].
pub fn mean(vals: impl IntoIterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in vals {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trips_workloads::by_name;

    #[test]
    fn isa_measurement_smoke() {
        let w = by_name("vadd").unwrap();
        let m = measure_isa(&Run::new(&Session::new(), Scale::Test), &w, false);
        assert!(m.trips.fetched > 0);
        assert!(m.risc.insts > 0);
        // TRIPS fetches more (predication/moves), but touches memory less.
        assert!(m.trips.memory_accesses() <= m.risc.memory_accesses() * 2);
    }

    #[test]
    fn perf_measurement_smoke() {
        let w = by_name("autocor").unwrap();
        let p = measure_perf(&Run::new(&Session::new(), Scale::Test), &w, true);
        assert!(p.trips_c.cycles > 0);
        assert!(p.trips_h.as_ref().unwrap().cycles > 0);
        assert!(p.core2_gcc.cycles > 0);
    }

    #[test]
    fn means() {
        assert!((geomean([1.0, 4.0]) - 2.0).abs() < 1e-9);
        assert!((mean([1.0, 3.0]) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn means_are_defined_on_degenerate_input() {
        // Empty input must produce a definite 0.0, not NaN — the figures
        // aggregate through these and a NaN would corrupt rendered tables.
        assert_eq!(mean(std::iter::empty()), 0.0);
        assert_eq!(geomean(std::iter::empty()), 0.0);
        // All-nonpositive input has no geometric mean either.
        assert_eq!(geomean([0.0, -3.0]), 0.0);
        assert!(mean([1.0, 2.0, 3.0]).is_finite());
    }
}
