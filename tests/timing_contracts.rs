//! The replay contracts every timing core meets, written once over
//! [`TimingCore`] and run on both cores: the TRIPS model ([`TsimCore`];
//! prototype and improved-predictor configurations) and the out-of-order
//! reference platforms ([`OooCore`]; Core 2, Pentium 4 and Pentium III).
//! Each contract is one test per core, `trips_<contract>` and
//! `ooo_<contract>`, and checks every configuration of every program:
//!
//! * **`replay_equals_execution`** — full replay of the recorded stream
//!   is bit-identical to timing the live functional execution,
//!   deterministic and times every unit, and its IPC never exceeds what
//!   the machine can issue in a cycle: 16 on TRIPS (16 execution tiles,
//!   one issue each), `issue_width` on the OoO platforms;
//! * **`covering_plans_equal_full`** — the `Sampled` plans `0,d,d` for
//!   each `d` in [`COVERING_PERIODS`] and a fitted `Phased` plan that
//!   measures every unit equal full replay;
//! * **`sampled_replay_extrapolates`** — on a steady loop, a 1/4-detail
//!   sampled replay times a minority of the stream, leaves its functional
//!   view alone and lands within 10% of full replay;
//! * **`restore_equals_sequential`** — the live-point capture pass equals
//!   the plain phased replay, and windows replayed from its snapshots
//!   assemble to the same result: for a hand-made plan with every
//!   snapshot round-tripped through `serde::bin` bytes, and for seeded
//!   random partitions;
//! * **`rejects_malformed_inputs`** — malformed windows, unsorted plans,
//!   snapshots of another boundary or configuration and a wrong
//!   measurement count are all `Err`;
//! * **`hostile_snapshots_never_panic`** — a snapshot with any one
//!   sequence emptied or grown by one element replays to `Ok` or `Err`,
//!   never a panic, and decodes from its `serde::bin` bytes as from its
//!   `Value` tree; an OoO snapshot whose issue cycles are out of order,
//!   empty or over the width is an `Err`.
//!
//! Every sampled, phased and restored replay these contracts make also
//! passes each core's own check, in `finish`, that it measured exactly
//! the units its plan details (an `assert_eq!`, so release builds check
//! it too): timed warmup that leaks into the counters fails even where
//! the sequential and restored paths agree.
//!
//! Tier-1 runs them at Test scale on a summing loop, `autocor` and
//! `vadd`, and on TRIPS on `matrix` too. Each core records these
//! programs once per test binary (compile, capture, covering phase fit
//! and the execution-driven runs), and every test replays from that
//! recording. The hostile-snapshot contract runs on `autocor` only: it
//! decodes the whole snapshot once per edit, which costs seconds per
//! core in a debug build. The `#[ignore]`d test runs every contract on
//! `bzip2` and `equake` at Ref scale (release-built, in the
//! `sampled-accuracy` CI job).

mod common;

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

use common::{handmade_plan, hostile_sequence_edits, lcg, random_plan, sum_program, tiny_spec};
use serde::{DeserializeOwned, Serialize, Value};
use trips::compiler::{CompileOptions, CompiledProgram};
use trips::engine::{PhaseK, PhaseSpec, RiscArtifacts, Session, Stream};
use trips::isa::hash::content_hash;
use trips::isa::TraceLog;
use trips::ooo::{self, OooConfig, OooCore, OooResult, OooStats};
use trips::risc::exec::RiscError;
use trips::risc::RiscTrace;
use trips::sample::{
    assemble_windows, capture_phased, replay, replay_window, PhasePlan, PhaseWindow, ReplayMode,
    SamplePlan, TimingCore,
};
use trips::sim::{self, SimError, SimResult, SimStats, TripsConfig, TsimCore};
use trips::workloads::{by_name, Scale, Suite, Workload};

const MEM: usize = 1 << 22;
const TRIPS_BUDGET: u64 = 1_000_000;
const RISC_BUDGET: u64 = 400_000_000;
/// Iterations of the steady summing loop.
const SUM_N: i64 = 4_000;
/// Random partitions each subject replays.
const RANDOM_PARTITIONS: usize = 3;
/// Periods `d` of the covering `Sampled` plans `0,d,d`.
const COVERING_PERIODS: [u64; 4] = [64, 1, 7, 9];

/// What the contracts read off a core's counters.
#[derive(Debug)]
struct Figures {
    sampled: bool,
    cycles: u64,
    est_cycles: u64,
    /// Units the counters cover.
    measured: u64,
    /// Units timed in detail.
    detailed: u64,
    /// Units in the stream.
    total: u64,
    /// Hash of the stream's functional view, which no replay mode changes.
    functional: u64,
    ipc: f64,
}

/// A named edit of a snapshot's serde image, given the machine's issue
/// width.
type SnapshotEdit = (&'static str, fn(&mut Value, u32));

/// A [`TimingCore`] whose replays the contracts can read.
trait Contracted:
    TimingCore<
    Snapshot: Clone + Debug + PartialEq + Serialize + DeserializeOwned,
    Stats: Debug + PartialEq + Sync,
    Error: Debug,
>
{
    /// Return value and counters of a finished replay.
    fn split(out: Self::Output) -> (u64, Self::Stats);
    fn figures(s: &Self::Stats) -> Figures;
    /// Whether `e` is the core's rejection of a malformed input.
    fn rejected(e: &Self::Error) -> bool;
    /// Edits of a snapshot that restoring must reject.
    const REJECTED_EDITS: &'static [SnapshotEdit] = &[];
}

impl Contracted for TsimCore<'_> {
    fn split(out: SimResult) -> (u64, SimStats) {
        (out.return_value, out.stats)
    }

    fn figures(s: &SimStats) -> Figures {
        Figures {
            sampled: s.sampled,
            cycles: s.cycles,
            est_cycles: s.est_cycles,
            measured: s.blocks,
            detailed: s.detailed_units,
            total: s.total_units,
            functional: content_hash(&serde::bin::to_bytes(&s.isa)),
            ipc: s.ipc_executed(),
        }
    }

    fn rejected(e: &SimError) -> bool {
        matches!(e, SimError::Trace(_))
    }
}

impl Contracted for OooCore<'_> {
    fn split(out: OooResult) -> (u64, OooStats) {
        (out.return_value, out.stats)
    }

    fn figures(s: &OooStats) -> Figures {
        Figures {
            sampled: s.sampled,
            cycles: s.cycles,
            est_cycles: s.est_cycles,
            measured: s.insts,
            detailed: s.insts,
            total: s.total_insts,
            functional: s.total_insts,
            ipc: s.ipc(),
        }
    }

    fn rejected(e: &RiscError) -> bool {
        matches!(e, RiscError::Trace(_))
    }

    /// The issue tracker's `(cycle, count)` pairs must be strictly
    /// ascending by cycle, with counts from 1 to the width.
    const REJECTED_EDITS: &'static [SnapshotEdit] = &[
        ("issue cycles out of order", |v, _| {
            issue_pairs(v).swap(0, 1)
        }),
        ("an issue cycle with no issues", |v, _| {
            set_first_issues(v, 0)
        }),
        ("an issue cycle over the width", |v, width| {
            set_first_issues(v, u64::from(width) + 1)
        }),
    ];
}

/// The issue tracker's pairs in an [`ooo::OooSnapshot`]'s serde image.
fn issue_pairs(image: &mut Value) -> &mut Vec<Value> {
    let Value::Map(fields) = image else {
        panic!("a snapshot is a struct")
    };
    match fields.iter_mut().find(|f| f.0 == Value::str("issue")) {
        Some((_, Value::Seq(pairs))) if pairs.len() > 1 => pairs,
        _ => panic!("the snapshot holds at least two issue cycles"),
    }
}

/// Sets the count of `image`'s first issue pair to `n`.
fn set_first_issues(image: &mut Value, n: u64) {
    let Value::Seq(pair) = &mut issue_pairs(image)[0] else {
        panic!("an issue pair is a tuple")
    };
    pair[1] = Value::U64(n);
}

/// One configuration of a core over one recorded program.
struct Subject<'a, C: TimingCore> {
    /// `workload/config`, for messages.
    name: String,
    /// A fresh machine at the start of the stream.
    core: Box<dyn Fn() -> C + Sync + 'a>,
    /// Return value and counters of the execution-driven run.
    direct: &'a (u64, C::Stats),
    /// A fitted phase plan that measures every unit.
    covering: &'a PhasePlan,
    /// A 1/4-detail sampled plan, for steady loops only.
    steady: Option<SamplePlan>,
    /// Run the hostile-snapshot contract.
    hostile: bool,
    /// Most instructions the machine issues in one cycle.
    issue_width: u32,
}

/// A contract over the configurations of one core on one program.
type Contract<C> = fn(&[Subject<C>]);

/// Every contract, for the Ref-scale run.
fn every_contract<C: Contracted>(subjects: &[Subject<C>]) {
    replay_equals_execution(subjects);
    covering_plans_equal_full(subjects);
    sampled_replay_extrapolates(subjects);
    restore_equals_sequential(subjects);
    rejects_malformed_inputs(subjects);
    hostile_snapshots_never_panic(subjects);
}

fn full_replay<C: Contracted>(s: &Subject<C>) -> (u64, C::Stats) {
    C::split(replay((s.core)(), &ReplayMode::Full).unwrap())
}

/// Panics unless `stats` are of an unsampled replay that timed every
/// unit.
fn times_every_unit<C: Contracted>(name: &str, stats: &C::Stats) {
    let f = C::figures(stats);
    assert!(
        !f.sampled && f.est_cycles == f.cycles && f.detailed == f.measured && f.total == f.measured,
        "{name}: an unsampled replay times every unit: {f:?}"
    );
}

/// Full replay equals the execution-driven run, twice over, times every
/// unit, and issues no more than the machine can in a cycle.
fn replay_equals_execution<C: Contracted>(subjects: &[Subject<C>]) {
    for s in subjects {
        let (full, name) = (full_replay(s), &s.name);
        assert_eq!(&full, s.direct, "{name}: replay ≢ execution-driven timing");
        let again = full_replay(s);
        assert_eq!(again, full, "{name}: replay must be deterministic");
        times_every_unit::<C>(name, &full.1);
        let ipc = C::figures(&full.1).ipc;
        let width = f64::from(s.issue_width);
        assert!(ipc > 0.0 && ipc <= width, "{name}: IPC {ipc} > {width}");
    }
}

/// Plans that measure every unit equal full replay.
fn covering_plans_equal_full<C: Contracted>(subjects: &[Subject<C>]) {
    for s in subjects {
        let (full, name) = (full_replay(s), &s.name);
        for d in COVERING_PERIODS {
            let plan = SamplePlan::new(0, d, d).unwrap();
            assert!(plan.covers_everything());
            let covered = C::split(replay((s.core)(), &ReplayMode::Sampled(plan)).unwrap());
            times_every_unit::<C>(name, &covered.1);
            assert_eq!(covered, full, "{name}: plan {plan} must equal full");
        }
        assert!(s.covering.covers_everything(), "{name}");
        let mode = ReplayMode::Phased(s.covering.clone());
        assert!(mode.phase().is_none(), "covering phase plans normalize");
        let covered = C::split(replay((s.core)(), &mode).unwrap());
        assert_eq!(covered, full, "{name}: covering phase plan");
    }
}

/// A 1/4-detail sampled replay of a steady loop times a minority of the
/// stream, leaves its functional view alone, and extrapolates to within
/// 10% of full replay.
fn sampled_replay_extrapolates<C: Contracted>(subjects: &[Subject<C>]) {
    for s in subjects {
        let Some(plan) = s.steady else { continue };
        let sampled = C::split(replay((s.core)(), &ReplayMode::Sampled(plan)).unwrap()).1;
        let full = full_replay(s).1;
        let (f, truth, name) = (C::figures(&sampled), C::figures(&full), &s.name);
        assert!(f.sampled && f.detailed == f.measured, "{name}: {f:?}");
        let stream = ((s.core)().units(), truth.functional);
        assert!(
            (f.total, f.functional) == stream,
            "{name}: sampling changed the stream: {f:?}"
        );
        assert!(f.detailed * 3 < f.total, "{name}: not a minority: {f:?}");
        assert!(f.cycles < truth.cycles, "{name}");
        let rel = (f.est_cycles as f64 - truth.cycles as f64).abs() / truth.cycles as f64;
        assert!(
            rel < 0.10,
            "{name}: extrapolation off by {:.1}% (est {} vs full {})",
            rel * 100.0,
            f.est_cycles,
            truth.cycles
        );
    }
}

/// The hand-made plan over `s`'s stream, checked valid and not covering.
fn handmade<C: Contracted>(s: &Subject<C>) -> PhasePlan {
    let plan = handmade_plan((s.core)().units());
    assert_eq!(plan.validate(), Ok(()), "{}", s.name);
    assert!(!plan.covers_everything(), "{}", s.name);
    plan
}

/// Restored windows equal sequential phased replay under the hand-made
/// plan, with its snapshots round-tripped through bytes, and under
/// seeded random partitions.
fn restore_equals_sequential<C: Contracted>(subjects: &[Subject<C>]) {
    for s in subjects {
        restored_windows_equal_phased(s, &handmade(s), true);
        let (total, mut draw) = ((s.core)().units(), 0x5eed);
        for _ in 0..RANDOM_PARTITIONS {
            let (seed, nwin) = (lcg(&mut draw) % 1_000_000, 1 + lcg(&mut draw) % 4);
            let plan = random_plan(total, (total / 5).max(1), seed, nwin as usize);
            assert_eq!(plan.validate(), Ok(()), "{}: seed {seed}", s.name);
            assert!(!plan.covers_everything(), "{}: seed {seed}", s.name);
            restored_windows_equal_phased(s, &plan, false);
        }
    }
}

/// The capture pass equals the plain phased replay under `plan`, and its
/// snapshots (round-tripped through `serde::bin` bytes first when
/// `through_bytes`) replay windows that assemble to the same result.
fn restored_windows_equal_phased<C: Contracted>(
    s: &Subject<C>,
    plan: &PhasePlan,
    through_bytes: bool,
) {
    let what = format!("{}, {plan}", s.name);
    let mode = ReplayMode::Phased(plan.clone());
    let sequential = C::split(replay((s.core)(), &mode).unwrap());
    let (captured, snaps) = capture_phased((s.core)(), plan).unwrap();
    assert_eq!(C::split(captured), sequential, "{what}: capture ≢ phased");
    assert_eq!(snaps.len(), plan.windows.len(), "{what}");
    let measures: Vec<_> = plan
        .windows
        .iter()
        .zip(&snaps)
        .map(|(w, snap)| {
            if !through_bytes {
                return replay_window((s.core)(), w, snap).unwrap();
            }
            let back: C::Snapshot = serde::bin::from_bytes(&serde::bin::to_bytes(snap)).unwrap();
            assert_eq!(&back, snap, "{what}: snapshots round-trip through bytes");
            replay_window((s.core)(), w, &back).unwrap()
        })
        .collect();
    let assembled = C::split(assemble_windows((s.core)(), plan, &measures).unwrap());
    assert_eq!(assembled, sequential, "{what}: restored windows ≢ phased");
}

/// Malformed windows, unsorted plans, snapshots of another boundary or
/// of the next subject's configuration and a wrong measurement count
/// are rejected.
fn rejects_malformed_inputs<C: Contracted>(subjects: &[Subject<C>]) {
    assert!(subjects.len() > 1, "the wrong-config check needs two");
    for (i, s) in subjects.iter().enumerate() {
        let foreign = &subjects[(i + 1) % subjects.len()];
        let rejects = |r: Result<(), C::Error>, what: &str| match r {
            Ok(_) => panic!("{}: {what} must be rejected", s.name),
            Err(e) => assert!(C::rejected(&e), "{}: {what}: wrong error {e:?}", s.name),
        };
        let plan = handmade(s);
        let snaps = capture_phased((s.core)(), &plan).unwrap().1;
        let (good, snap, total) = (plan.windows[1], &snaps[1], (s.core)().units());
        assert!(good.warm_start < good.detail_start, "{}", s.name);
        assert!(replay_window((s.core)(), &good, snap).is_ok(), "{}", s.name);
        let window = |detail_start, end| PhaseWindow {
            detail_start,
            end,
            ..good
        };
        for bad in [
            // Measurement before its own warmup.
            window(good.warm_start - 1, good.end),
            // Measured span empty or inverted.
            window(good.detail_start, good.detail_start),
            window(good.end + 1, good.end),
            // Past the stream.
            window(good.detail_start, total + 1),
        ] {
            rejects(
                replay_window((s.core)(), &bad, snap).map(drop),
                &format!("{bad:?}"),
            );
        }
        let mut unsorted = plan.clone();
        unsorted.windows.reverse();
        assert!(unsorted.validate().is_err());
        let mode = ReplayMode::Phased(unsorted.clone());
        rejects(replay((s.core)(), &mode).map(drop), "unsorted plan");
        rejects(
            capture_phased((s.core)(), &unsorted).map(drop),
            "unsorted capture",
        );
        let foreign_boundary = replay_window((s.core)(), &good, &snaps[0]);
        rejects(foreign_boundary.map(drop), "snapshot of another boundary");
        let foreign_config = replay_window((foreign.core)(), &good, snap);
        rejects(
            foreign_config.map(drop),
            &format!("snapshot on {}", foreign.name),
        );
        let none = assemble_windows((s.core)(), &plan, &[]);
        rejects(none.map(drop), "assembly of no measurements");
    }
}

/// Runs [`hostile_edits_never_panic`] on each hostile subject, one
/// thread each: every edit decodes the whole snapshot.
fn hostile_snapshots_never_panic<C: Contracted>(subjects: &[Subject<C>]) {
    std::thread::scope(|scope| {
        for s in subjects.iter().filter(|s| s.hostile) {
            scope.spawn(|| hostile_edits_never_panic(s));
        }
    });
}

/// Edits the snapshot that starts the hand-made plan's interior window
/// ([`hostile_sequence_edits`]): each edit decodes to `Err`, or to a
/// snapshot that replays the window to `Ok` or `Err`, and none panics.
/// Each of the core's [`Contracted::REJECTED_EDITS`] replays to `Err`,
/// without panicking.
fn hostile_edits_never_panic<C: Contracted>(s: &Subject<C>) {
    let plan = handmade(s);
    let window = &plan.windows[1];
    let snaps = capture_phased((s.core)(), &plan).unwrap().1;
    hostile_sequence_edits(&s.name, &snaps[1], |bad: C::Snapshot| {
        let _ = replay_window((s.core)(), window, &bad);
    });
    let image = serde::to_value(&snaps[1]);
    for (what, edit) in C::REJECTED_EDITS {
        let mut bad = image.clone();
        edit(&mut bad, s.issue_width);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let bad = serde::from_value::<C::Snapshot>(&bad).unwrap();
            replay_window((s.core)(), window, &bad).map(drop)
        }));
        match outcome {
            Err(_) => panic!("{}: panicked on {what}", s.name),
            Ok(Ok(())) => panic!("{}: {what} must be rejected", s.name),
            Ok(Err(e)) => assert!(C::rejected(&e), "{}: {what}: wrong error {e:?}", s.name),
        }
    }
}

/// One program the contracts run on.
struct Input {
    workload: Workload,
    scale: Scale,
    /// TRIPS compile options; the OoO platforms replay gcc-quality
    /// streams.
    opts: CompileOptions,
    /// A steady loop: sampled replays must extrapolate within 10%.
    steady: bool,
    /// Run the hostile-snapshot contract.
    hostile: bool,
}

/// The summing loop as a workload, so the session captures it like any
/// other.
fn sum_loop() -> Input {
    let workload = Workload {
        name: "sum",
        suite: Suite::Kernels,
        build: |_| sum_program(SUM_N),
        hand: None,
        simple: false,
    };
    let opts = CompileOptions::o1();
    Input {
        workload,
        scale: Scale::Test,
        opts,
        steady: true,
        hostile: false,
    }
}

fn bundled(name: &str, scale: Scale, hostile: bool) -> Input {
    let workload = by_name(name).unwrap();
    let opts = CompileOptions::o2();
    Input {
        workload,
        scale,
        opts,
        steady: false,
        hostile,
    }
}

/// The Test-scale programs of both cores: the summing loop, `autocor`
/// (the one hostile-snapshot input) and `vadd`.
fn test_inputs() -> Vec<Input> {
    vec![
        sum_loop(),
        bundled("autocor", Scale::Test, true),
        bundled("vadd", Scale::Test, false),
    ]
}

/// A phase spec whose fit covers every unit: `k` exceeds any interval
/// count.
fn covering_spec(interval: u64) -> PhaseSpec {
    PhaseSpec {
        interval,
        ..tiny_spec(PhaseK::K(100_000))
    }
}

/// A program recorded for the TRIPS prototype and improved-predictor
/// configurations.
struct TripsRecording {
    input: Input,
    compiled: Arc<CompiledProgram>,
    log: Arc<TraceLog>,
    covering: Arc<PhasePlan>,
    /// Each configuration with its execution-driven return value and
    /// counters.
    runs: Vec<(&'static str, TripsConfig, (u64, SimStats))>,
}

impl TripsRecording {
    fn record(input: Input) -> TripsRecording {
        let w = &input.workload;
        let trips = Stream::new(w, input.scale, input.opts.clone(), MEM, TRIPS_BUDGET);
        let session = Session::new();
        let compiled = session.compiled(&trips).unwrap();
        let log = session.trace(&trips).unwrap();
        // Each block runs one of a few paths, whatever its addresses.
        let dedup = log.dedup_ratio();
        assert!(dedup > 2.0, "{}: {dedup} blocks per path", w.name);
        let covering = session.trips_phase_plan(&trips, &covering_spec(8));
        let cfgs = [
            ("prototype", TripsConfig::prototype()),
            ("improved_predictor", TripsConfig::improved_predictor()),
        ];
        let runs = cfgs
            .into_iter()
            .map(|(label, cfg)| {
                let direct = sim::timing::simulate_with_budget(&compiled, &cfg, MEM, TRIPS_BUDGET);
                let direct = direct.unwrap();
                (label, cfg, (direct.return_value, direct.stats))
            })
            .collect();
        TripsRecording {
            covering: covering.unwrap(),
            input,
            compiled,
            log,
            runs,
        }
    }

    fn subjects(&self) -> Vec<Subject<'_, TsimCore<'_>>> {
        let (input, compiled, log) = (&self.input, &*self.compiled, &*self.log);
        self.runs
            .iter()
            .map(|(label, cfg, direct)| Subject {
                name: format!("{}/{label}", input.workload.name),
                core: Box::new(move || TsimCore::new(compiled, cfg, log)),
                direct,
                covering: &self.covering,
                steady: input.steady.then(|| SamplePlan::new(8, 8, 32).unwrap()),
                hostile: input.hostile,
                issue_width: 16,
            })
            .collect()
    }
}

/// A program recorded for the Core 2, Pentium 4 and Pentium III models,
/// which all time one recorded RISC stream.
struct OooRecording {
    input: Input,
    art: Arc<RiscArtifacts>,
    stream: Arc<RiscTrace>,
    covering: Arc<PhasePlan>,
    /// Each configuration with its execution-driven return value and
    /// counters.
    runs: Vec<(OooConfig, (u64, OooStats))>,
}

impl OooRecording {
    /// Also checks that the session's own full replay of each
    /// configuration equals its execution-driven run.
    fn record(input: Input) -> OooRecording {
        let w = &input.workload;
        let risc = Stream::new(w, input.scale, CompileOptions::gcc_ref(), MEM, RISC_BUDGET);
        let session = Session::new();
        let art = session.risc_program(&risc).unwrap();
        let stream = session.risc_trace(&risc).unwrap();
        let covering = session.ooo_phase_plan(&risc, &covering_spec(64));
        let cfgs = [ooo::core2(), ooo::pentium4(), ooo::pentium3()];
        let runs = cfgs
            .into_iter()
            .map(|cfg| {
                let direct = ooo::run_timed(&art.program, &art.ir, &cfg, MEM, RISC_BUDGET).unwrap();
                let full = &ReplayMode::Full;
                let session_replay = session.ooo_replayed(&risc, &cfg, full, None);
                let session_replay = session_replay.unwrap();
                assert_eq!(session_replay.return_value, direct.return_value);
                assert_eq!(session_replay.stats, direct.stats, "{}", cfg.name);
                (cfg, (direct.return_value, direct.stats))
            })
            .collect();
        // One functional execution, however many configurations time it.
        let c = session.cache_stats();
        assert!(c.risc_captures == 1 && c.rtrace_hits >= 2, "{c:?}");
        OooRecording {
            covering: covering.unwrap(),
            input,
            art,
            stream,
            runs,
        }
    }

    fn subjects(&self) -> Vec<Subject<'_, OooCore<'_>>> {
        let (input, rp, stream) = (&self.input, &self.art.program, &*self.stream);
        self.runs
            .iter()
            .map(|(cfg, direct)| Subject {
                name: format!("{}/{}", input.workload.name, cfg.name),
                core: Box::new(move || OooCore::new(rp, stream, cfg)),
                direct,
                covering: &self.covering,
                steady: input.steady.then(|| SamplePlan::new(64, 64, 256).unwrap()),
                hostile: input.hostile,
                issue_width: cfg.issue_width,
            })
            .collect()
    }
}

/// Records each input on its own thread: the tests that wait for the
/// recordings have nothing else to do.
fn record_each<R: Send>(inputs: Vec<Input>, record: fn(Input) -> R) -> Vec<R> {
    std::thread::scope(|scope| {
        let jobs: Vec<_> = inputs
            .into_iter()
            .map(|input| scope.spawn(move || record(input)))
            .collect();
        jobs.into_iter().map(|job| job.join().unwrap()).collect()
    })
}

/// Runs `contract` on every Test-scale TRIPS program: the shared ones
/// and `matrix`, recorded once per test binary.
fn on_trips(contract: Contract<TsimCore<'static>>) {
    static RECORDED: OnceLock<Vec<TripsRecording>> = OnceLock::new();
    let recorded = RECORDED.get_or_init(|| {
        let mut inputs = test_inputs();
        inputs.push(bundled("matrix", Scale::Test, false));
        record_each(inputs, TripsRecording::record)
    });
    for r in recorded {
        contract(&r.subjects());
    }
}

/// Runs `contract` on every Test-scale OoO program, recorded once per
/// test binary.
fn on_ooo(contract: Contract<OooCore<'static>>) {
    static RECORDED: OnceLock<Vec<OooRecording>> = OnceLock::new();
    let recorded = RECORDED.get_or_init(|| record_each(test_inputs(), OooRecording::record));
    for r in recorded {
        contract(&r.subjects());
    }
}

/// One test per core × contract: `$trips` and `$ooo` run `$contract`.
macro_rules! contract_tests {
    ($($contract:ident: $trips:ident, $ooo:ident;)*) => {$(
        #[test]
        fn $trips() {
            on_trips($contract);
        }

        #[test]
        fn $ooo() {
            on_ooo($contract);
        }
    )*};
}

contract_tests! {
    replay_equals_execution: trips_replay_equals_execution, ooo_replay_equals_execution;
    covering_plans_equal_full: trips_covering_plans_equal_full, ooo_covering_plans_equal_full;
    sampled_replay_extrapolates: trips_sampled_replay_extrapolates, ooo_sampled_replay_extrapolates;
    restore_equals_sequential: trips_restore_equals_sequential, ooo_restore_equals_sequential;
    rejects_malformed_inputs: trips_rejects_malformed_inputs, ooo_rejects_malformed_inputs;
    hostile_snapshots_never_panic: trips_hostile_snapshots_never_panic, ooo_hostile_snapshots_never_panic;
}

/// The two largest bundled streams at Ref scale, on both cores.
#[test]
#[ignore = "Ref-scale streams; release-built in the sampled-accuracy CI job"]
fn both_cores_meet_the_contracts_at_ref_scale() {
    for name in ["bzip2", "equake"] {
        every_contract(&TripsRecording::record(bundled(name, Scale::Ref, true)).subjects());
        every_contract(&OooRecording::record(bundled(name, Scale::Ref, true)).subjects());
    }
}
