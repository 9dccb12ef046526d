//! # trips-engine
//!
//! The parallel sweep subsystem: turns the one-shot "compile → execute →
//! simulate" measurement plumbing into a reusable engine that amortizes
//! functional execution across timing configurations and fans independent
//! measurements out across cores.
//!
//! Four layers:
//!
//! * [`Session`] — a memoizing artifact store, asked for every artifact
//!   with one [`Stream`] value. Compiled programs are cached by its
//!   `(workload, scale, options, hand)`; captured [`trips_isa::TraceLog`]s
//!   and recorded [`trips_risc::RiscTrace`] event streams by the whole
//!   stream, `(memory, budget)` included. Concurrent requests for the same artifact
//!   block on one in-flight computation instead of duplicating it
//!   (per-entry `OnceLock`, see McKenney's *Is Parallel Programming
//!   Hard?* on sharing read-mostly data cheaply).
//! * [`TraceStore`] — an optional persistent tier under the session: a
//!   content-addressed directory of `<key>.trace` files (verified
//!   atomic-rename containers in four kinds, one per [`store::StoreKey`]
//!   identity: block traces, RISC streams, fitted phase plans, and
//!   live-point checkpoint sets), so
//!   captures survive the process and CI runs share them via a
//!   cached directory (`trips-sweep --trace-dir`), with
//!   [`TraceStore::stats`]/[`TraceStore::prune_stale`] keeping long-lived
//!   directories free of version-bump debris.
//! * [`pool`] — a small work-stealing thread pool over `std::thread` scoped
//!   threads and channels: per-worker deques, round-robin seeding, steal
//!   from the far end when the local deque drains.
//! * [`sweep`] — a declarative [`SweepSpec`] (workloads × configurations ×
//!   backends) expanded to points, executed on the pool, reported as
//!   [`SweepRow`]s plus a throughput summary (measurements/second is a
//!   first-class output: the engine exists to raise it).
//!
//! The speedup structure, on both backends: a TRIPS timing sweep of N
//! configurations costs one functional capture plus N replays
//! (`trips_sim::timing::replay_trace_mode`), and an out-of-order reference
//! sweep costs one RISC execution plus N stream replays
//! (`trips_ooo::run_timed_trace_mode`) — never N functional executions. Replays
//! of *different* workloads and configurations run concurrently. On top of
//! that, each replay can be made **sublinear in trace length** by
//! interval sampling ([`sample`], `SweepSpec::sample`, `trips-sweep
//! --sample`) or phase classification (`SweepSpec::phase`, `--phase`):
//! each plan becomes one list of measurement windows, the shared replay
//! walker fast-forwards between them with functional warming, and one
//! estimator extrapolates from what they measured, with full and sampled
//! results memoized under distinct keys.
//! With live-points requested (the `live_points` argument of
//! [`Session::replayed`] and [`Session::ooo_replayed`], which a sweep
//! passes from `SweepSpec::live_points`, `trips-sweep --live-points`),
//! the warmed machine state at each measured-window
//! boundary is checkpointed into the store as a fourth container kind, so
//! later sweep points — in this process or any other sharing the store —
//! replay only the detailed windows, in parallel, without ever touching
//! the stream prefix again, and remain bit-identical to the sequential
//! phased replay.
//!
//! Every layer is instrumented through [`obs`] (`trips-obs`): session tier
//! lookups, store I/O, pool jobs and replays count into the metrics
//! registry of the session that ran them (one [`Session`] owns one
//! registry and shares it with its store and pools), pool workers and
//! replay loops open tracing spans, and each sweep point carries an
//! [`obs::RowCost`] whose nanosecond columns are the durations of the
//! spans that charged them (capture / fit / warm / detailed / extrapolate
//! / checkpoint / store read, verify and decode), plus store bytes and
//! queue latency. All of
//! it is pay-for-use: with no trace sink installed and no snapshot taken,
//! the hot loops see only a relaxed atomic load, and timings never enter
//! memoized or persisted artifacts, so sweep outputs are byte-identical
//! with observability on or off.

pub mod cache;
pub mod pool;
pub mod store;
pub mod sweep;

/// Interval-sampling plans (re-exported from `trips-sample`, the shared
/// home both timing cores consume them from): [`sample::SamplePlan`] and
/// [`sample::PhasePlan`] place warm/detail windows over a recorded
/// stream, [`sample::ReplayMode`] threads the choice through every replay
/// entry point, and [`sample::replay`] walks the windows and turns what
/// they measured into a whole-run estimate.
pub use trips_sample as sample;

/// Phase classification (re-exported from `trips-phase`): BBV projection,
/// deterministic k-means with a BIC k-sweep, and [`phase::PhaseSpec`] /
/// [`phase::PhaseK`] fit parameters. The session memoizes fitted
/// [`sample::PhasePlan`]s per stream and persists them in the
/// [`TraceStore`] as a third container kind, so N sweep points across N
/// processes cluster once.
pub use trips_phase as phase;

/// Observability (re-exported from `trips-obs`): tracing spans
/// ([`obs::span()`], journaled by `trips-sweep --obs-trace` and folded by
/// `--obs-report`), the metrics [`obs::Registry`] each [`Session`] owns
/// and shares with its store and pools (rendered by `--metrics`),
/// per-row cost attribution ([`obs::RowCost`] on every [`SweepRow`]), and
/// the `TRIPS_LOG`-filtered [`obs::log!`] diagnostics macro.
pub use trips_obs as obs;

/// Deterministic fault injection (re-exported from `trips-chaos`): a
/// seeded [`chaos::FaultPlan`] handed to one [`Session`]
/// ([`Session::open`]; `trips-sweep --chaos seed[:profile]` or
/// `TRIPS_CHAOS`) makes that session's store, capture and fit tiers, and
/// pools inject I/O errors, short writes, bit flips, capture/fit
/// failures, job panics, and delays on a reproducible schedule — the
/// harness the recovery paths (retries, quarantine, circuit breaker,
/// caught jobs) are tested under. Other sessions in the process are
/// untouched; an unarmed session's hook is one `Option` check.
pub use trips_chaos as chaos;

pub use cache::{CacheStats, EngineError, IsaOutcome, RiscArtifacts, Session, Stream};
pub use chaos::Instruments;
pub use phase::{PhaseK, PhaseSpec};
pub use pool::{parallel_map, parallel_map_catch, JobPanic};
pub use sample::{PhasePlan, ReplayMode, SamplePlan};
pub use store::{
    BbvId, FsckReport, LivePointId, LivePointSet, LivePointStates, LiveState, LoadOutcome,
    PruneReport, RiscTraceId, StoreStats, TraceStore,
};
pub use sweep::{
    run_sweep, BackendSpec, ConfigVariant, RowDetail, SweepReport, SweepRow, SweepSpec,
};
