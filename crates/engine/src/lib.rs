//! # trips-engine
//!
//! The parallel sweep subsystem: turns the one-shot "compile → execute →
//! simulate" measurement plumbing into a reusable engine that amortizes
//! functional execution across timing configurations and fans independent
//! measurements out across cores.
//!
//! Four layers:
//!
//! * [`Session`] — a memoizing artifact store. Compiled programs are cached
//!   by `(workload, scale, options, hand)`; captured [`trips_isa::TraceLog`]s
//!   and recorded [`trips_risc::RiscTrace`] event streams by the same key
//!   plus `(memory, budget)`. Concurrent requests for the same artifact
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
//! With live-points enabled (`Session::set_live_points`, `trips-sweep
//! --live-points`), the warmed machine state at each measured-window
//! boundary is checkpointed into the store as a fourth container kind, so
//! later sweep points — in this process or any other sharing the store —
//! replay only the detailed windows, in parallel, without ever touching
//! the stream prefix again, and remain bit-identical to the sequential
//! phased replay.
//!
//! Every layer is instrumented through [`obs`] (`trips-obs`): session tier
//! lookups and store I/O count into the metrics registry, pool workers and
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
/// `--obs-report`), the process-global metrics registry ([`obs::counter`]
/// / [`obs::gauge`] / [`obs::histogram`], snapshotted by `--metrics`),
/// per-row cost attribution ([`obs::RowCost`] on every [`SweepRow`]), and
/// the `TRIPS_LOG`-filtered [`obs::log!`] diagnostics macro.
pub use trips_obs as obs;

/// Deterministic fault injection (re-exported from `trips-chaos`): a
/// seeded [`chaos::FaultPlan`] armed process-globally (`trips-sweep
/// --chaos seed[:profile]` / `TRIPS_CHAOS`) makes the store, the session
/// tiers, and the pool inject I/O errors, short writes, bit flips,
/// capture/fit failures, job panics, and delays on a reproducible
/// schedule — the harness the recovery paths (retries, quarantine,
/// circuit breaker, caught jobs) are tested under. Disarmed, every hook
/// is a single relaxed atomic load.
pub use trips_chaos as chaos;

pub use cache::{CacheStats, EngineError, IsaOutcome, RiscArtifacts, Session};
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
