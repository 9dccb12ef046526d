//! The memoizing artifact store behind every sweep and experiment.
//!
//! Every tier is one memo: a map from a provenance key (never a content
//! hash) to an `Arc<OnceLock<...>>` slot. The map's mutex is held only for
//! the key lookup; the expensive compile, capture or replay runs outside
//! it, and concurrent requests for the same key block on the single
//! in-flight computation instead of duplicating work (the cheap sharing of
//! read-mostly data McKenney's *Is Parallel Programming Hard?*
//! recommends). Deterministic failures are cached too — a workload that
//! cannot compile fails every request identically instead of being
//! retried by each sweep point — while transient ones are evicted so a
//! retry re-resolves the artifact.
//!
//! The tiers, and what keys them:
//!
//! * compiled TRIPS programs: `(workload, scale, options-signature, hand)`;
//! * captured TRIPS trace logs: the compile key plus `(memory size, block
//!   budget)`;
//! * functional ISA outcomes (same key, no stream retained);
//! * compiled RISC programs: the compile key (reference backends);
//! * captured RISC event streams ([`trips_risc::RiscTrace`]): the compile
//!   key plus `(memory size, instruction budget)` — one functional RISC
//!   execution serves the instruction-count figures *and* every
//!   out-of-order timing configuration
//!   ([`Session::ooo_replayed`]);
//! * replayed timing results on both backends: the trace key plus a
//!   configuration signature **and the normalized replay mode** (full,
//!   [`trips_sample::SamplePlan`], or fitted
//!   [`trips_sample::PhasePlan`]), so full, sampled and phased
//!   measurements of the same point are distinct artifacts and can never
//!   alias (a plan that times everything is normalized to the full key,
//!   because its result is bit-identical by construction);
//! * fitted phase plans ([`Session::trips_phase_plan`] /
//!   [`Session::ooo_phase_plan`]): the stream key plus the
//!   [`trips_phase::PhaseSpec`];
//! * live-point checkpoint sets ([`Session::set_live_points`]): the
//!   parent stream key plus the fitted plan's signature, the timing
//!   configuration's signature and the core discriminant. When the tier
//!   is enabled, a phased replay whose plan skips work first resolves
//!   its checkpoint set (memo → store → one capture pass that *is* the
//!   sequential replay), then serves every later request by restoring
//!   each window's warmed state and replaying only the measured windows
//!   — as independent jobs on the work-stealing pool
//!   ([`crate::pool::parallel_map`]), so one long stream replays in
//!   parallel and a warm store serves any sweep point with zero
//!   stream-prefix replay. Restored window replay is bit-identical to
//!   fast-forward-then-replay on every backend (enforced by tests in
//!   both timing crates).
//!
//! With a content-addressed [`TraceStore`] installed
//! ([`Session::with_store`]), the four tiers whose identities implement
//! [`StoreKey`] — block traces ([`TraceId`]), RISC streams
//! ([`RiscTraceId`]), fitted phase artifacts ([`BbvId`]) and live-point
//! sets ([`LivePointId`]) — persist across processes through one disk
//! choreography. On a memo miss the verified container is loaded and
//! deep-validated against what it must describe (a log or stream against
//! the compiled program, an artifact against its stream, a set against
//! its plan); a container-valid but foreign file is quarantined, never
//! served. Otherwise the tier produces the artifact (behind its chaos
//! hook, span and cost timer) and writes it back, so process B replays
//! what process A captured. A store whose circuit breaker has tripped is
//! skipped: the session degrades to memory-only tiers.
//!
//! Each tier counts its events — memo hits and misses, and for the four
//! store-backed tiers also captures, disk hits, misses, rejects, I/O
//! errors and store writes — once, into both [`CacheStats`] and a
//! metrics-registry series named `session_<tier prefix><event>`.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use trips_compiler::{CompileOptions, CompiledProgram};
use trips_isa::{TraceId, TraceLog, TraceMeta};
use trips_workloads::{Scale, Workload};

use crate::store::{
    plan_sig, BbvId, LivePointId, LivePointSet, LiveState, LoadOutcome, RiscTraceId, StoreKey,
    TraceStore,
};
use trips_ooo::OooCore;
use trips_phase::{PhaseArtifact, PhaseSpec};
use trips_risc::{RiscTrace, RiscTraceMeta};
use trips_sample::{PhasePlan, PhaseWindow, ReplayMode, SamplePlan, TimingCore};
use trips_sim::TsimCore;

/// Engine failures (compile and functional-execution errors are carried as
/// rendered strings so they can live in the cache).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The workload name is not in the registry.
    UnknownWorkload(String),
    /// The TRIPS compiler rejected the program.
    Compile(String),
    /// The functional capture failed (including budget exhaustion).
    Capture(String),
    /// Trace replay was rejected (header/index mismatch).
    Replay(String),
    /// A malformed sweep specification.
    Spec(String),
    /// A failure that is *not* a property of the inputs — an injected
    /// chaos fault, a disk having a moment — and may well succeed on
    /// retry. Unlike every other variant, transient failures are evicted
    /// from the memo instead of cached, so the sweep layer's retries can
    /// re-resolve the artifact.
    Transient(String),
}

impl EngineError {
    /// True for failures a retry may fix (see [`EngineError::Transient`]).
    #[must_use]
    pub fn is_transient(&self) -> bool {
        matches!(self, EngineError::Transient(_))
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownWorkload(w) => write!(f, "unknown workload `{w}`"),
            EngineError::Compile(e) => write!(f, "compile failed: {e}"),
            EngineError::Capture(e) => write!(f, "trace capture failed: {e}"),
            EngineError::Replay(e) => write!(f, "trace replay failed: {e}"),
            EngineError::Spec(e) => write!(f, "bad sweep spec: {e}"),
            EngineError::Transient(e) => write!(f, "transient failure: {e}"),
        }
    }
}

impl Error for EngineError {}

/// A stable signature of a [`CompileOptions`] value (the shared
/// [`StableHasher`](trips_isa::hash::StableHasher) over its debug
/// rendering; options are plain scalars so the rendering is canonical).
pub fn opts_sig(opts: &CompileOptions) -> u64 {
    let mut h = trips_isa::hash::StableHasher::new();
    h.write(format!("{opts:?}").as_bytes());
    h.finish()
}

/// A stable content signature of the code a capture would execute: the
/// TRIPS blocks, the optimized IR functions and entry, and the data image
/// (the data segment's debug-only symbol table is deliberately excluded —
/// it lives in a `HashMap`, whose serialization order is not stable).
/// Folded into the trace store key so that a compiler change retires every
/// stale stored trace by itself, without waiting for a
/// `TRACE_VERSION` bump.
pub fn code_sig(compiled: &CompiledProgram) -> u64 {
    let mut h = trips_isa::hash::StableHasher::new();
    h.write(&serde::bin::to_bytes(&compiled.trips));
    h.write(&serde::bin::to_bytes(&compiled.opt_ir.funcs));
    h.write(&serde::bin::to_bytes(&compiled.opt_ir.entry));
    h.write(compiled.opt_ir.data.image());
    h.finish()
}

/// The RISC-side counterpart of [`code_sig`]: a stable content signature of
/// the compiled RISC program plus the optimized IR it executes against
/// (data image included, symbol table excluded for the same stability
/// reason). Folded into the RISC trace-store key so a codegen or optimizer
/// change retires every stale stored stream by itself.
pub fn risc_code_sig(art: &RiscArtifacts) -> u64 {
    let mut h = trips_isa::hash::StableHasher::new();
    h.write(&serde::bin::to_bytes(&art.program));
    h.write(&serde::bin::to_bytes(&art.ir.funcs));
    h.write(&serde::bin::to_bytes(&art.ir.entry));
    h.write(art.ir.data.image());
    h.finish()
}

/// A stable signature of a [`trips_sim::TripsConfig`] (the shared
/// [`StableHasher`](trips_isa::hash::StableHasher) over its debug
/// rendering; configurations are plain scalars so the rendering is
/// canonical). Keys the memoized-replay tier alongside the sampling plan.
pub fn trips_cfg_sig(cfg: &trips_sim::TripsConfig) -> u64 {
    let mut h = trips_isa::hash::StableHasher::new();
    h.write(format!("{cfg:?}").as_bytes());
    h.finish()
}

/// The out-of-order counterpart of [`trips_cfg_sig`] (the platform name is
/// part of the rendering).
pub fn ooo_cfg_sig(cfg: &trips_ooo::OooConfig) -> u64 {
    let mut h = trips_isa::hash::StableHasher::new();
    h.write(format!("{cfg:?}").as_bytes());
    h.finish()
}

fn scale_label(scale: Scale) -> &'static str {
    match scale {
        Scale::Test => "test",
        Scale::Ref => "ref",
    }
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct CompileKey {
    workload: String,
    scale: &'static str,
    opts: u64,
    hand: bool,
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct TraceKey {
    compile: CompileKey,
    mem: usize,
    budget: u64,
}

impl CompileKey {
    fn new(w: &Workload, scale: Scale, opts: &CompileOptions, hand: bool) -> CompileKey {
        CompileKey {
            workload: w.name.to_string(),
            scale: scale_label(scale),
            opts: opts_sig(opts),
            hand,
        }
    }
}

impl TraceKey {
    fn new(
        w: &Workload,
        scale: Scale,
        opts: &CompileOptions,
        hand: bool,
        mem: usize,
        budget: u64,
    ) -> TraceKey {
        TraceKey {
            compile: CompileKey::new(w, scale, opts, hand),
            mem,
            budget,
        }
    }

    /// The store identity of the TRIPS block trace captured under this key.
    fn trips_id(&self, compiled: &CompiledProgram) -> TraceId {
        let c = &self.compile;
        TraceId {
            workload: c.workload.clone(),
            scale: c.scale.to_string(),
            opts_sig: c.opts,
            hand: c.hand,
            code_sig: code_sig(compiled),
            mem_size: self.mem as u64,
            max_blocks: self.budget,
        }
    }

    /// The store identity of the RISC event stream captured under this key.
    fn risc_id(&self, art: &RiscArtifacts) -> RiscTraceId {
        let c = &self.compile;
        RiscTraceId {
            workload: c.workload.clone(),
            scale: c.scale.to_string(),
            opts_sig: c.opts,
            code_sig: risc_code_sig(art),
            mem_size: self.mem as u64,
            max_steps: self.budget,
        }
    }
}

/// The normalized replay-mode component of a [`ReplayKey`]: covering
/// plans of either kind collapse to `Full` before keying, so bit-identical
/// results share one entry and genuinely different modes never alias.
#[derive(Clone, PartialEq, Eq, Hash)]
enum ModeKey {
    Full,
    Sampled(SamplePlan),
    Phased(PhasePlan),
}

impl ModeKey {
    fn of(mode: &ReplayMode) -> ModeKey {
        if let Some(p) = mode.plan() {
            ModeKey::Sampled(*p)
        } else if let Some(p) = mode.phase() {
            ModeKey::Phased(p.clone())
        } else {
            ModeKey::Full
        }
    }
}

/// Key of one memoized timing replay: the trace identity, the timing
/// configuration, and the normalized replay mode (full, systematic plan,
/// or fitted phase plan).
#[derive(Clone, PartialEq, Eq, Hash)]
struct ReplayKey {
    trace: TraceKey,
    cfg: u64,
    mode: ModeKey,
}

/// Key of one memoized phase fit: the stream identity plus the fit
/// parameters (`risc` separates the two stream kinds, which share the
/// in-memory map).
#[derive(Clone, PartialEq, Eq, Hash)]
struct PhaseKey {
    trace: TraceKey,
    risc: bool,
    spec: PhaseSpec,
}

type Slot<T> = Arc<OnceLock<Result<Arc<T>, EngineError>>>;

/// One session counter, kept in two places by one writer: a relaxed
/// atomic that [`Session::cache_stats`] reads, and the metrics-registry
/// series a `--metrics` snapshot reads. Artifact-granularity (per
/// compile, capture or disk probe, never per replayed unit), so the
/// registry lock is uncontended in practice.
struct Count {
    n: AtomicU64,
    series: String,
}

impl Count {
    fn new(series: String) -> Count {
        Count {
            n: AtomicU64::new(0),
            series,
        }
    }

    fn bump(&self) {
        self.n.fetch_add(1, Ordering::Relaxed);
        trips_obs::counter(&self.series).inc(1);
    }

    fn get(&self) -> u64 {
        self.n.load(Ordering::Relaxed)
    }
}

/// What a tier counts: every tier its memo hits and misses, a
/// store-backed tier also each outcome of the disk choreography.
#[derive(Clone, Copy)]
enum Event {
    MemoHit,
    MemoMiss,
    /// The tier produced the artifact itself (capture, fit, or live-point
    /// capture pass) because neither memo nor disk could serve it.
    Capture,
    DiskHit,
    DiskMiss,
    /// A stored file failed verification or deep validation.
    DiskReject,
    /// A stored file could not be read (it is left in place).
    DiskIoError,
    StoreWrite,
}

/// Registry-series suffix of each [`Event`], in declaration order.
const EVENT_SERIES: [&str; 8] = [
    "memo_hits",
    "memo_misses",
    "captures",
    "disk_hits",
    "disk_misses",
    "disk_rejects",
    "disk_io_errors",
    "store_writes",
];

/// One tier's event counters, with registry series named
/// `session_<prefix><event>`. The TRIPS block-trace tier has the empty
/// prefix (its series predate the other tiers'), so its disk hits are
/// `session_disk_hits` and the RISC tier's `session_risc_disk_hits`.
struct TierStats(Vec<Count>);

impl TierStats {
    /// A memory-only tier: memo hits and misses.
    fn memo(prefix: &str) -> TierStats {
        TierStats::counting(prefix, &EVENT_SERIES[..2])
    }

    /// A store-backed tier: every [`Event`].
    fn disk(prefix: &str) -> TierStats {
        TierStats::counting(prefix, &EVENT_SERIES)
    }

    fn counting(prefix: &str, events: &[&str]) -> TierStats {
        TierStats(
            events
                .iter()
                .map(|e| Count::new(format!("session_{prefix}{e}")))
                .collect(),
        )
    }

    fn bump(&self, e: Event) {
        self.0[e as usize].bump();
    }

    fn get(&self, e: Event) -> u64 {
        self.0[e as usize].get()
    }
}

/// One memoized tier: the slot map and the tier's counters.
struct Memo<K, T> {
    map: Mutex<HashMap<K, Slot<T>>>,
    stats: TierStats,
}

impl<K: Clone + Eq + Hash, T> Memo<K, T> {
    fn new(stats: TierStats) -> Memo<K, T> {
        Memo {
            map: Mutex::new(HashMap::new()),
            stats,
        }
    }

    fn map(&self) -> MutexGuard<'_, HashMap<K, Slot<T>>> {
        self.map.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The artifact under `key`, computed by `init` on the first request
    /// (concurrent requests wait on that one run, outside the map lock).
    ///
    /// Transient failures must not poison the memo ("failures are cached
    /// too" is for *deterministic* failures — a workload that cannot
    /// compile fails every time; an injected I/O fault does not), so their
    /// slot is evicted and the next request re-resolves the artifact,
    /// which is what makes sweep-level retries effective.
    fn get_or_init(
        &self,
        key: &K,
        init: impl FnOnce() -> Result<Arc<T>, EngineError>,
    ) -> Result<Arc<T>, EngineError> {
        let (slot, event) = {
            let mut map = self.map();
            match map.get(key) {
                Some(slot) => (Arc::clone(slot), Event::MemoHit),
                None => {
                    let slot: Slot<T> = Arc::default();
                    map.insert(key.clone(), Arc::clone(&slot));
                    (slot, Event::MemoMiss)
                }
            }
        };
        self.stats.bump(event);
        let res = slot.get_or_init(init).clone();
        if matches!(&res, Err(e) if e.is_transient()) {
            let mut map = self.map();
            // Only evict our own slot — a racing retry may already have
            // installed a fresh one.
            if map.get(key).is_some_and(|cur| Arc::ptr_eq(cur, &slot)) {
                map.remove(key);
            }
        }
        res
    }
}

/// Cache hit/miss counters (for the sweep report's summary).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct CacheStats {
    /// Compile requests served from cache.
    pub compile_hits: u64,
    /// Compiles actually performed.
    pub compile_misses: u64,
    /// Trace requests served from cache.
    pub trace_hits: u64,
    /// Functional captures actually performed.
    pub trace_misses: u64,
    /// ISA-stats requests served from cache.
    pub isa_hits: u64,
    /// Functional ISA runs actually performed.
    pub isa_misses: u64,
    /// RISC-program requests served from cache.
    pub risc_hits: u64,
    /// RISC compiles actually performed.
    pub risc_misses: u64,
    /// Functional captures actually executed (an in-memory trace miss that
    /// the disk tier could not serve either). Without a store this equals
    /// the trace misses that reached capture.
    pub captures: u64,
    /// Traces served from the on-disk store.
    pub disk_hits: u64,
    /// Store lookups that found no file.
    pub disk_misses: u64,
    /// Store files rejected (truncated/corrupt/stale) and recaptured.
    pub disk_rejects: u64,
    /// Fresh captures persisted to the store.
    pub store_writes: u64,
    /// RISC event-stream requests served from cache.
    pub rtrace_hits: u64,
    /// RISC event-stream requests that missed in memory.
    pub rtrace_misses: u64,
    /// Functional RISC executions actually performed (a miss the disk tier
    /// could not serve either): the number the warm-sweep CI job asserts
    /// is zero.
    pub risc_captures: u64,
    /// RISC streams served from the on-disk store.
    pub risc_disk_hits: u64,
    /// RISC store lookups that found no file.
    pub risc_disk_misses: u64,
    /// RISC store files rejected and recaptured.
    pub risc_disk_rejects: u64,
    /// Fresh RISC captures persisted to the store.
    pub risc_store_writes: u64,
    /// Phase-plan requests served from the memoized-fit tier.
    pub phase_hits: u64,
    /// Phase-plan requests that missed in memory.
    pub phase_misses: u64,
    /// Clusterings actually performed (a miss the disk tier could not
    /// serve either): the number the warm-store gate asserts is zero.
    pub phase_fits: u64,
    /// Fitted plans served from the on-disk store.
    pub phase_disk_hits: u64,
    /// BBV store lookups that found no file.
    pub phase_disk_misses: u64,
    /// BBV store files rejected (corrupt or fitted to a different stream)
    /// and re-clustered.
    pub phase_disk_rejects: u64,
    /// Fresh fits persisted to the store.
    pub phase_store_writes: u64,
    /// Live-point set requests served from the in-memory tier.
    pub livepoint_hits: u64,
    /// Live-point set requests that missed in memory.
    pub livepoint_misses: u64,
    /// Checkpoint-capture passes actually run (a miss the disk tier could
    /// not serve either): the number the warm-sweep CI gate asserts is
    /// zero on a second pass.
    pub livepoint_captures: u64,
    /// Live-point sets served from the on-disk store.
    pub livepoint_disk_hits: u64,
    /// Live-point store lookups that found no file.
    pub livepoint_disk_misses: u64,
    /// Live-point store files rejected (corrupt, foreign identity, or the
    /// wrong shape for the plan) and recaptured.
    pub livepoint_disk_rejects: u64,
    /// Fresh checkpoint sets persisted to the store.
    pub livepoint_store_writes: u64,
    /// TRIPS timing replays served from the memoized-result tier.
    pub replay_hits: u64,
    /// TRIPS timing replays actually performed.
    pub replay_misses: u64,
    /// OoO timing replays served from the memoized-result tier.
    pub ooo_replay_hits: u64,
    /// OoO timing replays actually performed.
    pub ooo_replay_misses: u64,
    /// Trace-tier store lookups that failed with a read I/O error (after
    /// the store's own retries). Unlike a reject, the file was *not*
    /// proven bad; unlike a miss, the disk is flaky — counted apart so
    /// neither signal hides the other.
    pub disk_io_errors: u64,
    /// RISC-tier store lookups that failed with a read I/O error.
    pub risc_disk_io_errors: u64,
    /// Phase-tier store lookups that failed with a read I/O error.
    pub phase_disk_io_errors: u64,
    /// Live-point-tier store lookups that failed with a read I/O error.
    pub livepoint_disk_io_errors: u64,
    /// Requests that skipped the disk tier entirely because the store's
    /// circuit breaker is open (the session is degraded to memory-only
    /// tiers).
    pub degraded: u64,
}

/// A memoizing measurement session shared by all sweep workers.
pub struct Session {
    compiled: Memo<CompileKey, CompiledProgram>,
    traces: Memo<TraceKey, TraceLog>,
    isa: Memo<TraceKey, IsaOutcome>,
    risc: Memo<CompileKey, RiscArtifacts>,
    rtraces: Memo<TraceKey, RiscTrace>,
    replays: Memo<ReplayKey, trips_sim::SimResult>,
    ooo_replays: Memo<ReplayKey, trips_ooo::OooResult>,
    phases: Memo<PhaseKey, PhasePlan>,
    livepoints: Memo<LivePointId, LivePointSet>,
    /// Requests that skipped the disk tier because the store's circuit
    /// breaker is open.
    degraded: Count,
    /// Live-point tier switch: the window-replay worker count when
    /// enabled (0 = one per core, the pool's convention).
    live_points: Mutex<Option<usize>>,
    store: OnceLock<TraceStore>,
}

impl Default for Session {
    fn default() -> Session {
        Session {
            compiled: Memo::new(TierStats::memo("compile_")),
            traces: Memo::new(TierStats::disk("")),
            isa: Memo::new(TierStats::memo("isa_")),
            risc: Memo::new(TierStats::memo("risc_program_")),
            rtraces: Memo::new(TierStats::disk("risc_")),
            replays: Memo::new(TierStats::memo("replay_")),
            ooo_replays: Memo::new(TierStats::memo("ooo_replay_")),
            phases: Memo::new(TierStats::disk("phase_")),
            livepoints: Memo::new(TierStats::disk("livepoint_")),
            degraded: Count::new("session_degraded".to_string()),
            live_points: Mutex::new(None),
            store: OnceLock::new(),
        }
    }
}

/// A cached functional (untimed) run: what the ISA figures need, without
/// retaining the full trace stream.
#[derive(Debug, Clone)]
pub struct IsaOutcome {
    /// ISA-level statistics.
    pub stats: trips_isa::IsaStats,
    /// The program's return value.
    pub return_value: u64,
}

/// A cached RISC-side build: the compiled RISC program plus the optimized
/// IR it executes against (the reference backends need both).
#[derive(Debug)]
pub struct RiscArtifacts {
    /// The RISC program.
    pub program: trips_risc::RProgram,
    /// The optimized IR (data image + reference semantics).
    pub ir: trips_ir::Program,
}

impl Session {
    /// A fresh, empty session.
    pub fn new() -> Session {
        Session::default()
    }

    /// A fresh session backed by an on-disk trace store: trace requests
    /// that miss in memory consult (and fill) `store`.
    pub fn with_store(store: TraceStore) -> Session {
        let s = Session::new();
        let _ = s.store.set(store);
        s
    }

    /// Installs an on-disk trace store after construction (used by the
    /// experiment harness, whose session is a process-wide static).
    ///
    /// # Errors
    /// Returns the store back if one is already installed.
    pub fn set_store(&self, store: TraceStore) -> Result<(), TraceStore> {
        self.store.set(store)
    }

    /// The on-disk trace store, if one is installed.
    pub fn store(&self) -> Option<&TraceStore> {
        self.store.get()
    }

    /// Switches the live-point tier: with `Some(threads)`, phased replays
    /// whose plan skips work capture (or load) persisted per-window
    /// checkpoints and replay each measured window as its own job on
    /// `threads` pool workers (0 = one per core); `None` turns it off.
    /// Off by default — each sweep sets it from its spec
    /// (`--live-points`).
    pub fn set_live_points(&self, threads: Option<usize>) {
        *self
            .live_points
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = threads;
    }

    /// The live-point worker count, when the tier is enabled (0 = one
    /// per core).
    pub fn live_points(&self) -> Option<usize> {
        *self
            .live_points
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The process-wide session used by the experiment harness, so separate
    /// figures share compiles and captures.
    pub fn global() -> &'static Session {
        static GLOBAL: OnceLock<Session> = OnceLock::new();
        GLOBAL.get_or_init(Session::new)
    }

    /// Registers every tier's metrics series, so a `--metrics` snapshot
    /// carries them (as zeros) even when a run never hit the event.
    pub(crate) fn register_series(&self) {
        let tiers = [
            &self.compiled.stats,
            &self.traces.stats,
            &self.isa.stats,
            &self.risc.stats,
            &self.rtraces.stats,
            &self.replays.stats,
            &self.ooo_replays.stats,
            &self.phases.stats,
            &self.livepoints.stats,
        ];
        for count in tiers.into_iter().flat_map(|t| &t.0).chain([&self.degraded]) {
            let _ = trips_obs::counter(&count.series);
        }
    }

    /// The disk tier, unless the store's circuit breaker has tripped —
    /// then the request counts as degraded and is served memory-only
    /// (produce instead of read, skip the write-back) rather than
    /// paying retry backoffs against a disk that is plainly gone.
    fn healthy_store(&self) -> Option<&TraceStore> {
        let store = self.store.get()?;
        if store.degraded() {
            self.degraded.bump();
            return None;
        }
        Some(store)
    }

    /// The disk choreography every store-backed tier runs on a memo miss:
    /// a verified stored payload that also passes `deep_check` stands in
    /// for `produce`; a container-valid payload that fails it (e.g. a
    /// stale build's capture) is quarantined; otherwise `produce` runs and
    /// its result is written back. `produce` carries the tier's chaos
    /// hook, span and cost timer; a transient error from it is that hook
    /// firing before any work ran, so it counts no capture.
    fn through_store<K: StoreKey>(
        &self,
        stats: &TierStats,
        id: &K,
        deep_check: impl FnOnce(&K::Payload) -> Result<(), String>,
        produce: impl FnOnce() -> Result<K::Payload, EngineError>,
    ) -> Result<K::Payload, EngineError> {
        // Consulted once per resolve, so a degraded request counts once.
        let store = self.healthy_store();
        if let Some(store) = store {
            let event = match store.load(id) {
                LoadOutcome::Hit(payload) => match deep_check(&payload) {
                    Ok(()) => {
                        stats.bump(Event::DiskHit);
                        trips_obs::cost::set_tier("disk");
                        return Ok(*payload);
                    }
                    Err(why) => {
                        store.quarantine(id, &format!("deep validation failed: {why}"));
                        Event::DiskReject
                    }
                },
                LoadOutcome::Miss => Event::DiskMiss,
                LoadOutcome::Reject(_) => Event::DiskReject,
                LoadOutcome::IoError(_) => Event::DiskIoError,
            };
            stats.bump(event);
        }
        let produced = produce();
        if !matches!(&produced, Err(e) if e.is_transient()) {
            stats.bump(Event::Capture);
        }
        let payload = produced?;
        // The breaker may have tripped during this very resolve; re-check
        // without counting the request as degraded a second time.
        if let Some(store) = store.filter(|s| !s.degraded()) {
            if store.save(id, &payload).is_ok() {
                stats.bump(Event::StoreWrite);
            }
        }
        Ok(payload)
    }

    /// Compiles `workload` (memoized). `hand` selects the hand-optimized IR
    /// variant, mirroring the paper's H bars.
    ///
    /// # Errors
    /// [`EngineError::Compile`] (cached: retries see the same failure).
    pub fn compiled(
        &self,
        w: &Workload,
        scale: Scale,
        opts: &CompileOptions,
        hand: bool,
    ) -> Result<Arc<CompiledProgram>, EngineError> {
        self.compiled
            .get_or_init(&CompileKey::new(w, scale, opts, hand), || {
                let _span = trips_obs::span_with("session.compile", || w.name.to_string());
                let _cost = trips_obs::cost::Timed::start(trips_obs::CostKind::Capture);
                trips_obs::counter("session_compiles_total{side=\"trips\"}").inc(1);
                let program = if hand {
                    w.build_hand(scale)
                } else {
                    (w.build)(scale)
                };
                trips_compiler::compile(&program, opts)
                    .map(Arc::new)
                    .map_err(|e| EngineError::Compile(format!("{}: {e}", w.name)))
            })
    }

    /// Captures (memoized) the functional trace of `workload` compiled with
    /// `opts`, under `mem` bytes of memory and a `budget` block budget.
    ///
    /// # Errors
    /// [`EngineError::Compile`] or [`EngineError::Capture`] (both cached).
    pub fn trace(
        &self,
        w: &Workload,
        scale: Scale,
        opts: &CompileOptions,
        hand: bool,
        mem: usize,
        budget: u64,
    ) -> Result<Arc<TraceLog>, EngineError> {
        let key = TraceKey::new(w, scale, opts, hand, mem, budget);
        trips_obs::cost::set_tier("mem");
        self.traces.get_or_init(&key, || {
            let compiled = self.compiled(w, scale, opts, hand)?;
            let id = key.trips_id(&compiled);
            self.through_store(
                &self.traces.stats,
                &id,
                |log| {
                    log.validate(&compiled.trips)
                        .map_err(|e| format!("log does not match the compiled program: {e}"))
                },
                || {
                    if let Some(why) = trips_chaos::capture_fault() {
                        return Err(EngineError::Transient(format!("{}: {why}", w.name)));
                    }
                    trips_obs::cost::set_tier("capture");
                    let _span =
                        trips_obs::span_with("session.capture_trace", || w.name.to_string());
                    let _cost = trips_obs::cost::Timed::start(trips_obs::CostKind::Capture);
                    let meta = TraceMeta {
                        workload: id.workload.clone(),
                        scale: id.scale.clone(),
                        opts_sig: id.opts_sig,
                    };
                    TraceLog::capture(&compiled.trips, &compiled.opt_ir, mem, budget, meta)
                        .map_err(|e| EngineError::Capture(format!("{}: {e}", w.name)))
                },
            )
            .map(Arc::new)
        })
    }

    /// Runs (memoized) the functional interpreter for ISA-level statistics
    /// only — unlike [`Session::trace`], nothing per-block is retained, so
    /// this is the right call when no replay will happen (the ISA figures).
    ///
    /// # Errors
    /// [`EngineError::Compile`] or [`EngineError::Capture`] (both cached).
    pub fn isa_outcome(
        &self,
        w: &Workload,
        scale: Scale,
        opts: &CompileOptions,
        hand: bool,
        mem: usize,
        budget: u64,
    ) -> Result<Arc<IsaOutcome>, EngineError> {
        let key = TraceKey::new(w, scale, opts, hand, mem, budget);
        trips_obs::cost::set_tier("mem");
        self.isa.get_or_init(&key, || {
            let compiled = self.compiled(w, scale, opts, hand)?;
            trips_obs::cost::set_tier("capture");
            let _span = trips_obs::span_with("session.capture_isa", || w.name.to_string());
            let _cost = trips_obs::cost::Timed::start(trips_obs::CostKind::Capture);
            trips_obs::counter("session_isa_runs_total").inc(1);
            trips_isa::interp::run_program_with(&compiled.trips, &compiled.opt_ir, mem, budget)
                .map(|out| {
                    Arc::new(IsaOutcome {
                        stats: out.stats,
                        return_value: out.return_value,
                    })
                })
                .map_err(|e| EngineError::Capture(format!("{}: {e}", w.name)))
        })
    }

    /// Builds (memoized) the RISC-side program: IR built, optimized with
    /// `opts`, and lowered by the RISC code generator. Shared by the RISC
    /// baseline and every OoO reference platform.
    ///
    /// # Errors
    /// [`EngineError::Compile`] (cached).
    pub fn risc_program(
        &self,
        w: &Workload,
        scale: Scale,
        opts: &CompileOptions,
    ) -> Result<Arc<RiscArtifacts>, EngineError> {
        self.risc
            .get_or_init(&CompileKey::new(w, scale, opts, false), || {
                let _span =
                    trips_obs::span_with("session.compile", || format!("{} (risc)", w.name));
                let _cost = trips_obs::cost::Timed::start(trips_obs::CostKind::Capture);
                trips_obs::counter("session_compiles_total{side=\"risc\"}").inc(1);
                let mut ir = (w.build)(scale);
                trips_compiler::opt::optimize(&mut ir, opts);
                trips_risc::compile_program(&ir)
                    .map(|program| Arc::new(RiscArtifacts { program, ir }))
                    .map_err(|e| EngineError::Compile(format!("{} (risc): {e}", w.name)))
            })
    }

    /// Captures (memoized) the RISC event stream of `workload` built with
    /// `opts`, under `mem` bytes of memory and a `budget` instruction
    /// budget — the execution every out-of-order configuration replays and
    /// the source of the instruction-count figures' denominators.
    ///
    /// With a store installed, the disk tier is consulted on an in-memory
    /// miss (and filled on capture), so process B times OoO points from
    /// process A's recorded execution with zero re-executions.
    ///
    /// # Errors
    /// [`EngineError::Compile`] or [`EngineError::Capture`] (both cached).
    pub fn risc_trace(
        &self,
        w: &Workload,
        scale: Scale,
        opts: &CompileOptions,
        mem: usize,
        budget: u64,
    ) -> Result<Arc<RiscTrace>, EngineError> {
        let key = TraceKey::new(w, scale, opts, false, mem, budget);
        trips_obs::cost::set_tier("mem");
        self.rtraces.get_or_init(&key, || {
            let art = self.risc_program(w, scale, opts)?;
            let id = key.risc_id(&art);
            self.through_store(
                &self.rtraces.stats,
                &id,
                |trace| {
                    trace
                        .validate(&art.program)
                        .map_err(|e| format!("stream does not match the compiled program: {e}"))
                },
                || {
                    if let Some(why) = trips_chaos::capture_fault() {
                        return Err(EngineError::Transient(format!("{} (risc): {why}", w.name)));
                    }
                    trips_obs::cost::set_tier("capture");
                    let _span = trips_obs::span_with("session.capture_risc", || w.name.to_string());
                    let _cost = trips_obs::cost::Timed::start(trips_obs::CostKind::Capture);
                    let meta = RiscTraceMeta {
                        workload: id.workload.clone(),
                        scale: id.scale.clone(),
                        opts_sig: id.opts_sig,
                    };
                    RiscTrace::capture(&art.program, &art.ir, mem, budget, meta)
                        .map_err(|e| EngineError::Capture(format!("{} (risc): {e}", w.name)))
                },
            )
            .map(Arc::new)
        })
    }

    /// The fitted phase plan for a workload's TRIPS block-trace stream
    /// (memoized, store-backed): BBV extraction + clustering run **once
    /// per store** — an in-memory miss consults the disk tier (a
    /// verified, stream-validated [`PhaseArtifact`] stands in for a
    /// fresh fit), and fresh fits are written back. The fit is seeded
    /// from the trace's stable key, so every process derives the
    /// byte-identical plan and N sweep points across N processes cluster
    /// once.
    ///
    /// # Errors
    /// Any cached artifact failure ([`EngineError::Compile`] /
    /// [`EngineError::Capture`], both cached).
    pub fn trips_phase_plan(
        &self,
        w: &Workload,
        scale: Scale,
        opts: &CompileOptions,
        hand: bool,
        mem: usize,
        budget: u64,
        spec: &PhaseSpec,
    ) -> Result<Arc<PhasePlan>, EngineError> {
        let key = PhaseKey {
            trace: TraceKey::new(w, scale, opts, hand, mem, budget),
            risc: false,
            spec: *spec,
        };
        self.phases.get_or_init(&key, || {
            let compiled = self.compiled(w, scale, opts, hand)?;
            let log = self.trace(w, scale, opts, hand, mem, budget)?;
            let seed = key.trace.trips_id(&compiled).stable_hash();
            self.fit_phase(seed, log.seq.len() as u64, spec, || {
                Ok(trips_phase::trips_fit(&log, spec, seed))
            })
        })
    }

    /// The RISC-side counterpart of [`Session::trips_phase_plan`]: the
    /// fitted phase plan over a workload's recorded RISC event stream,
    /// shared by every out-of-order platform that replays it.
    ///
    /// # Errors
    /// Any cached artifact failure, or [`EngineError::Capture`] when the
    /// stream walk fails.
    pub fn ooo_phase_plan(
        &self,
        w: &Workload,
        scale: Scale,
        opts: &CompileOptions,
        mem: usize,
        budget: u64,
        spec: &PhaseSpec,
    ) -> Result<Arc<PhasePlan>, EngineError> {
        let key = PhaseKey {
            trace: TraceKey::new(w, scale, opts, false, mem, budget),
            risc: true,
            spec: *spec,
        };
        self.phases.get_or_init(&key, || {
            let art = self.risc_program(w, scale, opts)?;
            let trace = self.risc_trace(w, scale, opts, mem, budget)?;
            let seed = key.trace.risc_id(&art).stable_hash();
            self.fit_phase(seed, trace.header.dynamic_insts, spec, || {
                trips_phase::risc_fit(&trace, &art.program, spec, seed)
                    .map_err(|e| EngineError::Capture(format!("{} (phase): {e}", w.name)))
            })
        })
    }

    /// The disk step both phase tiers share: the stored artifact under the
    /// parent key and fit parameters, if it validates against the spec and
    /// stream extent, else a fresh fit written back.
    fn fit_phase(
        &self,
        parent_key: u64,
        total_units: u64,
        spec: &PhaseSpec,
        fit: impl FnOnce() -> Result<PhaseArtifact, EngineError>,
    ) -> Result<Arc<PhasePlan>, EngineError> {
        let id = BbvId {
            parent_key,
            interval: spec.interval,
            warmup: spec.warmup,
            k_code: spec.k_code(),
            floor: spec.floor,
            rep_span: spec.rep_span,
            boundary: spec.boundary,
            tail: spec.tail,
        };
        self.through_store(
            &self.phases.stats,
            &id,
            |art| {
                art.validate(spec, total_units)
                    .map_err(|e| format!("artifact fitted to a different stream: {e}"))
            },
            || {
                if let Some(why) = trips_chaos::fit_fault() {
                    return Err(EngineError::Transient(format!("phase fit: {why}")));
                }
                let _span = trips_obs::span("session.fit_phase");
                let _cost = trips_obs::cost::Timed::start(trips_obs::CostKind::Fit);
                fit()
            },
        )
        .map(|art| Arc::new(art.plan))
    }

    /// The replay both timing backends share. Without live-points, or for
    /// a mode that is not phased, it is one [`trips_sample::replay`] of a
    /// fresh `make()` machine (the stream was validated by the tier that
    /// served it). With them, a phased replay resolves its checkpoint set
    /// memo → store → capture; a capture pass *is* the sequential phased
    /// replay, so its result is returned directly and nothing runs twice.
    /// With a resolved set, each measured window replays from its
    /// restored state as an independent pool job, and the measurements
    /// assemble into the bit-identical sequential estimate. Every replay
    /// error is prefixed `"{workload} ({label}): "`.
    fn replay_core<C>(
        &self,
        workload: &str,
        label: &str,
        mode: &ReplayMode,
        cfg_sig: u64,
        parent_key: impl FnOnce() -> u64,
        make: impl Fn() -> C + Sync,
    ) -> Result<C::Output, EngineError>
    where
        C: TimingCore,
        C::Snapshot: LiveState + Sync,
        C::Stats: Send,
        C::Error: fmt::Display + Send,
    {
        let fail = |why: String| EngineError::Replay(format!("{workload} ({label}): {why}"));
        let core_fail = |e: C::Error| fail(e.to_string());
        let (Some(threads), Some(plan)) = (self.live_points(), mode.phase()) else {
            return trips_sample::replay(make(), mode).map_err(core_fail);
        };
        let id = LivePointId {
            parent_key: parent_key(),
            plan_sig: plan_sig(plan),
            cfg_sig,
            core: C::Snapshot::CORE,
        };
        let mut fresh = None;
        let set = self.livepoints.get_or_init(&id, || {
            self.through_store(
                &self.livepoints.stats,
                &id,
                |set| C::Snapshot::fitted(set, plan).map(drop),
                || {
                    trips_obs::cost::set_tier("capture");
                    let _span = trips_obs::span_with("session.capture_livepoints", || {
                        format!("{label} cfg={cfg_sig:016x}")
                    });
                    let (res, snaps) =
                        trips_sample::capture_phased(make(), plan).map_err(core_fail)?;
                    fresh = Some(res);
                    Ok(LivePointSet {
                        parent_key: id.parent_key,
                        plan_sig: id.plan_sig,
                        cfg_sig,
                        core: id.core,
                        total_units: plan.total_units,
                        states: C::Snapshot::wrap(snaps),
                    })
                },
            )
            .map(Arc::new)
        })?;
        if let Some(res) = fresh {
            return Ok(res);
        }
        let snaps = C::Snapshot::fitted(&set, plan).map_err(fail)?;
        let _span = trips_obs::span_with("session.replay_windows", || {
            format!("{} n={}", C::LABEL, snaps.len())
        });
        let jobs: Vec<(PhaseWindow, &C::Snapshot)> =
            plan.windows.iter().copied().zip(snaps).collect();
        let windows = crate::pool::parallel_map(jobs, threads, |(window, snap)| {
            trips_sample::replay_window(make(), &window, snap)
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .map_err(core_fail)?;
        trips_sample::assemble_windows(make(), plan, &windows).map_err(core_fail)
    }

    /// The out-of-order front of the session's generic replay: times one
    /// reference platform over the (memoized) recorded RISC stream — one
    /// functional execution, N of these. Results are memoized like
    /// [`Session::replayed`]'s.
    ///
    /// # Errors
    /// Any cached artifact failure, or [`EngineError::Replay`] (cached).
    pub fn ooo_replayed(
        &self,
        w: &Workload,
        scale: Scale,
        opts: &CompileOptions,
        cfg: &trips_ooo::OooConfig,
        mem: usize,
        budget: u64,
        mode: &ReplayMode,
    ) -> Result<Arc<trips_ooo::OooResult>, EngineError> {
        let key = ReplayKey {
            trace: TraceKey::new(w, scale, opts, false, mem, budget),
            cfg: ooo_cfg_sig(cfg),
            mode: ModeKey::of(mode),
        };
        trips_obs::cost::set_tier("memo");
        self.ooo_replays.get_or_init(&key, || {
            let art = self.risc_program(w, scale, opts)?;
            let trace = self.risc_trace(w, scale, opts, mem, budget)?;
            let _span =
                trips_obs::span_with("session.replay_ooo", || format!("{} {}", w.name, cfg.name));
            self.replay_core(
                w.name,
                &cfg.name,
                mode,
                key.cfg,
                || key.trace.risc_id(&art).stable_hash(),
                || OooCore::new(&art.program, &trace, cfg),
            )
            .map(Arc::new)
        })
    }

    /// The TRIPS front of the session's generic replay: replays the (memoized)
    /// block trace against one timing configuration — one capture, N of
    /// these. Results are memoized under the trace key, the configuration
    /// signature *and* the normalized mode, so full, sampled and phased
    /// measurements never alias.
    ///
    /// # Errors
    /// Any cached artifact failure, or [`EngineError::Replay`] (cached).
    pub fn replayed(
        &self,
        w: &Workload,
        scale: Scale,
        opts: &CompileOptions,
        hand: bool,
        cfg: &trips_sim::TripsConfig,
        mem: usize,
        budget: u64,
        mode: &ReplayMode,
    ) -> Result<Arc<trips_sim::SimResult>, EngineError> {
        let key = ReplayKey {
            trace: TraceKey::new(w, scale, opts, hand, mem, budget),
            cfg: trips_cfg_sig(cfg),
            mode: ModeKey::of(mode),
        };
        trips_obs::cost::set_tier("memo");
        self.replays.get_or_init(&key, || {
            let compiled = self.compiled(w, scale, opts, hand)?;
            let log = self.trace(w, scale, opts, hand, mem, budget)?;
            let _span = trips_obs::span_with("session.replay_trips", || {
                format!("{} cfg={:016x}", w.name, key.cfg)
            });
            self.replay_core(
                w.name,
                "trips",
                mode,
                key.cfg,
                || key.trace.trips_id(&compiled).stable_hash(),
                || TsimCore::new(&compiled, cfg, &log),
            )
            .map(Arc::new)
        })
    }

    /// Current hit/miss counters.
    pub fn cache_stats(&self) -> CacheStats {
        use Event::{
            Capture, DiskHit, DiskIoError, DiskMiss, DiskReject, MemoHit, MemoMiss, StoreWrite,
        };
        let (t, r, p, l) = (
            &self.traces.stats,
            &self.rtraces.stats,
            &self.phases.stats,
            &self.livepoints.stats,
        );
        CacheStats {
            compile_hits: self.compiled.stats.get(MemoHit),
            compile_misses: self.compiled.stats.get(MemoMiss),
            trace_hits: t.get(MemoHit),
            trace_misses: t.get(MemoMiss),
            isa_hits: self.isa.stats.get(MemoHit),
            isa_misses: self.isa.stats.get(MemoMiss),
            risc_hits: self.risc.stats.get(MemoHit),
            risc_misses: self.risc.stats.get(MemoMiss),
            captures: t.get(Capture),
            disk_hits: t.get(DiskHit),
            disk_misses: t.get(DiskMiss),
            disk_rejects: t.get(DiskReject),
            store_writes: t.get(StoreWrite),
            rtrace_hits: r.get(MemoHit),
            rtrace_misses: r.get(MemoMiss),
            risc_captures: r.get(Capture),
            risc_disk_hits: r.get(DiskHit),
            risc_disk_misses: r.get(DiskMiss),
            risc_disk_rejects: r.get(DiskReject),
            risc_store_writes: r.get(StoreWrite),
            phase_hits: p.get(MemoHit),
            phase_misses: p.get(MemoMiss),
            phase_fits: p.get(Capture),
            phase_disk_hits: p.get(DiskHit),
            phase_disk_misses: p.get(DiskMiss),
            phase_disk_rejects: p.get(DiskReject),
            phase_store_writes: p.get(StoreWrite),
            livepoint_hits: l.get(MemoHit),
            livepoint_misses: l.get(MemoMiss),
            livepoint_captures: l.get(Capture),
            livepoint_disk_hits: l.get(DiskHit),
            livepoint_disk_misses: l.get(DiskMiss),
            livepoint_disk_rejects: l.get(DiskReject),
            livepoint_store_writes: l.get(StoreWrite),
            replay_hits: self.replays.stats.get(MemoHit),
            replay_misses: self.replays.stats.get(MemoMiss),
            ooo_replay_hits: self.ooo_replays.stats.get(MemoHit),
            ooo_replay_misses: self.ooo_replays.stats.get(MemoMiss),
            disk_io_errors: t.get(DiskIoError),
            risc_disk_io_errors: r.get(DiskIoError),
            phase_disk_io_errors: p.get(DiskIoError),
            livepoint_disk_io_errors: l.get(DiskIoError),
            degraded: self.degraded.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trips_workloads::by_name;

    #[test]
    fn compile_cache_deduplicates() {
        let s = Session::new();
        let w = by_name("vadd").unwrap();
        let a = s
            .compiled(&w, Scale::Test, &CompileOptions::o1(), false)
            .unwrap();
        let b = s
            .compiled(&w, Scale::Test, &CompileOptions::o1(), false)
            .unwrap();
        assert!(
            Arc::ptr_eq(&a, &b),
            "second request must be served from cache"
        );
        let st = s.cache_stats();
        assert_eq!((st.compile_misses, st.compile_hits), (1, 1));
        // Different options are a different artifact.
        let c = s
            .compiled(&w, Scale::Test, &CompileOptions::o2(), false)
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn trace_cache_is_keyed_on_budget() {
        let s = Session::new();
        let w = by_name("vadd").unwrap();
        let full = s
            .trace(
                &w,
                Scale::Test,
                &CompileOptions::o1(),
                false,
                1 << 22,
                u64::MAX,
            )
            .unwrap();
        let again = s
            .trace(
                &w,
                Scale::Test,
                &CompileOptions::o1(),
                false,
                1 << 22,
                u64::MAX,
            )
            .unwrap();
        assert!(Arc::ptr_eq(&full, &again));
        // A tiny budget is a distinct (failing) artifact, and the failure
        // itself is cached.
        let clipped = s.trace(&w, Scale::Test, &CompileOptions::o1(), false, 1 << 22, 1);
        assert!(matches!(clipped, Err(EngineError::Capture(_))));
        let clipped2 = s.trace(&w, Scale::Test, &CompileOptions::o1(), false, 1 << 22, 1);
        assert_eq!(clipped.unwrap_err(), clipped2.unwrap_err());
    }

    #[test]
    fn opts_sig_separates_presets() {
        let sigs: Vec<u64> = [
            CompileOptions::o0(),
            CompileOptions::o1(),
            CompileOptions::o2(),
            CompileOptions::hand(),
        ]
        .iter()
        .map(opts_sig)
        .collect();
        let mut uniq = sigs.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), sigs.len());
    }

    #[test]
    fn replay_results_are_memoized_per_config_and_plan() {
        let s = Session::new();
        let w = by_name("vadd").unwrap();
        let cfg = trips_sim::TripsConfig::prototype();
        let args = (
            Scale::Test,
            CompileOptions::o1(),
            false,
            1usize << 22,
            1_000_000u64,
        );
        let run = |mode: &ReplayMode| {
            s.replayed(&w, args.0, &args.1, args.2, &cfg, args.3, args.4, mode)
                .unwrap()
        };
        let full = run(&ReplayMode::Full);
        let again = run(&ReplayMode::Full);
        assert!(Arc::ptr_eq(&full, &again), "full replay must memoize");
        // A sampling plan is a different artifact under the same point.
        let plan = SamplePlan::new(4, 4, 16).unwrap();
        let sampled = run(&ReplayMode::Sampled(plan));
        assert!(
            !Arc::ptr_eq(&full, &sampled),
            "full and sampled must not alias"
        );
        assert!(sampled.stats.sampled && !full.stats.sampled);
        // A covering plan is bit-identical to full and shares its entry.
        let covering = SamplePlan::new(0, 8, 8).unwrap();
        let cov = run(&ReplayMode::Sampled(covering));
        assert!(Arc::ptr_eq(&full, &cov));
        let st = s.cache_stats();
        assert_eq!((st.replay_misses, st.replay_hits), (2, 2), "{st:?}");
    }

    #[test]
    fn phase_plans_memoize_and_drive_phased_replay() {
        let s = Session::new();
        let w = by_name("vadd").unwrap();
        // Interval 8 over vadd's ~170-block test stream: ~19 interior
        // intervals, more than the auto sweep's k cap, so the fitted plan
        // can never cover everything.
        let spec = PhaseSpec {
            interval: 8,
            warmup: 4,
            k: trips_phase::PhaseK::Auto,
            floor: 0,
            rep_span: 4,
            boundary: 1,
            tail: 1,
        };
        let args = (Scale::Test, CompileOptions::o1(), false, 1usize << 22);
        let plan = s
            .trips_phase_plan(&w, args.0, &args.1, args.2, args.3, 1_000_000, &spec)
            .unwrap();
        let again = s
            .trips_phase_plan(&w, args.0, &args.1, args.2, args.3, 1_000_000, &spec)
            .unwrap();
        assert!(
            Arc::ptr_eq(&plan, &again),
            "second fit must come from cache"
        );
        plan.validate().unwrap();
        let log = s
            .trace(&w, args.0, &args.1, args.2, args.3, 1_000_000)
            .unwrap();
        assert_eq!(plan.total_units, log.seq.len() as u64);
        assert!(!plan.covers_everything(), "stream long enough to classify");

        // Phased replay is a distinct memoized artifact from full replay.
        let cfg = trips_sim::TripsConfig::prototype();
        let run = |mode: &ReplayMode| {
            s.replayed(&w, args.0, &args.1, args.2, &cfg, args.3, 1_000_000, mode)
                .unwrap()
        };
        let full = run(&ReplayMode::Full);
        let phased = run(&ReplayMode::Phased((*plan).clone()));
        assert!(
            !Arc::ptr_eq(&full, &phased),
            "full and phased must not alias"
        );
        assert!(phased.stats.sampled && !full.stats.sampled);
        assert!(phased.stats.detailed_units < phased.stats.total_units);
        let hit = run(&ReplayMode::Phased((*plan).clone()));
        assert!(Arc::ptr_eq(&phased, &hit), "same plan must memoize");

        let st = s.cache_stats();
        assert_eq!((st.phase_misses, st.phase_hits, st.phase_fits), (1, 1, 1));
        assert_eq!((st.replay_misses, st.replay_hits), (2, 1), "{st:?}");
    }

    #[test]
    fn live_point_tier_is_bit_identical_and_captures_once() {
        let s = Session::new();
        s.set_live_points(Some(2));
        let w = by_name("vadd").unwrap();
        let spec = PhaseSpec {
            interval: 8,
            warmup: 4,
            k: trips_phase::PhaseK::Auto,
            floor: 0,
            rep_span: 4,
            boundary: 1,
            tail: 1,
        };
        let (scale, opts, hand) = (Scale::Test, CompileOptions::o1(), false);
        let (mem, budget) = (1usize << 22, 1_000_000u64);
        let plan = s
            .trips_phase_plan(&w, scale, &opts, hand, mem, budget, &spec)
            .unwrap();
        assert!(!plan.covers_everything());
        let cfg = trips_sim::TripsConfig::prototype();
        let mode = ReplayMode::Phased((*plan).clone());
        // Sequential reference from a live-point-free session.
        let seq = Session::new()
            .replayed(&w, scale, &opts, hand, &cfg, mem, budget, &mode)
            .unwrap();
        // The first request runs the capture pass, which *is* a
        // sequential phased replay.
        let first = s
            .replayed(&w, scale, &opts, hand, &cfg, mem, budget, &mode)
            .unwrap();
        assert_eq!(first.stats, seq.stats);
        assert_eq!(first.return_value, seq.return_value);
        let st = s.cache_stats();
        assert_eq!((st.livepoint_misses, st.livepoint_captures), (1, 1));
        // A repeat under the same key is served by the replay memo, so
        // drive the tier directly to exercise restore + parallel replay
        // from the memoized checkpoint set.
        let compiled = s.compiled(&w, scale, &opts, hand).unwrap();
        let log = s.trace(&w, scale, &opts, hand, mem, budget).unwrap();
        let parent_key = TraceId {
            workload: w.name.to_string(),
            scale: "test".to_string(),
            opts_sig: opts_sig(&opts),
            hand,
            code_sig: code_sig(&compiled),
            mem_size: mem as u64,
            max_blocks: budget,
        }
        .stable_hash();
        let par = s
            .replay_core(
                w.name,
                "trips",
                &mode,
                trips_cfg_sig(&cfg),
                || parent_key,
                || TsimCore::new(&compiled, &cfg, &log),
            )
            .unwrap();
        assert_eq!(
            par.stats, seq.stats,
            "restored parallel replay must be bit-identical"
        );
        let st = s.cache_stats();
        assert_eq!(
            (st.livepoint_hits, st.livepoint_captures),
            (1, 1),
            "second resolve must hit the memo tier without recapturing: {st:?}"
        );
    }

    #[test]
    fn replay_errors_name_the_workload_on_both_cores() {
        let w = by_name("vadd").unwrap();
        // A plan fitted to a three-unit stream: both of vadd's are longer.
        let foreign = ReplayMode::Phased(PhasePlan {
            interval: 1,
            total_units: 3,
            k: 1,
            windows: vec![trips_sample::PhaseWindow {
                warm_start: 0,
                detail_start: 0,
                end: 1,
                weight_units: 3,
            }],
            assignments: vec![],
        });
        let (scale, mem) = (Scale::Test, 1usize << 22);
        for live_points in [false, true] {
            let s = Session::new();
            if live_points {
                s.set_live_points(Some(1));
            }
            let trips = s
                .replayed(
                    &w,
                    scale,
                    &CompileOptions::o1(),
                    false,
                    &trips_sim::TripsConfig::prototype(),
                    mem,
                    1_000_000,
                    &foreign,
                )
                .map(drop);
            let ooo = s
                .ooo_replayed(
                    &w,
                    scale,
                    &CompileOptions::gcc_ref(),
                    &trips_ooo::core2(),
                    mem,
                    400_000_000,
                    &foreign,
                )
                .map(drop);
            for res in [trips, ooo] {
                match res {
                    Err(EngineError::Replay(msg)) => {
                        assert!(msg.starts_with("vadd ("), "live={live_points}: {msg}");
                    }
                    other => panic!("live={live_points}: expected a replay error, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn concurrent_requests_share_one_compile() {
        let s = Session::new();
        let w = by_name("autocor").unwrap();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let (s, w) = (&s, &w);
                    scope.spawn(move || {
                        s.compiled(w, Scale::Test, &CompileOptions::o1(), false)
                            .unwrap()
                    })
                })
                .collect();
            let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            for r in &results[1..] {
                assert!(Arc::ptr_eq(&results[0], r));
            }
        });
        assert_eq!(
            s.cache_stats().compile_misses,
            1,
            "exactly one thread may compile"
        );
    }
}
