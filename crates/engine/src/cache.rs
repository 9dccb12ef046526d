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
//! Every request names its stream with one [`Stream`] value — workload,
//! scale, compile options, hand flag, memory size and budget — and the
//! tiers key on it:
//!
//! * compiled TRIPS programs: the stream without its run bounds
//!   `(workload, scale, options-signature, hand)`;
//! * captured TRIPS trace logs: the whole stream, with its `(memory size,
//!   block budget)`;
//! * functional ISA outcomes (same key, no stream retained);
//! * compiled RISC programs: the program key with `hand` false (reference
//!   backends; the RISC side has no hand build);
//! * captured RISC event streams ([`trips_risc::RiscTrace`]): the whole
//!   stream with `hand` false, its budget counting instructions — one
//!   functional RISC execution serves the instruction-count figures *and*
//!   every out-of-order timing configuration
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
//! * live-point checkpoint sets: the parent stream key plus the fitted
//!   plan's signature, the timing configuration's signature and the core
//!   discriminant. A replay request asks for the tier with its own
//!   `live_points` worker count ([`Session::replayed`],
//!   [`Session::ooo_replayed`]), so sweeps with and without it can share
//!   one session. Then a phased replay whose plan skips work first resolves
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
//! hook and charging span) and writes it back, so process B replays
//! what process A captured. A store whose circuit breaker has tripped is
//! skipped: the session degrades to memory-only tiers.
//!
//! Each session owns its [`Instruments`]: one metrics registry and, when
//! armed, one fault plan. It hands them to its store and to every pool it
//! runs, so each series counts this session's work only. Each tier counts
//! its events — memo hits and misses, and for the four store-backed tiers
//! also captures, disk hits, misses, rejects, I/O errors and store writes
//! — once, in a registry series named `session_<tier prefix><event>`,
//! which [`Session::cache_stats`] reads back. The session also records
//! what its replays and fits walked (`replay_events_*`,
//! `sample_*_units_total`, `phase_fits_total`, `phase_fit_ns`) from what
//! those calls return.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use trips_compiler::{CompileOptions, CompiledProgram};
use trips_isa::{TraceId, TraceLog, TraceMeta};
use trips_workloads::{Scale, Workload};

use crate::store::{
    plan_sig, BbvId, LivePointId, LivePointSet, LiveState, LoadOutcome, RiscTraceId, StoreKey,
    TraceStore,
};
use trips_chaos::{FaultPlan, FaultPoint, Instruments};
use trips_obs::{CostKind, Registry};
use trips_ooo::OooCore;
use trips_phase::{PhaseArtifact, PhaseK, PhaseSpec};
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

/// One measured stream, the value every [`Session`] request names: a
/// workload built at `scale` (its hand-optimized variant when `hand`),
/// compiled with `opts`, and run under `mem` bytes of memory and a
/// `budget` of dynamic units (blocks on the TRIPS side, instructions on
/// the RISC side). Two streams are the same artifact when their workload
/// name, scale, options signature ([`opts_sig`]), hand flag, memory and
/// budget agree; the compile tiers ignore the run bounds, and the RISC
/// tiers ignore `hand` (the RISC side has no hand build).
#[derive(Debug, Clone)]
pub struct Stream {
    /// The workload.
    pub workload: Workload,
    /// Problem scale.
    pub scale: Scale,
    /// Compile preset.
    pub opts: CompileOptions,
    /// Build the hand-optimized IR variant (the paper's H bars).
    pub hand: bool,
    /// Memory image size in bytes.
    pub mem: usize,
    /// Dynamic unit budget of the functional run.
    pub budget: u64,
}

impl Stream {
    /// The compiled (not hand-optimized) build of `workload`.
    pub fn new(
        workload: &Workload,
        scale: Scale,
        opts: CompileOptions,
        mem: usize,
        budget: u64,
    ) -> Stream {
        Stream {
            workload: workload.clone(),
            scale,
            opts,
            hand: false,
            mem,
            budget,
        }
    }

    /// What the memo tiers compare and hash.
    fn identity(&self) -> (&'static str, &'static str, u64, bool, usize, u64) {
        (
            self.workload.name,
            scale_label(self.scale),
            opts_sig(&self.opts),
            self.hand,
            self.mem,
            self.budget,
        )
    }

    /// The key of the program this stream runs: its run bounds dropped.
    fn program(&self) -> Stream {
        Stream {
            mem: 0,
            budget: 0,
            ..self.clone()
        }
    }

    /// The stream as the RISC tiers key it.
    fn risc(&self) -> Stream {
        Stream {
            hand: false,
            ..self.clone()
        }
    }

    /// The store identity of the TRIPS block trace captured for this
    /// stream.
    fn trips_id(&self, compiled: &CompiledProgram) -> TraceId {
        TraceId {
            workload: self.workload.name.to_string(),
            scale: scale_label(self.scale).to_string(),
            opts_sig: opts_sig(&self.opts),
            hand: self.hand,
            code_sig: code_sig(compiled),
            mem_size: self.mem as u64,
            max_blocks: self.budget,
        }
    }

    /// The store identity of the RISC event stream captured for this
    /// stream.
    fn risc_id(&self, art: &RiscArtifacts) -> RiscTraceId {
        RiscTraceId {
            workload: self.workload.name.to_string(),
            scale: scale_label(self.scale).to_string(),
            opts_sig: opts_sig(&self.opts),
            code_sig: risc_code_sig(art),
            mem_size: self.mem as u64,
            max_steps: self.budget,
        }
    }
}

impl PartialEq for Stream {
    fn eq(&self, other: &Stream) -> bool {
        self.identity() == other.identity()
    }
}

impl Eq for Stream {}

impl Hash for Stream {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.identity().hash(state);
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
    trace: Stream,
    cfg: u64,
    mode: ModeKey,
}

/// Key of one memoized phase fit: the stream identity plus the fit
/// parameters (`risc` separates the two stream kinds, which share the
/// in-memory map).
#[derive(Clone, PartialEq, Eq, Hash)]
struct PhaseKey {
    trace: Stream,
    risc: bool,
    spec: PhaseSpec,
}

/// One memoized replay as the shared driver runs it.
struct ReplayJob<'a, M, P> {
    /// The replay's memo key: it names the workload and the
    /// configuration signature.
    key: &'a ReplayKey,
    /// The backend label errors and spans carry (`trips`, or the OoO
    /// platform's name).
    label: &'a str,
    /// A fresh timing machine over the validated stream.
    make: M,
    /// The stream's store key, computed only when a live-point set is
    /// resolved.
    parent_key: P,
}

type Slot<T> = Arc<OnceLock<Result<Arc<T>, EngineError>>>;

/// Why an injected capture fault failed a capture tier.
const CAPTURE_FAULT: &str = "injected capture failure (chaos)";

/// What a finished replay reports about the stream it walked, for the
/// session's replay telemetry: the stream length, the units timed in
/// detail, and whether a window list was walked (a sampled or phased
/// replay) instead of the whole stream.
trait Walked {
    fn walked(&self) -> (u64, u64, bool);
}

impl Walked for trips_sim::SimResult {
    fn walked(&self) -> (u64, u64, bool) {
        let s = &self.stats;
        (s.total_units, s.detailed_units, s.sampled)
    }
}

impl Walked for trips_ooo::OooResult {
    fn walked(&self) -> (u64, u64, bool) {
        let s = &self.stats;
        (s.total_insts, s.insts, s.sampled)
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

/// One tier's event counters: the series `session_<prefix><event>` of
/// the session registry. The TRIPS block-trace tier has the empty prefix
/// (its series predate the other tiers'), so its disk hits are
/// `session_disk_hits` and the RISC tier's `session_risc_disk_hits`.
struct TierStats {
    metrics: Registry,
    prefix: &'static str,
}

impl TierStats {
    /// Counts one `e`: a registry lookup, once per tier request.
    fn bump(&self, e: Event) {
        let (prefix, event) = (self.prefix, EVENT_SERIES[e as usize]);
        self.metrics
            .counter(&format!("session_{prefix}{event}"))
            .inc(1);
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

/// Which session registry series each [`CacheStats`] field reads, in
/// field order: the stats are a view over the session's
/// `session_<tier prefix><event>` series (see [`Session::cache_stats`]).
pub const CACHE_SERIES: [(&str, &str); 43] = [
    ("compile_hits", "session_compile_memo_hits"),
    ("compile_misses", "session_compile_memo_misses"),
    ("trace_hits", "session_memo_hits"),
    ("trace_misses", "session_memo_misses"),
    ("isa_hits", "session_isa_memo_hits"),
    ("isa_misses", "session_isa_memo_misses"),
    ("risc_hits", "session_risc_program_memo_hits"),
    ("risc_misses", "session_risc_program_memo_misses"),
    ("captures", "session_captures"),
    ("disk_hits", "session_disk_hits"),
    ("disk_misses", "session_disk_misses"),
    ("disk_rejects", "session_disk_rejects"),
    ("store_writes", "session_store_writes"),
    ("rtrace_hits", "session_risc_memo_hits"),
    ("rtrace_misses", "session_risc_memo_misses"),
    ("risc_captures", "session_risc_captures"),
    ("risc_disk_hits", "session_risc_disk_hits"),
    ("risc_disk_misses", "session_risc_disk_misses"),
    ("risc_disk_rejects", "session_risc_disk_rejects"),
    ("risc_store_writes", "session_risc_store_writes"),
    ("phase_hits", "session_phase_memo_hits"),
    ("phase_misses", "session_phase_memo_misses"),
    ("phase_fits", "session_phase_captures"),
    ("phase_disk_hits", "session_phase_disk_hits"),
    ("phase_disk_misses", "session_phase_disk_misses"),
    ("phase_disk_rejects", "session_phase_disk_rejects"),
    ("phase_store_writes", "session_phase_store_writes"),
    ("livepoint_hits", "session_livepoint_memo_hits"),
    ("livepoint_misses", "session_livepoint_memo_misses"),
    ("livepoint_captures", "session_livepoint_captures"),
    ("livepoint_disk_hits", "session_livepoint_disk_hits"),
    ("livepoint_disk_misses", "session_livepoint_disk_misses"),
    ("livepoint_disk_rejects", "session_livepoint_disk_rejects"),
    ("livepoint_store_writes", "session_livepoint_store_writes"),
    ("replay_hits", "session_replay_memo_hits"),
    ("replay_misses", "session_replay_memo_misses"),
    ("ooo_replay_hits", "session_ooo_replay_memo_hits"),
    ("ooo_replay_misses", "session_ooo_replay_memo_misses"),
    ("disk_io_errors", "session_disk_io_errors"),
    ("risc_disk_io_errors", "session_risc_disk_io_errors"),
    ("phase_disk_io_errors", "session_phase_disk_io_errors"),
    (
        "livepoint_disk_io_errors",
        "session_livepoint_disk_io_errors",
    ),
    ("degraded", "session_degraded"),
];

/// Cache hit/miss counters (for the sweep report's summary).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
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

impl CacheStats {
    /// The store summary lines `trips-sweep` and `repro` log after a run
    /// on a trace store: the TRIPS block-trace tier's, then the RISC
    /// stream tier's. Each binary decides when to print them.
    pub fn store_lines(&self) -> [String; 2] {
        let line = |tier: &str, [hits, misses, rejects, writes, captures]: [u64; 5]| {
            format!(
                "{tier}store: disk_hits={hits} disk_misses={misses} disk_rejects={rejects} \
                 writes={writes} captures={captures}"
            )
        };
        let c = self;
        [
            line(
                "",
                [
                    c.disk_hits,
                    c.disk_misses,
                    c.disk_rejects,
                    c.store_writes,
                    c.captures,
                ],
            ),
            line(
                "risc ",
                [
                    c.risc_disk_hits,
                    c.risc_disk_misses,
                    c.risc_disk_rejects,
                    c.risc_store_writes,
                    c.risc_captures,
                ],
            ),
        ]
    }
}

/// A memoizing measurement session shared by all sweep workers.
pub struct Session {
    compiled: Memo<Stream, CompiledProgram>,
    traces: Memo<Stream, TraceLog>,
    isa: Memo<Stream, IsaOutcome>,
    risc: Memo<Stream, RiscArtifacts>,
    rtraces: Memo<Stream, RiscTrace>,
    replays: Memo<ReplayKey, trips_sim::SimResult>,
    ooo_replays: Memo<ReplayKey, trips_ooo::OooResult>,
    phases: Memo<PhaseKey, PhasePlan>,
    livepoints: Memo<LivePointId, LivePointSet>,
    store: Option<TraceStore>,
    /// The registry every counter above lives in, and the fault plan.
    ins: Instruments,
}

impl Default for Session {
    fn default() -> Session {
        Session::open(None, None)
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

    /// A fresh session backed by an on-disk trace store: requests that
    /// miss in memory consult (and fill) `store`.
    pub fn with_store(store: TraceStore) -> Session {
        Session::open(Some(store), None)
    }

    /// A fresh session on `store` (memory-only without one) whose capture
    /// and fit tiers, store and pools draw faults from `faults` (none
    /// when `None`). The session builds its own metrics registry and
    /// hands it, with the plan, to the store. A session keeps the store
    /// and plan it was built with for its whole life.
    pub fn open(store: Option<TraceStore>, faults: Option<FaultPlan>) -> Session {
        let ins = Instruments::new(faults);
        // Register every tier series, so a snapshot lists them at zero.
        for (_, series) in CACHE_SERIES {
            ins.metrics.counter(series);
        }
        let tier = |prefix| TierStats {
            metrics: ins.metrics.clone(),
            prefix,
        };
        Session {
            compiled: Memo::new(tier("compile_")),
            traces: Memo::new(tier("")),
            isa: Memo::new(tier("isa_")),
            risc: Memo::new(tier("risc_program_")),
            rtraces: Memo::new(tier("risc_")),
            replays: Memo::new(tier("replay_")),
            ooo_replays: Memo::new(tier("ooo_replay_")),
            phases: Memo::new(tier("phase_")),
            livepoints: Memo::new(tier("livepoint_")),
            store: store.map(|s| s.instrumented(ins.clone())),
            ins,
        }
    }

    /// The session's metrics registry and fault plan: what `--metrics`
    /// renders, and what the sweep's pool records into and draws from.
    pub fn instruments(&self) -> &Instruments {
        &self.ins
    }

    /// The on-disk trace store, if the session was built with one.
    pub fn store(&self) -> Option<&TraceStore> {
        self.store.as_ref()
    }

    /// The disk tier, unless the store's circuit breaker has tripped —
    /// then the request counts as degraded and is served memory-only
    /// (produce instead of read, skip the write-back) rather than
    /// paying retry backoffs against a disk that is plainly gone.
    fn healthy_store(&self) -> Option<&TraceStore> {
        let store = self.store.as_ref()?;
        if store.degraded() {
            self.ins.metrics.counter("session_degraded").inc(1);
            return None;
        }
        Some(store)
    }

    /// The disk choreography every store-backed tier runs on a memo miss:
    /// a verified stored payload that also passes `deep_check` stands in
    /// for `produce`; a container-valid payload that fails it (e.g. a
    /// stale build's capture) is quarantined; otherwise `produce` runs and
    /// its result is written back. `produce` carries the tier's chaos
    /// hook and charging span; a transient error from it is that hook
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

    /// Compiles `stream`'s program (memoized; the run bounds play no
    /// part). `stream.hand` selects the hand-optimized IR variant,
    /// mirroring the paper's H bars.
    ///
    /// # Errors
    /// [`EngineError::Compile`] (cached: retries see the same failure).
    pub fn compiled(&self, stream: &Stream) -> Result<Arc<CompiledProgram>, EngineError> {
        let w = &stream.workload;
        self.compiled.get_or_init(&stream.program(), || {
            let _span = trips_obs::charged_with("session.compile", CostKind::Capture, || {
                w.name.to_string()
            });
            self.ins
                .metrics
                .counter("session_compiles_total{side=\"trips\"}")
                .inc(1);
            let program = if stream.hand {
                w.build_hand(stream.scale)
            } else {
                (w.build)(stream.scale)
            };
            trips_compiler::compile(&program, &stream.opts)
                .map(Arc::new)
                .map_err(|e| EngineError::Compile(format!("{}: {e}", w.name)))
        })
    }

    /// Captures (memoized) the functional TRIPS block trace of `stream`.
    ///
    /// # Errors
    /// [`EngineError::Compile`] or [`EngineError::Capture`] (both cached).
    pub fn trace(&self, stream: &Stream) -> Result<Arc<TraceLog>, EngineError> {
        let name = stream.workload.name;
        trips_obs::cost::set_tier("mem");
        self.traces.get_or_init(stream, || {
            let compiled = self.compiled(stream)?;
            let id = stream.trips_id(&compiled);
            self.through_store(
                &self.traces.stats,
                &id,
                |log| {
                    log.validate(&compiled.trips)
                        .map_err(|e| format!("log does not match the compiled program: {e}"))
                },
                || {
                    if self.ins.fault(FaultPoint::CaptureFail).is_some() {
                        return Err(EngineError::Transient(format!("{name}: {CAPTURE_FAULT}")));
                    }
                    trips_obs::cost::set_tier("capture");
                    let _span =
                        trips_obs::charged_with("session.capture_trace", CostKind::Capture, || {
                            name.to_string()
                        });
                    let meta = TraceMeta {
                        workload: id.workload.clone(),
                        scale: id.scale.clone(),
                        opts_sig: id.opts_sig,
                    };
                    let (mem, budget) = (stream.mem, stream.budget);
                    TraceLog::capture(&compiled.trips, &compiled.opt_ir, mem, budget, meta)
                        .map_err(|e| EngineError::Capture(format!("{name}: {e}")))
                },
            )
            .map(Arc::new)
        })
    }

    /// Runs (memoized) the functional interpreter over `stream` for
    /// ISA-level statistics only — unlike [`Session::trace`], nothing
    /// per-block is retained, so this is the right call when no replay
    /// will happen (the ISA figures).
    ///
    /// # Errors
    /// [`EngineError::Compile`] or [`EngineError::Capture`] (both cached).
    pub fn isa_outcome(&self, stream: &Stream) -> Result<Arc<IsaOutcome>, EngineError> {
        let name = stream.workload.name;
        trips_obs::cost::set_tier("mem");
        self.isa.get_or_init(stream, || {
            let compiled = self.compiled(stream)?;
            trips_obs::cost::set_tier("capture");
            let _span = trips_obs::charged_with("session.capture_isa", CostKind::Capture, || {
                name.to_string()
            });
            self.ins.metrics.counter("session_isa_runs_total").inc(1);
            let (mem, budget) = (stream.mem, stream.budget);
            trips_isa::interp::run_program_with(&compiled.trips, &compiled.opt_ir, mem, budget)
                .map(|out| {
                    Arc::new(IsaOutcome {
                        stats: out.stats,
                        return_value: out.return_value,
                    })
                })
                .map_err(|e| EngineError::Capture(format!("{name}: {e}")))
        })
    }

    /// Builds (memoized) the RISC-side program of `stream`: IR built,
    /// optimized with its options, and lowered by the RISC code generator.
    /// Shared by the RISC baseline and every OoO reference platform.
    ///
    /// # Errors
    /// [`EngineError::Compile`] (cached).
    pub fn risc_program(&self, stream: &Stream) -> Result<Arc<RiscArtifacts>, EngineError> {
        let w = &stream.workload;
        self.risc.get_or_init(&stream.risc().program(), || {
            let _span = trips_obs::charged_with("session.compile", CostKind::Capture, || {
                format!("{} (risc)", w.name)
            });
            self.ins
                .metrics
                .counter("session_compiles_total{side=\"risc\"}")
                .inc(1);
            let mut ir = (w.build)(stream.scale);
            trips_compiler::opt::optimize(&mut ir, &stream.opts);
            trips_risc::compile_program(&ir)
                .map(|program| Arc::new(RiscArtifacts { program, ir }))
                .map_err(|e| EngineError::Compile(format!("{} (risc): {e}", w.name)))
        })
    }

    /// Captures (memoized) the RISC event stream of `stream` — the
    /// execution every out-of-order configuration replays and the source
    /// of the instruction-count figures' denominators.
    ///
    /// With a store installed, the disk tier is consulted on an in-memory
    /// miss (and filled on capture), so process B times OoO points from
    /// process A's recorded execution with zero re-executions.
    ///
    /// # Errors
    /// [`EngineError::Compile`] or [`EngineError::Capture`] (both cached).
    pub fn risc_trace(&self, stream: &Stream) -> Result<Arc<RiscTrace>, EngineError> {
        let name = stream.workload.name;
        trips_obs::cost::set_tier("mem");
        self.rtraces.get_or_init(&stream.risc(), || {
            let art = self.risc_program(stream)?;
            let id = stream.risc_id(&art);
            self.through_store(
                &self.rtraces.stats,
                &id,
                |trace| {
                    trace
                        .validate(&art.program)
                        .map_err(|e| format!("stream does not match the compiled program: {e}"))
                },
                || {
                    if self.ins.fault(FaultPoint::CaptureFail).is_some() {
                        return Err(EngineError::Transient(format!(
                            "{name} (risc): {CAPTURE_FAULT}"
                        )));
                    }
                    trips_obs::cost::set_tier("capture");
                    let _span =
                        trips_obs::charged_with("session.capture_risc", CostKind::Capture, || {
                            name.to_string()
                        });
                    let meta = RiscTraceMeta {
                        workload: id.workload.clone(),
                        scale: id.scale.clone(),
                        opts_sig: id.opts_sig,
                    };
                    RiscTrace::capture(&art.program, &art.ir, stream.mem, stream.budget, meta)
                        .map_err(|e| EngineError::Capture(format!("{name} (risc): {e}")))
                },
            )
            .map(Arc::new)
        })
    }

    /// The fitted phase plan for `stream`'s TRIPS block trace (memoized,
    /// store-backed): BBV extraction + clustering run **once per store**
    /// — an in-memory miss consults the disk tier (a verified,
    /// stream-validated [`PhaseArtifact`] stands in for a fresh fit), and
    /// fresh fits are written back. The fit is seeded from the trace's
    /// [`TraceId::fit_seed`], so every process derives the byte-identical
    /// plan and N sweep points across N processes cluster once.
    ///
    /// # Errors
    /// Any cached artifact failure ([`EngineError::Compile`] /
    /// [`EngineError::Capture`], both cached).
    pub fn trips_phase_plan(
        &self,
        stream: &Stream,
        spec: &PhaseSpec,
    ) -> Result<Arc<PhasePlan>, EngineError> {
        let key = PhaseKey {
            trace: stream.clone(),
            risc: false,
            spec: *spec,
        };
        self.phases.get_or_init(&key, || {
            let compiled = self.compiled(stream)?;
            let log = self.trace(stream)?;
            let seed = stream.trips_id(&compiled).fit_seed();
            self.fit_phase(seed, log.seq.len() as u64, spec, || {
                Ok(trips_phase::trips_fit(&log, spec, seed))
            })
        })
    }

    /// The RISC-side counterpart of [`Session::trips_phase_plan`]: the
    /// fitted phase plan over `stream`'s recorded RISC event stream,
    /// shared by every out-of-order platform that replays it.
    ///
    /// # Errors
    /// Any cached artifact failure, or [`EngineError::Capture`] when the
    /// stream walk fails.
    pub fn ooo_phase_plan(
        &self,
        stream: &Stream,
        spec: &PhaseSpec,
    ) -> Result<Arc<PhasePlan>, EngineError> {
        let key = PhaseKey {
            trace: stream.risc(),
            risc: true,
            spec: *spec,
        };
        self.phases.get_or_init(&key, || {
            let art = self.risc_program(stream)?;
            let trace = self.risc_trace(stream)?;
            let seed = stream.risc_id(&art).stable_hash();
            self.fit_phase(seed, trace.header.dynamic_insts, spec, || {
                trips_phase::risc_fit(&trace, &art.program, spec, seed).map_err(|e| {
                    EngineError::Capture(format!("{} (phase): {e}", stream.workload.name))
                })
            })
        })
    }

    /// The replay mode a timing point on `stream` measures under, and the
    /// `phase_k` it reports: with `phase`, the stream's fitted plan under
    /// the core's default [`PhaseSpec`] ([`Session::ooo_phase_plan`] when
    /// `ooo`, else [`Session::trips_phase_plan`]) and its cluster count
    /// (0 for a plan that covers everything and so replays in full);
    /// otherwise `sample`'s systematic plan, or full replay, and 0.
    ///
    /// # Errors
    /// Any failure of the phase-plan tier.
    pub fn timing_mode(
        &self,
        stream: &Stream,
        ooo: bool,
        sample: Option<SamplePlan>,
        phase: Option<PhaseK>,
    ) -> Result<(ReplayMode, u32), EngineError> {
        let Some(k) = phase else {
            return Ok((ReplayMode::from_plan(sample), 0));
        };
        let plan = if ooo {
            self.ooo_phase_plan(stream, &PhaseSpec::ooo(k))?
        } else {
            self.trips_phase_plan(stream, &PhaseSpec::trips(k))?
        };
        let k = if plan.covers_everything() { 0 } else { plan.k };
        Ok((ReplayMode::Phased((*plan).clone()), k))
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
                if self.ins.fault(FaultPoint::FitFail).is_some() {
                    let why = "phase fit: injected fit failure (chaos)";
                    return Err(EngineError::Transient(why.into()));
                }
                let _span = trips_obs::charged("session.fit_phase", CostKind::Fit);
                let start = Instant::now();
                let art = fit()?;
                // Streams under the floor get a covering plan without a
                // clustering run, and count no fit.
                if total_units >= spec.floor {
                    let m = &self.ins.metrics;
                    m.counter("phase_fits_total").inc(1);
                    m.histogram("phase_fit_ns")
                        .observe(start.elapsed().as_nanos() as u64);
                }
                Ok(art)
            },
        )
        .map(|art| Arc::new(art.plan))
    }

    /// The replay both timing backends share. Without live-points
    /// (`live_points` is `None`), or for a mode that is not phased, it is
    /// one [`trips_sample::replay`] of a fresh `job.make()` machine (the
    /// stream was validated by the tier that served it). With them, a
    /// phased replay resolves its checkpoint set memo → store → capture; a
    /// capture pass *is* the sequential phased replay, so its result is
    /// returned directly and nothing runs twice. With a resolved set, each
    /// measured window replays from its restored state as an independent
    /// job on `live_points` pool workers (0 = one per core), and the
    /// measurements assemble into the bit-identical sequential estimate.
    /// Every replay error is prefixed `"{workload} ({label}): "`.
    fn replay_core<C, M, P>(
        &self,
        job: ReplayJob<'_, M, P>,
        mode: &ReplayMode,
        live_points: Option<usize>,
    ) -> Result<C::Output, EngineError>
    where
        C: TimingCore,
        C::Output: Walked,
        C::Snapshot: LiveState + Sync,
        C::Stats: Send,
        C::Error: fmt::Display + Send,
        M: Fn() -> C + Sync,
        P: FnOnce() -> u64,
    {
        let ReplayJob {
            key,
            label,
            make,
            parent_key,
        } = job;
        let (workload, cfg_sig) = (key.trace.workload.name, key.cfg);
        let fail = |why: String| EngineError::Replay(format!("{workload} ({label}): {why}"));
        let core_fail = |e: C::Error| fail(e.to_string());
        let (Some(threads), Some(plan)) = (live_points, mode.phase()) else {
            let start = Instant::now();
            let out = trips_sample::replay(make(), mode).map_err(core_fail)?;
            self.record_walk::<C>(&out, mode, Some(start));
            return Ok(out);
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
                    let start = Instant::now();
                    let (res, snaps) =
                        trips_sample::capture_phased(make(), plan).map_err(core_fail)?;
                    self.record_walk::<C>(&res, mode, Some(start));
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
        // A panicking window job propagates, as in `parallel_map`.
        let windows = crate::pool::parallel_map_catch(jobs, threads, &self.ins, |(w, snap)| {
            trips_sample::replay_window(make(), &w, snap)
        })
        .into_iter()
        .map(|job| job.unwrap_or_else(|p| panic!("{p}")))
        .collect::<Result<Vec<_>, _>>()
        .map_err(core_fail)?;
        let replayed = plan.windows.iter().map(|w| w.end - w.warm_start).sum();
        let series = format!("replay_events_total{{core=\"{}\"}}", C::LABEL);
        self.ins.metrics.counter(&series).inc(replayed);
        let out = trips_sample::assemble_windows(make(), plan, &windows).map_err(core_fail)?;
        self.record_walk::<C>(&out, mode, None);
        Ok(out)
    }

    /// Records one finished replay of a `C` stream under `mode`: a whole
    /// stream walked since `start` adds its units to
    /// `replay_events_total{core=…}` and its rate to
    /// `replay_events_per_sec{core=…}`; a window list walked (sampled or
    /// phased, including windows assembled after a restored replay) adds
    /// to `sample_{measured,stream}_units_total{kind=…}`.
    fn record_walk<C: TimingCore>(&self, out: &C::Output, mode: &ReplayMode, start: Option<Instant>)
    where
        C::Output: Walked,
    {
        let m = &self.ins.metrics;
        let (total, measured, windowed) = out.walked();
        if let Some(start) = start {
            let core = C::LABEL;
            m.counter(&format!("replay_events_total{{core=\"{core}\"}}"))
                .inc(total);
            let elapsed_ns = start.elapsed().as_nanos() as u64;
            if elapsed_ns > 0 && total > 0 {
                m.histogram(&format!("replay_events_per_sec{{core=\"{core}\"}}"))
                    .observe(total.saturating_mul(1_000_000_000) / elapsed_ns);
            }
        }
        if windowed {
            let kind = if mode.phase().is_some() {
                "phase"
            } else {
                "interval"
            };
            m.counter(&format!("sample_measured_units_total{{kind=\"{kind}\"}}"))
                .inc(measured);
            m.counter(&format!("sample_stream_units_total{{kind=\"{kind}\"}}"))
                .inc(total);
        }
    }

    /// The out-of-order front of the session's generic replay: times one
    /// reference platform over `stream`'s (memoized) recorded RISC event
    /// stream under `mode` — one functional execution, N of these. With
    /// `live_points`, a phased replay serves from live-point checkpoints on
    /// that many window workers (see [`Session::replayed`]). Results are
    /// memoized like [`Session::replayed`]'s.
    ///
    /// # Errors
    /// Any cached artifact failure, or [`EngineError::Replay`] (cached).
    pub fn ooo_replayed(
        &self,
        stream: &Stream,
        cfg: &trips_ooo::OooConfig,
        mode: &ReplayMode,
        live_points: Option<usize>,
    ) -> Result<Arc<trips_ooo::OooResult>, EngineError> {
        let key = ReplayKey {
            trace: stream.risc(),
            cfg: ooo_cfg_sig(cfg),
            mode: ModeKey::of(mode),
        };
        trips_obs::cost::set_tier("memo");
        self.ooo_replays.get_or_init(&key, || {
            let art = self.risc_program(stream)?;
            let trace = self.risc_trace(stream)?;
            let _span = trips_obs::span_with("session.replay_ooo", || {
                format!("{} {}", stream.workload.name, cfg.name)
            });
            let job = ReplayJob {
                key: &key,
                label: &cfg.name,
                make: || OooCore::new(&art.program, &trace, cfg),
                parent_key: || stream.risc_id(&art).stable_hash(),
            };
            self.replay_core(job, mode, live_points).map(Arc::new)
        })
    }

    /// The TRIPS front of the session's generic replay: replays `stream`'s
    /// (memoized) block trace against one timing configuration under
    /// `mode` — one capture, N of these. Results are memoized under the
    /// stream, the configuration signature *and* the normalized mode, so
    /// full, sampled and phased measurements never alias. With
    /// `live_points` (a window-worker count, 0 = one per core), a phased
    /// replay whose plan skips work serves from the live-point tier; the
    /// count is not part of the key, because the result is bit-identical
    /// either way.
    ///
    /// # Errors
    /// Any cached artifact failure, or [`EngineError::Replay`] (cached).
    pub fn replayed(
        &self,
        stream: &Stream,
        cfg: &trips_sim::TripsConfig,
        mode: &ReplayMode,
        live_points: Option<usize>,
    ) -> Result<Arc<trips_sim::SimResult>, EngineError> {
        let key = ReplayKey {
            trace: stream.clone(),
            cfg: trips_cfg_sig(cfg),
            mode: ModeKey::of(mode),
        };
        trips_obs::cost::set_tier("memo");
        self.replays.get_or_init(&key, || {
            let compiled = self.compiled(stream)?;
            let log = self.trace(stream)?;
            let _span = trips_obs::span_with("session.replay_trips", || {
                format!("{} cfg={:016x}", stream.workload.name, key.cfg)
            });
            let job = ReplayJob {
                key: &key,
                label: "trips",
                make: || TsimCore::new(&compiled, cfg, &log),
                parent_key: || stream.trips_id(&compiled).stable_hash(),
            };
            self.replay_core(job, mode, live_points).map(Arc::new)
        })
    }

    /// Current hit/miss counters, read from the session's registry
    /// series ([`CACHE_SERIES`]).
    pub fn cache_stats(&self) -> CacheStats {
        let fields = CACHE_SERIES.iter().map(|(field, series)| {
            let n = self.ins.metrics.counter(series).get();
            (serde::Value::str(field), serde::Value::U64(n))
        });
        serde::from_value(&serde::Value::Map(fields.collect()))
            .expect("CACHE_SERIES names every CacheStats field")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trips_workloads::by_name;

    /// vadd at Test scale under `opts` with the sweep defaults' bounds.
    fn vadd(opts: CompileOptions, budget: u64) -> Stream {
        Stream::new(
            &by_name("vadd").unwrap(),
            Scale::Test,
            opts,
            1 << 22,
            budget,
        )
    }

    #[test]
    fn compile_cache_deduplicates() {
        let s = Session::new();
        let a = s.compiled(&vadd(CompileOptions::o1(), 1)).unwrap();
        // The run bounds are no part of the program's key.
        let b = s.compiled(&vadd(CompileOptions::o1(), 2)).unwrap();
        assert!(
            Arc::ptr_eq(&a, &b),
            "second request must be served from cache"
        );
        let st = s.cache_stats();
        assert_eq!((st.compile_misses, st.compile_hits), (1, 1));
        // Different options are a different artifact.
        let c = s.compiled(&vadd(CompileOptions::o2(), 1)).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn trace_cache_is_keyed_on_budget() {
        let s = Session::new();
        let full = s.trace(&vadd(CompileOptions::o1(), u64::MAX)).unwrap();
        let again = s.trace(&vadd(CompileOptions::o1(), u64::MAX)).unwrap();
        assert!(Arc::ptr_eq(&full, &again));
        // A tiny budget is a distinct (failing) artifact, and the failure
        // itself is cached.
        let clipped = s.trace(&vadd(CompileOptions::o1(), 1));
        assert!(matches!(clipped, Err(EngineError::Capture(_))));
        let clipped2 = s.trace(&vadd(CompileOptions::o1(), 1));
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
        let stream = vadd(CompileOptions::o1(), 1_000_000);
        let cfg = trips_sim::TripsConfig::prototype();
        let run = |mode: &ReplayMode| s.replayed(&stream, &cfg, mode, None).unwrap();
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
        let stream = vadd(CompileOptions::o1(), 1_000_000);
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
        let plan = s.trips_phase_plan(&stream, &spec).unwrap();
        let again = s.trips_phase_plan(&stream, &spec).unwrap();
        assert!(
            Arc::ptr_eq(&plan, &again),
            "second fit must come from cache"
        );
        plan.validate().unwrap();
        let log = s.trace(&stream).unwrap();
        assert_eq!(plan.total_units, log.seq.len() as u64);
        assert!(!plan.covers_everything(), "stream long enough to classify");

        // Phased replay is a distinct memoized artifact from full replay.
        let cfg = trips_sim::TripsConfig::prototype();
        let run = |mode: &ReplayMode| s.replayed(&stream, &cfg, mode, None).unwrap();
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
        let stream = vadd(CompileOptions::o1(), 1_000_000);
        let spec = PhaseSpec {
            interval: 8,
            warmup: 4,
            k: trips_phase::PhaseK::Auto,
            floor: 0,
            rep_span: 4,
            boundary: 1,
            tail: 1,
        };
        let plan = s.trips_phase_plan(&stream, &spec).unwrap();
        assert!(!plan.covers_everything());
        let cfg = trips_sim::TripsConfig::prototype();
        let mode = ReplayMode::Phased((*plan).clone());
        // Sequential reference from a live-point-free session.
        let seq = Session::new().replayed(&stream, &cfg, &mode, None).unwrap();
        // The first request runs the capture pass, which *is* a
        // sequential phased replay.
        let first = s.replayed(&stream, &cfg, &mode, Some(2)).unwrap();
        assert_eq!(first.stats, seq.stats);
        assert_eq!(first.return_value, seq.return_value);
        let st = s.cache_stats();
        assert_eq!((st.livepoint_misses, st.livepoint_captures), (1, 1));
        // A repeat under the same key is served by the replay memo, so
        // drive the tier directly to exercise restore + parallel replay
        // from the memoized checkpoint set.
        let compiled = s.compiled(&stream).unwrap();
        let log = s.trace(&stream).unwrap();
        let parent_key = TraceId {
            workload: "vadd".to_string(),
            scale: "test".to_string(),
            opts_sig: opts_sig(&stream.opts),
            hand: false,
            code_sig: code_sig(&compiled),
            mem_size: 1 << 22,
            max_blocks: 1_000_000,
        }
        .stable_hash();
        let key = ReplayKey {
            trace: stream.clone(),
            cfg: trips_cfg_sig(&cfg),
            mode: ModeKey::of(&mode),
        };
        let job = ReplayJob {
            key: &key,
            label: "trips",
            make: || TsimCore::new(&compiled, &cfg, &log),
            parent_key: || parent_key,
        };
        let par = s.replay_core(job, &mode, Some(2)).unwrap();
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
        for live_points in [None, Some(1)] {
            let s = Session::new();
            let trips = s
                .replayed(
                    &vadd(CompileOptions::o1(), 1_000_000),
                    &trips_sim::TripsConfig::prototype(),
                    &foreign,
                    live_points,
                )
                .map(drop);
            let ooo = s
                .ooo_replayed(
                    &vadd(CompileOptions::gcc_ref(), 400_000_000),
                    &trips_ooo::core2(),
                    &foreign,
                    live_points,
                )
                .map(drop);
            for res in [trips, ooo] {
                match res {
                    Err(EngineError::Replay(msg)) => {
                        assert!(msg.starts_with("vadd ("), "live={live_points:?}: {msg}");
                    }
                    other => {
                        panic!("live={live_points:?}: expected a replay error, got {other:?}")
                    }
                }
            }
        }
    }

    #[test]
    fn concurrent_requests_share_one_compile() {
        let s = Session::new();
        let w = by_name("autocor").unwrap();
        let stream = Stream::new(&w, Scale::Test, CompileOptions::o1(), 1 << 22, 1_000_000);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let (s, stream) = (&s, &stream);
                    scope.spawn(move || s.compiled(stream).unwrap())
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
