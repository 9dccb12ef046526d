//! The content-addressed on-disk trace store: the persistent tier under
//! [`Session`](crate::Session).
//!
//! The in-memory caches die with the process, so every process (and every
//! CI run) used to re-capture every workload from scratch — exactly the
//! redundant functional execution the replay design exists to avoid. A
//! [`TraceStore`] persists captures instead, in four container kinds:
//!
//! * **TRIPS block traces** ([`trips_isa::TraceLog`]), keyed by
//!   [`TraceId::stable_hash`] — the stable hash of the complete capture
//!   identity (workload, scale, compile-options signature, hand flag,
//!   compiled-code signature, memory size, block budget, trace-format
//!   version).
//! * **RISC event streams** ([`trips_risc::RiscTrace`]), keyed by
//!   [`RiscTraceId::stable_hash`] — the same discipline over the RISC-side
//!   identity (and `RISC_TRACE_VERSION`), under a distinct hash domain so
//!   the two key spaces cannot collide.
//! * **BBV/phase-plan artifacts** ([`trips_phase::PhaseArtifact`]), keyed
//!   by [`BbvId::stable_hash`] — the parent trace's key plus the fit
//!   parameters (interval, warmup, cluster choice) and
//!   [`trips_phase::BBV_VERSION`], under a third hash domain. Persisting
//!   the fitted plan is what lets N processes sweeping the same point
//!   cluster once per store instead of once per process.
//! * **Live-point checkpoint sets** ([`LivePointSet`]), keyed by
//!   [`LivePointId::stable_hash`] — the parent trace's key plus the
//!   fitted plan's signature, the timing config's signature, and the
//!   core discriminant, under a fourth hash domain. One set holds the
//!   warmed microarchitectural state at every phase-window boundary, so
//!   a warm store serves any sweep point at that config with zero
//!   stream-prefix replay (and the windows replay in parallel).
//!
//! Every identity implements [`StoreKey`] — its payload type, container
//! kind and payload version, stable key, and the payload-vs-identity
//! check — so one generic [`TraceStore::load`]/[`TraceStore::save`]/
//! [`TraceStore::quarantine`]/[`TraceStore::path_for`] serves all four
//! kinds.
//!
//! Each capture is written once to `<dir>/<key>.trace`. Equal identity ⇒
//! equal file name ⇒ any process can reuse any other process's capture,
//! including across CI runs when the directory rides in a cache; a compiler
//! change moves the code signature, so stale captures simply stop being
//! found.
//!
//! Robustness model — the store is a cache, never an authority:
//!
//! * **Writes are atomic.** The file is assembled in a unique temp name in
//!   the same directory and `rename`d into place, so readers only ever see
//!   complete files, and concurrent writers of the same key harmlessly
//!   overwrite each other with identical bytes.
//! * **Loads are verified.** A fixed header carries a store magic/version,
//!   the container kind and its payload-format version, the expected key,
//!   and a content hash of the payload; the payload must deserialize, and
//!   it must match the requested identity ([`StoreKey::check`]). Any mismatch —
//!   truncation, corruption, a stale format, a renamed file — classifies as
//!   [`LoadOutcome::Reject`]: the bad file is moved into the store's
//!   `quarantine/` subdirectory with a `.reason` sidecar (evidence is
//!   preserved, never unlinked) and the caller recaptures. A *read error*
//!   is retried with bounded exponential backoff and, if persistent,
//!   classifies as [`LoadOutcome::IoError`] leaving the file alone — it is
//!   not evidence the bytes are bad. No failure mode panics or returns a
//!   wrong trace.
//! * **Failures are survived.** Writes retry transient errors with the
//!   same bounded backoff (`store_retries_total`). A per-store health
//!   tracker counts *consecutive* I/O failures (verification rejects do
//!   not count — the disk delivered the bytes it had) and trips a circuit
//!   breaker after [`BREAKER_TRIP_AFTER`] of them; [`TraceStore::degraded`]
//!   then reads true and the owning [`Session`](crate::Session) falls back
//!   to memory-only tiers instead of hammering a dead disk. The
//!   `trips-chaos` fault-injection layer drives these paths determin-
//!   istically (injected read/write errors, short writes, post-rename
//!   bitflips, ENOSPC) so they stay tested, and [`TraceStore::fsck`]
//!   audits every container on demand (`trips-sweep --store-fsck`),
//!   quarantining any that fail verification.
//! * **Garbage is collectable.** Because each container records its kind
//!   and payload version, [`TraceStore::stats`] can census a shared
//!   directory and [`TraceStore::prune_stale`] can delete containers no
//!   current build will ever load (old container layouts, retired payload
//!   versions) — `trips-sweep --trace-gc` wires it to the command line so
//!   CI caches don't accumulate dead files across version bumps.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use trips_isa::{TraceId, TraceLog};
use trips_obs::Level;
use trips_phase::{PhaseArtifact, BBV_VERSION};
use trips_risc::{RiscTrace, RiscTraceHeader, RISC_TRACE_VERSION};

/// `b"TRST"` — identifies a store container file.
pub const STORE_MAGIC: [u8; 4] = *b"TRST";

/// Container-format version (the framing around the serialized payload; the
/// payloads' own formats are versioned separately by
/// [`trips_isa::trace::TRACE_VERSION`] and
/// [`trips_risc::RISC_TRACE_VERSION`]).
pub const STORE_VERSION: u32 = 2;

/// Container kind: a TRIPS block trace ([`TraceLog`] payload).
pub const KIND_BLOCK_TRACE: u32 = 1;

/// Container kind: a RISC event stream ([`RiscTrace`] payload).
pub const KIND_RISC_TRACE: u32 = 2;

/// Container kind: a BBV/phase-plan artifact
/// ([`trips_phase::PhaseArtifact`] payload).
pub const KIND_BBV: u32 = 3;

/// Container kind: a live-point checkpoint set ([`LivePointSet`] payload).
pub const KIND_LIVEPOINT: u32 = 4;

/// Payload-format version of [`LivePointSet`] containers. Bump whenever
/// any snapshot layout changes ([`trips_sim::TsimSnapshot`],
/// [`trips_ooo::OooSnapshot`], the cursor state, or this wrapper): old
/// keys then simply never match again and the census/prune path retires
/// the files.
pub const LIVEPOINT_VERSION: u32 = 1;

/// Container header: magic (4) + store version (4) + kind (4) + payload
/// version (4) + key (8) + payload hash (8) + payload length (8).
const HEADER_LEN: usize = 40;

/// Subdirectory rejected containers are moved into (with a `.reason`
/// sidecar each). Created lazily on the first quarantine.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Total attempts for one store read or write before the error is
/// surfaced (the first try plus bounded-backoff retries).
const IO_ATTEMPTS: u32 = 3;

/// Consecutive I/O failures (reads or writes, after their own retries)
/// that trip the store's circuit breaker. Verification rejects do not
/// count — they mean the disk served bytes fine and the *content* was
/// bad, which recapture fixes.
pub const BREAKER_TRIP_AFTER: u64 = 4;

/// What one store lookup produced (`T` is the payload type of the
/// container kind that was asked for).
#[derive(Debug)]
pub enum LoadOutcome<T = TraceLog> {
    /// A fully verified payload for the requested identity.
    Hit(Box<T>),
    /// No file under this key.
    Miss,
    /// A file existed but failed verification (truncated, corrupt, wrong
    /// version, foreign identity); it has been moved into `quarantine/`
    /// with a reason sidecar. The caller should recapture.
    Reject(String),
    /// The file could not be *read* even after bounded retries. That is
    /// not evidence the bytes are bad, so the file is left in place; the
    /// caller should recapture, and sessions count it separately
    /// (`disk_io_errors`) so a flaky disk is visible rather than folded
    /// into miss/reject accounting.
    IoError(String),
}

/// An identity one container kind is stored under: the payload it keys,
/// the container kind and payload-format version recorded in the header,
/// the stable key that names the file, and the check that a decoded
/// payload really belongs to this identity.
pub trait StoreKey {
    /// The payload type persisted under this identity.
    type Payload: serde::Serialize + serde::DeserializeOwned;
    /// Container kind (one of the `KIND_*` constants).
    const KIND: u32;
    /// Payload-format version; a bump retires every stored container of
    /// this kind.
    const VERSION: u32;
    /// The stable 64-bit key the container file is named by.
    fn key(&self) -> u64;
    /// Checks a decoded payload against this identity (kind confusion and
    /// renamed files reject rather than serve a foreign payload).
    ///
    /// # Errors
    /// A description of the first mismatch.
    fn check(&self, payload: &Self::Payload) -> Result<(), String>;
}

impl StoreKey for TraceId {
    type Payload = TraceLog;
    const KIND: u32 = KIND_BLOCK_TRACE;
    const VERSION: u32 = trips_isa::trace::TRACE_VERSION;
    fn key(&self) -> u64 {
        self.stable_hash()
    }
    fn check(&self, log: &TraceLog) -> Result<(), String> {
        self.matches_header(&log.header)
    }
}

impl StoreKey for RiscTraceId {
    type Payload = RiscTrace;
    const KIND: u32 = KIND_RISC_TRACE;
    const VERSION: u32 = RISC_TRACE_VERSION;
    fn key(&self) -> u64 {
        self.stable_hash()
    }
    fn check(&self, trace: &RiscTrace) -> Result<(), String> {
        self.matches_header(&trace.header)
    }
}

impl StoreKey for BbvId {
    type Payload = PhaseArtifact;
    const KIND: u32 = KIND_BBV;
    const VERSION: u32 = BBV_VERSION;
    fn key(&self) -> u64 {
        self.stable_hash()
    }
    /// An artifact records no identity of its own; the caller validates it
    /// against the spec and stream it is about to serve.
    fn check(&self, _: &PhaseArtifact) -> Result<(), String> {
        Ok(())
    }
}

impl StoreKey for LivePointId {
    type Payload = LivePointSet;
    const KIND: u32 = KIND_LIVEPOINT;
    const VERSION: u32 = LIVEPOINT_VERSION;
    fn key(&self) -> u64 {
        self.stable_hash()
    }
    fn check(&self, set: &LivePointSet) -> Result<(), String> {
        set.matches_id(self)
    }
}

/// The `(kind, payload version)` pair of every container the current
/// build can load.
const CURRENT: [(u32, u32); 4] = [
    (TraceId::KIND, TraceId::VERSION),
    (RiscTraceId::KIND, RiscTraceId::VERSION),
    (BbvId::KIND, BbvId::VERSION),
    (LivePointId::KIND, LivePointId::VERSION),
];

/// The complete identity of one RISC event-stream capture: everything that,
/// if changed, would change the recorded stream. The RISC-side counterpart
/// of [`trips_isa::TraceId`], keyed under its own hash domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RiscTraceId {
    /// Workload name.
    pub workload: String,
    /// Scale label (`test` / `ref`).
    pub scale: String,
    /// Compile-options signature of the scalar optimization preset.
    pub opts_sig: u64,
    /// Content signature of the compiled RISC program and the IR it
    /// executes against (a codegen change retires stored streams by
    /// itself).
    pub code_sig: u64,
    /// Memory image size of the functional run.
    pub mem_size: u64,
    /// Dynamic instruction budget of the capture.
    pub max_steps: u64,
}

impl RiscTraceId {
    /// A stable 64-bit key: the hash of every identity field plus
    /// [`RISC_TRACE_VERSION`], so a format bump retires every stored file
    /// at once (old keys simply never match again).
    #[must_use]
    pub fn stable_hash(&self) -> u64 {
        let mut h = trips_isa::hash::StableHasher::new();
        h.write_str("trips.risctrace");
        h.write_u64(u64::from(RISC_TRACE_VERSION));
        h.write_str(&self.workload);
        h.write_str(&self.scale);
        h.write_u64(self.opts_sig);
        h.write_u64(self.code_sig);
        h.write_u64(self.mem_size);
        h.write_u64(self.max_steps);
        h.finish()
    }

    /// Checks a loaded stream's header against this identity: magic,
    /// version, and every provenance field the header records (`code_sig`
    /// is part of the key only, like `hand`/`code_sig` on the TRIPS side).
    ///
    /// # Errors
    /// A description of the first mismatching field.
    pub fn matches_header(&self, h: &RiscTraceHeader) -> Result<(), String> {
        if h.magic != trips_risc::trace::RISC_TRACE_MAGIC {
            return Err(format!("bad trace magic {:#x}", h.magic));
        }
        if h.version != RISC_TRACE_VERSION {
            return Err(format!(
                "trace version {} unsupported (expected {RISC_TRACE_VERSION})",
                h.version
            ));
        }
        if h.workload != self.workload {
            return Err(format!(
                "trace is of workload `{}`, wanted `{}`",
                h.workload, self.workload
            ));
        }
        if h.scale != self.scale {
            return Err(format!(
                "trace is at scale `{}`, wanted `{}`",
                h.scale, self.scale
            ));
        }
        if h.opts_sig != self.opts_sig {
            return Err(format!(
                "trace compiled under options {:#x}, wanted {:#x}",
                h.opts_sig, self.opts_sig
            ));
        }
        if h.mem_size != self.mem_size {
            return Err(format!(
                "trace ran in {} bytes of memory, wanted {}",
                h.mem_size, self.mem_size
            ));
        }
        if h.max_steps != self.max_steps {
            return Err(format!(
                "trace captured under budget {}, wanted {}",
                h.max_steps, self.max_steps
            ));
        }
        Ok(())
    }
}

/// The complete identity of one fitted phase plan: the key of the parent
/// recorded stream (a [`TraceId`] or [`RiscTraceId`] stable hash — their
/// domains are disjoint, so the parent kind rides along in the key) plus
/// every fit parameter that, if changed, would change the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BbvId {
    /// Stable key of the trace the BBVs were extracted from.
    pub parent_key: u64,
    /// Classification interval (stream units).
    pub interval: u64,
    /// Timed-warmup units per representative window.
    pub warmup: u64,
    /// Cluster-count choice (0 = automatic BIC sweep; see
    /// [`trips_phase::PhaseSpec::k_code`]).
    pub k_code: u64,
    /// Covering-plan floor of the fit (it decides covering-vs-clustered,
    /// so two floors are two different plans).
    pub floor: u64,
    /// Representative-span cap of the fit (0 = unlimited).
    pub rep_span: u64,
    /// Startup-stratum width of the fit (intervals).
    pub boundary: u64,
    /// Teardown-stratum width of the fit (intervals).
    pub tail: u64,
}

impl BbvId {
    /// A stable 64-bit key under its own hash domain, folding in
    /// [`BBV_VERSION`] so a fit-format bump retires every stored artifact
    /// at once.
    #[must_use]
    pub fn stable_hash(&self) -> u64 {
        let mut h = trips_isa::hash::StableHasher::new();
        h.write_str("trips.bbv");
        h.write_u64(u64::from(BBV_VERSION));
        h.write_u64(self.parent_key);
        h.write_u64(self.interval);
        h.write_u64(self.warmup);
        h.write_u64(self.k_code);
        h.write_u64(self.floor);
        h.write_u64(self.rep_span);
        h.write_u64(self.boundary);
        h.write_u64(self.tail);
        h.finish()
    }
}

/// A stable signature of a fitted phase plan: the content hash of its
/// serialized bytes. Part of a [`LivePointId`] — any change to the plan
/// (window boundaries, weights, interval) moves the signature and retires
/// the checkpoints fitted under the old plan.
#[must_use]
pub fn plan_sig(plan: &trips_sample::PhasePlan) -> u64 {
    trips_isa::hash::content_hash(&serde::bin::to_bytes(plan))
}

/// The complete identity of one live-point checkpoint set: everything
/// that, if changed, would change the captured machine state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LivePointId {
    /// Stable key of the recorded stream the checkpoints were captured
    /// over (a [`TraceId`] or [`RiscTraceId`] stable hash).
    pub parent_key: u64,
    /// [`plan_sig`] of the fitted phase plan whose window boundaries the
    /// checkpoints sit at.
    pub plan_sig: u64,
    /// Signature of the timing configuration (cache geometry, predictor
    /// sizes, …) the machine state was warmed under.
    pub cfg_sig: u64,
    /// Core discriminant: [`KIND_BLOCK_TRACE`] for the TRIPS core,
    /// [`KIND_RISC_TRACE`] for the OoO cores (reusing the parent stream's
    /// container kind keeps the two state layouts in disjoint key spaces
    /// even if the signatures ever collided).
    pub core: u32,
}

impl LivePointId {
    /// A stable 64-bit key under its own hash domain, folding in
    /// [`LIVEPOINT_VERSION`] so a snapshot-format bump retires every
    /// stored set at once.
    #[must_use]
    pub fn stable_hash(&self) -> u64 {
        let mut h = trips_isa::hash::StableHasher::new();
        h.write_str("trips.livepoint");
        h.write_u64(u64::from(LIVEPOINT_VERSION));
        h.write_u64(self.parent_key);
        h.write_u64(self.plan_sig);
        h.write_u64(self.cfg_sig);
        h.write_u64(u64::from(self.core));
        h.finish()
    }
}

/// The warmed machine states of one checkpoint-capture pass, one per
/// phase-plan window, in window order.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum LivePointStates {
    /// TRIPS-core snapshots.
    Trips(Vec<trips_sim::TsimSnapshot>),
    /// OoO-core snapshots.
    Ooo(Vec<trips_ooo::OooSnapshot>),
}

/// A timing core's live-point state: its core discriminant in a
/// [`LivePointId`] and its variant of [`LivePointStates`].
pub trait LiveState: Sized {
    /// The [`LivePointId::core`] of this core's sets.
    const CORE: u32;

    /// Wraps one capture pass's states.
    fn wrap(states: Vec<Self>) -> LivePointStates;

    /// The states, when they are this core's.
    fn unwrap(states: &LivePointStates) -> Option<&[Self]>;

    /// This core's states in `set` (whose identity, core tag included, the
    /// store has checked): one per `plan` window, over the plan's extent.
    ///
    /// # Errors
    /// Another core's states, or a set of the wrong shape for the plan.
    fn fitted<'s>(
        set: &'s LivePointSet,
        plan: &trips_sample::PhasePlan,
    ) -> Result<&'s [Self], String> {
        let states = Self::unwrap(&set.states).ok_or("live-points of another core")?;
        if states.len() == plan.windows.len() && set.total_units == plan.total_units {
            return Ok(states);
        }
        Err(format!(
            "wrong shape for the plan: {} states over {} units, plan has {} windows over {}",
            states.len(),
            set.total_units,
            plan.windows.len(),
            plan.total_units
        ))
    }
}

/// Implements [`LiveState`] for the snapshot type of one
/// [`LivePointStates`] variant.
macro_rules! live_state {
    ($snapshot:ty, $core:expr, $variant:ident) => {
        impl LiveState for $snapshot {
            const CORE: u32 = $core;

            fn wrap(states: Vec<Self>) -> LivePointStates {
                LivePointStates::$variant(states)
            }

            fn unwrap(states: &LivePointStates) -> Option<&[Self]> {
                match states {
                    LivePointStates::$variant(v) => Some(v),
                    _ => None,
                }
            }
        }
    };
}

live_state!(trips_sim::TsimSnapshot, KIND_BLOCK_TRACE, Trips);
live_state!(trips_ooo::OooSnapshot, KIND_RISC_TRACE, Ooo);

/// Persisted live-point checkpoint set: the identity fields ride inside
/// the payload so a loaded set can be cross-checked against the requested
/// [`LivePointId`] (kind-confusion and renamed files reject rather than
/// serve a foreign machine state).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LivePointSet {
    /// Stable key of the parent recorded stream.
    pub parent_key: u64,
    /// [`plan_sig`] of the fitted plan.
    pub plan_sig: u64,
    /// Timing-config signature.
    pub cfg_sig: u64,
    /// Core discriminant (see [`LivePointId::core`]).
    pub core: u32,
    /// Stream extent the plan was fitted over (cheap sanity anchor).
    pub total_units: u64,
    /// One warmed machine state per plan window, in window order.
    pub states: LivePointStates,
}

impl LivePointSet {
    /// Checks a loaded set against the identity it was looked up under.
    ///
    /// # Errors
    /// A description of the first mismatching field.
    pub fn matches_id(&self, id: &LivePointId) -> Result<(), String> {
        if self.parent_key != id.parent_key {
            return Err(format!(
                "live-points for parent {:#018x}, wanted {:#018x}",
                self.parent_key, id.parent_key
            ));
        }
        if self.plan_sig != id.plan_sig {
            return Err(format!(
                "live-points for plan {:#018x}, wanted {:#018x}",
                self.plan_sig, id.plan_sig
            ));
        }
        if self.cfg_sig != id.cfg_sig {
            return Err(format!(
                "live-points for config {:#018x}, wanted {:#018x}",
                self.cfg_sig, id.cfg_sig
            ));
        }
        if self.core != id.core {
            return Err(format!(
                "live-points for core {}, wanted {}",
                self.core, id.core
            ));
        }
        Ok(())
    }
}

/// A census of one store directory (see [`TraceStore::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct StoreStats {
    /// `.trace` container files present.
    pub containers: u64,
    /// Their total size in bytes.
    pub bytes: u64,
    /// Containers holding a current-version TRIPS block trace.
    pub block_traces: u64,
    /// Containers holding a current-version RISC event stream.
    pub risc_traces: u64,
    /// Containers holding a current-version BBV/phase-plan artifact.
    pub bbv_plans: u64,
    /// Containers holding a current-version live-point checkpoint set.
    pub live_points: u64,
    /// Containers no current build will load: unreadable headers, old
    /// container layouts, unknown kinds, retired payload versions.
    pub stale: u64,
    /// Containers sitting in the `quarantine/` subdirectory (rejected
    /// corrupt files, preserved as evidence).
    pub quarantined: u64,
    /// Their total size in bytes (sidecars not counted).
    pub quarantine_bytes: u64,
}

/// What one [`TraceStore::fsck`] pass found and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct FsckReport {
    /// Container files examined.
    pub scanned: u64,
    /// Containers that passed full verification (header, filename-vs-key,
    /// payload length and content hash).
    pub ok: u64,
    /// Cleanly versioned-out containers (old layouts, retired payload
    /// versions) — left for [`TraceStore::prune_stale`].
    pub stale: u64,
    /// Corrupt containers moved into `quarantine/` this pass.
    pub quarantined: u64,
    /// Containers that could not be read (left in place; a read error is
    /// not evidence of corruption).
    pub unreadable: u64,
    /// Orphaned `.tmp-` files from writers that died mid-write, removed.
    pub repaired_tmp: u64,
    /// Containers resident in `quarantine/` after the pass.
    pub quarantine_containers: u64,
    /// Their total size in bytes.
    pub quarantine_bytes: u64,
}

/// What one [`TraceStore::prune_stale`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct PruneReport {
    /// Container files examined (`scanned == removed + kept`).
    pub scanned: u64,
    /// Stale containers deleted.
    pub removed: u64,
    /// Bytes those files occupied.
    pub bytes_freed: u64,
    /// Current-version containers left in place (including stale files a
    /// deletion error kept alive).
    pub kept: u64,
    /// Of the removals, live-point sets collected because their parent
    /// stream was gone or no current fitted plan produces their boundaries.
    pub orphaned: u64,
}

/// How a container header classifies against the current build.
enum ContainerClass {
    /// A container of this kind at its current payload version.
    Current(u32),
    Stale,
}

/// A directory of content-addressed `<key>.trace` files.
///
/// The store itself is stateless apart from a temp-name counter and its
/// health tracker; hit/miss accounting lives in the
/// [`Session`](crate::Session) that owns it, next to the in-memory tiers'
/// counters.
#[derive(Debug)]
pub struct TraceStore {
    dir: PathBuf,
    tmp_seq: AtomicU64,
    /// Consecutive I/O failures (each already past its own retries).
    /// Any I/O success resets it.
    io_failures: AtomicU64,
    /// Latched once `io_failures` reaches [`BREAKER_TRIP_AFTER`]; the
    /// owning session then stops consulting the disk tier.
    breaker_open: AtomicBool,
}

impl TraceStore {
    /// Opens (creating if needed) the store directory.
    ///
    /// # Errors
    /// Any error creating the directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<TraceStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        // Sweep temp debris from writers that died between write and
        // rename — nothing ever reads or reuses those names, so a
        // long-lived shared directory would otherwise accumulate them
        // forever. (This can race a concurrent writer's in-flight temp
        // file; its save then fails, which savers already tolerate — the
        // capture is still returned, and the next miss re-writes.)
        if let Ok(entries) = fs::read_dir(&dir) {
            for entry in entries.flatten() {
                if entry.file_name().to_string_lossy().starts_with(".tmp-") {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
        Ok(TraceStore {
            dir,
            tmp_seq: AtomicU64::new(0),
            io_failures: AtomicU64::new(0),
            breaker_open: AtomicBool::new(false),
        })
    }

    /// True once the circuit breaker has tripped: [`BREAKER_TRIP_AFTER`]
    /// consecutive I/O failures with no intervening success. The owning
    /// [`Session`](crate::Session) then degrades to memory-only tiers for
    /// the rest of the process instead of paying retry backoffs on a disk
    /// that is plainly gone.
    #[must_use]
    pub fn degraded(&self) -> bool {
        self.breaker_open.load(Ordering::Relaxed)
    }

    fn record_io_ok(&self) {
        self.io_failures.store(0, Ordering::Relaxed);
    }

    fn record_io_failure(&self) {
        let n = self.io_failures.fetch_add(1, Ordering::Relaxed) + 1;
        if n >= BREAKER_TRIP_AFTER && !self.breaker_open.swap(true, Ordering::Relaxed) {
            trips_obs::counter("store_breaker_trips_total").inc(1);
            trips_obs::log!(
                Level::Warn,
                "store",
                "circuit breaker open after {n} consecutive I/O failures on {}; \
                 degrading to memory-only tiers",
                self.dir.display()
            );
        }
    }

    /// Bounded exponential backoff before retry `attempt` (1-based).
    fn backoff(attempt: u32) -> Duration {
        Duration::from_micros(500u64 << attempt.min(4))
    }

    /// The directory this store lives in.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for_key(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.trace"))
    }

    /// The file path an identity is stored under.
    #[must_use]
    pub fn path_for<K: StoreKey>(&self, id: &K) -> PathBuf {
        self.path_for_key(id.key())
    }

    /// [`TraceStore::path_for`] for a RISC stream; the benchmark harness
    /// calls it.
    #[must_use]
    pub fn path_for_risc(&self, id: &RiscTraceId) -> PathBuf {
        self.path_for(id)
    }

    /// [`TraceStore::path_for`] for a phase artifact; the benchmark harness
    /// calls it.
    #[must_use]
    pub fn path_for_bbv(&self, id: &BbvId) -> PathBuf {
        self.path_for(id)
    }

    /// [`TraceStore::path_for`] for a live-point set; the benchmark
    /// harness calls it.
    #[must_use]
    pub fn path_for_livepoint(&self, id: &LivePointId) -> PathBuf {
        self.path_for(id)
    }

    /// [`TraceStore::load`] for a RISC stream; the benchmark harness calls
    /// it.
    pub fn load_risc(&self, id: &RiscTraceId) -> LoadOutcome<RiscTrace> {
        self.load(id)
    }

    /// [`TraceStore::load`] for a live-point set; the benchmark harness
    /// calls it.
    pub fn load_livepoint(&self, id: &LivePointId) -> LoadOutcome<LivePointSet> {
        self.load(id)
    }

    /// [`TraceStore::save`] for a RISC stream; the benchmark harness calls
    /// it.
    ///
    /// # Errors
    /// Any I/O error.
    pub fn save_risc(&self, id: &RiscTraceId, trace: &RiscTrace) -> io::Result<()> {
        self.save(id, trace)
    }

    /// [`TraceStore::save`] for a phase artifact; the benchmark harness
    /// calls it.
    ///
    /// # Errors
    /// Any I/O error.
    pub fn save_bbv(&self, id: &BbvId, art: &PhaseArtifact) -> io::Result<()> {
        self.save(id, art)
    }

    /// [`TraceStore::save`] for a live-point set; the benchmark harness
    /// calls it.
    ///
    /// # Errors
    /// Any I/O error.
    pub fn save_livepoint(&self, id: &LivePointId, set: &LivePointSet) -> io::Result<()> {
        self.save(id, set)
    }

    /// Looks up the payload stored under `id`, verifying the container
    /// (magic, versions, kind, key, payload hash), decoding the payload,
    /// and checking it against `id` ([`StoreKey::check`]). Rejected files
    /// are quarantined so the next writer replaces them (and the evidence
    /// survives for post-mortems). The caller still deep-validates the
    /// payload against what it is about to serve (a log against its
    /// program, an artifact against its stream, a set against its plan).
    pub fn load<K: StoreKey>(&self, id: &K) -> LoadOutcome<K::Payload> {
        let _span = trips_obs::span("store.load");
        let key = id.key();
        let path = self.path_for_key(key);
        let mut attempt = 0u32;
        let bytes = loop {
            let read = match trips_chaos::read_fault() {
                Some(e) => Err(e),
                None => fs::read(&path),
            };
            match read {
                Ok(b) => break b,
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    self.record_io_ok();
                    return LoadOutcome::Miss;
                }
                // A read error is not evidence of corruption — the file may
                // be perfectly good on a filesystem having a moment. Retry
                // briefly; if it persists, recapture but leave the file for
                // other processes and count the failure against the breaker.
                Err(e) => {
                    attempt += 1;
                    if attempt >= IO_ATTEMPTS {
                        self.record_io_failure();
                        return LoadOutcome::IoError(format!(
                            "read failed after {attempt} attempts: {e}"
                        ));
                    }
                    trips_obs::counter("store_retries_total").inc(1);
                    trips_obs::log!(
                        Level::Debug,
                        "store",
                        "read {} failed ({e}); retry {attempt}",
                        path.display()
                    );
                    std::thread::sleep(Self::backoff(attempt));
                }
            }
        };
        self.record_io_ok();
        trips_obs::counter("store_read_bytes_total").inc(bytes.len() as u64);
        trips_obs::cost::add_store_read(bytes.len() as u64);
        let decoded =
            Self::verify_container(key, K::KIND, K::VERSION, &bytes).and_then(|payload| {
                let v: K::Payload =
                    serde::bin::from_bytes(payload).map_err(|e| format!("payload decode: {e}"))?;
                id.check(&v)
                    .map_err(|e| format!("identity mismatch: {e}"))?;
                Ok(v)
            });
        match decoded {
            Ok(v) => LoadOutcome::Hit(Box::new(v)),
            Err(why) => {
                self.quarantine_file(&path, &why);
                LoadOutcome::Reject(why)
            }
        }
    }

    /// Persists `payload` under `id`: serialize, frame, write to a unique
    /// temp file in the store directory, atomically rename into place.
    ///
    /// # Errors
    /// Any I/O error (the temp file is cleaned up best-effort; the store is
    /// a cache, so callers typically log-and-continue).
    pub fn save<K: StoreKey>(&self, id: &K, payload: &K::Payload) -> io::Result<()> {
        let payload = serde::bin::to_bytes(payload);
        let _span = trips_obs::span("store.save");
        let key = id.key();
        let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
        bytes.extend_from_slice(&STORE_MAGIC);
        bytes.extend_from_slice(&STORE_VERSION.to_le_bytes());
        bytes.extend_from_slice(&K::KIND.to_le_bytes());
        bytes.extend_from_slice(&K::VERSION.to_le_bytes());
        bytes.extend_from_slice(&key.to_le_bytes());
        bytes.extend_from_slice(&trips_isa::hash::content_hash(&payload).to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&payload);

        // Transient write errors (a filesystem having a moment, injected
        // ENOSPC/short writes) retry with bounded backoff; only a
        // persistent failure surfaces, and counts against the breaker.
        let mut attempt = 0u32;
        loop {
            match self.write_container(key, &bytes) {
                Ok(()) => {
                    self.record_io_ok();
                    trips_obs::counter("store_write_bytes_total").inc(bytes.len() as u64);
                    trips_obs::cost::add_store_write(bytes.len() as u64);
                    return Ok(());
                }
                Err(e) => {
                    attempt += 1;
                    if attempt >= IO_ATTEMPTS {
                        self.record_io_failure();
                        return Err(e);
                    }
                    trips_obs::counter("store_retries_total").inc(1);
                    trips_obs::log!(
                        Level::Debug,
                        "store",
                        "write of {key:016x} failed ({e}); retry {attempt}"
                    );
                    std::thread::sleep(Self::backoff(attempt));
                }
            }
        }
    }

    /// One atomic write attempt: temp file in the store directory, rename
    /// into place. The `trips-chaos` faults model a full device (error
    /// before any byte lands), a torn write (a prefix lands, then an
    /// error — exactly what a crash mid-`write` leaves), and silent media
    /// corruption (a payload bit flips *after* the rename, so only a
    /// later verified load can catch it).
    fn write_container(&self, key: u64, bytes: &[u8]) -> io::Result<()> {
        // Unique within the process via the counter, across processes via
        // the pid; rename within one directory is atomic, so a concurrent
        // reader sees either the old complete file or the new one.
        let tmp = self.dir.join(format!(
            ".tmp-{key:016x}-{}-{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed),
        ));
        if let Some(e) = trips_chaos::enospc_fault() {
            return Err(e);
        }
        let written = match trips_chaos::short_write_fault() {
            Some(entropy) => {
                let cut = (entropy as usize) % bytes.len().max(1);
                let _ = fs::write(&tmp, &bytes[..cut]);
                Err(io::Error::other("injected short write (chaos)"))
            }
            None => fs::write(&tmp, bytes),
        };
        written
            .and_then(|()| fs::rename(&tmp, self.path_for_key(key)))
            .inspect(|()| {
                if let Some(entropy) = trips_chaos::bitflip_fault() {
                    self.flip_payload_bit(key, entropy);
                }
            })
            .inspect_err(|_| {
                // A failed write (e.g. ENOSPC) leaves a partial temp file;
                // a failed rename leaves a complete one. Neither may stay.
                let _ = fs::remove_file(&tmp);
            })
    }

    /// Chaos-only: flips one payload bit of the just-renamed container,
    /// modeling silent media corruption. The damage is invisible until a
    /// verified load computes the content hash — which must then reject
    /// and quarantine, never serve.
    fn flip_payload_bit(&self, key: u64, entropy: u64) {
        let path = self.path_for_key(key);
        if let Ok(mut bytes) = fs::read(&path) {
            if bytes.len() > HEADER_LEN {
                let payload_bits = (bytes.len() - HEADER_LEN) as u64 * 8;
                let bit = entropy % payload_bits;
                let at = HEADER_LEN + (bit / 8) as usize;
                bytes[at] ^= 1 << (bit % 8);
                let _ = fs::write(&path, &bytes);
            }
        }
    }

    /// Quarantines the file under `id` (used when a container-valid
    /// payload still fails deeper validation against what it must
    /// describe: a log against its program, an artifact against its
    /// stream, a set against its plan).
    pub fn quarantine<K: StoreKey>(&self, id: &K, why: &str) {
        self.quarantine_file(&self.path_for(id), why);
    }

    /// Moves a rejected container into `quarantine/` with a `.reason`
    /// sidecar, preserving the evidence while making sure no load can
    /// ever serve it again. The subdirectory is created lazily. If the
    /// move itself fails the file is removed instead — a corrupt
    /// container must never stay where lookups find it.
    fn quarantine_file(&self, path: &Path, why: &str) {
        let Some(name) = path.file_name() else { return };
        let qdir = self.dir.join(QUARANTINE_DIR);
        let dest = qdir.join(name);
        match fs::create_dir_all(&qdir).and_then(|()| fs::rename(path, &dest)) {
            Ok(()) => {
                let reason = qdir.join(format!("{}.reason", name.to_string_lossy()));
                let _ = fs::write(&reason, format!("{why}\n"));
                trips_obs::counter("store_quarantined_total").inc(1);
                trips_obs::log!(
                    Level::Warn,
                    "store",
                    "quarantined {}: {why}",
                    dest.display()
                );
            }
            // Already gone: a racing rejecter beat us to it.
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => {
                trips_obs::log!(
                    Level::Warn,
                    "store",
                    "quarantine of {} failed ({e}); removing instead: {why}",
                    path.display()
                );
                let _ = fs::remove_file(path);
            }
        }
    }

    /// Census of the `quarantine/` subdirectory: container count, bytes.
    fn quarantine_census(&self) -> (u64, u64) {
        let (mut n, mut bytes) = (0u64, 0u64);
        if let Ok(entries) = fs::read_dir(self.dir.join(QUARANTINE_DIR)) {
            for entry in entries.flatten() {
                let path = entry.path();
                if path.extension() == Some(std::ffi::OsStr::new("trace")) {
                    n += 1;
                    bytes += entry.metadata().map(|m| m.len()).unwrap_or(0);
                }
            }
        }
        (n, bytes)
    }

    /// Verifies every container in the store — header sanity, key vs
    /// file name, payload length and content hash — quarantining any that
    /// fail, removing orphaned `.tmp-` debris, and reporting the result
    /// (wired to `trips-sweep --store-fsck`).
    ///
    /// Cleanly versioned-out containers count as `stale` and stay put
    /// (that is [`TraceStore::prune_stale`]'s job); unreadable files stay
    /// put too (a read error is not evidence of corruption). A second
    /// pass over an undisturbed store therefore quarantines nothing: the
    /// census converges.
    ///
    /// # Errors
    /// Any error listing the directory.
    pub fn fsck(&self) -> io::Result<FsckReport> {
        let _span = trips_obs::span("store.fsck");
        let mut r = FsckReport::default();
        let mut paths = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let path = entry.path();
            if entry.file_name().to_string_lossy().starts_with(".tmp-") {
                if fs::remove_file(&path).is_ok() {
                    r.repaired_tmp += 1;
                }
                continue;
            }
            if path.extension() == Some(std::ffi::OsStr::new("trace")) {
                paths.push(path);
            }
        }
        for path in paths {
            r.scanned += 1;
            let bytes = match fs::read(&path) {
                Ok(b) => b,
                Err(_) => {
                    r.unreadable += 1;
                    continue;
                }
            };
            if matches!(Self::classify(&bytes), ContainerClass::Stale) {
                // Distinguish "cleanly from another era" (intact magic, a
                // version we no longer speak — prune's domain) from
                // damage (too short for a header, garbage magic).
                let versioned_out = bytes.len() >= HEADER_LEN && bytes[..4] == STORE_MAGIC;
                if versioned_out {
                    r.stale += 1;
                } else {
                    self.quarantine_file(&path, "fsck: not a container (truncated or bad magic)");
                    r.quarantined += 1;
                }
                continue;
            }
            // Current-version container: full verification against the
            // kind/payload-version it claims and the key its name claims.
            let kind = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
            let payload_version = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
            let Some(key) = Self::key_from_path(&path) else {
                self.quarantine_file(&path, "fsck: file name is not a container key");
                r.quarantined += 1;
                continue;
            };
            match Self::verify_container(key, kind, payload_version, &bytes) {
                Ok(_) => r.ok += 1,
                Err(why) => {
                    self.quarantine_file(&path, &format!("fsck: {why}"));
                    r.quarantined += 1;
                }
            }
        }
        (r.quarantine_containers, r.quarantine_bytes) = self.quarantine_census();
        Ok(r)
    }

    /// Full container verification; returns the payload slice.
    fn verify_container(
        key: u64,
        kind: u32,
        payload_version: u32,
        bytes: &[u8],
    ) -> Result<&[u8], String> {
        if bytes.len() < HEADER_LEN {
            return Err(format!(
                "truncated container: {} bytes, header is {HEADER_LEN}",
                bytes.len()
            ));
        }
        let u32_at = |at: usize| -> u32 {
            u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
        };
        let u64_at = |at: usize| -> u64 {
            u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
        };
        if bytes[..4] != STORE_MAGIC {
            return Err(format!("bad store magic {:02x?}", &bytes[..4]));
        }
        let version = u32_at(4);
        if version != STORE_VERSION {
            return Err(format!(
                "store version {version} unsupported (expected {STORE_VERSION})"
            ));
        }
        let file_kind = u32_at(8);
        if file_kind != kind {
            return Err(format!(
                "container kind {file_kind} where kind {kind} was expected"
            ));
        }
        let file_payload_version = u32_at(12);
        if file_payload_version != payload_version {
            return Err(format!(
                "payload version {file_payload_version} unsupported (expected {payload_version})"
            ));
        }
        let file_key = u64_at(16);
        if file_key != key {
            return Err(format!(
                "file claims key {file_key:#018x}, expected {key:#018x}"
            ));
        }
        let payload_hash = u64_at(24);
        let payload_len = u64_at(32);
        let payload = &bytes[HEADER_LEN..];
        if payload.len() as u64 != payload_len {
            return Err(format!(
                "truncated payload: {} bytes of {payload_len}",
                payload.len()
            ));
        }
        let actual = trips_isa::hash::content_hash(payload);
        if actual != payload_hash {
            return Err(format!(
                "payload hash {actual:#018x} != recorded {payload_hash:#018x}"
            ));
        }
        Ok(payload)
    }

    /// Classifies one container file by its header alone (no payload
    /// verification — integrity is [`TraceStore::load`]'s job).
    fn classify(bytes: &[u8]) -> ContainerClass {
        if bytes.len() < HEADER_LEN || bytes[..4] != STORE_MAGIC {
            return ContainerClass::Stale;
        }
        let u32_at = |at: usize| -> u32 {
            u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
        };
        if u32_at(4) != STORE_VERSION {
            return ContainerClass::Stale;
        }
        let kind = u32_at(8);
        if CURRENT.contains(&(kind, u32_at(12))) {
            ContainerClass::Current(kind)
        } else {
            ContainerClass::Stale
        }
    }

    fn containers(&self) -> io::Result<Vec<(PathBuf, u64, ContainerClass)>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let path = entry.path();
            if path.extension() != Some(std::ffi::OsStr::new("trace")) {
                continue;
            }
            let len = entry.metadata().map(|m| m.len()).unwrap_or(0);
            // Classification needs only the header — never pull a
            // multi-megabyte payload through the page cache for a census.
            let mut head = [0u8; HEADER_LEN];
            let class = match fs::File::open(&path).and_then(|mut f| {
                let mut at = 0;
                while at < HEADER_LEN {
                    match io::Read::read(&mut f, &mut head[at..])? {
                        0 => break,
                        n => at += n,
                    }
                }
                Ok(at)
            }) {
                Ok(n) => Self::classify(&head[..n]),
                // Unreadable right now: don't classify it stale on an I/O
                // hiccup (same policy as load()).
                Err(_) => continue,
            };
            out.push((path, len, class));
        }
        Ok(out)
    }

    /// A census of the directory: container counts per kind, total bytes,
    /// and how many files no current build will ever load.
    ///
    /// # Errors
    /// Any error listing the directory.
    pub fn stats(&self) -> io::Result<StoreStats> {
        let mut s = StoreStats::default();
        for (_, len, class) in self.containers()? {
            s.containers += 1;
            s.bytes += len;
            match class {
                ContainerClass::Current(KIND_BLOCK_TRACE) => s.block_traces += 1,
                ContainerClass::Current(KIND_RISC_TRACE) => s.risc_traces += 1,
                ContainerClass::Current(KIND_BBV) => s.bbv_plans += 1,
                ContainerClass::Current(_) => s.live_points += 1,
                ContainerClass::Stale => s.stale += 1,
            }
        }
        (s.quarantined, s.quarantine_bytes) = self.quarantine_census();
        Ok(s)
    }

    /// Deletes every stale container — old container layouts, unknown
    /// kinds, retired payload versions, unparsable headers — leaving
    /// current-version files untouched. Version bumps would otherwise leave
    /// dead files in shared directories (CI caches) forever, since bumped
    /// keys never match the old names again.
    ///
    /// Live-point sets are additionally checked for *orphanhood*: a set
    /// whose parent stream container is gone, or whose plan signature no
    /// current fitted artifact in this store produces (the fit parameters
    /// changed), can never be served again — its key will simply never be
    /// asked for — so it is collected too.
    ///
    /// # Errors
    /// Any error listing the directory (individual deletions are
    /// best-effort).
    pub fn prune_stale(&self) -> io::Result<PruneReport> {
        let mut report = PruneReport::default();
        let containers = self.containers()?;
        // Keys of current parent-capable containers (traces/streams), for
        // live-point parentage, read off the file names.
        let mut parents: std::collections::HashSet<u64> = std::collections::HashSet::new();
        // Plan signatures a current fitted artifact still produces.
        let mut live_plans: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for (path, _, class) in &containers {
            match class {
                ContainerClass::Current(KIND_BLOCK_TRACE | KIND_RISC_TRACE) => {
                    if let Some(key) = Self::key_from_path(path) {
                        parents.insert(key);
                    }
                }
                ContainerClass::Current(KIND_BBV) => {
                    if let Ok(bytes) = fs::read(path) {
                        if bytes.len() >= HEADER_LEN {
                            if let Ok(art) =
                                serde::bin::from_bytes::<PhaseArtifact>(&bytes[HEADER_LEN..])
                            {
                                live_plans.insert(plan_sig(&art.plan));
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        for (path, len, class) in &containers {
            report.scanned += 1;
            let (collect, orphan) = match class {
                ContainerClass::Stale => (true, false),
                ContainerClass::Current(KIND_LIVEPOINT) => {
                    match fs::read(path).ok().and_then(|bytes| {
                        (bytes.len() >= HEADER_LEN)
                            .then(|| {
                                serde::bin::from_bytes::<LivePointSet>(&bytes[HEADER_LEN..]).ok()
                            })
                            .flatten()
                    }) {
                        Some(set) => {
                            let orphan = !parents.contains(&set.parent_key)
                                || !live_plans.contains(&set.plan_sig);
                            (orphan, orphan)
                        }
                        // Unreadable or undecodable right now: leave it for
                        // load() to adjudicate (same policy as elsewhere —
                        // an I/O hiccup is not evidence of staleness).
                        None => (false, false),
                    }
                }
                ContainerClass::Current(_) => (false, false),
            };
            if collect && fs::remove_file(path).is_ok() {
                report.removed += 1;
                report.bytes_freed += len;
                if orphan {
                    report.orphaned += 1;
                }
            } else {
                report.kept += 1;
            }
        }
        Ok(report)
    }

    /// Parses the content key back out of a `<key:016x>.trace` file name.
    fn key_from_path(path: &Path) -> Option<u64> {
        let stem = path.file_stem()?.to_str()?;
        u64::from_str_radix(stem, 16).ok()
    }
}
