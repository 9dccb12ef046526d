//! Robustness contract of the on-disk trace store: every way a stored file
//! can be wrong — truncated, version-skewed, bit-flipped, renamed, raced —
//! must degrade to a recapture, never to a panic, a torn read, or a wrong
//! trace.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use trips_compiler::CompileOptions;
use trips_engine::cache::{code_sig, opts_sig, risc_code_sig, trips_cfg_sig};
use trips_engine::store::{plan_sig, LivePointId, LivePointSet, LivePointStates, KIND_BLOCK_TRACE};
use trips_engine::{
    BbvId, CacheStats, LoadOutcome, PhaseK, PhaseSpec, ReplayMode, RiscTraceId, Session, Stream,
    TraceStore,
};
use trips_isa::{TraceId, TraceLog, TraceMeta};
use trips_risc::{RiscTrace, RiscTraceMeta};
use trips_workloads::{by_name, Scale, Workload};

const MEM: usize = 1 << 22;
const BUDGET: u64 = 1_000_000;

/// `w` at Test scale under `opts`, with this file's memory and budget.
fn stream(w: &Workload, opts: &CompileOptions) -> Stream {
    Stream::new(w, Scale::Test, opts.clone(), MEM, BUDGET)
}

fn tmp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A real capture of `vadd` plus the identity the engine would key it by.
fn captured_vadd() -> (TraceId, TraceLog) {
    let opts = CompileOptions::o1();
    let w = by_name("vadd").unwrap();
    let program = (w.build)(Scale::Test);
    let compiled = trips_compiler::compile(&program, &opts).unwrap();
    let meta = TraceMeta {
        workload: "vadd".into(),
        scale: "test".into(),
        opts_sig: opts_sig(&opts),
    };
    let log = TraceLog::capture(&compiled.trips, &compiled.opt_ir, MEM, BUDGET, meta).unwrap();
    let id = TraceId {
        workload: "vadd".into(),
        scale: "test".into(),
        opts_sig: opts_sig(&opts),
        hand: false,
        code_sig: code_sig(&compiled),
        mem_size: MEM as u64,
        max_blocks: BUDGET,
    };
    (id, log)
}

/// A real RISC event-stream capture of `vadd` plus its store identity.
fn captured_vadd_risc() -> (RiscTraceId, RiscTrace) {
    let opts = CompileOptions::gcc_ref();
    let w = by_name("vadd").unwrap();
    let session = Session::new();
    let art = session.risc_program(&stream(&w, &opts)).unwrap();
    let trace = RiscTrace::capture(
        &art.program,
        &art.ir,
        MEM,
        BUDGET,
        RiscTraceMeta {
            workload: "vadd".into(),
            scale: "test".into(),
            opts_sig: opts_sig(&opts),
        },
    )
    .unwrap();
    let id = RiscTraceId {
        workload: "vadd".into(),
        scale: "test".into(),
        opts_sig: opts_sig(&opts),
        code_sig: risc_code_sig(&art),
        mem_size: MEM as u64,
        max_steps: BUDGET,
    };
    (id, trace)
}

#[test]
fn round_trips_a_real_capture() {
    let store = TraceStore::open(tmp_dir("roundtrip")).unwrap();
    let (id, log) = captured_vadd();
    assert!(matches!(store.load(&id), LoadOutcome::Miss));
    store.save(&id, &log).unwrap();
    match store.load(&id) {
        LoadOutcome::Hit(back) => assert_eq!(*back, log),
        other => panic!("expected a hit, got {other:?}"),
    }
}

#[test]
fn truncated_file_rejects_and_is_removed() {
    let store = TraceStore::open(tmp_dir("truncated")).unwrap();
    let (id, log) = captured_vadd();
    store.save(&id, &log).unwrap();
    let path = store.path_for(&id);
    // Truncate at several depths: inside the container header, right after
    // it, and mid-payload.
    let full = std::fs::read(&path).unwrap();
    for cut in [0, 7, 32, full.len() / 2, full.len() - 1] {
        std::fs::write(&path, &full[..cut]).unwrap();
        match store.load(&id) {
            LoadOutcome::Reject(why) => {
                assert!(!path.exists(), "rejected file (cut={cut}) must be removed");
                assert!(
                    why.contains("truncated") || why.contains("decode") || why.contains("hash"),
                    "cut={cut}: {why}"
                );
            }
            other => panic!("cut at {cut}: expected a reject, got {other:?}"),
        }
    }
}

#[test]
fn wrong_container_version_rejects() {
    let store = TraceStore::open(tmp_dir("version")).unwrap();
    let (id, log) = captured_vadd();
    store.save(&id, &log).unwrap();
    let path = store.path_for(&id);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[4] = bytes[4].wrapping_add(1); // container version, LE byte 0
    std::fs::write(&path, &bytes).unwrap();
    match store.load(&id) {
        LoadOutcome::Reject(why) => assert!(why.contains("version"), "{why}"),
        other => panic!("expected a reject, got {other:?}"),
    }
}

#[test]
fn payload_corruption_fails_the_content_hash() {
    let store = TraceStore::open(tmp_dir("bitflip")).unwrap();
    let (id, log) = captured_vadd();
    store.save(&id, &log).unwrap();
    let path = store.path_for(&id);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = 32 + (bytes.len() - 32) / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();
    match store.load(&id) {
        LoadOutcome::Reject(why) => assert!(why.contains("hash"), "{why}"),
        other => panic!("expected a reject, got {other:?}"),
    }
}

#[test]
fn foreign_identity_rejects_even_with_valid_content() {
    let store = TraceStore::open(tmp_dir("foreign")).unwrap();
    let (id, log) = captured_vadd();
    store.save(&id, &log).unwrap();
    // A file renamed (or hash-collided) onto another identity's key must
    // not be served: its recorded key disagrees with the requested one.
    let other = TraceId {
        max_blocks: BUDGET + 1,
        ..id.clone()
    };
    std::fs::rename(store.path_for(&id), store.path_for(&other)).unwrap();
    match store.load(&other) {
        LoadOutcome::Reject(why) => assert!(why.contains("key"), "{why}"),
        got => panic!("expected a reject, got {got:?}"),
    }
}

#[test]
fn open_sweeps_orphaned_temp_files() {
    // A writer killed between write and rename leaves a .tmp- file nothing
    // will ever read or overwrite; the next open() clears it, and real
    // store files survive the sweep.
    let dir = tmp_dir("debris");
    {
        let store = TraceStore::open(&dir).unwrap();
        let (id, log) = captured_vadd();
        store.save(&id, &log).unwrap();
    }
    let orphan = dir.join(".tmp-deadbeef-1234-0");
    std::fs::write(&orphan, b"half a capture").unwrap();
    let store = TraceStore::open(&dir).unwrap();
    assert!(!orphan.exists(), "open must sweep temp debris");
    let (id, log) = captured_vadd();
    match store.load(&id) {
        LoadOutcome::Hit(back) => assert_eq!(*back, log),
        other => panic!("real store files must survive the sweep, got {other:?}"),
    }
}

#[test]
fn code_signature_moves_the_key() {
    // A store shared across builds (CI caches) must not serve a trace
    // captured from differently-compiled code: a changed code signature is
    // a different file name entirely, i.e. a clean miss, not a reject.
    let store = TraceStore::open(tmp_dir("codesig")).unwrap();
    let (id, log) = captured_vadd();
    store.save(&id, &log).unwrap();
    let other_build = TraceId {
        code_sig: id.code_sig ^ 1,
        ..id.clone()
    };
    assert_ne!(id.stable_hash(), other_build.stable_hash());
    assert!(matches!(store.load(&other_build), LoadOutcome::Miss));
    // And the signature itself is a pure function of the compiled program.
    let opts = CompileOptions::o1();
    let w = by_name("vadd").unwrap();
    let compile = || trips_compiler::compile(&(w.build)(Scale::Test), &opts).unwrap();
    assert_eq!(code_sig(&compile()), code_sig(&compile()));
}

#[test]
fn concurrent_writers_of_one_key_leave_one_complete_file() {
    let dir = tmp_dir("writers");
    let store = TraceStore::open(&dir).unwrap();
    let (id, log) = captured_vadd();
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let (store, id, log) = (&store, &id, &log);
            scope.spawn(move || store.save(id, log).unwrap());
        }
    });
    // All writers renamed complete files over each other; no temp debris.
    let entries: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(entries.len(), 1, "stray files: {entries:?}");
    assert!(entries[0].ends_with(".trace"));
    match store.load(&id) {
        LoadOutcome::Hit(back) => assert_eq!(*back, log),
        other => panic!("expected a hit, got {other:?}"),
    }
}

#[test]
fn concurrent_sessions_race_load_against_save_without_torn_reads() {
    // Two sessions over one directory, racing the same key from many
    // threads: every returned trace must be the real capture, whether it
    // came from a fresh capture, the in-memory tier, or a disk file that
    // was mid-replacement (rename makes replacement atomic).
    let dir = tmp_dir("race");
    let w = by_name("vadd").unwrap();
    let opts = CompileOptions::o1();
    let sessions: Vec<Session> = (0..2)
        .map(|_| Session::with_store(TraceStore::open(&dir).unwrap()))
        .collect();
    let logs: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let (sessions, w) = (&sessions, &w);
                let opts = opts.clone();
                scope.spawn(move || sessions[i % 2].trace(&stream(w, &opts)).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let (_, expect) = captured_vadd();
    for log in &logs {
        assert_eq!(**log, expect);
    }
    // Between the two sessions there was exactly one disk miss chain: each
    // session captured at most once, and at least one wrote the file.
    let total: u64 = sessions.iter().map(|s| s.cache_stats().captures).sum();
    assert!(
        (1..=2).contains(&total),
        "at most one capture per session, got {total}"
    );
}

#[test]
fn session_recovers_from_garbage_and_repopulates() {
    let dir = tmp_dir("recover");
    let (id, _) = captured_vadd();
    let store = TraceStore::open(&dir).unwrap();
    std::fs::write(store.path_for(&id), b"not a trace at all").unwrap();

    let session = Session::with_store(TraceStore::open(&dir).unwrap());
    let w = by_name("vadd").unwrap();
    let log = session.trace(&stream(&w, &CompileOptions::o1())).unwrap();
    let st = session.cache_stats();
    assert_eq!(
        (st.disk_rejects, st.captures, st.store_writes),
        (1, 1, 1),
        "garbage must reject, recapture, and repopulate"
    );
    // The repopulated file now serves a fresh session from disk.
    let session2 = Session::with_store(TraceStore::open(&dir).unwrap());
    let log2 = session2.trace(&stream(&w, &CompileOptions::o1())).unwrap();
    let st2 = session2.cache_stats();
    assert_eq!((st2.disk_hits, st2.captures), (1, 0));
    assert_eq!(*log, *log2);
}

#[test]
fn disk_tier_is_keyed_on_identity_not_name() {
    // Same workload, different budget: distinct keys, so the second request
    // must not be served the first capture.
    let dir = tmp_dir("identity");
    let w = by_name("vadd").unwrap();
    let session = Session::with_store(TraceStore::open(&dir).unwrap());
    let a = session.trace(&stream(&w, &CompileOptions::o1())).unwrap();
    let session2 = Session::with_store(TraceStore::open(&dir).unwrap());
    let b = session2
        .trace(&Stream {
            budget: BUDGET / 2,
            ..stream(&w, &CompileOptions::o1())
        })
        .unwrap();
    assert_eq!(session2.cache_stats().disk_hits, 0);
    assert_eq!(a.header.max_blocks, BUDGET);
    assert_eq!(b.header.max_blocks, BUDGET / 2);
}

#[test]
fn risc_containers_round_trip_and_reject_corruption() {
    let store = TraceStore::open(tmp_dir("risc-roundtrip")).unwrap();
    let (id, trace) = captured_vadd_risc();
    assert!(matches!(store.load_risc(&id), LoadOutcome::Miss));
    store.save_risc(&id, &trace).unwrap();
    match store.load_risc(&id) {
        LoadOutcome::Hit(back) => assert_eq!(*back, trace),
        other => panic!("expected a hit, got {other:?}"),
    }
    // Bit-flip the payload: the content hash must catch it.
    let path = store.path_for_risc(&id);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() - 8;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();
    match store.load_risc(&id) {
        LoadOutcome::Reject(why) => {
            assert!(why.contains("hash") || why.contains("decode"), "{why}");
            assert!(!path.exists(), "rejected file must be removed");
        }
        other => panic!("expected a reject, got {other:?}"),
    }
}

#[test]
fn container_kinds_are_not_interchangeable() {
    // A block-trace container renamed onto a RISC key (or vice versa) must
    // reject on the recorded kind, never deserialize as the wrong payload.
    let store = TraceStore::open(tmp_dir("kinds")).unwrap();
    let (block_id, log) = captured_vadd();
    let (risc_id, trace) = captured_vadd_risc();
    store.save(&block_id, &log).unwrap();
    std::fs::rename(store.path_for(&block_id), store.path_for_risc(&risc_id)).unwrap();
    match store.load_risc(&risc_id) {
        LoadOutcome::Reject(why) => assert!(why.contains("kind"), "{why}"),
        other => panic!("expected a reject, got {other:?}"),
    }
    store.save_risc(&risc_id, &trace).unwrap();
    std::fs::rename(store.path_for_risc(&risc_id), store.path_for(&block_id)).unwrap();
    match store.load(&block_id) {
        LoadOutcome::Reject(why) => assert!(why.contains("kind"), "{why}"),
        other => panic!("expected a reject, got {other:?}"),
    }
}

#[test]
fn stats_census_and_prune_remove_only_stale_containers() {
    let dir = tmp_dir("gc");
    let store = TraceStore::open(&dir).unwrap();
    let (block_id, log) = captured_vadd();
    let (risc_id, trace) = captured_vadd_risc();
    store.save(&block_id, &log).unwrap();
    store.save_risc(&risc_id, &trace).unwrap();
    let (bbv_id, art) = fitted_vadd_bbv(&block_id, &log);
    store.save_bbv(&bbv_id, &art).unwrap();
    let (lp_id, lp_set) = captured_vadd_livepoints(&block_id, &log, &art);
    store.save_livepoint(&lp_id, &lp_set).unwrap();
    // Two stale files: pure garbage, and a PR-2-era container layout
    // (store version 1, 32-byte header) that no current build can load.
    std::fs::write(dir.join("feedfeedfeedfeed.trace"), b"not a container").unwrap();
    let mut old = Vec::new();
    old.extend_from_slice(b"TRST");
    old.extend_from_slice(&1u32.to_le_bytes());
    old.extend_from_slice(&[0u8; 24]);
    old.extend_from_slice(b"payload");
    std::fs::write(dir.join("0123456789abcdef.trace"), &old).unwrap();
    // Non-container files in the directory are none of the store's
    // business.
    std::fs::write(dir.join("README"), b"hands off").unwrap();

    let s = store.stats().unwrap();
    assert_eq!(
        (
            s.containers,
            s.block_traces,
            s.risc_traces,
            s.bbv_plans,
            s.live_points,
            s.stale
        ),
        (6, 1, 1, 1, 1, 2),
        "{s:?}"
    );
    assert!(s.bytes > 0);

    let report = store.prune_stale().unwrap();
    assert_eq!(
        (report.scanned, report.removed, report.kept, report.orphaned),
        (6, 2, 4, 0),
        "{report:?}"
    );
    assert!(report.bytes_freed > 0);
    assert!(dir.join("README").exists());

    // The current-version containers still load after the sweep.
    assert!(matches!(store.load(&block_id), LoadOutcome::Hit(_)));
    assert!(matches!(store.load_risc(&risc_id), LoadOutcome::Hit(_)));
    assert!(matches!(store.load(&bbv_id), LoadOutcome::Hit(_)));
    assert!(matches!(store.load_livepoint(&lp_id), LoadOutcome::Hit(_)));
    let s = store.stats().unwrap();
    assert_eq!((s.containers, s.stale), (4, 0));
}

/// The fit parameters of [`fitted_vadd_bbv`].
fn vadd_fit_spec() -> PhaseSpec {
    PhaseSpec {
        interval: 8,
        warmup: 2,
        k: PhaseK::Auto,
        floor: 0,
        rep_span: 4,
        boundary: 1,
        tail: 1,
    }
}

/// A fitted phase artifact for the `vadd` capture plus its store identity.
fn fitted_vadd_bbv(
    block_id: &TraceId,
    log: &TraceLog,
) -> (BbvId, trips_engine::phase::PhaseArtifact) {
    let spec = vadd_fit_spec();
    let seed = block_id.fit_seed();
    let art = trips_engine::phase::trips_fit(log, &spec, seed);
    (
        BbvId {
            parent_key: seed,
            interval: spec.interval,
            warmup: spec.warmup,
            k_code: spec.k_code(),
            floor: spec.floor,
            rep_span: spec.rep_span,
            boundary: spec.boundary,
            tail: spec.tail,
        },
        art,
    )
}

#[test]
fn bbv_containers_round_trip_and_reject_corruption_and_kind_confusion() {
    let dir = tmp_dir("bbv");
    let store = TraceStore::open(&dir).unwrap();
    let (block_id, log) = captured_vadd();
    let (bbv_id, art) = fitted_vadd_bbv(&block_id, &log);
    store.save_bbv(&bbv_id, &art).unwrap();
    match store.load(&bbv_id) {
        LoadOutcome::Hit(back) => {
            assert_eq!(*back, art);
            back.validate(
                &PhaseSpec {
                    interval: 8,
                    warmup: 2,
                    k: PhaseK::Auto,
                    floor: 0,
                    rep_span: 4,
                    boundary: 1,
                    tail: 1,
                },
                log.seq.len() as u64,
            )
            .unwrap();
        }
        other => panic!("expected a hit, got {other:?}"),
    }
    // A different fit parameter is a different key: miss, not a stale hit.
    let other = BbvId {
        rep_span: 8,
        ..bbv_id
    };
    assert!(matches!(store.load(&other), LoadOutcome::Miss));
    // A block-trace container renamed onto the BBV key must reject — kind
    // confusion can never serve a wrong payload.
    store.save(&block_id, &log).unwrap();
    std::fs::copy(store.path_for(&block_id), store.path_for_bbv(&bbv_id)).unwrap();
    assert!(matches!(store.load(&bbv_id), LoadOutcome::Reject(_)));
    // The reject removed the impostor; a re-save restores service.
    store.save_bbv(&bbv_id, &art).unwrap();
    assert!(matches!(store.load(&bbv_id), LoadOutcome::Hit(_)));
    // Bit-flips in the payload fail the content hash.
    let path = store.path_for_bbv(&bbv_id);
    let mut bytes = std::fs::read(&path).unwrap();
    let at = bytes.len() - 3;
    bytes[at] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(store.load(&bbv_id), LoadOutcome::Reject(_)));
}

#[test]
fn risc_disk_tier_serves_a_fresh_session_without_execution() {
    let dir = tmp_dir("risc-tier");
    let w = by_name("vadd").unwrap();
    let opts = CompileOptions::gcc_ref();
    let session = Session::with_store(TraceStore::open(&dir).unwrap());
    let a = session.risc_trace(&stream(&w, &opts)).unwrap();
    let st = session.cache_stats();
    assert_eq!(
        (st.risc_captures, st.risc_store_writes, st.risc_disk_misses),
        (1, 1, 1),
        "{st:?}"
    );

    let session2 = Session::with_store(TraceStore::open(&dir).unwrap());
    let b = session2.risc_trace(&stream(&w, &opts)).unwrap();
    let st2 = session2.cache_stats();
    assert_eq!(
        (st2.risc_disk_hits, st2.risc_captures),
        (1, 0),
        "warm session must not execute: {st2:?}"
    );
    assert_eq!(
        *a, *b,
        "stream must survive the disk round trip bit-exactly"
    );
}

/// A real checkpoint capture over the `vadd` trace under its fitted plan,
/// plus the identity the engine would key it by.
fn captured_vadd_livepoints(
    block_id: &TraceId,
    log: &TraceLog,
    art: &trips_engine::phase::PhaseArtifact,
) -> (LivePointId, LivePointSet) {
    let opts = CompileOptions::o1();
    let w = by_name("vadd").unwrap();
    let compiled = trips_compiler::compile(&(w.build)(Scale::Test), &opts).unwrap();
    let cfg = trips_sim::TripsConfig::prototype();
    let (_, snaps) =
        trips_sim::timing::replay_trace_phased_capture(&compiled, &cfg, log, &art.plan).unwrap();
    assert_eq!(
        snaps.len(),
        art.plan.windows.len(),
        "one checkpoint per measured window"
    );
    let id = LivePointId {
        parent_key: block_id.stable_hash(),
        plan_sig: plan_sig(&art.plan),
        cfg_sig: trips_cfg_sig(&cfg),
        core: KIND_BLOCK_TRACE,
    };
    let set = LivePointSet {
        parent_key: id.parent_key,
        plan_sig: id.plan_sig,
        cfg_sig: id.cfg_sig,
        core: id.core,
        total_units: art.plan.total_units,
        states: LivePointStates::Trips(snaps),
    };
    (id, set)
}

#[test]
fn livepoint_containers_round_trip() {
    let store = TraceStore::open(tmp_dir("lp-roundtrip")).unwrap();
    let (block_id, log) = captured_vadd();
    let (_, art) = fitted_vadd_bbv(&block_id, &log);
    let (id, set) = captured_vadd_livepoints(&block_id, &log, &art);
    assert!(
        matches!(&set.states, LivePointStates::Trips(snaps) if !snaps.is_empty()),
        "the fitted plan must sample for the round trip to carry state"
    );
    assert!(matches!(store.load_livepoint(&id), LoadOutcome::Miss));
    store.save_livepoint(&id, &set).unwrap();
    match store.load_livepoint(&id) {
        LoadOutcome::Hit(back) => assert_eq!(*back, set),
        other => panic!("expected a hit, got {other:?}"),
    }
}

#[test]
fn livepoint_corruption_rejects_and_a_recapture_restores_service() {
    let store = TraceStore::open(tmp_dir("lp-corrupt")).unwrap();
    let (block_id, log) = captured_vadd();
    let (_, art) = fitted_vadd_bbv(&block_id, &log);
    let (id, set) = captured_vadd_livepoints(&block_id, &log, &art);
    store.save_livepoint(&id, &set).unwrap();
    let path = store.path_for_livepoint(&id);
    let full = std::fs::read(&path).unwrap();
    // Truncations at several depths — inside the header, right after it,
    // mid-payload — all reject and remove the file.
    for cut in [0, 7, 32, full.len() / 2, full.len() - 1] {
        std::fs::write(&path, &full[..cut]).unwrap();
        match store.load_livepoint(&id) {
            LoadOutcome::Reject(why) => {
                assert!(!path.exists(), "rejected file (cut={cut}) must be removed");
                assert!(
                    why.contains("truncated") || why.contains("decode") || why.contains("hash"),
                    "cut={cut}: {why}"
                );
            }
            other => panic!("cut at {cut}: expected a reject, got {other:?}"),
        }
    }
    // A mid-payload bit-flip fails the content hash.
    let mut bytes = full.clone();
    let mid = 32 + (bytes.len() - 32) / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();
    match store.load_livepoint(&id) {
        LoadOutcome::Reject(why) => assert!(why.contains("hash"), "{why}"),
        other => panic!("expected a reject, got {other:?}"),
    }
    // Reject-and-recapture: a fresh save restores service bit-exactly.
    store.save_livepoint(&id, &set).unwrap();
    match store.load_livepoint(&id) {
        LoadOutcome::Hit(back) => assert_eq!(*back, set),
        other => panic!("recapture must restore service, got {other:?}"),
    }
}

#[test]
fn livepoint_kind_confusion_rejects_in_both_directions() {
    // A trace or BBV container renamed onto a live-point key (or the
    // reverse) must reject on the recorded kind — machine state and
    // stream payloads can never masquerade as each other.
    let store = TraceStore::open(tmp_dir("lp-kinds")).unwrap();
    let (block_id, log) = captured_vadd();
    let (bbv_id, art) = fitted_vadd_bbv(&block_id, &log);
    let (id, set) = captured_vadd_livepoints(&block_id, &log, &art);
    store.save(&block_id, &log).unwrap();
    std::fs::copy(store.path_for(&block_id), store.path_for_livepoint(&id)).unwrap();
    match store.load_livepoint(&id) {
        LoadOutcome::Reject(why) => assert!(why.contains("kind"), "{why}"),
        other => panic!("expected a reject, got {other:?}"),
    }
    store.save_bbv(&bbv_id, &art).unwrap();
    std::fs::copy(store.path_for_bbv(&bbv_id), store.path_for_livepoint(&id)).unwrap();
    match store.load_livepoint(&id) {
        LoadOutcome::Reject(why) => assert!(why.contains("kind"), "{why}"),
        other => panic!("expected a reject, got {other:?}"),
    }
    store.save_livepoint(&id, &set).unwrap();
    std::fs::copy(store.path_for_livepoint(&id), store.path_for_bbv(&bbv_id)).unwrap();
    match store.load(&bbv_id) {
        LoadOutcome::Reject(why) => assert!(why.contains("kind"), "{why}"),
        other => panic!("expected a reject, got {other:?}"),
    }
}

#[test]
fn livepoint_identity_moves_the_key_and_renames_reject() {
    let store = TraceStore::open(tmp_dir("lp-identity")).unwrap();
    let (block_id, log) = captured_vadd();
    let (_, art) = fitted_vadd_bbv(&block_id, &log);
    let (id, set) = captured_vadd_livepoints(&block_id, &log, &art);
    store.save_livepoint(&id, &set).unwrap();
    // A different timing configuration is a different file name entirely:
    // a clean miss, not a stale hit.
    let other = LivePointId {
        cfg_sig: id.cfg_sig ^ 1,
        ..id
    };
    assert_ne!(id.stable_hash(), other.stable_hash());
    assert!(matches!(store.load_livepoint(&other), LoadOutcome::Miss));
    // Renamed onto that key, the container's recorded key disagrees with
    // the requested one: reject, never a foreign machine state. (Behind
    // that check the payload's embedded identity guards the same line via
    // `LivePointSet::matches_id`.)
    std::fs::rename(
        store.path_for_livepoint(&id),
        store.path_for_livepoint(&other),
    )
    .unwrap();
    match store.load_livepoint(&other) {
        LoadOutcome::Reject(why) => assert!(why.contains("key"), "{why}"),
        other => panic!("expected a reject, got {other:?}"),
    }
}

#[test]
fn concurrent_livepoint_writers_leave_one_complete_file() {
    let dir = tmp_dir("lp-writers");
    let store = TraceStore::open(&dir).unwrap();
    let (block_id, log) = captured_vadd();
    let (_, art) = fitted_vadd_bbv(&block_id, &log);
    let (id, set) = captured_vadd_livepoints(&block_id, &log, &art);
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let (store, id, set) = (&store, &id, &set);
            scope.spawn(move || store.save_livepoint(id, set).unwrap());
        }
    });
    let entries: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(entries.len(), 1, "stray files: {entries:?}");
    match store.load_livepoint(&id) {
        LoadOutcome::Hit(back) => assert_eq!(*back, set),
        other => panic!("expected a hit, got {other:?}"),
    }
}

#[test]
fn prune_collects_orphaned_livepoints() {
    let dir = tmp_dir("lp-orphan");
    let store = TraceStore::open(&dir).unwrap();
    let (block_id, log) = captured_vadd();
    let (bbv_id, art) = fitted_vadd_bbv(&block_id, &log);
    let (id, set) = captured_vadd_livepoints(&block_id, &log, &art);
    store.save(&block_id, &log).unwrap();
    store.save_bbv(&bbv_id, &art).unwrap();
    store.save_livepoint(&id, &set).unwrap();
    // Fully parented — trace present, plan derivable — so the prune keeps
    // everything.
    let report = store.prune_stale().unwrap();
    assert_eq!(
        (report.removed, report.orphaned, report.kept),
        (0, 0, 3),
        "{report:?}"
    );
    // Parent stream gone: the set's key will never be asked for again.
    std::fs::remove_file(store.path_for(&block_id)).unwrap();
    let report = store.prune_stale().unwrap();
    assert_eq!((report.removed, report.orphaned), (1, 1), "{report:?}");
    assert!(matches!(store.load_livepoint(&id), LoadOutcome::Miss));
    // Changed fit parameters: a plan signature no current artifact in the
    // store produces is equally unreachable.
    store.save(&block_id, &log).unwrap();
    let foreign_id = LivePointId {
        plan_sig: id.plan_sig ^ 1,
        ..id
    };
    let foreign_set = LivePointSet {
        plan_sig: set.plan_sig ^ 1,
        ..set.clone()
    };
    store.save_livepoint(&foreign_id, &foreign_set).unwrap();
    let report = store.prune_stale().unwrap();
    assert_eq!((report.removed, report.orphaned), (1, 1), "{report:?}");
}

#[test]
fn warm_store_serves_livepoints_to_a_fresh_session_without_rewarming() {
    // The two-process contract, at the session level: a second session
    // over a warm store must restore checkpoints from disk and replay
    // only the measured windows — zero captures, zero re-warming of the
    // stream prefix — and still produce the bit-identical result.
    let dir = tmp_dir("lp-warm");
    let w = by_name("vadd").unwrap();
    let opts = CompileOptions::o1();
    let spec = PhaseSpec {
        interval: 8,
        warmup: 4,
        k: PhaseK::Auto,
        floor: 0,
        rep_span: 4,
        boundary: 1,
        tail: 1,
    };
    let cfg = trips_sim::TripsConfig::prototype();
    let run = |dir: &Path| {
        let s = Session::with_store(TraceStore::open(dir).unwrap());
        let plan = s.trips_phase_plan(&stream(&w, &opts), &spec).unwrap();
        assert!(!plan.covers_everything());
        let mode = ReplayMode::Phased((*plan).clone());
        let res = s
            .replayed(&stream(&w, &opts), &cfg, &mode, Some(2))
            .unwrap();
        (res, s.cache_stats())
    };
    let (a, st) = run(&dir);
    assert_eq!(
        (
            st.livepoint_captures,
            st.livepoint_disk_misses,
            st.livepoint_store_writes
        ),
        (1, 1, 1),
        "cold store must capture once and persist: {st:?}"
    );
    let (b, st2) = run(&dir);
    assert_eq!(
        (st2.livepoint_disk_hits, st2.livepoint_captures),
        (1, 0),
        "warm store must re-warm nothing: {st2:?}"
    );
    assert_eq!(
        a.stats, b.stats,
        "disk-restored replay must be bit-identical"
    );
    assert_eq!(a.return_value, b.return_value);
}

/// Plants a container that verifies but fails its tier's deep validation
/// (at `path`), then checks the tier end to end: a fresh session rejects
/// it once, quarantines it with its evidence and a reason, produces the
/// artifact afresh and writes it back; a second fresh session then hits
/// on disk. `tier` reads the tier's `(disk_rejects, captures,
/// store_writes, disk_hits)`.
fn assert_deep_reject(
    dir: &Path,
    path: &Path,
    resolve: impl Fn(&Session),
    tier: impl Fn(&CacheStats) -> (u64, u64, u64, u64),
) {
    let planted = std::fs::read(path).unwrap();
    let s = Session::with_store(TraceStore::open(dir).unwrap());
    resolve(&s);
    let st = s.cache_stats();
    let (rejects, captures, writes, _) = tier(&st);
    assert_eq!(
        (rejects, captures, writes),
        (1, 1, 1),
        "deep reject must quarantine, produce and repopulate: {st:?}"
    );
    let name = path.file_name().unwrap().to_string_lossy().into_owned();
    let qdir = dir.join("quarantine");
    assert_eq!(
        std::fs::read(qdir.join(&name)).unwrap(),
        planted,
        "quarantine must preserve the evidence, never unlink it"
    );
    let reason = std::fs::read_to_string(qdir.join(format!("{name}.reason"))).unwrap();
    assert!(reason.contains("deep validation failed"), "{reason}");

    let s2 = Session::with_store(TraceStore::open(dir).unwrap());
    resolve(&s2);
    let st2 = s2.cache_stats();
    let (_, captures, _, hits) = tier(&st2);
    assert_eq!(
        (hits, captures),
        (1, 0),
        "repopulated key must hit: {st2:?}"
    );
}

#[test]
fn deep_validation_rejects_on_every_disk_tier() {
    let w = by_name("vadd").unwrap();
    let opts = CompileOptions::o1();
    let (block_id, log) = captured_vadd();

    // Block trace: a `seq` entry naming a block the program lacks.
    let dir = tmp_dir("deep-trace");
    let store = TraceStore::open(&dir).unwrap();
    let mut bad = log.clone();
    bad.seq[0].0 = u32::MAX;
    store.save(&block_id, &bad).unwrap();
    assert_deep_reject(
        &dir,
        &store.path_for(&block_id),
        |s| {
            s.trace(&stream(&w, &opts)).unwrap();
        },
        |st| (st.disk_rejects, st.captures, st.store_writes, st.disk_hits),
    );

    // RISC stream: one recorded memory address too few, so the stream
    // walk runs dry.
    let dir = tmp_dir("deep-risc");
    let store = TraceStore::open(&dir).unwrap();
    let (risc_id, mut trace) = captured_vadd_risc();
    trace.mems.pop().unwrap();
    trace.header.mem_count -= 1;
    store.save(&risc_id, &trace).unwrap();
    assert_deep_reject(
        &dir,
        &store.path_for(&risc_id),
        |s| {
            s.risc_trace(&stream(&w, &CompileOptions::gcc_ref()))
                .unwrap();
        },
        |st| {
            (
                st.risc_disk_rejects,
                st.risc_captures,
                st.risc_store_writes,
                st.risc_disk_hits,
            )
        },
    );

    // Phase artifact: fitted to a shorter stream than the one it keys.
    let dir = tmp_dir("deep-bbv");
    let store = TraceStore::open(&dir).unwrap();
    let mut short = log.clone();
    short.seq.truncate(log.seq.len() / 2);
    let (bbv_id, art) = fitted_vadd_bbv(&block_id, &short);
    store.save(&bbv_id, &art).unwrap();
    let spec = vadd_fit_spec();
    assert_deep_reject(
        &dir,
        &store.path_for(&bbv_id),
        |s| {
            s.trips_phase_plan(&stream(&w, &opts), &spec).unwrap();
        },
        |st| {
            (
                st.phase_disk_rejects,
                st.phase_fits,
                st.phase_store_writes,
                st.phase_disk_hits,
            )
        },
    );

    // Live-point set: one window too few for the plan.
    let dir = tmp_dir("deep-lp");
    let store = TraceStore::open(&dir).unwrap();
    let (_, art) = fitted_vadd_bbv(&block_id, &log);
    let (lp_id, mut set) = captured_vadd_livepoints(&block_id, &log, &art);
    match &mut set.states {
        LivePointStates::Trips(snaps) => snaps.pop().unwrap(),
        LivePointStates::Ooo(_) => unreachable!("a TRIPS capture"),
    };
    store.save(&lp_id, &set).unwrap();
    let cfg = trips_sim::TripsConfig::prototype();
    assert_deep_reject(
        &dir,
        &store.path_for(&lp_id),
        |s| {
            let plan = s.trips_phase_plan(&stream(&w, &opts), &spec).unwrap();
            assert!(!plan.covers_everything());
            let mode = ReplayMode::Phased((*plan).clone());
            s.replayed(&stream(&w, &opts), &cfg, &mode, Some(2))
                .unwrap();
        },
        |st| {
            (
                st.livepoint_disk_rejects,
                st.livepoint_captures,
                st.livepoint_store_writes,
                st.livepoint_disk_hits,
            )
        },
    );
}
