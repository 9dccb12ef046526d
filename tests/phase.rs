//! Phase-classified sampling invariants, end to end:
//!
//! * **Weight conservation** — property test: for arbitrary synthetic
//!   streams, specs and k choices, a fitted plan's cluster-population
//!   weights sum to exactly the stream's total units, windows are
//!   ordered and disjoint, and the fit is byte-identical across runs.
//! * **Covering degeneracy** — a plan with k ≥ the interval count
//!   measures everything, normalizes to [`ReplayMode::Full`], and is
//!   *bit-identical* to full replay on all four timing backends (TRIPS
//!   and the three OoO reference platforms).
//! * **Determinism + persistence** — the same trace key produces the
//!   byte-identical plan in independent sessions, and a session backed by
//!   a warm trace store serves the fitted plan from disk with **zero**
//!   re-clustering.
//! * **Signature features** — the one extractor counts `(block, path)`
//!   keys on a TRIPS stream, so shapes that differ only in their
//!   addresses are one key, and control destinations plus pages on a
//!   RISC stream, with one first-touch novelty feature on both.
//! * **Accuracy** — phase-classified estimates stay within the larger of
//!   the systematic-plan error and the 1% target band, at (on the
//!   largest workload) ≥ 2× fewer detailed units (the full-set gate runs
//!   in the `sampled-accuracy` CI job; see the `#[ignore]`d test).

mod common;

use common::tiny_spec;
use proptest::prelude::*;
use trips::engine::{
    run_sweep, BackendSpec, ConfigVariant, PhaseK, PhaseSpec, ReplayMode, SamplePlan, Session,
    Stream, SweepRow, SweepSpec, TraceStore,
};
use trips::experiments::Run;
use trips::isa::trace::MemIndex;
use trips::phase::{fit_plan, risc_features, trips_features, NOVELTY};
use trips::workloads::{by_name, Scale};
use trips::{compiler::CompileOptions, ooo, sim};

const MEM: usize = 1 << 20;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn fitted_plan_weights_sum_to_the_stream(
        intervals in 1usize..40,
        short_last in 0u64..10,
        phases in 1u64..5,
        k_raw in 0u32..20,
        seed in 0u64..1_000_000,
    ) {
        // Synthetic per-interval features: `phases` alternating behaviors.
        let features: Vec<Vec<(u64, u32)>> = (0..intervals)
            .map(|i| {
                let p = (i as u64) % phases;
                vec![(p * 100, 9), (p * 100 + 1, 1)]
            })
            .collect();
        let interval = 10u64;
        let total = interval * (intervals as u64) - short_last.min(interval - 1);
        let spec = PhaseSpec {
            interval,
            warmup: 3,
            k: if k_raw == 0 { PhaseK::Auto } else { PhaseK::K(k_raw) },
            floor: 0,
            rep_span: 3,
            boundary: 2,
            tail: 1,
        };
        let plan = fit_plan(&features, total, &spec, seed);
        // validate() checks ordering, disjointness, containment, and that
        // the weights sum to exactly the stream extent.
        prop_assert_eq!(plan.validate(), Ok(()));
        prop_assert_eq!(plan.total_units, total);
        prop_assert_eq!(plan.assignments.len(), intervals);
        // The fit is a pure function of (features, spec, seed).
        let again = fit_plan(&features, total, &spec, seed);
        prop_assert_eq!(
            serde::bin::to_bytes(&plan),
            serde::bin::to_bytes(&again),
            "fits must be byte-identical"
        );
        // k at or past the interior count must measure everything.
        if let PhaseK::K(k) = spec.k {
            if k as usize >= intervals {
                prop_assert!(plan.covers_everything());
            }
        }
    }
}

/// Distinct 64 B lines among `addrs`: what the novelty features of a
/// whole stream must sum to.
fn lines(addrs: impl IntoIterator<Item = u64>) -> u32 {
    let lines: std::collections::HashSet<u64> = addrs.into_iter().map(|a| a >> 6).collect();
    lines.len() as u32
}

/// A TRIPS log over two paths of a real Test-scale capture, path 0 with
/// memory operations and path 1 without, and the addresses of path 0's
/// first execution there. The stream and its address run are left empty.
fn two_path_log() -> (trips::isa::TraceLog, Vec<u64>) {
    let w = by_name("autocor").unwrap();
    let stream = Stream::new(&w, Scale::Test, CompileOptions::o2(), MEM, 1_000_000);
    let mut log = (*Session::new().trace(&stream).unwrap()).clone();
    let mems = MemIndex::new(&log.shapes);
    let taken = |p: usize| mems.path(p as u32).unwrap().len();
    let a = (0..log.shapes.len()).find(|&p| taken(p) > 0).unwrap();
    let b = (0..log.shapes.len()).find(|&p| taken(p) == 0).unwrap();
    let first = log.seq.iter().position(|s| s.1 as usize == a).unwrap();
    let at = mems.addrs_taken(&log.seq[..first]).unwrap();
    let addrs = log.addrs[at..at + taken(a)].to_vec();
    log.shapes = vec![log.shapes[a].clone(), log.shapes[b].clone()];
    log.seq.clear();
    log.addrs.clear();
    (log, addrs)
}

#[test]
fn trips_features_census_the_stream_by_path() {
    let (mut log, a) = two_path_log();
    log.seq = vec![(0, 0), (0, 0), (0, 1), (1, 1), (0, 0), (1, 1), (1, 1)];
    log.addrs = a.repeat(3);
    let touched = lines(a.iter().copied());
    let bbvs = trips_features(&log, 4);
    assert_eq!(bbvs.len(), 2, "7 blocks at interval 4 = 2 intervals");
    // Key = block << 32 | path. Only the first interval touches lines
    // no earlier interval touched.
    assert_eq!(
        bbvs[0],
        vec![(0, 2), (1, 1), ((1 << 32) | 1, 1), (NOVELTY, touched)]
    );
    assert_eq!(bbvs[1], vec![(0, 1), ((1 << 32) | 1, 2)]);
    // The extraction is a pure function of the stream, and one long
    // interval covers it.
    assert_eq!(bbvs, trips_features(&log, 4));
    let whole = trips_features(&log, 100);
    assert_eq!(whole.len(), 1);
    assert_eq!(whole[0].iter().map(|f| f.1).sum::<u32>(), 7 + touched);
}

/// Executions of one path whose addresses differ, here by 1 MiB, are one
/// key: only first-touch novelty sees the addresses.
#[test]
fn trips_shapes_differing_only_in_addresses_are_one_key() {
    let (mut log, a) = two_path_log();
    let moved: Vec<u64> = a.iter().map(|addr| addr + (1 << 20)).collect();
    log.seq = vec![(0, 0); 4];
    log.addrs = [&a[..], &moved, &a, &moved].concat();
    let touched = lines(a.iter().chain(&moved).copied());
    assert_eq!(
        touched,
        2 * lines(a.iter().copied()),
        "the moved addresses touch new lines"
    );
    assert_eq!(
        trips_features(&log, 4),
        vec![vec![(0, 4), (NOVELTY, touched)]]
    );
}

#[test]
fn risc_features_count_control_destinations_and_pages() {
    let w = by_name("autocor").unwrap();
    let session = Session::new();
    let stream = Stream::new(&w, Scale::Test, CompileOptions::gcc_ref(), MEM, 400_000_000);
    let rp = &session.risc_program(&stream).unwrap().program;
    let trace = session.risc_trace(&stream).unwrap();
    let total = trace.header.dynamic_insts;
    let bbvs = risc_features(&trace, rp, 16).unwrap();
    assert_eq!(bbvs.len() as u64, total.div_ceil(16));
    let sum = |pick: &dyn Fn(u64) -> bool| -> u64 {
        let all = bbvs.iter().flatten();
        all.filter(|f| pick(f.0)).map(|f| u64::from(f.1)).sum()
    };
    // Every memory access counts one page (top bit set), every line is
    // novel once, and each control instruction counts one destination.
    assert_eq!(sum(&|id| id >> 63 == 1), trace.mems.len() as u64);
    assert_eq!(
        sum(&|id| id == NOVELTY),
        u64::from(lines(trace.mems.iter().copied()))
    );
    let dests = sum(&|id| id < NOVELTY);
    assert!(dests > 0 && dests <= total);
    // Deterministic, and one big interval covers the whole stream.
    assert_eq!(bbvs, risc_features(&trace, rp, 16).unwrap());
    let whole = risc_features(&trace, rp, total).unwrap();
    assert_eq!(whole.len(), 1);
    assert_eq!(
        whole[0].iter().map(|f| u64::from(f.1)).sum::<u64>(),
        sum(&|_| true)
    );
    // A corrupt stream surfaces the same errors replay would.
    let mut bad = (*trace).clone();
    bad.conds[0] ^= 1;
    assert!(risc_features(&bad, rp, 16).is_err());
}

#[test]
fn covering_phase_plan_is_bit_identical_on_every_backend() {
    let w = by_name("autocor").unwrap();
    let session = Session::new();
    // k far past any interval count: the fitted plan covers everything
    // and must normalize to the bit-exact full path.
    let spec = tiny_spec(PhaseK::K(100_000));

    // TRIPS block-trace replay.
    let trips = Stream::new(&w, Scale::Test, CompileOptions::o2(), MEM, 1_000_000);
    let compiled = session.compiled(&trips).unwrap();
    let log = session.trace(&trips).unwrap();
    let plan = session.trips_phase_plan(&trips, &spec).unwrap();
    assert!(plan.covers_everything());
    let mode = ReplayMode::Phased((*plan).clone());
    assert!(mode.phase().is_none());
    let cfg = sim::TripsConfig::prototype();
    let full = sim::replay_trace_mode(&compiled, &cfg, &log, &ReplayMode::Full).unwrap();
    let covered = sim::replay_trace_mode(&compiled, &cfg, &log, &mode).unwrap();
    assert_eq!(covered.stats, full.stats, "trips must be bit-identical");
    assert!(!covered.stats.sampled);

    // All three OoO reference platforms over the recorded RISC stream.
    let risc = Stream::new(&w, Scale::Test, CompileOptions::gcc_ref(), MEM, 400_000_000);
    let art = session.risc_program(&risc).unwrap();
    let stream = session.risc_trace(&risc).unwrap();
    let spec = PhaseSpec {
        interval: 64,
        ..tiny_spec(PhaseK::K(100_000))
    };
    let plan = session.ooo_phase_plan(&risc, &spec).unwrap();
    assert!(plan.covers_everything());
    let mode = ReplayMode::Phased((*plan).clone());
    for ocfg in [ooo::core2(), ooo::pentium4(), ooo::pentium3()] {
        let full =
            ooo::run_timed_trace_mode(&art.program, &stream, &ocfg, &ReplayMode::Full).unwrap();
        let covered = ooo::run_timed_trace_mode(&art.program, &stream, &ocfg, &mode).unwrap();
        assert_eq!(
            covered.stats, full.stats,
            "{} must be bit-identical",
            ocfg.name
        );
    }
}

#[test]
fn phased_replay_rejects_a_foreign_stream_length() {
    let w = by_name("vadd").unwrap();
    let session = Session::new();
    // o1 keeps the stream ~170 blocks: at interval 8 the ~19 interior
    // intervals exceed the auto sweep's k cap, so the plan never covers.
    let trips = Stream::new(&w, Scale::Test, CompileOptions::o1(), MEM, 1_000_000);
    let compiled = session.compiled(&trips).unwrap();
    let log = session.trace(&trips).unwrap();
    let plan = session
        .trips_phase_plan(&trips, &tiny_spec(PhaseK::Auto))
        .unwrap();
    assert!(!plan.covers_everything(), "stream long enough to classify");
    let mut foreign = (*plan).clone();
    foreign.total_units += 1;
    // Weights no longer match the stream: the replay must refuse rather
    // than silently misweight every cluster.
    let err = sim::replay_trace_mode(
        &compiled,
        &sim::TripsConfig::prototype(),
        &log,
        &ReplayMode::Phased(foreign),
    );
    assert!(err.is_err(), "foreign-length phase plan must be rejected");
}

#[test]
fn warm_store_serves_fitted_plans_with_zero_reclustering() {
    let dir = std::env::temp_dir().join(format!(
        "trips-phase-store-{}-{:x}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    let w = by_name("vadd").unwrap();
    let trips = Stream::new(&w, Scale::Test, CompileOptions::o2(), MEM, 1_000_000);
    let spec = tiny_spec(PhaseK::Auto);
    let fit = |session: &Session| session.trips_phase_plan(&trips, &spec).unwrap();

    // Process A: fits and persists.
    let a = Session::with_store(TraceStore::open(&dir).unwrap());
    let plan_a = fit(&a);
    let stats_a = a.cache_stats();
    assert_eq!(stats_a.phase_fits, 1, "cold store must cluster once");
    assert_eq!(stats_a.phase_store_writes, 1, "fit must persist");

    // Process B (fresh session, same store): the stored artifact stands
    // in for the clustering entirely, and the plan is byte-identical.
    let b = Session::with_store(TraceStore::open(&dir).unwrap());
    let plan_b = fit(&b);
    let stats_b = b.cache_stats();
    assert_eq!(stats_b.phase_fits, 0, "warm store must not re-cluster");
    assert_eq!(stats_b.phase_disk_hits, 1, "{stats_b:?}");
    assert_eq!(
        serde::bin::to_bytes(&*plan_a),
        serde::bin::to_bytes(&*plan_b),
        "same trace key must yield the byte-identical plan across sessions"
    );

    // An independent cold session re-derives the same bytes from scratch
    // (determinism does not depend on the store).
    let c = Session::new();
    let plan_c = fit(&c);
    assert_eq!(c.cache_stats().phase_fits, 1);
    assert_eq!(
        serde::bin::to_bytes(&*plan_a),
        serde::bin::to_bytes(&*plan_c)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fast subset of the phase gate that runs under tier-1 `cargo test`:
/// three Ref-scale workloads, both backends, the documented bound.
#[test]
fn phase_accuracy_tracks_full_replay_on_ref_workloads() {
    let rows = trips::experiments::runner::phase_accuracy(
        &Run::new(&Session::new(), Scale::Ref),
        &["autocor", "routelookup", "vadd"].map(|n| by_name(n).unwrap()),
    );
    assert_eq!(rows.len(), 6);
    for r in &rows {
        assert!(
            r.phase_err <= r.phase_err_bound(),
            "{}/{}: phase {:.2}% vs systematic {:.2}% (bound {:.2}%)",
            r.workload,
            r.backend,
            r.phase_err * 100.0,
            r.sys_err * 100.0,
            r.phase_err_bound() * 100.0
        );
    }
}

/// The full phase gate (every simple benchmark plus the two largest
/// bundled streams) at Ref scale: per-workload phase error within the
/// larger of the systematic-plan error and 1%, and on `bzip2` — the
/// workload whose phase repetition the tentpole targets — at least 2×
/// fewer detailed units than the systematic plan on *both* timing
/// backends. Run by the `sampled-accuracy` CI job in release.
#[test]
#[ignore = "release-built CI gate (slow under the debug profile)"]
fn phase_accuracy_gate_full_set() {
    let mut ws = trips::workloads::simple();
    ws.push(by_name("bzip2").unwrap());
    ws.push(by_name("equake").unwrap());
    let rows =
        trips::experiments::runner::phase_accuracy(&Run::new(&Session::new(), Scale::Ref), &ws);
    for r in &rows {
        assert!(
            r.phase_err <= r.phase_err_bound(),
            "{}/{}: phase {:.2}% vs systematic {:.2}% (bound {:.2}%)",
            r.workload,
            r.backend,
            r.phase_err * 100.0,
            r.sys_err * 100.0,
            r.phase_err_bound() * 100.0
        );
    }
    for backend in ["trips", "core2"] {
        let r = rows
            .iter()
            .find(|r| r.workload == "bzip2" && r.backend == backend)
            .expect("bzip2 row present");
        assert!(
            r.k > 0 && r.phase_detailed > 0,
            "bzip2/{backend} must actually classify"
        );
        assert!(
            r.phase_detailed * 2 <= r.sys_detailed,
            "bzip2/{backend}: phase plan must halve the detailed units \
             ({} vs systematic {})",
            r.phase_detailed,
            r.sys_detailed
        );
    }
    // The assignment CSV renders one line per classification interval.
    let csv = trips::experiments::runner::phase_assignment_csv(&rows);
    let intervals: usize = rows.iter().map(|r| r.plan.assignments.len()).sum();
    assert_eq!(csv.lines().count(), intervals + 1);
}

/// The phase gate through the sweep engine, over every workload at Ref
/// scale on TRIPS, on the prototype and on it with 3x DRAM latency: each
/// row's phased cycle estimate is within the larger of the systematic
/// (`--sample 16,48,128`) error and 1% of full replay. A signature that
/// mistakes addresses for behavior picks representatives whose memory
/// cost is off, which the slower DRAM magnifies. Run by the
/// `sampled-accuracy` CI job in release.
#[test]
#[ignore = "release-built CI gate (slow under the debug profile)"]
fn phase_gate_holds_on_every_workload_and_dram_latency() {
    let session = Session::new();
    let prototype = ConfigVariant::prototype();
    let mut configs = ConfigVariant::axis(&prototype.cfg, "dram_lat", &["240"]).unwrap();
    configs.insert(0, prototype);
    let full = SweepSpec {
        workloads: trips::workloads::all()
            .iter()
            .map(|w| w.name.to_string())
            .collect(),
        scale: Scale::Ref,
        configs,
        backends: vec![BackendSpec::Trips],
        ..SweepSpec::default()
    };
    let sys = SweepSpec {
        sample: Some(SamplePlan::new(16, 48, 128).unwrap()),
        ..full.clone()
    };
    let phased = SweepSpec {
        phase: Some(PhaseK::Auto),
        ..full.clone()
    };
    let [full, sys, phased] = [full, sys, phased].map(|spec| run_sweep(&spec, &session).unwrap());
    let mut misses = Vec::new();
    for ((f, s), p) in full.rows.iter().zip(&sys.rows).zip(&phased.rows) {
        assert_eq!((&p.workload, &p.config), (&f.workload, &f.config));
        assert!([f, s, p].iter().all(|r| r.status == "ok"), "{p:?}");
        let err = |r: &SweepRow| r.est_cycles.abs_diff(f.cycles) as f64 / f.cycles as f64;
        if err(p) > err(s).max(0.01) {
            misses.push(format!(
                "{}/{}: phase {:.2}% (k={}) vs systematic {:.2}%",
                p.workload,
                p.config,
                err(p) * 100.0,
                p.phase_k,
                err(s) * 100.0
            ));
        }
    }
    assert_eq!(full.rows.len(), 2 * trips::workloads::all().len());
    assert!(misses.is_empty(), "{}", misses.join("\n"));
}
