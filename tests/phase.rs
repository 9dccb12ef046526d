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
//! * **Accuracy** — phase-classified estimates stay within the larger of
//!   the systematic-plan error and the 1% target band, at (on the
//!   largest workload) ≥ 2× fewer detailed units (the full-set gate runs
//!   in the `sampled-accuracy` CI job; see the `#[ignore]`d test).

use proptest::prelude::*;
use trips::engine::{PhaseK, PhaseSpec, ReplayMode, Session, TraceStore};
use trips::phase::fit_plan;
use trips::workloads::{by_name, Scale};
use trips::{compiler::CompileOptions, ooo, sim};

const MEM: usize = 1 << 20;

/// A test-local phase spec small enough to classify test-scale streams.
fn tiny_spec(k: PhaseK) -> PhaseSpec {
    PhaseSpec {
        interval: 8,
        warmup: 4,
        k,
        floor: 0,
        rep_span: 4,
        boundary: 1,
        tail: 1,
    }
}

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

#[test]
fn covering_phase_plan_is_bit_identical_on_every_backend() {
    let w = by_name("autocor").unwrap();
    let session = Session::new();
    // k far past any interval count: the fitted plan covers everything
    // and must normalize to the bit-exact full path.
    let spec = tiny_spec(PhaseK::K(100_000));

    // TRIPS block-trace replay.
    let compiled = session
        .compiled(&w, Scale::Test, &CompileOptions::o2(), false)
        .unwrap();
    let log = session
        .trace(
            &w,
            Scale::Test,
            &CompileOptions::o2(),
            false,
            MEM,
            1_000_000,
        )
        .unwrap();
    let plan = session
        .trips_phase_plan(
            &w,
            Scale::Test,
            &CompileOptions::o2(),
            false,
            MEM,
            1_000_000,
            &spec,
        )
        .unwrap();
    assert!(plan.covers_everything());
    let mode = ReplayMode::Phased((*plan).clone());
    assert!(mode.phase().is_none());
    let cfg = sim::TripsConfig::prototype();
    let full = sim::replay_trace_mode(&compiled, &cfg, &log, &ReplayMode::Full).unwrap();
    let covered = sim::replay_trace_mode(&compiled, &cfg, &log, &mode).unwrap();
    assert_eq!(covered.stats, full.stats, "trips must be bit-identical");
    assert!(!covered.stats.sampled);

    // All three OoO reference platforms over the recorded RISC stream.
    let art = session
        .risc_program(&w, Scale::Test, &CompileOptions::gcc_ref())
        .unwrap();
    let stream = session
        .risc_trace(
            &w,
            Scale::Test,
            &CompileOptions::gcc_ref(),
            MEM,
            400_000_000,
        )
        .unwrap();
    let spec = PhaseSpec {
        interval: 64,
        ..tiny_spec(PhaseK::K(100_000))
    };
    let plan = session
        .ooo_phase_plan(
            &w,
            Scale::Test,
            &CompileOptions::gcc_ref(),
            MEM,
            400_000_000,
            &spec,
        )
        .unwrap();
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
    let compiled = session
        .compiled(&w, Scale::Test, &CompileOptions::o1(), false)
        .unwrap();
    let log = session
        .trace(
            &w,
            Scale::Test,
            &CompileOptions::o1(),
            false,
            MEM,
            1_000_000,
        )
        .unwrap();
    let plan = session
        .trips_phase_plan(
            &w,
            Scale::Test,
            &CompileOptions::o1(),
            false,
            MEM,
            1_000_000,
            &tiny_spec(PhaseK::Auto),
        )
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
    let spec = tiny_spec(PhaseK::Auto);
    let fit = |session: &Session| {
        session
            .trips_phase_plan(
                &w,
                Scale::Test,
                &CompileOptions::o2(),
                false,
                MEM,
                1_000_000,
                &spec,
            )
            .unwrap()
    };

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
        &["autocor", "routelookup", "vadd"].map(|n| by_name(n).unwrap()),
        Scale::Ref,
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
    let rows = trips::experiments::runner::phase_accuracy(&ws, Scale::Ref);
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
