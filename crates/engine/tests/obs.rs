//! Observability must be invisible in the measurements: an instrumented
//! sweep and a bare one produce byte-identical deterministic columns, and
//! the spans/metrics/cost the instrumented run emits must be coherent.
//!
//! Everything lives in one `#[test]` because the span sink is
//! process-global: the bare sweep has to run before `enable_trace`.

use std::path::PathBuf;

use trips_engine::sweep::to_csv;
use trips_engine::{run_sweep, ConfigVariant, PhaseK, Session, SweepSpec, TraceStore};
use trips_workloads::Scale;

/// CSV rows truncated to the 15 deterministic columns (through `status`;
/// wall_ms and the RowCost columns after it are timing-dependent).
fn stable_rows(csv: &str) -> Vec<String> {
    csv.lines()
        .skip(1)
        .map(|l| l.split(',').take(15).collect::<Vec<_>>().join(","))
        .collect()
}

fn spec() -> SweepSpec {
    SweepSpec {
        workloads: vec!["vadd".into()],
        threads: 2,
        ..SweepSpec::default()
    }
}

/// `conv` at Ref scale is the smallest bundled stream whose TRIPS phase
/// plan classifies, so its live-point rows replay restored windows.
fn live_spec() -> SweepSpec {
    SweepSpec {
        workloads: vec!["conv".into()],
        scale: Scale::Ref,
        configs: vec![ConfigVariant::prototype()],
        phase: Some(PhaseK::Auto),
        live_points: true,
        threads: 2,
        ..SweepSpec::default()
    }
}

#[test]
fn obs_is_invisible_in_rows_and_coherent_in_telemetry() {
    // --- Bare sweep: no trace sink installed. -------------------------
    let session = Session::new();
    let bare = run_sweep(&spec(), &session).expect("bare sweep");
    assert_eq!(bare.rows.len(), 2, "1 workload x 2 configs");

    // Cost attribution on a fresh session: exactly one row won the
    // capture race (the other waited on the in-flight OnceLock and read
    // from memory), and every full-replay row spent detailed time.
    let tiers: Vec<&str> = bare.rows.iter().map(|r| r.cost.tier.as_str()).collect();
    assert_eq!(
        tiers.iter().filter(|t| **t == "capture").count(),
        1,
        "tiers: {tiers:?}"
    );
    for row in &bare.rows {
        assert!(row.cost.detailed_ns > 0, "full replay must time in detail");
        if row.cost.tier == "capture" {
            assert!(row.cost.capture_ns > 0);
        }
    }
    assert!(bare.cost_totals.capture_ns > 0);
    assert!(bare.cost_totals.detailed_ns > 0);

    // Same session again: every artifact (including the replay result)
    // is memoized, so no simulation nanoseconds are spent at all.
    let memo = run_sweep(&spec(), &session).expect("memoized sweep");
    for row in &memo.rows {
        assert_eq!(row.cost.tier, "memo");
        assert_eq!(row.cost.capture_ns, 0);
        assert_eq!(row.cost.detailed_ns, 0);
    }
    assert_eq!(
        stable_rows(&to_csv(&bare.rows)),
        stable_rows(&to_csv(&memo.rows))
    );

    // --- Instrumented sweep: journal every span. ----------------------
    let journal = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("obs-journal.jsonl");
    trips_obs::enable_trace(&journal).expect("install trace sink");
    let traced = run_sweep(&spec(), &Session::new()).expect("traced sweep");
    // A cold then warm live-point sweep over one store, on two threads:
    // store loads and window jobs on nested pool threads charge too.
    let store = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("obs-store");
    let _ = std::fs::remove_dir_all(&store);
    let sessions: Vec<Session> = (0..2)
        .map(|_| Session::with_store(TraceStore::open(&store).expect("open store")))
        .collect();
    let live: Vec<_> = sessions
        .iter()
        .map(|session| run_sweep(&live_spec(), session).expect("live-point sweep"))
        .collect();
    trips_obs::flush_trace();
    let _ = std::fs::remove_dir_all(&store);

    // The measurements are byte-identical with tracing on.
    assert_eq!(
        stable_rows(&to_csv(&bare.rows)),
        stable_rows(&to_csv(&traced.rows)),
        "tracing must not perturb a single measurement column"
    );

    // The journal folds into a self-profile that attributes the run.
    let text = std::fs::read_to_string(&journal).expect("journal written");
    let records = trips_obs::report::parse_journal(&text).expect("journal parses");
    let profile = trips_obs::fold_report(&records);
    let labels: Vec<&str> = profile.labels.iter().map(|l| l.label.as_str()).collect();
    for expected in [
        "sweep.run",
        "sweep.point",
        "pool.worker",
        "session.replay_trips",
    ] {
        assert!(
            labels.contains(&expected),
            "missing {expected} in {labels:?}"
        );
    }
    assert!(
        profile.coverage >= 0.95,
        "span coverage {:.3} below the acceptance bar",
        profile.coverage
    );

    // One clock: every nanosecond in a cost column is the duration of a
    // journaled span that charged that column, and nothing else.
    let mut totals = traced.cost_totals.clone();
    for report in &live {
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        totals.absorb(&report.cost_totals);
    }
    assert!(
        live[1].rows.iter().any(|r| r.phase_k > 0),
        "{:?}",
        live[1].rows
    );
    for (column, total) in totals.columns() {
        if !column.ends_with("_ns") || column == "queue_ns" {
            continue;
        }
        let journaled: u64 = records
            .iter()
            .filter(|r| r.cost.as_deref() == Some(column))
            .map(|r| r.dur_ns)
            .sum();
        assert_eq!(total, journaled, "{column}: cost_totals vs charging spans");
    }
    for column in [
        "capture_ns",
        "detailed_ns",
        "checkpoint_restore_ns",
        "store_decode_ns",
    ] {
        assert!(
            totals.columns().any(|(c, v)| c == column && v > 0),
            "{column} never charged: {totals:?}"
        );
    }

    // The warm session's metrics registry carries the headline series.
    let metrics = &sessions[1].instruments().metrics;
    let snap = metrics.render();
    for series in [
        "session_captures",
        "session_disk_hits",
        "pool_jobs_total",
        "pool_steals_total",
        "pool_worker_busy_ns",
        "store_read_bytes_total",
        "replay_events_total{core=\"trips\"}",
    ] {
        assert!(snap.contains(series), "missing {series} in snapshot");
    }
    assert!(
        metrics.counter("replay_events_total{core=\"trips\"}").get() > 0,
        "trips replay loop must count its events"
    );
}
