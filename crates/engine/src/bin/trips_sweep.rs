//! `trips-sweep`: run a parallel configuration sweep from the command line.
//!
//! ```text
//! trips-sweep                               # default 8-point demo sweep
//! trips-sweep --workloads vadd,fft,matrix \
//!             --configs prototype,improved \
//!             --sweep dispatch_interval=1,2,8 \
//!             --sweep l1d_bytes=8192,32768 \
//!             --backends trips,core2 \
//!             --sample 500,500,4000 \
//!             --format csv --out sweep.csv
//! ```
//!
//! Each workload's functional trace is captured once and replayed against
//! every configuration; points run in parallel on a work-stealing pool. The
//! summary (stderr) reports throughput in measurements/second and the
//! artifact-cache hit rates that make the number what it is.
//!
//! Observability: `--obs-trace FILE` journals every engine span to JSONL,
//! `--obs-report FILE` folds such a journal into a self-profile,
//! `--metrics FILE` snapshots the metrics registry after the sweep, and
//! `TRIPS_LOG` filters the stderr diagnostics (all routed through
//! `trips_obs::log!`).

use std::io::Write;
use std::process::ExitCode;

use trips_compiler::CompileOptions;
use trips_engine::sweep::{to_csv, to_json_lines};
use trips_engine::{run_sweep, BackendSpec, ConfigVariant, SamplePlan, Session, SweepSpec};
use trips_obs::Level;
use trips_sim::TripsConfig;
use trips_workloads::Scale;

const USAGE: &str = "\
trips-sweep: parallel trace-replay configuration sweeps

options:
  --workloads a,b,c    workload names (default vadd,autocor; `simple` expands
                       to the paper's 15 simple benchmarks, `all` to everything)
  --scale test|ref     problem size (default test)
  --opts o0|o1|o2|hand compile preset for the TRIPS side (default o1)
  --hand               use hand-optimized IR variants
  --configs a,b        base configs: prototype, improved (default both)
  --sweep axis=v1,v2   add one variant per value (repeatable); axes:
                       dispatch_interval dispatch_bandwidth fetch_latency
                       flush_penalty commit_overhead max_blocks_in_flight
                       l1d_bytes l2_bytes l1d_hit dram_lat exit_entries
                       btb_entries ras_depth lwt_entries
  --backends list      trips,isa,risc,core2,p4,p3,ideal1k,ideal1k0,ideal128k
                       (default trips; `ooo` expands to core2,p4,p3; repeats
                       are deduplicated)
  --backend b          alias of --backends (same comma grammar)
  --sample w,d,p       interval-sample the timing backends: in every period
                       of p stream units, functionally warm w and time d in
                       detail (the rest are skipped); cycles are
                       extrapolated and rows carry sampled/detailed_frac/
                       est_cycles. d=p reproduces full replay bit-exactly.
  --phase k|auto       phase-classified sampling for the timing backends
                       (mutually exclusive with --sample): each workload's
                       stream is cut into intervals, clustered by BBV
                       similarity (k clusters, or a BIC-chosen k with
                       `auto`), and one representative window per cluster
                       is timed and weighted by population; rows carry
                       phase_k. Fitted plans are memoized (and persisted
                       under --trace-dir), so N points cluster once.
  --live-points        with --phase: checkpoint the warmed machine state at
                       each measured-window boundary (once per stream/plan/
                       config, persisted under --trace-dir) and replay the
                       measured windows as parallel jobs from the restored
                       states — bit-identical to fast-forward-then-replay,
                       paying the O(stream) warming prefix once instead of
                       per run; a warm store serves any sweep point with
                       zero stream-prefix replay
  --list-workloads     print every registry workload name, one per line,
                       and exit
  --threads N          worker threads (default: one per core)
  --budget N           dynamic block budget for capture/sim (default 1000000)
  --mem BYTES          memory image size (default 4194304)
  --trace-dir DIR      persistent content-addressed trace store: captures
                       are written to DIR and reused by later runs (created
                       if missing)
  --trace-gc           with --trace-dir: delete stale-version containers
                       (old formats this build will never load) before
                       sweeping
  --gc-format text|json
                       how --trace-gc reports the census and prune (text
                       lines on stderr, or one machine-readable JSON
                       object with `census` and `prune` keys); also
                       selects the --store-fsck report format
  --store-fsck         with --trace-dir: verify every container end to end
                       (header, filename-vs-key, payload hash), move
                       damaged files to DIR/quarantine/ with a `.reason`
                       sidecar, remove orphaned `.tmp-` write debris,
                       report what happened, and exit without sweeping
  --chaos seed[:profile]
                       arm deterministic fault injection: store I/O
                       errors, short writes, post-write bit flips,
                       capture/fit failures, pool job panics and delays
                       fire on a schedule derived only from the seed.
                       Profiles: zero, mild (default), io, pool, ci.
                       Exercises the recovery paths (retries, quarantine,
                       circuit breaker, caught jobs); `--chaos N:zero`
                       arms the layer without firing anything
  --obs-trace FILE     journal every engine span (sweep, pool, session,
                       store, replay) to FILE as JSONL; fold it later
                       with --obs-report
  --obs-report FILE    fold a span journal into a self-profile (call
                       counts, inclusive/exclusive time per label,
                       wall-clock coverage), print it, and exit
  --fold               with --obs-report: emit flamegraph folded stacks
                       (`root;child;leaf exclusive_ns`, one line per span
                       path) instead of the profile table — pipe straight
                       into flamegraph.pl / inferno-flamegraph
  --metrics FILE       write a Prometheus-style snapshot of the metrics
                       registry (cache tiers, store I/O, pool workers,
                       replay throughput) to FILE after the sweep
  --format json|csv    row output format (default json)
  --out FILE           write rows to FILE instead of stdout
  -h, --help           this text

environment:
  TRIPS_LOG=error|warn|info|debug|trace|off
                       stderr diagnostic level (default info)
  TRIPS_CHAOS=seed[:profile]
                       arm fault injection when --chaos is absent (the
                       flag wins when both are given)";

fn fail(msg: &str) -> ExitCode {
    eprintln!("trips-sweep: {msg}");
    eprintln!("{USAGE}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut spec = SweepSpec {
        configs: Vec::new(),
        backends: Vec::new(),
        ..SweepSpec::default()
    };
    let mut base_configs: Vec<String> = vec!["prototype".into(), "improved".into()];
    let mut sweeps: Vec<(String, String)> = Vec::new();
    let mut backends: Vec<String> = vec!["trips".into()];
    let mut format = "json".to_string();
    let mut out_path: Option<String> = None;
    let mut trace_dir: Option<String> = None;
    let mut trace_gc = false;
    let mut store_fsck = false;
    let mut chaos_arg: Option<String> = None;
    let mut gc_format = "text".to_string();
    let mut obs_trace: Option<String> = None;
    let mut obs_report: Option<String> = None;
    let mut fold = false;
    let mut metrics_path: Option<String> = None;
    let mut default_demo = true;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--list-workloads" => {
                let listing: String = trips_workloads::all()
                    .iter()
                    .map(|w| format!("{}\n", w.name))
                    .collect();
                // write_all, not println!: a consumer like `| head -3`
                // closing the pipe early must not panic the listing.
                let _ = std::io::stdout().lock().write_all(listing.as_bytes());
                return ExitCode::SUCCESS;
            }
            "--workloads" => match value("--workloads") {
                Ok(v) => {
                    default_demo = false;
                    spec.workloads = match v.as_str() {
                        "simple" => trips_workloads::simple()
                            .iter()
                            .map(|w| w.name.to_string())
                            .collect(),
                        "all" => trips_workloads::all()
                            .iter()
                            .map(|w| w.name.to_string())
                            .collect(),
                        list => list.split(',').map(str::to_string).collect(),
                    };
                }
                Err(e) => return fail(&e),
            },
            "--scale" => match value("--scale").as_deref() {
                Ok("test") => spec.scale = Scale::Test,
                Ok("ref") => spec.scale = Scale::Ref,
                Ok(other) => return fail(&format!("unknown scale `{other}`")),
                Err(e) => return fail(e),
            },
            "--opts" => match value("--opts").as_deref() {
                Ok("o0") => spec.opts = CompileOptions::o0(),
                Ok("o1") => spec.opts = CompileOptions::o1(),
                Ok("o2") => spec.opts = CompileOptions::o2(),
                Ok("hand") => spec.opts = CompileOptions::hand(),
                Ok(other) => return fail(&format!("unknown preset `{other}`")),
                Err(e) => return fail(e),
            },
            "--hand" => spec.hand = true,
            "--configs" => match value("--configs") {
                Ok(v) => {
                    default_demo = false;
                    base_configs = v.split(',').map(str::to_string).collect();
                }
                Err(e) => return fail(&e),
            },
            "--sweep" => match value("--sweep") {
                Ok(v) => {
                    default_demo = false;
                    match v.split_once('=') {
                        Some((axis, values)) => sweeps.push((axis.to_string(), values.to_string())),
                        None => return fail("--sweep expects axis=v1,v2,..."),
                    }
                }
                Err(e) => return fail(&e),
            },
            "--backends" => match value("--backends") {
                Ok(v) => backends = v.split(',').map(str::to_string).collect(),
                Err(e) => return fail(&e),
            },
            "--backend" => match value("--backend") {
                Ok(v) => backends = vec![v],
                Err(e) => return fail(&e),
            },
            "--sample" => match value("--sample") {
                Ok(v) => match SamplePlan::parse(&v) {
                    Ok(plan) => spec.sample = Some(plan),
                    Err(e) => return fail(&format!("--sample: {e}")),
                },
                Err(e) => return fail(&e),
            },
            "--phase" => match value("--phase") {
                Ok(v) => match trips_engine::PhaseK::parse(&v) {
                    Ok(k) => spec.phase = Some(k),
                    Err(e) => return fail(&format!("--phase: {e}")),
                },
                Err(e) => return fail(&e),
            },
            "--live-points" => spec.live_points = true,
            "--threads" => match value("--threads").map(|v| v.parse::<usize>()) {
                Ok(Ok(n)) => spec.threads = n,
                _ => return fail("--threads needs a number"),
            },
            "--budget" => match value("--budget").map(|v| v.parse::<u64>()) {
                Ok(Ok(n)) => spec.sim_budget = n,
                _ => return fail("--budget needs a number"),
            },
            "--mem" => match value("--mem").map(|v| v.parse::<usize>()) {
                Ok(Ok(n)) => spec.mem = n,
                _ => return fail("--mem needs a number"),
            },
            "--format" => match value("--format") {
                Ok(v) if v == "json" || v == "csv" => format = v,
                Ok(other) => return fail(&format!("unknown format `{other}`")),
                Err(e) => return fail(&e),
            },
            "--out" => match value("--out") {
                Ok(v) => out_path = Some(v),
                Err(e) => return fail(&e),
            },
            "--trace-dir" => match value("--trace-dir") {
                Ok(v) => trace_dir = Some(v),
                Err(e) => return fail(&e),
            },
            "--trace-gc" => trace_gc = true,
            "--store-fsck" => store_fsck = true,
            "--chaos" => match value("--chaos") {
                Ok(v) => chaos_arg = Some(v),
                Err(e) => return fail(&e),
            },
            "--gc-format" => match value("--gc-format") {
                Ok(v) if v == "text" || v == "json" => gc_format = v,
                Ok(other) => return fail(&format!("unknown gc format `{other}`")),
                Err(e) => return fail(&e),
            },
            "--obs-trace" => match value("--obs-trace") {
                Ok(v) => obs_trace = Some(v),
                Err(e) => return fail(&e),
            },
            "--obs-report" => match value("--obs-report") {
                Ok(v) => obs_report = Some(v),
                Err(e) => return fail(&e),
            },
            "--fold" => fold = true,
            "--metrics" => match value("--metrics") {
                Ok(v) => metrics_path = Some(v),
                Err(e) => return fail(&e),
            },
            other => return fail(&format!("unknown option `{other}`")),
        }
    }

    // Report mode folds an existing journal and exits: no sweep runs.
    if let Some(journal) = &obs_report {
        let text = match std::fs::read_to_string(journal) {
            Ok(t) => t,
            Err(e) => return fail(&format!("reading span journal `{journal}`: {e}")),
        };
        let records = match trips_obs::report::parse_journal(&text) {
            Ok(r) => r,
            Err(e) => return fail(&format!("parsing span journal `{journal}`: {e}")),
        };
        let rendered = if fold {
            trips_obs::fold_stacks(&records)
        } else {
            trips_obs::fold_report(&records).render()
        };
        let _ = std::io::stdout().lock().write_all(rendered.as_bytes());
        return ExitCode::SUCCESS;
    }
    if fold {
        return fail("--fold needs --obs-report");
    }
    if let Some(path) = &obs_trace {
        if let Err(e) = trips_obs::enable_trace(std::path::Path::new(path)) {
            return fail(&format!("opening span journal `{path}`: {e}"));
        }
    }
    // Arm fault injection before anything touches the store or the pool:
    // the flag wins over TRIPS_CHAOS when both are given.
    match &chaos_arg {
        Some(s) => match trips_engine::chaos::FaultPlan::parse(s) {
            Ok(plan) => trips_engine::chaos::install(plan),
            Err(e) => return fail(&format!("--chaos: {e}")),
        },
        None => {
            if let Err(e) = trips_engine::chaos::init_from_env() {
                return fail(&format!("TRIPS_CHAOS: {e}"));
            }
        }
    }
    let code = run(
        spec,
        base_configs,
        sweeps,
        backends,
        format,
        out_path,
        trace_dir,
        trace_gc,
        store_fsck,
        gc_format,
        metrics_path,
        default_demo,
    );
    // The cli.main span (dropped inside `run`) must land in the journal
    // before the sink is flushed.
    if obs_trace.is_some() {
        trips_obs::flush_trace();
    }
    code
}

/// Everything after argument parsing, wrapped so the `cli.main` root span
/// closes (and journals) before `main` flushes the trace sink.
#[allow(clippy::too_many_arguments)]
fn run(
    mut spec: SweepSpec,
    base_configs: Vec<String>,
    sweeps: Vec<(String, String)>,
    backends: Vec<String>,
    format: String,
    out_path: Option<String>,
    trace_dir: Option<String>,
    trace_gc: bool,
    store_fsck: bool,
    gc_format: String,
    metrics_path: Option<String>,
    default_demo: bool,
) -> ExitCode {
    let _main = trips_obs::span("cli.main");

    // Build the config list: named bases plus one variant per sweep value.
    for name in &base_configs {
        match name.as_str() {
            "prototype" => spec.configs.push(ConfigVariant::prototype()),
            "improved" => spec.configs.push(ConfigVariant::improved()),
            other => {
                return fail(&format!(
                    "unknown base config `{other}` (prototype, improved)"
                ))
            }
        }
    }
    for (axis, values) in &sweeps {
        let vals: Vec<&str> = values.split(',').collect();
        match ConfigVariant::axis(&TripsConfig::prototype(), axis, &vals) {
            Ok(mut vs) => spec.configs.append(&mut vs),
            Err(e) => return fail(&e.to_string()),
        }
    }
    if default_demo {
        // The out-of-the-box demo: 2 workloads × 4 configs = 8 points.
        let proto = TripsConfig::prototype();
        spec.configs
            .extend(ConfigVariant::axis(&proto, "dispatch_interval", &["1"]).expect("known axis"));
        spec.configs
            .extend(ConfigVariant::axis(&proto, "flush_penalty", &["4"]).expect("known axis"));
    }
    for b in &backends {
        match BackendSpec::parse_group(b) {
            Ok(parsed) => {
                for spec_b in parsed {
                    if !spec.backends.contains(&spec_b) {
                        spec.backends.push(spec_b);
                    }
                }
            }
            Err(e) => return fail(&e.to_string()),
        }
    }
    if trace_gc && trace_dir.is_none() {
        return fail("--trace-gc needs --trace-dir");
    }

    // Fsck mode verifies (and self-heals) the store, reports, and exits:
    // no sweep runs, so a repair pass never perturbs measurement caches.
    if store_fsck {
        let Some(dir) = &trace_dir else {
            return fail("--store-fsck needs --trace-dir");
        };
        let store = match trips_engine::TraceStore::open(dir) {
            Ok(s) => s,
            Err(e) => return fail(&format!("opening trace store `{dir}`: {e}")),
        };
        let report = match store.fsck() {
            Ok(r) => r,
            Err(e) => return fail(&format!("fsck of trace store `{dir}`: {e}")),
        };
        if gc_format == "json" {
            let obj = serde::Value::Map(vec![(
                serde::Value::Str("fsck".into()),
                serde::to_value(&report),
            )]);
            println!("{}", serde::json::to_string(&obj));
        } else {
            trips_obs::log!(
                Level::Info,
                "trips-sweep",
                "store-fsck: scanned {} containers: {} ok, {} stale, {} quarantined, {} unreadable, {} tmp files repaired; quarantine holds {} containers ({} bytes)",
                report.scanned, report.ok, report.stale, report.quarantined,
                report.unreadable, report.repaired_tmp,
                report.quarantine_containers, report.quarantine_bytes
            );
        }
        return ExitCode::SUCCESS;
    }

    // A spec the sweep would reject must not create, scan or prune the
    // store first.
    if let Err(e) = spec.validate() {
        return fail(&e.to_string());
    }
    let session = match &trace_dir {
        Some(dir) => match trips_engine::TraceStore::open(dir) {
            Ok(store) => {
                if trace_gc {
                    // Per-container-kind census first (one line per
                    // payload kind, not one aggregate, so a shared
                    // directory's composition is visible at a glance),
                    // then the prune — the stale count is what the prune
                    // is about to reclaim.
                    let census = match store.stats() {
                        Ok(s) => s,
                        Err(e) => return fail(&format!("scanning trace store `{dir}`: {e}")),
                    };
                    let prune = match store.prune_stale() {
                        Ok(r) => r,
                        Err(e) => return fail(&format!("pruning trace store `{dir}`: {e}")),
                    };
                    if gc_format == "json" {
                        // One machine-readable object on stderr, keeping
                        // stdout free for the sweep rows.
                        let obj = serde::Value::Map(vec![
                            (serde::Value::Str("census".into()), serde::to_value(&census)),
                            (serde::Value::Str("prune".into()), serde::to_value(&prune)),
                        ]);
                        eprintln!("{}", serde::json::to_string(&obj));
                    } else {
                        trips_obs::log!(
                            Level::Info,
                            "trips-sweep",
                            "trace-gc: {} containers ({} bytes): {} TRIPS traces, {} RISC traces, {} BBV plans, {} live-point sets, {} stale, {} quarantined ({} bytes)",
                            census.containers, census.bytes, census.block_traces,
                            census.risc_traces, census.bbv_plans, census.live_points,
                            census.stale, census.quarantined, census.quarantine_bytes
                        );
                        trips_obs::log!(
                            Level::Info,
                            "trips-sweep",
                            "trace-gc: scanned {} containers, pruned {} ({} stale-version, {} orphaned live-points, {} bytes reclaimed), kept {}",
                            prune.scanned, prune.removed,
                            prune.removed - prune.orphaned, prune.orphaned,
                            prune.bytes_freed, prune.kept
                        );
                    }
                }
                Session::with_store(store)
            }
            Err(e) => return fail(&format!("opening trace store `{dir}`: {e}")),
        },
        None => Session::new(),
    };
    let report = match run_sweep(&spec, &session) {
        Ok(r) => r,
        Err(e) => return fail(&e.to_string()),
    };

    let rendered = match format.as_str() {
        "csv" => to_csv(&report.rows),
        _ => to_json_lines(&report.rows),
    };
    match &out_path {
        Some(path) => {
            if let Err(e) = std::fs::write(path, rendered) {
                trips_obs::log!(Level::Error, "trips-sweep", "writing {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        None => {
            let mut stdout = std::io::stdout().lock();
            if stdout.write_all(rendered.as_bytes()).is_err() {
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = &metrics_path {
        // Snapshot after the sweep so every series — including per-worker
        // pool gauges recorded at worker exit — is present.
        if let Err(e) = std::fs::write(path, trips_obs::snapshot_text()) {
            trips_obs::log!(
                Level::Error,
                "trips-sweep",
                "writing metrics snapshot {path}: {e}"
            );
            return ExitCode::FAILURE;
        }
    }

    let c = &report.cache;
    let ok_rows = report.rows.iter().filter(|r| r.status != "failed").count();
    trips_obs::log!(
        Level::Info,
        "trips-sweep",
        "{} points ({} ok, {} failed) on {} threads in {:.2}s -> {:.1} measurements/sec",
        report.points,
        ok_rows,
        report.errors.len(),
        report.threads,
        report.wall_s,
        report.measurements_per_sec,
    );
    trips_obs::log!(
        Level::Info,
        "trips-sweep",
        "cache: {} compiles ({} reused), {} captures, {} in-memory trace reuses",
        c.compile_misses,
        c.compile_hits,
        c.captures,
        c.trace_hits,
    );
    let mut cost = String::from("cost:");
    for (column, value) in report.cost_totals.columns() {
        match column.strip_suffix("_ns") {
            Some(stem) => cost.push_str(&format!(" {stem}={:.1}ms", value as f64 / 1e6)),
            None => cost.push_str(&format!(" {column}={value}")),
        }
    }
    trips_obs::log!(Level::Info, "trips-sweep", "{cost}");
    if let Some(plan) = &spec.sample {
        trips_obs::log!(
            Level::Info,
            "trips-sweep",
            "sampling: plan {plan} ({:.1}% detail) on the timing backends; full replay results never alias",
            plan.planned_detail_frac() * 100.0,
        );
    }
    if let Some(k) = &spec.phase {
        trips_obs::log!(
            Level::Info,
            "trips-sweep",
            "phase: k={k} on the timing backends; {} fits performed, {} served from memory, {} from disk",
            c.phase_fits, c.phase_hits, c.phase_disk_hits,
        );
    }
    if spec.live_points {
        trips_obs::log!(
            Level::Info,
            "trips-sweep",
            "live-points: captures={} memo_hits={} disk_hits={} disk_misses={} disk_rejects={} writes={}",
            c.livepoint_captures,
            c.livepoint_hits,
            c.livepoint_disk_hits,
            c.livepoint_disk_misses,
            c.livepoint_disk_rejects,
            c.livepoint_store_writes,
        );
    }
    if trace_dir.is_some() {
        trips_obs::log!(
            Level::Info,
            "trips-sweep",
            "store: disk_hits={} disk_misses={} disk_rejects={} writes={} captures={}",
            c.disk_hits,
            c.disk_misses,
            c.disk_rejects,
            c.store_writes,
            c.captures,
        );
        if c.rtrace_misses > 0 {
            trips_obs::log!(
                Level::Info,
                "trips-sweep",
                "risc store: disk_hits={} disk_misses={} disk_rejects={} writes={} captures={}",
                c.risc_disk_hits,
                c.risc_disk_misses,
                c.risc_disk_rejects,
                c.risc_store_writes,
                c.risc_captures,
            );
        }
    }
    if c.risc_misses > 0 {
        trips_obs::log!(
            Level::Info,
            "trips-sweep",
            "cache: {} RISC compiles ({} reused across reference backends), {} executions, {} stream reuses",
            c.risc_misses, c.risc_hits, c.risc_captures, c.rtrace_hits,
        );
    }
    if let Some(plan) = trips_engine::chaos::active_plan() {
        let retried = report.rows.iter().filter(|r| r.status == "retried").count();
        trips_obs::log!(
            Level::Info,
            "trips-sweep",
            "chaos: seed={:#x} profile={} injected={} store_retries={} quarantined={} job_panics={} rows_retried={}",
            plan.seed(),
            plan.profile_name(),
            trips_obs::counter("chaos_injected_total").get(),
            trips_obs::counter("store_retries_total").get(),
            trips_obs::counter("store_quarantined_total").get(),
            trips_obs::counter("pool_job_panics_total").get(),
            retried,
        );
    }
    for e in &report.errors {
        trips_obs::log!(Level::Error, "trips-sweep", "point failed: {e}");
    }
    if ok_rows == 0 && !report.errors.is_empty() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
