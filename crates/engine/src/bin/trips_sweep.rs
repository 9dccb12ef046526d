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
//! `--metrics FILE` snapshots the session's metrics registry after the
//! sweep, and
//! `TRIPS_LOG` filters the stderr diagnostics (all routed through
//! `trips_obs::log!`).

use std::io::Write;
use std::process::ExitCode;

use trips_compiler::CompileOptions;
use trips_engine::chaos::FaultPlan;
use trips_engine::sweep::{to_csv, to_json_lines};
use trips_engine::{
    run_sweep, BackendSpec, ConfigVariant, Instruments, PhaseK, SamplePlan, Session, SweepReport,
    SweepSpec, TraceStore,
};
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

/// What the command line asks for.
enum Command {
    Help,
    ListWorkloads,
    /// Fold the span journal `journal` and exit: no sweep runs.
    ObsReport {
        journal: String,
        fold: bool,
    },
    Sweep(Box<Cli>),
}

/// The parsed sweep command line: every name resolved and the spec
/// checked, so nothing after parsing rejects it.
struct Cli {
    spec: SweepSpec,
    format: String,
    out_path: Option<String>,
    trace_dir: Option<String>,
    trace_gc: bool,
    store_fsck: bool,
    /// The fault plan from `--chaos`, else from `TRIPS_CHAOS`.
    faults: Option<FaultPlan>,
    gc_format: String,
    obs_trace: Option<String>,
    metrics_path: Option<String>,
}

fn main() -> ExitCode {
    let env_chaos = std::env::var("TRIPS_CHAOS").ok();
    match parse(std::env::args().skip(1), env_chaos).and_then(run) {
        Ok(code) => code,
        Err(msg) => fail(&msg),
    }
}

/// `value` as a number, or "`flag` needs a number" when it is missing or
/// is not one.
fn number<T: std::str::FromStr>(flag: &str, value: Result<String, String>) -> Result<T, String> {
    value
        .ok()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{flag} needs a number"))
}

/// Reads the whole command line, with `env_chaos` the value of
/// `TRIPS_CHAOS`; the first rejected flag is the error, then the first
/// rejected name or spec. A sweep command it returns is fully resolved.
fn parse(
    args: impl IntoIterator<Item = String>,
    env_chaos: Option<String>,
) -> Result<Command, String> {
    let mut cli = Cli {
        spec: SweepSpec {
            configs: Vec::new(),
            backends: Vec::new(),
            ..SweepSpec::default()
        },
        format: "json".into(),
        out_path: None,
        trace_dir: None,
        trace_gc: false,
        store_fsck: false,
        faults: None,
        gc_format: "text".into(),
        obs_trace: None,
        metrics_path: None,
    };
    let mut base_configs = vec!["prototype".to_string(), "improved".to_string()];
    let mut sweeps: Vec<(String, String)> = Vec::new();
    let mut backends = "trips".to_string();
    let mut default_demo = true;
    let mut chaos_arg = None;
    let mut obs_report = None;
    let mut fold = false;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let flag = arg.as_str();
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag {
            "-h" | "--help" => return Ok(Command::Help),
            "--list-workloads" => return Ok(Command::ListWorkloads),
            "--workloads" => {
                cli.spec.workloads = match value()?.as_str() {
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
                default_demo = false;
            }
            "--scale" => {
                cli.spec.scale = match value()?.as_str() {
                    "test" => Scale::Test,
                    "ref" => Scale::Ref,
                    other => return Err(format!("unknown scale `{other}`")),
                }
            }
            "--opts" => {
                cli.spec.opts = match value()?.as_str() {
                    "o0" => CompileOptions::o0(),
                    "o1" => CompileOptions::o1(),
                    "o2" => CompileOptions::o2(),
                    "hand" => CompileOptions::hand(),
                    other => return Err(format!("unknown preset `{other}`")),
                }
            }
            "--hand" => cli.spec.hand = true,
            "--configs" => {
                base_configs = value()?.split(',').map(str::to_string).collect();
                default_demo = false;
            }
            "--sweep" => {
                let v = value()?;
                let (axis, values) = v.split_once('=').ok_or("--sweep expects axis=v1,v2,...")?;
                sweeps.push((axis.to_string(), values.to_string()));
                default_demo = false;
            }
            // `parse_group` splits the comma list, so the two spellings are
            // one flag.
            "--backends" | "--backend" => backends = value()?,
            "--sample" => {
                let plan = SamplePlan::parse(&value()?).map_err(|e| format!("--sample: {e}"))?;
                cli.spec.sample = Some(plan);
            }
            "--phase" => {
                let k = PhaseK::parse(&value()?).map_err(|e| format!("--phase: {e}"))?;
                cli.spec.phase = Some(k);
            }
            "--live-points" => cli.spec.live_points = true,
            "--threads" => cli.spec.threads = number(flag, value())?,
            "--budget" => cli.spec.sim_budget = number(flag, value())?,
            "--mem" => cli.spec.mem = number(flag, value())?,
            "--format" => match value()? {
                v if v == "json" || v == "csv" => cli.format = v,
                other => return Err(format!("unknown format `{other}`")),
            },
            "--out" => cli.out_path = Some(value()?),
            "--trace-dir" => cli.trace_dir = Some(value()?),
            "--trace-gc" => cli.trace_gc = true,
            "--store-fsck" => cli.store_fsck = true,
            "--chaos" => chaos_arg = Some(value()?),
            "--gc-format" => match value()? {
                v if v == "text" || v == "json" => cli.gc_format = v,
                other => return Err(format!("unknown gc format `{other}`")),
            },
            "--obs-trace" => cli.obs_trace = Some(value()?),
            "--obs-report" => obs_report = Some(value()?),
            "--fold" => fold = true,
            "--metrics" => cli.metrics_path = Some(value()?),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    match obs_report {
        Some(journal) => return Ok(Command::ObsReport { journal, fold }),
        None if fold => return Err("--fold needs --obs-report".into()),
        None => {}
    }

    // The flag wins over TRIPS_CHAOS when both are given.
    cli.faults = match (chaos_arg, env_chaos) {
        (Some(s), _) => Some(FaultPlan::parse(&s).map_err(|e| format!("--chaos: {e}"))?),
        (None, Some(v)) if !v.is_empty() => {
            Some(FaultPlan::parse(&v).map_err(|e| format!("TRIPS_CHAOS: {e}"))?)
        }
        (None, _) => None,
    };
    // The config list: named bases plus one variant per sweep value.
    let spec = &mut cli.spec;
    for name in &base_configs {
        spec.configs.push(match name.as_str() {
            "prototype" => ConfigVariant::prototype(),
            "improved" => ConfigVariant::improved(),
            other => {
                return Err(format!(
                    "unknown base config `{other}` (prototype, improved)"
                ))
            }
        });
    }
    let proto = TripsConfig::prototype();
    for (axis, values) in &sweeps {
        let vals: Vec<&str> = values.split(',').collect();
        let mut variants = ConfigVariant::axis(&proto, axis, &vals).map_err(|e| e.to_string())?;
        spec.configs.append(&mut variants);
    }
    if default_demo {
        // The out-of-the-box demo: 2 workloads × 4 configs = 8 points.
        spec.configs
            .extend(ConfigVariant::axis(&proto, "dispatch_interval", &["1"]).expect("known axis"));
        spec.configs
            .extend(ConfigVariant::axis(&proto, "flush_penalty", &["4"]).expect("known axis"));
    }
    spec.backends = BackendSpec::parse_group(&backends).map_err(|e| e.to_string())?;
    if cli.trace_gc && cli.trace_dir.is_none() {
        return Err("--trace-gc needs --trace-dir".into());
    }
    if cli.store_fsck {
        // Fsck mode sweeps nothing, so the spec plays no part.
        if cli.trace_dir.is_none() {
            return Err("--store-fsck needs --trace-dir".into());
        }
    } else {
        spec.validate().map_err(|e| e.to_string())?;
    }
    Ok(Command::Sweep(Box::new(cli)))
}

fn run(command: Command) -> Result<ExitCode, String> {
    let cli = match command {
        Command::Help => {
            println!("{USAGE}");
            return Ok(ExitCode::SUCCESS);
        }
        Command::ListWorkloads => {
            let listing: String = trips_workloads::all()
                .iter()
                .map(|w| format!("{}\n", w.name))
                .collect();
            // write_all, not println!: a consumer like `| head -3` closing
            // the pipe early must not panic the listing.
            let _ = std::io::stdout().lock().write_all(listing.as_bytes());
            return Ok(ExitCode::SUCCESS);
        }
        Command::ObsReport { journal, fold } => {
            let text = std::fs::read_to_string(&journal)
                .map_err(|e| format!("reading span journal `{journal}`: {e}"))?;
            let records = trips_obs::report::parse_journal(&text)
                .map_err(|e| format!("parsing span journal `{journal}`: {e}"))?;
            let rendered = if fold {
                trips_obs::fold_stacks(&records)
            } else {
                trips_obs::fold_report(&records).render()
            };
            let _ = std::io::stdout().lock().write_all(rendered.as_bytes());
            return Ok(ExitCode::SUCCESS);
        }
        Command::Sweep(cli) => cli,
    };
    if let Some(path) = &cli.obs_trace {
        trips_obs::enable_trace(std::path::Path::new(path))
            .map_err(|e| format!("opening span journal `{path}`: {e}"))?;
    }
    if let Some(plan) = &cli.faults {
        trips_obs::log!(
            Level::Info,
            "chaos",
            "armed: seed=0x{:016x} profile={}",
            plan.seed(),
            plan.profile_name()
        );
    }
    let code = sweep(*cli);
    // The cli.main span (dropped inside `sweep`) must land in the journal
    // before the sink is flushed.
    trips_obs::flush_trace();
    code
}

/// Everything after argument parsing, under the `cli.main` root span.
/// The fault plan goes to the one store (fsck) or session (sweep) built
/// here, which hands it on with its metrics registry.
fn sweep(cli: Cli) -> Result<ExitCode, String> {
    let _main = trips_obs::span("cli.main");
    let spec = cli.spec;
    let json = cli.gc_format == "json";

    // Fsck mode verifies (and self-heals) the store, reports, and exits:
    // no sweep runs, so a repair pass never perturbs measurement caches.
    if cli.store_fsck {
        let dir = cli.trace_dir.expect("parse requires --trace-dir");
        let store = open_store(&dir)?.instrumented(Instruments::new(cli.faults));
        fsck(&store, &dir, json)?;
        return Ok(ExitCode::SUCCESS);
    }

    let store = cli.trace_dir.as_deref().map(open_store).transpose()?;
    let session = Session::open(store, cli.faults);
    if let (true, Some(store), Some(dir)) = (cli.trace_gc, session.store(), &cli.trace_dir) {
        gc(store, dir, json)?;
    }
    let report = run_sweep(&spec, &session).map_err(|e| e.to_string())?;

    let rendered = match cli.format.as_str() {
        "csv" => to_csv(&report.rows),
        _ => to_json_lines(&report.rows),
    };
    match &cli.out_path {
        Some(path) => {
            if let Err(e) = std::fs::write(path, rendered) {
                trips_obs::log!(Level::Error, "trips-sweep", "writing {path}: {e}");
                return Ok(ExitCode::FAILURE);
            }
        }
        None => {
            let mut stdout = std::io::stdout().lock();
            if stdout.write_all(rendered.as_bytes()).is_err() {
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    if let Some(path) = &cli.metrics_path {
        // Snapshot after the sweep so every series — including per-worker
        // pool gauges recorded at worker exit — is present.
        if let Err(e) = std::fs::write(path, session.instruments().metrics.render()) {
            trips_obs::log!(
                Level::Error,
                "trips-sweep",
                "writing metrics snapshot {path}: {e}"
            );
            return Ok(ExitCode::FAILURE);
        }
    }
    let ok_rows = report.rows.iter().filter(|r| r.status != "failed").count();
    summarize(&spec, &report, &session, ok_rows);
    Ok(if ok_rows == 0 && !report.errors.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn open_store(dir: &str) -> Result<TraceStore, String> {
    TraceStore::open(dir).map_err(|e| format!("opening trace store `{dir}`: {e}"))
}

/// Verifies every container of `store`, quarantining damaged ones, and
/// reports what happened (one JSON object on stdout, or a log line).
fn fsck(store: &TraceStore, dir: &str, json: bool) -> Result<(), String> {
    let report = store
        .fsck()
        .map_err(|e| format!("fsck of trace store `{dir}`: {e}"))?;
    if json {
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
    Ok(())
}

/// Reports the per-container-kind census of `store` and prunes its stale
/// containers. The census comes first (one line per payload kind, not one
/// aggregate, so a shared directory's composition is visible at a
/// glance): its stale count is what the prune is about to reclaim.
fn gc(store: &TraceStore, dir: &str, json: bool) -> Result<(), String> {
    let census = store
        .stats()
        .map_err(|e| format!("scanning trace store `{dir}`: {e}"))?;
    let prune = store
        .prune_stale()
        .map_err(|e| format!("pruning trace store `{dir}`: {e}"))?;
    if json {
        // One machine-readable object on stderr, keeping stdout free for
        // the sweep rows.
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
    Ok(())
}

/// The stderr summary: throughput, cache tiers, sampling, chaos (from
/// `session`'s registry) and the failed points.
fn summarize(spec: &SweepSpec, report: &SweepReport, session: &Session, ok_rows: usize) {
    let c = &report.cache;
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
    if session.store().is_some() {
        let [trips_store, risc_store] = c.store_lines();
        trips_obs::log!(Level::Info, "trips-sweep", "{trips_store}");
        if c.rtrace_misses > 0 {
            trips_obs::log!(Level::Info, "trips-sweep", "{risc_store}");
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
    let ins = session.instruments();
    if let Some(plan) = &ins.faults {
        let count = |series: &str| ins.metrics.counter(series).get();
        let retried = report.rows.iter().filter(|r| r.status == "retried").count();
        trips_obs::log!(
            Level::Info,
            "trips-sweep",
            "chaos: seed={:#x} profile={} injected={} store_retries={} quarantined={} job_panics={} rows_retried={}",
            plan.seed(),
            plan.profile_name(),
            count("chaos_injected_total"),
            count("store_retries_total"),
            count("store_quarantined_total"),
            count("pool_job_panics_total"),
            retried,
        );
    }
    for e in &report.errors {
        trips_obs::log!(Level::Error, "trips-sweep", "point failed: {e}");
    }
}
