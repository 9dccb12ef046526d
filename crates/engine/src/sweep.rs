//! Declarative sweep specifications and their parallel execution.
//!
//! A [`SweepSpec`] names workloads, one compile preset, a set of TRIPS
//! timing configurations, and a set of backends. [`run_sweep`] expands the
//! cross product into points, executes them on the work-stealing pool with
//! all artifacts shared through a [`Session`], and returns per-point
//! [`SweepRow`]s plus a throughput summary.

use crate::cache::{EngineError, Session};
use crate::pool::{effective_threads, parallel_map_catch};
use serde::{Serialize, Serializer, Value};
use std::sync::Arc;
use std::time::Instant;
use trips_compiler::{CompileOptions, CompiledProgram};
use trips_phase::{PhaseK, PhaseSpec};
use trips_sample::{ReplayMode, SamplePlan};
use trips_sim::TripsConfig;
use trips_workloads::{by_name, Scale, Workload};

/// Which machine a sweep point measures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendSpec {
    /// TRIPS cycle-level model: replayed against every [`SweepSpec::configs`]
    /// variant.
    Trips,
    /// TRIPS functional (untimed) ISA statistics: block composition,
    /// storage accesses, code footprint — the Figure 3–5/§4.4 series.
    Isa,
    /// RISC (PowerPC-like) functional baseline: instruction counts, served
    /// from the recorded event stream.
    Risc,
    /// An out-of-order reference platform (`core2`, `p4`, or `p3`), timed
    /// by replaying the recorded RISC event stream.
    Ooo(String),
    /// The idealized EDGE limit study: `1k`, `1k0` (free dispatch), `128k`.
    Ideal(String),
}

impl BackendSpec {
    /// Parses a backend label. The pseudo-label `ooo` expands to all three
    /// reference platforms.
    ///
    /// # Errors
    /// [`EngineError::Spec`] on unknown labels.
    pub fn parse(s: &str) -> Result<BackendSpec, EngineError> {
        match s {
            "trips" => Ok(BackendSpec::Trips),
            "isa" => Ok(BackendSpec::Isa),
            "risc" => Ok(BackendSpec::Risc),
            "core2" | "p4" | "p3" => Ok(BackendSpec::Ooo(s.to_string())),
            "ideal1k" => Ok(BackendSpec::Ideal("1k".into())),
            "ideal1k0" => Ok(BackendSpec::Ideal("1k0".into())),
            "ideal128k" => Ok(BackendSpec::Ideal("128k".into())),
            other => Err(EngineError::Spec(format!(
                "unknown backend `{other}` (known: trips isa risc core2 p4 p3 ooo ideal1k ideal1k0 ideal128k)"
            ))),
        }
    }

    /// Parses a comma-separated backend list, expanding the `ooo` group
    /// label and deduplicating repeats in first-seen order — `ooo,core2`
    /// names core2 twice but must measure it once.
    ///
    /// # Errors
    /// [`EngineError::Spec`] on unknown labels or an empty list.
    pub fn parse_group(s: &str) -> Result<Vec<BackendSpec>, EngineError> {
        let mut out: Vec<BackendSpec> = Vec::new();
        let push = |b: BackendSpec, out: &mut Vec<BackendSpec>| {
            if !out.contains(&b) {
                out.push(b);
            }
        };
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            if part == "ooo" {
                for platform in ["core2", "p4", "p3"] {
                    push(BackendSpec::Ooo(platform.into()), &mut out);
                }
            } else {
                push(BackendSpec::parse(part)?, &mut out);
            }
        }
        if out.is_empty() {
            return Err(EngineError::Spec(format!("no backends in `{s}`")));
        }
        Ok(out)
    }

    fn label(&self) -> String {
        match self {
            BackendSpec::Trips => "trips".into(),
            BackendSpec::Isa => "isa".into(),
            BackendSpec::Risc => "risc".into(),
            BackendSpec::Ooo(n) => n.clone(),
            BackendSpec::Ideal(n) => format!("ideal{n}"),
        }
    }
}

/// A named TRIPS timing configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigVariant {
    /// Label reported in rows (e.g. `prototype`, `dispatch_interval=1`).
    pub name: String,
    /// The configuration itself.
    pub cfg: TripsConfig,
}

impl ConfigVariant {
    /// The prototype configuration under its canonical label.
    pub fn prototype() -> ConfigVariant {
        ConfigVariant {
            name: "prototype".into(),
            cfg: TripsConfig::prototype(),
        }
    }

    /// The improved-predictor configuration under its canonical label.
    pub fn improved() -> ConfigVariant {
        ConfigVariant {
            name: "improved".into(),
            cfg: TripsConfig::improved_predictor(),
        }
    }

    /// Derives variants from `base` by assigning `values` to the named
    /// sweepable axis.
    ///
    /// # Errors
    /// [`EngineError::Spec`] for unknown axes or unparsable values.
    pub fn axis(
        base: &TripsConfig,
        axis: &str,
        values: &[&str],
    ) -> Result<Vec<ConfigVariant>, EngineError> {
        values
            .iter()
            .map(|v| {
                let mut cfg = base.clone();
                let parsed: u64 = v
                    .parse()
                    .map_err(|_| EngineError::Spec(format!("axis {axis}: bad value `{v}`")))?;
                let p = parsed as usize;
                match axis {
                    "dispatch_interval" => cfg.dispatch_interval = parsed,
                    "dispatch_bandwidth" => cfg.dispatch_bandwidth = parsed.max(1),
                    "fetch_latency" => cfg.fetch_latency = parsed,
                    "flush_penalty" => cfg.flush_penalty = parsed,
                    "commit_overhead" => cfg.commit_overhead = parsed,
                    "max_blocks_in_flight" => cfg.max_blocks_in_flight = p.max(1),
                    "l1d_bytes" => cfg.l1d_bytes = p,
                    "l2_bytes" => cfg.l2_bytes = p,
                    "l1d_hit" => cfg.l1d_hit = parsed,
                    "dram_lat" => cfg.dram_lat = parsed,
                    "exit_entries" => cfg.exit_entries = p.max(1),
                    "btb_entries" => cfg.btb_entries = p.max(1),
                    "ras_depth" => cfg.ras_depth = p,
                    "lwt_entries" => cfg.lwt_entries = p.max(1),
                    other => {
                        return Err(EngineError::Spec(format!(
                            "unknown sweep axis `{other}` (see ConfigVariant::axis for the list)"
                        )))
                    }
                }
                Ok(ConfigVariant {
                    name: format!("{axis}={v}"),
                    cfg,
                })
            })
            .collect()
    }
}

/// A declarative sweep: the engine expands and runs the cross product.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Workload names (must exist in the registry).
    pub workloads: Vec<String>,
    /// Problem scale.
    pub scale: Scale,
    /// Compile preset for the TRIPS side.
    pub opts: CompileOptions,
    /// Use the hand-optimized IR variants.
    pub hand: bool,
    /// TRIPS timing configurations (applies to the `Trips` backend).
    pub configs: Vec<ConfigVariant>,
    /// Machines to measure.
    pub backends: Vec<BackendSpec>,
    /// Memory image size for every run.
    pub mem: usize,
    /// Dynamic block budget for functional capture / cycle simulation.
    pub sim_budget: u64,
    /// Dynamic instruction budget for RISC/OoO runs.
    pub risc_budget: u64,
    /// Interval-sampling plan for the timing backends (`None` = full
    /// replay). Applies to `trips` and the OoO platforms; the functional
    /// backends (`isa`, `risc`) and the analytic `ideal` study have no
    /// cycle loop to sample and always run in full.
    pub sample: Option<SamplePlan>,
    /// Phase-classified sampling for the timing backends (`None` = off;
    /// mutually exclusive with [`SweepSpec::sample`]). Each timing point
    /// fetches the fitted [`trips_sample::PhasePlan`] for its workload's
    /// stream from the session (clustered once, store-backed) under the
    /// per-backend default [`PhaseSpec`]s; streams below the floor replay
    /// in full.
    pub phase: Option<PhaseK>,
    /// Live-point checkpoints for phased timing points (needs
    /// [`SweepSpec::phase`] to have any effect): the session captures the
    /// warmed machine state at each measured-window boundary once per
    /// (stream, plan, config), persists the set when a store is
    /// installed, and replays the measured windows as parallel jobs from
    /// the restored states — bit-identical to fast-forward-then-replay,
    /// with the O(stream) warming prefix paid once instead of per run.
    pub live_points: bool,
    /// Worker threads (0 = one per core).
    pub threads: usize,
}

impl SweepSpec {
    /// Checks the spec without measuring anything, so a caller can reject
    /// it before opening a store or running a maintenance pass;
    /// [`run_sweep`] runs the same checks.
    ///
    /// # Errors
    /// [`EngineError::Spec`] for no workloads, no backends, both sampling
    /// strategies at once, or a `trips` backend with no config, and
    /// [`EngineError::UnknownWorkload`] for a name the registry lacks,
    /// whichever comes first in workload order.
    pub fn validate(&self) -> Result<(), EngineError> {
        if self.workloads.is_empty() {
            return Err(EngineError::Spec("no workloads".into()));
        }
        if self.backends.is_empty() {
            return Err(EngineError::Spec("no backends".into()));
        }
        if self.sample.is_some() && self.phase.is_some() {
            return Err(EngineError::Spec(
                "--sample and --phase are mutually exclusive sampling strategies".into(),
            ));
        }
        for name in &self.workloads {
            if by_name(name).is_none() {
                return Err(EngineError::UnknownWorkload(name.clone()));
            }
            if self.configs.is_empty() && self.backends.contains(&BackendSpec::Trips) {
                return Err(EngineError::Spec(
                    "trips backend needs at least one config".into(),
                ));
            }
        }
        Ok(())
    }
}

impl Default for SweepSpec {
    fn default() -> Self {
        SweepSpec {
            workloads: vec!["vadd".into(), "autocor".into()],
            scale: Scale::Test,
            opts: CompileOptions::o1(),
            hand: false,
            configs: vec![ConfigVariant::prototype(), ConfigVariant::improved()],
            backends: vec![BackendSpec::Trips],
            mem: 1 << 22,
            sim_budget: 1_000_000,
            risc_budget: 400_000_000,
            sample: None,
            phase: None,
            live_points: false,
            threads: 0,
        }
    }
}

/// Backend-specific detailed statistics riding along with a [`SweepRow`].
///
/// The flat row columns are what the CLI renders; the figures need the full
/// underlying statistics (block composition, storage accesses, window
/// occupancy), so each measurement keeps them here. Deliberately *not*
/// serialized — JSON/CSV output stays flat and stable.
#[derive(Debug, Clone, Default)]
pub enum RowDetail {
    /// No extended statistics (ideal backend).
    #[default]
    None,
    /// Functional TRIPS ISA statistics, plus the compiled program for
    /// code-size accounting (mirrors the experiment harness's
    /// `IsaMeasurement`).
    Isa {
        /// ISA-level statistics of the functional run.
        stats: Arc<trips_isa::IsaStats>,
        /// The compiled TRIPS program the run executed.
        compiled: Arc<CompiledProgram>,
    },
    /// Functional RISC baseline statistics (from the recorded stream).
    Risc(Arc<trips_risc::RiscStats>),
    /// TRIPS cycle-level statistics.
    Trips(Arc<trips_sim::SimStats>),
    /// Out-of-order reference platform statistics.
    Ooo(trips_ooo::OooStats),
}

/// One measurement result.
#[derive(Debug, Clone, Default)]
pub struct SweepRow {
    /// Workload name.
    pub workload: String,
    /// Backend label (`trips`, `isa`, `risc`, `core2`, ...).
    pub backend: String,
    /// Configuration label (TRIPS variants; `-` for other backends).
    pub config: String,
    /// Cycles (the functional backends have no cycle model: `risc` reports
    /// retired instructions here, `isa` fetched TRIPS instructions).
    pub cycles: u64,
    /// Executed-instruction IPC (0 for backends without a cycle model).
    pub ipc: f64,
    /// Dynamic blocks committed (TRIPS backends).
    pub blocks: u64,
    /// Mispredict flushes (TRIPS cycle model).
    pub mispredict_flushes: u64,
    /// Load-order violation flushes (TRIPS cycle model).
    pub load_flushes: u64,
    /// L1 D-cache misses (TRIPS cycle model).
    pub l1d_misses: u64,
    /// Average instructions in flight (TRIPS cycle model).
    pub avg_window: f64,
    /// Whether this point interval-sampled its stream.
    pub sampled: bool,
    /// Fraction of stream units timed in detail (1.0 for full runs and
    /// backends without a cycle loop).
    pub detailed_frac: f64,
    /// Whole-run cycle estimate (extrapolated when sampled; equals
    /// `cycles` otherwise).
    pub est_cycles: u64,
    /// Behavior clusters of the phase plan this point measured under (0
    /// for full replay, systematic sampling, and streams below the phase
    /// floor).
    pub phase_k: u32,
    /// How this point resolved: `ok` (first attempt), `retried`
    /// (succeeded after at least one failed attempt — fault injection,
    /// a job panic, or a transient store error), or `failed` (all
    /// attempts exhausted; the measurement columns are zero and the
    /// error text is in [`SweepReport::errors`]).
    pub status: String,
    /// Wall-clock milliseconds this point took (includes any cache misses
    /// it had to fill).
    pub wall_ms: f64,
    /// Where the wall-clock and I/O went: per-row cost attribution
    /// (tier hit path, span-charged nanos per cost kind, store bytes,
    /// pool queue latency). Charged by every thread that works for this
    /// point — so the nanos are busy time summed over threads and can
    /// exceed `wall_ms` — never from memoized artifacts, so rows stay
    /// byte-identical (timing fields aside) with observability on or off.
    pub cost: trips_obs::RowCost,
    /// Full backend statistics (not serialized).
    pub detail: RowDetail,
}

impl SweepRow {
    /// Every rendered column in CSV and JSON order — name, JSON value and
    /// CSV text — ending with the cost columns; `detail` stays out.
    fn columns(&self) -> Vec<(&'static str, Value, String)> {
        let int = |v: u64| (Value::U64(v), v.to_string());
        let real = |v: f64, digits: usize| (Value::F64(v), format!("{v:.digits$}"));
        let text = |v: &str| (Value::str(v), v.to_string());
        let flag = |v: bool| (Value::Bool(v), v.to_string());
        let head = [
            ("workload", text(&self.workload)),
            ("backend", text(&self.backend)),
            ("config", text(&self.config)),
            ("cycles", int(self.cycles)),
            ("ipc", real(self.ipc, 4)),
            ("blocks", int(self.blocks)),
            ("mispredict_flushes", int(self.mispredict_flushes)),
            ("load_flushes", int(self.load_flushes)),
            ("l1d_misses", int(self.l1d_misses)),
            ("avg_window", real(self.avg_window, 2)),
            ("sampled", flag(self.sampled)),
            ("detailed_frac", real(self.detailed_frac, 4)),
            ("est_cycles", int(self.est_cycles)),
            ("phase_k", int(self.phase_k.into())),
            ("status", text(&self.status)),
            ("wall_ms", real(self.wall_ms, 3)),
            ("tier", text(&self.cost.tier)),
        ];
        let cost = self.cost.columns().map(|(name, v)| (name, int(v)));
        head.into_iter()
            .chain(cost)
            .map(|(name, (json, csv))| (name, json, csv))
            .collect()
    }
}

impl Serialize for SweepRow {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let columns = self.columns().into_iter();
        let m = columns.map(|(name, json, _)| (Value::str(name), json));
        serializer.serialize_value(Value::Map(m.collect()))
    }
}

/// Everything a sweep produced.
#[derive(Debug, Clone, Serialize)]
pub struct SweepReport {
    /// Per-point measurements, in point order. Every attempted point has
    /// a row; points whose every attempt failed come back as zeroed rows
    /// with [`SweepRow::status`] `failed` so downstream tooling sees the
    /// full cross product.
    pub rows: Vec<SweepRow>,
    /// Failed points, as `point-label: error` strings.
    pub errors: Vec<String>,
    /// Total points attempted.
    pub points: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Total wall-clock seconds.
    pub wall_s: f64,
    /// Throughput: successful measurements per second of wall time.
    pub measurements_per_sec: f64,
    /// Artifact-cache effectiveness.
    pub cache: crate::cache::CacheStats,
    /// Sum of every row's [`SweepRow::cost`] (tier = the deepest any row
    /// went): the sweep's cost-attribution roll-up.
    pub cost_totals: trips_obs::RowCost,
}

struct Point {
    workload: Workload,
    backend: BackendSpec,
    config: Option<ConfigVariant>,
}

fn point_label(p: &Point) -> String {
    match &p.config {
        Some(c) => format!("{}/{}/{}", p.workload.name, p.backend.label(), c.name),
        None => format!("{}/{}", p.workload.name, p.backend.label()),
    }
}

/// The zeroed row of point `p` with `status`: what a measurement starts
/// from, and the stand-in for a point whose every attempt failed, so the
/// cross product stays complete and the failure is visible in-band
/// (`status` column) as well as in [`SweepReport::errors`].
fn blank_row(p: &Point, status: &str) -> SweepRow {
    SweepRow {
        workload: p.workload.name.to_string(),
        backend: p.backend.label(),
        config: p
            .config
            .as_ref()
            .map_or_else(|| "-".into(), |c| c.name.clone()),
        status: status.into(),
        ..SweepRow::default()
    }
}

fn expand(spec: &SweepSpec) -> Result<Vec<Point>, EngineError> {
    spec.validate()?;
    let mut points = Vec::new();
    for name in &spec.workloads {
        let w = by_name(name).expect("validated workload");
        for b in &spec.backends {
            match b {
                BackendSpec::Trips => {
                    for c in &spec.configs {
                        points.push(Point {
                            workload: w.clone(),
                            backend: b.clone(),
                            config: Some(c.clone()),
                        });
                    }
                }
                _ => points.push(Point {
                    workload: w.clone(),
                    backend: b.clone(),
                    config: None,
                }),
            }
        }
    }
    Ok(points)
}

fn measure(p: &Point, spec: &SweepSpec, session: &Session) -> Result<SweepRow, EngineError> {
    let t0 = Instant::now();
    let _span = trips_obs::span_with("sweep.point", || point_label(p));
    let cost_scope = trips_obs::cost::begin_row();
    let mode = ReplayMode::from_plan(spec.sample);
    let mut row = SweepRow {
        detailed_frac: 1.0,
        ..blank_row(p, "ok")
    };
    match &p.backend {
        BackendSpec::Trips => {
            let cfg = &p.config.as_ref().expect("trips point carries a config").cfg;
            // Phase-classified points fetch the fitted plan for this
            // workload's stream from the session (clustered once per
            // process, once per store); short streams come back covering
            // and normalize to full replay.
            let mode = match spec.phase {
                Some(k) => {
                    let plan = session.trips_phase_plan(
                        &p.workload,
                        spec.scale,
                        &spec.opts,
                        spec.hand,
                        spec.mem,
                        spec.sim_budget,
                        &PhaseSpec::trips(k),
                    )?;
                    row.phase_k = if plan.covers_everything() { 0 } else { plan.k };
                    ReplayMode::Phased((*plan).clone())
                }
                None => mode,
            };
            let r = session.replayed(
                &p.workload,
                spec.scale,
                &spec.opts,
                spec.hand,
                cfg,
                spec.mem,
                spec.sim_budget,
                &mode,
            )?;
            let s = r.stats.clone();
            row.cycles = s.cycles;
            row.ipc = s.ipc_executed();
            row.blocks = s.blocks;
            row.mispredict_flushes = s.mispredict_flushes;
            row.load_flushes = s.load_flushes;
            row.l1d_misses = s.l1d_misses;
            row.avg_window = s.avg_window_insts();
            row.sampled = s.sampled;
            row.detailed_frac = s.detailed_frac();
            row.est_cycles = s.est_cycles;
            row.detail = RowDetail::Trips(Arc::new(s));
        }
        BackendSpec::Isa => {
            let compiled = session.compiled(&p.workload, spec.scale, &spec.opts, spec.hand)?;
            let out = session.isa_outcome(
                &p.workload,
                spec.scale,
                &spec.opts,
                spec.hand,
                spec.mem,
                spec.sim_budget,
            )?;
            row.cycles = out.stats.fetched;
            row.blocks = out.stats.blocks_executed;
            row.est_cycles = row.cycles;
            row.detail = RowDetail::Isa {
                stats: Arc::new(out.stats.clone()),
                compiled,
            };
        }
        BackendSpec::Risc => {
            // Instruction counts come straight off the recorded stream: a
            // warm store serves this row with zero functional execution.
            let trace = session.risc_trace(
                &p.workload,
                spec.scale,
                &CompileOptions::gcc_ref(),
                spec.mem,
                spec.risc_budget,
            )?;
            row.cycles = trace.stats.insts;
            row.est_cycles = row.cycles;
            row.detail = RowDetail::Risc(Arc::new(trace.stats.clone()));
        }
        BackendSpec::Ooo(name) => {
            let cfg = match name.as_str() {
                "core2" => trips_ooo::core2(),
                "p4" => trips_ooo::pentium4(),
                _ => trips_ooo::pentium3(),
            };
            let mode = match spec.phase {
                Some(k) => {
                    let plan = session.ooo_phase_plan(
                        &p.workload,
                        spec.scale,
                        &CompileOptions::gcc_ref(),
                        spec.mem,
                        spec.risc_budget,
                        &PhaseSpec::ooo(k),
                    )?;
                    row.phase_k = if plan.covers_everything() { 0 } else { plan.k };
                    ReplayMode::Phased((*plan).clone())
                }
                None => mode,
            };
            let out = session.ooo_replayed(
                &p.workload,
                spec.scale,
                &CompileOptions::gcc_ref(),
                &cfg,
                spec.mem,
                spec.risc_budget,
                &mode,
            )?;
            row.cycles = out.stats.cycles;
            row.ipc = out.stats.ipc();
            row.sampled = out.stats.sampled;
            row.detailed_frac = out.stats.detailed_frac();
            row.est_cycles = out.stats.est_cycles;
            row.detail = RowDetail::Ooo(out.stats.clone());
        }
        BackendSpec::Ideal(which) => {
            let icfg = match which.as_str() {
                "1k" => trips_ideal::IdealConfig::window_1k(),
                "1k0" => trips_ideal::IdealConfig::window_1k_free_dispatch(),
                _ => trips_ideal::IdealConfig::window_128k(),
            };
            let compiled = session.compiled(&p.workload, spec.scale, &spec.opts, spec.hand)?;
            let r = trips_ideal::analyze_with_budget(&compiled, icfg, spec.mem, spec.sim_budget)
                .map_err(|e| EngineError::Capture(format!("{} (ideal): {e}", p.workload.name)))?;
            row.cycles = r.cycles;
            row.ipc = r.ipc;
            row.est_cycles = r.cycles;
        }
    }
    row.cost = cost_scope.finish();
    row.wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    Ok(row)
}

/// Expands and runs a sweep on the pool.
///
/// # Errors
/// [`EngineError::Spec`]/[`EngineError::UnknownWorkload`] for a malformed
/// spec. Per-point failures do not abort the sweep; they are collected in
/// [`SweepReport::errors`].
pub fn run_sweep(spec: &SweepSpec, session: &Session) -> Result<SweepReport, EngineError> {
    let _span = trips_obs::span("sweep.run");
    // Pre-register the headline series so a `--metrics` snapshot contains
    // them even when this particular run never exercised the event
    // (e.g. a cold run has zero disk hits, a store-less run writes no
    // bytes). The pool registers its own series the same way.
    session.register_series();
    for series in [
        "store_read_bytes_total",
        "store_write_bytes_total",
        "replay_events_total{core=\"trips\"}",
        "replay_events_total{core=\"ooo\"}",
        "chaos_injected_total",
        "store_retries_total",
        "store_quarantined_total",
        "pool_job_panics_total",
    ] {
        let _ = trips_obs::counter(series);
    }
    // Window jobs run on a nested pool inside each point's job; give them
    // the sweep's own thread budget (the pool clamps to the window count,
    // so small plans do not over-spawn). Every spec sets the switch, so a
    // live-point sweep never leaks into a later plain one.
    session.set_live_points(spec.live_points.then_some(spec.threads));
    let points = expand(spec)?;
    let n = points.len();
    let threads = effective_threads(spec.threads, n);
    let t0 = Instant::now();
    // Points run caught (a panicking job fails its point, not the sweep)
    // and failed points get up to two more attempts: chaos-injected
    // faults and other transient store errors are evicted from the memo
    // maps on failure, so a retry re-derives the artifact instead of
    // replaying the cached error.
    const ATTEMPTS: usize = 3;
    let mut slots: Vec<Option<SweepRow>> = (0..n).map(|_| None).collect();
    let mut failures: Vec<(usize, String)> = Vec::new();
    let mut pending: Vec<usize> = (0..n).collect();
    for attempt in 0..ATTEMPTS {
        if pending.is_empty() {
            break;
        }
        if attempt > 0 {
            trips_obs::log!(
                trips_obs::Level::Warn,
                "sweep",
                "retrying {} failed point(s), attempt {}/{ATTEMPTS}",
                pending.len(),
                attempt + 1
            );
        }
        let points_ref = &points;
        let results = parallel_map_catch(pending.clone(), threads, move |i| {
            let p = &points_ref[i];
            let label = point_label(p);
            measure(p, spec, session).map_err(|e| format!("{label}: {e}"))
        });
        failures.clear();
        let mut next = Vec::new();
        for (idx, res) in pending.iter().copied().zip(results) {
            match res {
                Ok(Ok(mut row)) => {
                    if attempt > 0 {
                        row.status = "retried".into();
                    }
                    slots[idx] = Some(row);
                }
                Ok(Err(e)) => {
                    failures.push((idx, e));
                    next.push(idx);
                }
                Err(panic) => {
                    failures.push((idx, format!("{}: {panic}", point_label(&points[idx]))));
                    next.push(idx);
                }
            }
        }
        pending = next;
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let mut errors = Vec::new();
    for (idx, e) in failures.drain(..) {
        errors.push(e);
        slots[idx] = Some(blank_row(&points[idx], "failed"));
    }
    let rows: Vec<SweepRow> = slots
        .into_iter()
        .map(|s| s.expect("every point resolves to a row"))
        .collect();
    let mut cost_totals = trips_obs::RowCost::default();
    let mut ok = 0usize;
    for row in &rows {
        if row.status != "failed" {
            ok += 1;
            cost_totals.absorb(&row.cost);
        }
    }
    let measurements_per_sec = if wall_s > 0.0 {
        ok as f64 / wall_s
    } else {
        0.0
    };
    Ok(SweepReport {
        points: n,
        threads,
        wall_s,
        measurements_per_sec,
        cache: session.cache_stats(),
        cost_totals,
        rows,
        errors,
    })
}

/// Renders rows as CSV (header + one line per row).
pub fn to_csv(rows: &[SweepRow]) -> String {
    // Columns 1..=15 are deterministic; `wall_ms` and the cost columns
    // after it may differ between otherwise identical runs (timings, and
    // tier/store-bytes between cold and warm stores).
    let line = |cells: Vec<String>| cells.join(",") + "\n";
    let names = SweepRow::default().columns().into_iter();
    let mut out = line(names.map(|(name, ..)| name.to_string()).collect());
    for r in rows {
        out.push_str(&line(
            r.columns().into_iter().map(|(.., csv)| csv).collect(),
        ));
    }
    out
}

/// Renders rows as JSON lines (one object per row).
pub fn to_json_lines(rows: &[SweepRow]) -> String {
    let mut out = String::new();
    for r in rows {
        out.push_str(&serde::json::to_string(r));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_expands_to_a_cross_product() {
        let spec = SweepSpec::default();
        let points = expand(&spec).unwrap();
        assert_eq!(points.len(), spec.workloads.len() * spec.configs.len());
    }

    #[test]
    fn axis_variants_modify_one_knob() {
        let vs = ConfigVariant::axis(&TripsConfig::prototype(), "dispatch_interval", &["1", "8"])
            .unwrap();
        assert_eq!(vs.len(), 2);
        assert_eq!(vs[0].cfg.dispatch_interval, 1);
        assert_eq!(vs[1].cfg.dispatch_interval, 8);
        assert_eq!(vs[0].cfg.l1d_bytes, TripsConfig::prototype().l1d_bytes);
        assert!(ConfigVariant::axis(&TripsConfig::prototype(), "nonsense", &["1"]).is_err());
        assert!(ConfigVariant::axis(&TripsConfig::prototype(), "l1d_bytes", &["many"]).is_err());
    }

    #[test]
    fn unknown_workload_is_a_spec_error() {
        let spec = SweepSpec {
            workloads: vec!["nope".into()],
            ..SweepSpec::default()
        };
        assert!(matches!(
            run_sweep(&spec, &Session::new()),
            Err(EngineError::UnknownWorkload(_))
        ));
    }

    #[test]
    fn small_sweep_runs_in_parallel_with_shared_capture() {
        let spec = SweepSpec {
            workloads: vec!["vadd".into(), "autocor".into()],
            configs: vec![
                ConfigVariant::prototype(),
                ConfigVariant::improved(),
                ConfigVariant::axis(&TripsConfig::prototype(), "dispatch_interval", &["1"])
                    .unwrap()
                    .remove(0),
                ConfigVariant::axis(&TripsConfig::prototype(), "flush_penalty", &["4"])
                    .unwrap()
                    .remove(0),
            ],
            threads: 4,
            ..SweepSpec::default()
        };
        let session = Session::new();
        let report = run_sweep(&spec, &session).unwrap();
        assert_eq!(report.points, 8);
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert_eq!(report.rows.len(), 8);
        // One functional capture per workload, replayed across all configs.
        assert_eq!(report.cache.trace_misses, 2, "one capture per workload");
        assert!(
            report.cache.trace_hits >= 6,
            "replays must share the captures"
        );
        for row in &report.rows {
            assert!(row.cycles > 0, "{row:?}");
        }
        // A sweep axis must actually move the result.
        let proto = report
            .rows
            .iter()
            .find(|r| r.config == "prototype" && r.workload == "vadd")
            .unwrap();
        let di1 = report
            .rows
            .iter()
            .find(|r| r.config == "dispatch_interval=1" && r.workload == "vadd")
            .unwrap();
        assert_ne!(proto.cycles, di1.cycles);
    }

    #[test]
    fn functional_backends_share_one_recorded_execution() {
        let spec = SweepSpec {
            workloads: vec!["vadd".into()],
            configs: Vec::new(),
            backends: vec![
                BackendSpec::Isa,
                BackendSpec::Risc,
                BackendSpec::Ooo("core2".into()),
                BackendSpec::Ooo("p3".into()),
            ],
            ..SweepSpec::default()
        };
        let session = Session::new();
        let report = run_sweep(&spec, &session).unwrap();
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert_eq!(report.rows.len(), 4);
        for row in &report.rows {
            match (row.backend.as_str(), &row.detail) {
                ("isa", crate::sweep::RowDetail::Isa { stats, .. }) => {
                    assert!(stats.fetched > 0);
                    assert_eq!(row.cycles, stats.fetched);
                }
                ("risc", crate::sweep::RowDetail::Risc(stats)) => {
                    assert!(stats.insts > 0);
                    assert_eq!(row.cycles, stats.insts);
                }
                ("core2" | "p3", crate::sweep::RowDetail::Ooo(stats)) => {
                    assert_eq!(row.cycles, stats.cycles);
                    assert!(stats.cycles > 0);
                }
                other => panic!("unexpected row/detail pairing: {other:?}"),
            }
        }
        // The risc row and both OoO platforms replay one recorded stream.
        let c = report.cache;
        assert_eq!(c.risc_captures, 1, "one functional RISC execution");
        assert!(
            c.rtrace_hits >= 2,
            "OoO points must reuse the stream: {c:?}"
        );
        // And the `ooo` group label expands to the three platforms.
        let group = BackendSpec::parse_group("ooo").unwrap();
        assert_eq!(group.len(), 3);
        assert!(BackendSpec::parse_group("isa").unwrap() == vec![BackendSpec::Isa]);
        assert!(BackendSpec::parse("nonsense").is_err());
    }

    #[test]
    fn parse_group_expands_and_deduplicates() {
        // `ooo` already names core2; the explicit repeat must not double-run.
        let g = BackendSpec::parse_group("ooo,core2").unwrap();
        assert_eq!(g.len(), 3);
        assert_eq!(BackendSpec::parse_group("core2,core2").unwrap().len(), 1);
        let g = BackendSpec::parse_group("isa,risc,ooo").unwrap();
        assert_eq!(
            g,
            vec![
                BackendSpec::Isa,
                BackendSpec::Risc,
                BackendSpec::Ooo("core2".into()),
                BackendSpec::Ooo("p4".into()),
                BackendSpec::Ooo("p3".into()),
            ]
        );
        assert_eq!(BackendSpec::parse_group("trips").unwrap().len(), 1);
        assert!(BackendSpec::parse_group("").is_err());
        assert!(BackendSpec::parse_group("ooo,nonsense").is_err());
    }

    #[test]
    fn sampled_sweep_rows_carry_sampling_fields() {
        let spec = SweepSpec {
            workloads: vec!["vadd".into()],
            configs: vec![ConfigVariant::prototype()],
            backends: vec![BackendSpec::Trips, BackendSpec::Ooo("core2".into())],
            sample: Some(SamplePlan::new(8, 8, 32).unwrap()),
            ..SweepSpec::default()
        };
        let session = Session::new();
        let report = run_sweep(&spec, &session).unwrap();
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert_eq!(report.rows.len(), 2);
        for row in &report.rows {
            assert!(row.sampled, "{row:?}");
            // Test-scale streams are short, so the fully measured boundary
            // strata dominate — but some units must still be skipped.
            assert!(row.detailed_frac < 1.0, "{row:?}");
            assert!(row.est_cycles >= row.cycles, "{row:?}");
        }
        // The same points measured in full are distinct artifacts: rows
        // come back unsampled, never served from the sampled entries.
        let full = run_sweep(
            &SweepSpec {
                sample: None,
                ..spec.clone()
            },
            &session,
        )
        .unwrap();
        assert!(full.errors.is_empty(), "{:?}", full.errors);
        for row in &full.rows {
            assert!(!row.sampled, "{row:?}");
            assert_eq!(row.est_cycles, row.cycles);
            assert_eq!(row.detailed_frac, 1.0);
        }
        let c = session.cache_stats();
        assert_eq!(c.replay_misses, 2, "full and sampled TRIPS replays: {c:?}");
        assert_eq!(
            c.ooo_replay_misses, 2,
            "full and sampled OoO replays: {c:?}"
        );
        // Both renderings carry the sampling columns.
        let csv = to_csv(&report.rows);
        assert!(csv
            .lines()
            .next()
            .unwrap()
            .contains("sampled,detailed_frac,est_cycles"));
        assert!(to_json_lines(&report.rows).contains("\"sampled\":true"));
    }

    #[test]
    fn live_point_sweep_is_identical_and_captures_checkpoints() {
        // `conv` at Ref scale is the smallest bundled stream whose fitted
        // plan actually classifies (k > 0) under the default TRIPS spec.
        let base = SweepSpec {
            workloads: vec!["conv".into()],
            scale: Scale::Ref,
            configs: vec![ConfigVariant::prototype()],
            backends: vec![BackendSpec::Trips],
            phase: Some(PhaseK::Auto),
            threads: 2,
            ..SweepSpec::default()
        };
        let plain = run_sweep(&base, &Session::new()).unwrap();
        assert!(plain.errors.is_empty(), "{:?}", plain.errors);
        let session = Session::new();
        let live = run_sweep(
            &SweepSpec {
                live_points: true,
                ..base
            },
            &session,
        )
        .unwrap();
        assert!(live.errors.is_empty(), "{:?}", live.errors);
        let (a, b) = (&plain.rows[0], &live.rows[0]);
        assert!(b.phase_k > 0, "Ref-scale stream must classify: {b:?}");
        assert_eq!(
            (a.cycles, a.est_cycles, a.blocks, a.phase_k),
            (b.cycles, b.est_cycles, b.blocks, b.phase_k),
            "live-point capture must be bit-identical to the plain phased replay"
        );
        let c = session.cache_stats();
        assert_eq!(c.livepoint_captures, 1, "{c:?}");
        // Renderings carry the checkpoint cost columns.
        let csv = to_csv(&live.rows);
        assert!(csv
            .lines()
            .next()
            .unwrap()
            .contains("extrapolate_ns,checkpoint_save_ns,checkpoint_restore_ns,queue_ns"));
        assert!(to_json_lines(&live.rows).contains("\"checkpoint_save_ns\""));
    }

    #[test]
    fn live_point_switch_follows_every_sweep() {
        let base = SweepSpec {
            workloads: vec!["conv".into()],
            scale: Scale::Ref,
            configs: vec![ConfigVariant::prototype()],
            backends: vec![BackendSpec::Trips],
            phase: Some(PhaseK::Auto),
            threads: 2,
            live_points: true,
            ..SweepSpec::default()
        };
        let session = Session::new();
        let live = run_sweep(&base, &session).unwrap();
        assert!(live.errors.is_empty(), "{:?}", live.errors);
        assert_eq!(session.live_points(), Some(2));
        let misses = session.cache_stats().livepoint_misses;
        assert!(misses > 0, "the live sweep must use the tier");
        // A later plain sweep on the same session, on a configuration the
        // tier has not seen, must not take the live-point path.
        let plain = run_sweep(
            &SweepSpec {
                configs: vec![ConfigVariant::improved()],
                live_points: false,
                ..base
            },
            &session,
        )
        .unwrap();
        assert!(plain.errors.is_empty(), "{:?}", plain.errors);
        assert!(plain.rows[0].phase_k > 0, "{:?}", plain.rows[0]);
        assert_eq!(session.live_points(), None);
        assert_eq!(session.cache_stats().livepoint_misses, misses);
    }

    #[test]
    fn warm_live_point_rows_are_charged_for_their_window_jobs_and_decode() {
        let dir = std::env::temp_dir().join(format!(
            "trips-sweep-charge-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        // Two threads: the window jobs of each warm row run on the nested
        // pool's worker threads, never inline on the row's own thread.
        let spec = SweepSpec {
            workloads: vec!["conv".into()],
            scale: Scale::Ref,
            configs: vec![ConfigVariant::prototype()],
            backends: vec![BackendSpec::Trips, BackendSpec::Ooo("core2".into())],
            phase: Some(PhaseK::Auto),
            live_points: true,
            threads: 2,
            ..SweepSpec::default()
        };
        let sweep = || {
            let store = crate::store::TraceStore::open(&dir).unwrap();
            let report = run_sweep(&spec, &Session::with_store(store)).unwrap();
            assert!(report.errors.is_empty(), "{:?}", report.errors);
            report
        };
        let _cold = sweep();
        let warm = sweep();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(warm.rows.iter().any(|r| r.phase_k > 0), "{:?}", warm.rows);
        for row in warm.rows.iter().filter(|r| r.phase_k > 0) {
            let c = &row.cost;
            assert!(c.detailed_ns > 0, "window replay uncharged: {row:?}");
            assert!(c.checkpoint_restore_ns > 0, "restore uncharged: {row:?}");
        }
        assert!(warm.rows.iter().any(|r| r.cost.store_read_bytes > 0));
        for row in warm.rows.iter().filter(|r| r.cost.store_read_bytes > 0) {
            assert!(row.cost.store_decode_ns > 0, "decode uncharged: {row:?}");
        }
    }

    #[test]
    fn csv_and_json_renderings_cover_all_rows() {
        let spec = SweepSpec {
            workloads: vec!["vadd".into()],
            ..SweepSpec::default()
        };
        let report = run_sweep(&spec, &Session::new()).unwrap();
        let csv = to_csv(&report.rows);
        assert_eq!(csv.lines().count(), report.rows.len() + 1);
        let jsonl = to_json_lines(&report.rows);
        assert_eq!(jsonl.lines().count(), report.rows.len());
        assert!(jsonl.contains("\"workload\":\"vadd\""));
    }
}
