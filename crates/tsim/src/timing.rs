//! The block-pipeline timing engine.
//!
//! Replays the functional interpreter's per-block dataflow traces against
//! the machine's timing state. Blocks overlap: up to eight occupy the window
//! (one architectural + seven speculative); each new block starts fetching
//! once the predictor names it, a window slot frees up, and the distributed
//! fetch protocol's throughput allows (§5). Mispredictions and load-order
//! violations flush and restart the pipeline at the offending point.
//!
//! The engine has three per-block paths, one per [`trips_sample::Phase`]:
//! `Timing::time_block` (the detailed model above),
//! `Timing::time_block_discarded` (the same with its counters discarded)
//! and `Timing::warm_block` (functional warming only: the I-cache, data
//! hierarchy, next-block predictor and load-wait table see the block, but
//! no cycles are accounted). [`TsimCore`] walks a recorded [`TraceLog`]
//! through them as a [`trips_sample::TimingCore`], so full, sampled and
//! phased replay, live-point capture and restored windows are the shared
//! drivers of `trips-sample`.

use crate::cache::{BankPorts, BankPortsSnapshot, Cache, CacheSnapshot};
use crate::config::TripsConfig;
use crate::opn::{Node, Opn, OpnSnapshot, TrafficClass};
use crate::predictor::{
    ExitKind, LoadWaitSnapshot, LoadWaitTable, NextBlockPredictor, PredictorSnapshot,
};
use crate::stats::SimStats;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use trips_compiler::CompiledProgram;
use trips_ir::Program;
use trips_isa::block::ExitTarget;
use trips_isa::interp::{BlockTrace, TraceSrc, TripsExecError};
use trips_isa::limits::NUM_REGS;
use trips_isa::{TOpcode, TraceLog};
use trips_sample::{
    Phase, PhasePlan, PhaseWindow, ReplayMode, SampleSummary, TimingCore, WindowMeasure,
};

/// Simulation failures (functional execution errors surface unchanged).
#[derive(Debug)]
pub enum SimError {
    /// The functional oracle failed.
    Exec(TripsExecError),
    /// A stored trace log failed validation against the program.
    Trace(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Exec(e) => write!(f, "functional execution failed: {e}"),
            SimError::Trace(e) => write!(f, "trace replay rejected: {e}"),
        }
    }
}

impl Error for SimError {}

/// Result of a timing run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Program return value (from the functional oracle).
    pub return_value: u64,
    /// All counters.
    pub stats: SimStats,
}

/// Simulates `compiled` against its optimized IR's data image.
///
/// # Errors
/// [`SimError::Exec`] when the program itself faults.
pub fn simulate(
    compiled: &CompiledProgram,
    cfg: &TripsConfig,
    mem_size: usize,
) -> Result<SimResult, SimError> {
    simulate_with_budget(compiled, cfg, mem_size, u64::MAX)
}

/// [`simulate`] with a dynamic block budget (for sweeps).
///
/// # Errors
/// See [`simulate`].
pub fn simulate_with_budget(
    compiled: &CompiledProgram,
    cfg: &TripsConfig,
    mem_size: usize,
    max_blocks: u64,
) -> Result<SimResult, SimError> {
    let ir: &Program = &compiled.opt_ir;
    let tp = &compiled.trips;
    let mut t = Timing::new(compiled, cfg);
    let outcome =
        trips_isa::interp::run_program_traced(tp, ir, mem_size, max_blocks, |b, trace| {
            t.time_block(b, trace)
        })
        .map_err(SimError::Exec)?;
    let mut stats = t.finish();
    stats.isa = outcome.stats;
    Ok(SimResult {
        return_value: outcome.return_value,
        stats,
    })
}

/// Replays a captured [`TraceLog`] against `cfg` under `mode`
/// ([`trips_sample::replay`]) instead of re-running the functional
/// interpreter. A `Full` replay is bit-identical to
/// [`simulate_with_budget`] under the capture's budget.
///
/// # Errors
/// [`SimError::Trace`] when the log does not match `compiled`, or a phase
/// plan was fitted to another stream.
pub fn replay_trace_mode(
    compiled: &CompiledProgram,
    cfg: &TripsConfig,
    log: &TraceLog,
    mode: &ReplayMode,
) -> Result<SimResult, SimError> {
    log.validate(&compiled.trips).map_err(SimError::Trace)?;
    trips_sample::replay(TsimCore::new(compiled, cfg, log), mode)
}

/// A phased replay that also captures a live-point at each window's warm
/// start ([`trips_sample::capture_phased`]).
///
/// # Errors
/// See [`replay_trace_mode`]; also a plan that covers everything.
pub fn replay_trace_phased_capture(
    compiled: &CompiledProgram,
    cfg: &TripsConfig,
    log: &TraceLog,
    plan: &PhasePlan,
) -> Result<(SimResult, Vec<TsimSnapshot>), SimError> {
    log.validate(&compiled.trips).map_err(SimError::Trace)?;
    trips_sample::capture_phased(TsimCore::new(compiled, cfg, log), plan)
}

/// Replays one plan window from its live-point
/// ([`trips_sample::replay_window`]); `log` is trusted to match
/// `compiled`.
///
/// # Errors
/// [`SimError::Trace`] for a malformed window, a foreign snapshot or a
/// shape index outside the log.
pub fn replay_trips_window(
    compiled: &CompiledProgram,
    cfg: &TripsConfig,
    log: &TraceLog,
    window: &PhaseWindow,
    snap: &TsimSnapshot,
) -> Result<WindowMeasure<SimStats>, SimError> {
    trips_sample::replay_window(TsimCore::new(compiled, cfg, log), window, snap)
}

/// The TRIPS timing machine walking one recorded block trace: the
/// [`TimingCore`] behind every replay driver. Windows are metered on the
/// commit clock.
pub struct TsimCore<'a> {
    t: Timing<'a>,
    log: &'a TraceLog,
    /// Next stream unit.
    pos: u64,
}

impl<'a> TsimCore<'a> {
    /// A fresh machine under `cfg` at the start of `log`, which is trusted
    /// to match `compiled` (see [`TraceLog::validate`]).
    #[must_use]
    pub fn new(compiled: &'a CompiledProgram, cfg: &TripsConfig, log: &'a TraceLog) -> Self {
        TsimCore {
            t: Timing::new(compiled, cfg),
            log,
            pos: 0,
        }
    }
}

impl TimingCore for TsimCore<'_> {
    type Snapshot = TsimSnapshot;
    type Stats = SimStats;
    type Output = SimResult;
    type Error = SimError;
    const LABEL: &'static str = "trips";

    fn units(&self) -> u64 {
        self.log.seq.len() as u64
    }

    fn clock(&self) -> u64 {
        self.t.last_commit
    }

    #[inline]
    fn step(&mut self, phase: Phase) -> Result<(), SimError> {
        let &(bidx, sidx) = self
            .log
            .seq
            .get(self.pos as usize)
            .ok_or_else(|| SimError::Trace(format!("no block at unit {}", self.pos)))?;
        let trace = self
            .log
            .shapes
            .get(sidx as usize)
            .ok_or_else(|| SimError::Trace(format!("shape index {sidx} out of range")))?;
        self.pos += 1;
        match phase {
            Phase::Warm => self.t.warm_block(bidx, trace),
            Phase::TimedWarm => self.t.time_block_discarded(bidx, trace),
            Phase::Detailed => self.t.time_block(bidx, trace),
        }
        Ok(())
    }

    fn snapshot(&self) -> TsimSnapshot {
        self.t.snapshot(self.pos)
    }

    fn restore(&mut self, snap: &TsimSnapshot) -> Result<u64, SimError> {
        self.t.restore(snap).map_err(SimError::Trace)?;
        self.pos = snap.unit;
        Ok(snap.unit)
    }

    fn window_stats(self) -> SimStats {
        self.t.counters()
    }

    /// Field-wise sum of the measured counters; the clock-derived fields
    /// and the functional `isa` composition come from `finish`.
    fn absorb(&mut self, w: &SimStats) {
        let s = &mut self.t.stats;
        s.blocks += w.blocks;
        s.predictor.absorb(&w.predictor);
        s.opn.absorb(&w.opn);
        s.icache_accesses += w.icache_accesses;
        s.icache_misses += w.icache_misses;
        s.l1d_accesses += w.l1d_accesses;
        s.l1d_misses += w.l1d_misses;
        s.l2_accesses += w.l2_accesses;
        s.l2_misses += w.l2_misses;
        s.load_flushes += w.load_flushes;
        s.mispredict_flushes += w.mispredict_flushes;
        s.window_inst_cycles += w.window_inst_cycles;
        s.l1_bytes += w.l1_bytes;
        s.l2_bytes += w.l2_bytes;
        s.dram_bytes += w.dram_bytes;
        s.bank_conflict_cycles += w.bank_conflict_cycles;
    }

    fn finish(self, summary: Option<&SampleSummary>) -> SimResult {
        let mut stats = self.t.finish();
        stats.isa = self.log.stats.clone();
        if let Some(s) = summary {
            debug_assert_eq!(s.measured_units, stats.blocks);
            stats.sampled = true;
            stats.total_units = s.total_units;
            stats.cycles = s.measured_cycles.max(u64::from(stats.blocks > 0));
            stats.est_cycles = s.est_cycles.max(stats.cycles);
        }
        SimResult {
            return_value: self.log.return_value,
            stats,
        }
    }

    fn reject(why: String) -> SimError {
        SimError::Trace(why)
    }
}

/// The pending control transfer awaiting the next block id, in
/// serializable form (see [`TsimSnapshot`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct PendingExit {
    block: u32,
    exit: u8,
    kind: ExitKind,
    cont: Option<u32>,
    resolve: u64,
}

/// Serializable image of the whole TRIPS timing machine at a stream
/// boundary — a **live-point**. Captures every piece of warmed state the
/// detailed model reads (caches, predictor tables, network and bank
/// occupancy, register-availability and commit horizons, the pending
/// control transfer) and *none* of the accounting: a replay restored from
/// a live-point starts all counters at zero, so its accounting is exactly
/// the window's delta and per-window deltas sum to the sequential totals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TsimSnapshot {
    /// Stream unit the snapshot was taken at (before processing it).
    unit: u64,
    opn: OpnSnapshot,
    et_free: [u64; 16],
    l1d: Vec<CacheSnapshot>,
    dt_banks: BankPortsSnapshot,
    l2: CacheSnapshot,
    l2_banks: BankPortsSnapshot,
    dram: BankPortsSnapshot,
    icache: CacheSnapshot,
    predictor: PredictorSnapshot,
    lwt: LoadWaitSnapshot,
    reg_avail: Vec<(u8, u64)>,
    commits: Vec<u64>,
    last_commit: u64,
    prev_dispatch: u64,
    prev_chunk: u64,
    pending: Option<PendingExit>,
}

/// Cycles of bank/link occupancy history a live-point snapshot keeps
/// behind the commit point. Generous by orders of magnitude: nothing in
/// the model probes occupancy more than a few thousand cycles back.
const CLAIM_SNAPSHOT_MARGIN: u64 = 1 << 20;

/// `Timing::done` entry of an instruction that has not fired.
const NOT_DONE: u64 = u64::MAX;

struct Timing<'a> {
    cp: &'a CompiledProgram,
    cfg: TripsConfig,
    opn: Opn,
    et_free: [u64; 16],
    l1d: Vec<Cache>,
    dt_banks: BankPorts,
    l2: Cache,
    l2_banks: BankPorts,
    dram: BankPorts,
    icache: Cache,
    predictor: NextBlockPredictor,
    lwt: LoadWaitTable,
    /// Cycle each register's latest write reaches its register tile (0
    /// until written).
    reg_avail: [u64; NUM_REGS],
    /// Bit `r` set once register `r` has been written: the registers a
    /// snapshot lists.
    reg_written: u128,
    /// Per-block scratch: completion cycle of each fired instruction,
    /// indexed by instruction id, [`NOT_DONE`] otherwise. Reset after
    /// every block.
    done: [u64; 256],
    /// Per-block scratch: `(lsid, resolution order, addr, bytes)` of the
    /// block's stores. The timed path orders by the cycle a store reaches
    /// its data tile and keeps one entry per LSID (the latest store
    /// wins); the warming path orders by fire position and keeps every
    /// store.
    stores: Vec<(u8, u64, u64, u8)>,
    commits: VecDeque<u64>,
    last_commit: u64,
    prev_dispatch: u64,
    prev_chunk: usize,
    /// Pending transition: (block, exit idx, kind, cont) awaiting the next
    /// block id to score the prediction.
    pending: Option<(u32, u8, ExitKind, Option<u32>, u64 /*resolve*/)>,
    stats: SimStats,
}

impl<'a> Timing<'a> {
    fn new(cp: &'a CompiledProgram, cfg: &TripsConfig) -> Timing<'a> {
        Timing {
            cp,
            cfg: cfg.clone(),
            opn: Opn::new(),
            et_free: [0; 16],
            l1d: (0..TripsConfig::L1D_BANKS)
                .map(|_| {
                    Cache::new(
                        cfg.l1d_bytes / TripsConfig::L1D_BANKS,
                        cfg.l1d_ways,
                        cfg.line,
                    )
                })
                .collect(),
            dt_banks: BankPorts::new(TripsConfig::L1D_BANKS),
            l2: Cache::new(cfg.l2_bytes, cfg.l2_ways, cfg.line),
            l2_banks: BankPorts::new(TripsConfig::L2_BANKS),
            dram: BankPorts::new(TripsConfig::DRAM_CHANNELS),
            icache: Cache::new(cfg.l1i_bytes, 2, 128),
            predictor: NextBlockPredictor::new(cfg.exit_entries, cfg.btb_entries, cfg.ras_depth),
            lwt: LoadWaitTable::new(cfg.lwt_entries.next_power_of_two()),
            reg_avail: [0; NUM_REGS],
            reg_written: 0,
            done: [NOT_DONE; 256],
            stores: Vec::new(),
            commits: VecDeque::new(),
            last_commit: 0,
            prev_dispatch: 0,
            prev_chunk: 0,
            pending: None,
            stats: SimStats::default(),
        }
    }

    /// Runs the full detailed model on one block but discards every
    /// counter it moves: the timed-warmup path. The machine state — clock,
    /// window occupancy, bank reservations, predictor and cache contents —
    /// advances exactly as [`Timing::time_block`] would advance it, so the
    /// measurement window that follows starts on a busy, representative
    /// pipeline; only the accounting is thrown away.
    fn time_block_discarded(&mut self, bidx: u32, trace: &BlockTrace) {
        let stats = self.stats.clone();
        let predictor = self.predictor.stats;
        let opn = self.opn.stats.clone();
        let conflicts = self.dt_banks.conflict_cycles;
        let violations = self.lwt.violations;
        self.time_block(bidx, trace);
        self.stats = stats;
        self.predictor.stats = predictor;
        self.opn.stats = opn;
        self.dt_banks.conflict_cycles = conflicts;
        self.lwt.violations = violations;
    }

    /// Functionally warms one block: the next-block predictor, I-cache,
    /// data hierarchy and load-wait table observe it, but no cycles are
    /// accounted and no counters move — warming keeps long-lived state
    /// representative for the detailed window that follows.
    fn warm_block(&mut self, bidx: u32, trace: &BlockTrace) {
        let block = &self.cp.trips.blocks[bidx as usize];

        // Train the predictor on the warmed control transfer. The detailed
        // counters must only reflect detailed blocks, so the accounting is
        // snapshotted around the update.
        if let Some((pb, pexit, kind, cont, _)) = self.pending.take() {
            let multi = self.cp.trips.blocks[pb as usize].exits.len() > 1;
            let saved = self.predictor.stats;
            let _ = self
                .predictor
                .predict_and_update(pb, pexit, kind, bidx, cont, multi);
            self.predictor.stats = saved;
        }

        // I-cache (and L2) warming: the block image's lines.
        let base_addr = bidx as u64 * 1024;
        let lines = (trips_isa::encode::encoded_size_compressed(block) as u64).div_ceil(128);
        for l in 0..lines {
            if !self.icache.access(base_addr + l * 128) {
                self.l2.access(base_addr + l * 128);
            }
        }

        // Data-hierarchy and dependence-predictor warming. Without cycle
        // accounting there is no bank-resolution order, so program (LSID +
        // fire) order stands in: a load observing an overlapping older
        // store that fires *after* it would have read the bank too early,
        // and trains its wait bit exactly as the timed path would.
        self.stores.clear();
        self.stores
            .extend(trace.fired.iter().enumerate().filter_map(|(at, ti)| {
                let mem = ti.mem.filter(|m| m.is_store)?;
                let lsid = block.insts[ti.idx as usize].lsid.unwrap_or(0);
                Some((lsid, at as u64, mem.addr, mem.bytes))
            }));
        for (at, ti) in trace.fired.iter().enumerate() {
            let Some(mem) = ti.mem else { continue };
            let bank = ((mem.addr / self.cfg.line as u64) % TripsConfig::L1D_BANKS as u64) as usize;
            // Mirror the timed path's fill policy exactly: loads allocate
            // into L2 on an L1 miss, stores do not.
            if !self.l1d[bank].access(mem.addr) && !mem.is_store {
                self.l2.access(mem.addr);
            }
            if !mem.is_store && !self.lwt.should_wait(bidx, ti.idx) {
                if let Some(l) = block.insts[ti.idx as usize].lsid {
                    let would_violate = self.stores.iter().any(|&(l2, at2, a2, b2)| {
                        l2 < l
                            && at2 > at as u64
                            && a2 < mem.addr + mem.bytes as u64
                            && mem.addr < a2 + b2 as u64
                    });
                    if would_violate {
                        self.lwt.record_violation(bidx, ti.idx);
                    }
                }
            }
        }

        // Dispatch bookkeeping for the next block's stream latency, and the
        // transition the next block scores the predictor with.
        self.prev_chunk = block.chunk_capacity();
        let exit = block.exits[trace.exit as usize];
        let (kind, cont) = match exit {
            ExitTarget::Block(_) => (ExitKind::Jump, None),
            ExitTarget::Call { cont, .. } => (ExitKind::Call, Some(cont)),
            ExitTarget::Ret => (ExitKind::Ret, None),
        };
        self.pending = Some((bidx, trace.exit, kind, cont, 0));
    }

    fn time_block(&mut self, bidx: u32, trace: &BlockTrace) {
        let block = &self.cp.trips.blocks[bidx as usize];
        let placement = &self.cp.placements[bidx as usize];

        // --- score the prediction that fetched this block ------------------
        let mut mispredicted = false;
        let mut prev_resolve = 0;
        if let Some((pb, pexit, kind, cont, resolve)) = self.pending.take() {
            let multi = self.cp.trips.blocks[pb as usize].exits.len() > 1;
            let (_, correct) = self
                .predictor
                .predict_and_update(pb, pexit, kind, bidx, cont, multi);
            mispredicted = !correct;
            prev_resolve = resolve;
            if mispredicted {
                self.stats.mispredict_flushes += 1;
            }
        }

        // --- fetch/dispatch timing -----------------------------------------
        // The ITs stream a block's compressed chunk at dispatch_bandwidth
        // instructions/cycle; the next block starts once the previous one
        // has streamed (small blocks dispatch back-to-back faster).
        let stream = (self.prev_chunk as u64)
            .div_ceil(self.cfg.dispatch_bandwidth)
            .max(self.cfg.dispatch_interval);
        let mut start = self.prev_dispatch + stream;
        if self.commits.len() >= self.cfg.max_blocks_in_flight {
            let oldest = self.commits[self.commits.len() - self.cfg.max_blocks_in_flight];
            start = start.max(oldest + 1);
        }
        if mispredicted {
            start = start.max(prev_resolve + self.cfg.flush_penalty);
        }
        // I-cache: fetch the compressed block image.
        let base_addr = bidx as u64 * 1024;
        let lines = (trips_isa::encode::encoded_size_compressed(block) as u64).div_ceil(128);
        let mut ic_delay = 0;
        for l in 0..lines {
            self.stats.icache_accesses += 1;
            if !self.icache.access(base_addr + l * 128) {
                self.stats.icache_misses += 1;
                ic_delay = ic_delay.max(self.cfg.l1i_miss);
                if !self.l2.access(base_addr + l * 128) {
                    ic_delay += self.cfg.dram_lat;
                }
            }
        }
        let dispatch = start + ic_delay + self.cfg.fetch_latency;
        self.prev_dispatch = start + ic_delay;
        self.prev_chunk = block.chunk_capacity();

        // --- dataflow timing -------------------------------------------------
        self.stores.clear();
        let mut completion = dispatch + 1;
        let mut resolve = dispatch + 1;
        let mut violated = false;

        for ti in &trace.fired {
            let inst = &block.insts[ti.idx as usize];
            let et = placement.get(ti.idx as usize).copied().unwrap_or(0).min(15);
            let here = Node::et(et);
            let fetch_t = dispatch + ti.idx as u64 / self.cfg.dispatch_bandwidth;
            let mut ready = fetch_t;
            for src in &ti.srcs {
                let arr = match src {
                    TraceSrc::Read(r) => {
                        // Register availability only moves in the write
                        // phase below, so every read sees its value at
                        // dispatch.
                        let reg = block.reads[*r as usize].reg;
                        let t0 = self.reg_avail[reg as usize].max(dispatch);
                        self.opn
                            .route(Node::rt(reg / 32), here, t0, TrafficClass::EtRt)
                    }
                    TraceSrc::Inst(p) => {
                        let t0 = self.done_or(*p, dispatch);
                        let from =
                            Node::et(placement.get(*p as usize).copied().unwrap_or(0).min(15));
                        self.opn.route(from, here, t0, TrafficClass::EtEt)
                    }
                };
                ready = ready.max(arr);
            }
            let issue = ready.max(self.et_free[et as usize]);
            self.et_free[et as usize] = issue + 1;

            let out_t = if let Some(mem) = ti.mem {
                let bank =
                    ((mem.addr / self.cfg.line as u64) % TripsConfig::L1D_BANKS as u64) as usize;
                let dtn = Node::dt(bank as u8);
                if mem.is_store {
                    let arr = self.opn.route(here, dtn, issue + 1, TrafficClass::EtDt);
                    let t = self.dt_banks.reserve(bank, arr, 1);
                    self.l1d[bank].access(mem.addr);
                    self.stats.l1_bytes += mem.bytes as u64;
                    let entry = (inst.lsid.unwrap_or(0), t + 1, mem.addr, mem.bytes);
                    match self.stores.iter_mut().find(|s| s.0 == entry.0) {
                        Some(s) => *s = entry,
                        None => self.stores.push(entry),
                    }
                    completion = completion.max(t + 1);
                    t + 1
                } else {
                    // Load: optionally wait for earlier stores per the
                    // dependence predictor.
                    let mut lissue = issue;
                    if self.lwt.should_wait(bidx, ti.idx) {
                        for &(lsid2, t2, _, _) in &self.stores {
                            if inst.lsid.map(|l| lsid2 < l).unwrap_or(false) {
                                lissue = lissue.max(t2);
                            }
                        }
                    }
                    let arr = self.opn.route(here, dtn, lissue + 1, TrafficClass::EtDt);
                    let t = self.dt_banks.reserve(bank, arr, 1);
                    self.stats.l1d_accesses += 1;
                    self.stats.l1_bytes += mem.bytes as u64;
                    let mut lat = self.cfg.l1d_hit;
                    if !self.l1d[bank].access(mem.addr) {
                        self.stats.l1d_misses += 1;
                        self.stats.l2_accesses += 1;
                        self.stats.l2_bytes += self.cfg.line as u64;
                        let l2b = ((mem.addr / self.cfg.line as u64) % TripsConfig::L2_BANKS as u64)
                            as usize;
                        let nuca = (l2b % 4 + l2b / 4) as u64;
                        let l2t = self.l2_banks.reserve(l2b, t + lat, 1);
                        lat += (l2t - t - lat.min(l2t)) + self.cfg.l2_base + self.cfg.l2_hop * nuca;
                        if !self.l2.access(mem.addr) {
                            self.stats.l2_misses += 1;
                            self.stats.dram_bytes += self.cfg.line as u64;
                            let ch =
                                (mem.addr as usize / self.cfg.line) % TripsConfig::DRAM_CHANNELS;
                            let dt = self.dram.reserve(ch, t + lat, self.cfg.dram_occupancy);
                            lat = dt - t + self.cfg.dram_lat;
                        }
                    }
                    // Violation: an earlier store to an overlapping address
                    // resolved after this load read the bank.
                    if !self.lwt.should_wait(bidx, ti.idx) {
                        if let Some(l) = inst.lsid {
                            for &(lsid2, t2, a2, b2) in &self.stores {
                                let overlap =
                                    a2 < mem.addr + mem.bytes as u64 && mem.addr < a2 + b2 as u64;
                                if lsid2 < l && overlap && t2 > t {
                                    violated = true;
                                    self.lwt.record_violation(bidx, ti.idx);
                                    break;
                                }
                            }
                        }
                    }
                    let data_t = t + lat;
                    self.opn.route(dtn, here, data_t, TrafficClass::EtDt)
                }
            } else if inst.op.is_branch() {
                let r = self
                    .opn
                    .route(here, Node::GT, issue + 1, TrafficClass::EtGt);
                resolve = resolve.max(r);
                r
            } else if inst.op == TOpcode::Null && inst.lsid.is_some() {
                let dtn = Node::dt(inst.lsid.unwrap() % 4);
                let r = self.opn.route(here, dtn, issue + 1, TrafficClass::EtDt);
                completion = completion.max(r);
                r
            } else {
                issue + inst.op.latency() as u64
            };
            self.done[ti.idx as usize] = out_t;
        }

        // Register writes resolve at their RT.
        for (wi, src) in trace.write_srcs.iter().enumerate() {
            let Some(src) = src else { continue };
            let reg = block.writes[wi].reg;
            let (t0, from) = match src {
                TraceSrc::Read(r) => {
                    let rr = block.reads[*r as usize].reg;
                    (self.reg_avail[rr as usize].max(dispatch), Node::rt(rr / 32))
                }
                TraceSrc::Inst(p) => (
                    self.done_or(*p, dispatch),
                    Node::et(placement.get(*p as usize).copied().unwrap_or(0).min(15)),
                ),
            };
            let arr = self
                .opn
                .route(from, Node::rt(reg / 32), t0, TrafficClass::EtRt);
            self.reg_avail[reg as usize] = arr;
            self.reg_written |= 1 << reg;
            completion = completion.max(arr);
        }
        for ti in &trace.fired {
            self.done[ti.idx as usize] = NOT_DONE;
        }
        completion = completion.max(resolve);
        if violated {
            self.stats.load_flushes += 1;
            completion += self.cfg.flush_penalty;
            resolve += self.cfg.flush_penalty;
        }

        // Commit protocol: in order, one block per cycle minimum; the
        // commit-protocol overhead overlaps with younger blocks' execution.
        let commit = (completion + self.cfg.commit_overhead).max(self.last_commit + 1);
        self.last_commit = commit;
        self.commits.push_back(commit);
        // Keep enough history for the in-flight window check above; a
        // sweep can raise max_blocks_in_flight past the default horizon.
        let keep = self.cfg.max_blocks_in_flight.max(64);
        if self.commits.len() > keep {
            self.commits.pop_front();
        }
        self.stats.blocks += 1;
        self.stats.window_inst_cycles += (block.insts.len() as u128) * ((commit - start) as u128);

        // Queue the transition for prediction scoring.
        let exit = block.exits[trace.exit as usize];
        let (kind, cont) = match exit {
            ExitTarget::Block(_) => (ExitKind::Jump, None),
            ExitTarget::Call { cont, .. } => (ExitKind::Call, Some(cont)),
            ExitTarget::Ret => (ExitKind::Ret, None),
        };
        self.pending = Some((bidx, trace.exit, kind, cont, resolve));
    }

    /// Completion cycle of instruction `p` in the current block, or
    /// `default` when it has not fired (yet).
    fn done_or(&self, p: u8, default: u64) -> u64 {
        match self.done[p as usize] {
            NOT_DONE => default,
            t => t,
        }
    }

    /// Captures the machine's live-point at stream `unit` (called before
    /// the unit is processed). Pure machine state only — see
    /// [`TsimSnapshot`].
    fn snapshot(&self, unit: u64) -> TsimSnapshot {
        let reg_avail: Vec<(u8, u64)> = (0..NUM_REGS)
            .filter(|&r| self.reg_written >> r & 1 == 1)
            .map(|r| (r as u8, self.reg_avail[r]))
            .collect();
        // Occupancy claims this far behind the commit point are dead: no
        // packet or bank request ever probes a cycle ~1M behind the clock
        // (in-flight blocks span tens of cycles), so snapshots exclude
        // them rather than pin every cold link's stale claims forever.
        let horizon = self.last_commit.saturating_sub(CLAIM_SNAPSHOT_MARGIN);
        TsimSnapshot {
            unit,
            opn: self.opn.snapshot(horizon),
            et_free: self.et_free,
            l1d: self.l1d.iter().map(Cache::snapshot).collect(),
            dt_banks: self.dt_banks.snapshot(horizon),
            l2: self.l2.snapshot(),
            l2_banks: self.l2_banks.snapshot(horizon),
            dram: self.dram.snapshot(horizon),
            icache: self.icache.snapshot(),
            predictor: self.predictor.snapshot(),
            lwt: self.lwt.snapshot(),
            reg_avail,
            commits: self.commits.iter().copied().collect(),
            last_commit: self.last_commit,
            prev_dispatch: self.prev_dispatch,
            prev_chunk: self.prev_chunk as u64,
            pending: self
                .pending
                .map(|(block, exit, kind, cont, resolve)| PendingExit {
                    block,
                    exit,
                    kind,
                    cont,
                    resolve,
                }),
        }
    }

    /// Restores a live-point into a freshly constructed machine. All
    /// accounting stays at zero, so everything this replay subsequently
    /// counts is the window's own delta.
    ///
    /// Every piece is checked against this machine's geometry first, so a
    /// malformed or foreign snapshot is an `Err`, never a panic.
    fn restore(&mut self, s: &TsimSnapshot) -> Result<(), String> {
        if self.l1d.len() != s.l1d.len() {
            return Err(format!(
                "live-point has {} L1D banks, config wants {}",
                s.l1d.len(),
                self.l1d.len()
            ));
        }
        if let Some(p) = s.pending {
            if p.block as usize >= self.cp.trips.blocks.len() {
                return Err(format!(
                    "live-point pending exit names block {} of {}",
                    p.block,
                    self.cp.trips.blocks.len()
                ));
            }
        }
        let mut reg_avail = [0; NUM_REGS];
        let mut reg_written: u128 = 0;
        for &(r, t) in &s.reg_avail {
            if r as usize >= NUM_REGS {
                return Err(format!("live-point register {r} out of range"));
            }
            if reg_written >> r != 0 {
                return Err(format!("live-point register {r} out of order or repeated"));
            }
            reg_avail[r as usize] = t;
            reg_written |= 1 << r;
        }
        self.opn.restore(&s.opn)?;
        self.et_free = s.et_free;
        for (c, cs) in self.l1d.iter_mut().zip(&s.l1d) {
            c.restore(cs)?;
        }
        self.dt_banks.restore(&s.dt_banks)?;
        self.l2.restore(&s.l2)?;
        self.l2_banks.restore(&s.l2_banks)?;
        self.dram.restore(&s.dram)?;
        self.icache.restore(&s.icache)?;
        self.predictor.restore(&s.predictor)?;
        self.lwt.restore(&s.lwt)?;
        self.reg_avail = reg_avail;
        self.reg_written = reg_written;
        self.commits = s.commits.iter().copied().collect();
        self.last_commit = s.last_commit;
        self.prev_dispatch = s.prev_dispatch;
        self.prev_chunk = s.prev_chunk as usize;
        self.pending = s
            .pending
            .map(|p| (p.block, p.exit, p.kind, p.cont, p.resolve));
        Ok(())
    }

    /// Folds the component accounting into the counters, without the
    /// full-run clock defaults: a restored window's delta. Additive, so
    /// counters absorbed from windows survive the fold.
    fn counters(mut self) -> SimStats {
        self.stats.predictor.absorb(&self.predictor.stats);
        self.stats.opn.absorb(&self.opn.stats);
        self.stats.bank_conflict_cycles += self.dt_banks.conflict_cycles;
        self.stats
    }

    fn finish(self) -> SimStats {
        let cycles = self.last_commit.max(1);
        let mut stats = self.counters();
        stats.cycles = cycles;
        // Full-run defaults; a sampling replay overrides total_units and
        // est_cycles after folding in the stream length.
        stats.detailed_units = stats.blocks;
        stats.total_units = stats.blocks;
        stats.est_cycles = stats.cycles;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trips_compiler::{compile, CompileOptions};
    use trips_sample::assemble_windows;

    fn full_replay(
        compiled: &CompiledProgram,
        cfg: &TripsConfig,
        log: &TraceLog,
    ) -> Result<SimResult, SimError> {
        replay_trace_mode(compiled, cfg, log, &ReplayMode::Full)
    }
    use trips_ir::{IntCc, Operand, ProgramBuilder};

    fn sum_program(n: i64) -> trips_ir::Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let e = f.entry();
        let body = f.block();
        let done = f.block();
        f.switch_to(e);
        let acc = f.iconst(0);
        let i = f.iconst(0);
        f.jump(body);
        f.switch_to(body);
        f.ibin_to(trips_ir::Opcode::Add, acc, acc, i);
        f.ibin_to(trips_ir::Opcode::Add, i, i, 1i64);
        let c = f.icmp(IntCc::Lt, i, n);
        f.branch(c, body, done);
        f.switch_to(done);
        f.ret(Some(Operand::reg(acc)));
        f.finish();
        pb.finish("main").unwrap()
    }

    #[test]
    fn simulation_matches_functional_result() {
        let p = sum_program(200);
        let compiled = compile(&p, &CompileOptions::o1()).unwrap();
        let r = simulate(&compiled, &TripsConfig::prototype(), 1 << 20).unwrap();
        assert_eq!(r.return_value, (0..200).sum::<i64>() as u64);
        assert!(r.stats.cycles > 0);
        assert!(r.stats.blocks > 0);
        assert!(r.stats.ipc_executed() > 0.0);
    }

    #[test]
    fn unrolled_code_is_faster() {
        let p = sum_program(4000);
        let c0 = compile(&p, &CompileOptions::o0()).unwrap();
        let c2 = compile(&p, &CompileOptions::o2()).unwrap();
        let cfg = TripsConfig::prototype();
        let r0 = simulate(&c0, &cfg, 1 << 20).unwrap();
        let r2 = simulate(&c2, &cfg, 1 << 20).unwrap();
        assert_eq!(r0.return_value, r2.return_value);
        assert!(
            r2.stats.cycles < r0.stats.cycles,
            "O2 ({}) should beat O0 ({})",
            r2.stats.cycles,
            r0.stats.cycles
        );
    }

    #[test]
    fn window_occupancy_bounded() {
        let p = sum_program(1000);
        let compiled = compile(&p, &CompileOptions::o2()).unwrap();
        let r = simulate(&compiled, &TripsConfig::prototype(), 1 << 20).unwrap();
        let w = r.stats.avg_window_insts();
        assert!(w > 0.0 && w <= 1024.0, "window occupancy {w} out of range");
    }

    #[test]
    fn predictor_learns_loop_few_mispredicts() {
        let p = sum_program(5000);
        let compiled = compile(&p, &CompileOptions::o1()).unwrap();
        let r = simulate(&compiled, &TripsConfig::prototype(), 1 << 20).unwrap();
        let mr =
            r.stats.predictor.mispredicts() as f64 / r.stats.predictor.predictions.max(1) as f64;
        assert!(
            mr < 0.10,
            "loop should predict well, missed {:.1}%",
            mr * 100.0
        );
    }

    #[test]
    fn replay_matches_direct_simulation_exactly() {
        let p = sum_program(3000);
        let compiled = compile(&p, &CompileOptions::o1()).unwrap();
        let log = TraceLog::capture(
            &compiled.trips,
            &compiled.opt_ir,
            1 << 20,
            u64::MAX,
            Default::default(),
        )
        .unwrap();
        assert!(
            log.dedup_ratio() > 2.0,
            "a counted loop should intern well, got {}",
            log.dedup_ratio()
        );
        for cfg in [TripsConfig::prototype(), TripsConfig::improved_predictor()] {
            let direct = simulate(&compiled, &cfg, 1 << 20).unwrap();
            let replayed = full_replay(&compiled, &cfg, &log).unwrap();
            assert_eq!(replayed.return_value, direct.return_value);
            assert_eq!(
                replayed.stats, direct.stats,
                "replay must be bit-identical to direct simulation"
            );
        }
    }

    #[test]
    fn covering_sample_plan_is_bit_identical_to_full_replay() {
        let p = sum_program(2000);
        let compiled = compile(&p, &CompileOptions::o1()).unwrap();
        let log = TraceLog::capture(
            &compiled.trips,
            &compiled.opt_ir,
            1 << 20,
            u64::MAX,
            Default::default(),
        )
        .unwrap();
        let cfg = TripsConfig::prototype();
        let full = full_replay(&compiled, &cfg, &log).unwrap();
        let plan = trips_sample::SamplePlan::new(0, 7, 7).unwrap();
        let covered = replay_trace_mode(&compiled, &cfg, &log, &ReplayMode::Sampled(plan)).unwrap();
        assert_eq!(covered.stats, full.stats, "sample-everything must be Full");
        assert!(!covered.stats.sampled);
        assert_eq!(full.stats.est_cycles, full.stats.cycles);
        assert_eq!(full.stats.detailed_units, full.stats.blocks);
    }

    #[test]
    fn sampled_replay_times_a_fraction_and_extrapolates() {
        let p = sum_program(6000);
        let compiled = compile(&p, &CompileOptions::o1()).unwrap();
        let log = TraceLog::capture(
            &compiled.trips,
            &compiled.opt_ir,
            1 << 20,
            u64::MAX,
            Default::default(),
        )
        .unwrap();
        let cfg = TripsConfig::prototype();
        let full = full_replay(&compiled, &cfg, &log).unwrap();
        let plan = trips_sample::SamplePlan::new(8, 8, 32).unwrap();
        let s = replay_trace_mode(&compiled, &cfg, &log, &ReplayMode::Sampled(plan))
            .unwrap()
            .stats;
        assert!(s.sampled);
        assert_eq!(s.total_units, log.seq.len() as u64);
        assert_eq!(s.detailed_units, s.blocks);
        assert!(
            s.detailed_units * 3 < s.total_units,
            "a 1/4-detail plan must time a minority of blocks: {}/{}",
            s.detailed_units,
            s.total_units
        );
        assert!(s.cycles < full.stats.cycles);
        // The extrapolated estimate lands near the full-replay truth on a
        // steady-state loop.
        let rel = (s.est_cycles as f64 - full.stats.cycles as f64).abs() / full.stats.cycles as f64;
        assert!(
            rel < 0.10,
            "extrapolation off by {:.1}% (est {} vs full {})",
            rel * 100.0,
            s.est_cycles,
            full.stats.cycles
        );
        // And the functional composition is untouched by sampling.
        assert_eq!(s.isa, full.stats.isa);
    }

    /// A hand-built phase plan over a stream of `total` units: boundary
    /// windows plus one weighted interior representative per `chunk`.
    fn handmade_plan(total: u64) -> trips_sample::PhasePlan {
        let interval = (total / 5).max(1);
        let head = interval.min(total);
        let tail_start = total - interval;
        let mid_extent = tail_start - head;
        let rep_start = head + mid_extent / 2;
        let rep_end = (rep_start + interval / 2)
            .min(tail_start)
            .max(rep_start + 1);
        let warm = rep_start.saturating_sub(interval / 4).max(head);
        trips_sample::PhasePlan {
            interval,
            total_units: total,
            k: 1,
            windows: vec![
                trips_sample::PhaseWindow {
                    warm_start: 0,
                    detail_start: 0,
                    end: head,
                    weight_units: head,
                },
                trips_sample::PhaseWindow {
                    warm_start: warm,
                    detail_start: rep_start,
                    end: rep_end,
                    weight_units: mid_extent,
                },
                trips_sample::PhaseWindow {
                    warm_start: tail_start,
                    detail_start: tail_start,
                    end: total,
                    weight_units: interval,
                },
            ],
            assignments: vec![],
        }
    }

    #[test]
    fn livepoint_window_replay_is_bit_identical_to_sequential_phased() {
        let p = sum_program(4000);
        let compiled = compile(&p, &CompileOptions::o1()).unwrap();
        let log = TraceLog::capture(
            &compiled.trips,
            &compiled.opt_ir,
            1 << 20,
            u64::MAX,
            Default::default(),
        )
        .unwrap();
        let plan = handmade_plan(log.seq.len() as u64);
        plan.validate().unwrap();
        assert!(!plan.covers_everything());
        for cfg in [TripsConfig::prototype(), TripsConfig::improved_predictor()] {
            let sequential =
                replay_trace_mode(&compiled, &cfg, &log, &ReplayMode::Phased(plan.clone()))
                    .unwrap();
            let (captured, snaps) =
                replay_trace_phased_capture(&compiled, &cfg, &log, &plan).unwrap();
            assert_eq!(
                captured.stats, sequential.stats,
                "capture pass must be bit-identical to the plain phased replay"
            );
            assert_eq!(snaps.len(), plan.windows.len());
            // Snapshots round-trip through bytes (the store's discipline).
            let measures: Vec<WindowMeasure<SimStats>> = plan
                .windows
                .iter()
                .zip(&snaps)
                .map(|(w, s)| {
                    let bytes = serde::bin::to_bytes(s);
                    let back: TsimSnapshot = serde::bin::from_bytes(&bytes).unwrap();
                    assert_eq!(&back, s);
                    replay_trips_window(&compiled, &cfg, &log, w, &back).unwrap()
                })
                .collect();
            let assembled =
                assemble_windows(TsimCore::new(&compiled, &cfg, &log), &plan, &measures).unwrap();
            assert_eq!(
                assembled.stats, sequential.stats,
                "restore-then-replay must be bit-identical to fast-forward-then-replay"
            );
            assert_eq!(assembled.return_value, sequential.return_value);
        }
    }

    #[test]
    fn livepoint_window_rejects_a_foreign_snapshot() {
        let p = sum_program(2000);
        let compiled = compile(&p, &CompileOptions::o1()).unwrap();
        let log = TraceLog::capture(
            &compiled.trips,
            &compiled.opt_ir,
            1 << 20,
            u64::MAX,
            Default::default(),
        )
        .unwrap();
        let plan = handmade_plan(log.seq.len() as u64);
        let cfg = TripsConfig::prototype();
        let (_, snaps) = replay_trace_phased_capture(&compiled, &cfg, &log, &plan).unwrap();
        // A snapshot from one boundary cannot seed a different window.
        assert!(matches!(
            replay_trips_window(&compiled, &cfg, &log, &plan.windows[1], &snaps[0]),
            Err(SimError::Trace(_))
        ));
        // A wrong-count assembly is rejected.
        assert!(matches!(
            assemble_windows(TsimCore::new(&compiled, &cfg, &log), &plan, &[]),
            Err(SimError::Trace(_))
        ));
    }

    #[test]
    fn malformed_windows_are_rejected_without_panicking() {
        let p = sum_program(2000);
        let compiled = compile(&p, &CompileOptions::o1()).unwrap();
        let log = TraceLog::capture(
            &compiled.trips,
            &compiled.opt_ir,
            1 << 20,
            u64::MAX,
            Default::default(),
        )
        .unwrap();
        let plan = handmade_plan(log.seq.len() as u64);
        let cfg = TripsConfig::prototype();
        let (_, snaps) = replay_trace_phased_capture(&compiled, &cfg, &log, &plan).unwrap();
        let (good, snap) = (plan.windows[1], &snaps[1]);
        assert!(good.warm_start < good.detail_start);
        assert!(replay_trips_window(&compiled, &cfg, &log, &good, snap).is_ok());
        let total = log.seq.len() as u64;
        for bad in [
            // Measurement before its own warmup.
            PhaseWindow {
                detail_start: good.warm_start - 1,
                ..good
            },
            // Measured span empty or inverted.
            PhaseWindow {
                end: good.detail_start,
                ..good
            },
            PhaseWindow {
                detail_start: good.end + 1,
                end: good.end,
                ..good
            },
            // Past the stream.
            PhaseWindow {
                end: total + 1,
                ..good
            },
        ] {
            assert!(
                matches!(
                    replay_trips_window(&compiled, &cfg, &log, &bad, snap),
                    Err(SimError::Trace(_))
                ),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn unsorted_phase_plans_are_rejected() {
        let p = sum_program(2000);
        let compiled = compile(&p, &CompileOptions::o1()).unwrap();
        let log = TraceLog::capture(
            &compiled.trips,
            &compiled.opt_ir,
            1 << 20,
            u64::MAX,
            Default::default(),
        )
        .unwrap();
        let mut plan = handmade_plan(log.seq.len() as u64);
        plan.windows.reverse();
        assert!(plan.validate().is_err());
        let cfg = TripsConfig::prototype();
        let mode = ReplayMode::Phased(plan.clone());
        assert!(matches!(
            replay_trace_mode(&compiled, &cfg, &log, &mode),
            Err(SimError::Trace(_))
        ));
        assert!(replay_trace_phased_capture(&compiled, &cfg, &log, &plan).is_err());
    }

    #[test]
    fn malformed_livepoints_are_rejected_without_panicking() {
        let p = sum_program(2000);
        let compiled = compile(&p, &CompileOptions::o1()).unwrap();
        let log = TraceLog::capture(
            &compiled.trips,
            &compiled.opt_ir,
            1 << 20,
            u64::MAX,
            Default::default(),
        )
        .unwrap();
        let plan = handmade_plan(log.seq.len() as u64);
        let cfg = TripsConfig::prototype();
        let (_, snaps) = replay_trace_phased_capture(&compiled, &cfg, &log, &plan).unwrap();
        let (window, good) = (&plan.windows[1], &snaps[1]);
        assert!(replay_trips_window(&compiled, &cfg, &log, window, good).is_ok());
        assert!(!good.opn.links.is_empty() && !good.reg_avail.is_empty());
        let far = Node { row: 4, col: 4 };
        let off = Node { row: 5, col: 4 };
        type Mutation = Box<dyn Fn(&mut TsimSnapshot)>;
        let mutations: Vec<(&str, Mutation)> = vec![
            (
                "L1D set count",
                Box::new(|s| {
                    s.l1d[0].tags.pop();
                }),
            ),
            ("L2 way count", Box::new(|s| s.l2.tags[3].push((0, 0)))),
            (
                "I-cache set count",
                Box::new(|s| s.icache.tags.push(vec![])),
            ),
            ("DT bank count", Box::new(|s| s.dt_banks.busy.push(vec![]))),
            (
                "L2 bank count",
                Box::new(|s| {
                    s.l2_banks.busy.pop();
                }),
            ),
            ("DRAM channel count", Box::new(|s| s.dram.busy.push(vec![]))),
            (
                "non-adjacent link",
                Box::new(move |s| s.opn.links[0].1 = far),
            ),
            (
                "off-mesh link",
                Box::new(move |s| s.opn.links.push((far, off, vec![1]))),
            ),
            (
                "repeated link",
                Box::new(|s| {
                    let first = s.opn.links[0].clone();
                    s.opn.links.insert(0, first);
                }),
            ),
            (
                "unsorted link claims",
                Box::new(|s| s.opn.links[0].2 = vec![9, 3]),
            ),
            (
                "duplicate link claims",
                Box::new(|s| s.opn.links[0].2 = vec![3, 3]),
            ),
            (
                "unsorted bank claims",
                Box::new(|s| s.dt_banks.busy[0] = vec![9, 3]),
            ),
            (
                "duplicate DRAM claims",
                Box::new(|s| s.dram.busy[1] = vec![4, 4]),
            ),
            ("register id", Box::new(|s| s.reg_avail.push((128, 1)))),
            (
                "repeated register",
                Box::new(|s| s.reg_avail.push(s.reg_avail[0])),
            ),
            (
                "exit table size",
                Box::new(|s| {
                    s.predictor.lht.pop();
                }),
            ),
            ("chooser size", Box::new(|s| s.predictor.chooser.push(0))),
            ("BTB size", Box::new(|s| s.predictor.btb.push(None))),
            (
                "return stack depth",
                Box::new(|s| s.predictor.ras = vec![0; 64]),
            ),
            (
                "load-wait table size",
                Box::new(|s| {
                    s.lwt.bits.pop();
                }),
            ),
            (
                "pending block",
                Box::new(|s| {
                    s.pending = Some(PendingExit {
                        block: u32::MAX,
                        exit: 0,
                        kind: ExitKind::Jump,
                        cont: None,
                        resolve: 0,
                    })
                }),
            ),
        ];
        for (what, mutate) in mutations {
            let mut bad = good.clone();
            mutate(&mut bad);
            assert_ne!(&bad, good, "{what}: mutation must change the snapshot");
            assert!(
                matches!(
                    replay_trips_window(&compiled, &cfg, &log, window, &bad),
                    Err(SimError::Trace(_))
                ),
                "{what}: malformed live-point must be rejected"
            );
        }
    }

    #[test]
    fn replay_rejects_foreign_trace() {
        let small = compile(&sum_program(10), &CompileOptions::o0()).unwrap();
        let big = compile(&sum_program(10), &CompileOptions::o2()).unwrap();
        let mut log = TraceLog::capture(
            &big.trips,
            &big.opt_ir,
            1 << 20,
            u64::MAX,
            Default::default(),
        )
        .unwrap();
        // Point the trace at a block index the small program does not have.
        let nblocks = small.trips.blocks.len() as u32;
        log.seq.push((nblocks + 10, 0));
        log.header.dynamic_blocks += 1;
        assert!(matches!(
            full_replay(&small, &TripsConfig::prototype(), &log),
            Err(SimError::Trace(_))
        ));
        // A shape whose instruction indices do not exist in the block is
        // rejected structurally (no TRIPS block holds more than 128 insts).
        let mut log2 = TraceLog::capture(
            &big.trips,
            &big.opt_ir,
            1 << 20,
            u64::MAX,
            Default::default(),
        )
        .unwrap();
        log2.shapes[0].fired[0].idx = 200;
        assert!(matches!(
            full_replay(&big, &TripsConfig::prototype(), &log2),
            Err(SimError::Trace(_))
        ));
    }

    #[test]
    fn budget_limits_run() {
        let p = sum_program(100_000);
        let compiled = compile(&p, &CompileOptions::o0()).unwrap();
        let err = simulate_with_budget(&compiled, &TripsConfig::prototype(), 1 << 20, 100);
        assert!(err.is_err(), "budget should cut the run short");
    }
}
