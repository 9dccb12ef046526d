//! The out-of-order timing model.
//!
//! Execute-at-fetch: a [`trips_risc::EventSource`] provides the dynamic
//! instruction stream with branch outcomes and memory addresses; the model
//! assigns each instruction fetch, issue and completion cycles under the
//! configured machine's resource constraints.
//!
//! The source may be a live functional machine ([`run_timed`], the
//! execution-driven reference, always detailed) or a recorded
//! [`RiscTrace`] walked by [`OooCore`] as a [`trips_sample::TimingCore`],
//! so full, sampled and phased replay, live-point capture and restored
//! windows are the shared drivers of `trips-sample`. Both feed the same
//! per-instruction model (detailed, or functional warming of the caches
//! and branch predictor), so replayed timing is bit-identical to
//! execution-driven timing by construction.

use crate::configs::OooConfig;
use serde::{Deserialize, Serialize};
use trips_ir::Program;
use trips_risc::exec::{CtrlKind, EventSource, MachineSource, RiscError, StepEvent};
use trips_risc::{CursorState, RCat, RProgram, RiscTrace, TraceCursor};
use trips_sample::{
    Phase, PhasePlan, PhaseWindow, ReplayMode, SampleSummary, TimingCore, WindowMeasure,
};
use trips_sim::cache::{partition_point_from_end, Cache, CacheSnapshot};

/// Timing statistics of one run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OooStats {
    /// Total cycles (retire time of the last instruction).
    pub cycles: u64,
    /// Dynamic instructions.
    pub insts: u64,
    /// Conditional branches.
    pub branches: u64,
    /// Conditional-branch mispredictions.
    pub br_mispredicts: u64,
    /// Return-address mispredictions.
    pub ras_mispredicts: u64,
    /// L1 data misses.
    pub l1_misses: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// L1 data accesses.
    pub l1_accesses: u64,
    /// Whether this run interval-sampled the stream (see
    /// [`trips_sample::SamplePlan`]). When false, `est_cycles == cycles`
    /// and `total_insts == insts`.
    pub sampled: bool,
    /// Dynamic instructions in the stream (timed + warmed + skipped);
    /// [`OooStats::insts`] counts only the detailed-timed ones.
    pub total_insts: u64,
    /// Whole-run cycle estimate: measured cycles extrapolated over the
    /// stream (`cycles × total_insts / insts`); equals `cycles` for full
    /// runs.
    pub est_cycles: u64,
}

impl OooStats {
    /// Instructions per cycle. For a sampled run this is the whole-run
    /// estimate (total instructions over extrapolated cycles); for a full
    /// run the two formulations coincide.
    pub fn ipc(&self) -> f64 {
        if self.sampled {
            if self.est_cycles == 0 {
                0.0
            } else {
                self.total_insts as f64 / self.est_cycles as f64
            }
        } else if self.cycles == 0 {
            0.0
        } else {
            self.insts as f64 / self.cycles as f64
        }
    }

    /// Conditional-branch MPKI.
    pub fn br_mpki(&self) -> f64 {
        if self.insts == 0 {
            0.0
        } else {
            self.br_mispredicts as f64 * 1000.0 / self.insts as f64
        }
    }

    /// Fraction of stream instructions timed in detail (1.0 for full runs).
    pub fn detailed_frac(&self) -> f64 {
        if self.total_insts == 0 {
            1.0
        } else {
            self.insts as f64 / self.total_insts as f64
        }
    }
}

/// Result of a timed run.
#[derive(Debug, Clone)]
pub struct OooResult {
    /// Program return value.
    pub return_value: u64,
    /// Timing statistics.
    pub stats: OooStats,
}

/// Gshare/bimodal tournament predictor with a return-address stack.
struct Predictor {
    mask: usize,
    ras_depth: usize,
    /// Tables and histories: the state a live-point carries.
    t: PredSnap,
}

impl Predictor {
    fn new(entries: usize, ras_depth: usize) -> Predictor {
        let n = entries.next_power_of_two();
        Predictor {
            mask: n - 1,
            ras_depth,
            t: PredSnap {
                bim: vec![1; n],
                gsh: vec![1; n],
                chooser: vec![1; n],
                ghr: 0,
                ras: Vec::new(),
            },
        }
    }

    fn branch(&mut self, pc: u32, taken: bool) -> bool {
        let bi = pc as usize & self.mask;
        let gi = (pc as usize ^ (self.t.ghr as usize)) & self.mask;
        let bp = self.t.bim[bi] >= 2;
        let gp = self.t.gsh[gi] >= 2;
        let pred = if self.t.chooser[bi] >= 2 { gp } else { bp };
        if gp == taken && bp != taken {
            self.t.chooser[bi] = (self.t.chooser[bi] + 1).min(3);
        } else if bp == taken && gp != taken {
            self.t.chooser[bi] = self.t.chooser[bi].saturating_sub(1);
        }
        let bump = |c: &mut u8| {
            if taken {
                *c = (*c + 1).min(3)
            } else {
                *c = c.saturating_sub(1)
            }
        };
        bump(&mut self.t.bim[bi]);
        bump(&mut self.t.gsh[gi]);
        self.t.ghr = (self.t.ghr << 1) | taken as u32;
        pred
    }

    fn call(&mut self, ret_to: (u32, u32)) {
        if self.t.ras.len() == self.ras_depth {
            self.t.ras.remove(0);
        }
        self.t.ras.push(ret_to);
    }

    fn ret(&mut self, actual: (u32, u32)) -> bool {
        self.t.ras.pop() == Some(actual)
    }
}

/// A tracker holding more than this many cycles prunes on its next take.
const PRUNE_ABOVE: usize = 4096;
/// How far behind the cycle just taken a prune keeps pairs.
const PRUNE_KEEP: u64 = 1024;

/// Issue-bandwidth tracker: at most `width` issues per cycle.
///
/// Holds one `(cycle, count)` pair per cycle with at least one issue,
/// sorted by cycle, with `1 ≤ count ≤ width`. Slot searches start at
/// operand-ready times near the newest pairs, so a take gallops back from
/// the end of the list. Once more than [`PRUNE_ABOVE`] pairs are held,
/// each take drops every pair more than [`PRUNE_KEEP`] cycles behind the
/// cycle it took. That is the rule of the cycle-keyed hash map this list
/// replaced, so after every take the list holds exactly the map's pairs
/// and a snapshot lists the same pairs in the same (sorted) order: the
/// live-point bytes did not change with the representation.
struct IssueSlots {
    width: u32,
    slots: Vec<(u64, u32)>,
}

impl IssueSlots {
    fn new(width: u32) -> IssueSlots {
        IssueSlots {
            width,
            slots: Vec::new(),
        }
    }

    /// Takes a slot in the first cycle at or after `earliest` with one
    /// free, and returns that cycle.
    fn take(&mut self, earliest: u64) -> u64 {
        let mut t = earliest;
        let mut i = partition_point_from_end(&self.slots, |s| s.0 < t);
        loop {
            match self.slots.get_mut(i) {
                Some(s) if s.0 == t && s.1 >= self.width => {
                    t += 1;
                    i += 1;
                }
                Some(s) if s.0 == t => {
                    s.1 += 1;
                    break;
                }
                _ => {
                    self.slots.insert(i, (t, 1));
                    break;
                }
            }
        }
        if self.slots.len() > PRUNE_ABOVE {
            let floor = t.saturating_sub(PRUNE_KEEP);
            let cut = self.slots.partition_point(|s| s.0 < floor);
            self.slots.drain(..cut);
        }
        t
    }

    /// The pairs at cycle `horizon` or later, in ascending order.
    fn snapshot(&self, horizon: u64) -> Vec<(u64, u32)> {
        self.slots[self.slots.partition_point(|s| s.0 < horizon)..].to_vec()
    }

    /// Puts the tracker in the state [`IssueSlots::snapshot`] listed.
    ///
    /// # Errors
    /// When the cycles are not strictly ascending, or a count is 0 or
    /// above the width.
    fn restore(&mut self, pairs: &[(u64, u32)]) -> Result<(), String> {
        let mut prev = None;
        for &(t, n) in pairs {
            if let Some(p) = prev.filter(|&p| p >= t) {
                return Err(format!(
                    "live-point issue cycles not strictly ascending ({p} then {t})"
                ));
            }
            if n == 0 || n > self.width {
                return Err(format!(
                    "live-point issues {n} at cycle {t} on a {}-wide port",
                    self.width
                ));
            }
            prev = Some(t);
        }
        self.slots.clear();
        self.slots.extend_from_slice(pairs);
        Ok(())
    }
}

/// Serializable image of the local [`Predictor`] (tables + history; the
/// geometry is re-derived from the config on restore and validated).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct PredSnap {
    bim: Vec<u8>,
    gsh: Vec<u8>,
    chooser: Vec<u8>,
    ghr: u32,
    ras: Vec<(u32, u32)>,
}

/// One OoO core's complete warmed machine state at a live-point boundary,
/// plus the trace-cursor position, so a restored replay resumes the event
/// stream and the pipeline model bit-identically to a sequential
/// fast-forward. Fields are private (the payload is an opaque checkpoint).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OooSnapshot {
    unit: u64,
    cursor: CursorState,
    l1: CacheSnapshot,
    l2: CacheSnapshot,
    pred: PredSnap,
    issue: Vec<(u64, u32)>,
    mem_ports: Vec<(u64, u32)>,
    fp_ports: Vec<(u64, u32)>,
    reg_ready: [u64; 32],
    fetch_cycle: u64,
    fetched_this_cycle: u32,
    retire_ring: Vec<u64>,
    last_retire: u64,
    acct: u64,
    idx: u64,
}

/// The complete mutable machine state, shared by the execution-driven
/// loop ([`run_timed`]) and every replay ([`OooCore`]).
struct OooState {
    l1: Cache,
    l2: Cache,
    pred: Predictor,
    issue: IssueSlots,
    mem_ports: IssueSlots,
    fp_ports: IssueSlots,
    reg_ready: [u64; 32],
    fetch_cycle: u64,
    fetched_this_cycle: u32,
    retire_ring: Vec<u64>,
    last_retire: u64,
    /// The smoothed clock sampled windows are metered on. `last_retire`
    /// jumps by a full DRAM latency the moment a missing load is
    /// processed, even when nothing in the window waits on the data, so
    /// metering on it charged in-flight latency that full replay overlaps
    /// with later instructions to whichever window happened to be open
    /// (short windows were noisy, ~±4% per workload). `acct` advances to
    /// each instruction's *issue-side* completion horizon instead: a
    /// miss's DRAM tail enters it only once a dependent's operand wait, a
    /// full ROB or a fetch stall propagates it into some issue time. Full
    /// replay never reads it.
    acct: u64,
    idx: u64,
}

impl OooState {
    fn new(cfg: &OooConfig) -> OooState {
        OooState {
            l1: Cache::new(cfg.l1_bytes, 4, cfg.line),
            l2: Cache::new(cfg.l2_bytes, 8, cfg.line),
            pred: Predictor::new(cfg.predictor_entries, cfg.ras_depth),
            issue: IssueSlots::new(cfg.issue_width),
            mem_ports: IssueSlots::new(cfg.mem_ports),
            fp_ports: IssueSlots::new(cfg.fp_ports),
            reg_ready: [0u64; 32],
            fetch_cycle: 0,
            fetched_this_cycle: 0,
            retire_ring: vec![0; cfg.rob],
            last_retire: 0,
            acct: 0,
            idx: 0,
        }
    }

    /// Fast-forward with functional warming: caches and the branch
    /// predictor observe the instruction; the pipeline model never runs
    /// and no counters move.
    fn warm(&mut self, ev: &StepEvent) {
        if let Some((addr, _)) = ev.mem {
            if !self.l1.access(addr) {
                self.l2.access(addr);
            }
        }
        match ev.ctrl_kind {
            CtrlKind::Cond => {
                let taken = ev.cond.unwrap_or(false);
                let pc_hash = (ev.func << 16) ^ ev.idx;
                let _ = self.pred.branch(pc_hash, taken);
            }
            CtrlKind::Call => self.pred.call((ev.func, ev.idx + 1)),
            CtrlKind::Ret => {
                if let Some(t) = ev.transfer {
                    let _ = self.pred.ret(t);
                }
            }
            CtrlKind::Jump | CtrlKind::None => {}
        }
    }

    /// One instruction through the full pipeline model. `counting` gates
    /// every statistics update; machine state advances identically either
    /// way (the timed-warmup path is exactly this with `counting` off).
    fn step(
        &mut self,
        rp: &RProgram,
        cfg: &OooConfig,
        ev: &StepEvent,
        counting: bool,
        stats: &mut OooStats,
    ) {
        // Indices are valid: both sources bounds-check before emitting.
        let inst = &rp.funcs[ev.func as usize].insts[ev.idx as usize];
        if counting {
            stats.insts += 1;
        }

        // Fetch bandwidth.
        if self.fetched_this_cycle >= cfg.fetch_width {
            self.fetch_cycle += 1;
            self.fetched_this_cycle = 0;
        }
        // ROB window: can't fetch past a full window.
        let slot = (self.idx as usize) % cfg.rob;
        if self.retire_ring[slot] > self.fetch_cycle {
            self.fetch_cycle = self.retire_ring[slot];
            self.fetched_this_cycle = 0;
        }
        let fetch_t = self.fetch_cycle;
        self.fetched_this_cycle += 1;

        // Operand readiness.
        let mut ready = fetch_t + cfg.frontend;
        for r in inst.reads().iter() {
            ready = ready.max(self.reg_ready[r.0 as usize]);
        }
        let mut issue_t = self.issue.take(ready);
        // Structural ports: memory and FP pipes are narrower than the
        // overall issue width on all three reference machines.
        match ev.cat {
            RCat::Load | RCat::Store => issue_t = self.mem_ports.take(issue_t),
            RCat::Fp => issue_t = self.fp_ports.take(issue_t),
            _ => {}
        }
        // DRAM portion of this instruction's latency (for the smoothed
        // accounting clock: it is excluded from the issue-side horizon).
        let mut dram_lat: u64 = 0;
        let lat = match ev.cat {
            RCat::Alu => 1,
            RCat::MulDiv => {
                if matches!(
                    inst,
                    trips_risc::RInst::Alu {
                        op: trips_ir::Opcode::Div
                            | trips_ir::Opcode::Udiv
                            | trips_ir::Opcode::Rem
                            | trips_ir::Opcode::Urem,
                        ..
                    }
                ) {
                    cfg.div_lat
                } else {
                    cfg.mul_lat
                }
            }
            RCat::Fp => cfg.fp_lat,
            RCat::Control => 1,
            RCat::Load | RCat::Store => {
                let addr = ev.mem.map(|(a, _)| a).unwrap_or(0);
                if counting {
                    stats.l1_accesses += 1;
                }
                if self.l1.access(addr) {
                    cfg.l1_lat
                } else {
                    if counting {
                        stats.l1_misses += 1;
                    }
                    if self.l2.access(addr) {
                        cfg.l1_lat + cfg.l2_lat
                    } else {
                        if counting {
                            stats.l2_misses += 1;
                        }
                        dram_lat = cfg.mem_lat;
                        cfg.l1_lat + cfg.l2_lat + cfg.mem_lat
                    }
                }
            }
        };
        let done = issue_t + lat;
        if let Some(d) = inst.writes() {
            self.reg_ready[d.0 as usize] = done;
        }

        // Control flow.
        match ev.ctrl_kind {
            CtrlKind::Cond => {
                if counting {
                    stats.branches += 1;
                }
                let taken = ev.cond.unwrap_or(false);
                let pc_hash = (ev.func << 16) ^ ev.idx;
                let predicted = self.pred.branch(pc_hash, taken);
                if predicted != taken {
                    if counting {
                        stats.br_mispredicts += 1;
                    }
                    self.fetch_cycle = self.fetch_cycle.max(done + cfg.br_penalty);
                    self.fetched_this_cycle = 0;
                }
            }
            CtrlKind::Call => {
                self.pred.call((ev.func, ev.idx + 1));
            }
            CtrlKind::Ret => {
                if let Some(t) = ev.transfer {
                    if !self.pred.ret(t) {
                        if counting {
                            stats.ras_mispredicts += 1;
                        }
                        self.fetch_cycle = self.fetch_cycle.max(done + cfg.br_penalty);
                        self.fetched_this_cycle = 0;
                    }
                }
            }
            CtrlKind::Jump | CtrlKind::None => {}
        }

        // In-order retirement.
        let retire = done.max(self.last_retire);
        self.last_retire = retire;
        self.retire_ring[slot] = retire;
        stats.cycles = stats.cycles.max(retire);
        // Issue-side completion horizon: the DRAM tail of a miss stays
        // out until some later instruction's issue time absorbs it.
        self.acct = self.acct.max(done - dram_lat);
        self.idx += 1;
    }

    fn snapshot(&self, unit: u64, cursor: CursorState) -> OooSnapshot {
        // Port/issue counts ~1M cycles behind the clock can never be
        // probed again: every later take starts at or after
        // `fetch_cycle`, since an instruction is ready no earlier than its
        // fetch plus the front end. Keep them out of the snapshot. The
        // anchor is the most conservative of the machine's clocks. A
        // shorter list can delay the restored tracker's next prune, which
        // only matters if a prune drops a pair some later take probes;
        // the restored-window ≡ sequential checks would see that.
        let horizon = self
            .acct
            .min(self.fetch_cycle)
            .min(self.last_retire)
            .saturating_sub(1 << 20);
        OooSnapshot {
            unit,
            cursor,
            l1: self.l1.snapshot(),
            l2: self.l2.snapshot(),
            pred: self.pred.t.clone(),
            issue: self.issue.snapshot(horizon),
            mem_ports: self.mem_ports.snapshot(horizon),
            fp_ports: self.fp_ports.snapshot(horizon),
            reg_ready: self.reg_ready,
            fetch_cycle: self.fetch_cycle,
            fetched_this_cycle: self.fetched_this_cycle,
            retire_ring: self.retire_ring.clone(),
            last_retire: self.last_retire,
            acct: self.acct,
            idx: self.idx,
        }
    }

    /// Puts this machine in exactly the captured state. Every piece is
    /// checked against this machine's configuration (a live-point only
    /// fits the configuration that captured it), so a malformed or
    /// foreign snapshot is an `Err`, never a panic; the machine is then
    /// discarded.
    fn restore(&mut self, s: &OooSnapshot) -> Result<(), String> {
        let pred = &mut self.pred.t;
        if pred.bim.len() != s.pred.bim.len()
            || pred.gsh.len() != s.pred.gsh.len()
            || pred.chooser.len() != s.pred.chooser.len()
        {
            return Err("live-point predictor geometry does not match this config".into());
        }
        if s.pred.ras.len() > self.pred.ras_depth {
            return Err("live-point return stack is deeper than this config's".into());
        }
        if self.retire_ring.len() != s.retire_ring.len() {
            return Err("live-point ROB depth does not match this config".into());
        }
        self.l1.restore(&s.l1)?;
        self.l2.restore(&s.l2)?;
        pred.clone_from(&s.pred);
        self.issue.restore(&s.issue)?;
        self.mem_ports.restore(&s.mem_ports)?;
        self.fp_ports.restore(&s.fp_ports)?;
        self.reg_ready = s.reg_ready;
        self.fetch_cycle = s.fetch_cycle;
        self.fetched_this_cycle = s.fetched_this_cycle;
        self.retire_ring.clone_from(&s.retire_ring);
        self.last_retire = s.last_retire;
        self.acct = s.acct;
        self.idx = s.idx;
        Ok(())
    }
}

/// Runs `rp` on the configured reference machine, driving the timing model
/// from a live functional execution: the execution-driven reference every
/// replay is bit-identical to. Always detailed — a live source has no
/// known length to place sampling windows in.
///
/// # Errors
/// Propagates functional execution errors ([`RiscError`]).
pub fn run_timed(
    rp: &RProgram,
    ir: &Program,
    cfg: &OooConfig,
    mem_size: usize,
    step_limit: u64,
) -> Result<OooResult, RiscError> {
    let mut src = MachineSource::new(rp, ir, mem_size, step_limit);
    let mut st = OooState::new(cfg);
    let mut stats = OooStats::default();
    while let Some(ev) = src.next_event()? {
        st.step(rp, cfg, &ev, true, &mut stats);
    }
    stats.total_insts = stats.insts;
    stats.est_cycles = stats.cycles;
    Ok(OooResult {
        return_value: src.return_value(),
        stats,
    })
}

/// Times a recorded RISC event stream on the configured reference machine
/// under `mode` ([`trips_sample::replay`]): one functional execution, N of
/// these. A `Full` replay is bit-identical to [`run_timed`].
///
/// # Errors
/// [`RiscError::Trace`] if the stream disagrees with `rp` (callers holding
/// a store-loaded trace should `validate` it first), or a phase plan was
/// fitted to another stream.
pub fn run_timed_trace_mode(
    rp: &RProgram,
    trace: &RiscTrace,
    cfg: &OooConfig,
    mode: &ReplayMode,
) -> Result<OooResult, RiscError> {
    trips_sample::replay(OooCore::new(rp, trace, cfg), mode)
}

/// A phased replay that also captures a live-point — machine state plus
/// cursor position — at each window's warm start
/// ([`trips_sample::capture_phased`]).
///
/// # Errors
/// See [`run_timed_trace_mode`]; also a plan that covers everything.
pub fn run_ooo_phased_capture(
    rp: &RProgram,
    trace: &RiscTrace,
    cfg: &OooConfig,
    plan: &PhasePlan,
) -> Result<(OooResult, Vec<OooSnapshot>), RiscError> {
    trips_sample::capture_phased(OooCore::new(rp, trace, cfg), plan)
}

/// Replays one phase window from its live-point
/// ([`trips_sample::replay_window`]).
///
/// # Errors
/// [`RiscError::Trace`] for a malformed window or a snapshot of another
/// boundary or config.
pub fn replay_ooo_window(
    rp: &RProgram,
    trace: &RiscTrace,
    cfg: &OooConfig,
    window: &PhaseWindow,
    snap: &OooSnapshot,
) -> Result<WindowMeasure<OooStats>, RiscError> {
    trips_sample::replay_window(OooCore::new(rp, trace, cfg), window, snap)
}

/// One out-of-order machine walking a recorded RISC stream: the
/// [`TimingCore`] behind every replay driver. Windows are metered on the
/// smoothed accounting clock `acct`.
pub struct OooCore<'a> {
    rp: &'a RProgram,
    cfg: &'a OooConfig,
    trace: &'a RiscTrace,
    cursor: TraceCursor<'a>,
    st: OooState,
    stats: OooStats,
    /// Next stream unit.
    pos: u64,
}

impl<'a> OooCore<'a> {
    /// A fresh `cfg` machine at the start of `trace`, replayed against
    /// `rp`.
    #[must_use]
    pub fn new(rp: &'a RProgram, trace: &'a RiscTrace, cfg: &'a OooConfig) -> Self {
        OooCore {
            rp,
            cfg,
            trace,
            cursor: trace.cursor(rp),
            st: OooState::new(cfg),
            stats: OooStats::default(),
            pos: 0,
        }
    }
}

impl TimingCore for OooCore<'_> {
    type Snapshot = OooSnapshot;
    type Stats = OooStats;
    type Output = OooResult;
    type Error = RiscError;
    const LABEL: &'static str = "ooo";

    fn units(&self) -> u64 {
        self.trace.header.dynamic_insts
    }

    fn clock(&self) -> u64 {
        self.st.acct
    }

    #[inline]
    fn step(&mut self, phase: Phase) -> Result<(), RiscError> {
        let ev = self.cursor.next_event()?.ok_or_else(|| {
            RiscError::Trace(format!(
                "stream ended at unit {} of its recording",
                self.pos
            ))
        })?;
        self.pos += 1;
        match phase {
            Phase::Warm => self.st.warm(&ev),
            // TimedWarm and Detailed both run the full pipeline model;
            // TimedWarm discards the counters, refilling in-flight state
            // so the next window measures a busy machine.
            Phase::TimedWarm => self.st.step(self.rp, self.cfg, &ev, false, &mut self.stats),
            Phase::Detailed => self.st.step(self.rp, self.cfg, &ev, true, &mut self.stats),
        }
        if self.pos == self.units() {
            // Past its last event the cursor checks that the branch and
            // address streams were consumed exactly.
            self.cursor.next_event()?;
        }
        Ok(())
    }

    fn snapshot(&self) -> OooSnapshot {
        self.st.snapshot(self.pos, self.cursor.state())
    }

    fn restore(&mut self, snap: &OooSnapshot) -> Result<u64, RiscError> {
        self.st.restore(snap).map_err(RiscError::Trace)?;
        self.cursor = self.trace.cursor_at(self.rp, &snap.cursor);
        self.pos = snap.unit;
        Ok(snap.unit)
    }

    fn window_stats(self) -> OooStats {
        self.stats
    }

    /// Field-wise sum of the measured counters; the clock-derived fields
    /// come from `finish`.
    fn absorb(&mut self, w: &OooStats) {
        let s = &mut self.stats;
        s.insts += w.insts;
        s.branches += w.branches;
        s.br_mispredicts += w.br_mispredicts;
        s.ras_mispredicts += w.ras_mispredicts;
        s.l1_misses += w.l1_misses;
        s.l2_misses += w.l2_misses;
        s.l1_accesses += w.l1_accesses;
    }

    fn finish(self, summary: Option<&SampleSummary>) -> OooResult {
        let mut stats = self.stats;
        stats.total_insts = self.trace.header.dynamic_insts;
        match summary {
            Some(s) => {
                assert_eq!(s.measured_units, stats.insts, "measured insts ≠ planned");
                stats.sampled = true;
                // Measured-window cycles only: timed warmup advanced the
                // clock but is not part of the sample.
                stats.cycles = s.measured_cycles.max(u64::from(stats.insts > 0));
                stats.est_cycles = s.est_cycles.max(stats.cycles);
            }
            None => stats.est_cycles = stats.cycles,
        }
        OooResult {
            return_value: self.trace.return_value,
            stats,
        }
    }

    fn reject(why: String) -> RiscError {
        RiscError::Trace(why)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs;
    use proptest::prelude::*;
    use serde::Value;
    use std::collections::HashMap;
    use trips_ir::{IntCc, Operand, ProgramBuilder};
    use trips_risc::compile_program;
    use trips_sample::assemble_windows;

    fn sum_program(n: i64) -> Program {
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
    fn result_matches_functional() {
        let p = sum_program(500);
        let rp = compile_program(&p).unwrap();
        let r = run_timed(&rp, &p, &configs::core2(), 1 << 20, 100_000_000).unwrap();
        assert_eq!(r.return_value, (0..500).sum::<i64>() as u64);
        assert!(r.stats.cycles > 0);
        assert!(r.stats.ipc() > 0.2 && r.stats.ipc() <= 4.0);
    }

    #[test]
    fn core2_beats_pentium3_on_loops() {
        let p = sum_program(5000);
        let rp = compile_program(&p).unwrap();
        let c2 = run_timed(&rp, &p, &configs::core2(), 1 << 20, 1_000_000_000).unwrap();
        let p3 = run_timed(&rp, &p, &configs::pentium3(), 1 << 20, 1_000_000_000).unwrap();
        assert!(
            c2.stats.cycles < p3.stats.cycles,
            "Core2 {} !< P3 {}",
            c2.stats.cycles,
            p3.stats.cycles
        );
    }

    #[test]
    fn branchy_code_hurts_pentium4_more() {
        // Data-dependent branch pattern (pseudo-random) stresses prediction.
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let e = f.entry();
        let body = f.block();
        let t = f.block();
        let fl = f.block();
        let cont = f.block();
        let done = f.block();
        f.switch_to(e);
        let acc = f.iconst(0);
        let x = f.iconst(12345);
        let i = f.iconst(0);
        f.jump(body);
        f.switch_to(body);
        // x = x * 1103515245 + 12345 (LCG); branch on bit 12.
        f.ibin_to(trips_ir::Opcode::Mul, x, x, 1103515245i64);
        f.ibin_to(trips_ir::Opcode::Add, x, x, 12345i64);
        let bit = f.shr(x, 12i64);
        let odd = f.and(bit, 1i64);
        f.branch(odd, t, fl);
        f.switch_to(t);
        f.ibin_to(trips_ir::Opcode::Add, acc, acc, 3i64);
        f.jump(cont);
        f.switch_to(fl);
        f.ibin_to(trips_ir::Opcode::Add, acc, acc, 1i64);
        f.jump(cont);
        f.switch_to(cont);
        f.ibin_to(trips_ir::Opcode::Add, i, i, 1i64);
        let c = f.icmp(IntCc::Lt, i, 3000i64);
        f.branch(c, body, done);
        f.switch_to(done);
        f.ret(Some(Operand::reg(acc)));
        f.finish();
        let p = pb.finish("main").unwrap();
        let rp = compile_program(&p).unwrap();
        let c2 = run_timed(&rp, &p, &configs::core2(), 1 << 20, 1_000_000_000).unwrap();
        let p4 = run_timed(&rp, &p, &configs::pentium4(), 1 << 20, 1_000_000_000).unwrap();
        assert_eq!(c2.return_value, p4.return_value);
        assert!(p4.stats.cycles > c2.stats.cycles);
        assert!(p4.stats.br_mispredicts > 0);
    }

    /// A hand-built phase plan over a stream of `total` units: boundary
    /// windows plus one weighted interior representative.
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
        let p = sum_program(6000);
        let rp = compile_program(&p).unwrap();
        let trace = trips_risc::RiscTrace::capture(
            &rp,
            &p,
            1 << 20,
            100_000_000,
            trips_risc::RiscTraceMeta::default(),
        )
        .unwrap();
        let plan = handmade_plan(trace.header.dynamic_insts);
        plan.validate().unwrap();
        assert!(!plan.covers_everything());
        for cfg in [configs::core2(), configs::pentium4(), configs::pentium3()] {
            let sequential =
                run_timed_trace_mode(&rp, &trace, &cfg, &ReplayMode::Phased(plan.clone())).unwrap();
            let (captured, snaps) = run_ooo_phased_capture(&rp, &trace, &cfg, &plan).unwrap();
            assert_eq!(
                captured.stats, sequential.stats,
                "{}: capture pass must match the plain phased replay",
                cfg.name
            );
            assert_eq!(snaps.len(), plan.windows.len());
            // Snapshots round-trip through bytes (the store's discipline).
            let measures: Vec<WindowMeasure<OooStats>> = plan
                .windows
                .iter()
                .zip(&snaps)
                .map(|(w, s)| {
                    let bytes = serde::bin::to_bytes(s);
                    let back: OooSnapshot = serde::bin::from_bytes(&bytes).unwrap();
                    assert_eq!(&back, s);
                    replay_ooo_window(&rp, &trace, &cfg, w, &back).unwrap()
                })
                .collect();
            let assembled =
                assemble_windows(OooCore::new(&rp, &trace, &cfg), &plan, &measures).unwrap();
            assert_eq!(
                assembled.stats, sequential.stats,
                "{}: restore-then-replay must match fast-forward-then-replay",
                cfg.name
            );
            assert_eq!(assembled.return_value, sequential.return_value);
        }
    }

    #[test]
    fn livepoint_window_rejects_a_foreign_snapshot() {
        let p = sum_program(3000);
        let rp = compile_program(&p).unwrap();
        let trace = trips_risc::RiscTrace::capture(
            &rp,
            &p,
            1 << 20,
            100_000_000,
            trips_risc::RiscTraceMeta::default(),
        )
        .unwrap();
        let plan = handmade_plan(trace.header.dynamic_insts);
        let (_, snaps) = run_ooo_phased_capture(&rp, &trace, &configs::core2(), &plan).unwrap();
        // Wrong boundary.
        assert!(
            replay_ooo_window(&rp, &trace, &configs::core2(), &plan.windows[1], &snaps[0]).is_err()
        );
        // Wrong machine geometry (snapshot captured under Core2).
        assert!(replay_ooo_window(
            &rp,
            &trace,
            &configs::pentium3(),
            &plan.windows[1],
            &snaps[1]
        )
        .is_err());
        // Wrong measurement count.
        let core2 = configs::core2();
        assert!(assemble_windows(OooCore::new(&rp, &trace, &core2), &plan, &[]).is_err());
    }

    #[test]
    fn malformed_windows_are_rejected() {
        let p = sum_program(3000);
        let rp = compile_program(&p).unwrap();
        let trace = trips_risc::RiscTrace::capture(
            &rp,
            &p,
            1 << 20,
            100_000_000,
            trips_risc::RiscTraceMeta::default(),
        )
        .unwrap();
        let plan = handmade_plan(trace.header.dynamic_insts);
        let cfg = configs::core2();
        let (_, snaps) = run_ooo_phased_capture(&rp, &trace, &cfg, &plan).unwrap();
        let (good, snap) = (plan.windows[1], &snaps[1]);
        assert!(good.warm_start < good.detail_start);
        assert!(replay_ooo_window(&rp, &trace, &cfg, &good, snap).is_ok());
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
                end: trace.header.dynamic_insts + 1,
                ..good
            },
        ] {
            assert!(
                matches!(
                    replay_ooo_window(&rp, &trace, &cfg, &bad, snap),
                    Err(RiscError::Trace(_))
                ),
                "{bad:?} must be rejected"
            );
        }
    }

    /// `c` with `f` applied to its per-set tag lists, through its serde
    /// image (the fields belong to `trips_sim`).
    fn sets(c: &CacheSnapshot, f: impl Fn(&mut Vec<Value>)) -> CacheSnapshot {
        let mut v = serde::to_value(c);
        if let Value::Map(fields) = &mut v {
            if let Some((_, Value::Seq(tags))) =
                fields.iter_mut().find(|f| f.0 == Value::str("tags"))
            {
                f(tags);
            }
        }
        serde::from_value(&v).unwrap()
    }

    /// The serde image of one cache set with `n` empty ways.
    fn ways(n: usize) -> Value {
        serde::to_value(&vec![(u64::MAX, 0u64); n])
    }

    #[test]
    fn malformed_livepoints_are_rejected_without_panicking() {
        let p = sum_program(3000);
        let rp = compile_program(&p).unwrap();
        let trace = RiscTrace::capture(
            &rp,
            &p,
            1 << 20,
            100_000_000,
            trips_risc::RiscTraceMeta::default(),
        )
        .unwrap();
        let cfg = configs::core2();
        let warm = trace.header.dynamic_insts / 2;
        let mut core = OooCore::new(&rp, &trace, &cfg);
        for _ in 0..warm {
            core.step(Phase::Warm).unwrap();
        }
        let good = core.snapshot();
        let window = PhaseWindow {
            warm_start: warm,
            detail_start: warm + 64,
            end: warm + 256,
            weight_units: 192,
        };
        assert!(replay_ooo_window(&rp, &trace, &cfg, &window, &good).is_ok());
        let mutations: [(&str, fn(&mut OooSnapshot)); 9] = [
            ("L1 set count", |s| s.l1 = sets(&s.l1, |t| t.truncate(1))),
            ("L2 set count", |s| {
                s.l2 = sets(&s.l2, |t| t.push(t[0].clone()))
            }),
            ("L1 way count", |s| s.l1 = sets(&s.l1, |t| t[0] = ways(0))),
            ("L2 way count", |s| s.l2 = sets(&s.l2, |t| t[1] = ways(9))),
            ("bimodal table size", |s| s.pred.bim.truncate(1)),
            ("gshare table size", |s| s.pred.gsh.push(1)),
            ("chooser table size", |s| s.pred.chooser.truncate(1)),
            ("return stack depth", |s| s.pred.ras = vec![(0, 0); 1000]),
            ("ROB depth", |s| s.retire_ring.truncate(1)),
        ];
        for (what, mutate) in mutations {
            let mut bad = good.clone();
            mutate(&mut bad);
            assert_ne!(bad, good, "{what}: mutation must change the snapshot");
            assert!(
                matches!(
                    replay_ooo_window(&rp, &trace, &cfg, &window, &bad),
                    Err(RiscError::Trace(_))
                ),
                "{what}: malformed live-point must be rejected"
            );
        }
    }

    #[test]
    fn unsorted_phase_plans_are_rejected() {
        let p = sum_program(3000);
        let rp = compile_program(&p).unwrap();
        let trace = trips_risc::RiscTrace::capture(
            &rp,
            &p,
            1 << 20,
            100_000_000,
            trips_risc::RiscTraceMeta::default(),
        )
        .unwrap();
        let mut plan = handmade_plan(trace.header.dynamic_insts);
        plan.windows.reverse();
        assert!(plan.validate().is_err());
        let cfg = configs::core2();
        let mode = ReplayMode::Phased(plan.clone());
        assert!(matches!(
            run_timed_trace_mode(&rp, &trace, &cfg, &mode),
            Err(RiscError::Trace(_))
        ));
        assert!(run_ooo_phased_capture(&rp, &trace, &cfg, &plan).is_err());
    }

    /// The issue tracker as it was before the sorted list: a cycle-keyed
    /// map, probed forward, pruned past 4096 cycles to the last 1024
    /// behind the cycle taken. The reference model for [`IssueSlots`].
    struct IssueSlotsModel {
        width: u32,
        counts: HashMap<u64, u32>,
    }

    impl IssueSlotsModel {
        fn new(width: u32) -> IssueSlotsModel {
            IssueSlotsModel {
                width,
                counts: HashMap::new(),
            }
        }

        fn take(&mut self, earliest: u64) -> u64 {
            let mut t = earliest;
            loop {
                let c = self.counts.entry(t).or_insert(0);
                if *c < self.width {
                    *c += 1;
                    // Opportunistic pruning keeps the map small.
                    if self.counts.len() > 4096 {
                        let min = t.saturating_sub(1024);
                        self.counts.retain(|&k, _| k >= min);
                    }
                    return t;
                }
                t += 1;
            }
        }

        fn snapshot(&self, horizon: u64) -> Vec<(u64, u32)> {
            let mut v: Vec<(u64, u32)> = self
                .counts
                .iter()
                .filter(|&(&t, _)| t >= horizon)
                .map(|(&t, &c)| (t, c))
                .collect();
            v.sort_unstable();
            v
        }

        fn restore(&mut self, counts: &[(u64, u32)]) {
            self.counts = counts.iter().copied().collect();
        }
    }

    /// Drives both trackers through the same takes. Of 16 `kind`s, 8
    /// query near the clock, 1 hundreds of cycles ahead of it (a DRAM
    /// miss's dependent), 1 behind it, and 6 advance it. Returns how often
    /// the reference map shrank (pruned).
    fn drive_slots(
        slots: &mut IssueSlots,
        model: &mut IssueSlotsModel,
        clock: &mut u64,
        ops: &[(u8, u64)],
    ) -> Result<u32, TestCaseError> {
        let mut prunes = 0;
        for &(kind, off) in ops {
            let t = match kind {
                0..8 => *clock + off % 4,
                8 => *clock + 100 + off % 900,
                9 => clock.saturating_sub(off % 2048),
                _ => {
                    *clock += off % 4;
                    continue;
                }
            };
            let before = model.counts.len();
            prop_assert_eq!(slots.take(t), model.take(t), "take({})", t);
            prop_assert_eq!(slots.slots.len(), model.counts.len());
            if model.counts.len() < before {
                prunes += 1;
            }
        }
        Ok(prunes)
    }

    fn slot_ops(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<(u8, u64)>> {
        prop::collection::vec((0u8..16, 0u64..1 << 16), n)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn issue_slots_match_the_reference_map(
            width in 1u32..7,
            start in 0u64..3000,
            ops in slot_ops(50_000..60_000),
            more in slot_ops(2_000..4_000),
            horizons in prop::collection::vec(0u64..1 << 16, 4..5),
        ) {
            let mut slots = IssueSlots::new(width);
            let mut model = IssueSlotsModel::new(width);
            let mut clock = start;
            let prunes = drive_slots(&mut slots, &mut model, &mut clock, &ops)?;
            prop_assert!(prunes >= 3, "{} takes pruned only {} times", ops.len(), prunes);
            let below = horizons.iter().map(|&h| clock.saturating_sub(h));
            for h in below.chain([0, clock, u64::MAX]) {
                prop_assert_eq!(slots.snapshot(h), model.snapshot(h), "horizon {}", h);
            }
            // A restored full snapshot keeps agreeing.
            let snap = slots.snapshot(0);
            let mut slots = IssueSlots::new(width);
            slots.restore(&snap).unwrap();
            model.restore(&model.snapshot(0));
            drive_slots(&mut slots, &mut model, &mut clock, &more)?;
            prop_assert_eq!(slots.snapshot(0), model.snapshot(0));
        }
    }

    #[test]
    fn issue_slots_reject_unsorted_empty_or_overfull_cycles() {
        let mut slots = IssueSlots::new(3);
        slots.restore(&[]).unwrap();
        slots.restore(&[(4, 1), (5, 3), (900, 2)]).unwrap();
        assert_eq!(slots.snapshot(0), [(4, 1), (5, 3), (900, 2)]);
        assert_eq!(slots.take(5), 6);
        for bad in [
            &[(5, 1), (4, 1)][..],
            &[(5, 1), (5, 1)],
            &[(4, 1), (5, 0)],
            &[(4, 4)],
        ] {
            assert!(slots.restore(bad).is_err(), "{bad:?}");
        }
    }
}
