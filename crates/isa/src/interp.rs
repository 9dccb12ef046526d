//! Functional (untimed) dataflow interpreter for TRIPS programs.
//!
//! Executes blocks exactly as the hardware's dataflow semantics dictate —
//! operands flow along target arcs, predicated instructions fire only on
//! matching polarity, loads respect LSID order against earlier stores, and a
//! block completes only when all register writes and all masked stores have
//! been produced and exactly one exit has fired. Because it tracks which
//! fired instructions actually fed block outputs, it classifies every
//! fetched instruction into the paper's Figure 3 categories.

use crate::abi;
use crate::block::{BInst, Block, ExitTarget, Target, TargetSlot, TripsProgram};
use crate::opcode::TOpcode;
use crate::stats::{CompositionKind, IsaStats};
use serde::{Deserialize, Serialize};
use trips_ir::interp::{InterpError, Memory};
use trips_ir::program::Program;
use trips_ir::types::MemWidth;
use trips_ir::Opcode as IrOp;

use std::error::Error;
use std::fmt;

/// Execution failures of the TRIPS functional interpreter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TripsExecError {
    /// A block reached quiescence without producing all outputs — a compiler
    /// bug (violated output-completeness).
    IncompleteBlock {
        /// Offending block name.
        block: String,
        /// Human-readable description of what was missing.
        missing: String,
    },
    /// Two values arrived at the same operand slot in one block execution.
    DoubleDelivery {
        /// Offending block name.
        block: String,
        /// Consumer description.
        at: String,
    },
    /// More than one exit branch fired.
    MultipleExits {
        /// Offending block name.
        block: String,
    },
    /// A memory access faulted.
    Mem(InterpError),
    /// The dynamic block budget was exhausted.
    StepLimit,
    /// The program referenced a block out of range or was malformed.
    BadProgram(String),
}

impl fmt::Display for TripsExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TripsExecError::IncompleteBlock { block, missing } => {
                write!(f, "block {block} quiesced without completing: {missing}")
            }
            TripsExecError::DoubleDelivery { block, at } => {
                write!(f, "double operand delivery in block {block} at {at}")
            }
            TripsExecError::MultipleExits { block } => {
                write!(f, "multiple exits fired in block {block}")
            }
            TripsExecError::Mem(e) => write!(f, "memory fault: {e}"),
            TripsExecError::StepLimit => write!(f, "block execution budget exhausted"),
            TripsExecError::BadProgram(s) => write!(f, "malformed program: {s}"),
        }
    }
}

impl Error for TripsExecError {}

impl From<InterpError> for TripsExecError {
    fn from(e: InterpError) -> Self {
        TripsExecError::Mem(e)
    }
}

/// A value flowing on the operand network: 64 raw bits plus a null tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Val {
    bits: u64,
    null: bool,
}

impl Val {
    fn v(bits: u64) -> Val {
        Val { bits, null: false }
    }
    const NULL: Val = Val {
        bits: 0,
        null: true,
    };
    fn truthy(self) -> bool {
        self.bits != 0
    }
}

/// Result of a successful TRIPS program run.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// Value in the ABI return register when the top-level activation
    /// returned.
    pub return_value: u64,
    /// ISA-level statistics.
    pub stats: IsaStats,
    /// Final memory (checksum validation).
    pub memory: Memory,
}

/// Identifies a producer of a value within a block (for dead/used analyses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Producer {
    Read(u8),
    Inst(u8),
}

/// A value source, as reported in execution traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TraceSrc {
    /// Header read instruction index.
    Read(u8),
    /// Compute instruction index.
    Inst(u8),
}

/// A memory access performed by a fired instruction; its address travels
/// beside the trace (see [`run_program_traced`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TraceMem {
    /// Access size in bytes.
    pub bytes: u8,
    /// True for stores.
    pub is_store: bool,
}

/// The operand sources of one fired instruction, held inline: at most
/// two operands and a predicate. Unused slots hold `Read(0)`, so the
/// derived `Eq` and `Hash` see only the listed sources. It derefs to
/// `[TraceSrc]` and encodes as the `Vec<TraceSrc>` of its sources.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Srcs {
    len: u8,
    srcs: [TraceSrc; Srcs::CAP],
}

impl Srcs {
    /// Most sources one instruction can list.
    pub(crate) const CAP: usize = 3;

    /// No sources.
    pub(crate) const EMPTY: Srcs = Srcs {
        len: 0,
        srcs: [TraceSrc::Read(0); Srcs::CAP],
    };

    /// Appends `src`.
    ///
    /// # Panics
    /// When [`Srcs::CAP`] sources are already listed.
    pub(crate) fn push(&mut self, src: TraceSrc) {
        self.srcs[usize::from(self.len)] = src;
        self.len += 1;
    }
}

impl Default for Srcs {
    fn default() -> Srcs {
        Srcs::EMPTY
    }
}

impl std::ops::Deref for Srcs {
    type Target = [TraceSrc];

    fn deref(&self) -> &[TraceSrc] {
        &self.srcs[..usize::from(self.len)]
    }
}

impl<'a> IntoIterator for &'a Srcs {
    type Item = &'a TraceSrc;
    type IntoIter = std::slice::Iter<'a, TraceSrc>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

fn too_many_srcs(n: usize) -> serde::Error {
    serde::Error::msg(format!("{n} operand sources, at most {}", Srcs::CAP))
}

impl Serialize for Srcs {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(s)
    }
    fn encode_bin(&self, out: &mut Vec<u8>) {
        (**self).encode_bin(out);
    }
}

impl<'de> Deserialize<'de> for Srcs {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Srcs, D::Error> {
        use serde::de::Error;
        let items = match d.value_ref() {
            serde::Value::Seq(items) => items,
            _ => return Err(D::Error::custom("expected sequence")),
        };
        if items.len() > Srcs::CAP {
            return Err(D::Error::custom(too_many_srcs(items.len())));
        }
        let mut out = Srcs::EMPTY;
        for v in items {
            out.push(serde::from_value(v).map_err(D::Error::custom)?);
        }
        Ok(out)
    }
    fn decode_bin(r: &mut serde::bin::Reader<'_>) -> Result<Srcs, serde::Error> {
        let len = r.seq()?;
        if len > Srcs::CAP {
            return Err(too_many_srcs(len));
        }
        let mut out = Srcs::EMPTY;
        for _ in 0..len {
            out.push(TraceSrc::decode_bin(r)?);
        }
        Ok(out)
    }
}

/// One fired instruction in a block execution, in fire order.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TraceInst {
    /// Index into [`Block::insts`].
    pub idx: u8,
    /// Producers that delivered this instruction's operands (including the
    /// predicate operand).
    pub srcs: Srcs,
    /// Memory access, if any.
    pub mem: Option<TraceMem>,
}

/// Dynamic dataflow trace of one block execution without its addresses
/// (its path), consumed by the cycle-level timing model (`trips-sim`)
/// either live or recorded into a [`crate::trace::TraceLog`] and replayed.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BlockTrace {
    /// Fired instructions in fire order.
    pub fired: Vec<TraceInst>,
    /// Producer of each header write's value (`None` when nulled).
    pub write_srcs: Vec<Option<TraceSrc>>,
    /// The exit that fired.
    pub exit: u8,
}

impl From<Producer> for TraceSrc {
    fn from(p: Producer) -> TraceSrc {
        match p {
            Producer::Read(r) => TraceSrc::Read(r),
            Producer::Inst(i) => TraceSrc::Inst(i),
        }
    }
}

/// Runs `tp` to completion against the data image of `ir` (the program it
/// was compiled from), with `mem_size` bytes of memory.
///
/// # Errors
/// Any [`TripsExecError`]; notably [`TripsExecError::IncompleteBlock`] flags
/// compiler output that violates block-atomic output requirements.
pub fn run_program(
    tp: &TripsProgram,
    ir: &Program,
    mem_size: usize,
) -> Result<ExecOutcome, TripsExecError> {
    run_program_with(tp, ir, mem_size, u64::MAX)
}

/// [`run_program`] with an explicit dynamic block budget.
///
/// # Errors
/// See [`run_program`]; additionally [`TripsExecError::StepLimit`] when the
/// budget runs out.
pub fn run_program_with(
    tp: &TripsProgram,
    ir: &Program,
    mem_size: usize,
    max_blocks: u64,
) -> Result<ExecOutcome, TripsExecError> {
    run_program_traced(tp, ir, mem_size, max_blocks, |_, _, _| {})
}

/// Runs a program, invoking `on_block` with the index, dataflow trace and
/// addresses (one per [`TraceMem`], in fire order) of every dynamic block
/// execution, in program order. This is the execution oracle driving the
/// cycle-level simulator.
///
/// The run allocates nothing per dynamic block: one set of trace, address
/// and working buffers serves every block, and each static block's
/// producer map is built on its first execution.
///
/// # Errors
/// See [`run_program_with`].
pub fn run_program_traced(
    tp: &TripsProgram,
    ir: &Program,
    mem_size: usize,
    max_blocks: u64,
    mut on_block: impl FnMut(u32, &BlockTrace, &[u64]),
) -> Result<ExecOutcome, TripsExecError> {
    let mut mem = Memory::new(ir, mem_size);
    let mut regs = [0u64; crate::limits::NUM_REGS];
    regs[abi::SP_REG as usize] = mem.size() as u64;
    let mut stats = IsaStats::default();
    let mut call_stack: Vec<u32> = Vec::new();
    let mut cur = tp.entry;
    let mut budget = max_blocks;
    // One per static block, built when the block is first touched.
    let mut producers: Vec<Option<ProducerMap>> = tp.blocks.iter().map(|_| None).collect();
    let mut scratch = Scratch::default();
    let mut trace = BlockTrace::default();

    loop {
        if budget == 0 {
            return Err(TripsExecError::StepLimit);
        }
        budget -= 1;
        let block = tp
            .blocks
            .get(cur as usize)
            .ok_or_else(|| TripsExecError::BadProgram(format!("block index {cur} out of range")))?;
        let map = producers[cur as usize].get_or_insert_with(|| {
            stats.blocks_touched.insert(cur);
            ProducerMap::of(block)
        });
        let exec = execute_block(
            block,
            map,
            &mut scratch,
            &mut regs,
            &mut mem,
            &mut stats,
            &mut trace,
        )?;
        on_block(cur, &trace, &scratch.addrs);
        match exec {
            ExitTarget::Block(b) => cur = b,
            ExitTarget::Call { callee, cont } => {
                call_stack.push(cont);
                cur = callee;
            }
            ExitTarget::Ret => match call_stack.pop() {
                Some(cont) => cur = cont,
                None => {
                    return Ok(ExecOutcome {
                        return_value: regs[abi::RV_REG as usize],
                        stats,
                        memory: mem,
                    });
                }
            },
        }
    }
}

/// Per-slot delivery record for one block execution.
#[derive(Debug, Clone, Copy, Default)]
struct Slots {
    op: [Option<Val>; 2],
    op_from: [Option<Producer>; 2],
    pred: Option<Val>,
    pred_from: Option<Producer>,
}

/// Which producers target each `(instruction, slot)` of one block. It
/// depends only on the static block, so a run builds it once per block.
struct ProducerMap {
    /// `from[start[k]..start[k + 1]]` are the producers of key
    /// `k = 3 * instruction + slot code`.
    start: Vec<u32>,
    from: Vec<Producer>,
}

impl ProducerMap {
    fn of(block: &Block) -> ProducerMap {
        let arcs = || {
            let reads =
                block.reads.iter().enumerate().flat_map(|(ri, r)| {
                    r.targets.iter().map(move |t| (t, Producer::Read(ri as u8)))
                });
            let insts = block.insts.iter().enumerate().flat_map(|(ii, inst)| {
                inst.targets
                    .iter()
                    .map(move |t| (t, Producer::Inst(ii as u8)))
            });
            reads.chain(insts).filter_map(|(t, p)| match *t {
                Target::Inst { idx, slot } => {
                    Some((3 * usize::from(idx) + usize::from(slot.code()), p))
                }
                Target::Write(_) => None,
            })
        };
        let mut start = vec![0u32; 3 * block.insts.len() + 1];
        for (k, _) in arcs() {
            start[k + 1] += 1;
        }
        for k in 1..start.len() {
            start[k] += start[k - 1];
        }
        let mut next = start.clone();
        let mut from = vec![Producer::Read(0); start[start.len() - 1] as usize];
        for (k, p) in arcs() {
            from[next[k] as usize] = p;
            next[k] += 1;
        }
        ProducerMap { start, from }
    }

    /// The producers targeting the slot coded `slot` of instruction `i`.
    fn of_slot(&self, i: usize, slot: usize) -> &[Producer] {
        let k = 3 * i + slot;
        &self.from[self.start[k] as usize..self.start[k + 1] as usize]
    }
}

/// The working state of one block execution. A run keeps one and
/// [`Scratch::reset`]s it per block, so once its buffers have grown to
/// the largest block, executing a block allocates nothing.
#[derive(Default)]
struct Scratch {
    slots: Vec<Slots>,
    fired: Vec<bool>,
    /// Instructions that can never fire.
    dead: Vec<bool>,
    produced: Vec<Option<Val>>,
    /// Store completion state per LSID.
    lsid_done: [bool; crate::limits::MAX_LSIDS],
    write_vals: Vec<Option<(Val, Option<Producer>)>>,
    exit_taken: Option<u8>,
    /// Instructions to try firing, popped from the back.
    ready: Vec<u8>,
    /// Loads that fired dataflow-wise but wait for LSID order.
    waiting_mem: Vec<u8>,
    /// Pending stores `(lsid, addr, width, bits)`, LSID-sorted.
    store_buf: Vec<(u8, u64, MemWidth, u64)>,
    /// Fired instructions that fed a block output.
    used: Vec<bool>,
    work: Vec<Producer>,
    /// The block's memory addresses in fire order.
    addrs: Vec<u64>,
}

impl Scratch {
    fn reset(&mut self, block: &Block) {
        fn refill<T: Clone>(v: &mut Vec<T>, n: usize, x: T) {
            v.clear();
            v.resize(n, x);
        }
        let n = block.insts.len();
        refill(&mut self.slots, n, Slots::default());
        refill(&mut self.fired, n, false);
        refill(&mut self.dead, n, false);
        refill(&mut self.produced, n, None);
        refill(&mut self.used, n, false);
        refill(&mut self.write_vals, block.writes.len(), None);
        self.lsid_done = [false; crate::limits::MAX_LSIDS];
        self.exit_taken = None;
        self.ready.clear();
        self.waiting_mem.clear();
        self.store_buf.clear();
        self.work.clear();
    }

    /// Whether instruction `i` has every operand and a matching predicate.
    fn is_ready(&self, block: &Block, i: usize) -> bool {
        let inst = &block.insts[i];
        let s = &self.slots[i];
        s.op[..inst.op.num_operands()].iter().all(Option::is_some)
            && inst
                .pred
                // A mismatched predicate is handled as dead elsewhere.
                .is_none_or(|pol| s.pred.is_some_and(|p| p.truthy() == pol))
    }

    /// Whether no producer in `ps` can still deliver: each is a dead
    /// instruction or one that fired without a value (header reads
    /// always deliver).
    fn none_can_deliver(&self, ps: &[Producer]) -> bool {
        ps.iter().all(|p| match *p {
            Producer::Read(_) => false,
            Producer::Inst(j) => {
                let j = usize::from(j);
                self.dead[j] || (self.fired[j] && self.produced[j].is_none())
            }
        })
    }
}

/// Whether a load with LSID `lsid` must still wait for an earlier store.
fn load_blocked(block: &Block, lsid: u8, lsid_done: &[bool]) -> bool {
    (0..lsid).any(|l| ((block.store_mask >> l) & 1) == 1 && !lsid_done[l as usize])
}

/// Delivers `val` from `from` to target `t`.
fn deliver(
    block: &Block,
    t: &Target,
    val: Val,
    from: Producer,
    sc: &mut Scratch,
    stats: &mut IsaStats,
) -> Result<(), TripsExecError> {
    match t {
        Target::Inst { idx, slot } => {
            let i = *idx as usize;
            if matches!(from, Producer::Inst(_)) {
                stats.et_et_operands += 1;
            } else {
                stats.read_operands += 1;
            }
            let s = &mut sc.slots[i];
            match slot {
                TargetSlot::Op0 | TargetSlot::Op1 => {
                    let k = slot.code() as usize;
                    if s.op[k].is_some() {
                        return Err(TripsExecError::DoubleDelivery {
                            block: block.name.clone(),
                            at: format!("N[{i},{k}]"),
                        });
                    }
                    s.op[k] = Some(val);
                    s.op_from[k] = Some(from);
                }
                TargetSlot::Pred => {
                    if s.pred.is_some() {
                        return Err(TripsExecError::DoubleDelivery {
                            block: block.name.clone(),
                            at: format!("N[{i},p]"),
                        });
                    }
                    s.pred = Some(val);
                    s.pred_from = Some(from);
                    // A mismatched predicate kills the instruction.
                    if let Some(pol) = block.insts[i].pred {
                        if val.truthy() != pol {
                            sc.dead[i] = true;
                        }
                    }
                }
            }
            if !sc.fired[i] && !sc.dead[i] {
                sc.ready.push(i as u8); // re-checked before firing
            }
            Ok(())
        }
        Target::Write(w) => {
            stats.write_operands += 1;
            let wi = *w as usize;
            if sc.write_vals[wi].is_some() {
                return Err(TripsExecError::DoubleDelivery {
                    block: block.name.clone(),
                    at: format!("W[{wi}]"),
                });
            }
            sc.write_vals[wi] = Some((val, Some(from)));
            Ok(())
        }
    }
}

/// The trace record of instruction `i` firing with the operands in `s`;
/// the address of its memory access, if any, goes to `addrs`.
fn trace_inst(i: usize, inst: &BInst, s: &Slots, addrs: &mut Vec<u64>) -> TraceInst {
    let mut srcs = Srcs::EMPTY;
    for p in s.op_from[..inst.op.num_operands()].iter().flatten() {
        srcs.push((*p).into());
    }
    if let Some(p) = s.pred_from {
        srcs.push(p.into());
    }
    let mem = if inst.op.is_load() || inst.op.is_store() {
        let a = s.op[0].unwrap_or(Val::v(0));
        if a.null || (inst.op.is_store() && s.op[1].map(|v| v.null).unwrap_or(false)) {
            None
        } else {
            addrs.push(a.bits.wrapping_add(inst.imm as i64 as u64));
            let bytes = match inst.op {
                TOpcode::Lb | TOpcode::Lbs | TOpcode::Sb => 1,
                TOpcode::Lh | TOpcode::Lhs | TOpcode::Sh => 2,
                TOpcode::Lw | TOpcode::Lws | TOpcode::Sw => 4,
                _ => 8,
            };
            Some(TraceMem {
                bytes,
                is_store: inst.op.is_store(),
            })
        }
    } else {
        None
    };
    TraceInst {
        idx: i as u8,
        srcs,
        mem,
    }
}

fn execute_block(
    block: &Block,
    producers: &ProducerMap,
    sc: &mut Scratch,
    regs: &mut [u64; crate::limits::NUM_REGS],
    mem: &mut Memory,
    stats: &mut IsaStats,
    trace: &mut BlockTrace,
) -> Result<ExitTarget, TripsExecError> {
    let n = block.insts.len();
    sc.reset(block);
    trace.fired.clear();
    sc.addrs.clear();

    // Header reads inject register values.
    stats.reads_fetched += block.reads.len() as u64;
    for (ri, r) in block.reads.iter().enumerate() {
        let val = Val::v(regs[r.reg as usize]);
        for t in &r.targets {
            deliver(block, t, val, Producer::Read(ri as u8), sc, stats)?;
        }
    }
    // Zero-operand unpredicated instructions are ready immediately;
    // predicated ones wait for their predicate.
    for (i, inst) in block.insts.iter().enumerate() {
        if inst.op.num_operands() == 0 && inst.pred.is_none() {
            sc.ready.push(i as u8);
        }
    }

    loop {
        // Fire everything currently ready.
        while let Some(i8idx) = sc.ready.pop() {
            let i = i8idx as usize;
            if sc.fired[i] || sc.dead[i] || !sc.is_ready(block, i) {
                continue;
            }
            let inst = &block.insts[i];
            // Loads must wait for all earlier-LSID stores to resolve.
            if inst.op.is_load() {
                let lsid = inst.lsid.expect("load has lsid");
                if load_blocked(block, lsid, &sc.lsid_done) {
                    sc.waiting_mem.push(i8idx);
                    continue;
                }
            }
            sc.fired[i] = true;
            stats.executed += 1;
            trace
                .fired
                .push(trace_inst(i, inst, &sc.slots[i], &mut sc.addrs));
            let val = fire_inst(block, i, inst, sc, mem, stats)?;
            sc.produced[i] = val;
            if let Some(v) = val {
                for t in &inst.targets {
                    deliver(block, t, v, Producer::Inst(i8idx), sc, stats)?;
                }
            }
            // A completed store may unblock waiting loads.
            if inst.op.is_store() || inst.op == TOpcode::Null {
                sc.ready.append(&mut sc.waiting_mem);
            }
        }

        // Quiescent: extend the dead set (instructions that can never fire)
        // and see whether that unblocks waiting loads.
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..n {
                if sc.fired[i] || sc.dead[i] {
                    continue;
                }
                let inst = &block.insts[i];
                // Mismatched predicate already marked at delivery; here:
                // any needed slot with all producers dead is unfillable.
                let mut doomed = false;
                for k in 0..inst.op.num_operands() {
                    if sc.slots[i].op[k].is_none() && sc.none_can_deliver(producers.of_slot(i, k)) {
                        doomed = true;
                    }
                }
                let pred = TargetSlot::Pred.code() as usize;
                if inst.pred.is_some()
                    && sc.slots[i].pred.is_none()
                    && sc.none_can_deliver(producers.of_slot(i, pred))
                {
                    doomed = true;
                }
                if doomed {
                    sc.dead[i] = true;
                    changed = true;
                }
            }
            // Dead stores release LSID ordering.
            for i in 0..n {
                if sc.dead[i] && (block.insts[i].op.is_store()) {
                    if let Some(l) = block.insts[i].lsid {
                        if !sc.lsid_done[l as usize] {
                            sc.lsid_done[l as usize] = true;
                            changed = true;
                        }
                    }
                }
            }
        }
        // Retry waiting loads.
        let mut progress = false;
        let (ready, lsid_done) = (&mut sc.ready, &sc.lsid_done);
        sc.waiting_mem.retain(|&w| {
            let lsid = block.insts[w as usize].lsid.expect("load has lsid");
            let blocked = load_blocked(block, lsid, lsid_done);
            if !blocked {
                ready.push(w);
                progress = true;
            }
            blocked
        });
        if !progress && sc.ready.is_empty() {
            break;
        }
    }

    // Completion checks.
    for (wi, wv) in sc.write_vals.iter().enumerate() {
        if wv.is_none() {
            return Err(TripsExecError::IncompleteBlock {
                block: block.name.clone(),
                missing: format!(
                    "write W[{wi}] (reg {}) never received a value",
                    block.writes[wi].reg
                ),
            });
        }
    }
    for l in 0..crate::limits::MAX_LSIDS {
        if ((block.store_mask >> l) & 1) == 1 && !sc.lsid_done[l] {
            return Err(TripsExecError::IncompleteBlock {
                block: block.name.clone(),
                missing: format!("store LSID {l} never produced"),
            });
        }
    }
    let exit = match sc.exit_taken {
        Some(e) => e,
        None => {
            return Err(TripsExecError::IncompleteBlock {
                block: block.name.clone(),
                missing: "no exit branch fired".into(),
            })
        }
    };

    // ---- backward used-marking from block outputs ------------------------------
    for wv in sc.write_vals.iter().flatten() {
        if let (_, Some(p)) = wv {
            sc.work.push(*p);
        }
    }
    for (i, inst) in block.insts.iter().enumerate() {
        if sc.fired[i] && (inst.op.is_store() || inst.op.is_branch()) {
            // Stores and the fired branch are outputs themselves: their
            // operand and predicate sources are used.
            mark_sources(i, &sc.slots, &mut sc.work);
            sc.used[i] = true;
        }
        if sc.fired[i] && inst.op == TOpcode::Null {
            // Null tokens satisfy outputs; their predicate chain is used.
            mark_sources(i, &sc.slots, &mut sc.work);
            sc.used[i] = true;
        }
    }
    while let Some(p) = sc.work.pop() {
        if let Producer::Inst(j) = p {
            let j = j as usize;
            if !sc.used[j] {
                sc.used[j] = true;
                mark_sources(j, &sc.slots, &mut sc.work);
            }
        }
    }

    // ---- composition accounting -------------------------------------------------
    stats.blocks_executed += 1;
    stats.fetched += n as u64;
    stats.exits_taken += 1;
    for (i, inst) in block.insts.iter().enumerate() {
        let kind = if !sc.fired[i] {
            stats.fetched_not_executed += 1;
            CompositionKind::FetchedNotExecuted
        } else if !sc.used[i] {
            stats.executed_not_used += 1;
            CompositionKind::ExecutedNotUsed
        } else {
            match inst.op {
                TOpcode::Mov => {
                    stats.moves_executed += 1;
                    CompositionKind::Moves
                }
                TOpcode::Null => {
                    stats.nulls_executed += 1;
                    CompositionKind::NullTokens
                }
                op if op.is_test() => {
                    stats.useful += 1;
                    CompositionKind::Tests
                }
                op if op.is_load() || op.is_store() => {
                    stats.useful += 1;
                    CompositionKind::Memory
                }
                op if op.is_branch() => {
                    stats.useful += 1;
                    CompositionKind::ControlFlow
                }
                _ => {
                    stats.useful += 1;
                    CompositionKind::Arithmetic
                }
            }
        };
        stats.composition.bump(kind);
    }

    // ---- commit -----------------------------------------------------------------
    for &(_, addr, w, bits) in &sc.store_buf {
        mem.store(addr, w, bits)?;
        stats.stores_committed += 1;
    }
    for (wi, wv) in sc.write_vals.iter().enumerate() {
        let (val, _) = wv.expect("checked above");
        if !val.null {
            regs[block.writes[wi].reg as usize] = val.bits;
            stats.writes_committed += 1;
        }
    }

    trace.exit = exit;
    trace.write_srcs.clear();
    trace
        .write_srcs
        .extend(sc.write_vals.iter().map(|wv| match wv {
            Some((val, Some(p))) if !val.null => Some(TraceSrc::from(*p)),
            _ => None,
        }));

    block.exits.get(exit as usize).copied().ok_or_else(|| {
        TripsExecError::BadProgram(format!("block {} exit {exit} out of range", block.name))
    })
}

fn mark_sources(i: usize, slots: &[Slots], work: &mut Vec<Producer>) {
    for k in 0..2 {
        if let Some(p) = slots[i].op_from[k] {
            work.push(p);
        }
    }
    if let Some(p) = slots[i].pred_from {
        work.push(p);
    }
}

fn fire_inst(
    block: &Block,
    i: usize,
    inst: &BInst,
    sc: &mut Scratch,
    mem: &mut Memory,
    stats: &mut IsaStats,
) -> Result<Option<Val>, TripsExecError> {
    use TOpcode::*;
    let s = sc.slots[i];
    let (lsid_done, store_buf, exit_taken) =
        (&mut sc.lsid_done, &mut sc.store_buf, &mut sc.exit_taken);
    let a = s.op[0].unwrap_or(Val::v(0));
    let b = s.op[1].unwrap_or(Val::v(0));
    // A null operand flowing into a store nullifies it; into anything else
    // it is a compiler bug surfaced as BadProgram.
    if (a.null || b.null) && !inst.op.is_store() {
        return Err(TripsExecError::BadProgram(format!(
            "null token reached non-store {} in block {}",
            inst.op, block.name
        )));
    }
    let imm = inst.imm as i64;
    let ib = |op: IrOp, x: Val, y: Val| -> Result<Val, TripsExecError> {
        Ok(Val::v(
            trips_ir::interp::eval_ibin(op, x.bits, y.bits).map_err(TripsExecError::Mem)?,
        ))
    };
    let fa = f64::from_bits(a.bits);
    let fb = f64::from_bits(b.bits);

    let out: Option<Val> = match inst.op {
        Movi => Some(Val::v(imm as u64)),
        App => Some(Val::v(((a.bits << 14) as i64 | (imm & 0x3fff)) as u64)),
        Mov => Some(a),
        Null => {
            // A null with an LSID is a nulled store: it satisfies the store
            // mask without touching memory (paper §2's "null ... passed
            // through the st" token, folded into one instruction).
            if let Some(l) = inst.lsid {
                lsid_done[l as usize] = true;
            }
            Some(Val::NULL)
        }
        Add => Some(ib(IrOp::Add, a, b)?),
        Sub => Some(ib(IrOp::Sub, a, b)?),
        Mul => Some(ib(IrOp::Mul, a, b)?),
        Div => Some(ib(IrOp::Div, a, b)?),
        Udiv => Some(ib(IrOp::Udiv, a, b)?),
        And => Some(ib(IrOp::And, a, b)?),
        Or => Some(ib(IrOp::Or, a, b)?),
        Xor => Some(ib(IrOp::Xor, a, b)?),
        Shl => Some(ib(IrOp::Shl, a, b)?),
        Shr => Some(ib(IrOp::Shr, a, b)?),
        Sra => Some(ib(IrOp::Sra, a, b)?),
        Addi => Some(Val::v(a.bits.wrapping_add(imm as u64))),
        Muli => Some(Val::v(a.bits.wrapping_mul(imm as u64))),
        Andi => Some(Val::v(a.bits & imm as u64)),
        Ori => Some(Val::v(a.bits | imm as u64)),
        Xori => Some(Val::v(a.bits ^ imm as u64)),
        Shli => Some(Val::v(a.bits.wrapping_shl(imm as u32 & 63))),
        Shri => Some(Val::v(a.bits.wrapping_shr(imm as u32 & 63))),
        Srai => Some(Val::v(
            ((a.bits as i64).wrapping_shr(imm as u32 & 63)) as u64,
        )),
        Not => Some(Val::v(!a.bits)),
        Neg => Some(Val::v((a.bits as i64).wrapping_neg() as u64)),
        Sextb => Some(Val::v(a.bits as u8 as i8 as i64 as u64)),
        Sexth => Some(Val::v(a.bits as u16 as i16 as i64 as u64)),
        Sextw => Some(Val::v(a.bits as u32 as i32 as i64 as u64)),
        Zextw => Some(Val::v(a.bits as u32 as u64)),
        Teq => Some(Val::v((a.bits == b.bits) as u64)),
        Tne => Some(Val::v((a.bits != b.bits) as u64)),
        Tlt => Some(Val::v(((a.bits as i64) < (b.bits as i64)) as u64)),
        Tle => Some(Val::v(((a.bits as i64) <= (b.bits as i64)) as u64)),
        Tult => Some(Val::v((a.bits < b.bits) as u64)),
        Tule => Some(Val::v((a.bits <= b.bits) as u64)),
        Teqi => Some(Val::v((a.bits == imm as u64) as u64)),
        Tlti => Some(Val::v(((a.bits as i64) < imm) as u64)),
        Fadd => Some(Val::v((fa + fb).to_bits())),
        Fsub => Some(Val::v((fa - fb).to_bits())),
        Fmul => Some(Val::v((fa * fb).to_bits())),
        Fdiv => Some(Val::v((fa / fb).to_bits())),
        Fneg => Some(Val::v((-fa).to_bits())),
        Fabs => Some(Val::v(fa.abs().to_bits())),
        Fsqrt => Some(Val::v(fa.sqrt().to_bits())),
        Fi2d => Some(Val::v(((a.bits as i64) as f64).to_bits())),
        Fd2i => Some(Val::v((fa as i64) as u64)),
        Feq => Some(Val::v((fa == fb) as u64)),
        Flt => Some(Val::v((fa < fb) as u64)),
        Fle => Some(Val::v((fa <= fb) as u64)),
        Lb | Lbs | Lh | Lhs | Lw | Lws | Ld => {
            let addr = a.bits.wrapping_add(imm as u64);
            let (w, signed) = match inst.op {
                Lb => (MemWidth::B, false),
                Lbs => (MemWidth::B, true),
                Lh => (MemWidth::H, false),
                Lhs => (MemWidth::H, true),
                Lw => (MemWidth::W, false),
                Lws => (MemWidth::W, true),
                Ld => (MemWidth::D, false),
                _ => unreachable!(),
            };
            // Read through the block's pending store buffer for sequential
            // semantics (earlier LSIDs have already resolved).
            let mut v = mem.load(addr, w, signed)?;
            let my_lsid = inst.lsid.expect("load has lsid");
            for &(slsid, saddr, sw, sbits) in store_buf.iter() {
                if slsid < my_lsid && ranges_overlap(saddr, sw, addr, w) {
                    if saddr == addr && sw == w {
                        v = extract(sbits, w, signed);
                    } else {
                        // Partial overlap: apply the store to a scratch copy.
                        let mut tmp = mem.clone();
                        for &(l2, a2, w2, b2) in store_buf.iter() {
                            if l2 < my_lsid {
                                tmp.store(a2, w2, b2)?;
                            }
                        }
                        v = tmp.load(addr, w, signed)?;
                        break;
                    }
                }
            }
            stats.loads_executed += 1;
            Some(Val::v(v))
        }
        Sb | Sh | Sw | Sd => {
            let lsid = inst.lsid.expect("store has lsid");
            if a.null || b.null {
                // Nulled store: output produced, memory untouched.
                lsid_done[lsid as usize] = true;
                None
            } else {
                let addr = a.bits.wrapping_add(imm as u64);
                let w = match inst.op {
                    Sb => MemWidth::B,
                    Sh => MemWidth::H,
                    Sw => MemWidth::W,
                    _ => MemWidth::D,
                };
                // Keep the buffer LSID-sorted: stores fire in dataflow order,
                // but sequential memory semantics (and the final commit) are
                // defined by LSID order.
                let pos = store_buf.partition_point(|&(l2, _, _, _)| l2 < lsid);
                store_buf.insert(pos, (lsid, addr, w, b.bits));
                lsid_done[lsid as usize] = true;
                None
            }
        }
        Bro | Callo | Ret => {
            if exit_taken.is_some() {
                return Err(TripsExecError::MultipleExits {
                    block: block.name.clone(),
                });
            }
            *exit_taken = Some(inst.exit.expect("branch has exit"));
            None
        }
    };
    Ok(out)
}

fn extract(bits: u64, w: MemWidth, signed: bool) -> u64 {
    match (w, signed) {
        (MemWidth::B, false) => bits as u8 as u64,
        (MemWidth::B, true) => bits as u8 as i8 as i64 as u64,
        (MemWidth::H, false) => bits as u16 as u64,
        (MemWidth::H, true) => bits as u16 as i16 as i64 as u64,
        (MemWidth::W, false) => bits as u32 as u64,
        (MemWidth::W, true) => bits as u32 as i32 as i64 as u64,
        (MemWidth::D, _) => bits,
    }
}

fn ranges_overlap(a1: u64, w1: MemWidth, a2: u64, w2: MemWidth) -> bool {
    a1 < a2 + w2.bytes() && a2 < a1 + w1.bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{inst, inst_imm, BlockBuilder};
    use crate::{ExitTarget, Target, TargetSlot};
    use trips_ir::ProgramBuilder;

    fn empty_ir() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let e = f.entry();
        f.switch_to(e);
        f.ret(None);
        f.finish();
        pb.finish("main").unwrap()
    }

    fn hash_of(x: &impl std::hash::Hash) -> u64 {
        use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
        BuildHasherDefault::<DefaultHasher>::default().hash_one(x)
    }

    /// `Srcs` built by pushes, by the direct decoder and by the `Value`
    /// path from the same sources are one value, and it encodes as the
    /// `Vec` of its sources.
    #[test]
    fn srcs_from_the_same_sources_are_equal_and_hash_equal() {
        let lists: [&[TraceSrc]; 4] = [
            &[],
            &[TraceSrc::Read(0)],
            &[TraceSrc::Inst(7), TraceSrc::Read(0)],
            &[TraceSrc::Read(3), TraceSrc::Inst(1), TraceSrc::Inst(9)],
        ];
        let mut seen = Vec::new();
        for list in lists {
            let mut pushed = Srcs::EMPTY;
            list.iter().for_each(|&s| pushed.push(s));
            assert_eq!(&*pushed, list);
            let vec = list.to_vec();
            let bytes = serde::bin::to_bytes(&vec);
            assert_eq!(serde::bin::to_bytes(&pushed), bytes);
            assert_eq!(serde::to_value(&pushed), serde::to_value(&vec));
            let decoded: Srcs = serde::bin::from_bytes(&bytes).unwrap();
            let via_value: Srcs = serde::from_value(&serde::to_value(&vec)).unwrap();
            for other in [decoded, via_value] {
                assert_eq!(other, pushed);
                assert_eq!(hash_of(&other), hash_of(&pushed));
            }
            seen.push(pushed);
        }
        // An empty list and one `Read(0)` differ although the unused
        // slots hold `Read(0)`: the length is part of the value.
        for (i, a) in seen.iter().enumerate() {
            for b in &seen[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn more_than_three_srcs_are_an_error() {
        let four = vec![TraceSrc::Read(1); 4];
        assert!(serde::bin::from_bytes::<Srcs>(&serde::bin::to_bytes(&four)).is_err());
        assert!(serde::from_value::<Srcs>(&serde::to_value(&four)).is_err());
        let not_a_seq = serde::to_value(&TraceSrc::Read(1));
        assert!(serde::from_value::<Srcs>(&not_a_seq).is_err());
    }

    /// Single block: rv = 40 + 2, then ret.
    #[test]
    fn add_block_executes() {
        let mut b = BlockBuilder::new("b0");
        let c40 = b.add_inst(inst_imm(TOpcode::Movi, 40)).unwrap();
        let add = b.add_inst(inst_imm(TOpcode::Addi, 2)).unwrap();
        let w = b.add_write(crate::abi::RV_REG).unwrap();
        b.add_target(
            c40,
            Target::Inst {
                idx: add,
                slot: TargetSlot::Op0,
            },
        );
        b.add_target(add, Target::Write(w));
        let mut ret = inst(TOpcode::Ret);
        ret.exit = Some(0);
        b.add_inst(ret).unwrap();
        b.add_exit(ExitTarget::Ret).unwrap();
        let tp = TripsProgram {
            blocks: vec![b.finish()],
            entry: 0,
        };
        let ir = empty_ir();
        let out = run_program(&tp, &ir, 1 << 20).unwrap();
        assert_eq!(out.return_value, 42);
        assert_eq!(out.stats.blocks_executed, 1);
        assert_eq!(out.stats.executed, 3);
        assert_eq!(out.stats.writes_committed, 1);
    }

    /// Predication: both arms execute speculatively; only matching arm's
    /// value reaches the write.
    #[test]
    fn predicated_arms_select_output() {
        let mut b = BlockBuilder::new("b0");
        let c1 = b.add_inst(inst_imm(TOpcode::Movi, 1)).unwrap(); // predicate = true
        let fan = b.add_inst(inst(TOpcode::Mov)).unwrap(); // movi encodes one target
        let t_arm = b.add_inst(inst_imm(TOpcode::Movi, 111)).unwrap();
        let f_arm = b.add_inst(inst_imm(TOpcode::Movi, 222)).unwrap();
        let mut mt = inst(TOpcode::Mov);
        mt.pred = Some(true);
        let mov_t = b.add_inst(mt).unwrap();
        let mut mf = inst(TOpcode::Mov);
        mf.pred = Some(false);
        let mov_f = b.add_inst(mf).unwrap();
        let w = b.add_write(crate::abi::RV_REG).unwrap();
        b.add_target(
            c1,
            Target::Inst {
                idx: fan,
                slot: TargetSlot::Op0,
            },
        );
        b.add_target(
            fan,
            Target::Inst {
                idx: mov_t,
                slot: TargetSlot::Pred,
            },
        );
        b.add_target(
            fan,
            Target::Inst {
                idx: mov_f,
                slot: TargetSlot::Pred,
            },
        );
        b.add_target(
            t_arm,
            Target::Inst {
                idx: mov_t,
                slot: TargetSlot::Op0,
            },
        );
        b.add_target(
            f_arm,
            Target::Inst {
                idx: mov_f,
                slot: TargetSlot::Op0,
            },
        );
        b.add_target(mov_t, Target::Write(w));
        b.add_target(mov_f, Target::Write(w));
        let mut ret = inst(TOpcode::Ret);
        ret.exit = Some(0);
        b.add_inst(ret).unwrap();
        b.add_exit(ExitTarget::Ret).unwrap();
        let tp = TripsProgram {
            blocks: vec![b.finish()],
            entry: 0,
        };
        let out = run_program(&tp, &empty_ir(), 1 << 20).unwrap();
        assert_eq!(out.return_value, 111);
        // mov_f was fetched but not executed (pred mismatch).
        assert_eq!(out.stats.fetched_not_executed, 1);
        let _ = f_arm;
        // f_arm executed but its consumer died -> executed-not-used.
        assert_eq!(out.stats.executed_not_used, 1);
    }

    /// Null store satisfies the store mask without touching memory.
    #[test]
    fn null_store_completes_block() {
        let mut pb = ProgramBuilder::new();
        let addr = pb.data_mut().alloc_i64s("x", &[7]);
        let mut f = pb.func("main", 0);
        let e = f.entry();
        f.switch_to(e);
        f.ret(None);
        f.finish();
        let ir = pb.finish("main").unwrap();

        let mut b = BlockBuilder::new("b0");
        let c0 = b.add_inst(inst_imm(TOpcode::Movi, 0)).unwrap(); // predicate = false
        let fan = b.add_inst(inst(TOpcode::Mov)).unwrap();
        let lsid = b.alloc_lsid().unwrap();
        b.mark_store(lsid);
        let mut st = inst_imm(TOpcode::Sd, 0);
        st.lsid = Some(lsid);
        st.pred = Some(true); // store only on true path (never here)
        let addr_c = b.add_inst(inst_imm(TOpcode::Movi, addr as i32)).unwrap();
        let val_c = b.add_inst(inst_imm(TOpcode::Movi, 99)).unwrap();
        let st_i = b.add_inst(st).unwrap();
        let mut nl = inst(TOpcode::Null);
        nl.pred = Some(false);
        let null_i = b.add_inst(nl).unwrap();
        b.add_target(
            c0,
            Target::Inst {
                idx: fan,
                slot: TargetSlot::Op0,
            },
        );
        b.add_target(
            fan,
            Target::Inst {
                idx: st_i,
                slot: TargetSlot::Pred,
            },
        );
        b.add_target(
            fan,
            Target::Inst {
                idx: null_i,
                slot: TargetSlot::Pred,
            },
        );
        b.add_target(
            addr_c,
            Target::Inst {
                idx: st_i,
                slot: TargetSlot::Op0,
            },
        );
        b.add_target(
            val_c,
            Target::Inst {
                idx: st_i,
                slot: TargetSlot::Op1,
            },
        );
        // Null token routed to the store's operand would conflict; instead
        // nulled stores are modelled by the null firing with the same LSID.
        let mut ret = inst(TOpcode::Ret);
        ret.exit = Some(0);
        b.add_inst(ret).unwrap();
        b.add_exit(ExitTarget::Ret).unwrap();
        // Give the null the store's LSID so it satisfies the mask.
        let mut blk = b.finish();
        blk.insts[null_i as usize].lsid = Some(lsid);
        // Route the null to nothing; it satisfies LSID by firing.
        let tp = TripsProgram {
            blocks: vec![blk],
            entry: 0,
        };
        let out = run_program(&tp, &ir, 1 << 20);
        // The store is predicated-off; the null must mark the LSID done.
        // (The interpreter treats a fired Null with an LSID as a null store.)
        match out {
            Ok(o) => {
                // memory unchanged
                let m = o.memory;
                assert_eq!(m.load(addr, MemWidth::D, false).unwrap(), 7);
            }
            Err(e) => panic!("block should complete: {e}"),
        }
    }

    /// Store→load forwarding within a block respects LSID order.
    #[test]
    fn store_load_forwarding() {
        let mut pb = ProgramBuilder::new();
        let addr = pb.data_mut().alloc_i64s("x", &[1]);
        let mut f = pb.func("main", 0);
        let e = f.entry();
        f.switch_to(e);
        f.ret(None);
        f.finish();
        let ir = pb.finish("main").unwrap();

        let mut b = BlockBuilder::new("b0");
        let a_c = b.add_inst(inst_imm(TOpcode::Movi, addr as i32)).unwrap();
        let a_fan = b.add_inst(inst(TOpcode::Mov)).unwrap();
        let v_c = b.add_inst(inst_imm(TOpcode::Movi, 55)).unwrap();
        let l0 = b.alloc_lsid().unwrap();
        b.mark_store(l0);
        let mut st = inst_imm(TOpcode::Sd, 0);
        st.lsid = Some(l0);
        let st_i = b.add_inst(st).unwrap();
        let l1 = b.alloc_lsid().unwrap();
        let mut ld = inst_imm(TOpcode::Ld, 0);
        ld.lsid = Some(l1);
        let ld_i = b.add_inst(ld).unwrap();
        let w = b.add_write(crate::abi::RV_REG).unwrap();
        b.add_target(
            a_c,
            Target::Inst {
                idx: a_fan,
                slot: TargetSlot::Op0,
            },
        );
        b.add_target(
            a_fan,
            Target::Inst {
                idx: st_i,
                slot: TargetSlot::Op0,
            },
        );
        b.add_target(
            v_c,
            Target::Inst {
                idx: st_i,
                slot: TargetSlot::Op1,
            },
        );
        // need addr for the load too: second target via the fanout mov
        b.add_target(
            a_fan,
            Target::Inst {
                idx: ld_i,
                slot: TargetSlot::Op0,
            },
        );
        b.add_target(ld_i, Target::Write(w));
        let mut ret = inst(TOpcode::Ret);
        ret.exit = Some(0);
        b.add_inst(ret).unwrap();
        b.add_exit(ExitTarget::Ret).unwrap();
        let tp = TripsProgram {
            blocks: vec![b.finish()],
            entry: 0,
        };
        let out = run_program(&tp, &ir, 1 << 20).unwrap();
        assert_eq!(out.return_value, 55);
        // Committed store visible in memory afterwards.
        assert_eq!(out.memory.load(addr, MemWidth::D, false).unwrap(), 55);
    }

    /// A block that never produces a write must raise IncompleteBlock.
    #[test]
    fn incomplete_block_detected() {
        let mut b = BlockBuilder::new("b0");
        let _w = b.add_write(crate::abi::RV_REG).unwrap();
        let mut ret = inst(TOpcode::Ret);
        ret.exit = Some(0);
        b.add_inst(ret).unwrap();
        b.add_exit(ExitTarget::Ret).unwrap();
        let tp = TripsProgram {
            blocks: vec![b.finish()],
            entry: 0,
        };
        let err = run_program(&tp, &empty_ir(), 1 << 20).unwrap_err();
        assert!(
            matches!(err, TripsExecError::IncompleteBlock { .. }),
            "{err}"
        );
    }

    /// Calls push continuations; rets pop them.
    #[test]
    fn call_and_return_flow() {
        // block0: call -> block1, cont block2 ; block1: rv=5, ret ; block2: ret
        let mut b0 = BlockBuilder::new("b0");
        let mut call = inst(TOpcode::Callo);
        call.exit = Some(0);
        b0.add_inst(call).unwrap();
        b0.add_exit(ExitTarget::Call { callee: 1, cont: 2 })
            .unwrap();

        let mut b1 = BlockBuilder::new("b1");
        let c = b1.add_inst(inst_imm(TOpcode::Movi, 5)).unwrap();
        let w = b1.add_write(crate::abi::RV_REG).unwrap();
        b1.add_target(c, Target::Write(w));
        let mut ret = inst(TOpcode::Ret);
        ret.exit = Some(0);
        b1.add_inst(ret).unwrap();
        b1.add_exit(ExitTarget::Ret).unwrap();

        let mut b2 = BlockBuilder::new("b2");
        let mut ret2 = inst(TOpcode::Ret);
        ret2.exit = Some(0);
        b2.add_inst(ret2).unwrap();
        b2.add_exit(ExitTarget::Ret).unwrap();

        let tp = TripsProgram {
            blocks: vec![b0.finish(), b1.finish(), b2.finish()],
            entry: 0,
        };
        let out = run_program(&tp, &empty_ir(), 1 << 20).unwrap();
        assert_eq!(out.return_value, 5);
        assert_eq!(out.stats.blocks_executed, 3);
    }
}
