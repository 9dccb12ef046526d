//! Functional RISC simulator with access counting.
//!
//! Plays the role of the paper's PowerPC functional simulator \[17\]: executes
//! compiled RISC programs and counts dynamic instructions, loads, stores and
//! register-file reads/writes — the denominators of Figures 4 and 5 — plus
//! the unique-instruction footprint used by the §4.4 code-size study.
//!
//! Stepping and recording are separate layers:
//!
//! * [`Machine`] purely *steps*: it executes one instruction at a time and
//!   reports what happened as a [`StepEvent`] (no statistics of its own).
//! * [`RiscStats::record`] *observes* a step, accumulating the figures'
//!   counters; [`run`] wires the two together.
//! * [`EventSource`] abstracts over where events come from: a live machine
//!   ([`MachineSource`]) or a recorded [`RiscTrace`](crate::trace::RiscTrace)
//!   stream. The out-of-order timing model in `trips-ooo` consumes either,
//!   which is what lets N timing configurations share one execution.

use crate::inst::{RCat, RInst, RProgram, Reg};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::error::Error;
use std::fmt;
use trips_ir::interp::{InterpError, Memory};
use trips_ir::Program;

/// Execution failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RiscError {
    /// Memory fault.
    Mem(InterpError),
    /// Dynamic instruction budget exhausted.
    StepLimit,
    /// Branch or call referenced a bad location.
    BadTarget {
        /// Function index.
        func: u32,
        /// Instruction index.
        idx: u32,
    },
    /// A recorded trace stream was malformed or disagreed with the program
    /// it is replayed against.
    Trace(String),
}

impl fmt::Display for RiscError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RiscError::Mem(e) => write!(f, "memory fault: {e}"),
            RiscError::StepLimit => write!(f, "instruction budget exhausted"),
            RiscError::BadTarget { func, idx } => write!(f, "bad control target f{func}:{idx}"),
            RiscError::Trace(why) => write!(f, "bad trace: {why}"),
        }
    }
}

impl Error for RiscError {}

impl From<InterpError> for RiscError {
    fn from(e: InterpError) -> Self {
        RiscError::Mem(e)
    }
}

/// Dynamic statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RiscStats {
    /// Total dynamic instructions.
    pub insts: u64,
    /// Dynamic ALU (incl. compares/moves/constants).
    pub alu: u64,
    /// Dynamic multiply/divide.
    pub muldiv: u64,
    /// Dynamic floating point.
    pub fp: u64,
    /// Dynamic loads.
    pub loads: u64,
    /// Dynamic stores.
    pub stores: u64,
    /// Dynamic control-flow instructions.
    pub control: u64,
    /// Conditional branches executed.
    pub cond_branches: u64,
    /// Conditional branches taken.
    pub taken_branches: u64,
    /// Calls executed.
    pub calls: u64,
    /// Register-file reads (operand fetches).
    pub reg_reads: u64,
    /// Register-file writes (results).
    pub reg_writes: u64,
    /// Unique (function, index) instruction addresses touched.
    pub unique_pcs: HashSet<(u32, u32)>,
}

impl RiscStats {
    /// Total register-file accesses.
    pub fn register_accesses(&self) -> u64 {
        self.reg_reads + self.reg_writes
    }

    /// Total memory accesses.
    pub fn memory_accesses(&self) -> u64 {
        self.loads + self.stores
    }

    /// Dynamic code footprint in bytes (unique instructions × 4).
    pub fn code_footprint_bytes(&self) -> u64 {
        self.unique_pcs.len() as u64 * 4
    }

    /// Observes one executed instruction: the recording half of the
    /// simulator, fed by [`Machine::step`]'s events (or a replayed stream —
    /// the counters cannot tell the difference, which is the point).
    pub fn record(&mut self, inst: &RInst, ev: &StepEvent) {
        self.insts += 1;
        self.unique_pcs.insert((ev.func, ev.idx));
        match ev.cat {
            RCat::Alu => self.alu += 1,
            RCat::MulDiv => self.muldiv += 1,
            RCat::Fp => self.fp += 1,
            RCat::Load => self.loads += 1,
            RCat::Store => self.stores += 1,
            RCat::Control => self.control += 1,
        }
        self.reg_reads += inst.reads().len() as u64;
        if inst.writes().is_some() {
            self.reg_writes += 1;
        }
        match ev.ctrl_kind {
            CtrlKind::Cond => {
                self.cond_branches += 1;
                if ev.cond == Some(true) {
                    self.taken_branches += 1;
                }
            }
            CtrlKind::Call => self.calls += 1,
            CtrlKind::None | CtrlKind::Jump | CtrlKind::Ret => {}
        }
    }
}

/// What a single step did (consumed by the OoO timing model).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepEvent {
    /// Function index of the executed instruction.
    pub func: u32,
    /// Instruction index within the function.
    pub idx: u32,
    /// Category.
    pub cat: RCat,
    /// For conditional branches: `Some(taken)`.
    pub cond: Option<bool>,
    /// Control transfer target (function, index) if the PC did not fall
    /// through.
    pub transfer: Option<(u32, u32)>,
    /// Memory access: `(address, is_store)`.
    pub mem: Option<(u64, bool)>,
    /// Kind of control transfer for return-address-stack modelling.
    pub ctrl_kind: CtrlKind,
}

/// Control-transfer kinds for predictor modelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtrlKind {
    /// Not a control instruction.
    None,
    /// Conditional branch.
    Cond,
    /// Unconditional jump.
    Jump,
    /// Call.
    Call,
    /// Return.
    Ret,
}

/// A RISC machine mid-execution. Pure stepping: statistics live outside
/// (see [`RiscStats::record`]).
#[derive(Debug)]
pub struct Machine<'a> {
    program: &'a RProgram,
    /// Register file.
    pub regs: [u64; 32],
    /// Simulated memory.
    pub mem: Memory,
    /// Current (function, instruction) program counter.
    pub pc: (u32, u32),
    call_stack: Vec<(u32, u32)>,
    done: bool,
}

/// Successful run result.
#[derive(Debug, Clone)]
pub struct RiscOutcome {
    /// Value of `r3` at final return.
    pub return_value: u64,
    /// Statistics.
    pub stats: RiscStats,
    /// Final memory.
    pub memory: Memory,
}

impl<'a> Machine<'a> {
    /// Creates a machine ready to run `rp`, with memory initialized from the
    /// originating IR program's data image.
    pub fn new(rp: &'a RProgram, ir: &Program, mem_size: usize) -> Machine<'a> {
        let mem = Memory::new(ir, mem_size);
        let mut regs = [0u64; 32];
        regs[Reg::SP.0 as usize] = mem.size() as u64;
        Machine {
            program: rp,
            regs,
            mem,
            pc: (rp.entry, 0),
            call_stack: Vec::new(),
            done: false,
        }
    }

    /// True when the entry function has returned.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Executes one instruction.
    ///
    /// # Errors
    /// Any [`RiscError`]. Calling `step` after completion returns the final
    /// state's `Ret` event repeatedly — check [`Machine::is_done`].
    pub fn step(&mut self) -> Result<StepEvent, RiscError> {
        let (fi, ii) = self.pc;
        let func = self
            .program
            .funcs
            .get(fi as usize)
            .ok_or(RiscError::BadTarget { func: fi, idx: ii })?;
        let inst = func
            .insts
            .get(ii as usize)
            .ok_or(RiscError::BadTarget { func: fi, idx: ii })?;

        let mut ev = StepEvent {
            func: fi,
            idx: ii,
            cat: inst.cat(),
            cond: None,
            transfer: None,
            mem: None,
            ctrl_kind: CtrlKind::None,
        };
        let r = |m: &Machine<'_>, r: Reg| m.regs[r.0 as usize];
        let mut next = (fi, ii + 1);
        match inst {
            RInst::Li { dst, imm } => self.regs[dst.0 as usize] = *imm as i64 as u64,
            RInst::Oris { dst, src, imm } => {
                self.regs[dst.0 as usize] = (r(self, *src) << 16) | *imm as u64;
            }
            RInst::Alu { op, dst, a, b } => {
                let v = trips_ir::interp::eval_ibin(*op, r(self, *a), r(self, *b))
                    .map_err(RiscError::Mem)?;
                self.regs[dst.0 as usize] = v;
            }
            RInst::Alui { op, dst, a, imm } => {
                let v = trips_ir::interp::eval_ibin(*op, r(self, *a), *imm as i64 as u64)
                    .map_err(RiscError::Mem)?;
                self.regs[dst.0 as usize] = v;
            }
            RInst::Alun { op, dst, a } => {
                self.regs[dst.0 as usize] = trips_ir::interp::eval_iun(*op, r(self, *a));
            }
            RInst::Mr { dst, src } => self.regs[dst.0 as usize] = r(self, *src),
            RInst::Cmp { cc, dst, a, b } => {
                self.regs[dst.0 as usize] = cc.eval(r(self, *a), r(self, *b)) as u64;
            }
            RInst::Cmpi { cc, dst, a, imm } => {
                self.regs[dst.0 as usize] = cc.eval(r(self, *a), *imm as i64 as u64) as u64;
            }
            RInst::Fbin { op, dst, a, b } => {
                let x = f64::from_bits(r(self, *a));
                let y = f64::from_bits(r(self, *b));
                let v = match op {
                    trips_ir::Opcode::Fadd => x + y,
                    trips_ir::Opcode::Fsub => x - y,
                    trips_ir::Opcode::Fmul => x * y,
                    trips_ir::Opcode::Fdiv => x / y,
                    _ => unreachable!("non-fbin {op}"),
                };
                self.regs[dst.0 as usize] = v.to_bits();
            }
            RInst::Fun { op, dst, a } => {
                let raw = r(self, *a);
                let v = match op {
                    trips_ir::Opcode::Fneg => (-f64::from_bits(raw)).to_bits(),
                    trips_ir::Opcode::Fabs => f64::from_bits(raw).abs().to_bits(),
                    trips_ir::Opcode::Fsqrt => f64::from_bits(raw).sqrt().to_bits(),
                    trips_ir::Opcode::I2f => ((raw as i64) as f64).to_bits(),
                    trips_ir::Opcode::F2i => (f64::from_bits(raw) as i64) as u64,
                    _ => unreachable!("non-fun {op}"),
                };
                self.regs[dst.0 as usize] = v;
            }
            RInst::Fcmp { cc, dst, a, b } => {
                self.regs[dst.0 as usize] =
                    cc.eval(f64::from_bits(r(self, *a)), f64::from_bits(r(self, *b))) as u64;
            }
            RInst::Select { dst, c, a, b } => {
                self.regs[dst.0 as usize] = if r(self, *c) != 0 {
                    r(self, *a)
                } else {
                    r(self, *b)
                };
            }
            RInst::Load {
                w,
                signed,
                dst,
                base,
                off,
            } => {
                let addr = r(self, *base).wrapping_add(*off as i64 as u64);
                ev.mem = Some((addr, false));
                self.regs[dst.0 as usize] = self.mem.load(addr, *w, *signed)?;
            }
            RInst::Store { w, src, base, off } => {
                let addr = r(self, *base).wrapping_add(*off as i64 as u64);
                ev.mem = Some((addr, true));
                self.mem.store(addr, *w, r(self, *src))?;
            }
            RInst::B { target } => {
                next = (fi, *target);
                ev.ctrl_kind = CtrlKind::Jump;
                ev.transfer = Some(next);
            }
            RInst::Bnz { c, target } => {
                ev.ctrl_kind = CtrlKind::Cond;
                let taken = r(self, *c) != 0;
                ev.cond = Some(taken);
                if taken {
                    next = (fi, *target);
                    ev.transfer = Some(next);
                }
            }
            RInst::Bz { c, target } => {
                ev.ctrl_kind = CtrlKind::Cond;
                let taken = r(self, *c) == 0;
                ev.cond = Some(taken);
                if taken {
                    next = (fi, *target);
                    ev.transfer = Some(next);
                }
            }
            RInst::Bl { func } => {
                ev.ctrl_kind = CtrlKind::Call;
                self.call_stack.push((fi, ii + 1));
                next = (*func, 0);
                ev.transfer = Some(next);
            }
            RInst::Blr => {
                ev.ctrl_kind = CtrlKind::Ret;
                match self.call_stack.pop() {
                    Some(ret) => {
                        next = ret;
                        ev.transfer = Some(next);
                    }
                    None => {
                        self.done = true;
                        next = (fi, ii); // park
                    }
                }
            }
        }
        self.pc = next;
        Ok(ev)
    }
}

/// A dynamic-instruction event stream: a live [`Machine`]
/// ([`MachineSource`]) or a recorded trace
/// ([`TraceCursor`](crate::trace::TraceCursor)). Consumers that only look
/// at events — statistics recording, the `trips-ooo` timing model — behave
/// identically on either, which is the contract that makes trace replay
/// bit-exact.
pub trait EventSource {
    /// The next executed instruction's event, or `None` once the entry
    /// function has returned.
    ///
    /// # Errors
    /// Any [`RiscError`]: execution faults and budget exhaustion on the
    /// live source, stream corruption on a replayed one.
    fn next_event(&mut self) -> Result<Option<StepEvent>, RiscError>;

    /// The program's return value (`r3` at final return); meaningful once
    /// [`EventSource::next_event`] has returned `None`.
    fn return_value(&self) -> u64;
}

/// [`EventSource`] over a live machine, with a dynamic-instruction budget.
#[derive(Debug)]
pub struct MachineSource<'a> {
    machine: Machine<'a>,
    left: u64,
}

impl<'a> MachineSource<'a> {
    /// Creates a machine ready to run `rp` under a `step_limit` budget.
    pub fn new(rp: &'a RProgram, ir: &Program, mem_size: usize, step_limit: u64) -> Self {
        MachineSource {
            machine: Machine::new(rp, ir, mem_size),
            left: step_limit,
        }
    }

    /// The underlying machine (registers, memory, program counter).
    pub fn machine(&self) -> &Machine<'a> {
        &self.machine
    }

    /// Consumes the source, yielding the machine (for final memory state).
    pub fn into_machine(self) -> Machine<'a> {
        self.machine
    }
}

impl EventSource for MachineSource<'_> {
    fn next_event(&mut self) -> Result<Option<StepEvent>, RiscError> {
        if self.machine.is_done() {
            return Ok(None);
        }
        if self.left == 0 {
            return Err(RiscError::StepLimit);
        }
        self.left -= 1;
        self.machine.step().map(Some)
    }

    fn return_value(&self) -> u64 {
        self.machine.regs[Reg::RV.0 as usize]
    }
}

/// Runs a program to completion, recording [`RiscStats`].
///
/// # Errors
/// Any [`RiscError`], including [`RiscError::StepLimit`] after `step_limit`
/// dynamic instructions.
pub fn run(
    rp: &RProgram,
    ir: &Program,
    mem_size: usize,
    step_limit: u64,
) -> Result<RiscOutcome, RiscError> {
    let mut src = MachineSource::new(rp, ir, mem_size, step_limit);
    let mut stats = RiscStats::default();
    while let Some(ev) = src.next_event()? {
        // Indices are valid: the event came from a successful step.
        stats.record(&rp.funcs[ev.func as usize].insts[ev.idx as usize], &ev);
    }
    let return_value = src.return_value();
    Ok(RiscOutcome {
        return_value,
        stats,
        memory: src.into_machine().mem,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::compile_program;
    use trips_ir::{IntCc, Operand, ProgramBuilder};

    fn check_against_interp(p: &trips_ir::Program) {
        let golden = trips_ir::interp::run(p, 1 << 20).expect("ir interp");
        let rp = compile_program(p).expect("codegen");
        let out = run(&rp, p, 1 << 20, 500_000_000).expect("risc run");
        assert_eq!(
            out.return_value, golden.return_value,
            "RISC disagrees with IR interpreter"
        );
    }

    #[test]
    fn sum_loop_matches_interp() {
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
        let c = f.icmp(IntCc::Lt, i, 100i64);
        f.branch(c, body, done);
        f.switch_to(done);
        f.ret(Some(Operand::reg(acc)));
        f.finish();
        let p = pb.finish("main").unwrap();
        check_against_interp(&p);
    }

    #[test]
    fn memory_and_calls_match_interp() {
        let mut pb = ProgramBuilder::new();
        let buf = pb.data_mut().alloc_i64s("buf", &[3, 1, 4, 1, 5, 9, 2, 6]);
        let sum = pb.declare("sum", 2);
        let mut f = pb.func("sum", 2);
        let e = f.entry();
        let body = f.block();
        let done = f.block();
        f.switch_to(e);
        let acc = f.iconst(0);
        let i = f.iconst(0);
        f.jump(body);
        f.switch_to(body);
        let a = f.shl(i, 3i64);
        let addr = f.add(f.param(0), a);
        let v = f.load_i64(addr, 0);
        f.ibin_to(trips_ir::Opcode::Add, acc, acc, v);
        f.ibin_to(trips_ir::Opcode::Add, i, i, 1i64);
        let c = f.icmp(IntCc::Lt, i, f.param(1));
        f.branch(c, body, done);
        f.switch_to(done);
        f.ret(Some(Operand::reg(acc)));
        f.finish();

        let mut m = pb.func("main", 0);
        let e = m.entry();
        m.switch_to(e);
        let r = m.call(sum, &[Operand::imm(buf as i64), Operand::imm(8)]);
        m.ret(Some(Operand::reg(r)));
        m.finish();
        let p = pb.finish("main").unwrap();
        check_against_interp(&p);
    }

    #[test]
    fn fp_kernel_matches_interp() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let e = f.entry();
        f.switch_to(e);
        let a = f.fconst(1.5);
        let b = f.fconst(2.5);
        let c = f.fmul(a, b);
        let d = f.fadd(c, a);
        let i = f.iun(trips_ir::Opcode::F2i, d);
        f.ret(Some(Operand::reg(i)));
        f.finish();
        let p = pb.finish("main").unwrap();
        check_against_interp(&p); // 1.5*2.5+1.5 = 5.25 -> 5
    }

    #[test]
    fn stats_count_accesses() {
        let mut pb = ProgramBuilder::new();
        let buf = pb.data_mut().alloc_i64s("buf", &[7]);
        let mut f = pb.func("main", 0);
        let e = f.entry();
        f.switch_to(e);
        let a = f.iconst(buf as i64);
        let v = f.load_i64(a, 0);
        f.store_i64(v, a, 8 - 8);
        f.ret(Some(Operand::reg(v)));
        f.finish();
        let p = pb.finish("main").unwrap();
        let rp = compile_program(&p).unwrap();
        let out = run(&rp, &p, 1 << 20, 1_000_000).unwrap();
        assert!(out.stats.loads >= 1);
        assert!(out.stats.stores >= 1);
        assert!(out.stats.reg_reads > 0);
        assert!(out.stats.reg_writes > 0);
        assert_eq!(
            out.stats.unique_pcs.len() as u64 * 4,
            out.stats.code_footprint_bytes()
        );
    }

    #[test]
    fn recursion_matches_interp() {
        let mut pb = ProgramBuilder::new();
        let fib = pb.declare("fib", 1);
        let mut f = pb.func("fib", 1);
        let e = f.entry();
        let rec = f.block();
        let base = f.block();
        f.switch_to(e);
        let n = f.param(0);
        let c = f.icmp(IntCc::Le, n, 1i64);
        f.branch(c, base, rec);
        f.switch_to(base);
        f.ret(Some(Operand::reg(n)));
        f.switch_to(rec);
        let n1 = f.sub(n, 1i64);
        let n2 = f.sub(n, 2i64);
        let a = f.call(fib, &[Operand::reg(n1)]);
        let b = f.call(fib, &[Operand::reg(n2)]);
        let s = f.add(a, b);
        f.ret(Some(Operand::reg(s)));
        f.finish();
        let mut m = pb.func("main", 0);
        let e = m.entry();
        m.switch_to(e);
        let r = m.call(fib, &[Operand::imm(15)]);
        m.ret(Some(Operand::reg(r)));
        m.finish();
        let p = pb.finish("main").unwrap();
        check_against_interp(&p); // fib(15) = 610
    }
}
