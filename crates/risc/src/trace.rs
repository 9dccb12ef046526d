//! Recorded RISC event streams: execute once, time many.
//!
//! The out-of-order reference models (`trips-ooo`) are execute-at-fetch:
//! they consume the dynamic instruction stream — branch outcomes, memory
//! addresses, control transfers — and assign cycles. Everything else they
//! need (operand registers, categories, latencies) is *static*, readable
//! from the [`RProgram`] at the event's program counter. A [`RiscTrace`]
//! therefore records only what replay cannot re-derive:
//!
//! * one **bit** per conditional branch (taken/not-taken, packed 64 to a
//!   word),
//! * one **address** per memory access, in program order.
//!
//! The instruction stream itself is reconstructed by walking the program:
//! straight-line code falls through, unconditional jumps and calls have
//! static targets, conditional branches consume the bit stream, and returns
//! pop a replay-side call stack. [`TraceCursor`] performs that walk,
//! emitting the exact [`StepEvent`] sequence the live
//! [`Machine`](crate::exec::Machine) produced — so a consumer generic over
//! [`EventSource`] (the OoO timing model) is bit-identical on either
//! source.
//!
//! Like the `TraceLog` header in the sibling `trips-isa` crate,
//! [`RiscTraceHeader`] is versioned and carries provenance, so a persisted
//! stream is never replayed against the wrong binary or a future
//! incompatible format.

use crate::exec::{CtrlKind, EventSource, MachineSource, RiscError, RiscStats, StepEvent};
use crate::inst::{RInst, RProgram};
use serde::{Deserialize, Serialize};
use trips_ir::Program;

/// `b"RTRC"` — identifies a serialized RISC event stream.
pub const RISC_TRACE_MAGIC: u32 = 0x5254_5243;

/// Current RISC-trace format version. Bump on any incompatible change to
/// [`RiscTrace`] or its encoding; the engine folds it into store keys, so a
/// bump retires every persisted stream at once.
pub const RISC_TRACE_VERSION: u32 = 1;

/// Provenance and format metadata stored ahead of the stream body.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RiscTraceHeader {
    /// Always [`RISC_TRACE_MAGIC`].
    pub magic: u32,
    /// Always [`RISC_TRACE_VERSION`] for streams this build writes.
    pub version: u32,
    /// Workload name the stream was captured from (informational).
    pub workload: String,
    /// Scale label (informational).
    pub scale: String,
    /// Signature of the compile options the program was built with.
    pub opts_sig: u64,
    /// Memory size the functional run used.
    pub mem_size: u64,
    /// Dynamic instruction budget the capture ran under.
    pub max_steps: u64,
    /// Dynamic instructions recorded.
    pub dynamic_insts: u64,
    /// Conditional-branch outcomes recorded (bits in [`RiscTrace::conds`]).
    pub cond_count: u64,
    /// Memory addresses recorded (entries in [`RiscTrace::mems`]).
    pub mem_count: u64,
}

/// Capture provenance supplied by the caller (free-form; the engine uses it
/// to key caches and reject mismatched replays).
#[derive(Debug, Clone, Default)]
pub struct RiscTraceMeta {
    /// Workload name.
    pub workload: String,
    /// Scale label.
    pub scale: String,
    /// Compile-options signature.
    pub opts_sig: u64,
}

/// A captured RISC execution: the non-derivable dynamic state (branch bits
/// and memory addresses), the run's outcome, and the full functional
/// statistics — so a warm process serves instruction-count figures without
/// executing anything.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RiscTrace {
    /// Format and provenance metadata.
    pub header: RiscTraceHeader,
    /// Conditional-branch outcomes, packed LSB-first, 64 per word.
    pub conds: Vec<u64>,
    /// Memory access addresses, in program order (loads and stores).
    pub mems: Vec<u64>,
    /// The program's return value.
    pub return_value: u64,
    /// Statistics of the functional run (Figures 4/5, §4.4 denominators).
    pub stats: RiscStats,
}

fn push_bit(words: &mut Vec<u64>, n: u64, bit: bool) {
    let word = (n / 64) as usize;
    if word == words.len() {
        words.push(0);
    }
    if bit {
        words[word] |= 1 << (n % 64);
    }
}

impl RiscTrace {
    /// Runs `rp` to completion, recording the event stream and statistics.
    ///
    /// # Errors
    /// Any [`RiscError`] of the underlying functional run, including
    /// [`RiscError::StepLimit`] when `max_steps` is exhausted.
    pub fn capture(
        rp: &RProgram,
        ir: &Program,
        mem_size: usize,
        max_steps: u64,
        meta: RiscTraceMeta,
    ) -> Result<RiscTrace, RiscError> {
        let mut src = MachineSource::new(rp, ir, mem_size, max_steps);
        let mut stats = RiscStats::default();
        let mut conds: Vec<u64> = Vec::new();
        let mut mems: Vec<u64> = Vec::new();
        let mut dynamic_insts = 0u64;
        let mut cond_count = 0u64;
        while let Some(ev) = src.next_event()? {
            stats.record(&rp.funcs[ev.func as usize].insts[ev.idx as usize], &ev);
            dynamic_insts += 1;
            if let Some(taken) = ev.cond {
                push_bit(&mut conds, cond_count, taken);
                cond_count += 1;
            }
            if let Some((addr, _)) = ev.mem {
                mems.push(addr);
            }
        }
        Ok(RiscTrace {
            header: RiscTraceHeader {
                magic: RISC_TRACE_MAGIC,
                version: RISC_TRACE_VERSION,
                workload: meta.workload,
                scale: meta.scale,
                opts_sig: meta.opts_sig,
                mem_size: mem_size as u64,
                max_steps,
                dynamic_insts,
                cond_count,
                mem_count: mems.len() as u64,
            },
            conds,
            mems,
            return_value: src.return_value(),
            stats,
        })
    }

    /// A cursor that replays the recorded stream against `rp`, emitting the
    /// exact [`StepEvent`] sequence the capture observed.
    pub fn cursor<'a>(&'a self, rp: &'a RProgram) -> TraceCursor<'a> {
        TraceCursor {
            trace: self,
            rp,
            pc: (rp.entry, 0),
            call_stack: Vec::new(),
            emitted: 0,
            cond_at: 0,
            mem_at: 0,
            done: false,
        }
    }

    /// A cursor resumed at a previously captured [`CursorState`]: emits
    /// exactly the events a fresh cursor would emit after stepping to the
    /// same position — the live-point restore primitive.
    pub fn cursor_at<'a>(&'a self, rp: &'a RProgram, state: &CursorState) -> TraceCursor<'a> {
        TraceCursor {
            trace: self,
            rp,
            pc: state.pc,
            call_stack: state.call_stack.clone(),
            emitted: state.emitted,
            cond_at: state.cond_at,
            mem_at: state.mem_at,
            done: state.done,
        }
    }

    /// Checks the header and replays the full stream against `rp`: every
    /// reconstructed program counter must be in bounds and the recorded
    /// counts must match exactly. A stream captured from a different binary
    /// cannot drive the timing model out of bounds — it is rejected here.
    ///
    /// # Errors
    /// A description of the first mismatch.
    pub fn validate(&self, rp: &RProgram) -> Result<(), String> {
        let h = &self.header;
        if h.magic != RISC_TRACE_MAGIC {
            return Err(format!(
                "bad trace magic {:#x} (expected {RISC_TRACE_MAGIC:#x})",
                h.magic
            ));
        }
        if h.version != RISC_TRACE_VERSION {
            return Err(format!(
                "trace version {} unsupported (expected {RISC_TRACE_VERSION})",
                h.version
            ));
        }
        if self.conds.len() as u64 != h.cond_count.div_ceil(64) {
            return Err(format!(
                "{} cond words for {} recorded outcomes",
                self.conds.len(),
                h.cond_count
            ));
        }
        if self.mems.len() as u64 != h.mem_count {
            return Err(format!(
                "header says {} memory accesses, body has {}",
                h.mem_count,
                self.mems.len()
            ));
        }
        if self.stats.insts != h.dynamic_insts {
            return Err(format!(
                "stats count {} instructions, header says {}",
                self.stats.insts, h.dynamic_insts
            ));
        }
        let mut cursor = self.cursor(rp);
        while cursor.next_event().map_err(|e| e.to_string())?.is_some() {}
        Ok(())
    }
}

/// Serializable position of a [`TraceCursor`]: everything the program walk
/// needs to resume — program counter, replay call stack, and the read
/// offsets into the branch-bit and address streams. Captured by
/// [`TraceCursor::state`], resumed by [`RiscTrace::cursor_at`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CursorState {
    /// Program counter as `(function, instruction)`.
    pub pc: (u32, u32),
    /// Replay-side call stack of return sites.
    pub call_stack: Vec<(u32, u32)>,
    /// Instructions emitted so far.
    pub emitted: u64,
    /// Branch-outcome bits consumed so far.
    pub cond_at: u64,
    /// Memory addresses consumed so far.
    pub mem_at: u64,
    /// Whether the walk has parked past the final return.
    pub done: bool,
}

/// Replays a [`RiscTrace`] as an [`EventSource`] by walking the program:
/// the recorded bits steer conditional branches, the recorded addresses
/// fill memory events, and a replay-side call stack resolves returns.
#[derive(Debug)]
pub struct TraceCursor<'a> {
    trace: &'a RiscTrace,
    rp: &'a RProgram,
    pc: (u32, u32),
    call_stack: Vec<(u32, u32)>,
    emitted: u64,
    cond_at: u64,
    mem_at: u64,
    done: bool,
}

impl TraceCursor<'_> {
    /// Captures the cursor's position for later resumption via
    /// [`RiscTrace::cursor_at`].
    pub fn state(&self) -> CursorState {
        CursorState {
            pc: self.pc,
            call_stack: self.call_stack.clone(),
            emitted: self.emitted,
            cond_at: self.cond_at,
            mem_at: self.mem_at,
            done: self.done,
        }
    }

    fn take_cond(&mut self) -> Result<bool, RiscError> {
        if self.cond_at >= self.trace.header.cond_count {
            return Err(RiscError::Trace(format!(
                "branch-outcome stream exhausted after {} bits",
                self.trace.header.cond_count
            )));
        }
        let n = self.cond_at;
        self.cond_at += 1;
        match self.trace.conds.get((n / 64) as usize) {
            Some(word) => Ok((word >> (n % 64)) & 1 == 1),
            None => Err(RiscError::Trace(format!(
                "branch-outcome word {} missing",
                n / 64
            ))),
        }
    }

    fn take_mem(&mut self) -> Result<u64, RiscError> {
        let addr = self.trace.mems.get(self.mem_at as usize).copied();
        self.mem_at += 1;
        addr.ok_or_else(|| {
            RiscError::Trace(format!(
                "address stream exhausted after {} accesses",
                self.trace.mems.len()
            ))
        })
    }
}

impl EventSource for TraceCursor<'_> {
    fn next_event(&mut self) -> Result<Option<StepEvent>, RiscError> {
        if self.emitted == self.trace.header.dynamic_insts {
            if !self.done {
                return Err(RiscError::Trace(format!(
                    "program still running after {} recorded instructions",
                    self.emitted
                )));
            }
            if self.cond_at != self.trace.header.cond_count
                || self.mem_at != self.trace.header.mem_count
            {
                return Err(RiscError::Trace(format!(
                    "stream not fully consumed: {}/{} branch bits, {}/{} addresses",
                    self.cond_at,
                    self.trace.header.cond_count,
                    self.mem_at,
                    self.trace.header.mem_count
                )));
            }
            return Ok(None);
        }
        if self.done {
            return Err(RiscError::Trace(format!(
                "trace records {} instructions past program completion",
                self.trace.header.dynamic_insts - self.emitted
            )));
        }
        let (fi, ii) = self.pc;
        let inst = self
            .rp
            .funcs
            .get(fi as usize)
            .and_then(|f| f.insts.get(ii as usize))
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
        let mut next = (fi, ii + 1);
        match inst {
            RInst::Load { .. } => ev.mem = Some((self.take_mem()?, false)),
            RInst::Store { .. } => ev.mem = Some((self.take_mem()?, true)),
            RInst::B { target } => {
                next = (fi, *target);
                ev.ctrl_kind = CtrlKind::Jump;
                ev.transfer = Some(next);
            }
            RInst::Bnz { target, .. } | RInst::Bz { target, .. } => {
                ev.ctrl_kind = CtrlKind::Cond;
                let taken = self.take_cond()?;
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
                        next = (fi, ii); // park, as the live machine does
                    }
                }
            }
            _ => {}
        }
        self.pc = next;
        self.emitted += 1;
        Ok(Some(ev))
    }

    fn return_value(&self) -> u64 {
        self.trace.return_value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::compile_program;
    use crate::exec::{run, Machine};
    use trips_ir::{IntCc, Operand, ProgramBuilder};

    /// A program exercising every replay-relevant construct: loops (cond
    /// branches both ways), calls/returns, loads and stores.
    fn busy_program() -> Program {
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
        f.store_i64(v, addr, 0);
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
        pb.finish("main").unwrap()
    }

    #[test]
    fn capture_matches_direct_run() {
        let ir = busy_program();
        let rp = compile_program(&ir).unwrap();
        let direct = run(&rp, &ir, 1 << 20, 1_000_000).unwrap();
        let trace =
            RiscTrace::capture(&rp, &ir, 1 << 20, 1_000_000, RiscTraceMeta::default()).unwrap();
        assert_eq!(trace.return_value, direct.return_value);
        assert_eq!(trace.stats, direct.stats);
        assert_eq!(trace.header.dynamic_insts, direct.stats.insts);
        assert_eq!(trace.header.cond_count, direct.stats.cond_branches);
        assert_eq!(
            trace.header.mem_count,
            direct.stats.loads + direct.stats.stores
        );
        trace.validate(&rp).unwrap();
    }

    #[test]
    fn cursor_reproduces_the_exact_event_stream() {
        let ir = busy_program();
        let rp = compile_program(&ir).unwrap();
        let trace =
            RiscTrace::capture(&rp, &ir, 1 << 20, 1_000_000, RiscTraceMeta::default()).unwrap();

        let mut live = Vec::new();
        let mut m = Machine::new(&rp, &ir, 1 << 20);
        while !m.is_done() {
            live.push(m.step().unwrap());
        }
        let mut replayed = Vec::new();
        let mut cur = trace.cursor(&rp);
        while let Some(ev) = cur.next_event().unwrap() {
            replayed.push(ev);
        }
        assert_eq!(live, replayed, "replay must emit the identical stream");
        assert_eq!(cur.return_value(), trace.return_value);
    }

    #[test]
    fn validate_rejects_corruption() {
        let ir = busy_program();
        let rp = compile_program(&ir).unwrap();
        let trace =
            RiscTrace::capture(&rp, &ir, 1 << 20, 1_000_000, RiscTraceMeta::default()).unwrap();

        let mut bad = trace.clone();
        bad.header.magic = 0xdead;
        assert!(bad.validate(&rp).is_err());

        let mut bad = trace.clone();
        bad.header.version = RISC_TRACE_VERSION + 1;
        assert!(bad.validate(&rp).is_err());

        // A dropped address under-runs the stream mid-replay.
        let mut bad = trace.clone();
        bad.mems.pop();
        bad.header.mem_count -= 1;
        assert!(bad.validate(&rp).is_err());

        // A flipped branch bit diverges the control-flow walk.
        let mut bad = trace.clone();
        bad.conds[0] ^= 1;
        assert!(bad.validate(&rp).is_err());

        // A wrong instruction count can't sneak through either direction.
        let mut bad = trace.clone();
        bad.header.dynamic_insts += 1;
        bad.stats.insts += 1;
        assert!(bad.validate(&rp).is_err());
        let mut bad = trace;
        bad.header.dynamic_insts -= 1;
        bad.stats.insts -= 1;
        assert!(bad.validate(&rp).is_err());
    }

    #[test]
    fn serde_roundtrip() {
        let ir = busy_program();
        let rp = compile_program(&ir).unwrap();
        let trace = RiscTrace::capture(
            &rp,
            &ir,
            1 << 20,
            1_000_000,
            RiscTraceMeta {
                workload: "busy".into(),
                scale: "test".into(),
                opts_sig: 0xabcd,
            },
        )
        .unwrap();
        let bytes = serde::bin::to_bytes(&trace);
        let back: RiscTrace = serde::bin::from_bytes(&bytes).unwrap();
        assert_eq!(back, trace);
        back.validate(&rp).unwrap();
    }

    #[test]
    fn budget_exhaustion_propagates() {
        let ir = busy_program();
        let rp = compile_program(&ir).unwrap();
        let err = RiscTrace::capture(&rp, &ir, 1 << 20, 3, RiscTraceMeta::default());
        assert!(matches!(err, Err(RiscError::StepLimit)));
    }
}
