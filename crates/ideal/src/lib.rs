//! # trips-ideal
//!
//! The idealized EDGE machine of the paper's limit study (§5.3, Figure 10):
//! perfect next-block prediction, perfect predication (only instructions
//! that actually fire are charged), perfect caches, infinite execution
//! resources, and zero inter-tile delay. The remaining constraints are the
//! dataflow dependences themselves, a configurable instruction window, and
//! a configurable per-block dispatch cost.
//!
//! The study asks: with everything but dependences removed, how much ILP is
//! there? The paper finds ~2.5× over the prototype at a 1K window, a factor
//! ~5 more with zero dispatch cost, and per-benchmark IPCs in the tens to
//! hundreds at 128K windows.

use std::collections::HashMap;
use trips_compiler::CompiledProgram;
use trips_isa::interp::{run_program_traced, TraceSrc, TripsExecError};

/// Configuration of the idealized machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdealConfig {
    /// Instruction-window size in *blocks* (window insts / 128). The paper
    /// uses 8 (1K window) and 1024 (128K window).
    pub window_blocks: u64,
    /// Cycles between consecutive block dispatches (8 on the prototype-like
    /// configuration, 0 for the pure dataflow limit).
    pub dispatch_cost: u64,
}

impl IdealConfig {
    /// The paper's baseline ideal machine: 1K window, 8-cycle dispatch.
    pub fn window_1k() -> IdealConfig {
        IdealConfig {
            window_blocks: 8,
            dispatch_cost: 8,
        }
    }

    /// 1K window with free dispatch.
    pub fn window_1k_free_dispatch() -> IdealConfig {
        IdealConfig {
            window_blocks: 8,
            dispatch_cost: 0,
        }
    }

    /// The 128K-window annotation configuration.
    pub fn window_128k() -> IdealConfig {
        IdealConfig {
            window_blocks: 1024,
            dispatch_cost: 0,
        }
    }
}

/// Result of the limit study on one program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdealResult {
    /// Schedule length in cycles.
    pub cycles: u64,
    /// Executed (fired) instructions charged.
    pub insts: u64,
    /// IPC = insts / cycles.
    pub ipc: f64,
}

/// Runs the limit study: schedules every fired instruction at the earliest
/// cycle its dataflow inputs allow, subject to the window and dispatch
/// constraints.
///
/// # Errors
/// Propagates functional execution failures.
pub fn analyze(
    compiled: &CompiledProgram,
    cfg: IdealConfig,
    mem_size: usize,
) -> Result<IdealResult, TripsExecError> {
    analyze_with_budget(compiled, cfg, mem_size, u64::MAX)
}

/// [`analyze`] with a dynamic block budget.
///
/// # Errors
/// Propagates functional execution failures (including the budget).
pub fn analyze_with_budget(
    compiled: &CompiledProgram,
    cfg: IdealConfig,
    mem_size: usize,
    max_blocks: u64,
) -> Result<IdealResult, TripsExecError> {
    let tp = &compiled.trips;
    let ir = &compiled.opt_ir;

    // Cross-block value times.
    let mut reg_time = [0u64; 128];
    // 8-byte-granule memory timestamps for store→load ordering.
    let mut mem_time: HashMap<u64, u64> = HashMap::new();
    let mut completions: Vec<u64> = Vec::new();
    let mut insts: u64 = 0;
    let mut makespan: u64 = 0;
    let mut prev_dispatch: u64 = 0;
    let mut first = true;

    let outcome = run_program_traced(tp, ir, mem_size, max_blocks, |bidx, trace, addrs| {
        let block = &tp.blocks[bidx as usize];
        let seq = completions.len() as u64;
        let mut dispatch = if first {
            0
        } else {
            prev_dispatch + cfg.dispatch_cost
        };
        first = false;
        if seq >= cfg.window_blocks {
            dispatch = dispatch.max(completions[(seq - cfg.window_blocks) as usize]);
        }
        prev_dispatch = dispatch;

        let mut done: HashMap<u8, u64> = HashMap::new();
        let mut completion = dispatch;
        let mut addrs = addrs.iter();
        for ti in &trace.fired {
            let inst = &block.insts[ti.idx as usize];
            let mut ready = dispatch;
            for s in &ti.srcs {
                let t = match s {
                    TraceSrc::Read(r) => reg_time[block.reads[*r as usize].reg as usize],
                    TraceSrc::Inst(p) => done.get(p).copied().unwrap_or(dispatch),
                };
                ready = ready.max(t);
            }
            if let Some(mem) = ti.mem {
                let addr = *addrs.next().expect("one address per memory operation");
                let lo = addr >> 3;
                let hi = (addr + mem.bytes as u64 - 1) >> 3;
                if mem.is_store {
                    let t = ready + 1;
                    for g in lo..=hi {
                        mem_time.insert(g, t);
                    }
                    done.insert(ti.idx, t);
                    completion = completion.max(t);
                } else {
                    for g in lo..=hi {
                        ready = ready.max(mem_time.get(&g).copied().unwrap_or(0));
                    }
                    let t = ready + inst.op.latency() as u64;
                    done.insert(ti.idx, t);
                    completion = completion.max(t);
                }
            } else {
                let t = ready + inst.op.latency() as u64;
                done.insert(ti.idx, t);
                completion = completion.max(t);
            }
            insts += 1;
        }
        for (wi, src) in trace.write_srcs.iter().enumerate() {
            if let Some(s) = src {
                let t = match s {
                    TraceSrc::Read(r) => reg_time[block.reads[*r as usize].reg as usize],
                    TraceSrc::Inst(p) => done.get(p).copied().unwrap_or(dispatch),
                };
                reg_time[block.writes[wi].reg as usize] = t;
                completion = completion.max(t);
            }
        }
        completions.push(completion);
        makespan = makespan.max(completion);
    });

    match outcome {
        Ok(_) | Err(TripsExecError::StepLimit) => {}
        Err(e) => return Err(e),
    }
    let cycles = makespan.max(1);
    Ok(IdealResult {
        cycles,
        insts,
        ipc: insts as f64 / cycles as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use trips_compiler::{compile, CompileOptions};
    use trips_ir::{IntCc, Operand, ProgramBuilder};

    /// Independent-iteration vector kernel: huge ILP.
    fn vadd_like(n: i64) -> trips_ir::Program {
        let mut pb = ProgramBuilder::new();
        let a = pb.data_mut().alloc_i64s("a", &(0..n).collect::<Vec<_>>());
        let b = pb
            .data_mut()
            .alloc_i64s("b", &(0..n).map(|x| x * 2).collect::<Vec<_>>());
        let c = pb.data_mut().alloc_zeroed("c", n as u64 * 8, 8);
        let mut f = pb.func("main", 0);
        let e = f.entry();
        let body = f.block();
        let done = f.block();
        f.switch_to(e);
        let i = f.iconst(0);
        f.jump(body);
        f.switch_to(body);
        let off = f.shl(i, 3i64);
        let pa = f.add(a as i64, off);
        let pb_ = f.add(b as i64, off);
        let pc = f.add(c as i64, off);
        let va = f.load_i64(pa, 0);
        let vb = f.load_i64(pb_, 0);
        let vc = f.add(va, vb);
        f.store_i64(vc, pc, 0);
        f.ibin_to(trips_ir::Opcode::Add, i, i, 1i64);
        let cnd = f.icmp(IntCc::Lt, i, n);
        f.branch(cnd, body, done);
        f.switch_to(done);
        f.ret(Some(Operand::reg(i)));
        f.finish();
        pb.finish("main").unwrap()
    }

    /// Serial pointer-chase: IPC must stay near 1.
    fn serial_chain(n: i64) -> trips_ir::Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let e = f.entry();
        let body = f.block();
        let done = f.block();
        f.switch_to(e);
        let x = f.iconst(1);
        let i = f.iconst(0);
        f.jump(body);
        f.switch_to(body);
        f.ibin_to(trips_ir::Opcode::Mul, x, x, 3i64);
        f.ibin_to(trips_ir::Opcode::Add, x, x, 1i64);
        f.ibin_to(trips_ir::Opcode::Add, i, i, 1i64);
        let c = f.icmp(IntCc::Lt, i, n);
        f.branch(c, body, done);
        f.switch_to(done);
        f.ret(Some(Operand::reg(x)));
        f.finish();
        pb.finish("main").unwrap()
    }

    #[test]
    fn parallel_kernel_has_high_ilp() {
        let p = vadd_like(512);
        let c = compile(&p, &CompileOptions::o2()).unwrap();
        let small = analyze(&c, IdealConfig::window_1k(), 1 << 20).unwrap();
        let big = analyze(&c, IdealConfig::window_128k(), 1 << 20).unwrap();
        assert!(
            big.ipc > small.ipc * 1.5,
            "128K window {} !>> 1K {}",
            big.ipc,
            small.ipc
        );
        assert!(
            big.ipc > 10.0,
            "vadd should have lots of ILP, got {}",
            big.ipc
        );
    }

    #[test]
    fn serial_kernel_is_limited() {
        let p = serial_chain(2000);
        let c = compile(&p, &CompileOptions::o2()).unwrap();
        let r = analyze(&c, IdealConfig::window_128k(), 1 << 20).unwrap();
        assert!(
            r.ipc < 8.0,
            "serial chain can't have high IPC, got {}",
            r.ipc
        );
    }

    #[test]
    fn dispatch_cost_matters_at_small_blocks() {
        let p = serial_chain(500);
        let c = compile(&p, &CompileOptions::o0()).unwrap();
        let with = analyze(&c, IdealConfig::window_1k(), 1 << 20).unwrap();
        let free = analyze(&c, IdealConfig::window_1k_free_dispatch(), 1 << 20).unwrap();
        assert!(free.cycles <= with.cycles);
    }

    #[test]
    fn budget_variant_truncates() {
        let p = serial_chain(100_000);
        let c = compile(&p, &CompileOptions::o0()).unwrap();
        let r = analyze_with_budget(&c, IdealConfig::window_1k(), 1 << 20, 50).unwrap();
        assert!(r.insts > 0);
    }
}
