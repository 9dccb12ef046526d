//! # trips-risc
//!
//! A PowerPC-like RISC baseline: ISA, code generator from [`trips_ir`], and
//! a functional simulator that counts instructions, memory accesses and
//! register-file accesses.
//!
//! The paper (§4) compares the TRIPS EDGE ISA against gcc-compiled PowerPC
//! binaries run on a PowerPC functional simulator. This crate plays that
//! role: the *same* IR programs that the TRIPS compiler consumes are lowered
//! to a classic 32-register load/store ISA with 16-bit immediates, compare +
//! conditional-branch control, and a linear-scan register allocator that
//! spills to a stack frame — so the Figure 4/5 instruction-count and
//! storage-access comparisons are apples-to-apples.
//!
//! Deliberate simplifications (documented in DESIGN.md): a single unified
//! 64-bit register file instead of split GPR/FPR (register *counts* are what
//! the figures need), and a `select` instruction standing in for `isel`.

pub mod codegen;
pub mod exec;
pub mod inst;
pub mod regalloc;
pub mod trace;

pub use codegen::{compile_program, CodegenError};
pub use exec::{run, EventSource, Machine, MachineSource, RiscOutcome, RiscStats};
pub use inst::{RCat, RInst, RProgram, Reads, Reg};
pub use trace::{
    CursorState, RiscTrace, RiscTraceHeader, RiscTraceMeta, TraceCursor, RISC_TRACE_VERSION,
};
