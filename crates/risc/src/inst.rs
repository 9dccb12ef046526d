//! The RISC (PowerPC-like) instruction set.

use serde::{Deserialize, Serialize};
use std::fmt;
use trips_ir::{FloatCc, IntCc, MemWidth, Opcode as IrOp};

/// A physical register, `r0..r31`.
///
/// Conventions (PowerPC-flavoured):
/// * `r1` — stack pointer
/// * `r2`, `r11`, `r12` — codegen scratch
/// * `r3` — return value / first argument; args in `r3..r10`
/// * `r14..r31` — callee-saved
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Reg(pub u8);

impl Reg {
    /// Stack pointer.
    pub const SP: Reg = Reg(1);
    /// Return value / first argument.
    pub const RV: Reg = Reg(3);
    /// Scratch registers reserved by the code generator.
    pub const SCRATCH: [Reg; 3] = [Reg(2), Reg(11), Reg(12)];
    /// First callee-saved register.
    pub const FIRST_CALLEE_SAVED: u8 = 14;

    /// True for callee-saved registers.
    pub fn is_callee_saved(self) -> bool {
        self.0 >= Self::FIRST_CALLEE_SAVED
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Instruction category for accounting (Figure 4's "useful" comparison uses
/// all non-nop categories; the OoO model uses them for FU selection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RCat {
    /// Integer ALU (including compares, selects, moves, constants).
    Alu,
    /// Integer multiply/divide (long latency).
    MulDiv,
    /// Floating point.
    Fp,
    /// Load.
    Load,
    /// Store.
    Store,
    /// Branch/jump/call/return.
    Control,
}

/// The registers one instruction reads, in operand order: at most three,
/// held inline so the per-instruction timing and counting paths allocate
/// nothing. Derefs to `[Reg]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reads {
    regs: [Reg; 3],
    len: u8,
}

impl Reads {
    fn of<const N: usize>(regs: [Reg; N]) -> Reads {
        let mut r = Reads {
            regs: [Reg(0); 3],
            len: N as u8,
        };
        r.regs[..N].copy_from_slice(&regs);
        r
    }
}

impl std::ops::Deref for Reads {
    type Target = [Reg];

    fn deref(&self) -> &[Reg] {
        &self.regs[..usize::from(self.len)]
    }
}

/// One RISC instruction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RInst {
    /// `dst = imm16` (sign-extended).
    Li { dst: Reg, imm: i16 },
    /// `dst = (src << 16) | imm16` — constant chain step.
    Oris { dst: Reg, src: Reg, imm: u16 },
    /// Register-register ALU: `dst = op(a, b)` (IR integer binary opcodes).
    Alu { op: IrOp, dst: Reg, a: Reg, b: Reg },
    /// Immediate ALU: `dst = op(a, imm16)`.
    Alui {
        op: IrOp,
        dst: Reg,
        a: Reg,
        imm: i16,
    },
    /// Unary ALU: `dst = op(a)` (not/neg/extends).
    Alun { op: IrOp, dst: Reg, a: Reg },
    /// Register move `dst = src` (`mr` in PPC, encoded `or`).
    Mr { dst: Reg, src: Reg },
    /// Integer compare producing 0/1: `dst = a cc b`.
    Cmp { cc: IntCc, dst: Reg, a: Reg, b: Reg },
    /// Integer compare with immediate.
    Cmpi {
        cc: IntCc,
        dst: Reg,
        a: Reg,
        imm: i16,
    },
    /// Float binary op (operands are f64 bit patterns in GPRs).
    Fbin { op: IrOp, dst: Reg, a: Reg, b: Reg },
    /// Float unary op.
    Fun { op: IrOp, dst: Reg, a: Reg },
    /// Float compare producing 0/1.
    Fcmp {
        cc: FloatCc,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    /// Conditional select `dst = c != 0 ? a : b` (isel).
    Select { dst: Reg, c: Reg, a: Reg, b: Reg },
    /// Load: `dst = mem[base + off]`, widened per `w`/`signed`.
    Load {
        w: MemWidth,
        signed: bool,
        dst: Reg,
        base: Reg,
        off: i16,
    },
    /// Store: `mem[base + off] = src` (truncated per `w`).
    Store {
        w: MemWidth,
        src: Reg,
        base: Reg,
        off: i16,
    },
    /// Unconditional branch to an instruction index within the function.
    B { target: u32 },
    /// Branch if `c != 0`.
    Bnz { c: Reg, target: u32 },
    /// Branch if `c == 0`.
    Bz { c: Reg, target: u32 },
    /// Call function `func` (`bl`).
    Bl { func: u32 },
    /// Return (`blr`).
    Blr,
}

impl RInst {
    /// Category for accounting and timing.
    pub fn cat(&self) -> RCat {
        match self {
            RInst::Li { .. }
            | RInst::Oris { .. }
            | RInst::Mr { .. }
            | RInst::Cmp { .. }
            | RInst::Cmpi { .. }
            | RInst::Select { .. }
            | RInst::Alun { .. } => RCat::Alu,
            RInst::Alu { op, .. } | RInst::Alui { op, .. } => match op {
                IrOp::Mul | IrOp::Div | IrOp::Udiv | IrOp::Rem | IrOp::Urem => RCat::MulDiv,
                _ => RCat::Alu,
            },
            RInst::Fbin { .. } | RInst::Fun { .. } | RInst::Fcmp { .. } => RCat::Fp,
            RInst::Load { .. } => RCat::Load,
            RInst::Store { .. } => RCat::Store,
            RInst::B { .. }
            | RInst::Bnz { .. }
            | RInst::Bz { .. }
            | RInst::Bl { .. }
            | RInst::Blr => RCat::Control,
        }
    }

    /// Registers read by this instruction (≤3).
    pub fn reads(&self) -> Reads {
        match self {
            RInst::Li { .. } | RInst::B { .. } | RInst::Bl { .. } | RInst::Blr => Reads::of([]),
            RInst::Oris { src, .. } | RInst::Mr { src, .. } => Reads::of([*src]),
            RInst::Alu { a, b, .. }
            | RInst::Cmp { a, b, .. }
            | RInst::Fbin { a, b, .. }
            | RInst::Fcmp { a, b, .. } => Reads::of([*a, *b]),
            RInst::Alui { a, .. }
            | RInst::Alun { a, .. }
            | RInst::Cmpi { a, .. }
            | RInst::Fun { a, .. } => Reads::of([*a]),
            RInst::Select { c, a, b, .. } => Reads::of([*c, *a, *b]),
            RInst::Load { base, .. } => Reads::of([*base]),
            RInst::Store { src, base, .. } => Reads::of([*src, *base]),
            RInst::Bnz { c, .. } | RInst::Bz { c, .. } => Reads::of([*c]),
        }
    }

    /// Register written by this instruction, if any.
    pub fn writes(&self) -> Option<Reg> {
        match self {
            RInst::Li { dst, .. }
            | RInst::Oris { dst, .. }
            | RInst::Alu { dst, .. }
            | RInst::Alui { dst, .. }
            | RInst::Alun { dst, .. }
            | RInst::Mr { dst, .. }
            | RInst::Cmp { dst, .. }
            | RInst::Cmpi { dst, .. }
            | RInst::Fbin { dst, .. }
            | RInst::Fun { dst, .. }
            | RInst::Fcmp { dst, .. }
            | RInst::Select { dst, .. }
            | RInst::Load { dst, .. } => Some(*dst),
            _ => None,
        }
    }

    /// True for control-flow instructions.
    pub fn is_control(&self) -> bool {
        self.cat() == RCat::Control
    }
}

/// One compiled function.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RFunc {
    /// Symbolic name.
    pub name: String,
    /// Instructions; branch targets are indices into this vector.
    pub insts: Vec<RInst>,
    /// Frame size in bytes (spills + IR frame + saved registers).
    pub frame_size: u32,
}

/// A compiled RISC program.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RProgram {
    /// Functions; [`RInst::Bl`] indexes this vector.
    pub funcs: Vec<RFunc>,
    /// Entry function index.
    pub entry: u32,
}

impl RProgram {
    /// Total static instructions.
    pub fn static_insts(&self) -> usize {
        self.funcs.iter().map(|f| f.insts.len()).sum()
    }

    /// Static code size in bytes (4 bytes per instruction).
    pub fn code_bytes(&self) -> usize {
        self.static_insts() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories() {
        assert_eq!(
            RInst::Li {
                dst: Reg(3),
                imm: 1
            }
            .cat(),
            RCat::Alu
        );
        assert_eq!(
            RInst::Alu {
                op: IrOp::Div,
                dst: Reg(3),
                a: Reg(4),
                b: Reg(5)
            }
            .cat(),
            RCat::MulDiv
        );
        assert_eq!(RInst::Blr.cat(), RCat::Control);
        assert_eq!(
            RInst::Load {
                w: MemWidth::D,
                signed: false,
                dst: Reg(3),
                base: Reg(1),
                off: 0
            }
            .cat(),
            RCat::Load
        );
    }

    #[test]
    fn read_write_sets() {
        let i = RInst::Select {
            dst: Reg(3),
            c: Reg(4),
            a: Reg(5),
            b: Reg(6),
        };
        assert_eq!(*i.reads(), [Reg(4), Reg(5), Reg(6)]);
        assert_eq!(i.writes(), Some(Reg(3)));
        assert_eq!(RInst::Blr.writes(), None);
        let s = RInst::Store {
            w: MemWidth::W,
            src: Reg(7),
            base: Reg(1),
            off: 8,
        };
        assert_eq!(*s.reads(), [Reg(7), Reg(1)]);
        assert!(RInst::Blr.reads().is_empty());
        assert_eq!(s.writes(), None);
    }

    #[test]
    fn callee_saved_split() {
        assert!(!Reg(13).is_callee_saved());
        assert!(Reg(14).is_callee_saved());
        assert!(Reg(31).is_callee_saved());
    }
}
