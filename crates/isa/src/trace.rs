//! Recorded execution traces: capture a program's per-block dataflow trace
//! stream once, replay it many times.
//!
//! The cycle-level simulator (`trips-sim`) is trace-driven: the functional
//! interpreter executes each block and hands the timing model a
//! [`BlockTrace`]. Re-running the interpreter for every timing configuration
//! wastes most of a sweep's cycles on redundant functional execution, so a
//! [`TraceLog`] records the stream once and replays it into N timing models.
//!
//! Two properties keep logs compact:
//!
//! * **Path interning** — TRIPS runs a hyperblock atomically, so each
//!   execution of a block follows one of the few predicated dataflow
//!   paths its compiled code allows; only its load and store addresses
//!   change from one execution to the next. A [`BlockTrace`] carries no
//!   addresses, so it is such a path: each distinct one is stored once in
//!   [`TraceLog::shapes`], the dynamic stream is a sequence of
//!   `(block, path)` index pairs, and every address goes, in fire order,
//!   into one flat run, [`TraceLog::addrs`] (the way the RISC trace
//!   stores its own). Each execution of a path takes the next
//!   [`MemIndex::path`]`(p).len()` addresses of the run.
//! * **A versioned header** — [`TraceHeader`] carries a magic number,
//!   format version, provenance (workload/scale/options signature) and the
//!   capture budget, so a stored log is never replayed against the wrong
//!   binary or a future incompatible format.

use crate::interp::{run_program_traced, BlockTrace, TraceMem, TripsExecError};
use crate::stats::IsaStats;
use crate::TripsProgram;
use serde::{Deserialize, Serialize};
use trips_ir::Program;

/// `b"TRLG"` — identifies a serialized trace log.
pub const TRACE_MAGIC: u32 = 0x5452_4C47;

/// Current trace-log format version. Bump on any incompatible change to
/// [`TraceLog`], [`BlockTrace`] or their encodings.
pub const TRACE_VERSION: u32 = 2;

/// [`TraceLog::validate`]'s mark for a shape not yet checked against any
/// block.
const UNCHECKED: u32 = u32::MAX;

/// Provenance and format metadata stored ahead of the trace body.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceHeader {
    /// Always [`TRACE_MAGIC`].
    pub magic: u32,
    /// Always [`TRACE_VERSION`] for logs this build writes.
    pub version: u32,
    /// Workload name the trace was captured from (informational).
    pub workload: String,
    /// Scale label (informational).
    pub scale: String,
    /// Signature of the compile options the program was built with; replays
    /// against a program compiled differently are rejected by the engine.
    pub opts_sig: u64,
    /// Memory size the functional run used.
    pub mem_size: u64,
    /// Dynamic block budget the capture ran under.
    pub max_blocks: u64,
    /// Dynamic blocks recorded.
    pub dynamic_blocks: u64,
    /// Distinct paths after interning (the length of
    /// [`TraceLog::shapes`]).
    pub unique_shapes: u64,
}

/// A captured functional execution: every dynamic block's path, interned,
/// and its addresses, plus the run's outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceLog {
    /// Format and provenance metadata.
    pub header: TraceHeader,
    /// Distinct block paths, indexed by [`TraceLog::seq`], in order of
    /// first occurrence.
    pub shapes: Vec<BlockTrace>,
    /// The dynamic stream: `(block index, path index)` per block execution.
    pub seq: Vec<(u32, u32)>,
    /// Every memory access's address, in stream and fire order.
    pub addrs: Vec<u64>,
    /// The program's return value.
    pub return_value: u64,
    /// ISA-level statistics of the functional run.
    pub stats: IsaStats,
}

/// Capture provenance supplied by the caller (free-form; the engine uses it
/// to key caches and reject mismatched replays).
#[derive(Debug, Clone, Default)]
pub struct TraceMeta {
    /// Workload name.
    pub workload: String,
    /// Scale label.
    pub scale: String,
    /// Compile-options signature.
    pub opts_sig: u64,
}

/// The complete identity of one capture: everything that, if changed, would
/// change the recorded stream. This is the key of the engine's
/// content-addressed on-disk trace store — two captures with equal
/// [`TraceId`]s are interchangeable, so a stored log may stand in for a
/// fresh capture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceId {
    /// Workload name.
    pub workload: String,
    /// Scale label (`test` / `ref`).
    pub scale: String,
    /// Compile-options signature.
    pub opts_sig: u64,
    /// Whether the hand-optimized IR variant was compiled.
    pub hand: bool,
    /// Content signature of the compiled code the capture executes (blocks,
    /// IR, data image). Provenance fields alone cannot distinguish two
    /// *builds*: a compiler change alters the stream without touching
    /// workload/options/format version, and a store shared across builds
    /// (CI caches) must not serve the old build's traces.
    pub code_sig: u64,
    /// Memory image size of the functional run.
    pub mem_size: u64,
    /// Dynamic block budget of the capture.
    pub max_blocks: u64,
}

impl TraceId {
    /// A stable 64-bit key: the hash of every identity field plus
    /// [`TRACE_VERSION`], so a format bump retires every stored file at
    /// once (old keys simply never match again).
    #[must_use]
    pub fn stable_hash(&self) -> u64 {
        self.hash_under(TRACE_VERSION)
    }

    /// The seed of every phase fit over this stream: its key under trace
    /// format 1. A format change stores the same stream, so it moves the
    /// key but neither the seed nor any plan fitted with it.
    #[must_use]
    pub fn fit_seed(&self) -> u64 {
        self.hash_under(1)
    }

    /// The hash of every identity field plus the format `version`.
    fn hash_under(&self, version: u32) -> u64 {
        let mut h = crate::hash::StableHasher::new();
        h.write_str("trips.trace");
        h.write_u64(u64::from(version));
        h.write_str(&self.workload);
        h.write_str(&self.scale);
        h.write_u64(self.opts_sig);
        h.write_u64(u64::from(self.hand));
        h.write_u64(self.code_sig);
        h.write_u64(self.mem_size);
        h.write_u64(self.max_blocks);
        h.finish()
    }

    /// Checks a loaded log's header against this identity: magic, version,
    /// and every provenance field the header records. (`hand` and
    /// `code_sig` are part of [`TraceId::stable_hash`] but not of the
    /// header; differing values live under different keys, which the
    /// store's container format checks instead.)
    ///
    /// # Errors
    /// A description of the first mismatching field.
    pub fn matches_header(&self, h: &TraceHeader) -> Result<(), String> {
        h.check_format()?;
        if h.workload != self.workload {
            return Err(format!(
                "trace is of workload `{}`, wanted `{}`",
                h.workload, self.workload
            ));
        }
        if h.scale != self.scale {
            return Err(format!(
                "trace is at scale `{}`, wanted `{}`",
                h.scale, self.scale
            ));
        }
        if h.opts_sig != self.opts_sig {
            return Err(format!(
                "trace compiled under options {:#x}, wanted {:#x}",
                h.opts_sig, self.opts_sig
            ));
        }
        if h.mem_size != self.mem_size {
            return Err(format!(
                "trace ran in {} bytes of memory, wanted {}",
                h.mem_size, self.mem_size
            ));
        }
        if h.max_blocks != self.max_blocks {
            return Err(format!(
                "trace captured under budget {}, wanted {}",
                h.max_blocks, self.max_blocks
            ));
        }
        Ok(())
    }
}

impl TraceHeader {
    /// Checks the magic number and the format version.
    fn check_format(&self) -> Result<(), String> {
        if self.magic != TRACE_MAGIC {
            return Err(format!(
                "bad trace magic {:#x} (expected {TRACE_MAGIC:#x})",
                self.magic
            ));
        }
        if self.version != TRACE_VERSION {
            return Err(format!(
                "trace version {} unsupported (expected {TRACE_VERSION})",
                self.version
            ));
        }
        Ok(())
    }
}

/// One memory operation of a path: `(fire position, instruction index,
/// access)`.
pub type PathMem = (u32, u8, TraceMem);

/// Every path's memory operations in fire order, flattened: all warming
/// reads of a path besides its exit, and, by their count, how many
/// addresses of [`TraceLog::addrs`] one execution of the path takes.
#[derive(Debug, Clone)]
pub struct MemIndex {
    /// Path `p` owns `mems[starts[p]..starts[p + 1]]`.
    starts: Vec<u32>,
    mems: Vec<PathMem>,
}

impl MemIndex {
    /// The index of `paths` (a log's [`TraceLog::shapes`]).
    #[must_use]
    pub fn new(paths: &[BlockTrace]) -> MemIndex {
        let mut starts = Vec::with_capacity(paths.len() + 1);
        let mut mems = Vec::new();
        starts.push(0);
        for path in paths {
            mems.extend(
                (0u32..)
                    .zip(&path.fired)
                    .filter_map(|(at, ti)| Some((at, ti.idx, ti.mem?))),
            );
            starts.push(mems.len() as u32);
        }
        MemIndex { starts, mems }
    }

    /// The memory operations of path `p`, or `None` past the last path.
    #[inline]
    #[must_use]
    pub fn path(&self, p: u32) -> Option<&[PathMem]> {
        let p = p as usize;
        let (&start, &end) = (self.starts.get(p)?, self.starts.get(p + 1)?);
        Some(&self.mems[start as usize..end as usize])
    }

    /// How many addresses the blocks of `seq` take from the run, or `None`
    /// when one names a path past the last.
    #[must_use]
    pub fn addrs_taken(&self, seq: &[(u32, u32)]) -> Option<usize> {
        let (starts, paths) = (&self.starts, self.starts.len() - 1);
        seq.iter().try_fold(0, |n, &(_, p)| {
            let p = p as usize;
            (p < paths).then(|| n + (starts[p + 1] - starts[p]) as usize)
        })
    }
}

impl TraceLog {
    /// Runs `tp` to completion, recording every dynamic block's path and
    /// addresses.
    ///
    /// # Errors
    /// Any [`TripsExecError`] of the underlying functional run, including
    /// [`TripsExecError::StepLimit`] when `max_blocks` is exhausted.
    pub fn capture(
        tp: &TripsProgram,
        ir: &Program,
        mem_size: usize,
        max_blocks: u64,
        meta: TraceMeta,
    ) -> Result<TraceLog, TripsExecError> {
        // Each block is compared with the few paths it has taken before;
        // a path new to the block is looked up among every path, so ids
        // are assigned in order of first occurrence in the stream.
        let mut taken: Vec<Vec<u32>> = vec![Vec::new(); tp.blocks.len()];
        let mut shapes: Vec<BlockTrace> = Vec::new();
        let mut seq: Vec<(u32, u32)> = Vec::new();
        let mut addrs: Vec<u64> = Vec::new();
        let outcome = run_program_traced(tp, ir, mem_size, max_blocks, |bidx, trace, at| {
            let known = &mut taken[bidx as usize];
            let path = match known.iter().find(|&&p| shapes[p as usize] == *trace) {
                Some(&p) => p,
                None => {
                    let p = shapes.iter().position(|s| s == trace).unwrap_or_else(|| {
                        shapes.push(trace.clone());
                        shapes.len() - 1
                    });
                    let p = u32::try_from(p).expect("fewer than 2^32 paths");
                    known.push(p);
                    p
                }
            };
            seq.push((bidx, path));
            addrs.extend_from_slice(at);
        })?;
        Ok(TraceLog {
            header: TraceHeader {
                magic: TRACE_MAGIC,
                version: TRACE_VERSION,
                workload: meta.workload,
                scale: meta.scale,
                opts_sig: meta.opts_sig,
                mem_size: mem_size as u64,
                max_blocks,
                dynamic_blocks: seq.len() as u64,
                unique_shapes: shapes.len() as u64,
            },
            shapes,
            seq,
            addrs,
            return_value: outcome.return_value,
            stats: outcome.stats,
        })
    }

    /// Checks the header and internal consistency against the program the
    /// log will be replayed on: magic/version, counts, for every distinct
    /// `(block, path)` pairing that the path's instruction, read, write
    /// and exit indices all exist in that block, and that the address run
    /// holds exactly the addresses the stream takes. A log captured from a
    /// different binary cannot drive the timing model out of bounds.
    ///
    /// # Errors
    /// A description of the first mismatch.
    pub fn validate(&self, tp: &TripsProgram) -> Result<(), String> {
        let num_blocks = tp.blocks.len();
        let h = &self.header;
        h.check_format()?;
        if h.dynamic_blocks != self.seq.len() as u64 {
            return Err(format!(
                "header says {} blocks, body has {}",
                h.dynamic_blocks,
                self.seq.len()
            ));
        }
        if h.unique_shapes != self.shapes.len() as u64 {
            return Err(format!(
                "header says {} shapes, body has {}",
                h.unique_shapes,
                self.shapes.len()
            ));
        }
        // Each distinct (block, path) pair is checked once, at its first
        // occurrence. Nearly every path pairs with one block, so the
        // block a path was first checked against is kept densely and
        // only a path's later blocks go through the set.
        let mems = MemIndex::new(&self.shapes);
        let mut taken = 0;
        let mut first_block = vec![UNCHECKED; self.shapes.len()];
        let mut seen: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
        for &(bidx, shape) in &self.seq {
            if bidx as usize >= num_blocks {
                return Err(format!(
                    "trace references block {bidx}, program has {num_blocks}"
                ));
            }
            let Some(path_mems) = mems.path(shape) else {
                return Err(format!(
                    "trace references shape {shape}, log has {}",
                    self.shapes.len()
                ));
            };
            taken += path_mems.len();
            let first = &mut first_block[shape as usize];
            if *first == bidx {
                continue;
            }
            if *first == UNCHECKED {
                *first = bidx;
            } else if !seen.insert((bidx, shape)) {
                continue;
            }
            Self::validate_shape(&self.shapes[shape as usize], &tp.blocks[bidx as usize])
                .map_err(|e| format!("shape {shape} does not fit block {bidx}: {e}"))?;
        }
        if taken != self.addrs.len() {
            return Err(format!(
                "stream takes {taken} addresses, log has {}",
                self.addrs.len()
            ));
        }
        Ok(())
    }

    /// Structural fit of one path against one block.
    fn validate_shape(shape: &BlockTrace, block: &crate::Block) -> Result<(), String> {
        let ninsts = block.insts.len();
        let src_ok = |src: &crate::interp::TraceSrc| match *src {
            crate::interp::TraceSrc::Read(r) => (r as usize) < block.reads.len(),
            crate::interp::TraceSrc::Inst(p) => (p as usize) < ninsts,
        };
        for ti in &shape.fired {
            if ti.idx as usize >= ninsts {
                return Err(format!("fired instruction {} of {ninsts}", ti.idx));
            }
            if let Some(bad) = ti.srcs.iter().find(|s| !src_ok(s)) {
                return Err(format!("operand source {bad:?} out of range"));
            }
        }
        if shape.write_srcs.len() != block.writes.len() {
            return Err(format!(
                "{} write sources for {} writes",
                shape.write_srcs.len(),
                block.writes.len()
            ));
        }
        if let Some(bad) = shape.write_srcs.iter().flatten().find(|s| !src_ok(s)) {
            return Err(format!("write source {bad:?} out of range"));
        }
        if shape.exit as usize >= block.exits.len() {
            return Err(format!("exit {} of {}", shape.exit, block.exits.len()));
        }
        Ok(())
    }

    /// Interning effectiveness: dynamic blocks per stored path (≥ 1).
    pub fn dedup_ratio(&self) -> f64 {
        if self.shapes.is_empty() {
            return 1.0;
        }
        self.seq.len() as f64 / self.shapes.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{inst, inst_imm, BlockBuilder};
    use crate::{ExitTarget, TOpcode, Target, TargetSlot};
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

    /// Two blocks: b0 jumps to b1 a few times via a register counter is more
    /// than this needs — a single constant block suffices to check capture
    /// plumbing end to end.
    fn tiny_program() -> TripsProgram {
        let mut b = BlockBuilder::new("b0");
        let c = b.add_inst(inst_imm(TOpcode::Movi, 40)).unwrap();
        let add = b.add_inst(inst_imm(TOpcode::Addi, 2)).unwrap();
        let w = b.add_write(crate::abi::RV_REG).unwrap();
        b.add_target(
            c,
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
        TripsProgram {
            blocks: vec![b.finish()],
            entry: 0,
        }
    }

    #[test]
    fn capture_matches_direct_execution() {
        let tp = tiny_program();
        let ir = empty_ir();
        let log = TraceLog::capture(&tp, &ir, 1 << 20, u64::MAX, TraceMeta::default()).unwrap();
        assert_eq!(log.return_value, 42);
        assert_eq!(log.seq.len(), 1);
        assert_eq!(log.shapes.len(), 1);
        assert_eq!(log.header.dynamic_blocks, 1);
        log.validate(&tp).unwrap();

        // The stream is block 0 down its one path, which touches no
        // memory.
        let (block, path) = log.seq[0];
        assert_eq!((block, log.shapes[path as usize].exit), (0, 0));
        assert!(log.addrs.is_empty());
    }

    #[test]
    fn validate_rejects_corruption() {
        let tp = tiny_program();
        let log =
            TraceLog::capture(&tp, &empty_ir(), 1 << 20, u64::MAX, TraceMeta::default()).unwrap();

        let mut bad = log.clone();
        bad.header.magic = 0xdead;
        assert!(bad.validate(&tp).is_err());

        let mut bad = log.clone();
        bad.header.version = TRACE_VERSION + 1;
        assert!(bad.validate(&tp).is_err());

        let mut bad = log.clone();
        bad.seq.push((99, 0));
        assert!(bad.validate(&tp).is_err());

        // An address the stream does not take.
        let mut bad = log.clone();
        bad.addrs.push(0);
        assert_eq!(
            bad.validate(&tp),
            Err("stream takes 0 addresses, log has 1".to_string())
        );

        // Out-of-range shape index.
        let mut bad = log;
        bad.seq[0].1 = 7;
        assert!(bad.validate(&tp).is_err());
    }

    /// A block that only returns: no writes, one instruction.
    fn ret_block() -> crate::Block {
        let mut b = BlockBuilder::new("ret");
        let mut ret = inst(TOpcode::Ret);
        ret.exit = Some(0);
        b.add_inst(ret).unwrap();
        b.add_exit(ExitTarget::Ret).unwrap();
        b.finish()
    }

    /// `log` with its stream replaced by `seq` (header kept consistent).
    fn with_seq(log: &TraceLog, seq: &[(u32, u32)]) -> TraceLog {
        let mut log = log.clone();
        log.seq = seq.to_vec();
        log.header.dynamic_blocks = seq.len() as u64;
        log
    }

    #[test]
    fn validate_checks_a_shapes_later_blocks() {
        let mut tp = tiny_program();
        let log =
            TraceLog::capture(&tp, &empty_ir(), 1 << 20, u64::MAX, TraceMeta::default()).unwrap();
        // Block 1 cannot hold block 0's shape (three fired instructions,
        // one write), so pairing the shape with it later in the stream is
        // caught, with the message of the pair's first occurrence.
        tp.blocks.push(ret_block());
        let want = Err("shape 0 does not fit block 1: fired instruction 2 of 1".to_string());
        for seq in [
            &[(0, 0), (1, 0)][..],
            &[(0, 0), (0, 0), (0, 0), (1, 0), (0, 0)],
            &[(1, 0), (0, 0)],
        ] {
            assert_eq!(with_seq(&log, seq).validate(&tp), want, "{seq:?}");
        }
        // A shape shared by two blocks that both fit it is accepted.
        tp.blocks[1] = tp.blocks[0].clone();
        assert_eq!(
            with_seq(&log, &[(0, 0), (1, 0), (1, 0), (0, 0)]).validate(&tp),
            Ok(())
        );
    }

    #[test]
    fn serde_roundtrip_binary_and_json() {
        let tp = tiny_program();
        let log = TraceLog::capture(
            &tp,
            &empty_ir(),
            1 << 20,
            u64::MAX,
            TraceMeta {
                workload: "tiny".into(),
                scale: "test".into(),
                opts_sig: 0xabcd,
            },
        )
        .unwrap();

        let bytes = serde::bin::to_bytes(&log);
        let back: TraceLog = serde::bin::from_bytes(&bytes).unwrap();
        assert_eq!(back, log);

        let text = serde::json::to_string(&log);
        let back: TraceLog = serde::json::from_str(&text).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn trace_id_key_separates_every_field() {
        let base = TraceId {
            workload: "vadd".into(),
            scale: "test".into(),
            opts_sig: 0x1234,
            hand: false,
            code_sig: 0x5678,
            mem_size: 1 << 20,
            max_blocks: 1_000,
        };
        let variants = [
            TraceId {
                workload: "fft".into(),
                ..base.clone()
            },
            TraceId {
                scale: "ref".into(),
                ..base.clone()
            },
            TraceId {
                opts_sig: 0x1235,
                ..base.clone()
            },
            TraceId {
                hand: true,
                ..base.clone()
            },
            TraceId {
                code_sig: 0x5679,
                ..base.clone()
            },
            TraceId {
                mem_size: 1 << 21,
                ..base.clone()
            },
            TraceId {
                max_blocks: 1_001,
                ..base.clone()
            },
        ];
        let mut keys = vec![base.stable_hash()];
        keys.extend(variants.iter().map(TraceId::stable_hash));
        let mut uniq = keys.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), keys.len(), "every field must move the key");
        // And the key is a pure function of the fields.
        assert_eq!(base.stable_hash(), base.clone().stable_hash());
    }

    #[test]
    fn trace_id_checks_headers() {
        let tp = tiny_program();
        let log = TraceLog::capture(
            &tp,
            &empty_ir(),
            1 << 20,
            u64::MAX,
            TraceMeta {
                workload: "tiny".into(),
                scale: "test".into(),
                opts_sig: 0xabcd,
            },
        )
        .unwrap();
        let id = TraceId {
            workload: "tiny".into(),
            scale: "test".into(),
            opts_sig: 0xabcd,
            hand: false,
            code_sig: 0,
            mem_size: 1 << 20,
            max_blocks: u64::MAX,
        };
        id.matches_header(&log.header).unwrap();
        let other = TraceId {
            opts_sig: 0xabce,
            ..id.clone()
        };
        assert!(other.matches_header(&log.header).is_err());
        let mut stale = log.header.clone();
        stale.version = TRACE_VERSION + 1;
        assert!(id.matches_header(&stale).is_err());
    }

    #[test]
    fn budget_exhaustion_propagates() {
        let tp = tiny_program();
        let err = TraceLog::capture(&tp, &empty_ir(), 1 << 20, 0, TraceMeta::default());
        assert!(matches!(err, Err(TripsExecError::StepLimit)));
    }
}
