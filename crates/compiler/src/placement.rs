//! Spatial instruction placement onto the 4×4 execution-tile grid.
//!
//! A greedy list scheduler in the spirit of spatial path scheduling (Coons
//! et al., ASPLOS 2006 — reference \[2\] of the paper): instructions are
//! placed in order of criticality (longest dependence path through them);
//! each is assigned the tile minimizing its estimated operand arrival time,
//! accounting for Manhattan-distance hops on the operand network from its
//! producers (register reads arrive from the register tiles along the top
//! edge, memory values from the data tiles along the left edge).
//!
//! The output drives the cycle-level simulator's operand-network traffic;
//! the paper's Figure 8 hop-count profile is a direct measurement of this
//! pass's quality.

use crate::options::CompileOptions;
use serde::{Deserialize, Serialize};
use trips_isa::block::{Block, Target};
use trips_isa::limits;

/// Execution-tile grid side (4×4 = 16 ETs).
pub const GRID: usize = 4;
/// Reservation-station slots per ET (128 / 16).
pub const SLOTS_PER_ET: usize = limits::MAX_INSTS / (GRID * GRID);

/// Placement policies (the default is SPS-like; the alternatives exist for
/// the `repro ablations` study).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementPolicy {
    /// Criticality-ordered greedy placement minimizing operand arrival time.
    Sps,
    /// Fill tiles in row-major order, ignoring dataflow.
    RowMajor,
    /// Deterministic hash-scatter (a stand-in for random placement).
    Scatter,
}

/// Places a block's instructions with the default (SPS-like) policy.
pub fn place_block(b: &Block, _opts: &CompileOptions) -> Vec<u8> {
    place_block_with(b, PlacementPolicy::Sps)
}

/// A value source feeding a placed instruction.
#[derive(Debug, Clone, Copy)]
enum Producer {
    Read(usize),
    Inst(usize),
}

/// Places a block's instructions with an explicit policy. Returns the ET
/// index (0..16) for each compute instruction.
pub fn place_block_with(b: &Block, policy: PlacementPolicy) -> Vec<u8> {
    let n = b.insts.len();
    match policy {
        PlacementPolicy::RowMajor => {
            return (0..n)
                .map(|i| ((i / SLOTS_PER_ET) % (GRID * GRID)) as u8)
                .collect();
        }
        PlacementPolicy::Scatter => {
            return (0..n)
                .map(|i| ((i.wrapping_mul(2654435761) >> 8) % (GRID * GRID)) as u8)
                .collect();
        }
        PlacementPolicy::Sps => {}
    }

    // Producer lists per instruction operand (from reads and insts).
    let mut producers: Vec<Vec<Producer>> = vec![Vec::new(); n];
    for (ri, r) in b.reads.iter().enumerate() {
        for t in &r.targets {
            if let Target::Inst { idx, .. } = t {
                producers[*idx as usize].push(Producer::Read(ri));
            }
        }
    }
    for (ii, inst) in b.insts.iter().enumerate() {
        for t in &inst.targets {
            if let Target::Inst { idx, .. } = t {
                producers[*idx as usize].push(Producer::Inst(ii));
            }
        }
    }

    // Height (criticality): longest latency path from this instruction to
    // any sink, over the static dataflow graph.
    let mut height = vec![0u32; n];
    // Process in reverse topological order; the graph is acyclic (targets
    // always reference other instructions, and dataflow is a DAG), but
    // indices are not sorted, so iterate to a fixpoint (bounded by depth).
    let mut changed = true;
    let mut iters = 0;
    while changed && iters < n + 2 {
        changed = false;
        iters += 1;
        for i in (0..n).rev() {
            let lat = b.insts[i].op.latency();
            let mut h = lat;
            for t in &b.insts[i].targets {
                if let Target::Inst { idx, .. } = t {
                    h = h.max(lat + height[*idx as usize]);
                }
            }
            if h > height[i] {
                height[i] = h;
                changed = true;
            }
        }
    }

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(height[i]));

    let mut load = [0usize; GRID * GRID];
    let mut place = vec![0u8; n];
    let mut placed = vec![false; n];
    let mut ready = vec![0u32; n];

    for &i in &order {
        let mut best = (u32::MAX, usize::MAX, 0usize);
        for et in 0..GRID * GRID {
            if load[et] >= SLOTS_PER_ET {
                continue;
            }
            let (er, ec) = (et / GRID, et % GRID);
            let mut arrive = 0u32;
            for p in &producers[i] {
                let (t, pr, pc) = match p {
                    // Register tiles sit along the top edge; approximate the
                    // source column by the register bank.
                    Producer::Read(ri) => {
                        let bank = (b.reads[*ri].reg / 32) as usize;
                        (0u32, 0usize, bank)
                    }
                    Producer::Inst(pi) => {
                        if !placed[*pi] {
                            continue;
                        }
                        let pet = place[*pi] as usize;
                        (ready[*pi], pet / GRID + 1, pet % GRID)
                    }
                };
                let dist =
                    (t as i32).max(0) as u32 + ((er + 1).abs_diff(pr) + ec.abs_diff(pc)) as u32;
                arrive = arrive.max(dist);
            }
            // Loads want to be near the data tiles on the left edge.
            if b.insts[i].op.is_load() || b.insts[i].op.is_store() {
                arrive += ec as u32;
            }
            let key = (arrive, load[et], et);
            if key < (best.0, best.1, best.2) {
                best = key;
            }
        }
        let et = best.2.min(GRID * GRID - 1);
        place[i] = et as u8;
        placed[i] = true;
        ready[i] = best.0.saturating_add(b.insts[i].op.latency());
        load[et] += 1;
    }
    place
}

#[cfg(test)]
mod tests {
    use super::*;
    use trips_isa::block::{ExitTarget, TargetSlot};
    use trips_isa::build::{inst, inst_imm, BlockBuilder};
    use trips_isa::TOpcode;

    fn chain_block(len: usize) -> Block {
        let mut b = BlockBuilder::new("chain");
        let mut prev = b.add_inst(inst_imm(TOpcode::Movi, 1)).unwrap();
        for _ in 1..len {
            let n = b.add_inst(inst_imm(TOpcode::Addi, 1)).unwrap();
            b.add_target(
                prev,
                trips_isa::Target::Inst {
                    idx: n,
                    slot: TargetSlot::Op0,
                },
            );
            prev = n;
        }
        let mut r = inst(TOpcode::Ret);
        r.exit = Some(0);
        b.add_inst(r).unwrap();
        b.add_exit(ExitTarget::Ret).unwrap();
        b.finish()
    }

    #[test]
    fn respects_slot_capacity() {
        let mut b = BlockBuilder::new("full");
        for _ in 0..127 {
            b.add_inst(inst_imm(TOpcode::Movi, 0)).unwrap();
        }
        let mut r = inst(TOpcode::Ret);
        r.exit = Some(0);
        b.add_inst(r).unwrap();
        b.add_exit(ExitTarget::Ret).unwrap();
        let blk = b.finish();
        for policy in [PlacementPolicy::Sps, PlacementPolicy::RowMajor] {
            let p = place_block_with(&blk, policy);
            let mut counts = [0usize; 16];
            for &et in &p {
                counts[et as usize] += 1;
            }
            assert!(
                counts.iter().all(|&c| c <= SLOTS_PER_ET),
                "{policy:?}: {counts:?}"
            );
        }
    }

    #[test]
    fn dependent_chain_placed_near_producers() {
        let blk = chain_block(20);
        let p = place_block_with(&blk, PlacementPolicy::Sps);
        // Average hop distance between consecutive chain elements must be
        // small (mostly same or adjacent tile).
        let mut total = 0usize;
        for w in p.windows(2) {
            let (a, b) = (w[0] as usize, w[1] as usize);
            total += (a / 4).abs_diff(b / 4) + (a % 4).abs_diff(b % 4);
        }
        let avg = total as f64 / (p.len() - 1) as f64;
        assert!(avg <= 1.5, "chain scattered too far: avg {avg}");
    }

    #[test]
    fn scatter_differs_from_sps() {
        let blk = chain_block(30);
        let sps = place_block_with(&blk, PlacementPolicy::Sps);
        let sc = place_block_with(&blk, PlacementPolicy::Scatter);
        assert_ne!(sps, sc);
    }
}
