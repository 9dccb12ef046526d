//! Operand network (OPN): a 5×5 wormhole-routed mesh carrying one 64-bit
//! operand per link per cycle (Gratz et al., the paper's reference \[6\]).
//!
//! Nodes: the global tile at (0,0), register tiles along the top row, data
//! tiles down the left column, and the 4×4 execution tiles filling the
//! interior. Packets route X-then-Y with one cycle per hop; each directed
//! link carries one packet per cycle, so concurrent traffic backs up —
//! the contention §7 identifies as the prototype's biggest performance
//! artifact.
//!
//! State is dense: each of the 100 directed links (25 nodes × 4
//! directions, counting the unused off-mesh ones) has a slot in one
//! array holding its claimed cycles as a `ClaimList` (see
//! [`crate::cache`]), and the hop histogram is a fixed array indexed by
//! [`TrafficClass`]. Each hop is one single-cycle claim on its link: one
//! search finds the first free cycle at or after the operand's ready
//! time and marks it taken.

use crate::cache::ClaimList;
use serde::{Deserialize, Serialize};

/// A node on the 5×5 mesh, as (row, col) with `0 ≤ row, col ≤ 4`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Node {
    /// Mesh row.
    pub row: u8,
    /// Mesh column.
    pub col: u8,
}

impl Node {
    /// The global control tile.
    pub const GT: Node = Node { row: 0, col: 0 };

    /// Execution tile `e` (0..16) in the 4×4 interior.
    pub fn et(e: u8) -> Node {
        Node {
            row: 1 + e / 4,
            col: 1 + e % 4,
        }
    }

    /// Register tile for bank `b` (0..4), along the top row.
    pub fn rt(b: u8) -> Node {
        Node { row: 0, col: 1 + b }
    }

    /// Data tile for bank `b` (0..4), down the left column.
    pub fn dt(b: u8) -> Node {
        Node { row: 1 + b, col: 0 }
    }

    /// Manhattan distance in hops.
    pub fn hops(self, other: Node) -> u32 {
        (self.row.abs_diff(other.row) + self.col.abs_diff(other.col)) as u32
    }

    fn on_mesh(self) -> bool {
        self.row < MESH && self.col < MESH
    }
}

/// Mesh side length.
const MESH: u8 = 5;
/// Directed link slots: four outgoing directions per node.
const LINKS: usize = (MESH as usize) * (MESH as usize) * 4;

/// The link slot of the hop `from → to` between adjacent nodes. The
/// directions are numbered north, west, east, south, which orders a
/// node's outgoing links by their destination's (row, col) — so slot
/// order is exactly the (from, to) order snapshots are sorted by.
fn link_id(from: Node, to: Node) -> usize {
    let dir = if to.row < from.row {
        0
    } else if to.col < from.col {
        1
    } else if to.col > from.col {
        2
    } else {
        3
    };
    (usize::from(from.row) * usize::from(MESH) + usize::from(from.col)) * 4 + dir
}

/// Inverse of [`link_id`] for the slots of on-mesh links.
fn link_nodes(id: usize) -> (Node, Node) {
    let node = id / 4;
    let from = Node {
        row: (node / usize::from(MESH)) as u8,
        col: (node % usize::from(MESH)) as u8,
    };
    let to = match id % 4 {
        0 => Node {
            row: from.row.wrapping_sub(1),
            ..from
        },
        1 => Node {
            col: from.col.wrapping_sub(1),
            ..from
        },
        2 => Node {
            col: from.col + 1,
            ..from
        },
        _ => Node {
            row: from.row + 1,
            ..from
        },
    };
    (from, to)
}

/// Traffic classes matching the paper's Figure 8 breakdown; the
/// discriminant indexes [`OpnStats::hist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TrafficClass {
    /// Execution tile to execution tile.
    EtEt,
    /// Execution tile ↔ data tile (loads/stores and replies).
    EtDt,
    /// Execution tile ↔ register tile (reads/writes).
    EtRt,
    /// Execution tile to global tile (branch resolution).
    EtGt,
    /// Data tile to register tile.
    DtRt,
}

impl TrafficClass {
    /// Number of classes.
    pub const COUNT: usize = 5;
}

/// Per-class hop-count histogram (0..=5+ hops).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpnStats {
    /// `hist[class as usize][hops.min(5)]` packet counts.
    pub hist: [[u64; 6]; TrafficClass::COUNT],
    /// Total packets.
    pub packets: u64,
    /// Total hops.
    pub total_hops: u64,
    /// Cycles lost waiting for busy links.
    pub contention_cycles: u64,
}

impl OpnStats {
    /// Adds another run's traffic into this one (the live-point
    /// parallel-replay reduction).
    pub fn absorb(&mut self, o: &OpnStats) {
        for (mine, theirs) in self.hist.iter_mut().zip(&o.hist) {
            for (a, b) in mine.iter_mut().zip(theirs) {
                *a += b;
            }
        }
        self.packets += o.packets;
        self.total_hops += o.total_hops;
        self.contention_cycles += o.contention_cycles;
    }

    /// Average hops per packet.
    pub fn avg_hops(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.total_hops as f64 / self.packets as f64
        }
    }

    /// Fraction of packets of `class` with exactly `hops` hops (5 = "5+").
    pub fn fraction(&self, class: TrafficClass, hops: usize) -> f64 {
        let total: u64 = self.hist.iter().flatten().sum();
        if total == 0 {
            return 0.0;
        }
        self.hist[class as usize][hops.min(5)] as f64 / total as f64
    }
}

/// Serializable image of the mesh's link occupancy: one `(from, to,
/// claimed cycles)` entry per busy directed link, sorted by endpoints with
/// sorted claims, so identical traffic always serializes to identical
/// bytes. Statistics are excluded (live-point snapshots are pure machine
/// state).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpnSnapshot {
    pub(crate) links: Vec<(Node, Node, Vec<u64>)>,
}

/// The mesh with exact per-link, per-cycle occupancy.
///
/// Timestamps arrive out of order (in-flight blocks overlap), so the model
/// keeps an occupancy set per directed link rather than a monotonic
/// next-free cycle: a packet claims the first free cycle ≥ its ready time
/// on each hop.
#[derive(Debug)]
pub struct Opn {
    /// Claimed cycles per directed link, indexed by [`link_id`].
    link_busy: Vec<ClaimList>,
    /// Aggregate statistics.
    pub stats: OpnStats,
}

impl Default for Opn {
    fn default() -> Opn {
        Opn {
            link_busy: vec![ClaimList::default(); LINKS],
            stats: OpnStats::default(),
        }
    }
}

impl Opn {
    /// Creates an idle network.
    pub fn new() -> Opn {
        Opn::default()
    }

    /// Routes one operand from `from` to `to` starting at `t`; returns the
    /// arrival cycle. Local delivery (same node) is a zero-cost bypass.
    pub fn route(&mut self, from: Node, to: Node, t: u64, class: TrafficClass) -> u64 {
        let hops = from.hops(to);
        self.stats.hist[class as usize][(hops as usize).min(5)] += 1;
        self.stats.packets += 1;
        self.stats.total_hops += hops as u64;
        if hops == 0 {
            return t;
        }
        // X-then-Y routing, one cycle per hop, one packet per link-cycle.
        let mut now = t;
        let mut cur = from;
        while cur != to {
            let next = if cur.col != to.col {
                Node {
                    row: cur.row,
                    col: if cur.col < to.col {
                        cur.col + 1
                    } else {
                        cur.col - 1
                    },
                }
            } else {
                Node {
                    col: cur.col,
                    row: if cur.row < to.row {
                        cur.row + 1
                    } else {
                        cur.row - 1
                    },
                }
            };
            let depart = self.link_busy[link_id(cur, next)].claim(now, 1);
            self.stats.contention_cycles += depart - now;
            now = depart + 1;
            cur = next;
        }
        now
    }

    /// Captures the link occupancy for a live-point, keeping only claims
    /// at cycle ≥ `horizon`. Claims far enough in the past can never be
    /// probed again (departure searches start at operand-ready times near
    /// the current clock, and the model's own opportunistic pruning
    /// already discards anything 1024+ cycles stale on hot links), so
    /// dropping them keeps cold links from pinning dead cycles into every
    /// snapshot without perturbing the replay.
    pub fn snapshot(&self, horizon: u64) -> OpnSnapshot {
        let links = self
            .link_busy
            .iter()
            .enumerate()
            .filter_map(|(id, busy)| {
                let v = busy.snapshot(horizon);
                if v.is_empty() {
                    return None;
                }
                let (from, to) = link_nodes(id);
                Some((from, to, v))
            })
            .collect();
        OpnSnapshot { links }
    }

    /// Restores link occupancy captured by [`Opn::snapshot`]; statistics
    /// are left untouched (the caller baselines them).
    ///
    /// # Errors
    /// When a link's endpoints are off the mesh or not adjacent, links are
    /// out of order or repeated, or a link's claims are not strictly
    /// ascending; the network is then left untouched.
    pub fn restore(&mut self, s: &OpnSnapshot) -> Result<(), String> {
        let mut link_busy = vec![ClaimList::default(); LINKS];
        let mut prev = None;
        for (from, to, claims) in &s.links {
            if !from.on_mesh() || !to.on_mesh() || from.hops(*to) != 1 {
                return Err(format!(
                    "snapshot link {from:?} -> {to:?} is not a mesh hop"
                ));
            }
            let id = link_id(*from, *to);
            if prev.is_some_and(|p| p >= id) {
                return Err(format!(
                    "snapshot link {from:?} -> {to:?} is out of order or repeated"
                ));
            }
            prev = Some(id);
            link_busy[id] = ClaimList::from_sorted(claims)?;
        }
        self.link_busy = link_busy;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_positions() {
        assert_eq!(Node::et(0), Node { row: 1, col: 1 });
        assert_eq!(Node::et(15), Node { row: 4, col: 4 });
        assert_eq!(Node::rt(3), Node { row: 0, col: 4 });
        assert_eq!(Node::dt(0), Node { row: 1, col: 0 });
        assert_eq!(Node::GT.hops(Node::et(15)), 8);
    }

    #[test]
    fn zero_hop_bypass_is_free() {
        let mut o = Opn::new();
        let a = Node::et(5);
        assert_eq!(o.route(a, a, 100, TrafficClass::EtEt), 100);
        assert_eq!(o.stats.packets, 1);
        assert_eq!(o.stats.total_hops, 0);
    }

    #[test]
    fn latency_equals_hops_when_idle() {
        let mut o = Opn::new();
        let t = o.route(Node::et(0), Node::et(3), 10, TrafficClass::EtEt);
        assert_eq!(t, 13); // 3 hops east
    }

    #[test]
    fn link_contention_delays_second_packet() {
        let mut o = Opn::new();
        let a = Node::et(0);
        let b = Node::et(1);
        let t1 = o.route(a, b, 10, TrafficClass::EtEt);
        let t2 = o.route(a, b, 10, TrafficClass::EtEt);
        assert_eq!(t1, 11);
        assert_eq!(t2, 12);
        assert_eq!(o.stats.contention_cycles, 1);
    }

    #[test]
    fn out_of_order_claims_do_not_serialize() {
        // Regression: a packet with an *earlier* timestamp than a previously
        // routed packet must not queue behind it (overlapping in-flight
        // blocks route out of order).
        let mut o = Opn::new();
        let a = Node::et(0);
        let b = Node::et(1);
        let late = o.route(a, b, 1000, TrafficClass::EtEt);
        assert_eq!(late, 1001);
        let early = o.route(a, b, 10, TrafficClass::EtEt);
        assert_eq!(early, 11, "early packet must use the free cycle at t=10");
        assert_eq!(o.stats.contention_cycles, 0);
    }

    #[test]
    fn histogram_buckets() {
        let mut o = Opn::new();
        o.route(Node::et(0), Node::et(0), 0, TrafficClass::EtEt);
        o.route(Node::rt(0), Node::et(12), 0, TrafficClass::EtRt);
        assert_eq!(o.stats.hist[TrafficClass::EtEt as usize][0], 1);
        assert_eq!(o.stats.hist[TrafficClass::EtRt as usize][4], 1);
        assert!((o.stats.fraction(TrafficClass::EtEt, 0) - 0.5).abs() < 1e-9);
        assert!(o.stats.avg_hops() > 0.0);
        let mut sum = o.stats.clone();
        sum.absorb(&o.stats);
        assert_eq!(sum.hist[TrafficClass::EtRt as usize][4], 2);
        assert_eq!(sum.packets, 4);
    }

    #[test]
    fn link_slots_follow_snapshot_order() {
        let mut links = vec![];
        for id in 0..LINKS {
            let (from, to) = link_nodes(id);
            if to.on_mesh() {
                assert_eq!(link_id(from, to), id);
                assert_eq!(from.hops(to), 1);
                links.push((from.row, from.col, to.row, to.col));
            }
        }
        assert_eq!(links.len(), 80, "5x5 mesh has 80 directed links");
        assert!(links.windows(2).all(|p| p[0] < p[1]));
    }

    #[test]
    fn snapshot_round_trips_and_rejects_malformed_links() {
        let mut o = Opn::new();
        o.route(Node::GT, Node::et(15), 5, TrafficClass::EtGt);
        o.route(Node::et(15), Node::GT, 5, TrafficClass::EtGt);
        let snap = o.snapshot(0);
        assert_eq!(snap.links.len(), 16);
        let mut back = Opn::new();
        back.restore(&snap).unwrap();
        assert_eq!(back.snapshot(0), snap);
        let far = Node { row: 0, col: 2 };
        let off = Node { row: 5, col: 0 };
        for bad in [
            vec![(Node::GT, far, vec![1])],
            vec![(Node::dt(3), off, vec![1])],
            vec![(Node::GT, Node::rt(0), vec![2, 1])],
            vec![(Node::GT, Node::rt(0), vec![1, 1])],
            vec![(Node::GT, Node::rt(0), vec![1]); 2],
        ] {
            assert!(back.restore(&OpnSnapshot { links: bad }).is_err());
        }
    }
}
