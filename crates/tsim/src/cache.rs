//! Set-associative LRU cache tag arrays and bank-occupancy tracking.
//!
//! Both structures are dense. A [`Cache`] keeps its tags in one flat
//! `sets × ways` array, so building or restoring one is a single
//! allocation and copy. Occupancy — here per bank, and per mesh link in
//! [`crate::opn`] — is a `ClaimList`: a sorted list of 64-cycle bitmap
//! words, probed by binary search and bit scans instead of hashing.

use serde::{Deserialize, Serialize};

/// Serializable image of a [`Cache`]'s replacement state: tag arrays and
/// the LRU stamp. The accounting counters (`accesses`, `misses`) are *not*
/// captured — a restored replay baselines them itself, so live-point
/// snapshots stay pure machine state.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheSnapshot {
    /// `tags[set]` = (tag, last-use stamp) per way.
    pub(crate) tags: Vec<Vec<(u64, u64)>>,
    stamp: u64,
}

/// Serializable image of a [`BankPorts`]' claimed-cycle sets, with each
/// bank's claims sorted so identical occupancy always serializes to
/// identical bytes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BankPortsSnapshot {
    /// Per bank, its claimed cycles in ascending order.
    pub(crate) busy: Vec<Vec<u64>>,
}

/// A set-associative cache model (tags only; data values live in the
/// functional memory).
#[derive(Debug, Clone)]
pub struct Cache {
    sets: usize,
    ways: usize,
    line: usize,
    /// Set `s` owns `tags[s * ways..(s + 1) * ways]`, one (tag, last-use
    /// stamp) per way; empty ways hold `u64::MAX`.
    tags: Vec<(u64, u64)>,
    stamp: u64,
    /// Accesses and misses.
    pub accesses: u64,
    /// Misses.
    pub misses: u64,
}

impl Cache {
    /// Creates a cache of `bytes` capacity with `ways` associativity and
    /// `line`-byte lines. Degenerate geometries (capacity smaller than one
    /// set of lines) are clamped to a single set rather than rejected, so
    /// sweep configurations can shrink caches arbitrarily far.
    pub fn new(bytes: usize, ways: usize, line: usize) -> Cache {
        let sets = (bytes / line / ways).max(1);
        Cache {
            sets,
            ways,
            line,
            tags: vec![(u64::MAX, 0); sets * ways],
            stamp: 0,
            accesses: 0,
            misses: 0,
        }
    }

    /// Accesses `addr`; returns true on hit, filling on miss (allocate on
    /// read and write, write-back ignored — bandwidth is modelled at the
    /// consumer).
    pub fn access(&mut self, addr: u64) -> bool {
        self.stamp += 1;
        self.accesses += 1;
        let lineno = addr / self.line as u64;
        let set = (lineno % self.sets as u64) as usize;
        let tag = lineno / self.sets as u64;
        let ways = &mut self.tags[set * self.ways..(set + 1) * self.ways];
        for way in ways.iter_mut() {
            if way.0 == tag {
                way.1 = self.stamp;
                return true;
            }
        }
        self.misses += 1;
        // Evict LRU.
        let victim = ways
            .iter()
            .enumerate()
            .min_by_key(|(_, w)| w.1)
            .map(|(i, _)| i)
            .unwrap_or(0);
        ways[victim] = (tag, self.stamp);
        false
    }

    /// Captures the replacement state (tags + stamp) for a live-point.
    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            tags: self.tags.chunks(self.ways).map(<[_]>::to_vec).collect(),
            stamp: self.stamp,
        }
    }

    /// Restores replacement state captured by [`Cache::snapshot`].
    ///
    /// # Errors
    /// When the snapshot's geometry (sets × ways) differs from this
    /// cache's; the cache is then left untouched.
    pub fn restore(&mut self, s: &CacheSnapshot) -> Result<(), String> {
        if s.tags.len() != self.sets {
            return Err(format!(
                "cache snapshot has {} sets, cache has {}",
                s.tags.len(),
                self.sets
            ));
        }
        if let Some(set) = s.tags.iter().find(|set| set.len() != self.ways) {
            return Err(format!(
                "cache snapshot set has {} ways, cache has {}",
                set.len(),
                self.ways
            ));
        }
        for (dst, src) in self.tags.chunks_mut(self.ways).zip(&s.tags) {
            dst.copy_from_slice(src);
        }
        self.stamp = s.stamp;
        Ok(())
    }

    /// Miss ratio so far.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// A [`ClaimList`] holding more claims than this prunes itself (see
/// [`ClaimList::claim`]).
const PRUNE_ABOVE: usize = 2048;
/// How far behind the claim that triggered a prune claims survive it.
const PRUNE_KEEP: u64 = 1024;

/// One 64-cycle word of a [`ClaimList`]: bit `i` claims cycle
/// `64 * base + i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ClaimWord {
    base: u64,
    bits: u64,
}

/// The exact set of cycles a single-ported resource (a data bank, a DRAM
/// channel, one directed mesh link) has been claimed for.
///
/// Requests arrive with out-of-order timestamps (in-flight blocks
/// overlap), so a resource keeps every claim rather than a monotonic
/// next-free-cycle counter. Claims are stored as 64-cycle bitmap words,
/// sorted by cycle with no empty words. The list is unbounded in cycle
/// span: a cold resource keeps claims arbitrarily far behind the clock
/// until a prune drops them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct ClaimList {
    words: Vec<ClaimWord>,
    /// Number of claimed cycles.
    len: usize,
}

impl ClaimList {
    /// Index of the first word whose base is at least `base`. Requests
    /// land near the newest claims, so the search gallops backwards from
    /// the end before bisecting.
    fn locate(&self, base: u64) -> usize {
        let words = &self.words;
        // Every word at or after `hi` has a base ≥ `base`.
        let mut hi = words.len();
        let mut step = 1;
        while hi > 0 {
            let probe = hi.saturating_sub(step);
            if words[probe].base < base {
                return probe + 1 + words[probe + 1..hi].partition_point(|w| w.base < base);
            }
            hi = probe;
            step *= 2;
        }
        0
    }

    /// The first `start ≥ t` with cycles `start..start + n` all free.
    pub(crate) fn first_free(&self, t: u64, n: u64) -> u64 {
        let mut start = t;
        let mut i = self.locate(start >> 6);
        while let Some(w) = self.words.get(i) {
            let lo = w.base << 6;
            let end = start + n;
            if lo >= end {
                break;
            }
            // The claims of this word inside [start, end).
            let mut bits = w.bits;
            if start > lo {
                bits &= !0 << (start - lo);
            }
            if end - lo < 64 {
                bits &= (1 << (end - lo)) - 1;
            }
            if bits == 0 {
                i += 1;
            } else {
                start = lo + u64::from(bits.trailing_zeros()) + 1;
                if start - lo == 64 {
                    i += 1;
                }
            }
        }
        start
    }

    /// Claims the first run of `n` free cycles starting at or after `t`
    /// and returns its start. Once more than 2048 cycles are claimed, the
    /// claims more than 1024 cycles behind that start are dropped, which
    /// bounds the list of a busy resource.
    pub(crate) fn claim(&mut self, t: u64, n: u64) -> u64 {
        let start = self.first_free(t, n);
        for c in start..start + n {
            self.insert(c);
        }
        if self.len > PRUNE_ABOVE {
            self.retain_from(start.saturating_sub(PRUNE_KEEP));
        }
        start
    }

    /// Marks the free cycle `c` claimed.
    fn insert(&mut self, c: u64) {
        let (base, bit) = (c >> 6, 1u64 << (c & 63));
        let i = self.locate(base);
        match self.words.get_mut(i) {
            Some(w) if w.base == base => w.bits |= bit,
            _ => self.words.insert(i, ClaimWord { base, bits: bit }),
        }
        self.len += 1;
    }

    /// Drops every claim below `horizon`.
    fn retain_from(&mut self, horizon: u64) {
        let cut = self.words.partition_point(|w| w.base < horizon >> 6);
        let mut dropped: usize = self
            .words
            .drain(..cut)
            .map(|w| w.bits.count_ones() as usize)
            .sum();
        if let Some(w) = self.words.first_mut().filter(|w| w.base == horizon >> 6) {
            let kept = w.bits & (!0 << (horizon & 63));
            dropped += (w.bits ^ kept).count_ones() as usize;
            w.bits = kept;
            if kept == 0 {
                self.words.remove(0);
            }
        }
        self.len -= dropped;
    }

    /// The claimed cycles at or after `horizon`, in ascending order.
    pub(crate) fn snapshot(&self, horizon: u64) -> Vec<u64> {
        let from = self.words.partition_point(|w| w.base < horizon >> 6);
        let mut out = Vec::new();
        for w in &self.words[from..] {
            let mut bits = w.bits;
            while bits != 0 {
                let c = (w.base << 6) | u64::from(bits.trailing_zeros());
                if c >= horizon {
                    out.push(c);
                }
                bits &= bits - 1;
            }
        }
        out
    }

    /// Rebuilds a list from claims in strictly ascending order, the shape
    /// [`ClaimList::snapshot`] produces.
    ///
    /// # Errors
    /// When the claims are unsorted or repeat a cycle.
    pub(crate) fn from_sorted(claims: &[u64]) -> Result<ClaimList, String> {
        let mut words: Vec<ClaimWord> = Vec::new();
        let mut prev = None;
        for &c in claims {
            if let Some(p) = prev.filter(|&p| p >= c) {
                return Err(format!(
                    "claimed cycles not strictly ascending ({p} then {c})"
                ));
            }
            prev = Some(c);
            let (base, bit) = (c >> 6, 1u64 << (c & 63));
            match words.last_mut() {
                Some(w) if w.base == base => w.bits |= bit,
                _ => words.push(ClaimWord { base, bits: bit }),
            }
        }
        Ok(ClaimList {
            words,
            len: claims.len(),
        })
    }
}

/// Tracks single-ported bank occupancy with exact per-cycle claims, one
/// `ClaimList` per bank.
#[derive(Debug, Clone, Default)]
pub struct BankPorts {
    busy: Vec<ClaimList>,
    /// Total accesses routed through the banks.
    pub accesses: u64,
    /// Cycles lost to bank conflicts.
    pub conflict_cycles: u64,
}

impl BankPorts {
    /// `n` banks, all free at cycle 0.
    pub fn new(n: usize) -> BankPorts {
        BankPorts {
            busy: vec![ClaimList::default(); n],
            accesses: 0,
            conflict_cycles: 0,
        }
    }

    /// Reserves `bank` starting at the first free slot ≥ `t`, claiming
    /// `busy` consecutive cycles; returns the actual start time.
    pub fn reserve(&mut self, bank: usize, t: u64, busy: u64) -> u64 {
        self.accesses += 1;
        let start = self.busy[bank].claim(t, busy);
        self.conflict_cycles += start - t;
        start
    }

    /// Captures the claimed-cycle occupancy (counters excluded; see
    /// [`CacheSnapshot`]), keeping only claims at cycle ≥ `horizon` —
    /// reservation searches start at request times near the current clock,
    /// so claims far enough behind it can never be probed again and would
    /// only bloat the snapshot (see [`crate::opn::Opn::snapshot`]).
    pub fn snapshot(&self, horizon: u64) -> BankPortsSnapshot {
        BankPortsSnapshot {
            busy: self.busy.iter().map(|b| b.snapshot(horizon)).collect(),
        }
    }

    /// Restores occupancy captured by [`BankPorts::snapshot`].
    ///
    /// # Errors
    /// When the bank count differs or a bank's claims are not strictly
    /// ascending; the banks are then left untouched.
    pub fn restore(&mut self, s: &BankPortsSnapshot) -> Result<(), String> {
        if s.busy.len() != self.busy.len() {
            return Err(format!(
                "bank snapshot has {} banks, model has {}",
                s.busy.len(),
                self.busy.len()
            ));
        }
        self.busy = s
            .busy
            .iter()
            .map(|claims| ClaimList::from_sorted(claims))
            .collect::<Result<_, _>>()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn hits_after_fill() {
        let mut c = Cache::new(1024, 2, 64);
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(63));
        assert!(!c.access(64));
        assert_eq!(c.misses, 2);
        assert_eq!(c.accesses, 4);
    }

    #[test]
    fn lru_eviction() {
        // 2 ways, 1 set of 2 lines: third distinct line evicts the LRU.
        let mut c = Cache::new(128, 2, 64);
        assert!(!c.access(0)); // line A
        assert!(!c.access(64)); // line B  (set count = 1)
        assert!(c.access(0)); // A hits, refreshes
        assert!(!c.access(64 * 2)); // C evicts B
        assert!(c.access(0)); // A still resident
        assert!(!c.access(64)); // B was evicted
    }

    #[test]
    fn bank_conflicts_serialize() {
        let mut b = BankPorts::new(2);
        assert_eq!(b.reserve(0, 10, 3), 10);
        assert_eq!(b.reserve(0, 10, 3), 13); // conflict: pushed back
        assert_eq!(b.reserve(1, 10, 3), 10); // other bank free
        assert_eq!(b.conflict_cycles, 3);
    }

    #[test]
    fn out_of_order_reservations_fill_gaps() {
        // Regression: a request with an earlier timestamp uses the earlier
        // free slot instead of queueing behind a later reservation.
        let mut b = BankPorts::new(1);
        assert_eq!(b.reserve(0, 1000, 1), 1000);
        assert_eq!(b.reserve(0, 10, 1), 10);
        assert_eq!(b.conflict_cycles, 0);
        // And an exact collision still serializes.
        assert_eq!(b.reserve(0, 10, 1), 11);
        assert_eq!(b.conflict_cycles, 1);
    }

    #[test]
    fn degenerate_geometry_clamps_to_one_set() {
        // Capacity below one set's worth of lines: still a working
        // (1-set, fully associative) cache instead of a panic or a
        // zero-set division.
        let mut c = Cache::new(64, 4, 64);
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(!c.access(64));
        assert!(
            c.access(64) && c.access(0),
            "both lines fit the 4 ways of the single set"
        );
        // Zero-byte capacity is likewise clamped.
        let mut z = Cache::new(0, 2, 64);
        assert!(!z.access(0));
        assert!(z.access(0));
    }

    #[test]
    fn miss_rate_math() {
        let mut c = Cache::new(1024, 2, 64);
        c.access(0);
        c.access(0);
        assert!((c.miss_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn snapshot_round_trips_and_rejects_foreign_geometry() {
        let mut c = Cache::new(1024, 2, 64);
        for a in [0, 64, 640, 64 * 9, 0] {
            c.access(a);
        }
        let snap = c.snapshot();
        assert_eq!(snap.tags.len(), 8);
        let mut back = Cache::new(1024, 2, 64);
        back.restore(&snap).unwrap();
        assert_eq!(back.snapshot(), snap);
        assert!(Cache::new(2048, 2, 64).restore(&snap).is_err(), "set count");
        assert!(Cache::new(1024, 4, 32).restore(&snap).is_err(), "way count");
    }

    /// The claimed-cycle set as it was before the bitmap representation:
    /// probe forward, claim, and past 2048 claims drop those more than
    /// 1024 cycles behind the claim's start. The reference model for
    /// [`ClaimList`].
    #[derive(Default)]
    struct ClaimModel(BTreeSet<u64>);

    impl ClaimModel {
        fn first_free(&self, t: u64, n: u64) -> u64 {
            let mut start = t;
            'search: loop {
                for k in 0..n {
                    if self.0.contains(&(start + k)) {
                        start += k + 1;
                        continue 'search;
                    }
                }
                return start;
            }
        }

        fn claim(&mut self, t: u64, n: u64) -> u64 {
            let start = self.first_free(t, n);
            self.0.extend(start..start + n);
            if self.0.len() > 2048 {
                let horizon = start.saturating_sub(1024);
                self.0.retain(|&c| c >= horizon);
            }
            start
        }

        fn snapshot(&self, horizon: u64) -> Vec<u64> {
            self.0.range(horizon..).copied().collect()
        }
    }

    /// Drives both claim sets through the same requests: `kind` 0 claims
    /// near the clock (contention), 1 far behind it, 2 ahead of it, and 3
    /// advances the clock; `n` cycles per claim (0 and multi-cycle runs
    /// included). Returns how often the reference set shrank (pruned).
    fn drive(
        list: &mut ClaimList,
        model: &mut ClaimModel,
        clock: &mut u64,
        ops: &[(u64, u64, u64)],
    ) -> Result<u32, TestCaseError> {
        let mut prunes = 0;
        for &(kind, off, n) in ops {
            let t = match kind {
                0 => *clock + off % 8,
                1 => clock.saturating_sub(off),
                2 => *clock + off,
                _ => {
                    *clock += off % 64;
                    continue;
                }
            };
            prop_assert_eq!(list.first_free(t, n), model.first_free(t, n));
            let before = model.0.len();
            prop_assert_eq!(list.claim(t, n), model.claim(t, n), "claim({}, {})", t, n);
            prop_assert_eq!(list.len, model.0.len());
            if model.0.len() < before {
                prunes += 1;
            }
        }
        Ok(prunes)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn claim_list_matches_the_reference_set(
            ops in prop::collection::vec((0u64..4, 0u64..1 << 14, 0u64..5), 3000..6000),
            more in prop::collection::vec((0u64..4, 0u64..1 << 14, 0u64..5), 200..800),
            back in 0u64..3000,
        ) {
            let mut list = ClaimList::default();
            let mut model = ClaimModel::default();
            let mut clock = 1 << 20;
            let prunes = drive(&mut list, &mut model, &mut clock, &ops)?;
            prop_assert!(prunes > 0, "{} ops never crossed the prune", ops.len());
            // Horizon-filtered snapshots agree, and restoring one rebuilds
            // a list that snapshots identically and keeps agreeing.
            for horizon in [0, clock.saturating_sub(back), clock, u64::MAX] {
                let snap = list.snapshot(horizon);
                prop_assert_eq!(&snap, &model.snapshot(horizon));
                let back = ClaimList::from_sorted(&snap).unwrap();
                prop_assert_eq!(back.len, snap.len());
                prop_assert_eq!(back.snapshot(0), snap);
            }
            let horizon = clock.saturating_sub(back);
            let mut list = ClaimList::from_sorted(&list.snapshot(horizon)).unwrap();
            let mut model = ClaimModel(model.0.range(horizon..).copied().collect());
            drive(&mut list, &mut model, &mut clock, &more)?;
            prop_assert_eq!(list.snapshot(0), model.snapshot(0));
        }
    }

    #[test]
    fn claim_lists_reject_unsorted_or_duplicate_claims() {
        assert_eq!(ClaimList::from_sorted(&[]).unwrap().len, 0);
        assert_eq!(ClaimList::from_sorted(&[3, 64, 65, 900]).unwrap().len, 4);
        assert!(ClaimList::from_sorted(&[5, 4]).is_err());
        assert!(ClaimList::from_sorted(&[5, 5]).is_err());
        let mut b = BankPorts::new(2);
        let good = BankPortsSnapshot {
            busy: vec![vec![1, 2], vec![]],
        };
        b.restore(&good).unwrap();
        assert_eq!(b.snapshot(0), good);
        let unsorted = BankPortsSnapshot {
            busy: vec![vec![2, 1], vec![]],
        };
        assert!(b.restore(&unsorted).is_err());
        assert!(BankPorts::new(3).restore(&good).is_err(), "bank count");
    }
}
