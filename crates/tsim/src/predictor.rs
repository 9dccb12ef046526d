//! Next-block prediction (§5.1, Figure 7) and store-load dependence
//! prediction.
//!
//! The TRIPS next-block predictor has two halves:
//! * an **exit predictor** — a local/global tournament that guesses which of
//!   the block's (up to eight) exit branches will fire, and
//! * a **target predictor** — BTB plus call/return stack resolving that exit
//!   to the next block address.
//!
//! A conventional Alpha-21264-style taken/not-taken tournament predictor is
//! also provided; Figure 7's `A` bars run it over basic-block branch
//! streams.

use serde::{Deserialize, Serialize};

fn mix(block: u32, hist: u32) -> u32 {
    (block.wrapping_mul(0x9e37_79b9) >> 8) ^ hist
}

/// Serializable image of a [`NextBlockPredictor`]'s learned state: every
/// table of both components plus the histories and the return-address
/// stack. Masks and depth limits are geometry (reconstructed from the
/// config at restore), and [`PredictorStats`] is accounting — neither is
/// captured, keeping live-point snapshots pure machine state.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PredictorSnapshot {
    pub(crate) lht: Vec<u16>,
    pub(crate) lpt: Vec<(u8, u8)>,
    pub(crate) gpt: Vec<(u8, u8)>,
    pub(crate) chooser: Vec<u8>,
    ghr: u32,
    pub(crate) btb: Vec<Option<(u64, u32)>>,
    pub(crate) ras: Vec<u32>,
}

/// Serializable image of a [`LoadWaitTable`]'s learned wait bits
/// (`violations` is accounting and excluded).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoadWaitSnapshot {
    pub(crate) bits: Vec<bool>,
}

/// Local/global tournament exit predictor.
#[derive(Debug, Clone)]
pub struct ExitPredictor {
    mask: usize,
    lht: Vec<u16>,
    lpt: Vec<(u8, u8)>, // (exit, 2-bit confidence)
    gpt: Vec<(u8, u8)>,
    chooser: Vec<u8>, // 2-bit: ≥2 prefers global
    ghr: u32,
}

impl ExitPredictor {
    /// `entries` must be a power of two (table size of each component).
    pub fn new(entries: usize) -> ExitPredictor {
        assert!(entries.is_power_of_two());
        ExitPredictor {
            mask: entries - 1,
            lht: vec![0; entries],
            lpt: vec![(0, 0); entries],
            gpt: vec![(0, 0); entries],
            chooser: vec![1; entries],
            ghr: 0,
        }
    }

    fn indices(&self, block: u32) -> (usize, usize, usize) {
        let li = block as usize & self.mask;
        let lh = self.lht[li] as u32;
        let lpi = mix(block, lh) as usize & self.mask;
        let gpi = mix(block, self.ghr) as usize & self.mask;
        (li, lpi, gpi)
    }

    /// Predicts the exit index for `block`.
    pub fn predict(&self, block: u32) -> u8 {
        let (li, lpi, gpi) = self.indices(block);
        let _ = li;
        if self.chooser[block as usize & self.mask] >= 2 {
            self.gpt[gpi].0
        } else {
            self.lpt[lpi].0
        }
    }

    /// Trains on the actual exit.
    pub fn update(&mut self, block: u32, actual: u8) {
        let (li, lpi, gpi) = self.indices(block);
        let lp = self.lpt[lpi];
        let gp = self.gpt[gpi];
        let lcorrect = lp.0 == actual;
        let gcorrect = gp.0 == actual;
        let ch = &mut self.chooser[block as usize & self.mask];
        if gcorrect && !lcorrect {
            *ch = (*ch + 1).min(3);
        } else if lcorrect && !gcorrect {
            *ch = ch.saturating_sub(1);
        }
        // Hysteresis: decrement confidence before replacing.
        let train = |e: &mut (u8, u8)| {
            if e.0 == actual {
                e.1 = (e.1 + 1).min(3);
            } else if e.1 > 0 {
                e.1 -= 1;
            } else {
                *e = (actual, 1);
            }
        };
        train(&mut self.lpt[lpi]);
        train(&mut self.gpt[gpi]);
        self.lht[li] = (self.lht[li] << 3 | actual as u16) & 0x3ff;
        self.ghr = (self.ghr << 3 | actual as u32) & 0xffff;
    }
}

/// BTB + call/return stack target predictor.
#[derive(Debug, Clone)]
pub struct TargetPredictor {
    btb: Vec<Option<(u64, u32)>>, // (key, target)
    mask: usize,
    ras: Vec<u32>,
    ras_depth: usize,
}

/// What kind of control transfer an exit is (drives target resolution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExitKind {
    /// Direct jump to a block.
    Jump,
    /// Function call (pushes the continuation).
    Call,
    /// Return (pops the stack).
    Ret,
}

impl TargetPredictor {
    /// `entries` must be a power of two.
    pub fn new(entries: usize, ras_depth: usize) -> TargetPredictor {
        assert!(entries.is_power_of_two());
        TargetPredictor {
            btb: vec![None; entries],
            mask: entries - 1,
            ras: Vec::new(),
            ras_depth,
        }
    }

    fn key(block: u32, exit: u8) -> u64 {
        (block as u64) << 3 | exit as u64
    }

    /// Predicts the next block for `(block, exit)`. Returns `None` on a BTB
    /// miss (the fetch unit stalls until decode in that case).
    pub fn predict(&mut self, block: u32, exit: u8, kind_hint: Option<ExitKind>) -> Option<u32> {
        if kind_hint == Some(ExitKind::Ret) {
            return self.ras.last().copied();
        }
        let k = Self::key(block, exit);
        self.btb[k as usize & self.mask].and_then(|(tag, t)| (tag == k).then_some(t))
    }

    /// Trains with the actual transfer: installs the BTB entry and maintains
    /// the call/return stack.
    pub fn update(
        &mut self,
        block: u32,
        exit: u8,
        kind: ExitKind,
        actual_target: Option<u32>,
        cont: Option<u32>,
    ) {
        match kind {
            ExitKind::Ret => {
                self.ras.pop();
            }
            ExitKind::Call => {
                if let Some(c) = cont {
                    if self.ras.len() == self.ras_depth {
                        self.ras.remove(0); // overflow loses the oldest entry
                    }
                    self.ras.push(c);
                }
                if let Some(t) = actual_target {
                    let k = Self::key(block, exit);
                    self.btb[k as usize & self.mask] = Some((k, t));
                }
            }
            ExitKind::Jump => {
                if let Some(t) = actual_target {
                    let k = Self::key(block, exit);
                    self.btb[k as usize & self.mask] = Some((k, t));
                }
            }
        }
    }
}

/// Combined next-block predictor with accounting.
#[derive(Debug, Clone)]
pub struct NextBlockPredictor {
    /// Exit component.
    pub exits: ExitPredictor,
    /// Target component.
    pub targets: TargetPredictor,
    /// Statistics.
    pub stats: PredictorStats,
}

/// Prediction accounting (Figure 7, Table 3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PredictorStats {
    /// Predictions made.
    pub predictions: u64,
    /// Wrong exit chosen.
    pub exit_mispredicts: u64,
    /// Right exit, wrong target (BTB/RAS misses and aliasing).
    pub target_mispredicts: u64,
    /// Mispredictions on call or return transfers (Table 3's call/ret
    /// column).
    pub callret_mispredicts: u64,
    /// Mispredictions on conditional-exit transfers.
    pub branch_mispredicts: u64,
}

impl PredictorStats {
    /// Adds another run's counters into this one (the live-point
    /// parallel-replay reduction).
    pub fn absorb(&mut self, o: &PredictorStats) {
        self.predictions += o.predictions;
        self.exit_mispredicts += o.exit_mispredicts;
        self.target_mispredicts += o.target_mispredicts;
        self.callret_mispredicts += o.callret_mispredicts;
        self.branch_mispredicts += o.branch_mispredicts;
    }

    /// Total mispredictions.
    pub fn mispredicts(&self) -> u64 {
        self.exit_mispredicts + self.target_mispredicts
    }

    /// Mispredictions per 1000 of `insts`.
    pub fn mpki(&self, insts: u64) -> f64 {
        if insts == 0 {
            0.0
        } else {
            self.mispredicts() as f64 * 1000.0 / insts as f64
        }
    }
}

impl NextBlockPredictor {
    /// Builds from table sizes (see [`crate::TripsConfig`]).
    pub fn new(exit_entries: usize, btb_entries: usize, ras_depth: usize) -> NextBlockPredictor {
        NextBlockPredictor {
            exits: ExitPredictor::new(exit_entries.next_power_of_two()),
            targets: TargetPredictor::new(btb_entries.next_power_of_two(), ras_depth),
            stats: PredictorStats::default(),
        }
    }

    /// Predicts the next block, then trains on the actual outcome. Returns
    /// `(predicted_block, correct)`.
    #[allow(clippy::too_many_arguments)]
    pub fn predict_and_update(
        &mut self,
        block: u32,
        actual_exit: u8,
        kind: ExitKind,
        actual_target: u32,
        cont: Option<u32>,
        multi_exit: bool,
    ) -> (Option<u32>, bool) {
        self.stats.predictions += 1;
        let pexit = if multi_exit {
            self.exits.predict(block)
        } else {
            actual_exit
        };
        let exit_right = pexit == actual_exit;
        // Target prediction uses the *predicted* exit; a kind hint is only
        // available when the exit is right (decode provides it).
        let ptarget = if exit_right {
            self.targets.predict(block, pexit, Some(kind))
        } else {
            self.targets.predict(block, pexit, None)
        };
        let correct = exit_right && ptarget == Some(actual_target);
        if !exit_right {
            self.stats.exit_mispredicts += 1;
        } else if ptarget != Some(actual_target) {
            self.stats.target_mispredicts += 1;
        }
        if !correct {
            if matches!(kind, ExitKind::Call | ExitKind::Ret) {
                self.stats.callret_mispredicts += 1;
            } else {
                self.stats.branch_mispredicts += 1;
            }
        }
        if multi_exit {
            self.exits.update(block, actual_exit);
        }
        self.targets
            .update(block, actual_exit, kind, Some(actual_target), cont);
        (ptarget, correct)
    }

    /// Captures the learned tables for a live-point (statistics excluded).
    pub fn snapshot(&self) -> PredictorSnapshot {
        PredictorSnapshot {
            lht: self.exits.lht.clone(),
            lpt: self.exits.lpt.clone(),
            gpt: self.exits.gpt.clone(),
            chooser: self.exits.chooser.clone(),
            ghr: self.exits.ghr,
            btb: self.targets.btb.clone(),
            ras: self.targets.ras.clone(),
        }
    }

    /// Restores state captured by [`NextBlockPredictor::snapshot`];
    /// `stats` is left untouched for the caller to baseline.
    ///
    /// # Errors
    /// When a table's size differs from this predictor's or the return
    /// stack is deeper than its limit (the live-point key's config
    /// signature normally rules both out); nothing is restored then.
    pub fn restore(&mut self, s: &PredictorSnapshot) -> Result<(), String> {
        let entries = self.exits.lht.len();
        for (name, len) in [
            ("local history", s.lht.len()),
            ("local pattern", s.lpt.len()),
            ("global pattern", s.gpt.len()),
            ("chooser", s.chooser.len()),
        ] {
            if len != entries {
                return Err(format!(
                    "predictor snapshot {name} table has {len} entries, predictor has {entries}"
                ));
            }
        }
        if s.btb.len() != self.targets.btb.len() {
            return Err(format!(
                "predictor snapshot BTB has {} entries, predictor has {}",
                s.btb.len(),
                self.targets.btb.len()
            ));
        }
        if s.ras.len() > self.targets.ras_depth {
            return Err(format!(
                "predictor snapshot return stack holds {} entries, depth is {}",
                s.ras.len(),
                self.targets.ras_depth
            ));
        }
        self.exits.lht.clone_from(&s.lht);
        self.exits.lpt.clone_from(&s.lpt);
        self.exits.gpt.clone_from(&s.gpt);
        self.exits.chooser.clone_from(&s.chooser);
        self.exits.ghr = s.ghr;
        self.targets.btb.clone_from(&s.btb);
        self.targets.ras.clone_from(&s.ras);
        Ok(())
    }
}

/// Alpha-21264-style taken/not-taken tournament predictor for conventional
/// basic-block branch streams (Figure 7's `A` configuration).
#[derive(Debug, Clone)]
pub struct TournamentBranchPredictor {
    mask: usize,
    lht: Vec<u16>,
    lpt: Vec<u8>, // 2-bit counters
    gpt: Vec<u8>,
    chooser: Vec<u8>,
    ghr: u32,
    /// Predictions made.
    pub predictions: u64,
    /// Mispredictions.
    pub mispredicts: u64,
}

impl TournamentBranchPredictor {
    /// `entries` must be a power of two.
    pub fn new(entries: usize) -> TournamentBranchPredictor {
        assert!(entries.is_power_of_two());
        TournamentBranchPredictor {
            mask: entries - 1,
            lht: vec![0; entries],
            lpt: vec![1; entries],
            gpt: vec![1; entries],
            chooser: vec![1; entries],
            ghr: 0,
            predictions: 0,
            mispredicts: 0,
        }
    }

    /// Predicts and trains on one conditional branch at `pc`; returns the
    /// prediction.
    pub fn predict_and_update(&mut self, pc: u32, taken: bool) -> bool {
        self.predictions += 1;
        let li = pc as usize & self.mask;
        let lpi = (self.lht[li] as usize ^ pc as usize) & self.mask;
        let gpi = mix(pc, self.ghr) as usize & self.mask;
        let lpred = self.lpt[lpi] >= 2;
        let gpred = self.gpt[gpi] >= 2;
        let pred = if self.chooser[li] >= 2 { gpred } else { lpred };
        if pred != taken {
            self.mispredicts += 1;
        }
        if gpred == taken && lpred != taken {
            self.chooser[li] = (self.chooser[li] + 1).min(3);
        } else if lpred == taken && gpred != taken {
            self.chooser[li] = self.chooser[li].saturating_sub(1);
        }
        let bump = |c: &mut u8, t: bool| {
            if t {
                *c = (*c + 1).min(3)
            } else {
                *c = c.saturating_sub(1)
            }
        };
        bump(&mut self.lpt[lpi], taken);
        bump(&mut self.gpt[gpi], taken);
        self.lht[li] = (self.lht[li] << 1 | taken as u16) & 0x3ff;
        self.ghr = (self.ghr << 1) | taken as u32;
        pred
    }

    /// Misprediction rate so far.
    pub fn miss_rate(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.predictions as f64
        }
    }
}

/// Store-load dependence predictor: a load-wait table in the data tiles.
/// Loads that previously violated wait for earlier stores.
#[derive(Debug, Clone)]
pub struct LoadWaitTable {
    bits: Vec<bool>,
    mask: usize,
    /// Violations recorded (block flushes triggered).
    pub violations: u64,
}

impl LoadWaitTable {
    /// `entries` must be a power of two.
    pub fn new(entries: usize) -> LoadWaitTable {
        assert!(entries.is_power_of_two());
        LoadWaitTable {
            bits: vec![false; entries],
            mask: entries - 1,
            violations: 0,
        }
    }

    /// Should this load wait for earlier stores?
    pub fn should_wait(&self, block: u32, inst: u8) -> bool {
        self.bits[(mix(block, inst as u32) as usize) & self.mask]
    }

    /// Records a violation by this load.
    pub fn record_violation(&mut self, block: u32, inst: u8) {
        self.violations += 1;
        let i = (mix(block, inst as u32) as usize) & self.mask;
        self.bits[i] = true;
    }

    /// Captures the learned wait bits for a live-point.
    pub fn snapshot(&self) -> LoadWaitSnapshot {
        LoadWaitSnapshot {
            bits: self.bits.clone(),
        }
    }

    /// Restores bits captured by [`LoadWaitTable::snapshot`] (`violations`
    /// is the caller's to baseline).
    ///
    /// # Errors
    /// When the snapshot's table size differs from this table's.
    pub fn restore(&mut self, s: &LoadWaitSnapshot) -> Result<(), String> {
        if s.bits.len() != self.bits.len() {
            return Err(format!(
                "load-wait snapshot has {} entries, table has {}",
                s.bits.len(),
                self.bits.len()
            ));
        }
        self.bits.clone_from(&s.bits);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_predictor_learns_constant_exit() {
        let mut p = ExitPredictor::new(256);
        for _ in 0..16 {
            p.update(42, 3);
        }
        assert_eq!(p.predict(42), 3);
    }

    #[test]
    fn exit_predictor_learns_alternating_pattern() {
        let mut p = ExitPredictor::new(1024);
        // Alternating exits 1,2,1,2... local history should capture it.
        let mut right = 0;
        for i in 0..400u32 {
            let actual = 1 + (i % 2) as u8;
            if p.predict(7) == actual {
                right += 1;
            }
            p.update(7, actual);
        }
        assert!(right > 300, "learned only {right}/400");
    }

    #[test]
    fn tournament_learns_biased_branch() {
        let mut p = TournamentBranchPredictor::new(1024);
        for _ in 0..200 {
            p.predict_and_update(99, true);
        }
        assert!(p.miss_rate() < 0.1);
    }

    #[test]
    fn ras_depth_limits_return_prediction() {
        let mut t = TargetPredictor::new(64, 2);
        // push 3 calls; the first is lost.
        t.update(1, 0, ExitKind::Call, Some(10), Some(100));
        t.update(2, 0, ExitKind::Call, Some(11), Some(200));
        t.update(3, 0, ExitKind::Call, Some(12), Some(300));
        assert_eq!(t.predict(9, 0, Some(ExitKind::Ret)), Some(300));
        t.update(9, 0, ExitKind::Ret, Some(300), None);
        assert_eq!(t.predict(9, 0, Some(ExitKind::Ret)), Some(200));
        t.update(9, 0, ExitKind::Ret, Some(200), None);
        // The 100 entry was evicted by depth-2 overflow.
        assert_eq!(t.predict(9, 0, Some(ExitKind::Ret)), None);
    }

    #[test]
    fn next_block_predictor_warms_up_on_a_loop() {
        let mut p = NextBlockPredictor::new(1024, 128, 8);
        let mut correct = 0;
        for i in 0..100 {
            // block 5 loops back to itself 9 times then exits to 6 (pattern
            // period 10).
            let (exit, target) = if i % 10 == 9 {
                (1u8, 6u32)
            } else {
                (0u8, 5u32)
            };
            let (_, ok) = p.predict_and_update(5, exit, ExitKind::Jump, target, None, true);
            if ok {
                correct += 1;
            }
        }
        assert!(correct > 55, "only {correct}/100 correct");
        assert!(p.stats.predictions == 100);
    }

    #[test]
    fn load_wait_table_remembers() {
        let mut t = LoadWaitTable::new(64);
        assert!(!t.should_wait(3, 7));
        t.record_violation(3, 7);
        assert!(t.should_wait(3, 7));
        assert_eq!(t.violations, 1);
    }

    #[test]
    fn mpki_math() {
        let s = PredictorStats {
            exit_mispredicts: 5,
            target_mispredicts: 5,
            ..Default::default()
        };
        assert!((s.mpki(1000) - 10.0).abs() < 1e-9);
    }
}
