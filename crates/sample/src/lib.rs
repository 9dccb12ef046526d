//! # trips-sample
//!
//! SMARTS/SimPoint-style interval sampling plans, shared by every timing
//! core in the workspace.
//!
//! Trace replay decouples functional execution from timing, but a full
//! replay still *times every recorded event*, so a sweep point stays O(trace
//! length). A sampled replay is sublinear: it measures a few **windows** of
//! the recorded stream and extrapolates. Every window has the same shape —
//!
//! 1. the units before it are **fast-forwarded** with *functional warming* —
//!    caches, predictors and dependence tables observe every unit, but the
//!    pipeline model never runs and no cycles are accounted;
//! 2. its first units run through the **detailed model with the counters
//!    discarded** (timed warmup) — this refills the in-flight state
//!    functional warming cannot express (outstanding misses, queue
//!    backpressure, in-order retirement horizons), which otherwise makes
//!    every measurement start on an implausibly idle machine; and
//! 3. the rest of it is **measured** in full detail.
//!
//! Both plan kinds below become one crate-private *window list* per
//! replay: sorted, disjoint `[warm_start, detail_start, end)` windows, each
//! tagged with an *estimate group* that stands for a fixed number of
//! stream units (see the last section for who walks it).
//!
//! ## Systematic plans
//!
//! A [`SamplePlan`] `warmup,detailed,period` is tiled over the stream once:
//!
//! * the **first two periods** and the **final two periods** are each one
//!   fully measured window whose group weight is its own length. Program
//!   startup is a transient — compulsory cache misses, untrained
//!   predictors, dependence tables still learning — and teardown phases
//!   (reductions, result stores) are another; a periodic schedule whose
//!   windows all sit in period interiors would observe neither, biasing
//!   every estimate fast. Measuring the boundary strata exactly turns
//!   each transient into its own stratum;
//! * the middle is tiled with **variable-length mini-periods** (between
//!   `period/2` and `3·period/2` units, drawn from a deterministic
//!   golden-ratio sequence), each carrying one
//!   `[timed-warm × w][measure × d]` window at an offset drawn the same
//!   way. Fixed-length periods at a fixed offset *resonate* with loop
//!   structure — a window that always lands on the same slice of an
//!   iteration pattern samples that slice, not the program — while the
//!   low-discrepancy draws spread placements evenly and remain pure
//!   functions of position, so replays stay exactly reproducible. The mid
//!   windows pool into one group weighted by the middle's extent, so the
//!   pooled rate is an average over every mini-period and a single
//!   outlier window (one DRAM burst) is not scaled up on its own;
//! * a middle too short to host a window leaves the boundary windows in
//!   one group weighted by the whole stream, and a stream too short to
//!   have a middle is one fully measured window — estimated exactly.
//!
//! The *unit* is whatever the consuming timing core iterates over: TRIPS
//! block-trace replay samples over dynamic blocks (`TraceLog::seq`
//! entries), the out-of-order reference models over dynamic instructions
//! (`RiscTrace` events). The plans themselves are agnostic.
//!
//! [`ReplayMode`] is the knob threaded through the replay entry points:
//! `Full` is the bit-exact everything-timed path, `Sampled(plan)` the
//! interval-sampled one, and `Phased(plan)` the phase-classified one. A
//! plan that measures every unit ([`SamplePlan::covers_everything`],
//! [`PhasePlan::covers_everything`]) normalizes to `Full`, so "sample
//! everything" is *bit-identical* to full replay by construction.
//!
//! ## Phase-classified plans
//!
//! Systematic sampling spends detailed windows uniformly across the
//! stream regardless of program phase behavior. A [`PhasePlan`]
//! (SimPoint-style) instead cuts the stream into fixed-size intervals,
//! clusters the intervals by behavioral similarity offline (basic-block
//! vectors + k-means, fitted by the `trips-phase` crate), and measures
//! **one representative interval per cluster** — extrapolating each
//! cluster's cycles by its population weight. Phase-repetitive streams
//! need far fewer detailed units this way: each phase is timed once and
//! weighted, instead of being re-measured every period. Its window list
//! is the plan's own windows, one group each, weighted by `weight_units`;
//! a plan that fails [`PhasePlan::validate`] or was fitted to another
//! stream length is rejected rather than replayed.
//!
//! ## One set of replay drivers for every timing core
//!
//! The TRIPS block-trace core (`trips-sim`) and the out-of-order cores
//! (`trips-ooo`) implement [`TimingCore`] over their recorded-stream
//! cursors, and the drivers are written once against it. One walker
//! ([`replay`], [`capture_phased`]) drives the window list, one per-window
//! body meters every window (also a restored live-point's, in
//! [`replay_window`]), and one estimator turns the measurements into a
//! result (also [`assemble_windows`]'s): `est = Σ_g cycles_g × weight_g /
//! units_g`. "Restore ≡ sequential" therefore holds by construction.

use serde::{Deserialize, Serialize};
use std::fmt;

mod driver;

pub use driver::{
    assemble_windows, capture_phased, replay, replay_window, TimingCore, WindowMeasure,
};

/// Low-discrepancy offset for period `k` in `0..=slack`: the golden-ratio
/// (Weyl) sequence. Deterministic like a hash, but consecutive periods'
/// offsets spread evenly across the range instead of clumping, so even a
/// stream with only a handful of periods gets well-stratified window
/// placements ([`Windows::sampled`]).
fn weyl_offset(k: u64, slack: u64) -> u64 {
    // k · φ⁻¹ in 0.64 fixed point, scaled to 0..=slack. `slack + 1`
    // cannot overflow: slack < period ≤ MAX_PERIOD.
    let frac = k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((u128::from(frac) * u128::from(slack + 1)) >> 64) as u64
}

/// What a replay does with one stream unit ([`TimingCore::step`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Fast-forward with functional warming: caches/predictors observe the
    /// unit, no cycle accounting.
    Warm,
    /// Detailed-model timed warmup: the pipeline model runs, the counters
    /// are discarded.
    TimedWarm,
    /// Full detailed measurement.
    Detailed,
}

/// A systematic interval-sampling plan over a recorded stream.
///
/// Nominally, every period of `period` units carries one window of
/// `warmup_units` timed (counter-discarded) pipeline warmup followed by
/// `detailed_units` of measurement; everything else is fast-forwarded
/// with functional warming. A replay tiles the plan with variable-length
/// mini-periods and jittered window placement (resonance control),
/// keeping the same average rates. Invariants (enforced by
/// [`SamplePlan::new`]): `detailed_units ≥ 1`, `period ≥ 1`,
/// `warmup_units + detailed_units ≤ period`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SamplePlan {
    /// Timed-warmup units immediately before each measured window.
    pub warmup_units: u64,
    /// Measured units at the end of each period.
    pub detailed_units: u64,
    /// Total units per sampling period.
    pub period: u64,
}

impl SamplePlan {
    /// Largest accepted `period`. Far beyond any real stream (periods are
    /// stream *subdivisions*), and small enough that the schedule
    /// arithmetic (`2 × period` boundary strata, `3/2 × period`
    /// mini-periods, `slack + 1` draws) can never overflow.
    pub const MAX_PERIOD: u64 = 1 << 48;

    /// Builds a validated plan.
    ///
    /// # Errors
    /// A description of the violated invariant.
    pub fn new(warmup_units: u64, detailed_units: u64, period: u64) -> Result<SamplePlan, String> {
        if detailed_units == 0 {
            return Err("detailed_units must be at least 1".into());
        }
        if period == 0 {
            return Err("period must be at least 1".into());
        }
        if period > Self::MAX_PERIOD {
            return Err(format!(
                "period {period} exceeds the maximum {}",
                Self::MAX_PERIOD
            ));
        }
        match warmup_units.checked_add(detailed_units) {
            Some(used) if used <= period => Ok(SamplePlan {
                warmup_units,
                detailed_units,
                period,
            }),
            _ => Err(format!(
                "warmup ({warmup_units}) + detailed ({detailed_units}) exceed the period ({period})"
            )),
        }
    }

    /// Parses the CLI grammar `warmup,detailed,period` (e.g. `64,64,256`).
    ///
    /// # Errors
    /// A description of the malformed field or violated invariant.
    pub fn parse(s: &str) -> Result<SamplePlan, String> {
        let parts: Vec<&str> = s.split(',').collect();
        if parts.len() != 3 {
            return Err(format!(
                "expected `warmup,detailed,period` (three comma-separated counts), got `{s}`"
            ));
        }
        let field = |at: usize, name: &str| -> Result<u64, String> {
            parts[at]
                .trim()
                .parse::<u64>()
                .map_err(|_| format!("{name} `{}` is not a count", parts[at]))
        };
        SamplePlan::new(
            field(0, "warmup")?,
            field(1, "detailed")?,
            field(2, "period")?,
        )
    }

    /// True when every unit is measured in detail — such a plan degenerates
    /// to full replay, and [`ReplayMode::plan`] normalizes it away so the
    /// result is bit-identical to [`ReplayMode::Full`].
    #[must_use]
    pub fn covers_everything(&self) -> bool {
        self.detailed_units >= self.period
    }

    /// The fraction of stream units a full period measures in detail.
    #[must_use]
    pub fn planned_detail_frac(&self) -> f64 {
        self.detailed_units as f64 / self.period as f64
    }
}

impl fmt::Display for SamplePlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{},{},{}",
            self.warmup_units, self.detailed_units, self.period
        )
    }
}

/// One measured region of a [`PhasePlan`]: a timed-warmup prefix
/// (`[warm_start, detail_start)`) followed by a detailed measured span
/// (`[detail_start, end)`), representing `weight_units` stream units (its
/// cluster's total population, or its own length for boundary windows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PhaseWindow {
    /// First timed-warmup unit (equals `detail_start` when no warmup fits).
    pub warm_start: u64,
    /// First measured unit.
    pub detail_start: u64,
    /// First unit past the measured span.
    pub end: u64,
    /// Stream units this window's measured rate stands for.
    pub weight_units: u64,
}

impl PhaseWindow {
    /// Measured units in this window (none when it is malformed).
    #[must_use]
    pub fn detailed_units(&self) -> u64 {
        self.end.saturating_sub(self.detail_start)
    }
}

/// A fitted phase-classification sampling plan over one recorded stream.
///
/// The stream is cut into `interval`-unit intervals; the first and last
/// intervals are always measured in full at weight one (startup and
/// teardown transients, mirroring a [`SamplePlan`]'s boundary strata),
/// and each interior cluster contributes one representative
/// window weighted by its population. Unlike a [`SamplePlan`], a
/// `PhasePlan` is specific to the stream it was fitted to
/// ([`PhasePlan::total_units`]); replaying it against a different-length
/// stream is an error, not a silent misestimate.
///
/// Invariants (produced by `trips-phase::fit_plan`, checked by
/// [`PhasePlan::validate`]): windows are sorted and disjoint, spans lie in
/// `[0, total_units)`, and the weights sum to exactly `total_units`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PhasePlan {
    /// Stream units per classification interval.
    pub interval: u64,
    /// Length of the stream the plan was fitted to.
    pub total_units: u64,
    /// Clusters the interior intervals were grouped into.
    pub k: u32,
    /// Measured windows, sorted by position, pairwise disjoint.
    pub windows: Vec<PhaseWindow>,
    /// Per-interval cluster assignment (`assignments[i]` for the interval
    /// starting at `i × interval`); the boundary intervals carry the
    /// pseudo-clusters `k` (startup) and `k + 1` (teardown).
    pub assignments: Vec<u32>,
}

impl PhasePlan {
    /// True when every stream unit falls in a measured span — the plan
    /// degenerates to full replay and [`ReplayMode::phase`] normalizes it
    /// away, so "measure every interval" (k ≥ interval count) is
    /// bit-identical to [`ReplayMode::Full`].
    #[must_use]
    pub fn covers_everything(&self) -> bool {
        let measured: u64 = self.windows.iter().map(PhaseWindow::detailed_units).sum();
        measured >= self.total_units
    }

    /// Total units measured in detail across all windows.
    #[must_use]
    pub fn detailed_units(&self) -> u64 {
        self.windows.iter().map(PhaseWindow::detailed_units).sum()
    }

    /// Structural validity: ordered disjoint windows inside the stream,
    /// weights summing to the stream extent.
    ///
    /// # Errors
    /// A description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        let mut prev_end = 0u64;
        let mut weight = 0u64;
        for (i, w) in self.windows.iter().enumerate() {
            if w.warm_start > w.detail_start || w.detail_start >= w.end {
                return Err(format!("window {i} is not well-formed: {w:?}"));
            }
            if w.warm_start < prev_end {
                return Err(format!("window {i} overlaps its predecessor"));
            }
            if w.end > self.total_units {
                return Err(format!(
                    "window {i} ends at {} past the stream ({})",
                    w.end, self.total_units
                ));
            }
            prev_end = w.end;
            weight = weight
                .checked_add(w.weight_units)
                .ok_or_else(|| "weights overflow".to_string())?;
        }
        if weight != self.total_units {
            return Err(format!(
                "weights sum to {weight}, stream has {} units",
                self.total_units
            ));
        }
        Ok(())
    }
}

impl fmt::Display for PhasePlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "phase(k={}, interval={}, windows={}, detail={}/{})",
            self.k,
            self.interval,
            self.windows.len(),
            self.detailed_units(),
            self.total_units
        )
    }
}

/// How a replay entry point should treat the recorded stream.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub enum ReplayMode {
    /// Time every recorded unit (bit-exact; the pre-sampling behavior).
    #[default]
    Full,
    /// Interval-sample per the plan.
    Sampled(SamplePlan),
    /// Phase-classified sampling per the fitted plan.
    Phased(PhasePlan),
}

impl ReplayMode {
    /// The effective systematic plan: `None` for [`ReplayMode::Full`],
    /// for sampled plans that cover everything, and for phased modes (see
    /// [`ReplayMode::phase`]), so callers branching on this get the
    /// bit-exact full path whenever the plan changes nothing.
    #[must_use]
    pub fn plan(&self) -> Option<&SamplePlan> {
        match self {
            ReplayMode::Sampled(p) if !p.covers_everything() => Some(p),
            _ => None,
        }
    }

    /// The effective phase plan: `None` unless this is a phased mode whose
    /// plan leaves something unmeasured (covering plans normalize to the
    /// full path, exactly like covering [`SamplePlan`]s).
    #[must_use]
    pub fn phase(&self) -> Option<&PhasePlan> {
        match self {
            ReplayMode::Phased(p) if !p.covers_everything() => Some(p),
            _ => None,
        }
    }

    /// Builds the mode an optional plan implies.
    #[must_use]
    pub fn from_plan(plan: Option<SamplePlan>) -> ReplayMode {
        match plan {
            Some(p) => ReplayMode::Sampled(p),
            None => ReplayMode::Full,
        }
    }

    /// The window list this mode implies for a stream of `total_units`:
    /// `None` for the bit-exact full path (including covering plans of
    /// either kind).
    ///
    /// # Errors
    /// A phase plan that fails [`PhasePlan::validate`] or was fitted to
    /// another stream length: replaying it would silently misweight its
    /// clusters, so it is rejected instead.
    pub(crate) fn windows(&self, total_units: u64) -> Result<Option<Windows>, String> {
        if let Some(plan) = self.plan() {
            return Ok(Some(Windows::sampled(plan, total_units)));
        }
        self.phase()
            .map(|plan| Windows::phased(plan, total_units))
            .transpose()
    }
}

/// What one sampled or phased replay measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleSummary {
    /// Stream units walked.
    pub total_units: u64,
    /// Units measured in detail (all windows).
    pub measured_units: u64,
    /// Cycles those measured units took (all windows).
    pub measured_cycles: u64,
    /// The whole-run cycle estimate: each estimate group's measured rate
    /// scaled over the stream units it stands for.
    pub est_cycles: u64,
}

/// One measurement window: timed warmup over `[warm_start, detail_start)`
/// with its counters discarded, then metered detail over
/// `[detail_start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Span {
    pub(crate) warm_start: u64,
    pub(crate) detail_start: u64,
    pub(crate) end: u64,
}

impl Span {
    /// A window measured in full over `[start, end)`.
    fn detailed(start: u64, end: u64) -> Span {
        Span {
            warm_start: start,
            detail_start: start,
            end,
        }
    }
}

impl From<&PhaseWindow> for Span {
    fn from(w: &PhaseWindow) -> Span {
        Span {
            warm_start: w.warm_start,
            detail_start: w.detail_start,
            end: w.end,
        }
    }
}

/// A replay's window list: sorted, disjoint windows inside `[0, total)`,
/// each tagged with the estimate group its measurement is pooled into.
/// The group weights sum to `total`, and every group stands for at least
/// the units it measures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Windows {
    /// The `kind` label of the `sample_*_units_total` series: `interval`
    /// or `phase`.
    pub(crate) kind: &'static str,
    /// Stream units.
    pub(crate) total: u64,
    /// The windows in stream order, each with its group index.
    pub(crate) spans: Vec<(Span, usize)>,
    /// Stream units each group's pooled rate stands for.
    pub(crate) weights: Vec<u64>,
}

impl Windows {
    /// Tiles `plan` over a stream of `total` units (see the crate docs):
    /// a fully measured head and tail stratum of two periods each, and one
    /// jittered window per golden-ratio mini-period between them, pooled
    /// into one group over the middle.
    pub(crate) fn sampled(plan: &SamplePlan, total: u64) -> Windows {
        let (w, d, p) = (plan.warmup_units, plan.detailed_units, plan.period);
        let bound = 2 * p;
        let mut spans = Vec::new();
        let mut weights = vec![total];
        if total > 2 * bound {
            let (head_end, tail_start) = (bound, total - bound);
            spans.push((Span::detailed(0, head_end), 0));
            let timed = w + d;
            let (mut at, mut k) = (head_end, 0);
            while at < tail_start {
                k += 1;
                let len = (p / 2 + weyl_offset(k * 2, p)).max(timed);
                let end = (at + len).min(tail_start);
                // The sliver before the tail stratum may be too small to
                // host a window; the pooled mid rate covers it.
                if end - at >= timed {
                    let s = at + weyl_offset(k * 2 + 1, end - at - timed);
                    let span = Span {
                        warm_start: s,
                        detail_start: s + w,
                        end: s + timed,
                    };
                    spans.push((span, 1));
                }
                at = end;
            }
            spans.push((Span::detailed(tail_start, total), 2));
            if spans.len() > 2 {
                weights = vec![head_end, tail_start - head_end, bound];
            } else {
                // No window fits the middle: the boundary rate stands for
                // the whole stream.
                spans[1].1 = 0;
            }
        } else if total > 0 {
            // No middle at all: the stream is measured in full.
            spans.push((Span::detailed(0, total), 0));
        }
        Windows {
            kind: "interval",
            total,
            spans,
            weights,
        }
    }

    /// The window list of a fitted `plan` over a stream of `total` units:
    /// the plan's own windows, one group each, weighted by `weight_units`.
    ///
    /// # Errors
    /// A plan fitted to another stream length, or one that fails
    /// [`PhasePlan::validate`].
    pub(crate) fn phased(plan: &PhasePlan, total: u64) -> Result<Windows, String> {
        if plan.total_units != total {
            return Err(format!(
                "phase plan was fitted to a {}-unit stream, replaying {total} units",
                plan.total_units
            ));
        }
        plan.validate()
            .map_err(|why| format!("malformed phase plan: {why}"))?;
        Ok(Windows {
            kind: "phase",
            total,
            spans: plan.windows.iter().map(Span::from).zip(0..).collect(),
            weights: plan.windows.iter().map(|w| w.weight_units).collect(),
        })
    }

    /// The one estimator, over the cycles each window measured (in window
    /// order): every group's pooled rate is scaled over the units it stands
    /// for, `est = Σ_g cycles_g × weight_g / units_g` in 128-bit precision,
    /// and never falls below the measured cycles. A group that measured
    /// nothing keeps its weight out of the estimate. Records the
    /// `sample_*_units_total{kind=…}` series: one registry touch per
    /// replay.
    pub(crate) fn estimate(&self, cycles: &[u64]) -> SampleSummary {
        let mut groups = vec![(0u64, 0u64); self.weights.len()];
        for ((span, g), c) in self.spans.iter().zip(cycles) {
            groups[*g].0 += c;
            groups[*g].1 += span.end - span.detail_start;
        }
        let mut est = 0u128;
        for (&(c, units), &weight) in groups.iter().zip(&self.weights) {
            if units > 0 {
                est += u128::from(c) * u128::from(weight) / u128::from(units);
            }
        }
        let measured_cycles = groups.iter().map(|g| g.0).sum();
        let summary = SampleSummary {
            total_units: self.total,
            measured_units: groups.iter().map(|g| g.1).sum(),
            measured_cycles,
            est_cycles: u64::try_from(est).unwrap_or(u64::MAX).max(measured_cycles),
        };
        let kind = self.kind;
        trips_obs::counter(&format!("sample_measured_units_total{{kind=\"{kind}\"}}"))
            .inc(summary.measured_units);
        trips_obs::counter(&format!("sample_stream_units_total{{kind=\"{kind}\"}}"))
            .inc(summary.total_units);
        summary
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A synthetic core: unit `u` costs `cost(u)` cycles when timed, and
    /// the machine state is its position and clock.
    pub(crate) struct Toy {
        units: u64,
        pos: u64,
        clock: u64,
        timed: u64,
        cost: fn(u64) -> u64,
    }

    /// The default phase-dependent cost: every third unit is expensive.
    fn cost(u: u64) -> u64 {
        if u.is_multiple_of(3) {
            12
        } else {
            5
        }
    }

    impl Toy {
        pub(crate) fn new(units: u64) -> Toy {
            Toy::with_cost(units, cost)
        }

        pub(crate) fn with_cost(units: u64, cost: fn(u64) -> u64) -> Toy {
            Toy {
                units,
                pos: 0,
                clock: 0,
                timed: 0,
                cost,
            }
        }
    }

    impl TimingCore for Toy {
        type Snapshot = (u64, u64);
        type Stats = u64;
        type Output = (u64, Option<SampleSummary>);
        type Error = String;
        const LABEL: &'static str = "toy";

        fn units(&self) -> u64 {
            self.units
        }
        fn clock(&self) -> u64 {
            self.clock
        }
        fn step(&mut self, phase: Phase) -> Result<(), String> {
            if self.pos == self.units {
                return Err("past the end".into());
            }
            if phase != Phase::Warm {
                self.clock += (self.cost)(self.pos);
            }
            if phase == Phase::Detailed {
                self.timed += 1;
            }
            self.pos += 1;
            Ok(())
        }
        fn snapshot(&self) -> (u64, u64) {
            (self.pos, self.clock)
        }
        fn restore(&mut self, snap: &(u64, u64)) -> Result<u64, String> {
            (self.pos, self.clock) = *snap;
            Ok(self.pos)
        }
        fn window_stats(self) -> u64 {
            self.timed
        }
        fn absorb(&mut self, window: &u64) {
            self.timed += window;
        }
        fn finish(self, summary: Option<&SampleSummary>) -> (u64, Option<SampleSummary>) {
            (self.timed, summary.copied())
        }
        fn reject(why: String) -> String {
            why
        }
    }

    /// The summary of a sampled or phased toy replay of `total` units.
    fn summary(mode: &ReplayMode, total: u64, cost: fn(u64) -> u64) -> SampleSummary {
        let (timed, summary) = replay(Toy::with_cost(total, cost), mode).unwrap();
        let summary = summary.expect("a sampled replay");
        assert_eq!(summary.measured_units, timed);
        summary
    }

    /// The per-unit phases a window list walks.
    fn phases(list: &Windows) -> Vec<Phase> {
        let mut out = vec![Phase::Warm; list.total as usize];
        for (s, _) in &list.spans {
            out[s.warm_start as usize..s.detail_start as usize].fill(Phase::TimedWarm);
            out[s.detail_start as usize..s.end as usize].fill(Phase::Detailed);
        }
        out
    }

    /// The per-unit phases of `plan` tiled over `total` units.
    fn tiling(plan: SamplePlan, total: u64) -> Vec<Phase> {
        phases(&Windows::sampled(&plan, total))
    }

    #[test]
    fn invariants_are_enforced() {
        assert!(SamplePlan::new(0, 0, 4).is_err());
        assert!(SamplePlan::new(0, 1, 0).is_err());
        assert!(SamplePlan::new(3, 2, 4).is_err());
        assert!(SamplePlan::new(u64::MAX, 1, u64::MAX).is_err());
        // Periods past MAX_PERIOD would overflow the tiling arithmetic
        // (2x boundary strata, 3/2x mini-periods); they are rejected, and
        // the largest accepted period tiles and replays without panicking.
        assert!(SamplePlan::new(0, 1, SamplePlan::MAX_PERIOD + 1).is_err());
        let huge = SamplePlan::new(0, 1, SamplePlan::MAX_PERIOD).unwrap();
        assert_eq!(
            summary(&ReplayMode::Sampled(huge), 10, |_| 7).est_cycles,
            70
        );
        let list = Windows::sampled(&huge, 1 << 52);
        assert!(list.spans.len() > 2 && list.weights.iter().sum::<u64>() == 1 << 52);
        assert!(SamplePlan::new(2, 2, 4).is_ok());
    }

    #[test]
    fn parse_round_trips_and_rejects_garbage() {
        let p = SamplePlan::parse("64,32,256").unwrap();
        assert_eq!(
            p,
            SamplePlan {
                warmup_units: 64,
                detailed_units: 32,
                period: 256
            }
        );
        assert_eq!(SamplePlan::parse(&p.to_string()).unwrap(), p);
        assert!(SamplePlan::parse("64,32").is_err());
        assert!(SamplePlan::parse("a,b,c").is_err());
        assert!(SamplePlan::parse("4,8,8").is_err());
    }

    #[test]
    fn schedule_is_structurally_sound_and_jittered() {
        let plan = SamplePlan::new(2, 3, 8).unwrap();
        let total = 512;
        let phases = tiling(plan, total);
        // Boundary strata: two periods at each end, measured end to end.
        assert!(phases[..16].iter().all(|&x| x == Phase::Detailed));
        assert!(phases[496..].iter().all(|&x| x == Phase::Detailed));
        // The middle consists of warm stretches and contiguous
        // [timed-warm × 2][measure × 3] windows — timed warmup always
        // immediately precedes measurement, and windows never touch.
        let mut at = 16;
        let mut windows = 0;
        while at < 496 {
            match phases[at] {
                Phase::Warm => at += 1,
                Phase::TimedWarm => {
                    assert_eq!(
                        &phases[at..at + 5],
                        &[
                            Phase::TimedWarm,
                            Phase::TimedWarm,
                            Phase::Detailed,
                            Phase::Detailed,
                            Phase::Detailed,
                        ],
                        "window at {at} must be contiguous, warmup first"
                    );
                    windows += 1;
                    at += 5;
                }
                Phase::Detailed => panic!("measurement without timed warmup at {at}"),
            }
        }
        // Mini-periods average one window per nominal period.
        let mid_periods = (496 - 16) / 8;
        assert!(
            windows >= mid_periods / 2 && windows <= mid_periods * 2,
            "{windows} windows for {mid_periods} nominal periods"
        );
        // The tiling is deterministic and the jitter actually moves
        // windows: window start offsets are not all congruent mod the
        // nominal period.
        assert_eq!(phases, tiling(plan, total));
        let starts: std::collections::HashSet<u64> = {
            let mut v = std::collections::HashSet::new();
            let mut i = 16;
            while i < 496 {
                if phases[i] == Phase::TimedWarm {
                    v.insert(i as u64 % 8);
                    i += 5;
                } else {
                    i += 1;
                }
            }
            v
        };
        assert!(starts.len() > 1, "window placement must vary: {starts:?}");
    }

    /// Bounded exhaustive check of the systematic tiling, in the spirit of
    /// bounded model checking: every valid plan with `period ≤ 12` over
    /// every stream of at most 160 units.
    #[test]
    fn sampled_tiling_is_sound_for_every_small_plan() {
        for p in 1..=12u64 {
            for d in 1..=p {
                for w in 0..=p - d {
                    let plan = SamplePlan::new(w, d, p).unwrap();
                    for total in 0..=160 {
                        check_tiling(plan, total);
                    }
                }
            }
        }
    }

    fn check_tiling(plan: SamplePlan, total: u64) {
        let (w, d, p) = (plan.warmup_units, plan.detailed_units, plan.period);
        let list = Windows::sampled(&plan, total);
        let at = format!("plan {plan} over {total}");
        // Sorted, disjoint, inside the stream; every group outweighs what
        // it measures, and the weights tile the stream.
        let mut prev = 0;
        let mut measured = vec![0; list.weights.len()];
        for (s, g) in &list.spans {
            assert!(prev <= s.warm_start, "{at}: {s:?} overlaps");
            assert!(
                s.warm_start <= s.detail_start && s.detail_start < s.end,
                "{at}"
            );
            assert!(s.end <= total, "{at}: {s:?} past the stream");
            measured[*g] += s.end - s.detail_start;
            prev = s.end;
        }
        assert!(
            measured.iter().zip(&list.weights).all(|(u, w)| u <= w),
            "{at}"
        );
        assert_eq!(list.weights.iter().sum::<u64>(), total, "{at}");
        let n = list.spans.len();
        if total > 4 * p {
            // Head and tail strata measured in full; every mid window is
            // exactly `w` timed-warm units followed by `d` detailed ones.
            let (head_end, tail_start) = (2 * p, total - 2 * p);
            assert_eq!(list.spans[0].0, Span::detailed(0, head_end), "{at}");
            assert_eq!(
                list.spans[n - 1].0,
                Span::detailed(tail_start, total),
                "{at}"
            );
            for (s, g) in &list.spans[1..n - 1] {
                assert_eq!(
                    (s.detail_start - s.warm_start, s.end - s.detail_start),
                    (w, d)
                );
                assert!(head_end <= s.warm_start && s.end <= tail_start, "{at}");
                assert_eq!(*g, 1, "{at}");
            }
            if n > 2 {
                assert_eq!(list.weights, [head_end, tail_start - head_end, 2 * p]);
                assert_eq!((list.spans[0].1, list.spans[n - 1].1), (0, 2), "{at}");
            } else {
                assert!(tail_start - head_end < w + d, "{at}: a window fits");
                assert_eq!(list.weights, [total], "{at}");
                assert!(list.spans.iter().all(|&(_, g)| g == 0), "{at}");
            }
        } else if total > 0 {
            assert_eq!(list.spans, [(Span::detailed(0, total), 0)], "{at}");
        } else {
            assert!(list.spans.is_empty(), "{at}");
        }
        // Uniform cost ⇒ the estimate is exact.
        let mode = ReplayMode::Sampled(plan);
        match replay(Toy::with_cost(total, |_| 3), &mode).unwrap() {
            (timed, Some(s)) => {
                assert_eq!((s.est_cycles, s.total_units), (3 * total, total), "{at}");
                assert_eq!(s.measured_units, timed, "{at}");
                assert_eq!(s.measured_units, measured.iter().sum::<u64>(), "{at}");
            }
            (timed, None) => assert!(plan.covers_everything() && timed == total, "{at}"),
        }
    }

    #[test]
    fn sampler_measures_boundaries_and_extrapolates_the_middle() {
        let plan = SamplePlan::new(2, 2, 8).unwrap();
        // 160 units: 16-unit boundary strata at each end measured in
        // full, the 128-unit middle sampled by mini-period windows.
        let s = summary(&ReplayMode::Sampled(plan), 160, |_| 10);
        assert_eq!(s.total_units, 160);
        assert!(
            s.measured_units > 32 && s.measured_units < 160,
            "boundaries plus some windows: {}",
            s.measured_units
        );
        // Uniform cost ⇒ the stratified estimate is exact.
        assert_eq!(s.est_cycles, 160 * 10);
    }

    #[test]
    fn sampler_is_exact_on_streams_without_a_middle() {
        let mode = ReplayMode::Sampled(SamplePlan::new(2, 2, 8).unwrap());
        for total in [1, 5, 8, 9, 16, 32] {
            let s = summary(&mode, total, |_| 7);
            assert_eq!(s.measured_units, total, "total {total}");
            assert_eq!(s.est_cycles, total * 7, "total {total}");
        }
    }

    #[test]
    fn sampler_captures_boundary_transients_exactly() {
        // Expensive start and end, cheap middle: the strata keep the
        // transients at weight one.
        let cost = |u| if (16..144).contains(&u) { 10 } else { 100 };
        let truth: u64 = (0..160).map(cost).sum();
        let mode = ReplayMode::Sampled(SamplePlan::new(2, 2, 8).unwrap());
        let sum = summary(&mode, 160, cost);
        assert_eq!(sum.est_cycles, truth, "uniform-middle stream is exact");
    }

    #[test]
    fn covering_plans_normalize_to_full() {
        let covering = SamplePlan::new(0, 8, 8).unwrap();
        assert!(covering.covers_everything());
        assert_eq!(ReplayMode::Sampled(covering).plan(), None);
        assert_eq!(ReplayMode::Full.plan(), None);
        let sampling = SamplePlan::new(0, 4, 8).unwrap();
        assert_eq!(ReplayMode::Sampled(sampling).plan(), Some(&sampling));
        assert_eq!(
            ReplayMode::from_plan(Some(sampling)),
            ReplayMode::Sampled(sampling)
        );
        assert_eq!(ReplayMode::from_plan(None), ReplayMode::Full);
    }

    /// A hand-built plan: 40-unit stream, 8-unit intervals, head/tail
    /// boundary windows plus one representative (interval 2) standing for
    /// the three interior intervals.
    pub(crate) fn tiny_phase_plan() -> PhasePlan {
        let window = |warm_start, detail_start, end, weight_units| PhaseWindow {
            warm_start,
            detail_start,
            end,
            weight_units,
        };
        PhasePlan {
            interval: 8,
            total_units: 40,
            k: 1,
            windows: vec![
                window(0, 0, 8, 8),
                window(14, 16, 24, 24),
                window(30, 32, 40, 8),
            ],
            assignments: vec![1, 0, 0, 0, 2],
        }
    }

    #[test]
    fn phase_plan_validates_and_displays() {
        let plan = tiny_phase_plan();
        plan.validate().unwrap();
        assert!(!plan.covers_everything());
        assert_eq!(plan.detailed_units(), 24);
        assert!(plan.to_string().contains("k=1"));
        // Broken invariants are caught.
        let mut bad = plan.clone();
        bad.windows[1].weight_units = 5;
        assert!(bad.validate().is_err(), "weights must sum to the stream");
        let mut bad = plan.clone();
        bad.windows[1].warm_start = 7;
        assert!(bad.validate().is_err(), "windows must not overlap");
        let mut bad = plan;
        bad.windows[2].end = 41;
        assert!(bad.validate().is_err(), "windows must fit the stream");
    }

    #[test]
    fn phased_sampler_schedules_warmup_and_windows() {
        let list = Windows::phased(&tiny_phase_plan(), 40).unwrap();
        assert_eq!(list.weights, [8, 24, 8]);
        for (unit, phase) in phases(&list).iter().enumerate() {
            let want = match unit {
                0..=7 | 16..=23 | 32..=39 => Phase::Detailed,
                14 | 15 | 30 | 31 => Phase::TimedWarm,
                _ => Phase::Warm,
            };
            assert_eq!(*phase, want, "unit {unit}");
        }
    }

    #[test]
    fn phased_estimate_weights_clusters_by_population() {
        // Uniform 10-cycle units: every window measures rate 10, so the
        // weighted estimate reproduces the whole stream exactly.
        let mode = ReplayMode::Phased(tiny_phase_plan());
        let sum = summary(&mode, 40, |_| 10);
        assert_eq!(sum.total_units, 40);
        assert_eq!(sum.measured_units, 24);
        assert_eq!(sum.est_cycles, 400);
        // Phase-dependent cost: the representative's rate is scaled by its
        // cluster population, the boundaries count at weight one.
        let cost = |u| if (8..32).contains(&u) { 7 } else { 100 };
        let truth: u64 = (0..40).map(cost).sum();
        let sum = summary(&mode, 40, cost);
        assert_eq!(sum.est_cycles, truth, "uniform-per-phase stream is exact");
    }

    #[test]
    fn assemble_phased_matches_sequential_finish() {
        // Independently measured windows (the parallel replay's view)
        // must assemble into exactly the result a sequential replay
        // produces, for a phase-dependent cost model.
        let plan = tiny_phase_plan();
        let sequential = replay(Toy::new(40), &ReplayMode::Phased(plan.clone())).unwrap();
        let measures: Vec<WindowMeasure<u64>> = plan
            .windows
            .iter()
            .map(|w| WindowMeasure {
                cycles: (w.detail_start..w.end).map(cost).sum(),
                stats: w.detailed_units(),
            })
            .collect();
        assert_eq!(
            assemble_windows(Toy::new(40), &plan, &measures).unwrap(),
            sequential
        );
    }

    #[test]
    fn covering_phase_plans_normalize_to_full() {
        // Every interval measured: detailed spans tile the stream.
        let covering = PhasePlan {
            interval: 8,
            total_units: 16,
            k: 2,
            windows: vec![
                PhaseWindow {
                    warm_start: 0,
                    detail_start: 0,
                    end: 8,
                    weight_units: 8,
                },
                PhaseWindow {
                    warm_start: 8,
                    detail_start: 8,
                    end: 16,
                    weight_units: 8,
                },
            ],
            assignments: vec![0, 1],
        };
        covering.validate().unwrap();
        assert!(covering.covers_everything());
        let mode = ReplayMode::Phased(covering);
        assert!(mode.phase().is_none());
        assert!(mode.windows(16).unwrap().is_none());
        // A real plan yields a phased window list, but only over the
        // stream it was fitted to.
        let plan = tiny_phase_plan();
        let mode = ReplayMode::Phased(plan.clone());
        assert_eq!(mode.phase(), Some(&plan));
        assert_eq!(mode.windows(40).unwrap().unwrap().kind, "phase");
        assert!(mode.windows(39).is_err(), "foreign stream length rejected");
        // Sampled modes route through the same surface.
        let sampled = ReplayMode::Sampled(SamplePlan::new(2, 2, 8).unwrap());
        assert_eq!(sampled.windows(100).unwrap().unwrap().kind, "interval");
        assert!(ReplayMode::Full.windows(100).unwrap().is_none());
    }

    #[test]
    fn malformed_phase_plans_are_rejected() {
        // Unsorted windows: `validate` fails, so replay must too instead
        // of estimating from whatever the walk happened to measure.
        let mut plan = tiny_phase_plan();
        plan.windows = vec![
            PhaseWindow {
                warm_start: 20,
                detail_start: 20,
                end: 30,
                weight_units: 10,
            },
            PhaseWindow {
                warm_start: 0,
                detail_start: 0,
                end: 10,
                weight_units: 30,
            },
        ];
        assert!(plan.validate().is_err());
        let mode = ReplayMode::Phased(plan.clone());
        let err = replay(Toy::new(40), &mode).unwrap_err();
        assert!(err.contains("malformed phase plan"), "{err}");
        assert!(capture_phased(Toy::new(40), &plan).is_err());
    }

    #[test]
    fn extrapolation_is_exact_and_total() {
        // One group of `weight` units measured over `[0, units)`.
        let one = |total, weight, units| Windows {
            kind: "interval",
            total,
            spans: vec![(Span::detailed(0, units), 0)],
            weights: vec![weight],
        };
        assert_eq!(one(1000, 1000, 100).estimate(&[100]).est_cycles, 1000);
        assert_eq!(one(7, 7, 7).estimate(&[7]).est_cycles, 7);
        assert_eq!(one(1000, 1000, 10).estimate(&[0]).est_cycles, 0);
        // A group that measured nothing keeps its weight out.
        let mut two = one(20, 10, 5);
        two.weights.push(10);
        assert_eq!(two.estimate(&[15]).est_cycles, 30);
        // 128-bit intermediate: no overflow on huge cycle counts, and an
        // estimate past u64 saturates.
        assert_eq!(
            one(4, 4, 2).estimate(&[u64::MAX / 2]).est_cycles,
            u64::MAX - 1
        );
        assert_eq!(one(4, 4, 2).estimate(&[u64::MAX]).est_cycles, u64::MAX);
    }

    #[test]
    fn steady_state_detail_rate_tracks_the_plan() {
        let plan = SamplePlan::new(16, 16, 128).unwrap();
        let phases = tiling(plan, 128 * 130);
        // Census over the mid region only (boundary strata are fully
        // measured by design): the realized detail rate stays near the
        // planned 1/8 despite variable mini-periods.
        let mid = &phases[256..128 * 130 - 256];
        let detailed = mid.iter().filter(|&&x| x == Phase::Detailed).count();
        let rate = detailed as f64 / mid.len() as f64;
        let planned = plan.planned_detail_frac();
        assert!(
            (rate - planned).abs() < planned * 0.25,
            "realized detail rate {rate:.4} vs planned {planned:.4}"
        );
    }
}
