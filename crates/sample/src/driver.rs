//! The [`TimingCore`] trait and the replay drivers written once for every
//! core that implements it. The cores supply the per-unit model and one
//! stats finaliser; the drivers own the rest. One walker drives a
//! replay's window list (functional warming up to each window, then the
//! per-window body), one per-window body meters every window — the
//! walker's and a restored live-point's alike — and one estimator turns
//! the measurements into a result, sequential or assembled. The drivers
//! also own the charging spans, one per contiguous run of units; the
//! caller records what a replay walked from what it returns.

use std::ops::Range;

use trips_obs::{charged, CostKind};

use crate::{Phase, PhasePlan, PhaseWindow, ReplayMode, SampleSummary, Span, Windows};

/// A timing model over one recorded stream, positioned at a unit.
///
/// [`TimingCore::step`] consumes the next unit: `Warm` updates long-lived
/// state only, `TimedWarm` runs the detailed model and discards its
/// counters, `Detailed` runs it and counts. Snapshots hold machine state,
/// never accounting, so a restored core counts exactly what it replays.
pub trait TimingCore {
    /// Warmed machine state at a stream boundary (a live-point).
    type Snapshot;
    /// The counters a replay accumulates.
    type Stats;
    /// What a finished replay returns.
    type Output;
    /// Replay failure.
    type Error;
    /// The `core` label of this core's replay telemetry (recorded by the
    /// engine session that runs the replay).
    const LABEL: &'static str;

    /// Units in the recorded stream.
    fn units(&self) -> u64;
    /// The monotonic clock measurement windows are metered on.
    fn clock(&self) -> u64;
    /// Consumes the next stream unit in `phase`.
    ///
    /// # Errors
    /// A stream that does not match the program it is replayed against.
    fn step(&mut self, phase: Phase) -> Result<(), Self::Error>;
    /// The machine state at the current unit.
    fn snapshot(&self) -> Self::Snapshot;
    /// Restores a snapshot and repositions at its unit, which it returns.
    ///
    /// # Errors
    /// A snapshot that does not fit this machine's configuration.
    fn restore(&mut self, snap: &Self::Snapshot) -> Result<u64, Self::Error>;
    /// The counters accumulated so far, without clock-derived fields.
    fn window_stats(self) -> Self::Stats;
    /// Adds a window's counters into this machine's accounting.
    fn absorb(&mut self, window: &Self::Stats);
    /// The stats finaliser: the counters plus, for a sampled or phased
    /// replay, the stream extent and the cycles of `summary`.
    fn finish(self, summary: Option<&SampleSummary>) -> Self::Output;
    /// The error a driver reports for `why`.
    fn reject(why: String) -> Self::Error;
}

/// One window's accounting from a restored replay ([`replay_window`]);
/// bit-identical to its share of a sequential phased replay.
#[derive(Debug, Clone)]
pub struct WindowMeasure<S> {
    /// Clock cycles the measured span took.
    pub cycles: u64,
    /// Counters of the measured span only.
    pub stats: S,
}

/// Replays the whole stream under `mode`: a plain detailed loop for full
/// replay (and covering plans), a walk of the mode's window list
/// otherwise.
///
/// # Errors
/// A phase plan that is malformed or fitted to another stream length, or
/// a step failure.
pub fn replay<C: TimingCore>(mut core: C, mode: &ReplayMode) -> Result<C::Output, C::Error> {
    let units = core.units();
    let windows = mode.windows(units).map_err(C::reject)?;
    let summary = match windows {
        None => {
            run(&mut core, Phase::Detailed, 0..units)?;
            None
        }
        Some(windows) => Some(walk(&mut core, &windows, |_| {})?),
    };
    Ok(core.finish(summary.as_ref()))
}

/// [`replay`] under `ReplayMode::Phased(plan)` that also snapshots the
/// machine at every window's `warm_start`, to seed [`replay_window`].
///
/// # Errors
/// A plan that covers everything (no warmed prefix to checkpoint), is
/// malformed or was fitted to another stream, or a step failure.
pub fn capture_phased<C: TimingCore>(
    mut core: C,
    plan: &PhasePlan,
) -> Result<(C::Output, Vec<C::Snapshot>), C::Error> {
    if plan.covers_everything() {
        return Err(C::reject(
            "phase plan covers everything: no warmed prefix to checkpoint".into(),
        ));
    }
    let units = core.units();
    let windows = Windows::phased(plan, units).map_err(C::reject)?;
    let mut snaps = Vec::with_capacity(plan.windows.len());
    let summary = walk(&mut core, &windows, |core| {
        let _span = charged("replay.checkpoint", CostKind::CheckpointSave);
        snaps.push(core.snapshot());
    })?;
    Ok((core.finish(Some(&summary)), snaps))
}

/// Replays one plan window from its live-point: restore, then the
/// walker's own per-window body.
///
/// # Errors
/// A window that breaks `warm_start ≤ detail_start < end ≤ units`, a
/// snapshot that does not fit the machine or was captured at another
/// boundary, or a step failure.
pub fn replay_window<C: TimingCore>(
    mut core: C,
    w: &PhaseWindow,
    snap: &C::Snapshot,
) -> Result<WindowMeasure<C::Stats>, C::Error> {
    if w.warm_start > w.detail_start || w.detail_start >= w.end || w.end > core.units() {
        let units = core.units();
        return Err(C::reject(format!("{w:?} is malformed over {units} units")));
    }
    let unit = {
        let _span = charged("replay.restore", CostKind::CheckpointRestore);
        core.restore(snap)?
    };
    if unit != w.warm_start {
        return Err(C::reject(format!(
            "live-point captured at unit {unit} cannot seed the window warming from {}",
            w.warm_start
        )));
    }
    let cycles = measure(&mut core, &Span::from(w))?;
    Ok(WindowMeasure {
        cycles,
        stats: core.window_stats(),
    })
}

/// Assembles independently measured windows (one per plan window, in
/// order) into the result a sequential phased replay produces: the fresh
/// `core` absorbs every window's counters, and the estimate is the
/// walker's own estimator.
///
/// # Errors
/// A measurement count that does not match the plan, or a plan that is
/// malformed or fitted to another stream.
pub fn assemble_windows<C: TimingCore>(
    mut core: C,
    plan: &PhasePlan,
    windows: &[WindowMeasure<C::Stats>],
) -> Result<C::Output, C::Error> {
    let list = Windows::phased(plan, core.units()).map_err(C::reject)?;
    if windows.len() != list.spans.len() {
        let n = windows.len();
        return Err(C::reject(format!("{n} window measurements for {plan}")));
    }
    let _span = charged("replay.extrapolate", CostKind::Extrapolate);
    let cycles: Vec<u64> = windows.iter().map(|m| m.cycles).collect();
    let summary = list.estimate(&cycles);
    for m in windows {
        core.absorb(&m.stats);
    }
    Ok(core.finish(Some(&summary)))
}

/// The one window walker: warms functionally up to each window's
/// `warm_start`, calls `at_window` there (the live-point capture hook),
/// meters the window with [`measure`], warms through the rest of the
/// stream and estimates.
fn walk<C: TimingCore>(
    core: &mut C,
    windows: &Windows,
    mut at_window: impl FnMut(&C),
) -> Result<SampleSummary, C::Error> {
    let mut cycles = Vec::with_capacity(windows.spans.len());
    let mut pos = 0;
    for (span, _) in &windows.spans {
        run(core, Phase::Warm, pos..span.warm_start)?;
        at_window(core);
        cycles.push(measure(core, span)?);
        pos = span.end;
    }
    run(core, Phase::Warm, pos..windows.total)?;
    let _span = charged("replay.extrapolate", CostKind::Extrapolate);
    Ok(windows.estimate(&cycles))
}

/// The per-window body: from `span.warm_start`, the timed warmup with its
/// counters discarded, then the detailed span metered on the core's
/// clock. Returns the detailed span's cycles.
fn measure<C: TimingCore>(core: &mut C, span: &Span) -> Result<u64, C::Error> {
    let (warmup, detail) = (
        span.warm_start..span.detail_start,
        span.detail_start..span.end,
    );
    run(core, Phase::TimedWarm, warmup)?;
    let mark = core.clock();
    run(core, Phase::Detailed, detail)?;
    Ok(core.clock() - mark)
}

/// Steps every unit of `units` in `phase` under one charging span:
/// `replay.detailed` for detailed runs, `replay.warm` for warm and timed
/// warm ones.
fn run<C: TimingCore>(core: &mut C, phase: Phase, units: Range<u64>) -> Result<(), C::Error> {
    if units.is_empty() {
        return Ok(());
    }
    let _span = match phase {
        Phase::Detailed => charged("replay.detailed", CostKind::Detailed),
        Phase::Warm | Phase::TimedWarm => charged("replay.warm", CostKind::Warm),
    };
    for _ in units {
        core.step(phase)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{tiny_phase_plan, Toy};

    #[test]
    fn capture_and_restored_windows_match_the_sequential_replay() {
        let plan = tiny_phase_plan();
        let sequential = replay(Toy::new(40), &ReplayMode::Phased(plan.clone())).unwrap();
        let (captured, snaps) = capture_phased(Toy::new(40), &plan).unwrap();
        assert_eq!(captured, sequential);
        assert_eq!(snaps.iter().map(|s| s.0).collect::<Vec<_>>(), [0, 14, 30]);
        let measures: Vec<WindowMeasure<u64>> = plan
            .windows
            .iter()
            .zip(&snaps)
            .map(|(w, s)| replay_window(Toy::new(40), w, s).unwrap())
            .collect();
        assert_eq!(
            assemble_windows(Toy::new(40), &plan, &measures).unwrap(),
            sequential
        );
        assert!(assemble_windows(Toy::new(40), &plan, &measures[1..]).is_err());
        assert!(assemble_windows(Toy::new(41), &plan, &measures).is_err());
        assert!(capture_phased(Toy::new(39), &plan).is_err());
    }
}
