//! The [`TimingCore`] trait and the replay drivers written once for every
//! core that implements it: the cores supply the per-unit model and one
//! stats finaliser; the drivers own the [`Schedule`], window metering,
//! extrapolation, live-point capture and restore, window assembly, cost
//! segments and `replay_events_total{core=…}` telemetry.

use std::time::Instant;

use trips_obs::cost::Timed;
use trips_obs::{CostKind, SegmentTimer};

use crate::{
    phased_summary, record_measured, Phase, PhasePlan, PhaseWindow, ReplayMode, SampleSummary,
    Schedule,
};

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
    /// The `core` label of this core's replay telemetry.
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
/// replay (and covering plans), the mode's [`Schedule`] otherwise.
///
/// # Errors
/// A phase plan fitted to another stream length, or a step failure.
pub fn replay<C: TimingCore>(mut core: C, mode: &ReplayMode) -> Result<C::Output, C::Error> {
    let units = core.units();
    let schedule = mode.schedule(units).map_err(C::reject)?;
    let start = Instant::now();
    let summary = match schedule {
        None => {
            let _timed = Timed::start(CostKind::Detailed);
            for _ in 0..units {
                core.step(Phase::Detailed)?;
            }
            None
        }
        Some(schedule) => Some(drive(&mut core, schedule, |_, _| {})?),
    };
    record_replay::<C>(units, start);
    Ok(core.finish(summary.as_ref()))
}

/// [`replay`] under `ReplayMode::Phased(plan)` that also snapshots the
/// machine at every window's `warm_start`, to seed [`replay_window`].
///
/// # Errors
/// A plan fitted to another stream, a plan that covers everything (no
/// warmed prefix to checkpoint), or a step failure.
pub fn capture_phased<C: TimingCore>(
    mut core: C,
    plan: &PhasePlan,
) -> Result<(C::Output, Vec<C::Snapshot>), C::Error> {
    let units = core.units();
    let mode = ReplayMode::Phased(plan.clone());
    let Some(schedule) = mode.schedule(units).map_err(C::reject)? else {
        return Err(C::reject(
            "phase plan covers everything: no warmed prefix to checkpoint".into(),
        ));
    };
    let start = Instant::now();
    let mut snaps = Vec::with_capacity(plan.windows.len());
    let mut boundaries = plan.windows.iter().map(|w| w.warm_start).peekable();
    let summary = drive(&mut core, schedule, |core, unit| {
        if boundaries.next_if_eq(&unit).is_some() {
            let _timed = Timed::start(CostKind::CheckpointSave);
            snaps.push(core.snapshot());
        }
    })?;
    record_replay::<C>(units, start);
    Ok((core.finish(Some(&summary)), snaps))
}

/// Replays one plan window from its live-point: restore, run the timed
/// warmup with its counters discarded, then measure the detailed span.
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
    let timed = Timed::start(CostKind::CheckpointRestore);
    let unit = core.restore(snap)?;
    drop(timed);
    if unit != w.warm_start {
        return Err(C::reject(format!(
            "live-point captured at unit {unit} cannot seed the window warming from {}",
            w.warm_start
        )));
    }
    let mut seg = SegmentTimer::new();
    seg.switch(CostKind::Warm);
    for _ in w.warm_start..w.detail_start {
        core.step(Phase::TimedWarm)?;
    }
    let mark = core.clock();
    seg.switch(CostKind::Detailed);
    for _ in w.detail_start..w.end {
        core.step(Phase::Detailed)?;
    }
    seg.finish();
    trips_obs::counter(&series::<C>("replay_events_total")).inc(w.end - w.warm_start);
    Ok(WindowMeasure {
        cycles: core.clock() - mark,
        stats: core.window_stats(),
    })
}

/// Assembles independently measured windows (one per plan window, in
/// order) into the result a sequential phased replay produces: the fresh
/// `core` absorbs every window's counters, and the estimate is the
/// phased sampler's own math.
///
/// # Errors
/// A measurement count that does not match the plan, or a plan fitted to
/// another stream.
pub fn assemble_windows<C: TimingCore>(
    mut core: C,
    plan: &PhasePlan,
    windows: &[WindowMeasure<C::Stats>],
) -> Result<C::Output, C::Error> {
    if windows.len() != plan.windows.len() || plan.total_units != core.units() {
        let (n, units) = (windows.len(), core.units());
        return Err(C::reject(format!(
            "{n} window measurements over {units} units for {plan}"
        )));
    }
    let _timed = Timed::start(CostKind::Extrapolate);
    let closed: Vec<(u64, u64, u64)> = windows
        .iter()
        .zip(&plan.windows)
        .map(|(m, w)| (m.cycles, w.detailed_units(), w.weight_units))
        .collect();
    let summary = phased_summary(plan.total_units, &closed);
    record_measured("phase", &summary);
    for m in windows {
        core.absorb(&m.stats);
    }
    Ok(core.finish(Some(&summary)))
}

/// Walks the whole stream through `schedule`, calling `before` ahead of
/// each unit. Cost segments switch only on phase transitions.
fn drive<C: TimingCore>(
    core: &mut C,
    mut schedule: Schedule,
    mut before: impl FnMut(&C, u64),
) -> Result<SampleSummary, C::Error> {
    let mut seg = SegmentTimer::new();
    for unit in 0..core.units() {
        before(core, unit);
        let phase = schedule.advance(core.clock());
        seg.switch(match phase {
            Phase::Detailed => CostKind::Detailed,
            Phase::Warm | Phase::TimedWarm => CostKind::Warm,
        });
        core.step(phase)?;
    }
    seg.finish();
    let _timed = Timed::start(CostKind::Extrapolate);
    Ok(schedule.finish(core.clock()))
}

/// The registry series `name{core="<label>"}` of core `C`.
fn series<C: TimingCore>(name: &str) -> String {
    format!("{name}{{core=\"{}\"}}", C::LABEL)
}

/// Per-core replay throughput telemetry: O(1) per whole-stream replay.
fn record_replay<C: TimingCore>(units: u64, start: Instant) {
    trips_obs::counter(&series::<C>("replay_events_total")).inc(units);
    let elapsed_ns = start.elapsed().as_nanos() as u64;
    if elapsed_ns > 0 && units > 0 {
        trips_obs::histogram(&series::<C>("replay_events_per_sec"))
            .observe(units.saturating_mul(1_000_000_000) / elapsed_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic core: unit `u` costs `cost(u)` cycles when timed, and
    /// the machine state is just the clock.
    struct Toy {
        units: u64,
        pos: u64,
        clock: u64,
        timed: u64,
    }

    fn cost(u: u64) -> u64 {
        if u.is_multiple_of(3) {
            12
        } else {
            5
        }
    }

    impl Toy {
        fn new(units: u64) -> Toy {
            Toy {
                units,
                pos: 0,
                clock: 0,
                timed: 0,
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
                self.clock += cost(self.pos);
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

    fn plan() -> PhasePlan {
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
    fn capture_and_restored_windows_match_the_sequential_replay() {
        let plan = plan();
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
