//! # trips-obs
//!
//! Hand-rolled observability for the TRIPS engine (no crates.io
//! dependencies, same policy as the vendored `serde`). Four facilities,
//! all designed so the *disabled* path adds nothing to the replay hot
//! loops:
//!
//! * [`mod@span`] — structured spans: a thread-local span stack with
//!   monotonic-clock timings, emitted as a JSONL trace journal when a
//!   sink is installed ([`span::enable_trace`], `trips-sweep --obs-trace`).
//!   [`report`] folds a journal back into a self-profile
//!   (inclusive/exclusive time per label, call counts, worst-case
//!   instance, wall-clock coverage) for `trips-sweep --obs-report`.
//! * [`metrics`] — a process-global registry of named [`metrics::Counter`]s,
//!   [`metrics::Gauge`]s, and log2-bucketed [`metrics::Histogram`]s. Counters
//!   and histograms are sharded across cache-line-padded atomics so
//!   hot-loop increments from the work-stealing pool never serialize on a
//!   shared line; [`metrics::snapshot_text`] renders a Prometheus-style
//!   exposition (`trips-sweep --metrics`).
//! * [`cost`] — per-row cost attribution: a [`cost::RowCost`] record
//!   scoped to one sweep point and snapshotted into `SweepRow`. Its
//!   columns are declared once, in order. One clock feeds it: a charging
//!   span ([`span::charged`]) adds the duration it journals to one
//!   [`CostKind`] column of the active row, so the self-profile and the
//!   CSV are two views of the same measurements. The row is a handle the
//!   pool carries into nested jobs, so its nanoseconds are busy time
//!   summed over every thread that worked for it. Timings live *only*
//!   here — never inside memoized or persisted artifacts — so sweep
//!   outputs stay byte-identical with observability on or off.
//! * [`log!`] — a leveled logging macro with a `TRIPS_LOG` environment
//!   filter (`error|warn|info|debug|trace|off`, default `info`) that the
//!   CLIs route their diagnostics through.
//!
//! ## Span-label naming convention
//!
//! Labels are `<subsystem>.<operation>` in `snake_case` segments joined
//! by dots: `sweep.run`, `sweep.point`, `pool.worker`, `pool.job`,
//! `session.compile`, `session.capture_trace`, `session.capture_risc`,
//! `session.replay_trips`, `session.replay_ooo`, `session.fit_phase`,
//! `store.load`, `store.save`, `cli.main`. The charging spans add
//! `replay.warm`, `replay.detailed`, `replay.checkpoint`,
//! `replay.restore`, `replay.extrapolate`, `store.read`, `store.verify`
//! and `store.decode`. Keep labels static (`&'static str`): per-instance
//! context goes in the optional `detail` field, built lazily only when a
//! trace sink is installed.

pub mod cost;
pub mod metrics;
pub mod report;
pub mod span;

pub use cost::{CostKind, RowCost, RowScope};
pub use metrics::{counter, gauge, histogram, snapshot_text};
pub use report::{fold_report, fold_stacks, SpanProfile};
pub use span::{
    charged, charged_with, enable_trace, flush_trace, span, span_with, trace_enabled, Span,
};

use std::io::Write as _;
use std::sync::OnceLock;

/// Severity of a [`log!`] line, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Unconditionally printed (unless `TRIPS_LOG=off`).
    Error,
    /// Suspicious but recoverable conditions.
    Warn,
    /// Default level: one-line progress and summary diagnostics.
    Info,
    /// Verbose per-step diagnostics.
    Debug,
    /// Firehose; intended for targeted debugging only.
    Trace,
}

impl Level {
    /// Fixed-width tag used in the rendered line.
    pub fn tag(self) -> &'static str {
        match self {
            Level::Error => "ERROR",
            Level::Warn => "WARN",
            Level::Info => "INFO",
            Level::Debug => "DEBUG",
            Level::Trace => "TRACE",
        }
    }

    /// Parse a `TRIPS_LOG` value. `off`/`none` silence everything
    /// (represented as `None`); unknown strings fall back to `Info`.
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "none" | "silent" => None,
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => Some(Level::Info),
        }
    }
}

fn max_level() -> Option<Level> {
    static MAX: OnceLock<Option<Level>> = OnceLock::new();
    *MAX.get_or_init(|| match std::env::var("TRIPS_LOG") {
        Ok(v) => Level::parse(&v),
        Err(_) => Some(Level::Info),
    })
}

/// True when a [`log!`] line at `level` would be printed under the
/// current `TRIPS_LOG` filter (read once per process).
pub fn log_enabled(level: Level) -> bool {
    match max_level() {
        Some(max) => level <= max,
        None => false,
    }
}

/// Render one log line to stderr: `[LEVEL target] message`.
///
/// Prefer the [`log!`] macro, which formats lazily after the level check.
pub fn log_write(level: Level, target: &str, args: std::fmt::Arguments<'_>) {
    let stderr = std::io::stderr();
    let mut lock = stderr.lock();
    let _ = writeln!(lock, "[{} {}] {}", level.tag(), target, args);
}

/// Leveled logging with a `TRIPS_LOG` env filter:
/// `log!(Level::Info, "sweep", "rows={n}")` prints
/// `[INFO sweep] rows=…` to stderr when `TRIPS_LOG` admits `Info`.
///
/// Formatting cost is only paid when the level is enabled.
#[macro_export]
macro_rules! log {
    ($level:expr, $target:expr, $($arg:tt)*) => {{
        let level = $level;
        if $crate::log_enabled(level) {
            $crate::log_write(level, $target, format_args!($($arg)*));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_ordering_matches_severity() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
        assert!(Level::Debug < Level::Trace);
    }

    #[test]
    fn level_parse_covers_filters() {
        assert_eq!(Level::parse("off"), None);
        assert_eq!(Level::parse("error"), Some(Level::Error));
        assert_eq!(Level::parse("WARN"), Some(Level::Warn));
        assert_eq!(Level::parse("info"), Some(Level::Info));
        assert_eq!(Level::parse("debug"), Some(Level::Debug));
        assert_eq!(Level::parse("trace"), Some(Level::Trace));
        // Unknown values fall back to the default level.
        assert_eq!(Level::parse("bogus"), Some(Level::Info));
    }
}
