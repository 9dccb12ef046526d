//! Structured spans with a thread-local stack, journaled as JSONL.
//!
//! A [`Span`] is an RAII guard: [`span()`] pushes, dropping pops and emits
//! one JSON line `{"thread":…,"depth":…,"label":…,"detail":…,"start_ns":…,
//! "dur_ns":…}` to the installed sink. Timestamps are nanoseconds on the
//! monotonic clock relative to a process-wide epoch, so records from all
//! threads share one timeline. With no sink installed ([`enable_trace`]
//! never called — the default), [`span()`] is a single relaxed atomic load
//! and the guard is inert: the hot loops pay nothing.
//!
//! A charging span ([`charged`], [`charged_with`]) also adds its duration
//! to one [`CostKind`] column of the active cost row ([`crate::cost`]) and
//! journals that column's name under `"cost"`, so the self-profile and
//! the row's cost columns are two views of one measurement. It reads the
//! clock only when tracing is on or a row is active; otherwise it is the
//! same relaxed atomic load plus one thread-local check.
//!
//! Spans on one thread are properly nested (guards drop in reverse
//! creation order), so the journal reconstructs the call tree from
//! `(thread, start_ns, dur_ns, depth)` alone — see [`crate::report`].

use std::fs::File;
use std::io::{BufWriter, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::cost::{self, CostKind};

static TRACE_ON: AtomicBool = AtomicBool::new(false);

fn sink() -> &'static Mutex<Option<BufWriter<File>>> {
    static SINK: OnceLock<Mutex<Option<BufWriter<File>>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(None))
}

/// Process-wide monotonic epoch: all span timestamps are relative to the
/// first observability event in the process.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Small dense thread ordinal (0, 1, 2, …) assigned on first use per
/// thread; stable for the thread's lifetime and cheaper to journal than
/// `std::thread::ThreadId`. Also used by the metrics shard selector.
pub(crate) fn thread_ordinal() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static ORDINAL: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ORDINAL.with(|o| *o)
}

thread_local! {
    static DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// Install a JSONL trace sink at `path` and turn span journaling on for
/// the rest of the process. Call once, early (e.g. from the CLI when
/// `--obs-trace` is given). Remember to [`flush_trace`] before exit.
pub fn enable_trace(path: &std::path::Path) -> std::io::Result<()> {
    let file = File::create(path)?;
    *sink().lock().unwrap() = Some(BufWriter::new(file));
    epoch(); // pin the epoch before any span is emitted
    TRACE_ON.store(true, Ordering::Release);
    Ok(())
}

/// True when a trace sink is installed (spans are being journaled).
#[inline]
pub fn trace_enabled() -> bool {
    TRACE_ON.load(Ordering::Relaxed)
}

/// Flush buffered journal records to disk. Harmless when tracing is off.
pub fn flush_trace() {
    if let Some(w) = sink().lock().unwrap().as_mut() {
        let _ = w.flush();
    }
}

struct ActiveSpan {
    label: &'static str,
    detail: Option<String>,
    start: Instant,
    start_ns: u64,
    depth: u32,
    charge: Option<CostKind>,
}

/// RAII span guard; the span ends (and is journaled) when this drops.
/// Inert when tracing is off and it charges no row.
pub struct Span(Option<ActiveSpan>);

/// Open a span named `label` (see the crate-level naming convention).
#[inline]
pub fn span(label: &'static str) -> Span {
    start(label, None, || None)
}

/// Open a span with a lazily-built per-instance detail string (workload
/// name, config axis, …). `detail` is only invoked when tracing is on.
#[inline]
pub fn span_with<F: FnOnce() -> String>(label: &'static str, detail: F) -> Span {
    start(label, None, || Some(detail()))
}

/// Open a span that charges its duration to `kind` of the active cost
/// row. Without tracing and without a row it is inert.
#[inline]
pub fn charged(label: &'static str, kind: CostKind) -> Span {
    start(label, Some(kind), || None)
}

/// [`charged`] with a lazily-built detail string, built only when tracing
/// is on.
#[inline]
pub fn charged_with(label: &'static str, kind: CostKind, detail: impl FnOnce() -> String) -> Span {
    start(label, Some(kind), || Some(detail()))
}

/// The one span opener: a plain span (`kind` is `None`) costs one relaxed
/// atomic load when tracing is off, a charging one also a thread-local
/// check for an active row.
#[inline]
fn start(
    label: &'static str,
    kind: Option<CostKind>,
    detail: impl FnOnce() -> Option<String>,
) -> Span {
    let tracing = trace_enabled();
    let charge = kind.filter(|_| cost::in_row());
    if !tracing && charge.is_none() {
        return Span(None);
    }
    let depth = DEPTH.with(|d| {
        let v = d.get();
        d.set(v + 1);
        v
    });
    let start = Instant::now();
    Span(Some(ActiveSpan {
        label,
        detail: if tracing { detail() } else { None },
        start,
        start_ns: start.duration_since(epoch()).as_nanos() as u64,
        depth,
        charge,
    }))
}

impl Span {
    /// True when the span measures: tracing is on or it charges a row.
    #[cfg(test)]
    pub(crate) fn reads_clock(&self) -> bool {
        self.0.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(s) = self.0.take() else { return };
        let dur_ns = s.start.elapsed().as_nanos() as u64;
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        if let Some(kind) = s.charge {
            cost::charge(kind, dur_ns);
        }
        if !trace_enabled() {
            return;
        }
        let mut line = String::with_capacity(96);
        line.push_str("{\"thread\":");
        line.push_str(&thread_ordinal().to_string());
        line.push_str(",\"depth\":");
        line.push_str(&s.depth.to_string());
        line.push_str(",\"label\":\"");
        push_escaped(&mut line, s.label);
        line.push('"');
        if let Some(detail) = &s.detail {
            line.push_str(",\"detail\":\"");
            push_escaped(&mut line, detail);
            line.push('"');
        }
        if let Some(kind) = s.charge {
            line.push_str(",\"cost\":\"");
            line.push_str(kind.column());
            line.push('"');
        }
        line.push_str(",\"start_ns\":");
        line.push_str(&s.start_ns.to_string());
        line.push_str(",\"dur_ns\":");
        line.push_str(&dur_ns.to_string());
        line.push_str("}\n");
        if let Some(w) = sink().lock().unwrap().as_mut() {
            let _ = w.write_all(line.as_bytes());
        }
    }
}

fn push_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_is_inert() {
        assert!(!trace_enabled());
        let g = span("test.inert");
        assert!(g.0.is_none());
        drop(g);
        let g = span_with("test.inert", || unreachable!("detail built while disabled"));
        assert!(g.0.is_none());
    }

    #[test]
    fn thread_ordinals_are_distinct() {
        let here = thread_ordinal();
        let there = std::thread::spawn(thread_ordinal).join().unwrap();
        assert_ne!(here, there);
        assert_eq!(here, thread_ordinal());
    }

    #[test]
    fn escaping_produces_valid_json_fragments() {
        let mut s = String::new();
        push_escaped(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "a\\\"b\\\\c\\nd\\u0001");
    }
}
