//! Fold a span journal (JSONL, see [`mod@crate::span`]) into a self-profile:
//! inclusive/exclusive time per label, call counts, the worst-case
//! instance, and how much of the run's wall-clock the spans account for.
//!
//! Spans on one thread are properly nested, so the tree is reconstructed
//! per thread from `(start_ns, dur_ns, depth)` interval containment —
//! the journal itself is flat and written in span-*end* order.

use serde::Value;

/// One parsed journal record.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Dense per-process thread ordinal.
    pub thread: u64,
    /// Nesting depth on that thread (0 = root).
    pub depth: u32,
    /// Static span label (`subsystem.operation`).
    pub label: String,
    /// Optional per-instance detail.
    pub detail: Option<String>,
    /// The cost column a charging span added its duration to.
    pub cost: Option<String>,
    /// Start, nanoseconds since the process observability epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

fn num(v: &Value) -> Result<u64, serde::Error> {
    match v {
        Value::U64(n) => Ok(*n),
        Value::I64(n) if *n >= 0 => Ok(*n as u64),
        Value::F64(f) if *f >= 0.0 => Ok(*f as u64),
        other => Err(serde::Error::msg(format!("expected number, got {other:?}"))),
    }
}

/// Parse a JSONL journal. Blank lines are skipped; a torn final line
/// (process killed mid-write) is ignored rather than fatal.
pub fn parse_journal(text: &str) -> Result<Vec<SpanRecord>, serde::Error> {
    let mut out = Vec::new();
    let mut lines = text.lines().peekable();
    while let Some(line) = lines.next() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let value = match serde::json::parse(line) {
            Ok(v) => v,
            // tolerate a torn trailing record only
            Err(_) if lines.peek().is_none() => break,
            Err(e) => return Err(e),
        };
        let text = |key| match serde::field(&value, key) {
            Ok(Value::Str(s)) => Some(s.clone()),
            _ => None,
        };
        let label = match serde::field(&value, "label")? {
            Value::Str(s) => s.clone(),
            other => return Err(serde::Error::msg(format!("bad label: {other:?}"))),
        };
        out.push(SpanRecord {
            thread: num(serde::field(&value, "thread")?)?,
            depth: num(serde::field(&value, "depth")?)? as u32,
            label,
            detail: text("detail"),
            cost: text("cost"),
            start_ns: num(serde::field(&value, "start_ns")?)?,
            dur_ns: num(serde::field(&value, "dur_ns")?)?,
        });
    }
    Ok(out)
}

/// Aggregated statistics for one span label.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelStats {
    /// The span label.
    pub label: String,
    /// Number of instances.
    pub count: u64,
    /// Total inclusive nanoseconds (self + children).
    pub incl_ns: u64,
    /// Total exclusive nanoseconds (self only).
    pub excl_ns: u64,
    /// Longest single instance, inclusive nanoseconds.
    pub max_ns: u64,
    /// Detail of the longest instance, when it carried one.
    pub max_detail: Option<String>,
}

/// A folded self-profile.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanProfile {
    /// Per-label statistics, sorted by exclusive time descending.
    pub labels: Vec<LabelStats>,
    /// Number of distinct threads that emitted spans.
    pub threads: u64,
    /// Journal wall-clock: latest span end minus earliest span start.
    pub wall_ns: u64,
    /// Sum of root-span (depth 0) durations across threads.
    pub root_ns: u64,
    /// `root_ns / Σ_threads observed-lifetime`: the fraction of every
    /// thread's observed lifetime (first span start to last span end on
    /// that thread) attributed to named root spans. Pool workers exit as
    /// soon as their deques drain, so their lifetimes — not the whole
    /// process wall-clock — are the fair denominator. The acceptance bar
    /// for a sweep run is ≥ 0.95.
    pub coverage: f64,
}

/// Fold parsed records into a [`SpanProfile`].
pub fn fold_report(records: &[SpanRecord]) -> SpanProfile {
    use std::collections::{BTreeMap, BTreeSet};

    let mut by_label: BTreeMap<&str, LabelStats> = BTreeMap::new();
    let mut threads: BTreeSet<u64> = BTreeSet::new();
    // Per-thread observed lifetime: (first span start, last span end).
    let mut extents: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    let mut min_start = u64::MAX;
    let mut max_end = 0u64;
    let mut root_ns = 0u64;

    // Reconstruct nesting per thread: order by (start, depth) so parents
    // precede their children, then track each record's children-sum with
    // an interval stack.
    let mut order: Vec<usize> = (0..records.len()).collect();
    order.sort_by_key(|&i| (records[i].thread, records[i].start_ns, records[i].depth));
    let mut child_sum = vec![0u64; records.len()];
    let mut stack: Vec<usize> = Vec::new(); // indices into `records`
    let mut cur_thread = None;
    for &i in &order {
        let r = &records[i];
        if cur_thread != Some(r.thread) {
            stack.clear();
            cur_thread = Some(r.thread);
        }
        while let Some(&top) = stack.last() {
            let t = &records[top];
            if t.start_ns + t.dur_ns <= r.start_ns && !(t.dur_ns == 0 && t.start_ns == r.start_ns) {
                stack.pop();
            } else if t.depth >= r.depth {
                // sibling at equal start (zero-width parent impossible):
                // treat as closed
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&parent) = stack.last() {
            child_sum[parent] += r.dur_ns;
        }
        stack.push(i);
    }

    for (i, r) in records.iter().enumerate() {
        threads.insert(r.thread);
        min_start = min_start.min(r.start_ns);
        max_end = max_end.max(r.start_ns + r.dur_ns);
        let ext = extents.entry(r.thread).or_insert((u64::MAX, 0));
        ext.0 = ext.0.min(r.start_ns);
        ext.1 = ext.1.max(r.start_ns + r.dur_ns);
        if r.depth == 0 {
            root_ns += r.dur_ns;
        }
        let entry = by_label
            .entry(r.label.as_str())
            .or_insert_with(|| LabelStats {
                label: r.label.clone(),
                count: 0,
                incl_ns: 0,
                excl_ns: 0,
                max_ns: 0,
                max_detail: None,
            });
        entry.count += 1;
        entry.incl_ns += r.dur_ns;
        entry.excl_ns += r.dur_ns.saturating_sub(child_sum[i]);
        if r.dur_ns >= entry.max_ns {
            entry.max_ns = r.dur_ns;
            entry.max_detail = r.detail.clone();
        }
    }

    let wall_ns = max_end.saturating_sub(if min_start == u64::MAX { 0 } else { min_start });
    let threads_n = threads.len() as u64;
    let denom: u64 = extents
        .values()
        .map(|&(lo, hi)| hi.saturating_sub(lo))
        .sum();
    let coverage = if denom == 0 {
        0.0
    } else {
        root_ns as f64 / denom as f64
    };
    let mut labels: Vec<LabelStats> = by_label.into_values().collect();
    labels.sort_by(|a, b| b.excl_ns.cmp(&a.excl_ns).then(a.label.cmp(&b.label)));
    SpanProfile {
        labels,
        threads: threads_n,
        wall_ns,
        root_ns,
        coverage,
    }
}

/// Fold parsed records into flamegraph "folded stacks" lines — one
/// `root;child;leaf <exclusive_ns>` line per distinct span path, summed
/// across instances and threads, sorted lexically so the output is
/// deterministic. The format is what `flamegraph.pl` / inferno consume
/// directly; paths whose exclusive time is zero are dropped (standard
/// folded-stack convention — they would render as invisible frames).
pub fn fold_stacks(records: &[SpanRecord]) -> String {
    use std::collections::BTreeMap;

    // Same per-thread interval-containment walk as `fold_report`, but
    // carrying each record's full ancestor path.
    let mut order: Vec<usize> = (0..records.len()).collect();
    order.sort_by_key(|&i| (records[i].thread, records[i].start_ns, records[i].depth));
    let mut child_sum = vec![0u64; records.len()];
    let mut paths: Vec<String> = vec![String::new(); records.len()];
    let mut stack: Vec<usize> = Vec::new();
    let mut cur_thread = None;
    for &i in &order {
        let r = &records[i];
        if cur_thread != Some(r.thread) {
            stack.clear();
            cur_thread = Some(r.thread);
        }
        while let Some(&top) = stack.last() {
            let t = &records[top];
            let ended =
                t.start_ns + t.dur_ns <= r.start_ns && !(t.dur_ns == 0 && t.start_ns == r.start_ns);
            // Ended, or a sibling at equal start: either way it is closed.
            if ended || t.depth >= r.depth {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&parent) = stack.last() {
            child_sum[parent] += r.dur_ns;
            paths[i] = format!("{};{}", paths[parent], r.label);
        } else {
            paths[i] = r.label.clone();
        }
        stack.push(i);
    }

    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    for (i, r) in records.iter().enumerate() {
        let excl = r.dur_ns.saturating_sub(child_sum[i]);
        if excl > 0 {
            *folded.entry(std::mem::take(&mut paths[i])).or_insert(0) += excl;
        }
    }
    let mut out = String::new();
    for (path, ns) in folded {
        out.push_str(&format!("{path} {ns}\n"));
    }
    out
}

impl SpanProfile {
    /// Render the profile as an aligned text table, worst offenders
    /// (by exclusive time) first.
    pub fn render(&self) -> String {
        let ms = |ns: u64| ns as f64 / 1e6;
        let mut out = String::new();
        out.push_str(&format!(
            "self-profile: {} labels over {} threads, wall {:.3} ms, span coverage {:.1}%\n",
            self.labels.len(),
            self.threads,
            ms(self.wall_ns),
            self.coverage * 100.0
        ));
        out.push_str(&format!(
            "{:<24} {:>8} {:>12} {:>12} {:>12}  {}\n",
            "label", "count", "incl_ms", "excl_ms", "worst_ms", "worst_detail"
        ));
        for l in &self.labels {
            out.push_str(&format!(
                "{:<24} {:>8} {:>12.3} {:>12.3} {:>12.3}  {}\n",
                l.label,
                l.count,
                ms(l.incl_ns),
                ms(l.excl_ns),
                ms(l.max_ns),
                l.max_detail.as_deref().unwrap_or("-")
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(thread: u64, depth: u32, label: &str, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            thread,
            depth,
            label: label.to_string(),
            detail: None,
            cost: None,
            start_ns: start,
            dur_ns: dur,
        }
    }

    #[test]
    fn parse_journal_round_trips_records() {
        let text = "\
{\"thread\":0,\"depth\":0,\"label\":\"cli.main\",\"start_ns\":0,\"dur_ns\":100}\n\
{\"thread\":1,\"depth\":1,\"label\":\"pool.job\",\"detail\":\"bzip2\",\"start_ns\":10,\"dur_ns\":20}\n\
{\"thread\":1,\"depth\":2,\"label\":\"replay.warm\",\"cost\":\"warm_ns\",\"start_ns\":12,\"dur_ns\":5}\n";
        let recs = parse_journal(text).unwrap();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].label, "cli.main");
        assert_eq!(recs[1].detail.as_deref(), Some("bzip2"));
        assert_eq!(recs[1].cost, None);
        assert_eq!(recs[2].cost.as_deref(), Some("warm_ns"));
    }

    #[test]
    fn parse_journal_tolerates_torn_tail() {
        let text =
            "{\"thread\":0,\"depth\":0,\"label\":\"a\",\"start_ns\":0,\"dur_ns\":5}\n{\"thre";
        let recs = parse_journal(text).unwrap();
        assert_eq!(recs.len(), 1);
    }

    #[test]
    fn exclusive_time_subtracts_children() {
        // root [0,100) with children [10,30) and [40,90); child2 has a
        // grandchild [50,60).
        let recs = vec![
            rec(0, 0, "root", 0, 100),
            rec(0, 1, "child", 10, 20),
            rec(0, 1, "child", 40, 50),
            rec(0, 2, "grand", 50, 10),
        ];
        let prof = fold_report(&recs);
        let get = |l: &str| prof.labels.iter().find(|s| s.label == l).unwrap().clone();
        assert_eq!(get("root").incl_ns, 100);
        assert_eq!(get("root").excl_ns, 100 - 20 - 50);
        assert_eq!(get("child").incl_ns, 70);
        assert_eq!(get("child").excl_ns, 70 - 10);
        assert_eq!(get("grand").excl_ns, 10);
        assert_eq!(get("child").count, 2);
        assert_eq!(get("child").max_ns, 50);
    }

    #[test]
    fn coverage_counts_roots_against_thread_lifetimes() {
        // Thread 0: one root covering its whole [0,100) lifetime.
        // Thread 1: two roots [0,40) and [60,100) with a 20ns gap inside
        // a [0,100) lifetime. Coverage = (100 + 80) / (100 + 100) = 0.9 —
        // an early-exiting thread is only charged for time it was alive.
        let recs = vec![
            rec(0, 0, "cli.main", 0, 100),
            rec(1, 0, "pool.worker", 0, 40),
            rec(1, 0, "pool.worker", 60, 40),
            rec(1, 1, "pool.job", 65, 10),
        ];
        let prof = fold_report(&recs);
        assert_eq!(prof.threads, 2);
        assert_eq!(prof.wall_ns, 100);
        assert_eq!(prof.root_ns, 180);
        assert!((prof.coverage - 0.9).abs() < 1e-9);
        let rendered = prof.render();
        assert!(rendered.contains("span coverage 90.0%"));
        assert!(rendered.contains("pool.worker"));
    }

    #[test]
    fn coverage_ignores_dead_time_after_worker_exit() {
        // A worker that exits at t=50 while the main root runs to t=200
        // must not dilute coverage: 200/200 + 50/50 → 1.0.
        let recs = vec![
            rec(0, 0, "cli.main", 0, 200),
            rec(1, 0, "pool.worker", 0, 50),
        ];
        let prof = fold_report(&recs);
        assert!((prof.coverage - 1.0).abs() < 1e-9);
    }

    #[test]
    fn folded_stacks_attribute_exclusive_time_per_path() {
        let recs = vec![
            rec(0, 0, "root", 0, 100),
            rec(0, 1, "child", 10, 20),
            rec(0, 1, "child", 40, 50),
            rec(0, 2, "grand", 50, 10),
            rec(1, 0, "root", 0, 30),
        ];
        let folded = fold_stacks(&recs);
        let lines: Vec<&str> = folded.lines().collect();
        // root: thread-0 exclusive (100 − 20 − 50) + thread-1 root (30).
        assert!(lines.contains(&"root 60"), "{folded}");
        // child: two instances, 70 inclusive − 10 grandchild.
        assert!(lines.contains(&"root;child 60"), "{folded}");
        assert!(lines.contains(&"root;child;grand 10"), "{folded}");
        assert_eq!(lines.len(), 3);
        // Deterministic: lexically sorted and stable across folds.
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
        assert_eq!(fold_stacks(&recs), folded);
    }

    #[test]
    fn siblings_at_equal_start_do_not_nest() {
        let recs = vec![
            rec(0, 0, "root", 0, 100),
            rec(0, 1, "a", 0, 10),
            rec(0, 1, "b", 10, 10),
        ];
        let prof = fold_report(&recs);
        let root = prof.labels.iter().find(|s| s.label == "root").unwrap();
        assert_eq!(root.excl_ns, 80);
    }
}
