//! A metrics registry value: named counters, gauges, and log2-bucketed
//! histograms. Each engine `Session` owns one [`Registry`] and hands it
//! to the store and the pools it runs, so every series counts one
//! session's work and nothing else.
//!
//! Each counter, gauge and histogram bucket is one relaxed atomic cell.
//! Updates come once per artifact, replay or pool job, never per replayed
//! unit, so one shared cell per value is enough; reads ([`Counter::get`],
//! snapshots) are racy-consistent, which is fine for telemetry.
//!
//! Metric names follow Prometheus conventions and may embed labels
//! directly: `pool_worker_busy_ns{worker="3"}` registers a distinct
//! series per label set. [`Registry::render`] renders the whole registry in
//! deterministic (sorted) order as Prometheus text exposition, ready for
//! `trips-sweep --metrics` today and the streaming sweep daemon later.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Number of log2 histogram buckets: bucket `b > 0` counts values in
/// `[2^(b-1), 2^b)`, bucket 0 counts zeros, bucket 64 counts the rest.
pub const BUCKETS: usize = 65;

/// Monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `n`.
    #[inline]
    pub fn inc(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins gauge holding a `u64`.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Set the gauge value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Read the gauge value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Log2-bucketed histogram of `u64` samples.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

/// Bucket index for a sample: 0 for zero, else `64 - leading_zeros`,
/// capped at [`BUCKETS`]` - 1`.
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros() as usize).min(BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `b` (`u64::MAX` for the last).
pub fn bucket_bound(b: usize) -> u64 {
    if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one sample.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets().iter().sum()
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts.
    pub fn buckets(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|b| self.buckets[b].load(Ordering::Relaxed))
    }
}

#[derive(Clone, Debug)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A registry of named series. Cloning yields another handle on the same
/// series (the registry is shared, not copied), so a session, its store
/// and its pools all record into the one registry the session renders.
#[derive(Clone, Debug, Default)]
pub struct Registry(Arc<Mutex<BTreeMap<String, Metric>>>);

impl Registry {
    /// The series map. A panic elsewhere cannot leave it half-updated
    /// (every update is one insert), so a poisoned lock is recovered.
    fn series(&self) -> MutexGuard<'_, BTreeMap<String, Metric>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The series named `name`, registered as `make()` on first use.
    fn entry(&self, name: &str, make: fn() -> Metric) -> Metric {
        let mut reg = self.series();
        reg.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// Looks up (registering on first use) the counter named `name`.
    ///
    /// Registration takes the registry lock; cache the returned `Arc`
    /// outside hot loops. Panics if `name` is already registered as
    /// another type.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.entry(name, || Metric::Counter(Arc::default())) {
            Metric::Counter(c) => c,
            _ => mistyped(name),
        }
    }

    /// Looks up (registering on first use) the gauge named `name`.
    ///
    /// Panics if `name` is already registered as another type.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self.entry(name, || Metric::Gauge(Arc::default())) {
            Metric::Gauge(g) => g,
            _ => mistyped(name),
        }
    }

    /// Looks up (registering on first use) the histogram named `name`.
    ///
    /// Panics if `name` is already registered as another type.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        match self.entry(name, || Metric::Histogram(Arc::default())) {
            Metric::Histogram(h) => h,
            _ => mistyped(name),
        }
    }

    /// Renders every registered series as Prometheus-style text
    /// exposition, in sorted name order (deterministic given the same
    /// series).
    ///
    /// Histograms render cumulative `_bucket{le=…}` series plus `_sum`
    /// and `_count`, skipping empty buckets to keep snapshots readable; a
    /// labeled histogram adds `le` to its own label set.
    pub fn render(&self) -> String {
        let reg = self.series();
        let mut out = String::new();
        let mut typed: BTreeMap<&str, &'static str> = BTreeMap::new();
        for (name, metric) in reg.iter() {
            let base = base_name(name);
            let kind = match metric {
                Metric::Counter(_) => "counter",
                Metric::Gauge(_) => "gauge",
                Metric::Histogram(_) => "histogram",
            };
            if typed.insert(base, kind).is_none() {
                out.push_str(&format!("# TYPE {base} {kind}\n"));
            }
            match metric {
                Metric::Counter(c) => out.push_str(&format!("{name} {}\n", c.get())),
                Metric::Gauge(g) => out.push_str(&format!("{name} {}\n", g.get())),
                Metric::Histogram(h) => {
                    // The suffixes go on the base name, and `le` joins the
                    // series' own labels: `base_bucket{labels,le="…"}`,
                    // `base_sum{labels}`, `base_count{labels}`.
                    let set = labels(name).unwrap_or("");
                    let inner = set.trim_start_matches('{').trim_end_matches('}');
                    let sep = if inner.is_empty() { "" } else { "," };
                    let mut cum = 0u64;
                    for (b, n) in h.buckets().iter().enumerate() {
                        cum += n;
                        if *n == 0 {
                            continue;
                        }
                        let le = bucket_bound(b);
                        out.push_str(&format!("{base}_bucket{{{inner}{sep}le=\"{le}\"}} {cum}\n"));
                    }
                    out.push_str(&format!("{base}_sum{set} {}\n", h.sum()));
                    out.push_str(&format!("{base}_count{set} {}\n", h.count()));
                }
            }
        }
        out
    }
}

fn mistyped(name: &str) -> ! {
    panic!("metric {name:?} already registered with a different type")
}

fn base_name(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

fn labels(name: &str) -> Option<&str> {
    name.find('{').map(|i| &name[i..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_threads() {
        let c = Registry::default().counter("test_counter_total");
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    c.inc(3);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 4 * 1000 * 3);
    }

    #[test]
    fn histogram_buckets_partition_the_line() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        for b in 1..BUCKETS - 1 {
            // the bound of bucket b is the largest value bucket b holds
            assert_eq!(bucket_of(bucket_bound(b)), b, "bucket {b}");
            assert_eq!(bucket_of(bucket_bound(b) + 1), b + 1, "bucket {b}");
        }
    }

    #[test]
    fn histogram_conserves_count_and_sum() {
        let h = Registry::default().histogram("test_hist_ns");
        for v in [0u64, 1, 7, 8, 1023, 1024, 1 << 40] {
            h.observe(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 1 + 7 + 8 + 1023 + 1024 + (1u64 << 40));
        assert_eq!(h.buckets().iter().sum::<u64>(), h.count());
    }

    #[test]
    fn snapshot_is_deterministic_and_typed() {
        let reg = Registry::default();
        reg.counter("test_snap_b_total").inc(2);
        reg.gauge("test_snap_a").set(9);
        let one = reg.render();
        assert_eq!(one, reg.render());
        assert_eq!(
            one,
            "# TYPE test_snap_a gauge\ntest_snap_a 9\n\
             # TYPE test_snap_b_total counter\ntest_snap_b_total 2\n"
        );
        // A clone is a handle on the same series; a new registry is not.
        reg.clone().counter("test_snap_b_total").inc(1);
        assert_eq!(reg.counter("test_snap_b_total").get(), 3);
        assert_eq!(Registry::default().render(), "");
    }

    #[test]
    fn labeled_series_are_distinct() {
        let reg = Registry::default();
        reg.gauge("test_worker_busy_ns{worker=\"0\"}").set(5);
        reg.gauge("test_worker_busy_ns{worker=\"1\"}").set(6);
        let snap = reg.render();
        assert!(snap.contains("test_worker_busy_ns{worker=\"0\"} 5"));
        assert!(snap.contains("test_worker_busy_ns{worker=\"1\"} 6"));
        // one TYPE line for the shared base name
        assert_eq!(snap.matches("# TYPE test_worker_busy_ns gauge").count(), 1);
    }

    /// Whether `line` is a Prometheus sample line:
    /// `^[A-Za-z_:][A-Za-z0-9_:]*(\{[^}]*\})? \S+$`.
    fn is_sample_line(line: &str) -> bool {
        let name_end = line
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == ':'))
            .unwrap_or(line.len());
        let (name, mut rest) = line.split_at(name_end);
        if name.is_empty() || name.starts_with(|c: char| c.is_ascii_digit()) {
            return false;
        }
        if let Some(set) = rest.strip_prefix('{') {
            let Some(close) = set.find('}') else {
                return false;
            };
            rest = &set[close + 1..];
        }
        rest.strip_prefix(' ')
            .is_some_and(|v| !v.is_empty() && !v.contains(char::is_whitespace))
    }

    #[test]
    fn histograms_render_valid_exposition_text() {
        let reg = Registry::default();
        reg.histogram("test_plain_ns").observe(3);
        let labeled = reg.histogram("test_rate{core=\"ooo\"}");
        labeled.observe(0);
        labeled.observe(5);
        let text = reg.render();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert!(is_sample_line(line), "not a sample line: {line}");
        }
        for want in [
            "test_plain_ns_bucket{le=\"3\"} 1",
            "test_plain_ns_sum 3",
            "test_plain_ns_count 1",
            "test_rate_bucket{core=\"ooo\",le=\"0\"} 1",
            "test_rate_bucket{core=\"ooo\",le=\"7\"} 2",
            "test_rate_sum{core=\"ooo\"} 5",
            "test_rate_count{core=\"ooo\"} 2",
        ] {
            assert!(
                text.lines().any(|l| l == want),
                "missing {want:?} in\n{text}"
            );
        }
        assert!(!is_sample_line("test_rate{core=\"ooo\"}_count 2"));
    }
}
