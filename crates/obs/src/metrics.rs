//! Process-global metrics registry: named counters, gauges, and
//! log2-bucketed histograms.
//!
//! Counters and histograms are **sharded**: each holds `SHARDS`
//! cache-line-padded atomic cells, and every thread picks a home shard
//! from its dense ordinal, so concurrent hot-loop increments from the
//! work-stealing pool land on different cache lines instead of
//! serializing on one. Reads ([`Counter::get`], snapshots) sum the shards
//! — they are racy-consistent, which is fine for telemetry.
//!
//! Metric names follow Prometheus conventions and may embed labels
//! directly: `pool_worker_busy_ns{worker="3"}` registers a distinct
//! series per label set. [`snapshot_text`] renders the whole registry in
//! deterministic (sorted) order as Prometheus text exposition, ready for
//! `trips-sweep --metrics` today and the streaming sweep daemon later.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of per-metric shards. A small power of two: enough to spread
/// the sweep pool's workers, cheap to sum at snapshot time.
pub const SHARDS: usize = 16;

/// Number of log2 histogram buckets: bucket `b > 0` counts values in
/// `[2^(b-1), 2^b)`, bucket 0 counts zeros, bucket 64 counts the rest.
pub const BUCKETS: usize = 65;

#[repr(align(64))]
struct PaddedU64(AtomicU64);

#[inline]
fn shard_index() -> usize {
    crate::span::thread_ordinal() as usize % SHARDS
}

/// Monotonically increasing counter, sharded across padded atomics.
pub struct Counter {
    shards: [PaddedU64; SHARDS],
}

impl Counter {
    fn new() -> Self {
        Counter {
            shards: std::array::from_fn(|_| PaddedU64(AtomicU64::new(0))),
        }
    }

    /// Add `n` to the calling thread's home shard.
    #[inline]
    pub fn inc(&self, n: u64) {
        self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Sum of all shards (racy-consistent).
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// Last-write-wins gauge holding a `u64`.
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

struct HistShard {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl HistShard {
    fn new() -> Self {
        HistShard {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

/// Log2-bucketed histogram of `u64` samples, sharded like [`Counter`].
pub struct Histogram {
    shards: [HistShard; SHARDS],
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

impl Histogram {
    fn new() -> Self {
        Histogram {
            shards: std::array::from_fn(|_| HistShard::new()),
        }
    }

    /// Record one sample on the calling thread's home shard.
    #[inline]
    pub fn observe(&self, v: u64) {
        let shard = &self.shards[shard_index()];
        shard.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        shard.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total number of recorded samples across all shards.
    pub fn count(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                s.buckets
                    .iter()
                    .map(|b| b.load(Ordering::Relaxed))
                    .sum::<u64>()
            })
            .sum()
    }

    /// Sum of all recorded samples across all shards.
    pub fn sum(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.sum.load(Ordering::Relaxed))
            .sum()
    }

    /// Per-bucket counts summed across shards.
    pub fn buckets(&self) -> [u64; BUCKETS] {
        let mut out = [0u64; BUCKETS];
        for s in &self.shards {
            for (o, b) in out.iter_mut().zip(s.buckets.iter()) {
                *o += b.load(Ordering::Relaxed);
            }
        }
        out
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

fn registry() -> &'static Mutex<BTreeMap<String, Metric>> {
    static REG: OnceLock<Mutex<BTreeMap<String, Metric>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Look up (registering on first use) the counter named `name`.
///
/// Registration takes the registry lock; cache the returned `Arc` outside
/// hot loops. Panics if `name` is already registered as another type.
pub fn counter(name: &str) -> Arc<Counter> {
    let mut reg = registry().lock().unwrap();
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
    {
        Metric::Counter(c) => Arc::clone(c),
        _ => panic!("metric {name:?} already registered with a different type"),
    }
}

/// Look up (registering on first use) the gauge named `name`.
///
/// Panics if `name` is already registered as another type.
pub fn gauge(name: &str) -> Arc<Gauge> {
    let mut reg = registry().lock().unwrap();
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Gauge(Arc::new(Gauge(AtomicU64::new(0)))))
    {
        Metric::Gauge(g) => Arc::clone(g),
        _ => panic!("metric {name:?} already registered with a different type"),
    }
}

/// Look up (registering on first use) the histogram named `name`.
///
/// Panics if `name` is already registered as another type.
pub fn histogram(name: &str) -> Arc<Histogram> {
    let mut reg = registry().lock().unwrap();
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
    {
        Metric::Histogram(h) => Arc::clone(h),
        _ => panic!("metric {name:?} already registered with a different type"),
    }
}

fn base_name(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

fn labels(name: &str) -> Option<&str> {
    name.find('{').map(|i| &name[i..])
}

/// Render every registered metric as Prometheus-style text exposition,
/// in sorted name order (deterministic given the same series).
///
/// Histograms render cumulative `_bucket{le=…}` series plus `_sum` and
/// `_count`, skipping empty buckets to keep snapshots readable.
pub fn snapshot_text() -> String {
    let reg = registry().lock().unwrap();
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
                let buckets = h.buckets();
                let mut cum = 0u64;
                for (b, n) in buckets.iter().enumerate() {
                    cum += n;
                    if *n == 0 {
                        continue;
                    }
                    let le = bucket_bound(b);
                    let extra = labels(name).map(|l| {
                        // splice le into the existing label set
                        format!("{}{},le=\"{le}\"}}", base_name(name), &l[..l.len() - 1])
                    });
                    match extra {
                        Some(s) => out.push_str(&format!("{s} {cum}\n")),
                        None => out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cum}\n")),
                    }
                }
                out.push_str(&format!("{name}_sum {}\n", h.sum()));
                out.push_str(&format!("{name}_count {}\n", h.count()));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Held by every test that touches the process-global registry, so no
    /// series moves while another test renders two snapshots.
    static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

    fn hold_registry() -> std::sync::MutexGuard<'static, ()> {
        REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn counter_sums_across_threads() {
        let _g = hold_registry();
        let c = counter("test_counter_total");
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
        let _g = hold_registry();
        let h = histogram("test_hist_ns");
        for v in [0u64, 1, 7, 8, 1023, 1024, 1 << 40] {
            h.observe(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 1 + 7 + 8 + 1023 + 1024 + (1u64 << 40));
        assert_eq!(h.buckets().iter().sum::<u64>(), h.count());
    }

    #[test]
    fn snapshot_is_deterministic_and_typed() {
        let _g = hold_registry();
        counter("test_snap_b_total").inc(2);
        gauge("test_snap_a").set(9);
        let one = snapshot_text();
        let two = snapshot_text();
        assert_eq!(one, two);
        assert!(one.contains("# TYPE test_snap_a gauge"));
        assert!(one.contains("test_snap_a 9"));
        assert!(one.contains("test_snap_b_total 2"));
        // sorted order: a before b
        let ia = one.find("test_snap_a").unwrap();
        let ib = one.find("test_snap_b_total").unwrap();
        assert!(ia < ib);
    }

    #[test]
    fn labeled_series_are_distinct() {
        let _g = hold_registry();
        gauge("test_worker_busy_ns{worker=\"0\"}").set(5);
        gauge("test_worker_busy_ns{worker=\"1\"}").set(6);
        let snap = snapshot_text();
        assert!(snap.contains("test_worker_busy_ns{worker=\"0\"} 5"));
        assert!(snap.contains("test_worker_busy_ns{worker=\"1\"} 6"));
        // one TYPE line for the shared base name
        assert_eq!(snap.matches("# TYPE test_worker_busy_ns gauge").count(), 1);
    }
}
