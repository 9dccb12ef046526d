//! Per-row cost attribution: where did *this* sweep point's wall-clock
//! and I/O go?
//!
//! The sweep's `measure()` opens a [`RowScope`], making a fresh record
//! the thread's active row. Time reaches it only through charging spans
//! ([`crate::span::charged`]), which add the duration they journal to one
//! [`CostKind`] column: one clock feeds both the self-profile and the
//! CSV. Bytes, tier and queue latency arrive through [`add_store_read`],
//! [`add_store_write`], [`set_tier`] and [`note_queue_ns`]. Without an
//! active row each of these is one thread-local read.
//!
//! The pool carries the submitter's [`RowHandle`] into every job, so
//! nested fan-out charges the row that asked for it: a row's nanoseconds
//! are busy time summed over threads and can exceed its `wall_ms`.
//!
//! Timings live *only* here, never in memoized or persisted artifacts: a
//! memoized replay hit reports zero simulation nanos (its `tier` says
//! `memo`) because its wall-clock went to the cache lookup.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering::Relaxed};
use std::sync::Arc;

use serde::{Serialize, Serializer, Value};

/// Cost categories a charging span attributes its duration to; each one
/// is an `_ns` column of [`RowCost`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostKind {
    /// Building artifacts: compile, functional capture, RISC recording.
    Capture,
    /// Phase-classification fitting (BBV projection + k-means).
    Fit,
    /// Functional-warming runs of a sampled replay (incl. timed warm).
    Warm,
    /// Detailed (timed) simulation runs.
    Detailed,
    /// Extrapolating sampled windows to a whole-run estimate.
    Extrapolate,
    /// Snapshotting live-point checkpoints at window boundaries.
    CheckpointSave,
    /// Restoring a live-point checkpoint into a timing core.
    CheckpointRestore,
    /// Reading a store container's bytes, retries included.
    StoreRead,
    /// Verifying a store container's header, key and payload hash.
    StoreVerify,
    /// Decoding a store payload and checking it against its key.
    StoreDecode,
}

impl CostKind {
    /// The name of the [`RowCost`] column this kind charges.
    pub(crate) fn column(self) -> &'static str {
        RowCost::COLUMNS[Charged(self).index()]
    }
}

/// What one [`RowCost`] column counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Column {
    /// Nanoseconds charged by spans of one kind.
    Charged(CostKind),
    /// Nanoseconds the row waited in the pool queue.
    Queue,
    /// Trace-store bytes read.
    ReadBytes,
    /// Trace-store bytes written.
    WriteBytes,
}

use Column::{Charged, Queue, ReadBytes, WriteBytes};

impl Column {
    /// Where this column sits in [`RowCost::COLUMNS`].
    fn index(self) -> usize {
        let i = RowCost::CLASSES.iter().position(|c| *c == self);
        i.expect("every column class is declared")
    }
}

/// Declares [`RowCost`] from its column list, once: the struct fields,
/// [`RowCost::COLUMNS`], each column's class and the conversions to and
/// from a value array all come from the one list.
macro_rules! row_cost {
    ($($(#[doc = $doc:literal])* $field:ident: $class:expr,)*) => {
        /// Per-row cost detail attached to every `SweepRow`.
        ///
        /// `tier` records the deepest artifact tier this row's streams
        /// touched: `memo` (in-memory replay-result hit) < `mem`
        /// (in-memory stream hit) < `disk` (trace-store hit) < `capture`
        /// (functional execution ran); `-` when nothing was recorded. The
        /// `_ns` columns other than `queue_ns` are span-charged busy time
        /// summed over every thread that worked for the row.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct RowCost {
            /// Deepest artifact tier touched: `-`, `memo`, `mem`, `disk`, `capture`.
            pub tier: String,
            $($(#[doc = $doc])* pub $field: u64,)*
        }

        const N_COLUMNS: usize = [$(stringify!($field)),*].len();

        impl RowCost {
            /// The columns after `tier`, in CSV and JSON order.
            const COLUMNS: [&'static str; N_COLUMNS] = [$(stringify!($field)),*];
            const CLASSES: [Column; N_COLUMNS] = [$($class),*];

            fn values(&self) -> [u64; N_COLUMNS] {
                [$(self.$field),*]
            }

            fn from_values(tier: String, values: [u64; N_COLUMNS]) -> RowCost {
                let [$($field),*] = values;
                RowCost { tier, $($field),* }
            }
        }
    };
}

row_cost! {
    /// Nanoseconds compiling / capturing / recording streams.
    capture_ns: Charged(CostKind::Capture),
    /// Nanoseconds fitting phase plans.
    fit_ns: Charged(CostKind::Fit),
    /// Nanoseconds in functional-warming replay runs.
    warm_ns: Charged(CostKind::Warm),
    /// Nanoseconds in detailed (timed) replay runs.
    detailed_ns: Charged(CostKind::Detailed),
    /// Nanoseconds extrapolating sampled windows.
    extrapolate_ns: Charged(CostKind::Extrapolate),
    /// Nanoseconds snapshotting live-point checkpoints.
    checkpoint_save_ns: Charged(CostKind::CheckpointSave),
    /// Nanoseconds restoring live-point checkpoints.
    checkpoint_restore_ns: Charged(CostKind::CheckpointRestore),
    /// Nanoseconds the point sat in the pool queue before a worker ran it.
    queue_ns: Queue,
    /// Bytes read from the trace store on behalf of this row.
    store_read_bytes: ReadBytes,
    /// Bytes written to the trace store on behalf of this row.
    store_write_bytes: WriteBytes,
    /// Nanoseconds reading trace-store containers.
    store_read_ns: Charged(CostKind::StoreRead),
    /// Nanoseconds verifying trace-store containers.
    store_verify_ns: Charged(CostKind::StoreVerify),
    /// Nanoseconds decoding and key-checking trace-store payloads.
    store_decode_ns: Charged(CostKind::StoreDecode),
}

impl Default for RowCost {
    fn default() -> Self {
        RowCost::from_values(TIERS[0].to_string(), [0; N_COLUMNS])
    }
}

/// Artifact tiers, weakest first.
const TIERS: [&str; 5] = ["-", "memo", "mem", "disk", "capture"];

fn tier_rank(tier: &str) -> u8 {
    TIERS.iter().position(|t| *t == tier).unwrap_or(0) as u8
}

impl RowCost {
    /// Each column after `tier` with its value, in CSV and JSON order.
    pub fn columns(&self) -> impl Iterator<Item = (&'static str, u64)> {
        Self::COLUMNS.into_iter().zip(self.values())
    }

    /// Sum of all span-charged nanoseconds (excludes queue wait, which
    /// overlaps other rows' work rather than adding to it).
    pub fn attributed_ns(&self) -> u64 {
        let values = Self::CLASSES.iter().zip(self.values());
        values
            .filter_map(|(c, v)| matches!(c, Charged(_)).then_some(v))
            .sum()
    }

    /// Accumulate another row's cost into this one (report roll-ups).
    pub fn absorb(&mut self, other: &RowCost) {
        let tier = if tier_rank(&other.tier) > tier_rank(&self.tier) {
            other.tier.clone()
        } else {
            std::mem::take(&mut self.tier)
        };
        let mut values = self.values();
        for (v, o) in values.iter_mut().zip(other.values()) {
            *v += o;
        }
        *self = RowCost::from_values(tier, values);
    }

    /// The row with every wall-clock field zeroed — what determinism
    /// tests compare, since only timings may differ between runs.
    pub fn without_timings(&self) -> RowCost {
        let mut values = self.values();
        for (v, class) in values.iter_mut().zip(Self::CLASSES) {
            if matches!(class, Charged(_) | Queue) {
                *v = 0;
            }
        }
        RowCost::from_values(self.tier.clone(), values)
    }
}

impl Serialize for RowCost {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let tier = (Value::str("tier"), Value::str(&self.tier));
        let columns = self.columns().map(|(k, v)| (Value::str(k), Value::U64(v)));
        serializer.serialize_value(Value::Map(std::iter::once(tier).chain(columns).collect()))
    }
}

/// The live cost record of one row, shared by every thread that works on
/// its behalf.
#[derive(Default)]
struct Ledger {
    columns: [AtomicU64; N_COLUMNS],
    tier: AtomicU8,
}

impl Ledger {
    fn cost(&self) -> RowCost {
        let tier = TIERS[self.tier.load(Relaxed) as usize].to_string();
        RowCost::from_values(tier, self.columns.each_ref().map(|c| c.load(Relaxed)))
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<Arc<Ledger>>> = const { RefCell::new(None) };
    static PENDING_QUEUE_NS: Cell<u64> = const { Cell::new(0) };
}

fn with_row(f: impl FnOnce(&Ledger)) {
    ACTIVE.with(|a| {
        if let Some(ledger) = a.borrow().as_deref() {
            f(ledger);
        }
    });
}

/// True when a row is active on this thread: charging spans check this
/// before reading the clock.
#[inline]
pub(crate) fn in_row() -> bool {
    ACTIVE.with(|a| a.borrow().is_some())
}

/// Adds `n` to `column` of the active row (no-op without one).
fn add(column: Column, n: u64) {
    with_row(|row| {
        row.columns[column.index()].fetch_add(n, Relaxed);
    });
}

/// Adds a charging span's `ns` to `kind` of the active row.
#[inline]
pub(crate) fn charge(kind: CostKind, ns: u64) {
    add(Charged(kind), ns);
}

/// A handle on the row a thread works for, or on none. The pool takes
/// the submitter's handle ([`current`]) into every job it runs, so
/// nested work charges the row that asked for it.
pub struct RowHandle(Option<Arc<Ledger>>);

/// The handle of this thread's active row.
pub fn current() -> RowHandle {
    RowHandle(ACTIVE.with(|a| a.borrow().clone()))
}

impl RowHandle {
    /// Makes this the calling thread's active row until the guard drops.
    pub fn enter(&self) -> Entered {
        Entered(ACTIVE.with(|a| a.replace(self.0.clone())))
    }
}

/// Guard of [`RowHandle::enter`]: restores the thread's previous row when
/// dropped.
pub struct Entered(Option<Arc<Ledger>>);

impl Drop for Entered {
    fn drop(&mut self) {
        let prev = self.0.take();
        ACTIVE.with(|a| *a.borrow_mut() = prev);
    }
}

/// Open a cost-collection scope on this thread; the collector starts
/// from [`RowCost::default`] plus any queue latency noted by the pool.
/// A scope opened inside another one shadows it until it closes.
pub fn begin_row() -> RowScope {
    let ledger = Arc::new(Ledger::default());
    let queue_ns = PENDING_QUEUE_NS.with(|p| p.replace(0));
    ledger.columns[Queue.index()].store(queue_ns, Relaxed);
    let entered = RowHandle(Some(ledger.clone())).enter();
    RowScope {
        ledger,
        _entered: entered,
    }
}

/// Guard for an open cost-collection scope; [`RowScope::finish`] yields
/// the collected [`RowCost`].
pub struct RowScope {
    ledger: Arc<Ledger>,
    _entered: Entered,
}

impl RowScope {
    /// Close the scope and return what was collected.
    pub fn finish(self) -> RowCost {
        self.ledger.cost()
    }
}

/// Attribute trace-store bytes read (no-op without an active scope).
#[inline]
pub fn add_store_read(bytes: u64) {
    add(ReadBytes, bytes);
}

/// Attribute trace-store bytes written (no-op without an active scope).
#[inline]
pub fn add_store_write(bytes: u64) {
    add(WriteBytes, bytes);
}

/// Record the deepest artifact tier touched; keeps the strongest of the
/// current and new tier (`capture` > `disk` > `mem` > `memo` > `-`).
#[inline]
pub fn set_tier(tier: &str) {
    with_row(|row| {
        row.tier.fetch_max(tier_rank(tier), Relaxed);
    });
}

/// Called by the pool just before running a dequeued job: stashes the
/// job's queue latency for the next [`begin_row`] on this thread.
#[inline]
pub fn note_queue_ns(ns: u64) {
    PENDING_QUEUE_NS.with(|p| p.set(ns));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::charged;

    #[test]
    fn inactive_scope_ignores_all_adds() {
        assert!(!in_row());
        let span = charged("test.charge", CostKind::Capture);
        assert!(!span.reads_clock(), "no row, no tracing: the span is inert");
        drop(span);
        add_store_read(10);
        set_tier("capture");
        let cost = begin_row().finish();
        assert_eq!(cost, RowCost::default());
    }

    #[test]
    fn scope_collects_and_ranks_tiers() {
        let scope = begin_row();
        charge(CostKind::Capture, 5);
        charge(CostKind::Warm, 7);
        charge(CostKind::Warm, 3);
        add_store_read(100);
        add_store_write(40);
        set_tier("memo");
        set_tier("disk");
        set_tier("mem"); // weaker: must not downgrade
        let cost = scope.finish();
        assert_eq!(cost.capture_ns, 5);
        assert_eq!(cost.warm_ns, 10);
        assert_eq!(cost.store_read_bytes, 100);
        assert_eq!(cost.store_write_bytes, 40);
        assert_eq!(cost.tier, "disk");
        assert_eq!(cost.attributed_ns(), 15);
        assert!(!in_row());
    }

    #[test]
    fn queue_latency_flows_into_next_row() {
        note_queue_ns(1234);
        let cost = begin_row().finish();
        assert_eq!(cost.queue_ns, 1234);
        // consumed: the next row starts clean
        let cost = begin_row().finish();
        assert_eq!(cost.queue_ns, 0);
    }

    #[test]
    fn charging_spans_attribute_their_runs() {
        let scope = begin_row();
        let warm = charged("test.warm", CostKind::Warm);
        assert!(warm.reads_clock());
        drop(warm);
        {
            let _detailed = charged("test.detailed", CostKind::Detailed);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let cost = scope.finish();
        assert!(cost.detailed_ns >= 1_000_000, "{cost:?}");
        assert_eq!(cost.attributed_ns(), cost.warm_ns + cost.detailed_ns);
        assert_eq!((cost.capture_ns, cost.fit_ns), (0, 0));
    }

    #[test]
    fn entered_handles_charge_the_submitting_row() {
        let scope = begin_row();
        let row = current();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let _row = row.enter();
                    charge(CostKind::CheckpointRestore, 4);
                    add_store_read(3);
                });
            }
        });
        let outer = scope.finish();
        assert_eq!(outer.checkpoint_restore_ns, 8);
        assert_eq!(outer.store_read_bytes, 6);
        // An inner scope shadows the outer one until it closes.
        let outer = begin_row();
        let inner = begin_row();
        charge(CostKind::Fit, 2);
        assert_eq!(inner.finish().fit_ns, 2);
        charge(CostKind::Fit, 1);
        assert_eq!(outer.finish().fit_ns, 1);
        assert!(!in_row());
    }

    #[test]
    fn without_timings_keeps_shape_fields() {
        note_queue_ns(5);
        let scope = begin_row();
        charge(CostKind::Detailed, 99);
        add_store_read(7);
        set_tier("capture");
        let cost = scope.finish();
        assert_eq!((cost.detailed_ns, cost.queue_ns), (99, 5));
        let stable = cost.without_timings();
        assert_eq!((stable.detailed_ns, stable.queue_ns), (0, 0));
        assert_eq!(stable.store_read_bytes, 7);
        assert_eq!(stable.tier, "capture");
    }

    #[test]
    fn absorb_rolls_up() {
        let mut total = RowCost::default();
        let a = RowCost {
            capture_ns: 10,
            tier: "disk".to_string(),
            ..RowCost::default()
        };
        let b = RowCost {
            detailed_ns: 20,
            store_decode_ns: 3,
            tier: "capture".to_string(),
            ..RowCost::default()
        };
        total.absorb(&a);
        total.absorb(&b);
        assert_eq!(total.capture_ns, 10);
        assert_eq!(total.detailed_ns, 20);
        assert_eq!(total.attributed_ns(), 33);
        assert_eq!(total.tier, "capture");
    }

    #[test]
    fn columns_keep_their_order_and_kinds_name_theirs() {
        assert_eq!(RowCost::COLUMNS[0], "capture_ns");
        assert_eq!(RowCost::COLUMNS[7], "queue_ns");
        assert_eq!(RowCost::COLUMNS[9], "store_write_bytes");
        assert_eq!(RowCost::COLUMNS[12], "store_decode_ns");
        use CostKind::*;
        let kinds = [
            Capture,
            Fit,
            Warm,
            Detailed,
            Extrapolate,
            CheckpointSave,
            CheckpointRestore,
            StoreRead,
            StoreVerify,
            StoreDecode,
        ];
        // Every kind names its own `_ns` column, so no span can panic
        // looking its column up while it drops.
        let names: Vec<&str> = kinds.iter().map(|k| k.column()).collect();
        assert!(names.iter().all(|n| n.ends_with("_ns")));
        assert_eq!(names[3], "detailed_ns");
        assert_eq!(names[8], "store_verify_ns");
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), kinds.len());
        let json = serde::json::to_string(&RowCost::default());
        assert!(
            json.starts_with("{\"tier\":\"-\",\"capture_ns\":0,"),
            "{json}"
        );
        assert!(json.ends_with("\"store_decode_ns\":0}"), "{json}");
    }
}
