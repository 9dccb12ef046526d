//! A work-stealing parallel map over scoped `std` threads.
//!
//! Sweep points vary wildly in cost (a SPEC proxy at Ref scale vs `vadd` at
//! Test scale differ by orders of magnitude), so static partitioning leaves
//! workers idle. Instead each worker owns a deque seeded round-robin; it
//! pops work from the front of its own deque and, when empty, steals from
//! the *back* of a victim's — the classic split that keeps owner and thief
//! off the same end (cf. McKenney's work-distribution chapters). Results
//! flow back over an `mpsc` channel tagged with their index, so output
//! order matches input order regardless of who executed what.
//!
//! ## Failure containment
//!
//! [`parallel_map_catch`] wraps every job in `catch_unwind`, so one
//! panicking job becomes an `Err(`[`JobPanic`]`)` in its result slot
//! instead of tearing down the pool; queue mutexes recover from
//! poisoning (`PoisonError::into_inner`) so a panicked worker cannot
//! wedge its siblings. [`parallel_map`] keeps its historical contract
//! (a job panic propagates) but re-raises on the collecting thread
//! *after* every other job has finished. A session's armed fault plan
//! injects panics and delays into the same wrapper, which is how the
//! containment path stays exercised.
//!
//! ## Telemetry
//!
//! The pool records into the metrics registry of the [`Instruments`] it
//! is handed (a session's; [`parallel_map`] gets a fresh, unarmed set):
//! `pool_jobs_total`, `pool_steals_total`,
//! `pool_job_panics_total`, a `pool_queue_ns` histogram (enqueue →
//! dequeue latency, also surfaced per-row as `RowCost::queue_ns`), and
//! per-worker `pool_worker_busy_ns{worker="i"}` /
//! `pool_worker_idle_ns{worker="i"}` gauges for the last
//! `parallel_map` run. With tracing enabled each worker's whole loop is
//! a `pool.worker` span and each job a `pool.job` child, so the
//! `--obs-report` self-profile attributes worker wall-clock to jobs vs
//! steal/idle time. All per-job costs are O(1) lookup-free atomics
//! plus one `Instant` read on each side of the job. Every worker enters
//! the submitter's cost row, so nested jobs charge the row that asked.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use trips_chaos::{FaultPoint, Instruments};
use trips_obs::Level;

/// A job that panicked instead of returning a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// Input-order index of the panicking item.
    pub index: usize,
    /// Downcast panic payload (or a placeholder for non-string payloads).
    pub message: String,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job {} panicked: {}", self.index, self.message)
    }
}

/// Locks a queue mutex, recovering from poisoning: the deque holds only
/// not-yet-started jobs, which stay valid whatever happened to the
/// panicking holder.
fn lock_queue<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one job inside the containment wrapper: chaos delay/panic
/// injection, `catch_unwind`, and panic accounting.
fn run_caught<T, R, F>(ins: &Instruments, f: &F, idx: usize, item: T) -> Result<R, JobPanic>
where
    F: Fn(T) -> R,
{
    if ins.fault(FaultPoint::PoolDelay).is_some() {
        let delay_us = ins.faults.as_ref().map_or(0, |p| p.profile().delay_us);
        std::thread::sleep(std::time::Duration::from_micros(u64::from(delay_us)));
    }
    catch_unwind(AssertUnwindSafe(|| {
        if ins.fault(FaultPoint::PoolPanic).is_some() {
            panic!("injected job panic (chaos)");
        }
        f(item)
    }))
    .map_err(|payload| {
        ins.metrics.counter("pool_job_panics_total").inc(1);
        let message = panic_message(payload.as_ref());
        trips_obs::log!(Level::Warn, "pool", "job {idx} panicked: {message}");
        JobPanic {
            index: idx,
            message,
        }
    })
}

/// Applies `f` to every item on `threads` workers (0 = one per core),
/// returning results in input order. The pool records into a fresh
/// registry and injects no faults; [`parallel_map_catch`] runs under a
/// session's [`Instruments`].
///
/// A panic in `f` is re-raised on the calling thread, but only after
/// every other job has run to completion — one bad item no longer
/// cancels its siblings' work. Callers that want the failures instead
/// of a propagated panic should use [`parallel_map_catch`].
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    parallel_map_catch(items, threads, &Instruments::default(), f)
        .into_iter()
        .map(|r| r.unwrap_or_else(|p| panic!("{p}")))
        .collect()
}

/// Like [`parallel_map`], but recording into `ins.metrics`, drawing job
/// faults from `ins.faults`, and yielding `Err(`[`JobPanic`]`)` in a
/// panicking job's slot instead of propagating: the sweep layer turns
/// these into structured `failed` rows and retries.
pub fn parallel_map_catch<T, R, F>(
    items: Vec<T>,
    threads: usize,
    ins: &Instruments,
    f: F,
) -> Vec<Result<R, JobPanic>>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let threads = effective_threads(threads, n);
    // Register the pool series up front so a snapshot taken after any
    // sweep contains them even when no steal or panic ever happened.
    let metrics = &ins.metrics;
    let jobs_total = metrics.counter("pool_jobs_total");
    let steals_total = metrics.counter("pool_steals_total");
    let queue_ns_hist = metrics.histogram("pool_queue_ns");
    let _ = metrics.counter("pool_job_panics_total");
    if threads <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(idx, item)| {
                jobs_total.inc(1);
                trips_obs::cost::note_queue_ns(0);
                let _job = trips_obs::span("pool.job");
                run_caught(ins, &f, idx, item)
            })
            .collect();
    }

    // Seed per-worker deques round-robin, stamping enqueue time.
    let seeded = Instant::now();
    let queues: Vec<Mutex<VecDeque<(usize, Instant, T)>>> =
        (0..threads).map(|_| Mutex::new(VecDeque::new())).collect();
    for (i, item) in items.into_iter().enumerate() {
        lock_queue(&queues[i % threads]).push_back((i, seeded, item));
    }

    let row = trips_obs::cost::current();
    let (tx, rx) = mpsc::channel::<(usize, Result<R, JobPanic>)>();
    std::thread::scope(|scope| {
        for me in 0..threads {
            let tx = tx.clone();
            let queues = &queues;
            let f = &f;
            let jobs_total = &jobs_total;
            let steals_total = &steals_total;
            let queue_ns_hist = &queue_ns_hist;
            let row = &row;
            scope.spawn(move || {
                let _row = row.enter();
                let _worker = trips_obs::span_with("pool.worker", || format!("worker={me}"));
                let loop_start = Instant::now();
                let mut busy_ns: u64 = 0;
                loop {
                    // Own work first: take from the front.
                    let mine = lock_queue(&queues[me]).pop_front();
                    let job = match mine {
                        Some(job) => Some(job),
                        None => {
                            // Steal from the back of the first non-empty victim.
                            let mut stolen = None;
                            for off in 1..queues.len() {
                                let victim = (me + off) % queues.len();
                                if let Some(job) = lock_queue(&queues[victim]).pop_back() {
                                    stolen = Some(job);
                                    break;
                                }
                            }
                            if stolen.is_some() {
                                steals_total.inc(1);
                            }
                            stolen
                        }
                    };
                    match job {
                        Some((idx, enqueued, item)) => {
                            let started = Instant::now();
                            let queue_ns = started.duration_since(enqueued).as_nanos() as u64;
                            jobs_total.inc(1);
                            queue_ns_hist.observe(queue_ns);
                            trips_obs::cost::note_queue_ns(queue_ns);
                            let r = {
                                let _job =
                                    trips_obs::span_with("pool.job", || format!("idx={idx}"));
                                run_caught(ins, f, idx, item)
                            };
                            busy_ns += started.elapsed().as_nanos() as u64;
                            if tx.send((idx, r)).is_err() {
                                break; // receiver gone: nothing left to report to
                            }
                        }
                        // All deques empty. Items never re-enter a deque, so
                        // this worker is done.
                        None => break,
                    }
                }
                let total_ns = loop_start.elapsed().as_nanos() as u64;
                metrics
                    .gauge(&format!("pool_worker_busy_ns{{worker=\"{me}\"}}"))
                    .set(busy_ns);
                metrics
                    .gauge(&format!("pool_worker_idle_ns{{worker=\"{me}\"}}"))
                    .set(total_ns.saturating_sub(busy_ns));
            });
        }
        drop(tx);

        let mut out: Vec<Option<Result<R, JobPanic>>> = (0..n).map(|_| None).collect();
        for (idx, r) in rx {
            out[idx] = Some(r);
        }
        out.into_iter()
            .map(|r| r.expect("every index produced exactly once"))
            .collect()
    })
}

/// Resolves a thread-count request: 0 means "one per available core",
/// always at least 1, never more than the number of items.
pub fn effective_threads(requested: usize, items: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let t = if requested == 0 { hw } else { requested };
    t.clamp(1, items.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..257).collect();
        let out = parallel_map(items.clone(), 4, |x| x * 3);
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn runs_every_item_exactly_once() {
        let count = AtomicUsize::new(0);
        let out = parallel_map((0..100).collect(), 8, |x: i32| {
            count.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 100);
        assert_eq!(count.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn imbalanced_work_is_stolen() {
        // Front-load all the slow items onto worker 0's deque (indices
        // 0..8 with 2 threads put the slow ones at even indices): the
        // steal path must still complete promptly and correctly.
        let out = parallel_map((0..8u64).collect(), 2, |x| {
            if x % 2 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            x + 1
        });
        assert_eq!(out, (1..=8).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_and_empty_input() {
        assert_eq!(parallel_map(Vec::<u8>::new(), 4, |x| x), Vec::<u8>::new());
        assert_eq!(parallel_map(vec![5], 1, |x: u8| x * 2), vec![10]);
    }

    #[test]
    fn effective_threads_bounds() {
        assert_eq!(effective_threads(3, 100), 3);
        assert_eq!(effective_threads(16, 2), 2);
        assert!(effective_threads(0, 64) >= 1);
        assert_eq!(effective_threads(0, 0), 1);
    }

    #[test]
    fn pool_series_register_even_without_steals() {
        let ins = Instruments::default();
        let _ = parallel_map_catch(vec![1u8, 2, 3], 2, &ins, |x| x);
        assert_eq!(ins.metrics.counter("pool_jobs_total").get(), 3);
        let snap = ins.metrics.render();
        assert!(snap.contains("pool_steals_total"));
        assert!(snap.contains("pool_queue_ns"));
        assert!(snap.contains("pool_job_panics_total"));
    }

    #[test]
    fn queue_latency_reaches_cost_scope() {
        // Single-threaded path: queue latency is defined as zero.
        let costs = parallel_map(vec![(), ()], 1, |()| {
            let scope = trips_obs::cost::begin_row();
            scope.finish().queue_ns
        });
        assert_eq!(costs, vec![0, 0]);
    }

    #[test]
    fn jobs_charge_the_submitters_row_on_every_worker() {
        let scope = trips_obs::cost::begin_row();
        let _ = parallel_map((0..8u64).collect(), 2, |x| {
            trips_obs::cost::add_store_read(x);
            x
        });
        assert_eq!(scope.finish().store_read_bytes, 28);
    }

    #[test]
    fn catch_isolates_panicking_jobs() {
        let ins = Instruments::default();
        let out = parallel_map_catch((0..16i32).collect(), 4, &ins, |x| {
            if x == 7 {
                panic!("boom at {x}");
            }
            x * 2
        });
        assert_eq!(out.len(), 16);
        for (i, r) in out.iter().enumerate() {
            if i == 7 {
                let p = r.as_ref().unwrap_err();
                assert_eq!(p.index, 7);
                assert!(p.message.contains("boom at 7"), "{}", p.message);
            } else {
                assert_eq!(*r.as_ref().unwrap(), i as i32 * 2);
            }
        }
        assert_eq!(ins.metrics.counter("pool_job_panics_total").get(), 1);
    }

    #[test]
    fn catch_isolates_panics_on_single_thread_path_too() {
        let out = parallel_map_catch(vec![1u8, 2, 3], 1, &Instruments::default(), |x| {
            if x == 2 {
                panic!("odd one out");
            }
            x
        });
        assert!(out[0].is_ok() && out[2].is_ok());
        assert!(out[1]
            .as_ref()
            .is_err_and(|p| p.message.contains("odd one out")));
    }

    #[test]
    fn parallel_map_still_propagates_after_finishing_siblings() {
        let done = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            parallel_map((0..8u32).collect(), 2, |x| {
                if x == 3 {
                    panic!("propagate me");
                }
                done.fetch_add(1, Ordering::Relaxed);
                x
            })
        }));
        assert!(caught.is_err());
        // Every non-panicking sibling ran to completion first.
        assert_eq!(done.load(Ordering::Relaxed), 7);
    }
}
