//! Set-up, timed repetitions and the output check.
//!
//! Every timed repetition runs `run_sweep` on a fresh `Session`, so the
//! in-memory tiers never answer it; only the store (warm workloads) is
//! shared between repetitions.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use trips_engine::sweep::to_csv;
use trips_engine::{run_sweep, RowDetail, Session, SweepReport, SweepRow, SweepSpec, TraceStore};

use crate::spec::{full_replay_of, Workload};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Fewest timed repetitions per run, however long they take.
pub const MIN_REPS: usize = 4;

/// A directory under the build output that is removed on drop. Stores
/// and span journals live here, never in the source tree.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> Result<Scratch, String> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
        let root = exe
            .parent()
            .ok_or("the executable has no parent directory")?
            .join("sweepbench-scratch");
        let dir = root.join(format!(
            "{}-{tag}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Fails while another scratch directory is still in use.
        if let Some(root) = self.0.parent() {
            let _ = std::fs::remove_dir(root);
        }
    }
}

pub fn session_on(dir: &Path) -> Result<Session, String> {
    TraceStore::open(dir)
        .map(Session::with_store)
        .map_err(|e| format!("opening store {}: {e}", dir.display()))
}

/// Columns 1–15 of each row's CSV rendering: every deterministic column,
/// through `status`. The timing and cost columns after it vary by run.
pub fn row_keys(rows: &[SweepRow]) -> Vec<String> {
    to_csv(rows)
        .lines()
        .skip(1)
        .map(|line| line.splitn(16, ',').take(15).collect::<Vec<_>>().join(","))
        .collect()
}

/// Rows that failed, or whose deterministic columns differ from
/// `expected` (a missing or extra row counts once).
pub fn mismatches(expected: &[String], rows: &[SweepRow]) -> u64 {
    let got = row_keys(rows);
    let differing = expected
        .iter()
        .zip(&got)
        .zip(rows)
        .filter(|((e, g), r)| e != g || r.status == "failed")
        .count();
    (differing + expected.len().abs_diff(got.len())) as u64
}

/// Whole-program simulated instructions of a sweep's rows: a sampled row
/// stands for the full stream it extrapolates to.
pub fn simulated_insts(rows: &[SweepRow]) -> u64 {
    rows.iter()
        .map(|r| match &r.detail {
            RowDetail::Trips(s) => s.isa.executed,
            RowDetail::Ooo(s) => s.total_insts,
            _ => 0,
        })
        .sum()
}

/// Worst |IPC error| in percent of phased rows against the full replay of
/// the same points. Both runs cover the same instructions, so the IPC
/// ratio is the inverse cycle ratio.
pub fn worst_ipc_err_pct(phased: &[SweepRow], full: &[SweepRow]) -> f64 {
    phased
        .iter()
        .filter(|r| r.sampled)
        .filter_map(|r| {
            let f = full.iter().find(|f| {
                (&f.workload, &f.backend, &f.config) == (&r.workload, &r.backend, &r.config)
            })?;
            Some((f.cycles as f64 / r.est_cycles as f64 - 1.0).abs() * 100.0)
        })
        .fold(0.0, f64::max)
}

/// What a workload's set-up leaves for the timed repetitions.
pub struct Setup {
    /// The filled store of a warm workload.
    pub store: Option<Scratch>,
    /// Expected deterministic columns; a cold workload takes its own
    /// first repetition.
    pub expected: Option<Vec<String>>,
    /// Full-replay rows of the phased points (empty for `WarmFull`).
    pub full_rows: Vec<SweepRow>,
}

fn clean(report: SweepReport, what: &str) -> Result<SweepReport, String> {
    if report.errors.is_empty() {
        Ok(report)
    } else {
        Err(format!("{what} failed: {}", report.errors.join("; ")))
    }
}

fn sweep(spec: &SweepSpec, session: &Session, what: &str) -> Result<SweepReport, String> {
    let report = run_sweep(spec, session).map_err(|e| format!("{what}: {e}"))?;
    clean(report, what)
}

/// Fills the store and computes the reference rows.
pub fn setup(w: Workload, spec: &SweepSpec) -> Result<Setup, String> {
    match w {
        Workload::ColdPhased => Ok(Setup {
            store: None,
            expected: None,
            full_rows: sweep(
                &full_replay_of(spec),
                &Session::new(),
                "full-replay reference",
            )?
            .rows,
        }),
        Workload::WarmFull | Workload::WarmLivepoint => {
            let store = Scratch::new("store")?;
            let session = session_on(store.path())?;
            let fill = sweep(spec, &session, "store fill")?;
            // The fill session still holds the captures, so the reference
            // pays only for the replays.
            let full_rows = if w.phased() {
                sweep(&full_replay_of(spec), &session, "full-replay reference")?.rows
            } else {
                Vec::new()
            };
            Ok(Setup {
                store: Some(store),
                expected: Some(row_keys(&fill.rows)),
                full_rows,
            })
        }
    }
}

/// Resident set size of this process in kB, from `/proc/self/status`.
fn rss_kb() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmRSS line in /proc/self/status".to_string())
}

/// Returns the allocator's free pages to the system. The pool starts new
/// threads on every call and glibc keeps freed memory in per-thread
/// arenas, so without this each repetition would start from the previous
/// ones' leftovers and the RSS peak would creep up with the repetition
/// count.
fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim takes a plain integer, touches only
        // the allocator's own free lists, and is safe to call from any
        // thread at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// One `run_sweep`, timed, with the peak RSS seen while it ran (sampled
/// every few milliseconds from a second thread).
pub fn timed_sweep(spec: &SweepSpec, session: &Session) -> Result<(SweepReport, f64, f64), String> {
    release_free_memory();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut peak = rss_kb()?;
            while !stop.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(5));
                peak = peak.max(rss_kb()?);
            }
            Ok::<u64, String>(peak)
        });
        let t0 = Instant::now();
        let report = run_sweep(spec, session);
        let secs = t0.elapsed().as_secs_f64();
        stop.store(true, Ordering::Release);
        let peak_kb = sampler.join().expect("the RSS sampler does not panic")?;
        let report = report.map_err(|e| format!("sweep: {e}"))?;
        Ok((report, secs, peak_kb as f64 * 1024.0 / 1e6))
    })
}

/// A fresh session for one repetition: an empty store of its own for the
/// cold workload (returned so the caller removes it afterwards), the
/// set-up's filled store otherwise.
pub fn fresh_session(setup: &Setup) -> Result<(Session, Option<Scratch>), String> {
    match &setup.store {
        Some(store) => Ok((session_on(store.path())?, None)),
        None => {
            let dir = Scratch::new("cold")?;
            Ok((session_on(dir.path())?, Some(dir)))
        }
    }
}

/// The timed repetitions of one run.
#[derive(Default)]
pub struct Timed {
    pub sweep_s: Vec<f64>,
    pub peak_rss_mb: Vec<f64>,
    /// Sweep points attempted over all repetitions.
    pub attempted: u64,
    /// Points that failed or did not match the reference.
    pub failed: u64,
    /// Whole-program simulated instructions of one sweep.
    pub insts: u64,
    pub ipc_err_pct: f64,
}

impl Timed {
    /// Checks one repetition's rows and adds them to the tally.
    pub fn check(&mut self, setup: &mut Setup, report: &SweepReport) {
        let expected = setup.expected.get_or_insert_with(|| row_keys(&report.rows));
        self.attempted += report.points as u64;
        self.failed += mismatches(expected, &report.rows);
        self.insts = simulated_insts(&report.rows);
        self.ipc_err_pct = self
            .ipc_err_pct
            .max(worst_ipc_err_pct(&report.rows, &setup.full_rows));
    }
}

/// Runs repetitions until `seconds` have passed and at least
/// [`MIN_REPS`] are done.
pub fn timed_reps(spec: &SweepSpec, setup: &mut Setup, seconds: f64) -> Result<Timed, String> {
    let start = Instant::now();
    let mut timed = Timed::default();
    while timed.sweep_s.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        let (session, cold_dir) = fresh_session(setup)?;
        let (report, secs, peak_mb) = timed_sweep(spec, &session)?;
        drop(session);
        drop(cold_dir);
        timed.check(setup, &report);
        timed.sweep_s.push(secs);
        timed.peak_rss_mb.push(peak_mb);
    }
    Ok(timed)
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{sweep_spec, Workload};
    use trips_workloads::Scale;

    #[test]
    fn output_check_rejects_a_perturbed_cycle_count() {
        let spec = sweep_spec(Workload::WarmFull, 7, Scale::Test, 2);
        let report = run_sweep(&spec, &Session::new()).unwrap();
        let expected = row_keys(&report.rows);
        assert_eq!(expected.len(), report.rows.len());
        assert_eq!(mismatches(&expected, &report.rows), 0);
        let mut rows = report.rows.clone();
        rows[3].cycles += 1;
        assert_eq!(mismatches(&expected, &rows), 1);
        rows.pop();
        assert_eq!(mismatches(&expected, &rows), 2, "a missing row counts too");
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
