//! Experiment driver: regenerates the paper's tables and figures.
//!
//! ```text
//! repro all                      # every experiment at reference scale
//! repro fig9                     # one experiment
//! repro --quick all              # tiny inputs (CI-speed smoke run)
//! repro --trace-dir .traces fig9 # persist captures; later runs replay them
//! repro --sample 896,128,1024 fig9 # interval-sample the timing backends
//! ```
//!
//! With `--trace-dir DIR` (or the `TRIPS_TRACE_DIR` environment variable)
//! all figure runs share one content-addressed trace store: the first
//! process captures each workload's functional trace, every later process
//! replays it from disk.
//!
//! With `--sample warmup,detailed,period` every timing measurement
//! (TRIPS replays and OoO platform replays) interval-samples its recorded
//! stream instead of timing every unit; figures stay full-detail by
//! default. The `sample_accuracy` experiment reports how close the
//! estimates land.
//!
//! With `--phase k|auto` every timing measurement phase-classifies its
//! stream instead: intervals are clustered by BBV similarity (once per
//! stream, persisted in the trace store when one is configured) and one
//! representative window per cluster is timed and population-weighted.
//! Mutually exclusive with `--sample`. The `phase_accuracy` experiment
//! compares both strategies against full replay, and writes the
//! per-interval cluster assignments as CSV when `TRIPS_PHASE_CSV=path`
//! is set.
//!
//! The whole command line is checked before anything runs: a rejected
//! flag or experiment name exits 1 without creating the trace store. The
//! flags then become one [`trips_experiments::Run`] (one session, one
//! replay mode, one scale) that every experiment measures under, and each
//! report is printed as soon as it is rendered.

use std::env;
use std::fmt::Display;

use trips_engine::{PhaseK, SamplePlan, Session, TraceStore};
use trips_experiments::{experiment, Run, EXPERIMENTS};
use trips_obs::Level;
use trips_workloads::Scale;

/// Logs `msg` as an error and exits 1.
fn fail(msg: impl Display) -> ! {
    trips_obs::log!(Level::Error, "repro", "{msg}");
    std::process::exit(1)
}

/// Removes `flag` and the value after it from `args` and returns the value;
/// exits 1 with `missing` when the flag is the last argument.
fn take_value(args: &mut Vec<String>, flag: &str, missing: &str) -> Option<String> {
    let at = args.iter().position(|a| a == flag)?;
    if at + 1 >= args.len() {
        fail(missing);
    }
    let value = args.remove(at + 1);
    args.remove(at);
    Some(value)
}

fn main() {
    let mut args: Vec<String> = env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    args.retain(|a| a != "--quick");
    let trace_dir = take_value(&mut args, "--trace-dir", "--trace-dir needs a value")
        .or_else(|| env::var("TRIPS_TRACE_DIR").ok().filter(|v| !v.is_empty()));
    let sample = take_value(
        &mut args,
        "--sample",
        "--sample needs warmup,detailed,period",
    )
    .map(|spec| SamplePlan::parse(&spec).unwrap_or_else(|e| fail(format!("--sample: {e}"))));
    let phase = take_value(&mut args, "--phase", "--phase needs k|auto")
        .map(|spec| PhaseK::parse(&spec).unwrap_or_else(|e| fail(format!("--phase: {e}"))));
    if sample.is_some() && phase.is_some() {
        fail("--sample and --phase are mutually exclusive");
    }
    let what = match args.as_slice() {
        [] => "all",
        [what] => what.as_str(),
        [what, rest @ ..] => fail(format!(
            "unexpected argument(s) after `{what}`: {} (one experiment name per run)",
            rest.iter()
                .map(|a| format!("`{a}`"))
                .collect::<Vec<_>>()
                .join(" ")
        )),
    };
    let experiments = if what == "all" {
        EXPERIMENTS.to_vec()
    } else {
        vec![(what, experiment(what).unwrap_or_else(|e| fail(e)))]
    };

    let session = match &trace_dir {
        Some(dir) => {
            let store = TraceStore::open(dir)
                .unwrap_or_else(|e| fail(format!("opening trace store `{dir}`: {e}")));
            trips_obs::log!(Level::Info, "repro", "trace store: {dir}");
            Session::with_store(store)
        }
        None => Session::new(),
    };
    if let Some(plan) = sample {
        trips_obs::log!(
            Level::Info,
            "repro",
            "sampling timing backends under plan {plan}"
        );
    }
    if let Some(k) = phase {
        trips_obs::log!(
            Level::Info,
            "repro",
            "phase-classifying timing backends (k={k})"
        );
    }
    let run = Run {
        session: &session,
        sample,
        phase,
        scale: if quick { Scale::Test } else { Scale::Ref },
    };
    for (name, render) in experiments {
        trips_obs::log!(Level::Info, "repro", "running {name} ...");
        println!("{}", render(&run));
    }
    if trace_dir.is_some() {
        let c = session.cache_stats();
        trips_obs::log!(
            Level::Info,
            "repro",
            "store: disk_hits={} disk_misses={} disk_rejects={} writes={} captures={}",
            c.disk_hits,
            c.disk_misses,
            c.disk_rejects,
            c.store_writes,
            c.captures,
        );
        trips_obs::log!(
            Level::Info,
            "repro",
            "risc store: disk_hits={} disk_misses={} disk_rejects={} writes={} captures={}",
            c.risc_disk_hits,
            c.risc_disk_misses,
            c.risc_disk_rejects,
            c.risc_store_writes,
            c.risc_captures,
        );
    }
}
