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

use std::env;

use trips_obs::Level;

fn main() {
    let mut args: Vec<String> = env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    args.retain(|a| a != "--quick");
    let mut trace_dir = env::var("TRIPS_TRACE_DIR").ok().filter(|v| !v.is_empty());
    if let Some(at) = args.iter().position(|a| a == "--trace-dir") {
        if at + 1 >= args.len() {
            trips_obs::log!(Level::Error, "repro", "--trace-dir needs a value");
            std::process::exit(1);
        }
        trace_dir = Some(args.remove(at + 1));
        args.remove(at);
    }
    if let Some(dir) = &trace_dir {
        if let Err(e) = trips_experiments::runner::init_trace_store(std::path::Path::new(dir)) {
            trips_obs::log!(Level::Error, "repro", "{e}");
            std::process::exit(1);
        }
        trips_obs::log!(Level::Info, "repro", "trace store: {dir}");
    }
    if let Some(at) = args.iter().position(|a| a == "--sample") {
        if at + 1 >= args.len() {
            trips_obs::log!(
                Level::Error,
                "repro",
                "--sample needs warmup,detailed,period"
            );
            std::process::exit(1);
        }
        let spec = args.remove(at + 1);
        args.remove(at);
        let plan = match trips_engine::SamplePlan::parse(&spec) {
            Ok(p) => p,
            Err(e) => {
                trips_obs::log!(Level::Error, "repro", "--sample: {e}");
                std::process::exit(1);
            }
        };
        if let Err(e) = trips_experiments::runner::set_sample_plan(plan) {
            trips_obs::log!(Level::Error, "repro", "{e}");
            std::process::exit(1);
        }
        trips_obs::log!(
            Level::Info,
            "repro",
            "sampling timing backends under plan {plan}"
        );
    }
    if let Some(at) = args.iter().position(|a| a == "--phase") {
        if at + 1 >= args.len() {
            trips_obs::log!(Level::Error, "repro", "--phase needs k|auto");
            std::process::exit(1);
        }
        let spec = args.remove(at + 1);
        args.remove(at);
        let k = match trips_engine::PhaseK::parse(&spec) {
            Ok(k) => k,
            Err(e) => {
                trips_obs::log!(Level::Error, "repro", "--phase: {e}");
                std::process::exit(1);
            }
        };
        if let Err(e) = trips_experiments::runner::set_phase_k(k) {
            trips_obs::log!(Level::Error, "repro", "{e}");
            std::process::exit(1);
        }
        trips_obs::log!(
            Level::Info,
            "repro",
            "phase-classifying timing backends (k={k})"
        );
    }
    let what = match args.as_slice() {
        [] => "all",
        [what] => what.as_str(),
        [what, rest @ ..] => {
            trips_obs::log!(
                Level::Error,
                "repro",
                "unexpected argument(s) after `{what}`: {} (one experiment name per run)",
                rest.iter()
                    .map(|a| format!("`{a}`"))
                    .collect::<Vec<_>>()
                    .join(" ")
            );
            std::process::exit(1);
        }
    };

    let names: Vec<&str> = if what == "all" {
        trips_experiments::EXPERIMENTS.to_vec()
    } else {
        vec![what]
    };
    for name in names {
        trips_obs::log!(Level::Info, "repro", "running {name} ...");
        match trips_experiments::run_experiment(name, quick) {
            Ok(report) => println!("{report}"),
            Err(e) => {
                trips_obs::log!(Level::Error, "repro", "{e}");
                std::process::exit(1);
            }
        }
    }
    if trace_dir.is_some() {
        let c = trips_engine::Session::global().cache_stats();
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
