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
use std::process::ExitCode;

use trips_engine::{PhaseK, SamplePlan, Session, TraceStore};
use trips_experiments::{experiment, Run, EXPERIMENTS};
use trips_obs::Level;
use trips_workloads::Scale;

/// Logs `msg` as an error; the process exits 1.
fn fail(msg: impl Display) -> ExitCode {
    trips_obs::log!(Level::Error, "repro", "{msg}");
    ExitCode::FAILURE
}

/// The parsed command line.
struct Cli {
    quick: bool,
    trace_dir: Option<String>,
    sample: Option<SamplePlan>,
    phase: Option<PhaseK>,
    /// The experiments to run, by name, in order.
    experiments: Vec<(String, fn(&Run) -> String)>,
}

fn main() -> ExitCode {
    match parse(env::args().skip(1).collect()).and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => fail(msg),
    }
}

/// Removes `flag` and the value after it from `args` and returns the value;
/// `missing` is the error when the flag is the last argument.
fn take_value(args: &mut Vec<String>, flag: &str, missing: &str) -> Result<Option<String>, String> {
    let Some(at) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if at + 1 >= args.len() {
        return Err(missing.into());
    }
    let value = args.remove(at + 1);
    args.remove(at);
    Ok(Some(value))
}

/// Reads the whole command line. Flags may appear anywhere; what is left
/// is at most one experiment name.
fn parse(mut args: Vec<String>) -> Result<Cli, String> {
    let quick = args.iter().any(|a| a == "--quick");
    args.retain(|a| a != "--quick");
    let trace_dir = take_value(&mut args, "--trace-dir", "--trace-dir needs a value")?
        .or_else(|| env::var("TRIPS_TRACE_DIR").ok().filter(|v| !v.is_empty()));
    let sample = take_value(
        &mut args,
        "--sample",
        "--sample needs warmup,detailed,period",
    )?
    .map(|spec| SamplePlan::parse(&spec).map_err(|e| format!("--sample: {e}")))
    .transpose()?;
    let phase = take_value(&mut args, "--phase", "--phase needs k|auto")?
        .map(|spec| PhaseK::parse(&spec).map_err(|e| format!("--phase: {e}")))
        .transpose()?;
    if sample.is_some() && phase.is_some() {
        return Err("--sample and --phase are mutually exclusive".into());
    }
    let experiments = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        [] | ["all"] => EXPERIMENTS
            .iter()
            .map(|&(name, render)| (name.to_string(), render))
            .collect(),
        [what] => vec![(what.to_string(), experiment(what)?)],
        [what, ref rest @ ..] => {
            return Err(format!(
                "unexpected argument(s) after `{what}`: {} (one experiment name per run)",
                rest.iter()
                    .map(|a| format!("`{a}`"))
                    .collect::<Vec<_>>()
                    .join(" ")
            ))
        }
    };
    Ok(Cli {
        quick,
        trace_dir,
        sample,
        phase,
        experiments,
    })
}

/// Opens the store, builds the one [`Run`] and prints each report as soon
/// as it is rendered.
fn run(cli: Cli) -> Result<(), String> {
    let session = match &cli.trace_dir {
        Some(dir) => {
            let store =
                TraceStore::open(dir).map_err(|e| format!("opening trace store `{dir}`: {e}"))?;
            trips_obs::log!(Level::Info, "repro", "trace store: {dir}");
            Session::with_store(store)
        }
        None => Session::new(),
    };
    if let Some(plan) = cli.sample {
        trips_obs::log!(
            Level::Info,
            "repro",
            "sampling timing backends under plan {plan}"
        );
    }
    if let Some(k) = cli.phase {
        trips_obs::log!(
            Level::Info,
            "repro",
            "phase-classifying timing backends (k={k})"
        );
    }
    let run = Run {
        session: &session,
        sample: cli.sample,
        phase: cli.phase,
        scale: if cli.quick { Scale::Test } else { Scale::Ref },
    };
    for (name, render) in &cli.experiments {
        trips_obs::log!(Level::Info, "repro", "running {name} ...");
        println!("{}", render(&run));
    }
    if cli.trace_dir.is_some() {
        for line in session.cache_stats().store_lines() {
            trips_obs::log!(Level::Info, "repro", "{line}");
        }
    }
    Ok(())
}
