//! `sweepbench`: end-to-end and per-layer benchmark of the TRIPS sweep
//! engine.
//!
//! ```text
//! cargo run --release --manifest-path sweepbench/Cargo.toml -- \
//!     --workload cold_phased|warm_full|warm_livepoint|all \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a stamp line and, last, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of a traced repetition with
//! `--trace 1`. Exits 1 when a sweep's rows fail the output check. See
//! README.md for the workloads and what each metric should move.

mod layers;
mod measure;
mod spec;

use std::process::ExitCode;
use std::time::Instant;

use trips_engine::SweepSpec;
use trips_workloads::Scale;

use measure::{median, setup, timed_reps, Setup, Timed, SETUP_REPS};
use spec::{sweep_spec, Workload};

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What one workload's run produced.
pub struct Outcome {
    pub workload: Workload,
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Seconds of each timed repetition, in order.
    pub reps: Vec<f64>,
    pub rss: Vec<f64>,
}

fn end_to_end(timed: &Timed, setup_s: &[f64]) -> Vec<Metric> {
    let sweep_s = median(&timed.sweep_s);
    vec![
        Metric {
            name: "sweep_s",
            unit: "s",
            value: sweep_s,
        },
        Metric {
            name: "sim_minsts_per_s",
            unit: "Minsts/s",
            value: timed.insts as f64 / 1e6 / sweep_s,
        },
        Metric {
            name: "setup_s",
            unit: "s",
            value: median(setup_s),
        },
        Metric {
            name: "peak_rss_mb",
            unit: "MB",
            value: timed.peak_rss_mb.iter().copied().fold(0.0, f64::max),
        },
    ]
}

/// Sets up [`SETUP_REPS`] times and keeps the last set-up; the earlier
/// ones are removed outside the timed region.
fn prepare(w: Workload, spec: &SweepSpec) -> Result<(Setup, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let s = setup(w, spec)?;
        times.push(t0.elapsed().as_secs_f64());
        kept = Some(s);
    }
    Ok((kept.expect("at least one set-up"), times))
}

/// Runs `workloads` with `threads` workers: every untimed set-up and
/// timed repetition first, then (with `trace`) each traced repetition,
/// because span journaling cannot be switched off once on.
pub fn run(
    workloads: &[Workload],
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    threads: usize,
) -> Result<Vec<Outcome>, String> {
    let mut runs = Vec::new();
    for &w in workloads {
        let spec = sweep_spec(w, seed, scale, threads);
        let (mut setup, setup_s) = prepare(w, &spec)?;
        let timed = timed_reps(&spec, &mut setup, seconds)?;
        runs.push((w, spec, setup, setup_s, timed));
    }
    runs.into_iter()
        .map(|(w, spec, mut setup, setup_s, mut timed)| {
            let metrics = if trace {
                layers::traced(&spec, &mut setup, &mut timed)?
            } else {
                end_to_end(&timed, &setup_s)
            };
            Ok(Outcome {
                workload: w,
                metrics,
                attempted: timed.attempted,
                failed: timed.failed,
                reps: timed.sweep_s,
                rss: timed.peak_rss_mb,
            })
        })
        .collect()
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad --seconds `{value}`"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workloads = if workload == "all" {
        Workload::ALL.to_vec()
    } else {
        vec![Workload::parse(&workload).ok_or_else(|| {
            format!("unknown workload `{workload}` (cold_phased, warm_full, warm_livepoint, all)")
        })?]
    };
    Ok(Args {
        workloads,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The commit the checkout was built from, when it carries git metadata.
fn git_commit() -> String {
    let git = std::path::Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|hash| hash.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sweepbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let outcomes = match run(
        &args.workloads,
        args.seed,
        args.seconds,
        args.trace,
        Scale::Ref,
        nproc,
    ) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("sweepbench: {e}");
            return ExitCode::FAILURE;
        }
    };

    let prefixed = outcomes.len() > 1;
    let mut metrics = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for o in &outcomes {
        eprintln!(
            "sweepbench {} seed={} reps={:.3?} rss={:.0?} attempted={} failed={}",
            o.workload.name(),
            args.seed,
            o.reps,
            o.rss,
            o.attempted,
            o.failed
        );
        for m in &o.metrics {
            if !m.value.is_finite() {
                eprintln!("sweepbench: {} is not a number", m.name);
                return ExitCode::FAILURE;
            }
            eprintln!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
            let name = if prefixed {
                format!("{}.{}", o.workload.name(), m.name)
            } else {
                m.name.to_string()
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.value, m.unit
            ));
        }
        attempted += o.attempted;
        failed += o.failed;
    }
    let names: Vec<String> = outcomes
        .iter()
        .map(|o| format!("\"{}\"", o.workload.name()))
        .collect();
    println!(
        "{{\"stamp\": {{\"workloads\": [{}], \"seed\": {}, \"nproc\": {nproc}, \"threads\": {nproc}, \"profile\": \"{}\", \"commit\": \"{}\"}}}}",
        names.join(", "),
        args.seed,
        if cfg!(debug_assertions) { "debug" } else { "release" },
        git_commit()
    );
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("sweepbench: {failed} sweep point(s) failed the output check");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    /// `(name, unit)` of every metric BENCHMARK.json declares in `section`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = serde::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let Value::Seq(metrics) = serde::field(&doc, section).unwrap() else {
            panic!("{section} is not a list");
        };
        let text = |m, key| match serde::field(m, key).unwrap() {
            Value::Str(s) => s.clone(),
            other => panic!("{key}: {other:?}"),
        };
        metrics
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit")))
            .collect()
    }

    fn emitted(o: &Outcome) -> Vec<(String, String)> {
        o.metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    fn value(o: &Outcome, name: &str) -> f64 {
        o.metrics.iter().find(|m| m.name == name).unwrap().value
    }

    /// Counts that must repeat exactly for a given seed.
    const EXACT: [&str; 7] = [
        "cache.captures",
        "cache.disk_hits",
        "cache.livepoint_disk_hits",
        "cache.memo_hit_ratio",
        "sample.detailed_frac",
        "sample.ipc_err_pct",
        "store.livepoint_bytes",
    ];

    #[test]
    fn every_declared_metric_is_emitted_and_exact_counts_repeat() {
        let untraced = run(&Workload::ALL, 5, 0.0, false, Scale::Test, 2).unwrap();
        for o in &untraced {
            assert_eq!(o.failed, 0, "{}", o.workload.name());
            assert_eq!(emitted(o), declared("end_to_end"));
            assert!(
                o.metrics.iter().all(|m| m.value > 0.0),
                "{}",
                o.workload.name()
            );
        }
        let traced = || run(&Workload::ALL, 5, 0.0, true, Scale::Test, 2).unwrap();
        let (a, b) = (traced(), traced());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.failed, y.failed), (0, 0), "{}", x.workload.name());
            assert_eq!(emitted(x), declared("per_layer"));
            for name in EXACT {
                assert_eq!(
                    value(x, name),
                    value(y, name),
                    "{name} on {}",
                    x.workload.name()
                );
            }
        }
        let by = |w| a.iter().find(|o| o.workload == w).unwrap();
        assert!(value(by(Workload::ColdPhased), "cache.captures") > 0.0);
        assert_eq!(value(by(Workload::WarmFull), "cache.captures"), 0.0);
        assert_eq!(value(by(Workload::WarmLivepoint), "cache.captures"), 0.0);
    }
}
