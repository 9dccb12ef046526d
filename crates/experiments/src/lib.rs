//! # trips-experiments
//!
//! The experiment harness: one runner per table and figure of *An
//! Evaluation of the TRIPS Computer System*. Each runner measures the
//! reproduction's systems and renders a textual table with the same rows and
//! series the paper reports. `tests/golden/` pins the `--quick` output of
//! every table and figure.
//!
//! Each runner takes a [`Run`]: the session it memoizes in, its replay
//! mode and its scale, so runs in different modes can share a process.
//! Run everything with `cargo run --release -p trips-experiments --bin
//! repro -- all`, or a single experiment with e.g. `-- fig9`.

pub mod exps;
pub mod runner;
pub mod table;

pub use runner::{measure_isa, measure_perf, IsaMeasurement, PerfMeasurement, Run};
pub use table::Table;

/// Every experiment, in the paper's order: its name and the runner that
/// renders its report for a [`Run`].
pub const EXPERIMENTS: &[(&str, fn(&Run) -> String)] = &[
    ("table1", |_| exps::table1()),
    ("table2", |_| exps::table2()),
    ("fig3", exps::fig3),
    ("fig4", exps::fig4),
    ("fig5", exps::fig5),
    ("code_size", exps::code_size),
    ("fig6", exps::fig6),
    ("fig7", exps::fig7),
    ("fig8", exps::fig8),
    ("fig9", exps::fig9),
    ("fig10", exps::fig10),
    ("fig11", exps::fig11),
    ("fig12", exps::fig12),
    ("table3", exps::table3),
    ("matmul_fpc", exps::matmul_fpc),
    ("ablations", exps::ablations),
    ("sample_accuracy", exps::sample_accuracy),
    ("phase_accuracy", exps::phase_accuracy),
];

/// The runner of the experiment called `name`.
///
/// # Errors
/// Names every known experiment when `name` is not one of them.
pub fn experiment(name: &str) -> Result<fn(&Run) -> String, String> {
    match EXPERIMENTS.iter().find(|(known, _)| *known == name) {
        Some(&(_, runner)) => Ok(runner),
        None => {
            let known: Vec<&str> = EXPERIMENTS.iter().map(|(known, _)| *known).collect();
            Err(format!("unknown experiment {name}; known: {known:?}"))
        }
    }
}
