//! # trips-experiments
//!
//! The experiment harness: one runner per table and figure of *An
//! Evaluation of the TRIPS Computer System*. Each runner measures the
//! reproduction's systems and renders a textual table with the same rows and
//! series the paper reports; EXPERIMENTS.md records reproduction-vs-paper
//! shape comparisons.
//!
//! Run everything with `cargo run --release -p trips-experiments --bin
//! repro -- all`, or a single experiment with e.g. `-- fig9`.

pub mod exps;
pub mod runner;
pub mod table;

pub use runner::{measure_isa, measure_perf, IsaMeasurement, PerfMeasurement};
pub use table::Table;

/// All experiment names, in the paper's order.
pub const EXPERIMENTS: &[&str] = &[
    "table1",
    "table2",
    "fig3",
    "fig4",
    "fig5",
    "code_size",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "table3",
    "matmul_fpc",
    "ablations",
    "sample_accuracy",
    "phase_accuracy",
];

/// Runs one experiment by name, returning its rendered report.
///
/// # Errors
/// Returns an error string for unknown names or simulation failures.
pub fn run_experiment(name: &str, quick: bool) -> Result<String, String> {
    let scale = if quick {
        trips_workloads::Scale::Test
    } else {
        trips_workloads::Scale::Ref
    };
    match name {
        "table1" => Ok(exps::table1()),
        "table2" => Ok(exps::table2()),
        "fig3" => Ok(exps::fig3(scale)),
        "fig4" => Ok(exps::fig4(scale)),
        "fig5" => Ok(exps::fig5(scale)),
        "code_size" => Ok(exps::code_size(scale)),
        "fig6" => Ok(exps::fig6(scale)),
        "fig7" => Ok(exps::fig7(scale)),
        "fig8" => Ok(exps::fig8(scale)),
        "fig9" => Ok(exps::fig9(scale)),
        "fig10" => Ok(exps::fig10(scale)),
        "fig11" => Ok(exps::fig11(scale)),
        "fig12" => Ok(exps::fig12(scale)),
        "table3" => Ok(exps::table3(scale)),
        "matmul_fpc" => Ok(exps::matmul_fpc(scale)),
        "ablations" => Ok(exps::ablations(scale)),
        "sample_accuracy" => Ok(exps::sample_accuracy(scale)),
        "phase_accuracy" => Ok(exps::phase_accuracy(scale)),
        other => Err(format!(
            "unknown experiment {other}; known: {EXPERIMENTS:?}"
        )),
    }
}
