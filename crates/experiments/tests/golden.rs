//! Golden outputs: the `repro --quick all` report, rendered in-process
//! under full replay and under `--sample 16,48,128`, must be exactly what
//! `tests/golden/*.txt` holds, so a refactor of the measurement path cannot
//! move a figure silently. Each mode runs on its own session, side by side
//! in one process: no replay mode or store is process-wide state.
//!
//! The `ref_*` tests do the same for `repro all` at Ref scale, the scale
//! the paper reports, under full replay, `--sample 16,48,128` and
//! `--phase auto` (every Test-scale stream is under the phase floor, so
//! only Ref reaches phased figures). They are `#[ignore]`d: run them in
//! release with `cargo test --release -p trips-experiments --test golden
//! -- --ignored`.
//!
//! Only the wall-clock parts are masked: the `speedup` cells of the
//! sampled-accuracy table and its `mean replay speedup` note. The full
//! replay run also checks the figures' own claims: Figure 9 has its
//! `simple mean` row, Figure 7 its `A MPKI` column, and every Figure 10
//! row has an ideal 1K IPC above its nonzero hardware IPC.
//!
//! To bless, delete the golden file and run this test: it writes the
//! current output, fails once, and passes on the next run.

use std::path::PathBuf;
use trips_engine::{PhaseK, SamplePlan, Session};
use trips_experiments::{Run, EXPERIMENTS};
use trips_workloads::Scale;

/// Masks what depends on the wall-clock in a `repro` report.
fn mask(report: &str) -> String {
    let mut out = String::new();
    let mut in_sampled = false;
    for line in report.lines() {
        if line.starts_with("== ") {
            in_sampled = line.starts_with("== Sampled replay accuracy");
        }
        let mut line = line.to_string();
        if in_sampled {
            if let Some((head, cell)) = line.rsplit_once(' ') {
                let is_speedup = cell
                    .strip_suffix('x')
                    .is_some_and(|v| v.parse::<f64>().is_ok());
                if is_speedup {
                    line = format!("{}  N.Nx", head.trim_end());
                }
            }
            const NOTE: &str = "mean replay speedup ";
            if let Some(at) = line.find(NOTE) {
                line = format!("{}N.Nx", &line[..at + NOTE.len()]);
            }
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// What `repro` prints for `all` under `run`: every report, each followed
/// by a newline.
fn render_all(run: &Run) -> String {
    EXPERIMENTS
        .iter()
        .map(|(_, experiment)| format!("{}\n", experiment(run)))
        .collect()
}

/// Checks the masked `all` report of `run` against `golden` and returns
/// it.
fn check(golden: &str, run: &Run) -> String {
    let got = mask(&render_all(run));
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(golden);
    let Ok(want) = std::fs::read_to_string(&path) else {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, &got).expect("write golden file");
        panic!(
            "{} was missing and has been written; re-run to check against it",
            path.display()
        );
    };
    if got != want {
        let first = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or(got.lines().count().min(want.lines().count()));
        panic!(
            "in-process output differs from {} at line {}:\n  got:  {:?}\n  want: {:?}",
            path.display(),
            first + 1,
            got.lines().nth(first),
            want.lines().nth(first)
        );
    }
    got
}

/// The report section that starts at the line starting with `title`,
/// up to the first blank line.
fn section<'a>(report: &'a str, title: &str) -> &'a str {
    let at = report
        .find(title)
        .unwrap_or_else(|| panic!("no section {title:?}"));
    report[at..].split("\n\n").next().unwrap_or_default()
}

#[test]
fn quick_all_matches_golden() {
    let report = check("quick_all.txt", &Run::new(&Session::new(), Scale::Test));
    assert!(section(&report, "== Figure 9").contains("\nsimple mean"));
    assert!(section(&report, "== Figure 7").contains("A MPKI"));
    // Past the title and column header, up to the geomean row.
    let fig10 = section(&report, "== Figure 10").lines().skip(2);
    let rows: Vec<&str> = fig10.take_while(|l| !l.starts_with("geomean")).collect();
    assert_eq!(rows.len(), 33, "one row per simple and SPEC workload");
    for row in rows {
        let ipc = |col: usize| -> f64 { row.split_whitespace().nth(col).unwrap().parse().unwrap() };
        let (hw, ideal_1k) = (ipc(1), ipc(2));
        assert!(
            ideal_1k > hw && hw > 0.0,
            "ideal 1K IPC must exceed hw IPC: {row}"
        );
    }
}

#[test]
fn quick_sample_matches_golden() {
    let session = Session::new();
    let run = Run {
        sample: Some(SamplePlan::new(16, 48, 128).expect("valid plan")),
        ..Run::new(&session, Scale::Test)
    };
    check("quick_sample.txt", &run);
}

/// Checks `repro all` at Ref scale on its own session, in one of the
/// modes `tweak` selects, against `golden`.
fn check_ref(golden: &str, tweak: impl FnOnce(Run) -> Run) {
    let session = Session::new();
    check(golden, &tweak(Run::new(&session, Scale::Ref)));
}

#[test]
#[ignore = "Ref scale: run in release"]
fn ref_all_matches_golden() {
    check_ref("ref_all.txt", |run| run);
}

#[test]
#[ignore = "Ref scale: run in release"]
fn ref_sample_matches_golden() {
    check_ref("ref_sample.txt", |run| Run {
        sample: Some(SamplePlan::new(16, 48, 128).expect("valid plan")),
        ..run
    });
}

#[test]
#[ignore = "Ref scale: run in release"]
fn ref_phase_matches_golden() {
    check_ref("ref_phase.txt", |run| Run {
        phase: Some(PhaseK::Auto),
        ..run
    });
}

#[test]
fn masking_touches_only_the_speedups() {
    let report = "\
== Figure 11: speedup over Core 2 (gcc), cycles ==
vadd  1.5x
== Sampled replay accuracy (plan) ==
              backend  speedup
vadd            trips    12.5x
  note: max IPC error 0.00% over 2 measurements; mean replay speedup 3.4x
";
    assert_eq!(
        mask(report),
        "\
== Figure 11: speedup over Core 2 (gcc), cycles ==
vadd  1.5x
== Sampled replay accuracy (plan) ==
              backend  speedup
vadd            trips  N.Nx
  note: max IPC error 0.00% over 2 measurements; mean replay speedup N.Nx
"
    );
}
