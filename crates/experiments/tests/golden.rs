//! Golden outputs: `repro --quick all` and `repro --quick --sample
//! 16,48,128 all` must print exactly what `tests/golden/*.txt` holds, so a
//! refactor of the measurement path cannot move a figure silently.
//!
//! Only the wall-clock parts are masked: the `speedup` cells of the
//! sampled-accuracy table and its `mean replay speedup` note.
//!
//! To bless, delete the golden file and run this test: it writes the
//! current output, fails once, and passes on the next run.

use std::path::PathBuf;
use std::process::Command;

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

fn check(golden: &str, args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "repro {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got = mask(&String::from_utf8(out.stdout).expect("utf-8 report"));
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
            "repro {args:?} differs from {} at line {}:\n  got:  {:?}\n  want: {:?}",
            path.display(),
            first + 1,
            got.lines().nth(first),
            want.lines().nth(first)
        );
    }
}

#[test]
fn quick_all_matches_golden() {
    check("quick_all.txt", &["--quick", "all"]);
}

#[test]
fn quick_sample_matches_golden() {
    check(
        "quick_sample.txt",
        &["--quick", "--sample", "16,48,128", "all"],
    );
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
