//! Platform shootout: run one benchmark from each suite across TRIPS
//! (compiled and hand-optimized) and the three reference platforms, printing
//! the Figure 11/12-style cycle comparison.
//!
//! ```text
//! cargo run --release --example platform_shootout [workload ...]
//! ```

use trips::engine::Session;
use trips::experiments::{measure_perf, Run, Table};
use trips::workloads::{by_name, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<String> = if args.is_empty() {
        ["matrix", "a2time", "8b10b", "mcf", "equake"]
            .iter()
            .map(|s| s.to_string())
            .collect()
    } else {
        args
    };

    let session = Session::new();
    let run = Run::new(&session, Scale::Ref);
    let mut t = Table::new(
        "cycles on each platform (speedup over Core 2-gcc in parentheses)",
        &["TRIPS-C", "TRIPS-H", "Core2-gcc", "Core2-icc", "P4", "P3"],
    );
    for name in &names {
        let Some(w) = by_name(name) else {
            eprintln!("unknown workload {name}; see `trips_workloads::all()`");
            std::process::exit(1);
        };
        eprintln!("measuring {name} ...");
        let p = measure_perf(&run, &w, true);
        let base = p.core2_gcc.cycles as f64;
        let cell = |cyc: u64| format!("{cyc} ({:.2}x)", base / cyc.max(1) as f64);
        t.row(
            w.name,
            vec![
                cell(p.trips_c.cycles),
                p.trips_h
                    .as_ref()
                    .map(|h| cell(h.cycles))
                    .unwrap_or_else(|| "-".into()),
                cell(p.core2_gcc.cycles),
                cell(p.core2_icc.cycles),
                cell(p.p4_gcc.cycles),
                cell(p.p3_gcc.cycles),
            ],
        );
    }
    println!("{}", t.render());
    println!("paper shape: TRIPS-H > TRIPS-C on simple kernels; Core 2 > P3 > P4 in cycles;");
    println!("SPEC proxies (mcf, equake) favour the conventional cores, as in Figure 12.");
}
