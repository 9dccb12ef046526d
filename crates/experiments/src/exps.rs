//! One runner per table/figure of the paper.
//!
//! The measurement loops are declarative: each figure builds a
//! [`trips_engine::SweepSpec`] over its workloads and backends, executes it
//! through the engine ([`runner::isa_measurements`],
//! [`runner::trips_measurements`] — both thin wrappers over
//! `trips_engine::run_sweep` on the global session), and renders the rows.
//! The figures therefore measure through the exact code path `trips-sweep`
//! and `repro` drive, and every artifact (compile, TRIPS trace, RISC event
//! stream) is captured once and replayed everywhere.

use crate::runner::{self, compile_workload, geomean, mean, measure_perf, MEM};
use crate::table::Table;
use trips_compiler::CompileOptions;
use trips_engine::Session;
use trips_risc::EventSource;
use trips_sim::predictor::{ExitKind, NextBlockPredictor, TournamentBranchPredictor};
use trips_sim::TripsConfig;
use trips_workloads::{simple, suite, Scale, Suite, Workload};

fn simple_set() -> Vec<Workload> {
    simple()
}

/// The simple set plus the named suites, for figures whose sweep covers
/// both the per-benchmark rows and the suite summary rows.
fn with_suites(base: Vec<Workload>, suites: &[Suite]) -> Vec<Workload> {
    let mut ws = base;
    for s in suites {
        ws.extend(suite(*s));
    }
    ws
}

/// Table 1: reference platform configurations.
pub fn table1() -> String {
    let mut t = Table::new(
        "Table 1: reference platforms",
        &["proc MHz", "mem MHz", "ratio", "L1D", "L2", "window"],
    );
    t.row(
        "TRIPS",
        vec![
            "366".into(),
            "200".into(),
            "1.83".into(),
            "32 KB/4 banks".into(),
            "1 MB NUCA".into(),
            "1024".into(),
        ],
    );
    for (cfg, mhz, mem, ratio) in [
        (trips_ooo::core2(), 1600, 800, 2.0),
        (trips_ooo::pentium4(), 3600, 533, 6.75),
        (trips_ooo::pentium3(), 450, 100, 4.5),
    ] {
        t.row(
            cfg.name.clone(),
            vec![
                mhz.to_string(),
                mem.to_string(),
                format!("{ratio:.2}"),
                format!("{} KB", cfg.l1_bytes >> 10),
                format!("{} KB", cfg.l2_bytes >> 10),
                cfg.rob.to_string(),
            ],
        );
    }
    t.note("memory latencies in cycles follow the speed ratios (see trips-ooo::configs)");
    t.render()
}

/// Table 2: benchmark suites.
pub fn table2() -> String {
    let mut t = Table::new("Table 2: benchmark suites", &["#", "members"]);
    for s in [
        Suite::Kernels,
        Suite::Versa,
        Suite::Eembc,
        Suite::SpecInt,
        Suite::SpecFp,
    ] {
        let ws = suite(s);
        let names: Vec<&str> = ws.iter().map(|w| w.name).collect();
        t.row(s.label(), vec![ws.len().to_string(), names.join(" ")]);
    }
    t.row(
        "Simple (hand-studied)",
        vec![
            simple_set().len().to_string(),
            "kernels + versabench + 8 EEMBC".into(),
        ],
    );
    t.render()
}

/// Figure 3: TRIPS block size and composition, compiled (C) and hand (H).
pub fn fig3(scale: Scale) -> String {
    let c = runner::isa_measurements(
        &with_suites(simple_set(), &[Suite::Eembc, Suite::SpecInt, Suite::SpecFp]),
        scale,
        false,
    );
    let h = runner::isa_measurements(&simple_set(), scale, true);
    let mut t = Table::new(
        "Figure 3: average block composition (instructions per block)",
        &[
            "total", "useful", "moves", "tests", "mem", "ctrl", "nulls", "fetchNX", "execNU",
        ],
    );
    let mut emit = |label: String, s: &trips_isa::IsaStats| {
        let b = s.blocks_executed.max(1) as f64;
        let c = &s.composition;
        t.row_f(
            label,
            &[
                s.avg_block_size(),
                (c.arithmetic + c.tests + c.memory + c.control_flow) as f64 / b,
                c.moves as f64 / b,
                c.tests as f64 / b,
                c.memory as f64 / b,
                c.control_flow as f64 / b,
                c.null_tokens as f64 / b,
                c.fetched_not_executed as f64 / b,
                c.executed_not_used as f64 / b,
            ],
        );
    };
    for w in simple_set() {
        emit(format!("{} (C)", w.name), &c[w.name].trips);
        emit(format!("{} (H)", w.name), &h[w.name].trips);
    }
    for s in [Suite::Eembc, Suite::SpecInt, Suite::SpecFp] {
        let sizes: Vec<f64> = suite(s)
            .iter()
            .map(|w| c[w.name].trips.avg_block_size())
            .collect();
        t.row_f(format!("{} mean (C)", s.label()), &[mean(sizes)]);
    }
    t.note("paper: compiled mean 64 insts/block (range 30-110); hand blocks larger; moves ~20%");
    t.render()
}

/// Figure 4: fetched TRIPS instructions normalized to the RISC baseline.
pub fn fig4(scale: Scale) -> String {
    let c = runner::isa_measurements(
        &with_suites(simple_set(), &[Suite::Eembc, Suite::SpecInt, Suite::SpecFp]),
        scale,
        false,
    );
    let h = runner::isa_measurements(&simple_set(), scale, true);
    let mut t = Table::new(
        "Figure 4: TRIPS instructions normalized to RISC (PowerPC-like)",
        &["useful", "moves", "execNU", "fetchNX", "total"],
    );
    let mut add = |label: String, m: &crate::runner::IsaMeasurement| {
        let base = m.risc.insts.max(1) as f64;
        let c = &m.trips.composition;
        let useful = (c.arithmetic + c.tests + c.memory + c.control_flow) as f64 / base;
        let moves = (c.moves + c.null_tokens) as f64 / base;
        let enu = c.executed_not_used as f64 / base;
        let fnx = c.fetched_not_executed as f64 / base;
        t.row_f(
            label,
            &[useful, moves, enu, fnx, useful + moves + enu + fnx],
        );
    };
    for w in simple_set() {
        add(format!("{} (C)", w.name), &c[w.name]);
        add(format!("{} (H)", w.name), &h[w.name]);
    }
    for s in [Suite::Eembc, Suite::SpecInt, Suite::SpecFp] {
        let ratios: Vec<f64> = suite(s)
            .iter()
            .map(|w| {
                let m = &c[w.name];
                m.trips.fetched as f64 / m.risc.insts.max(1) as f64
            })
            .collect();
        t.row_f(
            format!("{} geomean total (C)", s.label()),
            &[geomean(ratios)],
        );
    }
    t.note("paper: useful counts similar to PowerPC; total fetched 2-6x due to predication");
    t.render()
}

/// Figure 5: storage accesses normalized to the RISC baseline.
pub fn fig5(scale: Scale) -> String {
    let c = runner::isa_measurements(
        &with_suites(simple_set(), &[Suite::Eembc, Suite::SpecInt, Suite::SpecFp]),
        scale,
        false,
    );
    let h = runner::isa_measurements(&simple_set(), scale, true);
    let mut t = Table::new(
        "Figure 5: storage accesses normalized to RISC",
        &[
            "mem/riscMem",
            "reads/riscReg",
            "writes/riscReg",
            "opn/riscReg",
        ],
    );
    let mut add = |label: String, m: &crate::runner::IsaMeasurement| {
        let rm = m.risc.memory_accesses().max(1) as f64;
        let rr = m.risc.register_accesses().max(1) as f64;
        t.row_f(
            label,
            &[
                m.trips.memory_accesses() as f64 / rm,
                m.trips.reads_fetched as f64 / rr,
                m.trips.writes_committed as f64 / rr,
                m.trips.et_et_operands as f64 / rr,
            ],
        );
    };
    for w in simple_set() {
        add(format!("{} (C)", w.name), &c[w.name]);
        add(format!("{} (H)", w.name), &h[w.name]);
    }
    for s in [Suite::Eembc, Suite::SpecInt, Suite::SpecFp] {
        let (mut m_, mut r_, mut w_, mut o_) = (vec![], vec![], vec![], vec![]);
        for w in suite(s) {
            let m = &c[w.name];
            m_.push(m.trips.memory_accesses() as f64 / m.risc.memory_accesses().max(1) as f64);
            r_.push(m.trips.reads_fetched as f64 / m.risc.register_accesses().max(1) as f64);
            w_.push(m.trips.writes_committed as f64 / m.risc.register_accesses().max(1) as f64);
            o_.push(m.trips.et_et_operands as f64 / m.risc.register_accesses().max(1) as f64);
        }
        t.row_f(
            format!("{} geomean (C)", s.label()),
            &[geomean(m_), geomean(r_), geomean(w_), geomean(o_)],
        );
    }
    t.note("paper: ~half the memory accesses; 10-20% of the register accesses; direct operands dominate");
    t.render()
}

/// §4.4 code size study.
pub fn code_size(scale: Scale) -> String {
    let mut t = Table::new(
        "Sec 4.4: dynamic code size vs RISC",
        &[
            "trips KB (raw)",
            "trips KB (compressed)",
            "risc KB",
            "raw x",
            "compressed x",
        ],
    );
    let all = trips_workloads::all();
    let c = runner::isa_measurements(&all, scale, false);
    let mut raws = vec![];
    let mut comps = vec![];
    for w in all {
        let m = &c[w.name];
        let touched = &m.trips.blocks_touched;
        let raw: usize = touched.len() * trips_isa::encode::encoded_size_uncompressed();
        let comp: usize = touched
            .iter()
            .map(|&b| {
                trips_isa::encode::encoded_size_compressed(&m.compiled.trips.blocks[b as usize])
            })
            .sum();
        let risc = m.risc.code_footprint_bytes() as usize;
        let rx = raw as f64 / risc.max(1) as f64;
        let cx = comp as f64 / risc.max(1) as f64;
        raws.push(rx);
        comps.push(cx);
        t.row_f(
            w.name,
            &[
                raw as f64 / 1024.0,
                comp as f64 / 1024.0,
                risc as f64 / 1024.0,
                rx,
                cx,
            ],
        );
    }
    t.row_f("geomean", &[0.0, 0.0, 0.0, geomean(raws), geomean(comps)]);
    t.note("paper: ~6x raw over PowerPC, ~4x with 32/64/96/128 block compression");
    t.render()
}

/// Figure 6: average instructions in the window.
pub fn fig6(scale: Scale) -> String {
    let c = runner::trips_measurements(
        &with_suites(simple_set(), &[Suite::SpecInt, Suite::SpecFp]),
        scale,
        false,
    );
    let h = runner::trips_measurements(&simple_set(), scale, true);
    let mut t = Table::new(
        "Figure 6: average instructions in flight",
        &["total", "useful"],
    );
    let mut totals_c = vec![];
    for w in simple_set() {
        let cs = &c[w.name];
        t.row_f(
            format!("{} (C)", w.name),
            &[cs.avg_window_insts(), cs.avg_window_useful()],
        );
        totals_c.push(cs.avg_window_insts());
        let hs = &h[w.name];
        t.row_f(
            format!("{} (H)", w.name),
            &[hs.avg_window_insts(), hs.avg_window_useful()],
        );
    }
    for s in [Suite::SpecInt, Suite::SpecFp] {
        let vals: Vec<(f64, f64)> = suite(s)
            .iter()
            .map(|w| {
                let cs = &c[w.name];
                (cs.avg_window_insts(), cs.avg_window_useful())
            })
            .collect();
        t.row_f(
            format!("{} mean (C)", s.label()),
            &[
                mean(vals.iter().map(|v| v.0)),
                mean(vals.iter().map(|v| v.1)),
            ],
        );
    }
    t.row_f("simple mean (C)", &[mean(totals_c.iter().copied()), 0.0]);
    t.note("paper: compiled mean 450 total in flight (887 peak benchmark), hand 630 (1013 peak)");
    t.render()
}

/// Figure 7: prediction breakdown for the four predictor configurations.
pub fn fig7(scale: Scale) -> String {
    let mut t = Table::new(
        "Figure 7: predictor study (SPEC)",
        &[
            "A preds",
            "A MPKI",
            "B MPKI",
            "H MPKI",
            "I MPKI",
            "H preds/B preds",
        ],
    );
    let spec: Vec<Workload> = suite(Suite::SpecInt)
        .into_iter()
        .chain(suite(Suite::SpecFp))
        .collect();
    let mut a_m = vec![];
    let mut b_m = vec![];
    let mut h_m = vec![];
    let mut i_m = vec![];
    for w in &spec {
        // Useful-instruction baseline from the hyperblock build (memoized
        // functional outcome).
        let func = Session::global()
            .isa_outcome(
                w,
                scale,
                &runner::trips_preset(false),
                false,
                MEM,
                runner::FUNC_BUDGET,
            )
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let useful = func.stats.useful.max(1);

        // (A) conventional tournament on the RISC conditional-branch
        // stream, replayed from the recorded trace — the same capture every
        // OoO platform times, so the study adds zero functional executions.
        let art = runner::risc_baseline(w, scale);
        let stream = runner::risc_stream(w, scale);
        let mut tourney = TournamentBranchPredictor::new(4096);
        let mut cur = stream.cursor(&art.program);
        while let Some(ev) = cur.next_event().expect("validated stream") {
            if let Some(taken) = ev.cond {
                tourney.predict_and_update((ev.func << 16) ^ ev.idx, taken);
            }
        }
        let a_mpki = tourney.mispredicts as f64 * 1000.0 / useful as f64;

        // (B) TRIPS block predictor on basic-block code (O0).
        let b_mpki = block_predictor_mpki(
            w,
            scale,
            CompileOptions::o0(),
            &TripsConfig::prototype(),
            useful,
        );
        // (H) prototype predictor on hyperblocks.
        let h_mpki = block_predictor_mpki(
            w,
            scale,
            CompileOptions::o1(),
            &TripsConfig::prototype(),
            useful,
        );
        // (I) improved predictor on hyperblocks.
        let i_mpki = block_predictor_mpki(
            w,
            scale,
            CompileOptions::o1(),
            &TripsConfig::improved_predictor(),
            useful,
        );
        a_m.push(a_mpki);
        b_m.push(b_mpki.0);
        h_m.push(h_mpki.0);
        i_m.push(i_mpki.0);
        t.row_f(
            w.name,
            &[
                tourney.predictions as f64,
                a_mpki,
                b_mpki.0,
                h_mpki.0,
                i_mpki.0,
                h_mpki.1 as f64 / b_mpki.1.max(1) as f64,
            ],
        );
    }
    t.row_f(
        "mean",
        &[0.0, mean(a_m), mean(b_m), mean(h_m), mean(i_m), 0.0],
    );
    t.note(
        "paper SPEC INT MPKI: A=14.9 B=14.8 H=8.5 I=6.9; hyperblocks make ~70% fewer predictions",
    );
    t.render()
}

fn block_predictor_mpki(
    w: &Workload,
    scale: Scale,
    level: CompileOptions,
    cfg: &TripsConfig,
    useful_baseline: u64,
) -> (f64, u64) {
    let compiled = Session::global()
        .compiled(w, scale, &level, false)
        .unwrap_or_else(|e| panic!("{}: {e}", w.name));
    let tp = &compiled.trips;
    let mut pred = NextBlockPredictor::new(cfg.exit_entries, cfg.btb_entries, cfg.ras_depth);
    let mut pending: Option<(u32, u8, ExitKind, Option<u32>)> = None;
    let _ = trips_isa::interp::run_program_traced(
        tp,
        &compiled.opt_ir,
        MEM,
        runner::FUNC_BUDGET,
        |b, tr| {
            if let Some((pb, pexit, kind, cont)) = pending.take() {
                let multi = tp.blocks[pb as usize].exits.len() > 1;
                pred.predict_and_update(pb, pexit, kind, b, cont, multi);
            }
            let (kind, cont) = match tp.blocks[b as usize].exits[tr.exit as usize] {
                trips_isa::ExitTarget::Block(_) => (ExitKind::Jump, None),
                trips_isa::ExitTarget::Call { cont, .. } => (ExitKind::Call, Some(cont)),
                trips_isa::ExitTarget::Ret => (ExitKind::Ret, None),
            };
            pending = Some((b, tr.exit, kind, cont));
        },
    );
    (
        pred.stats.mispredicts() as f64 * 1000.0 / useful_baseline as f64,
        pred.stats.predictions,
    )
}

/// Figure 8: memory bandwidth and OPN traffic profile.
pub fn fig8(scale: Scale) -> String {
    let mut out = String::new();
    // Bandwidth: hand vadd at full tilt.
    let w = trips_workloads::by_name("vadd").unwrap();
    let s = runner::trips_cycles_for(&w, scale, true);
    let mut t = Table::new(
        "Figure 8a: achieved bandwidth (bytes/cycle), vadd hand",
        &["achieved", "peak", "% of peak"],
    );
    let l1 = s.l1_bytes as f64 / s.cycles.max(1) as f64;
    t.row_f("L1 D to proc", &[l1, 32.0, 100.0 * l1 / 32.0]);
    let l2 = s.l2_bytes as f64 / s.cycles.max(1) as f64;
    t.row_f("L2 to L1", &[l2, 48.0, 100.0 * l2 / 48.0]);
    let dr = s.dram_bytes as f64 / s.cycles.max(1) as f64;
    t.row_f("memory to L2", &[dr, 15.0, 100.0 * dr / 15.0]);
    t.note("paper: 96.5% of L1 peak, 98.5% of L2, 57.8% of DRAM interface");
    out.push_str(&t.render());

    // OPN hop profile for the paper's four columns.
    let mut t2 = Table::new(
        "Figure 8b: OPN traffic profile (avg hops; % 0-hop local bypass of ET-ET)",
        &[
            "avg hops",
            "ET-ET %0hop",
            "ET-ET share",
            "ET-DT share",
            "ET-RT share",
        ],
    );
    let mut profile = |label: &str, s: &trips_sim::SimStats| {
        use trips_sim::opn::TrafficClass as TC;
        let total: u64 = s.opn.hist.iter().flatten().sum();
        let class_total = |c: TC| s.opn.hist[c as usize].iter().sum::<u64>();
        let etet = class_total(TC::EtEt);
        let zero = s.opn.hist[TC::EtEt as usize][0];
        t2.row_f(
            label,
            &[
                s.opn.avg_hops(),
                if etet == 0 {
                    0.0
                } else {
                    100.0 * zero as f64 / etet as f64
                },
                100.0 * etet as f64 / total.max(1) as f64,
                100.0 * class_total(TC::EtDt) as f64 / total.max(1) as f64,
                100.0 * class_total(TC::EtRt) as f64 / total.max(1) as f64,
            ],
        );
    };
    profile("vadd (hand)", &s);
    let mat = runner::trips_cycles_for(&trips_workloads::by_name("matrix").unwrap(), scale, true);
    profile("matrix (hand)", &mat);
    let gcc = runner::trips_cycles_for(&trips_workloads::by_name("gcc").unwrap(), scale, false);
    profile("gcc", &gcc);
    let eembc = suite(Suite::Eembc);
    let mut agg = trips_sim::SimStats::default();
    for w in eembc.iter().take(4) {
        let s = runner::trips_cycles_for(w, scale, false);
        agg.opn.absorb(&s.opn);
    }
    profile("EEMBC mean", &agg);
    t2.note("paper: ET-ET dominates; ~half of ET-ET operands bypass locally; ~0.9 avg ET-ET hops");
    out.push_str(&t2.render());
    out
}

/// Figure 9: sustained IPC.
pub fn fig9(scale: Scale) -> String {
    runner::prewarm(&simple_set(), scale, true);
    let mut t = Table::new(
        "Figure 9: IPC (executed / useful)",
        &["C exec", "C useful", "H exec", "H useful"],
    );
    let mut cs = vec![];
    let mut hs = vec![];
    for w in simple_set() {
        let c = runner::trips_cycles_for(&w, scale, false);
        let h = runner::trips_cycles_for(&w, scale, true);
        cs.push(c.ipc_executed());
        hs.push(h.ipc_executed());
        t.row_f(
            w.name,
            &[
                c.ipc_executed(),
                c.ipc_useful(),
                h.ipc_executed(),
                h.ipc_useful(),
            ],
        );
    }
    t.row_f(
        "simple mean",
        &[mean(cs.iter().copied()), 0.0, mean(hs.iter().copied()), 0.0],
    );
    for s in [Suite::SpecInt, Suite::SpecFp] {
        let vals: Vec<f64> = suite(s)
            .iter()
            .map(|w| runner::trips_cycles_for(w, scale, false).ipc_executed())
            .collect();
        t.row_f(
            format!("{} mean (C)", s.label()),
            &[mean(vals), 0.0, 0.0, 0.0],
        );
    }
    t.note("paper: some benchmarks reach 6-10 IPC; hand ~50% above compiled; SPEC lower");
    t.render()
}

/// Figure 10: idealized EDGE machine limit study.
pub fn fig10(scale: Scale) -> String {
    let mut t = Table::new(
        "Figure 10: ideal EDGE machine IPC",
        &[
            "hw IPC",
            "ideal 1K",
            "ideal 1K d0",
            "ideal 128K",
            "ideal/hw",
        ],
    );
    let mut ratios = vec![];
    for w in simple_set()
        .into_iter()
        .chain(suite(Suite::SpecInt))
        .chain(suite(Suite::SpecFp))
    {
        let c = compile_workload(&w, scale, false);
        let hw = runner::trips_cycles_for(&w, scale, false).ipc_executed();
        let i1 = trips_ideal::analyze_with_budget(
            &c,
            trips_ideal::IdealConfig::window_1k(),
            MEM,
            runner::SIM_BUDGET,
        )
        .unwrap();
        let i0 = trips_ideal::analyze_with_budget(
            &c,
            trips_ideal::IdealConfig::window_1k_free_dispatch(),
            MEM,
            runner::SIM_BUDGET,
        )
        .unwrap();
        let i128 = trips_ideal::analyze_with_budget(
            &c,
            trips_ideal::IdealConfig::window_128k(),
            MEM,
            runner::SIM_BUDGET,
        )
        .unwrap();
        if hw > 0.0 {
            ratios.push(i1.ipc / hw);
        }
        t.row_f(
            w.name,
            &[
                hw,
                i1.ipc,
                i0.ipc,
                i128.ipc,
                if hw > 0.0 { i1.ipc / hw } else { 0.0 },
            ],
        );
    }
    t.row_f(
        "geomean ideal-1K/hw",
        &[0.0, 0.0, 0.0, 0.0, geomean(ratios)],
    );
    t.note("paper: ideal 1K ~2.5x over prototype; zero-dispatch ~5x more; 128K windows reach 10s-100s IPC");
    t.render()
}

/// Figure 11: simple-benchmark speedups over Core2-gcc (cycles).
pub fn fig11(scale: Scale) -> String {
    runner::prewarm(&simple_set(), scale, true);
    let mut t = Table::new(
        "Figure 11: speedup over Core 2 (gcc), cycles",
        &["TRIPS-C", "TRIPS-H", "Core2-icc", "P4-gcc", "P3-gcc"],
    );
    let mut sc = vec![];
    let mut sh = vec![];
    for w in simple_set() {
        let p = measure_perf(&w, scale, true);
        // Whole-run estimates, not raw detailed-window cycles: under
        // `--sample` the backends time different streams at different
        // rates, and only the extrapolated counts are comparable (for full
        // runs est_cycles == cycles).
        let base = p.core2_gcc.est_cycles.max(1) as f64;
        let tc = base / p.trips_c.est_cycles.max(1) as f64;
        let th = base / p.trips_h.as_ref().unwrap().est_cycles.max(1) as f64;
        sc.push(tc);
        sh.push(th);
        t.row_f(
            w.name,
            &[
                tc,
                th,
                base / p.core2_icc.est_cycles.max(1) as f64,
                base / p.p4_gcc.est_cycles.max(1) as f64,
                base / p.p3_gcc.est_cycles.max(1) as f64,
            ],
        );
    }
    t.row_f("geomean", &[geomean(sc), geomean(sh), 0.0, 0.0, 0.0]);
    t.note("paper: TRIPS compiled ~1.5x Core2-gcc on simple codes; hand ~2.9x; P3/P4 below Core 2");
    t.render()
}

/// Figure 12: SPEC speedups over Core2-gcc.
pub fn fig12(scale: Scale) -> String {
    let mut t = Table::new(
        "Figure 12: SPEC speedup over Core 2 (gcc), cycles",
        &["TRIPS-C", "Core2-icc", "P4-gcc", "P3-gcc"],
    );
    for s in [Suite::SpecInt, Suite::SpecFp] {
        let mut sp = vec![];
        for w in suite(s) {
            let p = measure_perf(&w, scale, false);
            let base = p.core2_gcc.est_cycles.max(1) as f64;
            let tc = base / p.trips_c.est_cycles.max(1) as f64;
            sp.push(tc);
            t.row_f(
                w.name,
                &[
                    tc,
                    base / p.core2_icc.est_cycles.max(1) as f64,
                    base / p.p4_gcc.est_cycles.max(1) as f64,
                    base / p.p3_gcc.est_cycles.max(1) as f64,
                ],
            );
        }
        t.row_f(
            format!("{} geomean", s.label()),
            &[geomean(sp), 0.0, 0.0, 0.0],
        );
    }
    t.note("paper: SPEC INT ~0.5x Core2-gcc; SPEC FP ~1.0x; TRIPS roughly matches Pentium 4");
    t.render()
}

/// Table 3: per-SPEC performance-counter data.
pub fn table3(scale: Scale) -> String {
    let mut t = Table::new(
        "Table 3: events per 1000 useful TRIPS instructions (SPEC)",
        &[
            "br miss",
            "callret miss",
            "I$ miss",
            "load flush",
            "blk sz x8",
            "useful in flight",
        ],
    );
    for s in [Suite::SpecInt, Suite::SpecFp] {
        for w in suite(s) {
            let st = runner::trips_cycles_for(&w, scale, false);
            t.row_f(
                w.name,
                &[
                    st.per_kilo_useful(st.predictor.branch_mispredicts),
                    st.per_kilo_useful(st.predictor.callret_mispredicts),
                    st.per_kilo_useful(st.icache_misses),
                    st.per_kilo_useful(st.load_flushes),
                    st.isa.avg_useful_block_size() * 8.0,
                    st.avg_window_useful(),
                ],
            );
        }
    }
    t.note("paper: crafty/perlbmk/twolf/vortex stress I-cache and call/ret; art/mgrid/swim fill the window");
    t.render()
}

/// §6 matrix-multiply FLOPS-per-cycle comparison.
pub fn matmul_fpc(scale: Scale) -> String {
    let w = trips_workloads::by_name("matrix").unwrap();
    let c = compile_workload(&w, scale, true);
    let s = runner::trips_cycles_for(&w, scale, true);
    // Count FP multiply-add work from the composition: every useful Fmul and
    // Fadd is one FLOP.
    let flops = count_flops(&c);
    let mut t = Table::new("Sec 6: hand matrix multiply, FLOPS per cycle", &["FPC"]);
    t.row_f(
        "TRIPS (hand, no SIMD)",
        &[flops as f64 / s.est_cycles.max(1) as f64],
    );
    t.row_f("paper: TRIPS", &[5.20]);
    t.row_f("paper: Core 2 (SSE, GotoBLAS)", &[3.58]);
    t.row_f("paper: Pentium 4 (GotoBLAS)", &[1.87]);
    t.render()
}

/// §7 lessons-learned ablations: block-formation cap, per-block dispatch
/// cost, predictor sizing and instruction placement, each varied alone
/// against the prototype ([`runner::ablations`]).
pub fn ablations(scale: Scale) -> String {
    let mut t = Table::new(
        "Sec 7: design-choice ablations (prototype unless varied)",
        &["workload", "cycles", "mispredicts", "avg hops"],
    );
    for a in runner::ablations(scale) {
        t.row(
            format!("{} {}", a.study, a.setting),
            vec![
                a.workload.to_string(),
                a.cycles.to_string(),
                a.mispredicts.to_string(),
                format!("{:.2}", a.avg_hops),
            ],
        );
    }
    t.note("each row simulates its own compile to completion (execution-driven, no trace replay)");
    t.render()
}

/// Sampled-replay accuracy harness: sampled vs full IPC per workload on
/// both timing backends, under the per-backend accuracy plans (streams
/// below a backend's sampling floor replay in full). The footnotes
/// aggregate the numbers the CI gate asserts on.
pub fn sample_accuracy(scale: Scale) -> String {
    let mut ws = simple_set();
    // The two largest bundled streams: where sampling pays off most.
    for name in ["bzip2", "equake"] {
        if let Some(w) = trips_workloads::by_name(name) {
            ws.push(w);
        }
    }
    let rows = runner::sample_accuracy(&ws, scale);
    let mut t = Table::new(
        format!(
            "Sampled replay accuracy (trips {} >= {} blocks, ooo {} >= {} insts)",
            runner::trips_accuracy_plan(),
            runner::TRIPS_SAMPLE_FLOOR,
            runner::ooo_accuracy_plan(),
            runner::OOO_SAMPLE_FLOOR,
        ),
        &[
            "backend",
            "full IPC",
            "sampled IPC",
            "err %",
            "detail %",
            "speedup",
        ],
    );
    for r in &rows {
        t.row(
            r.workload.clone(),
            vec![
                r.backend.clone(),
                format!("{:.4}", r.full_ipc),
                format!("{:.4}", r.sampled_ipc),
                format!("{:.2}", r.rel_err * 100.0),
                format!("{:.1}", r.detailed_frac * 100.0),
                format!("{:.1}x", r.speedup),
            ],
        );
    }
    let max_err = rows.iter().map(|r| r.rel_err).fold(0.0, f64::max);
    t.note(format!(
        "max IPC error {:.2}% over {} measurements; mean replay speedup {:.1}x",
        max_err * 100.0,
        rows.len(),
        mean(rows.iter().map(|r| r.speedup)),
    ));
    t.render()
}

/// Phase-classified sampling accuracy harness: full vs systematic vs
/// phased IPC per workload on both timing backends, with the detailed-unit
/// costs side by side. The footnotes aggregate the numbers the CI phase
/// gate asserts on: per-workload phase error within the larger of the
/// systematic error and 1%, at a fraction of the detailed units. With
/// `TRIPS_PHASE_CSV=path` the per-interval cluster assignments are also
/// written as CSV (the CI artifact).
pub fn phase_accuracy(scale: Scale) -> String {
    let mut ws = simple_set();
    for name in ["bzip2", "equake"] {
        if let Some(w) = trips_workloads::by_name(name) {
            ws.push(w);
        }
    }
    let rows = runner::phase_accuracy(&ws, scale);
    let mut t = Table::new(
        "Phase-classified vs systematic sampling accuracy",
        &[
            "backend",
            "full IPC",
            "sys IPC",
            "phase IPC",
            "sys err %",
            "phase err %",
            "sys units",
            "phase units",
            "units x",
            "k",
        ],
    );
    for r in &rows {
        t.row(
            r.workload.clone(),
            vec![
                r.backend.clone(),
                format!("{:.4}", r.full_ipc),
                format!("{:.4}", r.sys_ipc),
                format!("{:.4}", r.phase_ipc),
                format!("{:.2}", r.sys_err * 100.0),
                format!("{:.2}", r.phase_err * 100.0),
                r.sys_detailed.to_string(),
                r.phase_detailed.to_string(),
                if r.phase_detailed > 0 {
                    format!("{:.1}", r.sys_detailed as f64 / r.phase_detailed as f64)
                } else {
                    "-".into()
                },
                r.k.to_string(),
            ],
        );
    }
    let max_phase = rows.iter().map(|r| r.phase_err).fold(0.0, f64::max);
    let max_sys = rows.iter().map(|r| r.sys_err).fold(0.0, f64::max);
    let sampled: Vec<&runner::PhaseAccuracy> = rows.iter().filter(|r| r.k > 0).collect();
    t.note(format!(
        "max phase err {:.2}% (systematic {:.2}%) over {} measurements; on the {} classified \
         streams the phase plans time {:.1}x fewer detailed units than the systematic plans",
        max_phase * 100.0,
        max_sys * 100.0,
        rows.len(),
        sampled.len(),
        mean(
            sampled
                .iter()
                .map(|r| r.sys_detailed as f64 / r.phase_detailed.max(1) as f64)
        ),
    ));
    if let Ok(path) = std::env::var("TRIPS_PHASE_CSV") {
        if !path.is_empty() {
            let csv = runner::phase_assignment_csv(&rows);
            if let Err(e) = std::fs::write(&path, csv) {
                trips_obs::log!(
                    trips_obs::Level::Error,
                    "phase_accuracy",
                    "writing {path}: {e}"
                );
            } else {
                trips_obs::log!(
                    trips_obs::Level::Info,
                    "phase_accuracy",
                    "cluster assignments written to {path}"
                );
            }
        }
    }
    t.render()
}

fn count_flops(c: &trips_compiler::CompiledProgram) -> u64 {
    let mut flops = 0u64;
    let _ = trips_isa::interp::run_program_traced(
        &c.trips,
        &c.opt_ir,
        MEM,
        runner::SIM_BUDGET,
        |b, tr| {
            for ti in &tr.fired {
                let op = c.trips.blocks[b as usize].insts[ti.idx as usize].op;
                if matches!(
                    op,
                    trips_isa::TOpcode::Fadd | trips_isa::TOpcode::Fmul | trips_isa::TOpcode::Fsub
                ) {
                    flops += 1;
                }
            }
        },
    );
    flops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_tables_render() {
        assert!(table1().contains("TRIPS"));
        assert!(table2().contains("SPEC INT"));
    }

    #[test]
    fn fig9_runs_at_test_scale() {
        let s = fig9(Scale::Test);
        assert!(s.contains("simple mean"));
    }

    #[test]
    fn fig10_ideal_exceeds_hw() {
        let s = fig10(Scale::Test);
        assert!(s.contains("geomean ideal-1K/hw"));
    }

    #[test]
    fn fig7_predictors_run() {
        let s = fig7(Scale::Test);
        assert!(s.contains("A MPKI"));
    }
}
