//! Cross-build golden values for the TRIPS and out-of-order timing models.
//!
//! The other timing tests compare two paths inside one build (replay vs
//! direct simulation, restored window vs sequential replay), so a change
//! that moves both paths the same way passes them. These values were
//! computed once by an earlier build of the models and pinned here: the
//! full-replay counters of two Test-scale workloads under the TRIPS
//! prototype and a slow-DRAM variant and under the Core 2 and Pentium 4
//! models, the stable content hash of every serialized live-point of a
//! fixed hand-made phase plan on both cores, and the measured and
//! estimated cycles of one interval-sampled and one phased replay per
//! core. A deliberate timing-model change updates them; anything else
//! must leave them be.

use trips::compiler::CompileOptions;
use trips::engine::sample::{PhasePlan, PhaseWindow, SamplePlan};
use trips::engine::{ReplayMode, Session};
use trips::isa::hash::content_hash;
use trips::ooo::{self, OooConfig, OooStats};
use trips::sim::{self, TripsConfig};
use trips::workloads::{by_name, Scale};

/// The pinned counters of one full replay.
#[derive(Debug, PartialEq)]
struct Golden {
    cycles: u64,
    packets: u64,
    total_hops: u64,
    contention_cycles: u64,
    /// `opn.hist`, one row per traffic class.
    hist: [[u64; 6]; 5],
    bank_conflict_cycles: u64,
    l1d_misses: u64,
    window_inst_cycles: u128,
}

/// Four windows over a stream of `total` units: the head, two interior
/// representatives with timed warmups, and the tail.
fn plan(total: u64) -> PhasePlan {
    let q = total / 8;
    let window = |warm_start, detail_start, end, weight_units| PhaseWindow {
        warm_start,
        detail_start,
        end,
        weight_units,
    };
    PhasePlan {
        interval: q,
        total_units: total,
        k: 2,
        windows: vec![
            window(0, 0, q, q),
            window(2 * q, 2 * q + q / 4, 3 * q, 3 * q),
            window(5 * q, 5 * q + q / 2, 6 * q, 3 * q),
            window(7 * q, 7 * q, total, total - 7 * q),
        ],
        assignments: vec![],
    }
}

/// Checks `workload` under `cfg` against its pinned counters and
/// live-point hashes.
fn check(workload: &str, cfg: &TripsConfig, want: &Golden, snaps_want: [u64; 4]) {
    let w = by_name(workload).unwrap();
    let session = Session::new();
    let opts = CompileOptions::o2();
    let compiled = session.compiled(&w, Scale::Test, &opts, false).unwrap();
    let log = session
        .trace(&w, Scale::Test, &opts, false, 1 << 22, 1_000_000)
        .unwrap();
    let s = sim::replay_trace_mode(&compiled, cfg, &log, &ReplayMode::Full)
        .unwrap()
        .stats;
    let got = Golden {
        cycles: s.cycles,
        packets: s.opn.packets,
        total_hops: s.opn.total_hops,
        contention_cycles: s.opn.contention_cycles,
        hist: s.opn.hist,
        bank_conflict_cycles: s.bank_conflict_cycles,
        l1d_misses: s.l1d_misses,
        window_inst_cycles: s.window_inst_cycles,
    };
    assert_eq!(&got, want, "{workload}: full-replay counters moved");
    let plan = plan(log.seq.len() as u64);
    plan.validate().unwrap();
    let (_, snaps) = sim::replay_trace_phased_capture(&compiled, cfg, &log, &plan).unwrap();
    let hashes: Vec<u64> = snaps
        .iter()
        .map(|s| content_hash(&serde::bin::to_bytes(s)))
        .collect();
    assert_eq!(
        hashes, snaps_want,
        "{workload}: live-point bytes moved (hashes {hashes:#x?})"
    );
}

fn slow_dram() -> TripsConfig {
    let proto = TripsConfig::prototype();
    TripsConfig {
        dram_lat: proto.dram_lat * 3,
        ..proto
    }
}

/// The first live-point of every plan is the idle machine at unit 0.
const IDLE: u64 = 0xb1fa_4f68_235b_684c;

const BZIP2_HIST: [[u64; 6]; 5] = [
    [56744, 42154, 7713, 2784, 0, 672],
    [0, 1812, 6756, 7536, 3936, 1560],
    [0, 4393, 3908, 3247, 697, 768],
    [0, 0, 97, 385, 768, 792],
    [0; 6],
];

const EQUAKE_HIST: [[u64; 6]; 5] = [
    [12678, 4793, 1312, 397, 216, 288],
    [0, 564, 1300, 1172, 788, 304],
    [0, 1150, 1218, 893, 575, 0],
    [0, 0, 97, 289, 4, 132],
    [0; 6],
];

#[test]
fn bzip2_prototype_is_pinned() {
    let want = Golden {
        cycles: 38890,
        packets: 146722,
        total_hops: 168123,
        contention_cycles: 86884,
        hist: BZIP2_HIST,
        bank_conflict_cycles: 1586,
        l1d_misses: 16,
        window_inst_cycles: 14509393,
    };
    let snaps = [
        IDLE,
        0xdaf5_d443_3f47_3e0e,
        0xb7e1_2c62_3aa0_c538,
        0x53fe_418c_8320_ce28,
    ];
    check("bzip2", &TripsConfig::prototype(), &want, snaps);
}

#[test]
fn bzip2_slow_dram_is_pinned() {
    let want = Golden {
        cycles: 44130,
        packets: 146722,
        total_hops: 168123,
        contention_cycles: 86881,
        hist: BZIP2_HIST,
        bank_conflict_cycles: 1586,
        l1d_misses: 16,
        window_inst_cycles: 15415073,
    };
    let snaps = [
        IDLE,
        0xdea2_e8db_9836_2c5e,
        0x0127_a021_a021_7df3,
        0xf349_0a8f_c882_7828,
    ];
    check("bzip2", &slow_dram(), &want, snaps);
}

#[test]
fn equake_prototype_is_pinned() {
    let want = Golden {
        cycles: 15015,
        packets: 28170,
        total_hops: 32982,
        contention_cycles: 5870,
        hist: EQUAKE_HIST,
        bank_conflict_cycles: 567,
        l1d_misses: 78,
        window_inst_cycles: 4176992,
    };
    let snaps = [
        IDLE,
        0x65f0_c728_63eb_2e46,
        0x2b20_68be_6fdf_196c,
        0x7671_d992_e75f_6f35,
    ];
    check("equake", &TripsConfig::prototype(), &want, snaps);
}

#[test]
fn equake_slow_dram_is_pinned() {
    let want = Golden {
        cycles: 23815,
        packets: 28170,
        total_hops: 32982,
        contention_cycles: 5870,
        hist: EQUAKE_HIST,
        bank_conflict_cycles: 567,
        l1d_misses: 78,
        window_inst_cycles: 6089312,
    };
    let snaps = [
        IDLE,
        0xcd2c_a98e_c971_df28,
        0xfa19_2109_6de2_ea57,
        0x8d4a_b17d_cd7b_af0e,
    ];
    check("equake", &slow_dram(), &want, snaps);
}

/// Checks `workload`'s recorded RISC stream under the out-of-order `cfg`
/// against its pinned full-replay counters and live-point hashes.
fn check_ooo(workload: &str, cfg: &OooConfig, want: &OooStats, snaps_want: [u64; 4]) {
    let w = by_name(workload).unwrap();
    let session = Session::new();
    let opts = CompileOptions::gcc_ref();
    let art = session.risc_program(&w, Scale::Test, &opts).unwrap();
    let trace = session
        .risc_trace(&w, Scale::Test, &opts, 1 << 22, 400_000_000)
        .unwrap();
    let s = ooo::run_timed_trace_mode(&art.program, &trace, cfg, &ReplayMode::Full)
        .unwrap()
        .stats;
    assert_eq!(
        &s, want,
        "{workload} on {}: full-replay counters moved",
        cfg.name
    );
    let plan = plan(trace.header.dynamic_insts);
    plan.validate().unwrap();
    let (_, snaps) = ooo::run_ooo_phased_capture(&art.program, &trace, cfg, &plan).unwrap();
    let hashes: Vec<u64> = snaps
        .iter()
        .map(|s| content_hash(&serde::bin::to_bytes(s)))
        .collect();
    assert_eq!(
        hashes, snaps_want,
        "{workload} on {}: live-point bytes moved (hashes {hashes:#x?})",
        cfg.name
    );
}

/// The first out-of-order live-point of every plan is the idle machine
/// at unit 0, one per platform geometry.
const CORE2_IDLE: u64 = 0xa783_10c7_219d_8dcd;
const PENTIUM4_IDLE: u64 = 0x1a1b_adb0_11b5_6025;

/// A full out-of-order replay's counters: unsampled, so `est_cycles`
/// equals `cycles` and `total_insts` equals `insts`.
#[allow(clippy::too_many_arguments)]
fn ooo_full(
    cycles: u64,
    insts: u64,
    branches: u64,
    br_mispredicts: u64,
    ras_mispredicts: u64,
    l1_misses: u64,
    l2_misses: u64,
    l1_accesses: u64,
) -> OooStats {
    OooStats {
        cycles,
        insts,
        branches,
        br_mispredicts,
        ras_mispredicts,
        l1_misses,
        l2_misses,
        l1_accesses,
        sampled: false,
        total_insts: insts,
        est_cycles: cycles,
    }
}

#[test]
fn bzip2_core2_is_pinned() {
    let want = ooo_full(25955, 71631, 6240, 198, 0, 29, 29, 12392);
    let snaps = [
        CORE2_IDLE,
        0xc6ce_d32b_655f_fd54,
        0x0443_a1a9_8ed6_f406,
        0x147c_1687_3cb7_4de8,
    ];
    check_ooo("bzip2", &ooo::core2(), &want, snaps);
}

#[test]
fn bzip2_pentium4_is_pinned() {
    let want = ooo_full(40380, 71631, 6240, 198, 0, 29, 29, 12392);
    let snaps = [
        PENTIUM4_IDLE,
        0xd1a4_8a2f_d848_fe15,
        0x7f1d_7563_036d_9262,
        0x00a5_bf5c_5fe1_515e,
    ];
    check_ooo("bzip2", &ooo::pentium4(), &want, snaps);
}

#[test]
fn equake_core2_is_pinned() {
    let want = ooo_full(8413, 11491, 818, 19, 0, 85, 85, 2162);
    let snaps = [
        CORE2_IDLE,
        0xe1ce_7dcf_b71b_29c3,
        0xde0a_44e4_7925_8c32,
        0x0e69_c6c8_be26_1b27,
    ];
    check_ooo("equake", &ooo::core2(), &want, snaps);
}

#[test]
fn equake_pentium4_is_pinned() {
    let want = ooo_full(17030, 11491, 818, 19, 0, 85, 85, 2162);
    let snaps = [
        PENTIUM4_IDLE,
        0xc452_4ac2_e011_4e5f,
        0x340d_2eb5_7030_8207,
        0xc511_4fe7_6b1d_d806,
    ];
    check_ooo("equake", &ooo::pentium4(), &want, snaps);
}

/// `(cycles, est_cycles)` of one interval-sampled and one phased replay
/// of bzip2 on each core: the schedule driver, the window metering and
/// the extrapolation, pinned independently of the full-replay counters.
#[test]
fn sampled_and_phased_estimates_are_pinned() {
    let w = by_name("bzip2").unwrap();
    let session = Session::new();

    let opts = CompileOptions::o2();
    let compiled = session.compiled(&w, Scale::Test, &opts, false).unwrap();
    let log = session
        .trace(&w, Scale::Test, &opts, false, 1 << 22, 1_000_000)
        .unwrap();
    let cfg = TripsConfig::prototype();
    let trips = |mode: &ReplayMode| {
        let s = sim::replay_trace_mode(&compiled, &cfg, &log, mode)
            .unwrap()
            .stats;
        assert!(s.sampled);
        (s.cycles, s.est_cycles)
    };
    let sampled = ReplayMode::Sampled(SamplePlan::new(16, 48, 128).unwrap());
    let phased = ReplayMode::Phased(plan(log.seq.len() as u64));
    assert_eq!(
        [trips(&sampled), trips(&phased)],
        [(21924, 38575), (17515, 38898)],
        "TRIPS sampled and phased estimates moved"
    );

    let gcc = CompileOptions::gcc_ref();
    let art = session.risc_program(&w, Scale::Test, &gcc).unwrap();
    let trace = session
        .risc_trace(&w, Scale::Test, &gcc, 1 << 22, 400_000_000)
        .unwrap();
    let ocfg = ooo::core2();
    let ooo = |mode: &ReplayMode| {
        let s = ooo::run_timed_trace_mode(&art.program, &trace, &ocfg, mode)
            .unwrap()
            .stats;
        assert!(s.sampled);
        (s.cycles, s.est_cycles)
    };
    let sampled = ReplayMode::Sampled(SamplePlan::new(64, 384, 1024).unwrap());
    let phased = ReplayMode::Phased(plan(trace.header.dynamic_insts));
    assert_eq!(
        [ooo(&sampled), ooo(&phased)],
        [(11224, 26934), (10759, 25773)],
        "OoO sampled and phased estimates moved"
    );
}
