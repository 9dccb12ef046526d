//! The direct `serde::bin` codec is the `Value` path, byte for byte.
//!
//! Every stored payload type — `TraceLog`, `RiscTrace`, `PhaseArtifact`
//! and `LivePointSet` with TRIPS and with out-of-order states — is built
//! from a real Test-scale capture, and for each:
//!
//! * `to_bytes(x)` equals the bytes of its `Value` image,
//!   `to_bytes(&to_value(x))`, so stored containers keep their bytes;
//! * `from_bytes::<T>(b)` equals `from_value::<T>(&from_bytes::<Value>(b))`
//!   and `x` itself, so a store written by the `Value` path decodes to the
//!   same payload.
//!
//! One payload of each stored kind, and the `IsaStats` of a functional
//! run, are also pinned by the content hash of their bytes and of their
//! JSON text, so a change to the capture paths cannot move them unseen.
//! The TRIPS block stream is pinned once more in a layout of its own,
//! expanded block by block, so a trace format change cannot move what
//! replay sees.

mod common;

use std::fmt::Debug;

use common::{handmade_plan, hostile_sequence_edits, tiny_spec};
use serde::{DeserializeOwned, Serialize, Value};
use trips::compiler::CompileOptions;
use trips::engine::store::{LivePointSet, LivePointStates, KIND_BLOCK_TRACE, KIND_RISC_TRACE};
use trips::engine::{PhaseK, RiscTraceId, Session, Stream};
use trips::isa::hash::content_hash;
use trips::isa::interp::TraceSrc;
use trips::isa::{TraceHeader, TraceId, TraceLog};
use trips::ooo::{self, OooCore};
use trips::phase::PhaseArtifact;
use trips::risc::{RiscTrace, RiscTraceHeader};
use trips::sample::{capture_phased, replay, replay_window, ReplayMode, SamplePlan, TimingCore};
use trips::sim::{TripsConfig, TsimCore, TsimSnapshot};
use trips::workloads::{by_name, Scale};

const MEM: usize = 1 << 22;

/// Checks both directions of the codec on `x`.
fn same_as_value_path<T: Serialize + DeserializeOwned + PartialEq + Debug>(what: &str, x: &T) {
    let bytes = serde::bin::to_bytes(x);
    assert!(
        bytes == serde::bin::to_bytes(&serde::to_value(x)),
        "{what}: direct encoding differs from the Value image"
    );
    let direct: T = serde::bin::from_bytes(&bytes).unwrap();
    let tree: Value = serde::bin::from_bytes(&bytes).unwrap();
    let via_value: T = serde::from_value(&tree).unwrap();
    assert!(direct == via_value, "{what}: direct decode differs");
    assert!(direct == *x, "{what}: decode does not round-trip");
    let back: T = serde::from_value(&serde::to_value(x)).unwrap();
    assert!(back == *x, "{what}: the Value image does not round-trip");
}

/// The value of field `name` of the struct image `v`.
fn field_mut<'a>(v: &'a mut Value, name: &str) -> &'a mut Value {
    match v {
        Value::Map(fields) => fields
            .iter_mut()
            .find(|(k, _)| *k == Value::str(name))
            .map(|(_, val)| val)
            .unwrap(),
        _ => panic!("not a struct image"),
    }
}

fn items_mut(v: &mut Value) -> &mut Vec<Value> {
    match v {
        Value::Seq(items) => items,
        _ => panic!("not a sequence image"),
    }
}

fn live_points(states: LivePointStates, core: u32, total_units: u64) -> LivePointSet {
    LivePointSet {
        parent_key: 1,
        plan_sig: 2,
        cfg_sig: 3,
        core,
        total_units,
        states,
    }
}

#[test]
fn trips_payloads_encode_and_decode_as_their_value_image() {
    let w = by_name("autocor").unwrap();
    let session = Session::new();
    let stream = Stream::new(&w, Scale::Test, CompileOptions::o2(), MEM, 1_000_000);
    let compiled = session.compiled(&stream).unwrap();
    let log = session.trace(&stream).unwrap();
    same_as_value_path("TraceLog", &*log);

    let art = trips::phase::trips_fit(&log, &tiny_spec(PhaseK::Auto), 7);
    assert!(!art.vectors.is_empty(), "the fit classified the stream");
    same_as_value_path("PhaseArtifact (TRIPS)", &art);

    let total = log.seq.len() as u64;
    let cfg = TripsConfig::prototype();
    let core = TsimCore::new(&compiled, &cfg, &log);
    let (_, snaps) = capture_phased(core, &handmade_plan(total)).unwrap();
    let set = live_points(LivePointStates::Trips(snaps), KIND_BLOCK_TRACE, total);
    same_as_value_path("LivePointSet (TRIPS)", &set);
}

/// The `srcs` image of the first fired instruction of the first shape of
/// the trace-log image `v`.
fn first_srcs(v: &mut Value) -> &mut Vec<Value> {
    let shape = &mut items_mut(field_mut(v, "shapes"))[0];
    let inst = &mut items_mut(field_mut(shape, "fired"))[0];
    items_mut(field_mut(inst, "srcs"))
}

/// An instruction lists at most three operand sources; a trace-log image
/// that lists four is an error on both decode paths, not a panic.
#[test]
fn a_trace_log_with_four_sources_on_one_instruction_is_an_error() {
    let w = by_name("autocor").unwrap();
    let session = Session::new();
    let stream = Stream::new(&w, Scale::Test, CompileOptions::o2(), MEM, 1_000_000);
    let log = session.trace(&stream).unwrap();
    let src = serde::to_value(&TraceSrc::Read(0));
    for (n, ok) in [(3, true), (4, false)] {
        let mut v = serde::to_value(&*log);
        first_srcs(&mut v).resize(n, src.clone());
        let bytes = serde::bin::to_bytes(&v);
        assert_eq!(
            serde::bin::from_bytes::<TraceLog>(&bytes).is_ok(),
            ok,
            "{n} sources"
        );
        assert_eq!(serde::from_value::<TraceLog>(&v).is_ok(), ok, "{n} sources");
    }
}

#[test]
fn ooo_payloads_encode_and_decode_as_their_value_image() {
    let w = by_name("autocor").unwrap();
    let session = Session::new();
    let stream = Stream::new(&w, Scale::Test, CompileOptions::gcc_ref(), MEM, 400_000_000);
    let art = session.risc_program(&stream).unwrap();
    let trace = session.risc_trace(&stream).unwrap();
    same_as_value_path("RiscTrace", &*trace);

    let spec = tiny_spec(PhaseK::Auto);
    let fit = trips::phase::risc_fit(&trace, &art.program, &spec, 7).unwrap();
    assert!(!fit.vectors.is_empty(), "the fit classified the stream");
    same_as_value_path("PhaseArtifact (OoO)", &fit);

    let total = trace.header.dynamic_insts;
    let cfg = ooo::core2();
    let core = OooCore::new(&art.program, &trace, &cfg);
    let (_, snaps) = capture_phased(core, &handmade_plan(total)).unwrap();
    let set = live_points(LivePointStates::Ooo(snaps), KIND_RISC_TRACE, total);
    same_as_value_path("LivePointSet (OoO)", &set);
}

/// The identity a stored log with header `h` is loaded under.
fn trace_id(h: &TraceHeader) -> TraceId {
    TraceId {
        workload: h.workload.clone(),
        scale: h.scale.clone(),
        opts_sig: h.opts_sig,
        hand: false,
        code_sig: 0,
        mem_size: h.mem_size,
        max_blocks: h.max_blocks,
    }
}

/// The identity a stored RISC stream with header `h` is loaded under.
fn risc_id(h: &RiscTraceHeader) -> RiscTraceId {
    RiscTraceId {
        workload: h.workload.clone(),
        scale: h.scale.clone(),
        opts_sig: h.opts_sig,
        code_sig: 0,
        mem_size: h.mem_size,
        max_steps: h.max_steps,
    }
}

/// Every stored payload kind but the live-point sets (the timing
/// contracts edit their snapshots), on autocor at Test scale, under
/// [`hostile_sequence_edits`]: each edit decodes to `Err`, or to a
/// payload that the session's load check (identity, then the payload's
/// own `validate`) rejects or that replays to `Ok` or `Err`. None
/// panics, and `serde::bin` decodes each as the `Value` tree does.
#[test]
fn stored_payloads_never_panic_under_hostile_sequence_edits() {
    let w = by_name("autocor").unwrap();
    let session = Session::new();
    let stream = Stream::new(&w, Scale::Test, CompileOptions::o2(), MEM, 1_000_000);
    let compiled = session.compiled(&stream).unwrap();
    let log = session.trace(&stream).unwrap();
    let spec = tiny_spec(PhaseK::Auto);
    let trips_art = trips::phase::trips_fit(&log, &spec, 7);
    let ooo_stream = Stream::new(&w, Scale::Test, CompileOptions::gcc_ref(), MEM, 400_000_000);
    let rp = &session.risc_program(&ooo_stream).unwrap().program;
    let risc = session.risc_trace(&ooo_stream).unwrap();
    let risc_art = trips::phase::risc_fit(&risc, rp, &spec, 7).unwrap();
    let (cfg, core2) = (TripsConfig::prototype(), ooo::core2());

    let trips_modes = [
        ReplayMode::Full,
        ReplayMode::Sampled(SamplePlan::new(8, 8, 32).unwrap()),
    ];
    hostile_sequence_edits("TraceLog", &*log, |bad: TraceLog| {
        let id = trace_id(&log.header);
        if id.matches_header(&bad.header).is_ok() && bad.validate(&compiled.trips).is_ok() {
            for mode in &trips_modes {
                let _ = replay(TsimCore::new(&compiled, &cfg, &bad), mode);
            }
        }
    });
    let ooo_modes = [
        ReplayMode::Full,
        ReplayMode::Sampled(SamplePlan::new(64, 64, 256).unwrap()),
    ];
    hostile_sequence_edits("RiscTrace", &*risc, |bad: RiscTrace| {
        let id = risc_id(&risc.header);
        if id.matches_header(&bad.header).is_ok() && bad.validate(rp).is_ok() {
            for mode in &ooo_modes {
                let _ = replay(OooCore::new(rp, &bad, &core2), mode);
            }
        }
    });
    let total = log.seq.len() as u64;
    hostile_sequence_edits("PhaseArtifact (TRIPS)", &trips_art, |bad: PhaseArtifact| {
        if bad.validate(&spec, total).is_ok() {
            let mode = ReplayMode::Phased(bad.plan);
            let _ = replay(TsimCore::new(&compiled, &cfg, &log), &mode);
        }
    });
    let insts = risc.header.dynamic_insts;
    hostile_sequence_edits("PhaseArtifact (OoO)", &risc_art, |bad: PhaseArtifact| {
        if bad.validate(&spec, insts).is_ok() {
            let mode = ReplayMode::Phased(bad.plan);
            let _ = replay(OooCore::new(rp, &risc, &core2), &mode);
        }
    });
}

/// The address run holds exactly the addresses the stream takes: one
/// short or one long is an `Err`. A TRIPS live-point restores at most at
/// the end of its stream: one unit past it is an `Err`.
#[test]
fn a_short_or_long_address_run_and_a_live_point_past_the_stream_are_errors() {
    let w = by_name("autocor").unwrap();
    let session = Session::new();
    let stream = Stream::new(&w, Scale::Test, CompileOptions::o2(), MEM, 1_000_000);
    let compiled = session.compiled(&stream).unwrap();
    let log = session.trace(&stream).unwrap();
    let n = log.addrs.len();
    for (what, len) in [("short", n - 1), ("long", n + 1)] {
        let mut bad = (*log).clone();
        bad.addrs.resize(len, 0);
        let want = format!("stream takes {n} addresses, log has {len}");
        assert_eq!(bad.validate(&compiled.trips), Err(want), "{what}");
    }

    let total = log.seq.len() as u64;
    let plan = handmade_plan(total);
    let cfg = TripsConfig::prototype();
    let core = || TsimCore::new(&compiled, &cfg, &log);
    let (_, snaps) = capture_phased(core(), &plan).unwrap();
    let at_unit = |unit: u64| -> TsimSnapshot {
        let mut image = serde::to_value(&snaps[2]);
        *field_mut(&mut image, "unit") = Value::U64(unit);
        serde::from_value(&image).unwrap()
    };
    assert_eq!(core().restore(&at_unit(total)).ok(), Some(total));
    let past = at_unit(total + 1);
    assert!(core().restore(&past).is_err());
    assert!(replay_window(core(), &plan.windows[2], &past).is_err());
}

/// Content hashes of `x`'s `serde::bin` bytes and of its JSON text.
fn pins<T: Serialize>(x: &T) -> (u64, u64) {
    (
        content_hash(&serde::bin::to_bytes(x)),
        content_hash(serde::json::to_string(x).as_bytes()),
    )
}

/// A word of [`expanded_stream_hash`]'s layout for operand source `s`.
fn src_word(s: TraceSrc) -> u64 {
    match s {
        TraceSrc::Read(r) => u64::from(r),
        TraceSrc::Inst(p) => 0x100 | u64::from(p),
    }
}

/// The content hash of `log`'s dynamic stream expanded block by block,
/// in a layout of its own that no trace format change moves: per block,
/// its index, then per fired instruction its `idx`, its operand sources
/// and its memory operation (`bytes`, `is_store` and address), then its
/// write sources and its exit. Every list is preceded by its length.
fn expanded_stream_hash(log: &TraceLog) -> u64 {
    let mut words: Vec<u64> = Vec::new();
    let mut addrs = log.addrs.iter();
    for &(block, shape) in &log.seq {
        let shape = &log.shapes[shape as usize];
        words.extend([u64::from(block), shape.fired.len() as u64]);
        for ti in &shape.fired {
            words.extend([u64::from(ti.idx), ti.srcs.len() as u64]);
            words.extend(ti.srcs.iter().map(|&s| src_word(s)));
            match ti.mem {
                None => words.push(0),
                Some(m) => {
                    let addr = *addrs.next().unwrap();
                    words.extend([1, u64::from(m.bytes), u64::from(m.is_store), addr]);
                }
            }
        }
        words.push(shape.write_srcs.len() as u64);
        let writes = shape.write_srcs.iter();
        words.extend(writes.map(|w| w.map_or(u64::MAX, src_word)));
        words.push(u64::from(shape.exit));
    }
    assert!(addrs.next().is_none(), "the stream takes every address");
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    content_hash(&bytes)
}

/// The autocor Test-scale block stream, expanded: what every replay of
/// the log sees, whatever layout stores it. The value was computed by an
/// earlier build and must not move with the trace format.
#[test]
fn the_expanded_trips_stream_is_pinned() {
    let w = by_name("autocor").unwrap();
    let stream = Stream::new(&w, Scale::Test, CompileOptions::o2(), MEM, 1_000_000);
    let log = Session::new().trace(&stream).unwrap();
    assert_eq!(log.seq.len(), 294);
    assert_eq!(expanded_stream_hash(&log), 0xf8c9_52a4_a8e7_617e);
}

/// One Test-scale payload of each surviving stored kind (the phase
/// artifact once per stream kind), and the ISA statistics of a
/// functional run, pinned by content hash. The values were computed by
/// an earlier build: a change to the capture paths must keep them. A
/// change to the byte encoding alone retires only the byte pins, the
/// first of each pair; a change to a payload's layout moves its JSON pin
/// too (trace format 2 moved both `TraceLog` pins, while
/// [`the_expanded_trips_stream_is_pinned`] held).
#[test]
fn test_scale_payloads_and_isa_stats_are_pinned() {
    let w = by_name("autocor").unwrap();
    let session = Session::new();
    let stream = Stream::new(&w, Scale::Test, CompileOptions::o2(), MEM, 1_000_000);
    let log = session.trace(&stream).unwrap();
    let art = trips::phase::trips_fit(&log, &tiny_spec(PhaseK::Auto), 7);

    let ooo = Stream::new(&w, Scale::Test, CompileOptions::gcc_ref(), MEM, 400_000_000);
    let risc = session.risc_trace(&ooo).unwrap();
    let rp = &session.risc_program(&ooo).unwrap().program;
    let risc_art = trips::phase::risc_fit(&risc, rp, &tiny_spec(PhaseK::Auto), 7).unwrap();

    let compiled = session.compiled(&stream).unwrap();
    let out =
        trips::isa::interp::run_program_with(&compiled.trips, &compiled.opt_ir, MEM, stream.budget)
            .unwrap();
    let stats = &out.stats;

    let got = [
        pins(&*log),
        pins(&*risc),
        pins(&art),
        pins(&risc_art),
        pins(stats),
    ];
    let want = [
        (0x90e1_9e8a_19ef_831f, 0xa1f3_f97a_79a2_a08f),
        (0xe681_d9fe_2db0_9b82, 0x897f_bc43_fc21_0a6b),
        (0x07c1_2285_552c_a150, 0x45ba_ab9b_f811_073d),
        (0xb0d6_89c2_f952_ad85, 0x0420_7d10_0fb5_1260),
        (0x5e73_0a5b_5300_40b3, 0xf00a_cc59_cfc5_7c95),
    ];
    assert_eq!(
        got, want,
        "TraceLog, RiscTrace, PhaseArtifact (TRIPS), PhaseArtifact (RISC), IsaStats"
    );
    assert_eq!(
        (
            stats.blocks_executed,
            stats.executed,
            stats.useful,
            stats.blocks_touched.len()
        ),
        (294, 19_709, 11_138, 6)
    );
    assert_eq!(*stats, log.stats, "capture and the plain run count alike");
}
