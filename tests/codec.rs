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

mod common;

use std::fmt::Debug;

use common::{handmade_plan, tiny_spec};
use serde::{DeserializeOwned, Serialize, Value};
use trips::compiler::CompileOptions;
use trips::engine::store::{LivePointSet, LivePointStates, KIND_BLOCK_TRACE, KIND_RISC_TRACE};
use trips::engine::{PhaseK, Session, Stream};
use trips::isa::hash::content_hash;
use trips::isa::interp::TraceSrc;
use trips::isa::TraceLog;
use trips::ooo::{self, OooCore};
use trips::sample::capture_phased;
use trips::sim::{TripsConfig, TsimCore};
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

/// Content hashes of `x`'s `serde::bin` bytes and of its JSON text.
fn pins<T: Serialize>(x: &T) -> (u64, u64) {
    (
        content_hash(&serde::bin::to_bytes(x)),
        content_hash(serde::json::to_string(x).as_bytes()),
    )
}

/// One Test-scale payload of each surviving stored kind (the phase
/// artifact once per stream kind), and the ISA statistics of a
/// functional run, pinned by content hash. The values were computed by
/// an earlier build: a change to the capture paths or to the byte format
/// must keep them (a format change retires only the byte pins, the first
/// of each pair).
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
        (0x374c_9ce7_f498_dee6, 0x60fd_09a2_3211_dac8),
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
