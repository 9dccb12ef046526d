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

mod common;

use std::fmt::Debug;

use common::{handmade_plan, tiny_spec};
use serde::{DeserializeOwned, Serialize, Value};
use trips::compiler::CompileOptions;
use trips::engine::store::{LivePointSet, LivePointStates, KIND_BLOCK_TRACE, KIND_RISC_TRACE};
use trips::engine::{PhaseK, Session, Stream};
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
