//! # trips-sim
//!
//! Cycle-level timing model of the TRIPS prototype microarchitecture (§2 and
//! §5 of *An Evaluation of the TRIPS Computer System*).
//!
//! The model is **execution-driven**: the functional dataflow interpreter in
//! [`trips_isa`] executes each block and emits a [`trips_isa::interp::BlockTrace`]
//! (which instructions fired, from which producers, which addresses were
//! touched, which exit won). This module replays those traces against timing
//! state that mirrors the prototype's structures:
//!
//! * 4×4 execution tiles with single-issue contention, embedded in a 5×5
//!   operand network with X-Y routing and per-link backpressure ([`opn`]);
//! * four register tiles (one read/write port per 32-register bank) and
//!   four single-ported data tiles backed by an L1/NUCA-L2/DRAM hierarchy
//!   ([`cache`]);
//! * a next-block predictor (local/global tournament exit predictor plus a
//!   multi-component target predictor with BTB and call/return stack), a
//!   store-load dependence predictor, distributed fetch/dispatch, and the
//!   block completion/commit protocol ([`timing`]).
//!
//! Because the functional oracle defines correctness, the timing model can
//! never corrupt results — it only decides how many cycles things take,
//! exactly like the hardware counters the paper reads.

pub mod cache;
pub mod config;
pub mod opn;
pub mod predictor;
pub mod stats;
pub mod timing;

pub use config::TripsConfig;
pub use stats::SimStats;
pub use timing::{
    replay_trace_mode, replay_trace_phased_capture, replay_trips_window, simulate, SimError,
    SimResult, TsimCore, TsimSnapshot,
};
pub use trips_sample::{ReplayMode, SamplePlan};
