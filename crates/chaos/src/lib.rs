//! `trips-chaos` — deterministic fault injection for the TRIPS engine.
//!
//! The engine's recovery paths (store retries, quarantine, circuit
//! breaker, pool panic containment, sweep-level retry) are only as good
//! as the failures that exercise them. This crate injects those
//! failures on purpose, deterministically, with the same design rules
//! as `trips-obs`:
//!
//! - **Owned, not global.** A [`FaultPlan`] is a value. An engine
//!   session that is armed holds one in its [`Instruments`], next to its
//!   metrics registry, and hands both to its store and to the pools it
//!   runs. Two sessions in one process never share a schedule, and an
//!   unarmed session's draw is one `Option` check.
//! - **No dependencies** beyond `trips-obs` (for `chaos_*` counters and
//!   leveled logging of each injection).
//! - **Deterministic.** A plan is a seed plus a [`Profile`] of
//!   parts-per-million rates. Each injection point draws from its own
//!   splitmix64 sequence (`splitmix64(seed ^ point_tag ^ n)` for the
//!   point's n-th draw), so a fixed seed and a fixed order of
//!   operations (e.g. a `--threads 1` sweep) replays the exact same
//!   fault schedule. CI pins a seed and asserts the engine survives it.
//!
//! Plans come from `trips-sweep --chaos seed[:profile]` or the
//! `TRIPS_CHAOS` environment variable (same syntax), both parsed once by
//! the binary, or from [`FaultPlan::new`] in tests. The `zero` profile
//! arms the layer with every rate at zero — used to prove the
//! instrumented code paths are behavior-preserving.
//!
//! Injection points, each drawn with [`FaultPlan::fire`]:
//!
//! | point | profile field | consumed by |
//! |---|---|---|
//! | [`FaultPoint::StoreRead`] | `read_err_ppm` | `TraceStore` container reads |
//! | [`FaultPoint::StoreEnospc`] | `enospc_ppm` | `TraceStore` writes (device-full) |
//! | [`FaultPoint::StoreShortWrite`] | `short_write_ppm` | `TraceStore` temp-file writes |
//! | [`FaultPoint::StoreBitflip`] | `bitflip_ppm` | `TraceStore` post-rename corruption |
//! | [`FaultPoint::CaptureFail`] | `capture_fail_ppm` | `Session` capture tiers |
//! | [`FaultPoint::FitFail`] | `fit_fail_ppm` | `Session` phase-plan fits |
//! | [`FaultPoint::PoolPanic`] | `panic_budget` | pool job wrapper |
//! | [`FaultPoint::PoolDelay`] | `delay_ppm`/`delay_us` | pool job wrapper |

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use trips_obs::{Level, Registry};

/// One draw per million below which an injection point fires.
const PPM: u64 = 1_000_000;

/// The engine locations a plan can inject faults into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// Container read returns an I/O error.
    StoreRead,
    /// Container write fails as if the device were full.
    StoreEnospc,
    /// Container temp-file write persists only a prefix, then errors.
    StoreShortWrite,
    /// A bit of the payload is flipped after the atomic rename.
    StoreBitflip,
    /// A session capture tier fails before doing any work.
    CaptureFail,
    /// A session phase-plan fit fails before doing any work.
    FitFail,
    /// A pool job panics.
    PoolPanic,
    /// A pool job sleeps before running.
    PoolDelay,
}

const POINT_COUNT: usize = 8;

impl FaultPoint {
    /// Stable label used in `chaos_injected_total{point="..."}`.
    pub fn label(self) -> &'static str {
        match self {
            FaultPoint::StoreRead => "store_read",
            FaultPoint::StoreEnospc => "store_enospc",
            FaultPoint::StoreShortWrite => "store_short_write",
            FaultPoint::StoreBitflip => "store_bitflip",
            FaultPoint::CaptureFail => "capture_fail",
            FaultPoint::FitFail => "fit_fail",
            FaultPoint::PoolPanic => "pool_panic",
            FaultPoint::PoolDelay => "pool_delay",
        }
    }

    /// Domain-separation tag mixed into the point's draw sequence so
    /// two points never share a fault schedule.
    fn tag(self) -> u64 {
        // splitmix64 of the point index, precomputed at runtime (cheap)
        splitmix64(0x7472_6970_735f_6368 ^ self as u64)
    }
}

/// Parts-per-million fault rates for every injection point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Profile {
    /// Rate of injected container read errors.
    pub read_err_ppm: u32,
    /// Rate of injected device-full write errors.
    pub enospc_ppm: u32,
    /// Rate of injected short (truncated) temp-file writes.
    pub short_write_ppm: u32,
    /// Rate of post-rename payload bitflips.
    pub bitflip_ppm: u32,
    /// Rate of injected capture-tier failures.
    pub capture_fail_ppm: u32,
    /// Rate of injected phase-fit failures.
    pub fit_fail_ppm: u32,
    /// Rate of injected pool-job delays.
    pub delay_ppm: u32,
    /// Length of each injected delay in microseconds.
    pub delay_us: u32,
    /// Number of pool jobs that panic (the first N jobs submitted;
    /// deterministic regardless of rates or thread count).
    pub panic_budget: u32,
}

impl Profile {
    /// All rates zero: the layer is armed but inert. Used to prove the
    /// injection points are behavior-preserving when they do not fire.
    pub fn zero() -> Profile {
        Profile::default()
    }

    /// Low-rate background noise across every point.
    pub fn mild() -> Profile {
        Profile {
            read_err_ppm: 20_000,
            enospc_ppm: 10_000,
            short_write_ppm: 10_000,
            bitflip_ppm: 10_000,
            capture_fail_ppm: 10_000,
            fit_fail_ppm: 10_000,
            delay_ppm: 20_000,
            delay_us: 500,
            panic_budget: 0,
        }
    }

    /// Store-focused: aggressive I/O faults, no pool interference.
    pub fn io() -> Profile {
        Profile {
            read_err_ppm: 300_000,
            enospc_ppm: 150_000,
            short_write_ppm: 150_000,
            bitflip_ppm: 300_000,
            ..Profile::zero()
        }
    }

    /// Pool-focused: panics and delays only.
    pub fn pool() -> Profile {
        Profile {
            delay_ppm: 300_000,
            delay_us: 1_000,
            panic_budget: 2,
            ..Profile::zero()
        }
    }

    /// The profile the chaos CI job pins: moderate I/O faults, a
    /// guaranteed bitflip pressure, one forced job panic.
    pub fn ci() -> Profile {
        Profile {
            read_err_ppm: 250_000,
            enospc_ppm: 150_000,
            short_write_ppm: 150_000,
            bitflip_ppm: 400_000,
            capture_fail_ppm: 100_000,
            delay_ppm: 100_000,
            delay_us: 1_000,
            panic_budget: 1,
            ..Profile::zero()
        }
    }

    /// Looks a profile up by name. Returns the canonical name so plans
    /// report it back consistently.
    pub fn by_name(name: &str) -> Option<(&'static str, Profile)> {
        match name {
            "zero" => Some(("zero", Profile::zero())),
            "mild" => Some(("mild", Profile::mild())),
            "io" => Some(("io", Profile::io())),
            "pool" => Some(("pool", Profile::pool())),
            "ci" => Some(("ci", Profile::ci())),
            _ => None,
        }
    }

    /// Every named profile, for help text.
    pub fn names() -> &'static [&'static str] {
        &["zero", "mild", "io", "pool", "ci"]
    }
}

/// A seeded fault schedule: which injections fire, in what order.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    profile_name: &'static str,
    profile: Profile,
    /// Per-point draw sequence numbers.
    draws: [AtomicU64; POINT_COUNT],
    /// Remaining forced pool panics.
    panics_left: AtomicU64,
}

impl FaultPlan {
    /// Builds a plan from a seed and a profile.
    pub fn new(seed: u64, profile_name: &'static str, profile: Profile) -> FaultPlan {
        FaultPlan {
            seed,
            profile_name,
            profile,
            draws: Default::default(),
            panics_left: AtomicU64::new(u64::from(profile.panic_budget)),
        }
    }

    /// Parses `seed[:profile]` — seed decimal or `0x` hex; profile one
    /// of [`Profile::names`] (default `mild`).
    pub fn parse(s: &str) -> Result<FaultPlan, String> {
        let (seed_s, prof_s) = match s.split_once(':') {
            Some((a, b)) => (a, b),
            None => (s, "mild"),
        };
        let seed = if let Some(hex) = seed_s
            .strip_prefix("0x")
            .or_else(|| seed_s.strip_prefix("0X"))
        {
            u64::from_str_radix(hex, 16)
        } else {
            seed_s.parse::<u64>()
        }
        .map_err(|e| format!("bad chaos seed {seed_s:?}: {e}"))?;
        let (name, profile) = Profile::by_name(prof_s).ok_or_else(|| {
            format!(
                "unknown chaos profile {prof_s:?} (expected one of {})",
                Profile::names().join(", ")
            )
        })?;
        Ok(FaultPlan::new(seed, name, profile))
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The plan's profile name.
    pub fn profile_name(&self) -> &'static str {
        self.profile_name
    }

    /// The plan's rates.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// The point's next pseudo-random draw.
    fn draw(&self, point: FaultPoint) -> u64 {
        let n = self.draws[point as usize].fetch_add(1, Ordering::Relaxed);
        splitmix64(self.seed ^ point.tag() ^ n)
    }

    /// Whether the point fires this draw; on fire, returns one more
    /// splitmix64 step of entropy for the fault's parameters (bit
    /// position, truncation offset, ...).
    fn fires(&self, point: FaultPoint, ppm: u32) -> Option<u64> {
        // A zero rate still consumes a draw, so `zero` exercises the same
        // sequence bookkeeping as live profiles.
        let r = self.draw(point);
        (r % PPM < u64::from(ppm)).then(|| splitmix64(r))
    }

    /// Draws `point` once. On fire it returns entropy for the fault's
    /// parameters and records the injection in `metrics` as
    /// `chaos_injected_total` plus its `{point="…"}` series. A rated point
    /// fires at its profile's rate. [`FaultPoint::PoolPanic`] fires for
    /// the first `panic_budget` draws, which makes "exactly one forced
    /// panic" deterministic even under a multi-threaded pool.
    pub fn fire(&self, point: FaultPoint, metrics: &Registry) -> Option<u64> {
        let p = &self.profile;
        let entropy = match point {
            FaultPoint::StoreRead => self.fires(point, p.read_err_ppm),
            FaultPoint::StoreEnospc => self.fires(point, p.enospc_ppm),
            FaultPoint::StoreShortWrite => self.fires(point, p.short_write_ppm),
            FaultPoint::StoreBitflip => self.fires(point, p.bitflip_ppm),
            FaultPoint::CaptureFail => self.fires(point, p.capture_fail_ppm),
            FaultPoint::FitFail => self.fires(point, p.fit_fail_ppm),
            FaultPoint::PoolDelay => self.fires(point, p.delay_ppm),
            FaultPoint::PoolPanic => self
                .panics_left
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
                .ok(),
        }?;
        metrics.counter("chaos_injected_total").inc(1);
        metrics
            .counter(&format!(
                "chaos_injected_total{{point=\"{}\"}}",
                point.label()
            ))
            .inc(1);
        trips_obs::log!(Level::Debug, "chaos", "injected {}", point.label());
        Some(entropy)
    }
}

/// SplitMix64: the standard 64-bit finalizer-style PRNG step.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What one engine session's components record into and draw faults
/// from: the session's metrics registry and its fault plan, if armed.
/// Cloning shares both, which is how a session hands them to its store
/// and to the pools it runs.
#[derive(Clone, Debug, Default)]
pub struct Instruments {
    /// The registry every series of the session is recorded in.
    pub metrics: Registry,
    /// The armed plan; `None` injects nothing.
    pub faults: Option<Arc<FaultPlan>>,
}

impl Instruments {
    /// A fresh registry and `faults` as the plan.
    pub fn new(faults: Option<FaultPlan>) -> Instruments {
        Instruments {
            metrics: Registry::default(),
            faults: faults.map(Arc::new),
        }
    }

    /// Draws `point` from the armed plan ([`FaultPlan::fire`]); never
    /// fires when unarmed.
    pub fn fault(&self, point: FaultPoint) -> Option<u64> {
        self.faults.as_ref()?.fire(point, &self.metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const POINTS: [FaultPoint; POINT_COUNT] = [
        FaultPoint::StoreRead,
        FaultPoint::StoreEnospc,
        FaultPoint::StoreShortWrite,
        FaultPoint::StoreBitflip,
        FaultPoint::CaptureFail,
        FaultPoint::FitFail,
        FaultPoint::PoolPanic,
        FaultPoint::PoolDelay,
    ];

    #[test]
    fn splitmix64_is_stable() {
        // Reference values from the canonical SplitMix64 sequence.
        assert_eq!(splitmix64(0), 0xe220a8397b1dcdaf);
        assert_ne!(splitmix64(1), splitmix64(2));
    }

    #[test]
    fn parse_accepts_seed_and_profile() {
        let p = FaultPlan::parse("42").unwrap();
        assert_eq!((p.seed(), p.profile_name()), (42, "mild"));
        let p = FaultPlan::parse("0xdeadbeef:ci").unwrap();
        assert_eq!((p.seed(), p.profile_name()), (0xdead_beef, "ci"));
        let p = FaultPlan::parse("7:zero").unwrap();
        assert_eq!(p.profile(), &Profile::zero());
        assert!(FaultPlan::parse("notanumber").is_err());
        assert!(FaultPlan::parse("1:unknown")
            .unwrap_err()
            .contains("profile"));
    }

    #[test]
    fn disabled_layer_injects_nothing() {
        let unarmed = Instruments::default();
        for point in POINTS {
            assert!(unarmed.fault(point).is_none(), "{point:?}");
        }
        assert_eq!(unarmed.metrics.render(), "");
    }

    #[test]
    fn zero_profile_arms_but_never_fires() {
        let armed = Instruments::new(Some(FaultPlan::new(99, "zero", Profile::zero())));
        for _ in 0..1000 {
            for point in POINTS {
                assert!(armed.fault(point).is_none(), "{point:?}");
            }
        }
        assert_eq!(armed.metrics.render(), "");
    }

    #[test]
    fn full_rate_always_fires_and_counts() {
        let mut p = Profile::zero();
        p.read_err_ppm = 1_000_000;
        let armed = Instruments::new(Some(FaultPlan::new(7, "zero", p)));
        for _ in 0..10 {
            assert!(armed.fault(FaultPoint::StoreRead).is_some());
        }
        assert!(armed.fault(FaultPoint::StoreBitflip).is_none());
        let m = &armed.metrics;
        assert_eq!(m.counter("chaos_injected_total").get(), 10);
        let series = "chaos_injected_total{point=\"store_read\"}";
        assert_eq!(m.counter(series).get(), 10);
    }

    #[test]
    fn panic_budget_is_exact() {
        let mut p = Profile::zero();
        p.panic_budget = 3;
        let plan = FaultPlan::new(1, "zero", p);
        let metrics = Registry::default();
        let fired = (0..100)
            .filter(|_| plan.fire(FaultPoint::PoolPanic, &metrics).is_some())
            .count();
        assert_eq!(fired, 3);
        assert_eq!(metrics.counter("chaos_injected_total").get(), 3);
    }

    #[test]
    fn schedules_are_seed_deterministic() {
        let seq = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::new(seed, "io", Profile::io());
            let metrics = Registry::default();
            (0..64)
                .map(|_| plan.fire(FaultPoint::StoreRead, &metrics).is_some())
                .collect()
        };
        assert_eq!(seq(123), seq(123));
        assert_ne!(seq(123), seq(124));
    }
}
