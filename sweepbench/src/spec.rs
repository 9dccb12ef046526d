//! The three workloads and the sweep each one runs.
//!
//! All three sweep `bzip2,equake` at the default budgets. The seed only
//! draws TRIPS timing variants from the sweepable axes, so a new seed
//! changes which configurations are timed but not how much work a sweep
//! does.

use trips_engine::{BackendSpec, ConfigVariant, PhaseK, SweepSpec};
use trips_sim::TripsConfig;
use trips_workloads::Scale;

/// The programs every workload sweeps: the two largest bundled streams,
/// one integer and one floating-point.
pub const PROGRAMS: [&str; 2] = ["bzip2", "equake"];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Phased live-point sweep from an empty store: compile, capture,
    /// fit, checkpoint and write every container kind.
    ColdPhased,
    /// Full replay of several TRIPS variants and all three OoO platforms
    /// from a filled store.
    WarmFull,
    /// The `ColdPhased` sweep again, served from the store it filled.
    WarmLivepoint,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ColdPhased,
        Workload::WarmFull,
        Workload::WarmLivepoint,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdPhased => "cold_phased",
            Workload::WarmFull => "warm_full",
            Workload::WarmLivepoint => "warm_livepoint",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// True for the workloads that sample with phase plans.
    pub fn phased(self) -> bool {
        self != Workload::WarmFull
    }
}

/// Axes a seed may vary, each with the values it may take. The lists
/// leave out the prototype's own value, so every drawn variant is a
/// distinct configuration rather than an alias the replay memo would
/// serve for free. Axes that resize predictor tables or the L2 are left
/// out: they change snapshot sizes, and with them the run length.
const AXES: &[(&str, &[&str])] = &[
    ("dispatch_interval", &["1", "3", "4"]),
    ("fetch_latency", &["2", "3", "6"]),
    ("flush_penalty", &["6", "8", "16", "24"]),
    ("commit_overhead", &["1", "2", "5"]),
    ("l1d_hit", &["1", "3", "4"]),
    ("dram_lat", &["60", "100", "120", "160"]),
    ("l1d_bytes", &["16384", "65536"]),
];

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `n` TRIPS variants of the prototype, each on its own axis, drawn from
/// `seed`.
pub fn draw_variants(seed: u64, n: usize) -> Vec<ConfigVariant> {
    assert!(n <= AXES.len(), "only {} axes to draw from", AXES.len());
    let mut state = seed;
    let mut order: Vec<usize> = (0..AXES.len()).collect();
    for i in (1..order.len()).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
        .into_iter()
        .take(n)
        .map(|a| {
            let (axis, values) = AXES[a];
            let value = values[(splitmix64(&mut state) % values.len() as u64) as usize];
            ConfigVariant::axis(&TripsConfig::prototype(), axis, &[value])
                .expect("the axis table names only sweepable axes")
                .remove(0)
        })
        .collect()
}

/// The sweep `w` times at `scale` on `threads` workers.
pub fn sweep_spec(w: Workload, seed: u64, scale: Scale, threads: usize) -> SweepSpec {
    let base = SweepSpec {
        workloads: PROGRAMS.map(String::from).to_vec(),
        scale,
        threads,
        ..SweepSpec::default()
    };
    match w {
        Workload::ColdPhased | Workload::WarmLivepoint => SweepSpec {
            configs: draw_variants(seed, 1),
            backends: vec![BackendSpec::Trips, BackendSpec::Ooo("core2".into())],
            phase: Some(PhaseK::Auto),
            live_points: true,
            ..base
        },
        Workload::WarmFull => {
            // Three variants rather than more keep a run, set-ups
            // included, within the benchmark's time budget.
            let mut configs = vec![ConfigVariant::prototype()];
            configs.extend(draw_variants(seed, 3));
            SweepSpec {
                configs,
                backends: ["trips", "core2", "p4", "p3"]
                    .map(|b| BackendSpec::parse(b).expect("known backend"))
                    .to_vec(),
                ..base
            }
        }
    }
}

/// The same points replayed in full: the accuracy reference of a phased
/// sweep.
pub fn full_replay_of(spec: &SweepSpec) -> SweepSpec {
    SweepSpec {
        phase: None,
        live_points: false,
        ..spec.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_are_distinct_repeatable_and_never_the_prototype() {
        for seed in 0..50 {
            let a = draw_variants(seed, 5);
            assert_eq!(a, draw_variants(seed, 5));
            let proto = TripsConfig::prototype();
            for (i, v) in a.iter().enumerate() {
                assert_ne!(v.cfg, proto, "{}", v.name);
                assert!(a[..i].iter().all(|u| u.cfg != v.cfg), "{}", v.name);
            }
        }
        assert_ne!(draw_variants(1, 5), draw_variants(2, 5));
    }
}
