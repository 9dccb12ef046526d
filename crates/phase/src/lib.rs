//! # trips-phase
//!
//! Phase classification for sampled replay, SimPoint-style: cut a recorded
//! stream into fixed-size intervals, summarize each interval as a
//! **basic-block vector** (BBV — execution frequencies of the basic blocks
//! it ran), cluster the interval BBVs offline, and time **one
//! representative interval per cluster**, extrapolating by cluster
//! population. Phase-repetitive programs (block-sorting loops, DSP
//! kernels) revisit the same few behaviors over and over; systematic
//! interval sampling re-measures each behavior every period, while a
//! phase-classified plan measures it once and weights it — the same
//! accuracy at a fraction of the detailed units.
//!
//! The pipeline, all deterministic:
//!
//! 1. **Extraction** — one extractor (`interval_features`) cuts either
//!    stream kind into intervals and counts per-interval sparse features,
//!    each kind supplying per unit its keys and its memory addresses:
//!    [`trips_features`] (`(block, path)` frequencies over the block
//!    `seq`, keyed on the log's own address-free path ids) and
//!    [`risc_features`] (control-transfer destination and 4 KiB page
//!    frequencies over the walked event stream), plus one first-touch
//!    novelty feature for both.
//! 2. **Projection** ([`project`]) — each interval's counts are
//!    L1-normalized and random-projected to [`BBV_DIMS`] dimensions with
//!    ±1 signs drawn from a stable hash of `(feature, dim, seed)`, so
//!    distances survive the reduction and the matrix is a pure function
//!    of `(stream, seed)`.
//! 3. **Clustering** ([`kmeans`], [`fit_plan`]) — k-means++-seeded Lloyd
//!    iterations from a [splitmix64](Rng) generator seeded by the trace
//!    key; `k` is either fixed or chosen by a BIC-style score over a
//!    k-sweep ([`PhaseK::Auto`]), preferring the smallest `k` within 10%
//!    of the best score (SimPoint's parsimony rule).
//! 4. **Plan emission** — one [`trips_sample::PhaseWindow`] per cluster
//!    (the member interval closest to the centroid, with a timed-warmup
//!    prefix), plus fully measured boundary intervals at each end of the
//!    stream (startup/teardown transients), weights summing exactly to
//!    the stream extent.
//!
//! Because every step is seeded from the trace identity and uses fixed
//! iteration orders, the same trace key produces a **byte-identical**
//! [`PhasePlan`] in every process — which is what lets the engine persist
//! fitted plans in the trace store and trust a warm hit completely.

use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::convert::Infallible;
use std::fmt;
use trips_isa::trace::MemIndex;
use trips_isa::TraceLog;
use trips_risc::exec::{CtrlKind, EventSource, RiscError};
use trips_risc::{RProgram, RiscTrace};
use trips_sample::{PhasePlan, PhaseWindow};

/// Payload-format version of persisted BBV/phase-plan containers. Folded
/// into the store key, so a bump retires every stored artifact at once.
pub const BBV_VERSION: u32 = 2;

/// Dimensions the sparse BBVs are random-projected down to (SimPoint uses
/// 15; a power of two keeps the arithmetic tidy).
pub const BBV_DIMS: usize = 16;

/// Iteration cap for one Lloyd run (convergence is typically < 20).
const MAX_ITERS: usize = 64;

/// Largest `k` the automatic BIC sweep considers.
const AUTO_MAX_K: u32 = 16;

/// A deterministic splitmix64 generator: the only randomness source in
/// this crate, seeded from the trace key so fits are reproducible.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Rng {
        Rng { state: seed }
    }

    /// The next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The ±1 projection sign for one `(feature, dim)` pair under `seed` — a
/// stateless hash, so projection never materializes a sign matrix over
/// the (unbounded) feature space.
fn projection_sign(feature: u64, dim: usize, seed: u64) -> f64 {
    let mut z = feature ^ seed.rotate_left(17) ^ ((dim as u64) << 56);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    if z & 1 == 1 {
        1.0
    } else {
        -1.0
    }
}

/// Random-projects per-interval sparse feature counts to dense
/// [`BBV_DIMS`]-dimensional vectors. Counts are L1-normalized first, so
/// interval length does not masquerade as behavior; the signs are a pure
/// function of `(feature, dim, seed)`.
#[must_use]
pub fn project(features: &[Vec<(u64, u32)>], seed: u64) -> Vec<Vec<f64>> {
    features
        .iter()
        .map(|interval| {
            let total: f64 = interval.iter().map(|&(_, c)| f64::from(c)).sum();
            let norm = if total > 0.0 { total } else { 1.0 };
            let mut v = vec![0.0; BBV_DIMS];
            for &(feature, count) in interval {
                let w = f64::from(count) / norm;
                for (dim, slot) in v.iter_mut().enumerate() {
                    *slot += w * projection_sign(feature, dim, seed);
                }
            }
            v
        })
        .collect()
}

fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// One k-means fit: assignments, centroids, and the total within-cluster
/// sum of squared distances.
#[derive(Debug, Clone)]
pub struct KMeansFit {
    /// Number of clusters (≤ the requested k when points run out).
    pub k: u32,
    /// Per-point cluster index.
    pub assignments: Vec<u32>,
    /// Cluster centroids.
    pub centroids: Vec<Vec<f64>>,
    /// Within-cluster sum of squared distances.
    pub sse: f64,
}

/// Deterministic k-means: k-means++ seeding from `rng`, Lloyd iterations
/// with lowest-index tie-breaking, empty clusters reseeded to the point
/// farthest from its centroid. `k` is clamped to the point count.
#[must_use]
pub fn kmeans(points: &[Vec<f64>], k: u32, rng: &mut Rng) -> KMeansFit {
    let n = points.len();
    let k = (k.max(1) as usize).min(n.max(1));
    if n == 0 {
        return KMeansFit {
            k: 0,
            assignments: Vec::new(),
            centroids: Vec::new(),
            sse: 0.0,
        };
    }
    // k-means++ seeding: first centroid uniform, the rest distance²-biased.
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    centroids.push(points[(rng.next_u64() % n as u64) as usize].clone());
    let mut d2: Vec<f64> = points.iter().map(|p| dist2(p, &centroids[0])).collect();
    while centroids.len() < k {
        let total: f64 = d2.iter().sum();
        let next = if total > 0.0 {
            let mut draw = rng.next_f64() * total;
            let mut at = 0;
            for (i, &d) in d2.iter().enumerate() {
                draw -= d;
                if draw <= 0.0 {
                    at = i;
                    break;
                }
                at = i;
            }
            at
        } else {
            // All points coincide with a centroid: spread deterministically.
            (rng.next_u64() % n as u64) as usize
        };
        centroids.push(points[next].clone());
        for (i, p) in points.iter().enumerate() {
            d2[i] = d2[i].min(dist2(p, centroids.last().expect("just pushed")));
        }
    }

    let mut assignments = vec![0u32; n];
    for _ in 0..MAX_ITERS {
        // Assignment step (strict < keeps ties on the lowest index).
        let mut moved = false;
        for (i, p) in points.iter().enumerate() {
            let mut best = 0usize;
            let mut best_d = dist2(p, &centroids[0]);
            for (c, centroid) in centroids.iter().enumerate().skip(1) {
                let d = dist2(p, centroid);
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            if assignments[i] != best as u32 {
                assignments[i] = best as u32;
                moved = true;
            }
        }
        // Update step.
        let dims = points[0].len();
        let mut sums = vec![vec![0.0; dims]; k];
        let mut sizes = vec![0u64; k];
        for (i, p) in points.iter().enumerate() {
            let c = assignments[i] as usize;
            sizes[c] += 1;
            for (s, x) in sums[c].iter_mut().zip(p) {
                *s += x;
            }
        }
        for c in 0..k {
            if sizes[c] == 0 {
                // Reseed an empty cluster to the worst-fitted point.
                let worst = (0..n)
                    .max_by(|&a, &b| {
                        let da = dist2(&points[a], &centroids[assignments[a] as usize]);
                        let db = dist2(&points[b], &centroids[assignments[b] as usize]);
                        da.partial_cmp(&db).expect("finite distances")
                    })
                    .expect("n > 0");
                centroids[c] = points[worst].clone();
            } else {
                for (s, slot) in sums[c].iter().zip(centroids[c].iter_mut()) {
                    *slot = s / sizes[c] as f64;
                }
            }
        }
        if !moved {
            break;
        }
    }
    let sse = points
        .iter()
        .zip(&assignments)
        .map(|(p, &c)| dist2(p, &centroids[c as usize]))
        .sum();
    KMeansFit {
        k: k as u32,
        assignments,
        centroids,
        sse,
    }
}

/// A BIC-style score of one fit (x-means formulation under identical
/// spherical Gaussians): higher is better; the parameter penalty keeps a
/// k-sweep from always preferring the largest k.
#[must_use]
pub fn bic_score(points: &[Vec<f64>], fit: &KMeansFit) -> f64 {
    let n = points.len() as f64;
    if n == 0.0 || fit.k == 0 {
        return 0.0;
    }
    let d = points[0].len() as f64;
    let k = f64::from(fit.k);
    let mut sizes = vec![0.0f64; fit.k as usize];
    for &a in &fit.assignments {
        sizes[a as usize] += 1.0;
    }
    let variance = (fit.sse / (d * (n - k).max(1.0))).max(1e-12);
    let mut ll = 0.0;
    for &ni in &sizes {
        if ni > 0.0 {
            ll += ni * ni.ln();
        }
    }
    ll -= n * n.ln();
    ll -= n * d / 2.0 * (2.0 * std::f64::consts::PI * variance).ln();
    ll -= d * (n - k) / 2.0;
    let params = k * (d + 1.0);
    ll - params / 2.0 * n.ln()
}

/// How many clusters to fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseK {
    /// Sweep k and pick the smallest within 10% of the best BIC score.
    Auto,
    /// A fixed cluster count (clamped to the interior-interval count).
    K(u32),
}

impl PhaseK {
    /// Parses the CLI grammar: `auto` or a positive cluster count.
    ///
    /// # Errors
    /// A description of the malformed value.
    pub fn parse(s: &str) -> Result<PhaseK, String> {
        if s.trim() == "auto" {
            return Ok(PhaseK::Auto);
        }
        match s.trim().parse::<u32>() {
            Ok(k) if k >= 1 => Ok(PhaseK::K(k)),
            _ => Err(format!(
                "expected `auto` or a positive cluster count, got `{s}`"
            )),
        }
    }
}

impl fmt::Display for PhaseK {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhaseK::Auto => write!(f, "auto"),
            PhaseK::K(k) => write!(f, "{k}"),
        }
    }
}

/// Everything a phase fit needs besides the stream itself. The engine
/// keys its memoized plans (and the persisted store containers) on these
/// fields, so two processes asking the same question share one answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PhaseSpec {
    /// Stream units per classification interval.
    pub interval: u64,
    /// Timed-warmup units before each representative window.
    pub warmup: u64,
    /// Cluster-count choice.
    pub k: PhaseK,
    /// Streams shorter than this fit a covering plan (which normalizes to
    /// full replay): short streams have too few intervals for phase
    /// statistics, and full replay is cheaper anyway.
    pub floor: u64,
    /// Most intervals one representative window may stand for. Fat
    /// clusters are chunked (in stream order) into groups of at most this
    /// many members, each with its own representative — bounding the
    /// extrapolation ratio of any single measured window, so one
    /// unluckily-placed representative cannot swing the whole estimate.
    /// `0` means unlimited (pure one-window-per-cluster SimPoint).
    pub rep_span: u64,
    /// Intervals measured in full at the *start* of the stream (the
    /// startup stratum, mirroring the systematic sampler's two-period
    /// boundary). Deep cold-start transients are only partly visible to
    /// BBVs — first-touch novelty classifies the compulsory-miss sweep,
    /// but the very first intervals also train predictors and fill every
    /// level of the hierarchy at once — so the head region is measured
    /// exactly and only the interior is clustered.
    pub boundary: u64,
    /// Intervals measured in full at the *end* of the stream (the
    /// teardown stratum). Teardown transients (reductions, result
    /// stores) are short, so this is typically narrower than the head.
    pub tail: u64,
}

impl PhaseSpec {
    /// The TRIPS-side default: 256-block intervals behind 32 blocks of
    /// timed warmup, representatives standing for at most 8 intervals,
    /// 4-interval boundary strata at both ends, full replay below 4096
    /// blocks.
    #[must_use]
    pub fn trips(k: PhaseK) -> PhaseSpec {
        PhaseSpec {
            interval: 256,
            warmup: 32,
            k,
            floor: 4096,
            rep_span: 8,
            boundary: 4,
            tail: 4,
        }
    }

    /// The OoO-side default: 16384-instruction intervals behind 2048
    /// instructions of timed warmup, representatives standing for at most
    /// 8 intervals, 8-interval boundary strata (the reference machines'
    /// cache cold-start runs several intervals deep), full replay below
    /// 65536 instructions.
    #[must_use]
    pub fn ooo(k: PhaseK) -> PhaseSpec {
        PhaseSpec {
            interval: 16_384,
            warmup: 2_048,
            k,
            floor: 65_536,
            rep_span: 16,
            boundary: 8,
            tail: 2,
        }
    }

    /// The store-key encoding of the cluster choice (0 = auto).
    #[must_use]
    pub fn k_code(&self) -> u64 {
        match self.k {
            PhaseK::Auto => 0,
            PhaseK::K(k) => u64::from(k),
        }
    }
}

/// A covering plan over `total_units`: one all-measuring window, which
/// [`trips_sample::ReplayMode`] normalizes to bit-exact full replay.
fn covering_plan(interval: u64, total_units: u64, n_intervals: usize) -> PhasePlan {
    PhasePlan {
        interval,
        total_units,
        k: 0,
        windows: if total_units == 0 {
            Vec::new()
        } else {
            vec![PhaseWindow {
                warm_start: 0,
                detail_start: 0,
                end: total_units,
                weight_units: total_units,
            }]
        },
        assignments: vec![0; n_intervals],
    }
}

/// Fits a [`PhasePlan`] from per-interval feature counts (the plan of
/// [`fit_artifact`]).
#[must_use]
pub fn fit_plan(
    features: &[Vec<(u64, u32)>],
    total_units: u64,
    spec: &PhaseSpec,
    seed: u64,
) -> PhasePlan {
    fit_artifact(features, total_units, spec, seed).plan
}

/// Fits a [`PhaseArtifact`] from per-interval feature counts.
///
/// `features[i]` describes the interval starting at `i × spec.interval`;
/// the last interval may be short. The first and last intervals become
/// fully measured boundary windows; the interior is clustered and each
/// cluster contributes one representative window (closest member to the
/// centroid, warmup prefix clamped against its predecessor) weighted by
/// the cluster's total units. Streams below `spec.floor`, or with fewer
/// than four intervals, fit a covering plan that normalizes to full
/// replay. The fit is a pure function of `(features, spec, seed)`.
#[must_use]
pub fn fit_artifact(
    features: &[Vec<(u64, u32)>],
    total_units: u64,
    spec: &PhaseSpec,
    seed: u64,
) -> PhaseArtifact {
    let _span = trips_obs::span_with("phase.fit", || {
        format!("intervals={} total_units={total_units}", features.len())
    });
    let interval = spec.interval.max(1);
    let n = features.len();
    let boundary = (spec.boundary.max(1) as usize).min(n / 2);
    let tail = (spec.tail.max(1) as usize).min(n / 2);
    debug_assert_eq!(n as u64, total_units.div_ceil(interval));
    if total_units < spec.floor || n < boundary + tail + 2 {
        return PhaseArtifact {
            seed,
            vectors: Vec::new(),
            plan: covering_plan(interval, total_units, n),
        };
    }
    let len_of = |i: usize| -> u64 {
        if i + 1 == n {
            total_units - (n as u64 - 1) * interval
        } else {
            interval
        }
    };
    let span_of = |from: usize, to: usize| -> u64 { (from..to).map(len_of).sum() };

    // Cluster the interior intervals (the boundary strata are measured
    // anyway).
    let mid = &features[boundary..n - tail];
    let points = project(mid, seed);
    let mid_n = points.len();
    let mut rng = Rng::new(seed);
    let fit = match spec.k {
        // k ≥ interior count: every interval is its own cluster by
        // construction (k-means over duplicate points could leave some
        // clusters empty), so the plan provably covers everything and
        // normalizes to bit-exact full replay.
        PhaseK::K(k) if k as usize >= mid_n => KMeansFit {
            k: mid_n as u32,
            assignments: (0..mid_n as u32).collect(),
            centroids: points.clone(),
            sse: 0.0,
        },
        PhaseK::K(k) => kmeans(&points, k, &mut rng),
        PhaseK::Auto => {
            // One fit per candidate k (each from its own rng offset so a
            // k's draws don't depend on how many came before it), scored
            // by BIC; the smallest k within 10% of the best score wins.
            let max_k = AUTO_MAX_K.min(mid_n as u32).max(1);
            let fits: Vec<KMeansFit> = (1..=max_k)
                .map(|k| kmeans(&points, k, &mut Rng::new(seed ^ u64::from(k))))
                .collect();
            let scores: Vec<f64> = fits.iter().map(|f| bic_score(&points, f)).collect();
            let best = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let worst = scores.iter().cloned().fold(f64::INFINITY, f64::min);
            let span = (best - worst).max(1e-12);
            let pick = scores
                .iter()
                .position(|&s| (s - worst) / span >= 0.9)
                .unwrap_or(scores.len() - 1);
            fits.into_iter().nth(pick).expect("pick < fits.len()")
        }
    };
    let k = fit.k;

    // Representatives: each cluster's members (in stream order) are
    // chunked into groups of at most `rep_span` intervals, and each group
    // is represented by its member closest to the centroid (ties on the
    // latest interval — see the fold below). The chunking
    // bounds any one window's extrapolation ratio — a single measured
    // interval never stands for more than `rep_span` — which is what
    // keeps workloads whose cost drifts *within* a behavior cluster
    // (working-set growth under identical control flow) from swinging the
    // whole estimate on one unlucky representative.
    let span = if spec.rep_span == 0 {
        usize::MAX
    } else {
        spec.rep_span as usize
    };
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); k as usize];
    for m in 0..points.len() {
        members[fit.assignments[m] as usize].push(m);
    }
    // marks: (first interval, one-past-last interval, weight) per window;
    // boundary windows span `boundary` intervals, representative windows
    // span one.
    let mut marks: Vec<(usize, usize, u64)> = Vec::with_capacity(k as usize + 2);
    marks.push((0, boundary, span_of(0, boundary)));
    for (c, cluster) in members.iter().enumerate() {
        for group in cluster.chunks(span) {
            let weight: u64 = group.iter().map(|&m| len_of(m + boundary)).sum();
            // The member closest to the centroid; among equally close
            // members (phase-repetitive streams duplicate BBVs exactly)
            // the *latest* wins — the earliest occurrence of a recurring
            // behavior can still ride program-level cold start that the
            // boundary stratum did not fully cover, while a later
            // occurrence runs in representative long-lived state.
            let rep = group
                .iter()
                .copied()
                .fold(None::<(usize, f64)>, |best, m| {
                    let d = dist2(&points[m], &fit.centroids[c]);
                    match best {
                        Some((_, bd)) if bd < d => best,
                        _ => Some((m, d)),
                    }
                })
                .expect("chunks are non-empty")
                .0;
            let i = rep + boundary; // interval index (mid starts at `boundary`)
            marks.push((i, i + 1, weight));
        }
    }
    marks.push((n - tail, n, span_of(n - tail, n)));
    marks.sort_unstable_by_key(|&(i, _, _)| i);
    let mut windows: Vec<PhaseWindow> = Vec::with_capacity(marks.len());
    for (first, past, weight) in marks {
        let start = first as u64 * interval;
        let end = start + span_of(first, past);
        let prev_end = windows.last().map_or(0, |w: &PhaseWindow| w.end);
        let warm_start = start.saturating_sub(spec.warmup).max(prev_end);
        windows.push(PhaseWindow {
            warm_start,
            detail_start: start,
            end,
            weight_units: weight,
        });
    }

    let mut assignments = Vec::with_capacity(n);
    assignments.extend(std::iter::repeat_n(k, boundary)); // head stratum
    assignments.extend(fit.assignments.iter().copied());
    assignments.extend(std::iter::repeat_n(k + 1, tail)); // tail stratum
    let plan = PhasePlan {
        interval,
        total_units,
        k,
        windows,
        assignments,
    };
    debug_assert_eq!(plan.validate(), Ok(()));
    PhaseArtifact {
        seed,
        vectors: points,
        plan,
    }
}

/// The id of the first-touch novelty feature, clear of every control
/// key and of the RISC page keys (top bit set).
pub const NOVELTY: u64 = 1 << 62;

/// Per-interval signature features of a stream of either kind, given
/// per unit its keys (what it ran) and the memory addresses it touched.
/// The stream is cut into `interval`-unit intervals (the last may be
/// short). Each interval counts its keys, plus one **first-touch
/// novelty** feature ([`NOVELTY`]) counting the 64 B lines it accesses
/// that no earlier interval touched: that separates the compulsory-miss
/// first sweep over a working set from warm revisits that run the
/// identical code over the identical lines. Features are sorted by id.
///
/// # Errors
/// The first error `units` yields.
fn interval_features<K, A, E>(
    units: impl IntoIterator<Item = Result<(K, A), E>>,
    interval: u64,
) -> Result<Vec<Vec<(u64, u32)>>, E>
where
    K: IntoIterator<Item = u64>,
    A: IntoIterator<Item = u64>,
{
    let mut out = Vec::new();
    let mut counts: HashMap<u64, u32> = HashMap::new();
    let mut seen_lines: HashSet<u64> = HashSet::new();
    let mut flush = |counts: &mut HashMap<u64, u32>| {
        let mut features: Vec<(u64, u32)> = counts.drain().collect();
        features.sort_unstable();
        out.push(features);
    };
    let mut in_interval = 0u64;
    for unit in units {
        let (keys, addrs) = unit?;
        let novel = addrs.into_iter().filter(|a| seen_lines.insert(a >> 6));
        for key in keys.into_iter().chain(novel.map(|_| NOVELTY)) {
            *counts.entry(key).or_insert(0) += 1;
        }
        in_interval += 1;
        if in_interval == interval.max(1) {
            flush(&mut counts);
            in_interval = 0;
        }
    }
    if in_interval > 0 {
        flush(&mut counts);
    }
    Ok(out)
}

/// The signature features of a TRIPS block-trace stream, which must pass
/// [`TraceLog::validate`]: per block one `(block, path)` key, on the
/// log's own path id, and the addresses it touched. So the key sees code,
/// not addresses. There are no page keys: with them, `art`'s phased
/// estimate on the prototype with 3x DRAM latency at Ref was 11.6% off
/// full replay, against 0.4% without.
#[must_use]
pub fn trips_features(log: &TraceLog, interval: u64) -> Vec<Vec<(u64, u32)>> {
    let mems = MemIndex::new(&log.shapes);
    let mut at = 0;
    let units = log.seq.iter().map(|&(block, path)| {
        let n = mems.path(path).expect("a validated log").len();
        let addrs = log.addrs[at..at + n].iter().copied();
        at += n;
        Ok::<_, Infallible>((Some(u64::from(block) << 32 | u64::from(path)), addrs))
    });
    let Ok(features) = interval_features(units, interval);
    features
}

/// The signature features of a recorded RISC event stream, walked
/// through the program: per control instruction its destination (the
/// recorded transfer, or the fallthrough of an untaken branch: a
/// basic-block leader), and per memory access a 4 KiB page key (top bit
/// set) and its address. Pages catch phases that share control flow but
/// walk different working sets.
///
/// # Errors
/// The stream-corruption errors replay would raise.
pub fn risc_features(
    trace: &RiscTrace,
    rp: &RProgram,
    interval: u64,
) -> Result<Vec<Vec<(u64, u32)>>, RiscError> {
    let mut cursor = trace.cursor(rp);
    let units = std::iter::from_fn(|| cursor.next_event().transpose()).map(|ev| {
        let ev = ev?;
        let dest = (ev.ctrl_kind != CtrlKind::None).then(|| {
            let (func, idx) = ev.transfer.unwrap_or((ev.func, ev.idx + 1));
            u64::from(func) << 32 | u64::from(idx)
        });
        let addr = ev.mem.map(|(addr, _)| addr);
        Ok((
            dest.into_iter().chain(addr.map(|a| 1 << 63 | a >> 12)),
            addr,
        ))
    });
    interval_features(units, interval)
}

/// Fits a phase artifact for a TRIPS block-trace stream: [`trips_features`]
/// (`(block, path)` frequencies), then [`fit_artifact`]. Seed with the
/// trace's stable key so every process fits the identical plan.
#[must_use]
pub fn trips_fit(log: &TraceLog, spec: &PhaseSpec, seed: u64) -> PhaseArtifact {
    let features = trips_features(log, spec.interval);
    fit_artifact(&features, log.seq.len() as u64, spec, seed)
}

/// Fits a phase artifact for a recorded RISC event stream:
/// [`risc_features`] (control-transfer destination and page
/// frequencies), then [`fit_artifact`].
///
/// # Errors
/// The stream-corruption errors the walk can raise.
pub fn risc_fit(
    trace: &RiscTrace,
    rp: &RProgram,
    spec: &PhaseSpec,
    seed: u64,
) -> Result<PhaseArtifact, RiscError> {
    let features = risc_features(trace, rp, spec.interval)?;
    Ok(fit_artifact(
        &features,
        trace.header.dynamic_insts,
        spec,
        seed,
    ))
}

/// The persisted form of one fit: the projected interval vectors
/// (provenance — what the clustering saw) plus the fitted plan. This is
/// the payload of the trace store's third container kind, keyed off the
/// parent trace, so N processes sweeping N points cluster once per store.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseArtifact {
    /// The seed the fit ran under (the parent trace's stable key).
    pub seed: u64,
    /// Projected per-interior-interval BBVs ([`BBV_DIMS`] wide).
    pub vectors: Vec<Vec<f64>>,
    /// The fitted plan.
    pub plan: PhasePlan,
}

impl PhaseArtifact {
    /// Consistency of a loaded artifact against the spec and stream it
    /// claims to describe (the store verifies bytes; this verifies
    /// meaning).
    ///
    /// # Errors
    /// A description of the first mismatch.
    pub fn validate(&self, spec: &PhaseSpec, total_units: u64) -> Result<(), String> {
        if self.plan.interval != spec.interval.max(1) {
            return Err(format!(
                "artifact fitted at interval {}, wanted {}",
                self.plan.interval, spec.interval
            ));
        }
        if self.plan.total_units != total_units {
            return Err(format!(
                "artifact fitted to a {}-unit stream, this one has {total_units}",
                self.plan.total_units
            ));
        }
        self.plan.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic features: `n` intervals alternating between `phases`
    /// distinct behaviors, plus a block-id offset so phases are far apart.
    fn synthetic_features(n: usize, phases: u64) -> Vec<Vec<(u64, u32)>> {
        (0..n)
            .map(|i| {
                let p = (i as u64) % phases;
                vec![(p * 1000, 90), (p * 1000 + 1, 10)]
            })
            .collect()
    }

    #[test]
    fn projection_is_deterministic_and_length_invariant() {
        let f = synthetic_features(8, 2);
        let a = project(&f, 42);
        let b = project(&f, 42);
        assert_eq!(a, b);
        let c = project(&f, 43);
        assert_ne!(a, c, "the seed must move the projection");
        // Same behavior at double the length projects identically
        // (L1 normalization).
        let doubled: Vec<Vec<(u64, u32)>> = f
            .iter()
            .map(|v| v.iter().map(|&(id, c)| (id, c * 2)).collect())
            .collect();
        assert_eq!(a, project(&doubled, 42));
        assert!(a.iter().all(|v| v.len() == BBV_DIMS));
    }

    #[test]
    fn kmeans_separates_distinct_phases() {
        let f = synthetic_features(20, 2);
        let points = project(&f, 7);
        let fit = kmeans(&points, 2, &mut Rng::new(7));
        assert_eq!(fit.k, 2);
        // Alternating intervals land in alternating clusters.
        for w in fit.assignments.windows(2) {
            assert_ne!(w[0], w[1]);
        }
        assert!(
            fit.sse < 1e-9,
            "identical-phase points collapse to centroids"
        );
        // k clamps to the point count.
        assert_eq!(kmeans(&points[..3], 9, &mut Rng::new(7)).k, 3);
        assert_eq!(kmeans(&[], 3, &mut Rng::new(7)).k, 0);
    }

    #[test]
    fn auto_k_recovers_the_phase_count() {
        for phases in [1u64, 2, 3] {
            let f = synthetic_features(62, phases);
            let spec = PhaseSpec {
                interval: 10,
                warmup: 2,
                k: PhaseK::Auto,
                floor: 0,
                rep_span: 0,
                boundary: 1,
                tail: 1,
            };
            let plan = fit_plan(&f, 620, &spec, 99);
            assert_eq!(
                u64::from(plan.k),
                phases,
                "{phases} planted phases must be recovered"
            );
            plan.validate().unwrap();
            // One representative window per cluster plus two boundaries.
            assert_eq!(plan.windows.len() as u64, phases + 2);
        }
    }

    #[test]
    fn fixed_k_covering_and_floor_degenerate_to_full() {
        let f = synthetic_features(6, 2);
        let spec = PhaseSpec {
            interval: 10,
            warmup: 2,
            k: PhaseK::K(4), // == interior count: every interval measured
            floor: 0,
            rep_span: 0,
            boundary: 1,
            tail: 1,
        };
        let plan = fit_plan(&f, 60, &spec, 1);
        plan.validate().unwrap();
        assert!(plan.covers_everything(), "{plan}");
        // Below the floor: covering without clustering.
        let floored = fit_plan(
            &f,
            60,
            &PhaseSpec {
                floor: 1000,
                ..spec
            },
            1,
        );
        assert!(floored.covers_everything());
        assert_eq!(floored.k, 0);
        floored.validate().unwrap();
    }

    #[test]
    fn fits_are_byte_identical_across_runs() {
        let f = synthetic_features(40, 3);
        let spec = PhaseSpec {
            interval: 16,
            warmup: 4,
            k: PhaseK::Auto,
            floor: 0,
            rep_span: 0,
            boundary: 1,
            tail: 1,
        };
        let a = fit_plan(&f, 640, &spec, 0xDEAD_BEEF);
        let b = fit_plan(&f, 640, &spec, 0xDEAD_BEEF);
        assert_eq!(
            serde::bin::to_bytes(&a),
            serde::bin::to_bytes(&b),
            "same inputs must produce byte-identical plans"
        );
        let c = fit_plan(&f, 640, &spec, 0xDEAD_BEE0);
        assert_eq!(a.k, c.k, "seed changes draws, not the recovered structure");
    }

    #[test]
    fn phase_k_parses() {
        assert_eq!(PhaseK::parse("auto").unwrap(), PhaseK::Auto);
        assert_eq!(PhaseK::parse(" 8 ").unwrap(), PhaseK::K(8));
        assert!(PhaseK::parse("0").is_err());
        assert!(PhaseK::parse("many").is_err());
        assert_eq!(PhaseK::Auto.to_string(), "auto");
        assert_eq!(PhaseK::K(3).to_string(), "3");
        assert_eq!(PhaseSpec::trips(PhaseK::Auto).k_code(), 0);
        assert_eq!(PhaseSpec::ooo(PhaseK::K(5)).k_code(), 5);
    }

    #[test]
    fn artifact_roundtrips_and_validates() {
        let f = synthetic_features(12, 2);
        let spec = PhaseSpec {
            interval: 8,
            warmup: 2,
            k: PhaseK::Auto,
            floor: 0,
            rep_span: 0,
            boundary: 1,
            tail: 1,
        };
        let plan = fit_plan(&f, 96, &spec, 5);
        let art = PhaseArtifact {
            seed: 5,
            vectors: project(&f[1..11], 5),
            plan,
        };
        art.validate(&spec, 96).unwrap();
        let bytes = serde::bin::to_bytes(&art);
        let back: PhaseArtifact = serde::bin::from_bytes(&bytes).unwrap();
        assert_eq!(back, art);
        assert!(
            art.validate(&spec, 97).is_err(),
            "stream length pins the fit"
        );
        let other = PhaseSpec {
            interval: 16,
            ..spec
        };
        assert!(art.validate(&other, 96).is_err(), "interval pins the fit");
    }
}
