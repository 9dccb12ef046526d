//! Fixtures shared by the root integration tests: the one copy of each
//! test program, phase plan and phase spec they build on.

// Each test binary compiles this module and uses a subset of it.
#![allow(dead_code)]

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use serde::{DeserializeOwned, Serialize, Value};
use trips::engine::sample::{PhasePlan, PhaseWindow};
use trips::engine::{PhaseK, PhaseSpec};
use trips::ir::{IntCc, Opcode, Operand, Program, ProgramBuilder};

/// `sum(0..n)` as one counted loop: a steady stream whose blocks repeat.
pub fn sum_program(n: i64) -> Program {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.func("main", 0);
    let e = f.entry();
    let body = f.block();
    let done = f.block();
    f.switch_to(e);
    let acc = f.iconst(0);
    let i = f.iconst(0);
    f.jump(body);
    f.switch_to(body);
    f.ibin_to(Opcode::Add, acc, acc, i);
    f.ibin_to(Opcode::Add, i, i, 1i64);
    let c = f.icmp(IntCc::Lt, i, n);
    f.branch(c, body, done);
    f.switch_to(done);
    f.ret(Some(Operand::reg(acc)));
    f.finish();
    pb.finish("main").unwrap()
}

/// A hand-built phase plan over a stream of `total` units: the head and
/// tail windows measured in full plus one weighted interior
/// representative with a timed warmup.
pub fn handmade_plan(total: u64) -> PhasePlan {
    let interval = (total / 5).max(1);
    let head = interval.min(total);
    let tail_start = total - interval;
    let mid_extent = tail_start - head;
    let rep_start = head + mid_extent / 2;
    let rep_end = (rep_start + interval / 2)
        .min(tail_start)
        .max(rep_start + 1);
    let warm = rep_start.saturating_sub(interval / 4).max(head);
    let window = |warm_start, detail_start, end, weight_units| PhaseWindow {
        warm_start,
        detail_start,
        end,
        weight_units,
    };
    PhasePlan {
        interval,
        total_units: total,
        k: 1,
        windows: vec![
            window(0, 0, head, head),
            window(warm, rep_start, rep_end, mid_extent),
            window(tail_start, tail_start, total, interval),
        ],
        assignments: vec![],
    }
}

/// One multiplicative step of a 64-bit LCG (Knuth's constants):
/// [`random_plan`] derives window geometry from a seeded stream of these,
/// so every plan is reproducible from its seed alone.
pub fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *x >> 33
}

/// A random valid phase plan over a `total`-unit stream: up to `nwin`
/// disjoint windows at seed-derived positions with seed-derived warmup
/// run-ins, spans capped at `total / 8` so the plan never covers the
/// stream, and weights topped up to sum exactly to `total`.
pub fn random_plan(total: u64, interval: u64, seed: u64, nwin: usize) -> PhasePlan {
    let mut s = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let cap = (total / 8).max(1);
    let mut windows = Vec::new();
    let mut cursor = 0u64;
    for _ in 0..nwin {
        if cursor >= total {
            break;
        }
        let detail_start = cursor + lcg(&mut s) % ((total - cursor) / 2 + 1);
        if detail_start >= total {
            break;
        }
        let span = 1 + lcg(&mut s) % cap.min(total - detail_start);
        let warm_start = detail_start - lcg(&mut s) % (detail_start - cursor + 1);
        windows.push(PhaseWindow {
            warm_start,
            detail_start,
            end: detail_start + span,
            weight_units: span,
        });
        cursor = detail_start + span;
    }
    if windows.is_empty() {
        windows.push(PhaseWindow {
            warm_start: 0,
            detail_start: 0,
            end: 1,
            weight_units: 1,
        });
    }
    let short: u64 = total - windows.iter().map(|w| w.weight_units).sum::<u64>();
    windows.last_mut().unwrap().weight_units += short;
    PhasePlan {
        interval,
        total_units: total,
        k: 1,
        windows,
        assignments: vec![],
    }
}

/// A phase spec small enough to classify Test-scale streams.
pub fn tiny_spec(k: PhaseK) -> PhaseSpec {
    PhaseSpec {
        interval: 8,
        warmup: 4,
        k,
        floor: 0,
        rep_span: 4,
        boundary: 1,
        tail: 1,
    }
}

/// Best wall-clock seconds of `a` and of `b` for a speedup gate. The two
/// run in turn (`a`, `b`, `a`, `b`, …), so a slow spell of a shared
/// machine hits both sides alike, for at least 10 rounds and until the
/// two together have run for 2 s.
pub fn best_of_interleaved(a: &dyn Fn(), b: &dyn Fn()) -> (f64, f64) {
    let (mut best, mut spent, mut rounds) = ([f64::INFINITY; 2], 0.0, 0);
    while rounds < 10 || spent < 2.0 {
        for (side, f) in [a, b].into_iter().enumerate() {
            let t0 = Instant::now();
            f();
            let t = t0.elapsed().as_secs_f64();
            best[side] = best[side].min(t);
            spent += t;
        }
        rounds += 1;
    }
    (best[0], best[1])
}

/// Records, for each distinct field path under `v` (sequence elements
/// written `[]`) that holds a nonempty sequence, the index path —
/// sequence positions and map entries from the root — of its first such
/// sequence.
fn seq_paths(v: &Value, here: &str, at: &mut Vec<usize>, out: &mut BTreeMap<String, Vec<usize>>) {
    let mut visit = |i, x, child: &str| {
        at.push(i);
        seq_paths(x, child, at, out);
        at.pop();
    };
    match v {
        Value::Seq(items) => {
            let child = format!("{here}[]");
            for (i, x) in items.iter().enumerate() {
                visit(i, x, &child);
            }
            if !items.is_empty() {
                out.entry(here.to_string()).or_insert_with(|| at.clone());
            }
        }
        Value::Map(entries) => {
            for (i, (k, x)) in entries.iter().enumerate() {
                let key = if let Value::Str(k) = k { k } else { "{}" };
                visit(i, x, &format!("{here}.{key}"));
            }
        }
        _ => {}
    }
}

/// The sequence at index path `at` (see [`seq_paths`]).
fn seq_at<'v>(mut v: &'v mut Value, at: &[usize]) -> &'v mut Vec<Value> {
    for &i in at {
        v = match v {
            Value::Seq(items) => &mut items[i],
            Value::Map(entries) => &mut entries[i].1,
            _ => unreachable!("index paths lead through containers"),
        };
    }
    match v {
        Value::Seq(items) => items,
        _ => unreachable!("index paths end at a sequence"),
    }
}

/// Edits `x`'s serde image one sequence at a time: for each sequence path
/// of the image, its first sequence emptied and grown by a copy of its
/// last element. Each edit is decoded from the `Value` tree and from its
/// `serde::bin` bytes, and a decoded payload goes to `run`. Panics, naming
/// `what` and the edits, when a decode or a run panics or the two decodes
/// differ.
pub fn hostile_sequence_edits<T>(what: &str, x: &T, run: impl Fn(T))
where
    T: Serialize + DeserializeOwned + PartialEq,
{
    let mut image = serde::to_value(x);
    let mut paths = BTreeMap::new();
    seq_paths(&image, "", &mut Vec::new(), &mut paths);
    assert!(!paths.is_empty(), "{what}: no sequence to edit");
    let (mut panics, mut disagreements) = (Vec::new(), Vec::new());
    for (path, at) in &paths {
        for grow in [false, true] {
            // Edit in place and undo after: the image may be large.
            let items = seq_at(&mut image, at);
            let saved = if grow {
                items.push(items[items.len() - 1].clone());
                Vec::new()
            } else {
                std::mem::take(items)
            };
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let decoded = serde::from_value::<T>(&image);
                let bytes = serde::bin::to_bytes(&image);
                let via_bytes = serde::bin::from_bytes::<T>(&bytes);
                let agree = decoded.as_ref().ok() == via_bytes.as_ref().ok();
                if let Ok(bad) = decoded {
                    run(bad);
                }
                agree
            }));
            let items = seq_at(&mut image, at);
            if grow {
                items.pop();
            } else {
                *items = saved;
            }
            let edit = format!("{path} {}", if grow { "grown" } else { "emptied" });
            match outcome {
                Err(_) => panics.push(edit),
                Ok(false) => disagreements.push(edit),
                Ok(true) => {}
            }
        }
    }
    assert!(panics.is_empty(), "{what}: panicked on {panics:?}");
    assert!(
        disagreements.is_empty(),
        "{what}: bytes and Value tree decode differently on {disagreements:?}"
    );
}
