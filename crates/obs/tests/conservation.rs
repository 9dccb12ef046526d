//! Property test: histogram bucket counts and sums are conserved under
//! concurrent sharded increments — no sample is lost or double-counted
//! when many threads observe into the same histogram at once, and the
//! sharded counter likewise conserves its total.

use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn histogram_conserves_under_concurrency(
        per_thread in proptest::prop::collection::vec(
            proptest::prop::collection::vec(any::<u32>(), 1..200),
            1..6,
        )
    ) {
        // A fresh registry per case, so cases don't accumulate.
        let h = trips_obs::Registry::default().histogram("prop_hist");
        let expected_count: u64 = per_thread.iter().map(|v| v.len() as u64).sum();
        let expected_sum: u64 = per_thread
            .iter()
            .flat_map(|v| v.iter().map(|&x| x as u64))
            .sum();

        let handles: Vec<_> = per_thread
            .into_iter()
            .map(|vals| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for v in vals {
                        h.observe(v as u64);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }

        prop_assert_eq!(h.count(), expected_count);
        prop_assert_eq!(h.sum(), expected_sum);
        prop_assert_eq!(h.buckets().iter().sum::<u64>(), expected_count);
    }

    #[test]
    fn counter_conserves_under_concurrency(
        per_thread in proptest::prop::collection::vec(
            proptest::prop::collection::vec(1u64..1000, 1..200),
            1..6,
        )
    ) {
        let c = trips_obs::Registry::default().counter("prop_counter");
        let expected: u64 = per_thread.iter().flatten().sum();
        let handles: Vec<_> = per_thread
            .into_iter()
            .map(|vals| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for v in vals {
                        c.inc(v);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        prop_assert_eq!(c.get(), expected);
    }
}
