//! Property tests for the query-optimizer simulator: plan-latency
//! properties over arbitrary cardinalities. That better estimates give
//! better plans on drawn template queries is checked in the root crate's
//! `tests/pipeline.rs`.

use proptest::prelude::*;
use warper_bench::qo::{Executor, QueryCards, Scenario};

fn cards(left: f64, right: f64, join: f64) -> QueryCards {
    QueryCards {
        left,
        right,
        join,
        left_base: 200_000.0,
        right_base: 50_000.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn oracle_is_never_beaten(
        left in 1.0f64..200_000.0,
        right in 1.0f64..50_000.0,
        join_frac in 0.0f64..1.0,
        est_left_factor in 0.001f64..1000.0,
        est_right_factor in 0.001f64..1000.0,
    ) {
        let actual = cards(left, right, join_frac * left.min(right));
        for scenario in Scenario::all() {
            let ex = Executor::new(scenario);
            let est = QueryCards {
                left: left * est_left_factor,
                right: right * est_right_factor,
                ..actual
            };
            let with_est = ex.latency(&est, &actual);
            let oracle = ex.oracle_latency(&actual);
            prop_assert!(
                with_est >= oracle - 1e-9,
                "{scenario:?}: estimate latency {with_est} < oracle {oracle}"
            );
            prop_assert!(ex.worst_latency(&actual) >= with_est - 1e-9);
        }
    }

    #[test]
    fn latencies_positive_and_gap_at_least_one(
        left in 10.0f64..150_000.0,
        right in 10.0f64..40_000.0,
    ) {
        let actual = cards(left, right, 0.5 * left.min(right));
        for scenario in Scenario::all() {
            let ex = Executor::new(scenario);
            prop_assert!(ex.oracle_latency(&actual) > 0.0);
            prop_assert!(ex.latency_gap(&actual) >= 1.0 - 1e-9);
        }
    }

    #[test]
    fn spill_latency_monotone_in_grant_error(
        left in 1_000.0f64..150_000.0,
        f1 in 0.01f64..1.0,
        f2 in 0.01f64..1.0,
    ) {
        // A worse (smaller) grant never speeds S1 up.
        let actual = cards(left, 20_000.0, 10_000.0);
        let ex = Executor::new(Scenario::S1BufferSpill);
        let (small, large) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
        let lat_small = ex.latency(&QueryCards { left: left * small, ..actual }, &actual);
        let lat_large = ex.latency(&QueryCards { left: left * large, ..actual }, &actual);
        prop_assert!(lat_small >= lat_large - 1e-9);
    }
}
