//! Property-based tests for the evaluation metrics.

use proptest::prelude::*;
use warper_metrics::speedup::relative_speedups;
use warper_metrics::{gmq, q_error, speedups_vs_ft, AdaptationCurve, PAPER_THETA};

/// A curve sampled every `step` queries.
fn curve(gmqs: &[f64], step: f64) -> AdaptationCurve {
    AdaptationCurve::from_points(
        gmqs.iter()
            .enumerate()
            .map(|(i, &g)| (step * i as f64, g))
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn q_error_scale_invariant(
        est in 1.0f64..1e6,
        actual in 1.0f64..1e6,
        scale in 1.0f64..100.0,
    ) {
        // Above the θ floor, q-error is invariant to common scaling.
        let q1 = q_error(est * 100.0, actual * 100.0, PAPER_THETA);
        let q2 = q_error(est * 100.0 * scale, actual * 100.0 * scale, PAPER_THETA);
        prop_assert!((q1 - q2).abs() < 1e-9 * q1.max(1.0));
    }

    #[test]
    fn gmq_of_perfect_estimates_is_one(
        actuals in prop::collection::vec(0.0f64..1e6, 1..50),
    ) {
        let g = gmq(&actuals, &actuals, PAPER_THETA);
        prop_assert!((g - 1.0).abs() < 1e-12);
    }

    #[test]
    fn queries_to_reach_monotone_in_target(
        gmqs in prop::collection::vec(1.0f64..20.0, 2..15),
        t1 in 1.0f64..20.0,
        t2 in 1.0f64..20.0,
    ) {
        let c = curve(&gmqs, 10.0);
        let (easy, hard) = if t1 >= t2 { (t1, t2) } else { (t2, t1) };
        match (c.queries_to_reach(easy), c.queries_to_reach(hard)) {
            (Some(qe), Some(qh)) => prop_assert!(qe <= qh + 1e-9),
            (None, Some(_)) => prop_assert!(false, "easier target unreachable but harder reached"),
            _ => {}
        }
    }

    #[test]
    fn identical_curves_give_unit_speedups(
        gmqs in prop::collection::vec(1.0f64..20.0, 3..12),
    ) {
        let c = curve(&gmqs, 5.0);
        let s = speedups_vs_ft(&c, &c);
        for v in [s.d05, s.d08, s.d10] {
            prop_assert!((v - 1.0).abs() < 1e-6, "self-speedup {v}");
        }
    }

    #[test]
    fn speedups_vs_ft_reads_alpha_and_beta_off_the_curves(
        ft_gmqs in prop::collection::vec(1.0f64..20.0, 1..12),
        a_gmqs in prop::collection::vec(1.0f64..20.0, 1..12),
        ft_step in 1.0f64..50.0,
        a_step in 1.0f64..50.0,
    ) {
        // α = FT's GMQ right after the drift, β = the lower converged GMQ.
        let (ft, a) = (curve(&ft_gmqs, ft_step), curve(&a_gmqs, a_step));
        let alpha = ft.initial_gmq().unwrap();
        let beta = ft.best_gmq().unwrap().min(a.best_gmq().unwrap());
        prop_assert_eq!(speedups_vs_ft(&ft, &a), relative_speedups(&ft, &a, alpha, beta));
    }
}
