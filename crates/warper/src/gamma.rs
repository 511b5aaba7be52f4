//! Offline γ estimation (paper §3.1).
//!
//! "γ: # of annotated queries needed for a robust model. … We estimate γ
//! offline based on the training size at which the accuracy of M stabilizes
//! and tune γ, online, based on how the accuracy of M stabilizes during
//! adaptations." The online half lives in the controller; this module is
//! the offline half: train fresh models on growing prefixes of the corpus,
//! measure held-out GMQ, and return the size at which adding more data stops
//! paying.

use warper_ce::{estimate_all, CardinalityEstimator, LabeledExample};
use warper_metrics::{gmq, PAPER_THETA};

/// One point on the learning curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LearningCurvePoint {
    /// Training-set size used.
    pub train_size: usize,
    /// Held-out GMQ at that size.
    pub gmq: f64,
}

/// Result of [`estimate_gamma`].
#[derive(Debug, Clone)]
pub struct GammaEstimate {
    /// The estimated γ: the smallest probed size whose GMQ is within
    /// `tolerance` of the best achieved at any larger size.
    pub gamma: usize,
    /// The full learning curve, for inspection.
    pub curve: Vec<LearningCurvePoint>,
}

/// The relative GMQ slack [`estimate_gamma`] callers use when the operator
/// names none: 5%.
pub const DEFAULT_TOLERANCE: f64 = 0.05;

/// Estimates γ by training models (via `make_model`) on growing prefixes of
/// `corpus` and evaluating on `holdout`.
///
/// `sizes` are the prefix lengths to probe (ascending; clamped to the corpus
/// size); `tolerance` is the relative GMQ slack that counts as "stabilized"
/// (the paper leaves this to the operator; see [`DEFAULT_TOLERANCE`]).
///
/// # Panics
/// Panics if `sizes` or `holdout` is empty.
pub fn estimate_gamma(
    make_model: &dyn Fn() -> Box<dyn CardinalityEstimator>,
    corpus: &[LabeledExample],
    holdout: &[LabeledExample],
    sizes: &[usize],
    tolerance: f64,
) -> GammaEstimate {
    assert!(!sizes.is_empty(), "need at least one probe size");
    assert!(!holdout.is_empty(), "need a holdout set");
    let actuals: Vec<f64> = holdout.iter().map(|e| e.card).collect();

    let mut curve = Vec::with_capacity(sizes.len());
    for &raw_size in sizes {
        let size = raw_size.min(corpus.len()).max(1);
        let mut model = make_model();
        model.fit(&corpus[..size]);
        let ests = estimate_all(
            model.as_ref(),
            holdout.iter().map(|e| e.features.as_slice()),
        );
        curve.push(LearningCurvePoint {
            train_size: size,
            gmq: gmq(&ests, &actuals, PAPER_THETA),
        });
    }

    // Best GMQ anywhere on the curve; γ = first size within tolerance of it.
    let best = curve.iter().map(|p| p.gmq).fold(f64::INFINITY, f64::min);
    let gamma = curve
        .iter()
        .find(|p| p.gmq <= best * (1.0 + tolerance))
        .or(curve.last())
        .map_or(1, |p| p.train_size);
    GammaEstimate { gamma, curve }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use warper_ce::lm::{LmMlp, LmMlpParams};
    use warper_query::{Annotator, Featurizer, RangePredicate};
    use warper_storage::{generate, DatasetKind};

    #[test]
    fn gamma_found_on_a_real_learning_curve() {
        let table = generate(DatasetKind::Prsa, 5_000, 3);
        let f = Featurizer::from_table(&table);
        let a = Annotator::new();
        let domains = f.domains().to_vec();
        let mut rng = StdRng::seed_from_u64(5);
        let make = |rng: &mut StdRng| {
            let c = rng.random_range(0..domains.len());
            let (lo, hi) = domains[c];
            let x1 = rng.random_range(lo..=hi);
            let x2 = rng.random_range(lo..=hi);
            let p = RangePredicate::unconstrained(&domains).with_range(c, x1.min(x2), x1.max(x2));
            LabeledExample::new(f.featurize(&p), a.count(&table, &p) as f64)
        };
        let corpus: Vec<_> = (0..600).map(|_| make(&mut rng)).collect();
        let holdout: Vec<_> = (0..100).map(|_| make(&mut rng)).collect();

        let est = estimate_gamma(
            &|| Box::new(LmMlp::new(18, LmMlpParams::default(), 7)),
            &corpus,
            &holdout,
            &[50, 150, 300, 600],
            0.1,
        );
        assert_eq!(est.curve.len(), 4);
        // Learning curve trends downward overall: last probed size is better
        // than the smallest.
        assert!(est.curve[3].gmq <= est.curve[0].gmq * 1.1);
        // γ is one of the probed sizes.
        assert!([50, 150, 300, 600].contains(&est.gamma));
    }

    #[test]
    fn gamma_is_smallest_stable_size() {
        // Deterministic model stub: GMQ improves until size 300, then flat.
        struct Stub(usize);
        impl CardinalityEstimator for Stub {
            fn feature_dim(&self) -> usize {
                1
            }
            fn estimate(&self, _f: &[f64]) -> f64 {
                // Error shrinks with training size, saturating at 300.
                let err = 1.0 + 400.0 / (self.0.min(300) as f64);
                100.0 * err
            }
            fn fit(&mut self, e: &[LabeledExample]) {
                self.0 = e.len();
            }
            fn update(&mut self, _e: &[LabeledExample]) {}
            fn update_kind(&self) -> warper_ce::UpdateKind {
                warper_ce::UpdateKind::Retrain
            }
            fn name(&self) -> &'static str {
                "stub"
            }
        }
        let corpus: Vec<_> = (0..1000)
            .map(|_| LabeledExample::new(vec![0.0], 100.0))
            .collect();
        let holdout = corpus[..50].to_vec();
        let est = estimate_gamma(
            &|| Box::new(Stub(0)),
            &corpus,
            &holdout,
            &[50, 100, 300, 600, 1000],
            0.05,
        );
        assert_eq!(est.gamma, 300, "curve: {:?}", est.curve);
    }
}
