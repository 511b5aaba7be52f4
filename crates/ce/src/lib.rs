//! Learned cardinality-estimation models.
//!
//! Warper treats the CE model as a black box (paper §3.2): "any function
//! that emits a cardinality for a given query predicate ... which can
//! update() itself using additional labeled predicates". That contract is
//! [`CardinalityEstimator`]; everything Warper sees is a feature vector and
//! a cardinality, so the same adaptation machinery drives every model here:
//!
//! * [`lm::LmMlp`] — LM [10] with a small MLP regressor (fine-tunes);
//! * [`lm::LmGbt`] — LM with gradient-boosted trees (re-trains, §4.1.2);
//! * [`lm::LmKrr`] — LM with polynomial/RBF kernel regressors, the paper's
//!   LM-ply and LM-rbf SVM variants (re-train);
//! * [`mscn::Mscn`] — the set-pooled MSCN model [25] for single-table and
//!   join expressions (fine-tunes);
//! * [`histogram::HistogramCe`] — a classical equi-depth-histogram/AVI
//!   estimator as the non-learned reference point;
//! * [`lm::LmLinear`] — the paper's negative result: a linear model "did
//!   not work as a CE model (has a high error)" (§4.1.2).
//!
//! All models regress `ln(1 + card)` and clamp predictions to be
//! non-negative cardinalities.

pub mod histogram;
pub mod lm;
pub mod mscn;
pub mod persist;
pub mod quant;

pub use persist::{PersistError, Persistable};
pub use quant::{quantize_for_serving, Precision, QuantizedModel};

/// A labeled training example: the model-specific feature vector of a query
/// and its ground-truth cardinality.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledExample {
    /// Model input features (LM: `{low.., high..}`; MSCN: block layout, see
    /// [`mscn::MscnFeaturizer`]).
    pub features: Vec<f64>,
    /// Ground-truth cardinality (row count).
    pub card: f64,
}

impl LabeledExample {
    /// Convenience constructor.
    pub fn new(features: Vec<f64>, card: f64) -> Self {
        Self { features, card }
    }
}

/// How a model incorporates new labeled examples (paper §3.2: "neural
/// networks are iteratively trained and can be fine-tuned but tree-based
/// models usually need to be re-trained from scratch").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateKind {
    /// A few more epochs on the new examples.
    FineTune,
    /// Re-fit from scratch on the provided examples.
    Retrain,
}

/// The black-box CE model contract Warper adapts.
///
/// The `Any` supertrait exists for [`CardinalityEstimator::snapshot`] /
/// [`CardinalityEstimator::restore`]: a checkpointing supervisor holds models
/// as `dyn CardinalityEstimator` and needs a type-safe way to copy state back
/// into the serving instance. `Send + Sync` because a committed model
/// snapshot is served concurrently from many estimation threads (estimation
/// is `&self`; training happens on a separate owned copy).
pub trait CardinalityEstimator: Send + Sync + std::any::Any {
    /// Expected feature-vector length `m`.
    fn feature_dim(&self) -> usize;

    /// Estimated cardinality for a featurized query.
    fn estimate(&self, features: &[f64]) -> f64;

    /// Estimates a batch of featurized queries at once. The default loops
    /// over [`CardinalityEstimator::estimate`]; network-backed models
    /// override it with one batched forward pass (a single GEMM per layer
    /// instead of per-query matrix-vector products), which is what the
    /// serving layer's micro-batching queue amortizes against.
    fn estimate_many(&self, queries: &[&[f64]]) -> Vec<f64> {
        queries.iter().map(|q| self.estimate(q)).collect()
    }

    /// Initial training from scratch.
    fn fit(&mut self, examples: &[LabeledExample]);

    /// Incorporates new labeled examples (fine-tune or retrain, per
    /// [`CardinalityEstimator::update_kind`]).
    fn update(&mut self, examples: &[LabeledExample]);

    /// Which update strategy [`CardinalityEstimator::update`] uses.
    fn update_kind(&self) -> UpdateKind;

    /// Model name as used in the paper's tables (e.g. `"LM-mlp"`).
    fn name(&self) -> &'static str;

    /// A deep copy of this model for checkpointing, or `None` if the model
    /// does not support rollback. The default opts out.
    fn snapshot(&self) -> Option<Box<dyn CardinalityEstimator>> {
        None
    }

    /// Overwrites this model's state from a snapshot previously produced by
    /// [`CardinalityEstimator::snapshot`] on the same concrete type. Returns
    /// `false` (leaving the model untouched) if the snapshot's type does not
    /// match or the model does not support rollback.
    fn restore(&mut self, _snapshot: &dyn CardinalityEstimator) -> bool {
        false
    }
}

/// `model`'s estimates for every feature vector of `features`, as one
/// [`CardinalityEstimator::estimate_many`] pass. The batch-invariant GEMM
/// makes the result bit-identical to estimating each query on its own.
pub fn estimate_all<'a>(
    model: &dyn CardinalityEstimator,
    features: impl IntoIterator<Item = &'a [f64]>,
) -> Vec<f64> {
    let queries: Vec<&[f64]> = features.into_iter().collect();
    model.estimate_many(&queries)
}

/// Implements [`CardinalityEstimator::snapshot`] /
/// [`CardinalityEstimator::restore`] via `Clone` + `Any` downcasting, for use
/// inside a `CardinalityEstimator` impl block of a `Clone + 'static` model.
macro_rules! clone_snapshot_impl {
    () => {
        fn snapshot(&self) -> Option<Box<dyn crate::CardinalityEstimator>> {
            Some(Box::new(self.clone()))
        }

        fn restore(&mut self, snapshot: &dyn crate::CardinalityEstimator) -> bool {
            match (snapshot as &dyn std::any::Any).downcast_ref::<Self>() {
                Some(s) => {
                    *self = s.clone();
                    true
                }
                None => false,
            }
        }
    };
}
pub(crate) use clone_snapshot_impl;

/// Shared target transform: models regress `ln(1 + card)`.
pub(crate) fn to_target(card: f64) -> f64 {
    (1.0 + card.max(0.0)).ln()
}

/// Inverse of [`to_target`], clamped to non-negative cardinalities.
pub(crate) fn from_target(t: f64) -> f64 {
    (t.exp() - 1.0).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_transform_roundtrips() {
        for c in [0.0, 1.0, 10.0, 12345.0] {
            assert!((from_target(to_target(c)) - c).abs() < 1e-6);
        }
        // Negative estimates clamp to zero cardinality.
        assert_eq!(from_target(-3.0), 0.0);
    }
}
