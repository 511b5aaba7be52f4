//! Model persistence.
//!
//! A deployed CE model outlives the process that trained it (the paper's
//! models are trained offline and updated online, §3.5). Each model exposes
//! a serde-serializable *state* mirror — everything needed to reconstruct
//! the estimator except transient pieces (optimizer moments, RNGs), which
//! are rebuilt on load.

use serde::{Deserialize, Serialize};
/// The binary-image vocabulary the states below implement, re-exported for
/// `warper-durable`, which frames them and has no other road to `linalg`.
pub use warper_linalg::bulk;
use warper_linalg::bulk::{Bulk, Runs};
use warper_nn::{GradientBoostedTrees, KernelRidge, Mlp};

use crate::lm::{KrrVariant, LmGbt, LmKrr, LmLinear, LmMlp, LmMlpParams};
use crate::mscn::{Mscn, MscnConfig};

/// Serialized form of [`LmMlp`].
#[derive(Serialize, Deserialize, Clone)]
pub struct LmMlpState {
    /// The trained network.
    pub net: Mlp,
    /// Training hyperparameters.
    pub params: LmMlpParams,
    /// Input dimension.
    pub feature_dim: usize,
    /// Seed used to rebuild the training RNG on load.
    pub seed: u64,
}

/// Serialized form of [`LmGbt`].
#[derive(Serialize, Deserialize, Clone)]
pub struct LmGbtState {
    /// The trained ensemble (absent if never fit).
    pub model: Option<GradientBoostedTrees>,
    /// Training hyperparameters.
    pub params: warper_nn::GbtParams,
    /// Input dimension.
    pub feature_dim: usize,
    /// Mean-prediction fallback for the untrained state.
    pub mean_fallback: f64,
}

/// Serialized form of [`LmKrr`].
#[derive(Serialize, Deserialize, Clone)]
pub struct LmKrrState {
    /// The fitted kernel model (absent if never fit).
    pub model: Option<KernelRidge>,
    /// Which kernel variant.
    pub poly: bool,
    /// Input dimension.
    pub feature_dim: usize,
    /// Seed for the subsampling RNG.
    pub seed: u64,
    /// Mean-prediction fallback.
    pub mean_fallback: f64,
}

/// Serialized form of [`LmLinear`].
#[derive(Serialize, Deserialize, Clone)]
pub struct LmLinearState {
    /// Regression coefficients.
    pub beta: Option<Vec<f64>>,
    /// Intercept.
    pub intercept: f64,
    /// Input dimension.
    pub feature_dim: usize,
}

/// Serialized form of [`Mscn`].
#[derive(Serialize, Deserialize, Clone)]
pub struct MscnState {
    /// Architecture/training configuration.
    pub cfg: MscnConfig,
    /// The shared per-table set network.
    pub pred_net: Mlp,
    /// The join-condition network, when joins are enabled.
    pub join_net: Option<Mlp>,
    /// The output head.
    pub head: Mlp,
    /// Seed for the training RNG on load.
    pub seed: u64,
}

impl Bulk for LmMlpState {
    fn runs(&mut self, v: &mut dyn Runs) {
        self.net.runs(v);
    }
}

impl Bulk for LmGbtState {
    /// Trees are structure, not runs: the ensemble stays in the skeleton.
    fn runs(&mut self, _v: &mut dyn Runs) {}
}

impl Bulk for LmKrrState {
    fn runs(&mut self, v: &mut dyn Runs) {
        self.model.runs(v);
    }
}

impl Bulk for LmLinearState {
    fn runs(&mut self, v: &mut dyn Runs) {
        if let Some(beta) = &mut self.beta {
            v.f64s(beta, None);
        }
    }
}

impl Bulk for MscnState {
    fn runs(&mut self, v: &mut dyn Runs) {
        self.pred_net.runs(v);
        self.join_net.runs(v);
        self.head.runs(v);
    }
}

/// A persisted model state failed validation on load.
///
/// States come from disk (or any other untrusted channel); a corrupted or
/// hand-edited blob must surface as an error, not as a model that panics or
/// serves NaN estimates later.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// A numeric field (weight, bias, coefficient, fallback) was NaN or ±∞.
    NonFinite {
        /// Which model type was being restored.
        model: &'static str,
        /// Which field failed.
        field: &'static str,
    },
    /// A stored dimension disagrees with the stored parameters.
    DimensionMismatch {
        /// Which model type was being restored.
        model: &'static str,
        /// Which field failed.
        field: &'static str,
        /// The dimension found in the state.
        got: usize,
        /// The dimension implied by the rest of the state.
        expected: usize,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::NonFinite { model, field } => {
                write!(
                    f,
                    "{model} state: field {field:?} contains non-finite values"
                )
            }
            PersistError::DimensionMismatch {
                model,
                field,
                got,
                expected,
            } => write!(
                f,
                "{model} state: field {field:?} has dimension {got}, expected {expected}"
            ),
        }
    }
}

impl std::error::Error for PersistError {}

/// Errors unless every parameter of `net` is finite.
fn check_net(model: &'static str, field: &'static str, net: &Mlp) -> Result<(), PersistError> {
    if net.params_finite() {
        Ok(())
    } else {
        Err(PersistError::NonFinite { model, field })
    }
}

/// Errors unless `net`'s input dimension matches `expected`.
fn check_in_dim(
    model: &'static str,
    field: &'static str,
    net: &Mlp,
    expected: usize,
) -> Result<(), PersistError> {
    if net.in_dim() == expected {
        Ok(())
    } else {
        Err(PersistError::DimensionMismatch {
            model,
            field,
            got: net.in_dim(),
            expected,
        })
    }
}

/// A model that can round-trip through a serializable state.
pub trait Persistable: Sized {
    /// The serde-serializable mirror type.
    type State: Serialize + for<'de> Deserialize<'de>;

    /// Snapshots the model.
    fn to_state(&self) -> Self::State;

    /// Validates the state and reconstructs the model (fresh optimizer state
    /// / RNG from the stored seed). A corrupted state — non-finite
    /// parameters, dimensions that disagree — is rejected rather than loaded.
    fn from_state(state: Self::State) -> Result<Self, PersistError>;
}

impl Persistable for LmMlp {
    type State = LmMlpState;

    fn to_state(&self) -> LmMlpState {
        LmMlpState {
            net: self.net().clone(),
            params: self.params_snapshot(),
            feature_dim: self.feature_dim_snapshot(),
            seed: self.seed_snapshot(),
        }
    }

    fn from_state(state: LmMlpState) -> Result<Self, PersistError> {
        check_net("LM-mlp", "net", &state.net)?;
        check_in_dim("LM-mlp", "net", &state.net, state.feature_dim)?;
        Ok(LmMlp::from_parts(
            state.net,
            state.params,
            state.feature_dim,
            state.seed,
        ))
    }
}

impl Persistable for LmGbt {
    type State = LmGbtState;

    fn to_state(&self) -> LmGbtState {
        let (model, params, feature_dim, mean_fallback) = self.parts();
        LmGbtState {
            model,
            params,
            feature_dim,
            mean_fallback,
        }
    }

    fn from_state(state: LmGbtState) -> Result<Self, PersistError> {
        if !state.mean_fallback.is_finite() {
            return Err(PersistError::NonFinite {
                model: "LM-gbt",
                field: "mean_fallback",
            });
        }
        Ok(LmGbt::from_parts(
            state.model,
            state.params,
            state.feature_dim,
            state.mean_fallback,
        ))
    }
}

impl Persistable for LmKrr {
    type State = LmKrrState;

    fn to_state(&self) -> LmKrrState {
        let (model, variant, feature_dim, seed, mean_fallback) = self.parts();
        LmKrrState {
            model,
            poly: variant == KrrVariant::Poly,
            feature_dim,
            seed,
            mean_fallback,
        }
    }

    fn from_state(state: LmKrrState) -> Result<Self, PersistError> {
        if !state.mean_fallback.is_finite() {
            return Err(PersistError::NonFinite {
                model: "LM-krr",
                field: "mean_fallback",
            });
        }
        Ok(LmKrr::from_parts(
            state.model,
            if state.poly {
                KrrVariant::Poly
            } else {
                KrrVariant::Rbf
            },
            state.feature_dim,
            state.seed,
            state.mean_fallback,
        ))
    }
}

impl Persistable for LmLinear {
    type State = LmLinearState;

    fn to_state(&self) -> LmLinearState {
        let (beta, intercept, feature_dim) = self.parts();
        LmLinearState {
            beta,
            intercept,
            feature_dim,
        }
    }

    fn from_state(state: LmLinearState) -> Result<Self, PersistError> {
        if !state.intercept.is_finite() {
            return Err(PersistError::NonFinite {
                model: "LM-linear",
                field: "intercept",
            });
        }
        if let Some(beta) = &state.beta {
            if beta.iter().any(|v| !v.is_finite()) {
                return Err(PersistError::NonFinite {
                    model: "LM-linear",
                    field: "beta",
                });
            }
            if beta.len() != state.feature_dim {
                return Err(PersistError::DimensionMismatch {
                    model: "LM-linear",
                    field: "beta",
                    got: beta.len(),
                    expected: state.feature_dim,
                });
            }
        }
        Ok(LmLinear::from_parts(
            state.beta,
            state.intercept,
            state.feature_dim,
        ))
    }
}

impl Persistable for Mscn {
    type State = MscnState;

    fn to_state(&self) -> MscnState {
        let (cfg, pred_net, join_net, head, seed) = self.parts();
        MscnState {
            cfg,
            pred_net,
            join_net,
            head,
            seed,
        }
    }

    fn from_state(state: MscnState) -> Result<Self, PersistError> {
        check_net("MSCN", "pred_net", &state.pred_net)?;
        check_in_dim("MSCN", "pred_net", &state.pred_net, state.cfg.block_width())?;
        check_net("MSCN", "head", &state.head)?;
        if let Some(join_net) = &state.join_net {
            check_net("MSCN", "join_net", join_net)?;
        }
        Ok(Mscn::from_parts(
            state.cfg,
            state.pred_net,
            state.join_net,
            state.head,
            state.seed,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CardinalityEstimator, LabeledExample};

    fn train_set(dim: usize) -> Vec<LabeledExample> {
        (0..200)
            .map(|i| {
                let f: Vec<f64> = (0..dim)
                    .map(|c| ((i * 7 + c * 3) % 13) as f64 / 13.0)
                    .collect();
                LabeledExample::new(f, 10.0 + (i % 50) as f64 * 20.0)
            })
            .collect()
    }

    fn assert_same_estimates(
        a: &dyn CardinalityEstimator,
        b: &dyn CardinalityEstimator,
        dim: usize,
    ) {
        for i in 0..20 {
            let q: Vec<f64> = (0..dim).map(|c| ((i * 5 + c) % 11) as f64 / 11.0).collect();
            let ea = a.estimate(&q);
            let eb = b.estimate(&q);
            assert!(
                (ea - eb).abs() < 1e-9 * ea.abs().max(1.0),
                "{} vs {}",
                ea,
                eb
            );
        }
    }

    #[test]
    fn lm_mlp_roundtrips_through_json() {
        let mut m = LmMlp::new(6, LmMlpParams::default(), 3);
        m.fit(&train_set(6));
        let json = serde_json::to_string(&m.to_state()).unwrap();
        let restored = LmMlp::from_state(serde_json::from_str(&json).unwrap()).unwrap();
        assert_same_estimates(&m, &restored, 6);
    }

    #[test]
    fn lm_gbt_roundtrips() {
        let mut m = LmGbt::new(
            4,
            warper_nn::GbtParams {
                n_trees: 20,
                ..Default::default()
            },
        );
        m.fit(&train_set(4));
        let json = serde_json::to_string(&m.to_state()).unwrap();
        let restored = LmGbt::from_state(serde_json::from_str(&json).unwrap()).unwrap();
        assert_same_estimates(&m, &restored, 4);
    }

    #[test]
    fn lm_krr_roundtrips() {
        for variant in [KrrVariant::Poly, KrrVariant::Rbf] {
            let mut m = LmKrr::new(4, variant, 9);
            m.fit(&train_set(4));
            let json = serde_json::to_string(&m.to_state()).unwrap();
            let restored = LmKrr::from_state(serde_json::from_str(&json).unwrap()).unwrap();
            assert_same_estimates(&m, &restored, 4);
        }
    }

    #[test]
    fn lm_linear_roundtrips() {
        let mut m = LmLinear::new(4);
        m.fit(&train_set(4));
        let json = serde_json::to_string(&m.to_state()).unwrap();
        let restored = LmLinear::from_state(serde_json::from_str(&json).unwrap()).unwrap();
        assert_same_estimates(&m, &restored, 4);
    }

    #[test]
    fn mscn_roundtrips() {
        let cfg = MscnConfig::new(2, 6, 1);
        let mut m = Mscn::new(cfg, 5);
        m.fit(&train_set(cfg.feature_dim()));
        let json = serde_json::to_string(&m.to_state()).unwrap();
        let restored = Mscn::from_state(serde_json::from_str(&json).unwrap()).unwrap();
        assert_same_estimates(&m, &restored, cfg.feature_dim());
    }

    #[test]
    fn corrupted_states_rejected() {
        let mut m = LmMlp::new(4, LmMlpParams::default(), 3);
        m.fit(&train_set(4));
        // Non-finite weight.
        let mut state = m.to_state();
        state.net.layers_mut()[0].w.data_mut()[0] = f64::NAN;
        assert!(matches!(
            LmMlp::from_state(state),
            Err(PersistError::NonFinite { .. })
        ));
        // Dimension lie.
        let mut state = m.to_state();
        state.feature_dim = 7;
        assert!(matches!(
            LmMlp::from_state(state),
            Err(PersistError::DimensionMismatch { .. })
        ));
        // Corrupted linear coefficients.
        let mut lin = LmLinear::new(4);
        lin.fit(&train_set(4));
        let mut state = lin.to_state();
        if let Some(beta) = &mut state.beta {
            beta[0] = f64::INFINITY;
        }
        assert!(matches!(
            LmLinear::from_state(state),
            Err(PersistError::NonFinite { .. })
        ));
    }

    #[test]
    fn snapshot_restore_roundtrips_as_trait_object() {
        let mut m = LmMlp::new(4, LmMlpParams::default(), 3);
        m.fit(&train_set(4));
        let snap = CardinalityEstimator::snapshot(&m).expect("LmMlp supports snapshots");
        let mut other = LmMlp::new(4, LmMlpParams::default(), 99);
        assert!(other.restore(snap.as_ref()));
        assert_same_estimates(&m, &other, 4);
        // Restoring from a different concrete type is refused.
        let mut lin = LmLinear::new(4);
        assert!(!lin.restore(snap.as_ref()));
    }

    #[test]
    fn restored_models_keep_learning() {
        let mut m = LmMlp::new(4, LmMlpParams::default(), 3);
        m.fit(&train_set(4));
        let mut restored = LmMlp::from_state(m.to_state()).unwrap();
        // update() must work after restore (fresh optimizer state).
        restored.update(&train_set(4));
        assert!(restored.estimate(&[0.2; 4]).is_finite());
    }
}
