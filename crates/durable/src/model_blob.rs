//! Type-erased persistence for the serving CE model.
//!
//! The serve layer holds its model as `dyn CardinalityEstimator`; the
//! checkpoint needs a concrete serde form. [`ModelBlob`] is the closed union
//! of every persistable model in the workspace: capture downcasts the trait
//! object (the trait's `Any` supertrait exists for exactly this), restore
//! validates through each model's [`Persistable::from_state`] so a corrupt
//! blob surfaces as an error instead of a NaN-serving estimator.

use serde::{Deserialize, Serialize};
use warper_ce::lm::{LmGbt, LmKrr, LmLinear, LmMlp};
use warper_ce::mscn::Mscn;
use warper_ce::persist::bulk::{Bulk, Runs};
use warper_ce::persist::{LmGbtState, LmKrrState, LmLinearState, LmMlpState, MscnState};
use warper_ce::{CardinalityEstimator, Persistable};

use crate::DurabilityError;

/// Serializable image of one concrete CE model.
#[derive(Serialize, Deserialize)]
pub enum ModelBlob {
    LmMlp(LmMlpState),
    LmGbt(LmGbtState),
    LmKrr(LmKrrState),
    LmLinear(LmLinearState),
    Mscn(MscnState),
}

impl Bulk for ModelBlob {
    fn runs(&mut self, v: &mut dyn Runs) {
        match self {
            ModelBlob::LmMlp(s) => s.runs(v),
            ModelBlob::LmGbt(s) => s.runs(v),
            ModelBlob::LmKrr(s) => s.runs(v),
            ModelBlob::LmLinear(s) => s.runs(v),
            ModelBlob::Mscn(s) => s.runs(v),
        }
    }
}

impl ModelBlob {
    /// Capture the serving model's state, or `None` for model types without
    /// a persistable form (e.g. the histogram baseline) — the checkpoint
    /// then stores controller state only and resume rebuilds the model.
    pub fn capture(model: &dyn CardinalityEstimator) -> Option<ModelBlob> {
        let any = model as &dyn std::any::Any;
        if let Some(m) = any.downcast_ref::<LmMlp>() {
            return Some(ModelBlob::LmMlp(m.to_state()));
        }
        if let Some(m) = any.downcast_ref::<LmGbt>() {
            return Some(ModelBlob::LmGbt(m.to_state()));
        }
        if let Some(m) = any.downcast_ref::<LmKrr>() {
            return Some(ModelBlob::LmKrr(m.to_state()));
        }
        if let Some(m) = any.downcast_ref::<LmLinear>() {
            return Some(ModelBlob::LmLinear(m.to_state()));
        }
        if let Some(m) = any.downcast_ref::<Mscn>() {
            return Some(ModelBlob::Mscn(m.to_state()));
        }
        None
    }

    /// Validate and reconstruct the model.
    pub fn restore(self) -> Result<Box<dyn CardinalityEstimator>, DurabilityError> {
        fn bad(e: warper_ce::PersistError) -> DurabilityError {
            DurabilityError::Corrupt(format!("model blob rejected: {e}"))
        }
        Ok(match self {
            ModelBlob::LmMlp(s) => Box::new(LmMlp::from_state(s).map_err(bad)?),
            ModelBlob::LmGbt(s) => Box::new(LmGbt::from_state(s).map_err(bad)?),
            ModelBlob::LmKrr(s) => Box::new(LmKrr::from_state(s).map_err(bad)?),
            ModelBlob::LmLinear(s) => Box::new(LmLinear::from_state(s).map_err(bad)?),
            ModelBlob::Mscn(s) => Box::new(Mscn::from_state(s).map_err(bad)?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warper_ce::LabeledExample;

    #[test]
    fn capture_restore_roundtrips_lm_mlp() {
        let dim = 4;
        let examples: Vec<LabeledExample> = (0..100)
            .map(|i| {
                LabeledExample::new(
                    (0..dim).map(|c| ((i + c) % 7) as f64 / 7.0).collect(),
                    50.0 + (i % 20) as f64 * 10.0,
                )
            })
            .collect();
        let mut model = LmMlp::new(dim, Default::default(), 11);
        model.fit(&examples);
        let erased: &dyn CardinalityEstimator = &model;
        let blob = ModelBlob::capture(erased).expect("LmMlp is persistable");
        let json = serde_json::to_string(&blob).unwrap();
        let back: ModelBlob = serde_json::from_str(&json).unwrap();
        let restored = back.restore().unwrap();
        assert_eq!(restored.name(), model.name());
        let q = vec![0.3; dim];
        assert!((restored.estimate(&q) - model.estimate(&q)).abs() < 1e-9);
    }

    #[test]
    fn unknown_model_type_has_no_blob() {
        struct Opaque;
        impl CardinalityEstimator for Opaque {
            fn feature_dim(&self) -> usize {
                1
            }
            fn estimate(&self, _features: &[f64]) -> f64 {
                1.0
            }
            fn fit(&mut self, _examples: &[LabeledExample]) {}
            fn update(&mut self, _examples: &[LabeledExample]) {}
            fn update_kind(&self) -> warper_ce::UpdateKind {
                warper_ce::UpdateKind::Retrain
            }
            fn name(&self) -> &'static str {
                "opaque"
            }
        }
        assert!(ModelBlob::capture(&Opaque).is_none());
    }
}
