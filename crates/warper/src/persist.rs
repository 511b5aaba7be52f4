//! Warper state persistence.
//!
//! A deployed Warper outlives process restarts: the query pool, the
//! pre-trained/adapted `E`/`G`/`D` networks, the tuned γ, and the adaptive
//! threshold π are all state worth carrying over (re-pre-training `E`/`G`
//! costs the one-time build of §3.5). [`WarperState`] is a
//! serde-serializable snapshot of everything except transients (optimizer
//! moments, RNG position, the rolling evaluation window).

use serde::{Deserialize, Serialize};
use warper_linalg::bulk::{Bulk, Runs};
use warper_nn::Mlp;

use crate::config::WarperConfig;
use crate::controller::WarperController;
use crate::encoder::Encoder;
use crate::error::WarperError;
use crate::pool::QueryPool;

/// Transient drift-handling runtime carried by newer snapshots: the adaptive
/// threshold π, the active-drift counters, and the rolling evaluation
/// window. Older snapshots deserialize without it (`runtime: None`) and the
/// restored controller starts with fresh counters, exactly as before.
#[derive(Serialize, Deserialize, Clone, Debug, Default)]
pub struct RuntimeState {
    /// The adaptive drift-detection threshold π.
    pub pi: f64,
    /// Whether a drift was being handled at snapshot time.
    pub drift_active: bool,
    /// Arrivals since the active drift began.
    pub n_t_since_drift: usize,
    /// Labeled arrivals/annotations since the active drift began.
    pub n_a_since_drift: usize,
    /// Eval GMQ of the previous invocation (early-stop reference).
    pub prev_eval_gmq: Option<f64>,
    /// Data-drift changed-row fraction already handled (c1 dedup).
    pub handled_changed_fraction: f64,
    /// Rolling window of recent labeled arrivals used for δ_m and eval.
    pub recent_eval: Vec<(Vec<f64>, f64)>,
}

/// Current snapshot format version, written by [`WarperController::to_state`].
/// Version 3 added the optional `sketch_baseline` section (the mergeable
/// drift-telemetry sketches ride the checkpoint path); pre-sketch snapshots
/// load with `sketch_baseline: None` and the probe re-baselines lazily from
/// the live table. Version 4 has the same fields: it marks the states the
/// durable store writes as a [`warper_linalg::bulk`] image (the [`Bulk`] impl
/// below names the runs that leave the JSON) instead of one JSON text.
pub const SNAPSHOT_VERSION: u32 = 4;

/// Oldest snapshot format this build still loads. Version 1 is the
/// pre-versioning format: those snapshots carry no `version` field and
/// deserialize to 1 via the serde default.
pub const MIN_SNAPSHOT_VERSION: u32 = 1;

fn legacy_version() -> u32 {
    1
}

/// A snapshot of a [`WarperController`].
#[derive(Serialize, Deserialize, Clone)]
pub struct WarperState {
    /// Snapshot format version (see [`SNAPSHOT_VERSION`]). Absent in
    /// pre-versioning snapshots, which deserialize as version 1.
    #[serde(default = "legacy_version")]
    pub version: u32,
    /// Configuration.
    pub cfg: WarperConfig,
    /// The query pool, including labels and source tags.
    pub pool: QueryPool,
    /// The encoder `E`.
    pub encoder: Encoder,
    /// The generator `G`.
    pub generator: Mlp,
    /// The discriminator `D`.
    pub discriminator: Mlp,
    /// Reference GMQ for the δ_m trigger.
    pub baseline_gmq: f64,
    /// The (possibly tuned) γ.
    pub gamma: usize,
    /// RNG seed for the restored controller.
    pub seed: u64,
    /// Transient drift runtime (absent in snapshots from older versions).
    #[serde(default)]
    pub runtime: Option<RuntimeState>,
    /// The sketch-probe baseline: the table's mergeable sketch rollup at the
    /// time the model was last (re)trained (see `warper_storage::sketch`).
    /// Absent in pre-v3 snapshots — recovery then re-baselines lazily from
    /// the live table, exactly like a fresh probe.
    #[serde(default)]
    pub sketch_baseline: Option<warper_storage::TableSketch>,
}

impl Bulk for WarperState {
    fn runs(&mut self, v: &mut dyn Runs) {
        self.pool.runs(v);
        self.encoder.runs(v);
        self.generator.runs(v);
        self.discriminator.runs(v);
        if let Some(rt) = &mut self.runtime {
            for (features, _) in &mut rt.recent_eval {
                v.f64s(features, None);
            }
        }
        self.sketch_baseline.runs(v);
    }
}

impl WarperState {
    /// Validates structural and numeric invariants before a controller is
    /// (re)built from this snapshot. A corrupted snapshot — non-finite
    /// weights, mismatched dimensions, impossible counters — is rejected
    /// with a typed error instead of poisoning a serving controller.
    pub fn validate(&self) -> Result<(), WarperError> {
        let invalid = |msg: String| Err(WarperError::InvalidState(msg));
        if self.version < MIN_SNAPSHOT_VERSION || self.version > SNAPSHOT_VERSION {
            return invalid(format!(
                "snapshot version {} unsupported (this build loads {MIN_SNAPSHOT_VERSION}..={SNAPSHOT_VERSION})",
                self.version
            ));
        }
        if !self.baseline_gmq.is_finite() || self.baseline_gmq <= 0.0 {
            return invalid(format!("baseline_gmq {} is not usable", self.baseline_gmq));
        }
        if self.gamma == 0 {
            return invalid("gamma must be positive".into());
        }
        if self.cfg.pool_cap == 0 {
            return invalid("cfg.pool_cap must be positive".into());
        }
        if !self.cfg.pi.is_finite() || self.cfg.pi <= 0.0 {
            return invalid(format!("configured pi {} is not usable", self.cfg.pi));
        }
        if !self.encoder.net().params_finite() {
            return invalid("encoder has non-finite parameters".into());
        }
        if !self.generator.params_finite() {
            return invalid("generator has non-finite parameters".into());
        }
        if !self.discriminator.params_finite() {
            return invalid("discriminator has non-finite parameters".into());
        }
        let m = self.encoder.feature_dim();
        if self.generator.out_dim() != m {
            return invalid(format!(
                "generator emits {} features but the encoder expects {m}",
                self.generator.out_dim()
            ));
        }
        // Shape agreement across the E/G/D triple: G and D both consume the
        // encoder's embedding space, and D scores the three source classes.
        // A snapshot whose header (cfg) disagrees with its payload networks
        // would otherwise rebuild a controller that multiplies mismatched
        // matrices or silently embeds into the wrong space.
        let z = self.encoder.embed_dim();
        if self.cfg.embed_dim != z {
            return invalid(format!(
                "cfg.embed_dim {} does not match the encoder's embedding dim {z}",
                self.cfg.embed_dim
            ));
        }
        if self.generator.in_dim() != z {
            return invalid(format!(
                "generator consumes {} dims but the encoder embeds into {z}",
                self.generator.in_dim()
            ));
        }
        if self.discriminator.in_dim() != z {
            return invalid(format!(
                "discriminator consumes {} dims but the encoder embeds into {z}",
                self.discriminator.in_dim()
            ));
        }
        if self.discriminator.out_dim() != 3 {
            return invalid(format!(
                "discriminator emits {} classes, expected 3 (gen/new/train)",
                self.discriminator.out_dim()
            ));
        }
        for (i, r) in self.pool.records().iter().enumerate() {
            if r.features.len() != m {
                return invalid(format!(
                    "pool record {i} has {} features, expected {m}",
                    r.features.len()
                ));
            }
            if r.features.iter().any(|v| !v.is_finite()) {
                return invalid(format!("pool record {i} has non-finite features"));
            }
            if r.gt.is_some_and(|g| !g.is_finite()) {
                return invalid(format!("pool record {i} has a non-finite label"));
            }
        }
        if let Some(sk) = &self.sketch_baseline {
            sk.validate()
                .map_err(|e| WarperError::InvalidState(format!("sketch baseline: {e}")))?;
        }
        if let Some(rt) = &self.runtime {
            if !rt.pi.is_finite() || rt.pi <= 0.0 {
                return invalid(format!("runtime pi {} is not usable", rt.pi));
            }
            if !rt.handled_changed_fraction.is_finite() {
                return invalid("runtime handled_changed_fraction is non-finite".into());
            }
            if rt.prev_eval_gmq.is_some_and(|g| !g.is_finite()) {
                return invalid("runtime prev_eval_gmq is non-finite".into());
            }
            if rt
                .recent_eval
                .iter()
                .any(|(f, a)| !a.is_finite() || f.iter().any(|v| !v.is_finite()))
            {
                return invalid("runtime eval window contains non-finite values".into());
            }
        }
        Ok(())
    }
}

impl WarperController {
    /// Snapshots the controller for persistence. Canonicalization hooks are
    /// not serializable; reinstall one with
    /// [`WarperController::with_canonicalizer`] after restoring.
    pub fn to_state(&self) -> WarperState {
        let (generator, discriminator) = self.gan_parts();
        WarperState {
            version: SNAPSHOT_VERSION,
            cfg: *self.config(),
            pool: self.pool().clone(),
            encoder: self.encoder_snapshot(),
            generator,
            discriminator,
            baseline_gmq: self.detector().baseline_gmq(),
            gamma: self.gamma(),
            seed: self.seed(),
            runtime: Some(self.runtime_state()),
            sketch_baseline: self.sketch_baseline().cloned(),
        }
    }

    /// Restores a controller from a snapshot (fresh optimizer state; drift
    /// counters and the adaptive π resume from the snapshot's runtime when
    /// present). The snapshot is validated first: corrupted state yields a
    /// typed error, never a controller that panics or serves NaNs.
    pub fn from_state(state: WarperState) -> Result<Self, WarperError> {
        state.validate()?;
        let runtime = state.runtime.clone();
        let mut ctl = WarperController::restore(
            state.cfg,
            state.pool,
            state.encoder,
            state.generator,
            state.discriminator,
            state.baseline_gmq,
            state.gamma,
            state.seed,
        );
        if let Some(rt) = &runtime {
            ctl.apply_runtime(rt);
        }
        ctl.set_sketch_baseline(state.sketch_baseline);
        Ok(ctl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::ArrivedQuery;
    use crate::detect::DataTelemetry;
    use warper_ce::{CardinalityEstimator, LabeledExample, UpdateKind};

    struct ToyModel;
    impl CardinalityEstimator for ToyModel {
        fn feature_dim(&self) -> usize {
            4
        }
        fn estimate(&self, f: &[f64]) -> f64 {
            1000.0 * (0.1 + f[0])
        }
        fn fit(&mut self, _e: &[LabeledExample]) {}
        fn update(&mut self, _e: &[LabeledExample]) {}
        fn update_kind(&self) -> UpdateKind {
            UpdateKind::FineTune
        }
        fn name(&self) -> &'static str {
            "toy"
        }
    }

    fn training_set() -> Vec<(Vec<f64>, f64)> {
        (0..50)
            .map(|i| (vec![0.2 + 0.001 * (i % 7) as f64; 4], 300.0))
            .collect()
    }

    #[test]
    fn state_roundtrips_through_json() {
        let cfg = WarperConfig {
            embed_dim: 6,
            hidden: 24,
            n_i: 8,
            pretrain_epochs: 3,
            ..Default::default()
        };
        let mut ctl = WarperController::new(4, &training_set(), 1.5, cfg, 42);
        // Drive one invocation so the pool has new + generated records.
        let arrived: Vec<ArrivedQuery> = (0..40)
            .map(|i| ArrivedQuery {
                features: vec![0.8 + 0.001 * (i % 5) as f64; 4],
                gt: Some(90_000.0),
            })
            .collect();
        let mut model = ToyModel;
        ctl.invoke(&mut model, &arrived, &DataTelemetry::default(), &mut |qs| {
            vec![Some(90_000.0); qs.len()]
        });

        let json = serde_json::to_string(&ctl.to_state()).unwrap();
        let restored = WarperController::from_state(serde_json::from_str(&json).unwrap()).unwrap();
        assert_eq!(restored.pool().len(), ctl.pool().len());
        assert_eq!(restored.gamma(), ctl.gamma());
        assert_eq!(
            restored.detector().baseline_gmq(),
            ctl.detector().baseline_gmq()
        );
        // The restored encoder produces identical embeddings.
        let q = vec![0.5; 4];
        assert_eq!(
            restored.encoder_snapshot().embed(&q, Some(10.0)),
            ctl.encoder_snapshot().embed(&q, Some(10.0))
        );
    }

    fn small_state() -> WarperState {
        let cfg = WarperConfig {
            embed_dim: 6,
            hidden: 24,
            n_i: 8,
            pretrain_epochs: 3,
            ..Default::default()
        };
        WarperController::new(4, &training_set(), 1.5, cfg, 42).to_state()
    }

    #[test]
    fn snapshot_carries_current_version_through_roundtrip() {
        let state = small_state();
        assert_eq!(state.version, SNAPSHOT_VERSION);
        let json = serde_json::to_string(&state).unwrap();
        let back: WarperState = serde_json::from_str(&json).unwrap();
        assert_eq!(back.version, SNAPSHOT_VERSION);
        assert!(WarperController::from_state(back).is_ok());
    }

    /// `from_state` error, panicking on unexpected success (the controller
    /// itself has no `Debug` impl, so `unwrap_err` is unavailable).
    fn load_err(state: WarperState) -> WarperError {
        match WarperController::from_state(state) {
            Err(e) => e,
            Ok(_) => panic!("corrupted state loaded successfully"),
        }
    }

    #[test]
    fn corrupted_version_header_is_rejected() {
        let json = serde_json::to_string(&small_state()).unwrap();
        let marker = format!("\"version\":{SNAPSHOT_VERSION}");
        assert!(json.contains(&marker), "snapshot header missing {marker}");
        for bad in [0u32, SNAPSHOT_VERSION + 97] {
            let tampered = json.replace(&marker, &format!("\"version\":{bad}"));
            let state: WarperState = serde_json::from_str(&tampered).unwrap();
            let err = load_err(state);
            assert!(
                matches!(&err, WarperError::InvalidState(m) if m.contains("version")),
                "version {bad}: {err}"
            );
        }
    }

    #[test]
    fn legacy_snapshot_without_version_field_still_loads() {
        let json = serde_json::to_string(&small_state()).unwrap();
        let marker = format!("\"version\":{SNAPSHOT_VERSION},");
        assert!(json.contains(&marker), "snapshot header missing {marker}");
        let legacy = json.replacen(&marker, "", 1);
        let state: WarperState = serde_json::from_str(&legacy).unwrap();
        assert_eq!(state.version, 1);
        assert!(WarperController::from_state(state).is_ok());
    }

    #[test]
    fn shape_mismatched_snapshot_is_rejected_not_loaded() {
        // A header/payload disagreement (cfg claims a different embedding
        // width than the serialized networks use) must be a typed error —
        // previously this rebuilt a controller around mismatched matrices.
        let mut state = small_state();
        state.cfg.embed_dim += 1;
        let err = load_err(state);
        assert!(
            matches!(&err, WarperError::InvalidState(m) if m.contains("embed")),
            "{err}"
        );
    }

    #[test]
    fn restored_controller_keeps_adapting() {
        let cfg = WarperConfig {
            embed_dim: 6,
            hidden: 24,
            n_i: 8,
            pretrain_epochs: 3,
            gamma: 100,
            ..Default::default()
        };
        let ctl = WarperController::new(4, &training_set(), 1.5, cfg, 7);
        let mut restored = WarperController::from_state(ctl.to_state()).unwrap();
        let arrived: Vec<ArrivedQuery> = (0..40)
            .map(|_| ArrivedQuery {
                features: vec![0.9; 4],
                gt: Some(50_000.0),
            })
            .collect();
        let mut model = ToyModel;
        let report = restored.invoke(&mut model, &arrived, &DataTelemetry::default(), &mut |qs| {
            vec![Some(50_000.0); qs.len()]
        });
        assert!(
            report.mode.any(),
            "restored controller must still detect drift"
        );
    }
}
