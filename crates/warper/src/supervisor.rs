//! Checkpoint/rollback supervision of the adaptation loop.
//!
//! Every [`WarperController::invoke`] mutates shared state: the pool gains
//! records, `E`/`G`/`D` take optimizer steps, and the CE model itself is
//! updated. A faulty step — diverged training, a poisoned label batch, an
//! update that overfits a noisy window — would otherwise degrade the serving
//! model until a human notices. The [`Supervisor`] makes each invocation
//! transactional:
//!
//! 1. **checkpoint** — a cheap in-memory snapshot of the controller
//!    ([`WarperState`] plus RNG position) and of the model (via
//!    [`CardinalityEstimator::snapshot`]);
//! 2. **invoke** — the normal adaptation step;
//! 3. **validate** — estimates on the rolling evaluation window must be
//!    finite, and the updated model's GMQ on that window must not regress
//!    beyond a configurable tolerance relative to the *checkpointed* model
//!    evaluated on the *same* window (apples to apples: both models see the
//!    post-invoke arrivals);
//! 4. **commit or roll back** — on violation the controller and model are
//!    restored to the pre-invoke checkpoint and the decision is recorded in
//!    the [`InvocationReport`].
//!
//! Models that opt out of [`CardinalityEstimator::snapshot`] still get
//! controller-side rollback; the GMQ-regression check is skipped for them
//! because there is no reference model to compare against.

use warper_ce::CardinalityEstimator;

use crate::baselines::{AnnotateFn, ArrivedQuery};
use crate::controller::{InvocationReport, WarperController};
use crate::detect::DataTelemetry;
use crate::persist::WarperState;

/// Why a supervised invocation was rolled back.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RollbackReason {
    /// Internal-module training diverged and exhausted its retries.
    TrainingFailure,
    /// The updated model produced a non-finite estimate on the evaluation
    /// window.
    NonFiniteEstimate,
    /// The updated model's GMQ regressed beyond the configured tolerance
    /// relative to the checkpointed model on the same window.
    GmqRegression {
        /// Checkpointed model's GMQ on the post-invoke window.
        before: f64,
        /// Updated model's GMQ on the post-invoke window.
        after: f64,
    },
}

impl std::fmt::Display for RollbackReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RollbackReason::TrainingFailure => write!(f, "internal-module training diverged"),
            RollbackReason::NonFiniteEstimate => write!(f, "non-finite estimate after update"),
            RollbackReason::GmqRegression { before, after } => {
                write!(f, "eval GMQ regressed {before:.3} → {after:.3}")
            }
        }
    }
}

/// Supervisor policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorConfig {
    /// Allowed relative GMQ regression on the rolling window before an
    /// invocation is rolled back (`after ≤ before × (1 + tolerance)`).
    pub gmq_tolerance: f64,
    /// Roll back when internal-module training diverged past its retries
    /// (`true` keeps the serving stack at the checkpoint; `false` accepts
    /// the degraded-but-validated result).
    pub rollback_on_training_failure: bool,
    /// Allowed GMQ drift of a quantized serving copy against the full-
    /// precision model it was derived from (`gmq ≤ 1 + tolerance` over the
    /// probe set). A candidate exceeding it is refused and the f64 model is
    /// published instead. Tighter than [`Self::gmq_tolerance`] because the
    /// two models answer the *same* queries — drift here is pure numeric
    /// error, not workload shift.
    pub quant_gmq_tolerance: f64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            gmq_tolerance: 0.10,
            rollback_on_training_failure: true,
            quant_gmq_tolerance: 0.05,
        }
    }
}

/// Commit/rollback counters across a supervisor's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisorStats {
    /// Invocations that passed validation.
    pub commits: usize,
    /// Invocations rolled back to their checkpoint.
    pub rollbacks: usize,
}

/// Called after every *committed* invocation with the controller state and
/// model as they will be served. This is the snapshot-publication point: a
/// serving layer installs a hook that copies the committed model into a
/// hot-swappable snapshot cell, and because the supervisor only fires it on
/// the commit path, rolled-back or partially-applied updates can never be
/// published.
pub type CommitHook = Box<dyn FnMut(&WarperState, &dyn CardinalityEstimator) + Send>;

/// The transactional wrapper around [`WarperController::invoke`].
pub struct Supervisor {
    cfg: SupervisorConfig,
    stats: SupervisorStats,
    on_commit: Option<CommitHook>,
}

impl Supervisor {
    /// A supervisor with the given policy.
    pub fn new(cfg: SupervisorConfig) -> Self {
        Self {
            cfg,
            stats: SupervisorStats::default(),
            on_commit: None,
        }
    }

    /// Installs a [`CommitHook`] fired after each committed invocation.
    pub fn with_commit_hook(mut self, hook: CommitHook) -> Self {
        self.on_commit = Some(hook);
        self
    }

    /// The policy in use.
    pub fn config(&self) -> &SupervisorConfig {
        &self.cfg
    }

    /// Lifetime commit/rollback counters.
    pub fn stats(&self) -> SupervisorStats {
        self.stats
    }

    /// One supervised invocation: checkpoint → invoke → validate → commit or
    /// roll back. The returned report carries the rollback decision (and,
    /// after a rollback, the restored model's GMQ on the restored window).
    pub fn invoke(
        &mut self,
        ctl: &mut WarperController,
        model: &mut dyn CardinalityEstimator,
        arrived: &[ArrivedQuery],
        telemetry: &DataTelemetry,
        annotate: &mut AnnotateFn<'_>,
    ) -> InvocationReport {
        let state: WarperState = ctl.to_state();
        let rng = ctl.rng_snapshot();
        let model_ck = model.snapshot();

        let mut report = ctl.invoke(model, arrived, telemetry, annotate);

        let reason = self.violation(ctl, &*model, model_ck.as_deref(), &report);
        match reason {
            Some(reason) => {
                ctl.rollback_to(&state);
                ctl.restore_rng(rng);
                if let Some(ck) = &model_ck {
                    model.restore(ck.as_ref());
                }
                report.rollback = Some(reason);
                // The serving state is the checkpoint again; report its GMQ
                // so callers see what is actually being served.
                report.eval_gmq = ctl.eval_gmq(&*model);
                self.stats.rollbacks += 1;
            }
            None => {
                self.stats.commits += 1;
                if let Some(hook) = self.on_commit.as_mut() {
                    hook(&ctl.to_state(), &*model);
                }
            }
        }
        report
    }

    fn violation(
        &self,
        ctl: &WarperController,
        model: &dyn CardinalityEstimator,
        model_ck: Option<&dyn CardinalityEstimator>,
        report: &InvocationReport,
    ) -> Option<RollbackReason> {
        if self.cfg.rollback_on_training_failure && report.training_error.is_some() {
            return Some(RollbackReason::TrainingFailure);
        }
        // The updated model sees the post-invoke window once: the finite
        // check and its GMQ read the same estimates.
        let ests = ctl.eval_estimates(model);
        if ests.iter().any(|e| !e.is_finite()) {
            return Some(RollbackReason::NonFiniteEstimate);
        }
        // Apples-to-apples regression check: both models on the post-invoke
        // window. Skipped when the model cannot snapshot (no reference) or
        // the window is empty (nothing to compare).
        let after = ctl.eval_gmq_of(&ests)?;
        let before = ctl.eval_gmq(model_ck?)?;
        if !after.is_finite() || after > before * (1.0 + self.cfg.gmq_tolerance) {
            return Some(RollbackReason::GmqRegression { before, after });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WarperConfig;
    use warper_ce::{LabeledExample, UpdateKind};

    /// A snapshot-capable linear toy model: estimate `scale · (0.1 + f[0])`.
    #[derive(Clone)]
    struct ToyModel {
        scale: f64,
        /// When set, every update multiplies `scale` by this factor instead
        /// of learning — simulating an update poisoned by bad labels.
        sabotage: Option<f64>,
    }

    impl ToyModel {
        fn good(scale: f64) -> Self {
            Self {
                scale,
                sabotage: None,
            }
        }
    }

    impl CardinalityEstimator for ToyModel {
        fn feature_dim(&self) -> usize {
            4
        }
        fn estimate(&self, f: &[f64]) -> f64 {
            self.scale * (0.1 + f[0])
        }
        fn fit(&mut self, e: &[LabeledExample]) {
            self.update(e);
        }
        fn update(&mut self, e: &[LabeledExample]) {
            if let Some(factor) = self.sabotage {
                self.scale *= factor;
                return;
            }
            if e.is_empty() {
                return;
            }
            let target: f64 = e
                .iter()
                .map(|ex| ex.card / (0.1 + ex.features[0]))
                .sum::<f64>()
                / e.len() as f64;
            self.scale = 0.5 * self.scale + 0.5 * target;
        }
        fn update_kind(&self) -> UpdateKind {
            UpdateKind::FineTune
        }
        fn name(&self) -> &'static str {
            "toy"
        }
        fn snapshot(&self) -> Option<Box<dyn CardinalityEstimator>> {
            Some(Box::new(self.clone()))
        }
        fn restore(&mut self, snapshot: &dyn CardinalityEstimator) -> bool {
            match (snapshot as &dyn std::any::Any).downcast_ref::<Self>() {
                Some(s) => {
                    *self = s.clone();
                    true
                }
                None => false,
            }
        }
    }

    fn training_set() -> Vec<(Vec<f64>, f64)> {
        (0..60)
            .map(|i| {
                let f = vec![0.2 + 0.001 * (i % 10) as f64; 4];
                let card = 1000.0 * (0.1 + f[0]);
                (f, card)
            })
            .collect()
    }

    fn small_cfg() -> WarperConfig {
        WarperConfig {
            embed_dim: 6,
            hidden: 24,
            n_i: 10,
            batch: 16,
            pretrain_epochs: 5,
            gamma: 100,
            n_p: 50,
            ..Default::default()
        }
    }

    fn arrived_shifted(n: usize) -> Vec<ArrivedQuery> {
        (0..n)
            .map(|i| {
                let f = vec![0.8 + 0.001 * (i % 5) as f64; 4];
                ArrivedQuery {
                    gt: Some(90_000.0 * (0.1 + f[0])),
                    features: f,
                }
            })
            .collect()
    }

    fn annotate_true(qs: &[Vec<f64>]) -> Vec<Option<f64>> {
        qs.iter().map(|f| Some(90_000.0 * (0.1 + f[0]))).collect()
    }

    #[test]
    fn healthy_invocations_commit() {
        let mut ctl = WarperController::new(4, &training_set(), 1.2, small_cfg(), 42);
        let mut model = ToyModel::good(1000.0);
        let mut sup = Supervisor::new(SupervisorConfig::default());
        let rep = sup.invoke(
            &mut ctl,
            &mut model,
            &arrived_shifted(40),
            &DataTelemetry::default(),
            &mut annotate_true,
        );
        assert!(rep.rollback.is_none(), "rollback {:?}", rep.rollback);
        assert_eq!(
            sup.stats(),
            SupervisorStats {
                commits: 1,
                rollbacks: 0
            }
        );
        // The commit actually moved the model.
        assert!(model.scale > 10_000.0, "scale {}", model.scale);
    }

    #[test]
    fn sabotaged_update_rolls_back_to_checkpoint_gmq() {
        let mut ctl = WarperController::new(4, &training_set(), 1.2, small_cfg(), 42);
        // Warm the evaluation window with one healthy supervised step so the
        // regression check has a populated window.
        let mut model = ToyModel::good(1000.0);
        let mut sup = Supervisor::new(SupervisorConfig::default());
        sup.invoke(
            &mut ctl,
            &mut model,
            &arrived_shifted(40),
            &DataTelemetry::default(),
            &mut annotate_true,
        );
        let scale_before = model.scale;
        let gmq_before = ctl.eval_gmq(&model);
        // Poison the update path: the next step multiplies scale by 50.
        model.sabotage = Some(50.0);
        let rep = sup.invoke(
            &mut ctl,
            &mut model,
            &arrived_shifted(30),
            &DataTelemetry::default(),
            &mut annotate_true,
        );
        assert!(
            matches!(rep.rollback, Some(RollbackReason::GmqRegression { .. })),
            "rollback {:?}",
            rep.rollback
        );
        assert_eq!(sup.stats().rollbacks, 1);
        // The model serves the checkpointed weights again, and the
        // controller's window and GMQ are the checkpointed ones.
        assert_eq!(model.scale, scale_before);
        assert_eq!(ctl.eval_gmq(&model), gmq_before);
        assert_eq!(rep.eval_gmq, gmq_before);
    }

    #[test]
    fn forced_divergence_rolls_back_and_serves_checkpoint() {
        // LR spike: 1e6 makes every GAN/auto-encoder step explode, so all
        // re-seeded retries diverge too and the invocation reports a
        // training error → the supervisor must roll back. The controller is
        // built with a sane LR (pre-training succeeds), then spiked.
        let mut ctl = WarperController::new(4, &training_set(), 1.2, small_cfg(), 42);
        let mut model = ToyModel::good(1000.0);
        let mut sup = Supervisor::new(SupervisorConfig::default());
        // Healthy warm-up invocation (fills the eval window).
        sup.invoke(
            &mut ctl,
            &mut model,
            &arrived_shifted(40),
            &DataTelemetry::default(),
            &mut annotate_true,
        );
        let pre_gmq = ctl.eval_gmq(&model);
        let pre_scale = model.scale;
        ctl.spike_lr_for_test(1e6);
        let rep = sup.invoke(
            &mut ctl,
            &mut model,
            &arrived_shifted(30),
            &DataTelemetry::default(),
            &mut annotate_true,
        );
        assert!(rep.training_error.is_some(), "expected divergence");
        assert!(rep.gan_retries > 0, "retries should have been attempted");
        assert_eq!(rep.rollback, Some(RollbackReason::TrainingFailure));
        // Provably serving the pre-invoke checkpoint. (The spiked LR is part
        // of that checkpoint — rollback restores the state at invoke entry,
        // not earlier history.)
        assert_eq!(model.scale, pre_scale);
        assert_eq!(ctl.eval_gmq(&model), pre_gmq);
        assert_eq!(rep.eval_gmq, pre_gmq);
    }

    #[test]
    fn commit_hook_fires_only_on_commits_with_validated_state() {
        use std::sync::{Arc, Mutex};
        let mut ctl = WarperController::new(4, &training_set(), 1.2, small_cfg(), 42);
        let mut model = ToyModel::good(1000.0);
        let published: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&published);
        let mut sup = Supervisor::new(SupervisorConfig::default()).with_commit_hook(Box::new(
            move |state, model| {
                // Publication precondition: only fully valid state reaches
                // the hook.
                assert!(state.validate().is_ok());
                sink.lock().unwrap().push(model.estimate(&[0.5; 4]));
            },
        ));
        // Healthy step: commits, hook fires once.
        sup.invoke(
            &mut ctl,
            &mut model,
            &arrived_shifted(40),
            &DataTelemetry::default(),
            &mut annotate_true,
        );
        assert_eq!(published.lock().unwrap().len(), 1);
        // Sabotaged step: rolls back, hook must NOT fire again.
        model.sabotage = Some(50.0);
        let rep = sup.invoke(
            &mut ctl,
            &mut model,
            &arrived_shifted(30),
            &DataTelemetry::default(),
            &mut annotate_true,
        );
        assert!(rep.rollback.is_some());
        assert_eq!(published.lock().unwrap().len(), 1);
    }

    #[test]
    fn training_failure_tolerated_when_configured() {
        let mut ctl = WarperController::new(4, &training_set(), 1.2, small_cfg(), 42);
        let mut model = ToyModel::good(1000.0);
        let mut sup = Supervisor::new(SupervisorConfig {
            rollback_on_training_failure: false,
            ..Default::default()
        });
        sup.invoke(
            &mut ctl,
            &mut model,
            &arrived_shifted(40),
            &DataTelemetry::default(),
            &mut annotate_true,
        );
        ctl.spike_lr_for_test(1e6);
        let rep = sup.invoke(
            &mut ctl,
            &mut model,
            &arrived_shifted(30),
            &DataTelemetry::default(),
            &mut annotate_true,
        );
        // Divergence happened, but the degraded result validated fine (the
        // model update itself is healthy), so it commits.
        assert!(rep.training_error.is_some());
        assert!(rep.rollback.is_none(), "rollback {:?}", rep.rollback);
    }
}
