//! The Warper controller — Algorithm 1 plus the periodic `det_drft` loop of
//! Figure 3, early stopping, and online γ tuning (§3.1, §3.4).

use rand::rngs::StdRng;
use rand::SeedableRng;
use warper_ce::{estimate_all, CardinalityEstimator, LabeledExample, UpdateKind};
use warper_linalg::sampling::standard_normal;
use warper_metrics::{gmq, PAPER_THETA};
use warper_nn::DivergenceError;

use crate::baselines::{AdaptStrategy, AnnotateFn, ArrivedQuery, StepReport};
use crate::config::WarperConfig;
use crate::detect::{DataTelemetry, Detection, DriftDetector, DriftMode, WorkloadDriftTracker};
use crate::encoder::Encoder;
use crate::gan::{Gan, TrainStats};
use crate::persist::{RuntimeState, WarperState};
use crate::picker::{Picker, PickerKind};
use crate::pool::{QueryPool, Source};
use crate::supervisor::{RollbackReason, Supervisor, SupervisorConfig};

/// A risky internal-module training task run under
/// `WarperController::train_guarded`'s all-or-nothing semantics.
type GanTask = dyn Fn(
    &mut Gan,
    &mut Encoder,
    &QueryPool,
    &WarperConfig,
    &mut StdRng,
) -> Result<TrainStats, DivergenceError>;

/// How synthetic queries are produced — the paper's GAN, or the Gaussian
/// noise ablation of Table 10 ("G → AUG").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenKind {
    /// The paper's generator `G`.
    Gan,
    /// Gaussian noise on arrived queries (ablation).
    Noise,
}

/// What one [`WarperController::invoke`] call did.
#[derive(Debug, Clone, Copy)]
pub struct InvocationReport {
    /// Drift mode identified by `det_drft`.
    pub mode: DriftMode,
    /// The measured accuracy gap δ_m.
    pub delta_m: f64,
    /// Synthetic queries generated.
    pub generated: usize,
    /// Queries annotated.
    pub annotated: usize,
    /// Labeled examples handed to the model update.
    pub trained_on: usize,
    /// Picked multiset entries that are training-set records (free labels).
    pub picked_train: usize,
    /// Picked multiset entries that are synthetic records.
    pub picked_gen: usize,
    /// Model GMQ on the recent-arrivals window after the update (if any
    /// labeled arrivals exist).
    pub eval_gmq: Option<f64>,
    /// True when the invocation triggered the §3.4 early stop.
    pub early_stopped: bool,
    /// GAN / auto-encoder training stats.
    pub gan_stats: TrainStats,
    /// Picked/probe annotations that failed; the records stay unlabeled in
    /// the pool and are re-eligible at the next invocation (skip-and-requeue).
    pub annotation_failed: usize,
    /// Re-seeded internal-module training retries consumed this invocation.
    pub gan_retries: usize,
    /// Divergence that survived every retry; the invocation continued
    /// without that module update (degraded mode).
    pub training_error: Option<DivergenceError>,
    /// Set by the [`Supervisor`](crate::supervisor::Supervisor) when it
    /// rolled this invocation back to the pre-invoke checkpoint.
    pub rollback: Option<RollbackReason>,
}

/// Optional projection applied to generated feature vectors before they
/// enter the pool, mapping a raw generator output to the nearest valid
/// featurized query (e.g. re-sparsifying range predicates). Supplied by the
/// harness because only it knows the featurization's semantics — Warper
/// itself stays model-agnostic.
pub type CanonicalizeFn = Box<dyn Fn(&[f64]) -> Vec<f64> + Send>;

/// The Warper system: query pool, `E`/`G`/`D`, picker, drift detector.
pub struct WarperController {
    cfg: WarperConfig,
    pool: QueryPool,
    encoder: Encoder,
    gan: Gan,
    picker: Picker,
    detector: DriftDetector,
    gen_kind: GenKind,
    canonicalize: Option<CanonicalizeFn>,
    rng: StdRng,
    gamma: usize,
    n_t_since_drift: usize,
    n_a_since_drift: usize,
    drift_active: bool,
    prev_eval_gmq: Option<f64>,
    handled_changed_fraction: f64,
    /// Rolling window of recent labeled arrivals used for δ_m and eval.
    recent_eval: Vec<(Vec<f64>, f64)>,
    /// Intrinsic δ_js tracker over arrived feature vectors (§3.1).
    workload_tracker: WorkloadDriftTracker,
    /// The sketch-probe baseline (the table's mergeable sketch rollup when
    /// the model was last trained). Owned here so it rides checkpoints; the
    /// harness's `SketchProbe` reads/writes it around invocations.
    sketch_baseline: Option<warper_storage::TableSketch>,
    seed: u64,
}

/// Size of the rolling evaluation window.
const EVAL_WINDOW: usize = 100;

/// Probe annotations per period when arrivals carry no labels (§3.1's
/// evaluation feedback, kept alive in the c3 regime).
const PROBE_SAMPLE: usize = 8;

impl WarperController {
    /// Builds Warper around an existing CE model.
    ///
    /// `training_set` is `I_train` (featurized queries with labels) used to
    /// initialize the pool and pre-train `E`/`G` offline (§3.5);
    /// `baseline_gmq` is the model's training-time error, the reference for
    /// the δ_m trigger.
    pub fn new(
        feature_dim: usize,
        training_set: &[(Vec<f64>, f64)],
        baseline_gmq: f64,
        cfg: WarperConfig,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut encoder = Encoder::new(feature_dim, cfg.hidden, cfg.embed_dim, &mut rng);
        let mut gan = Gan::new(feature_dim, &cfg, &mut rng);
        let pool = QueryPool::from_training_set(training_set);
        // Offline pre-training: "the generator G and the encoder E are
        // pre-trained offline using task1 and the queries from I_train".
        // Divergence here re-seeds fresh networks (a bounded number of
        // times); if every attempt diverges the controller starts with
        // un-pre-trained E/G — degraded, but serving, never poisoned.
        if !pool.is_empty() {
            for _ in 0..=cfg.gan_retries {
                if gan
                    .update_auto_encoder(&mut encoder, &pool, &cfg, cfg.pretrain_epochs, &mut rng)
                    .is_ok()
                {
                    break;
                }
                encoder = Encoder::new(feature_dim, cfg.hidden, cfg.embed_dim, &mut rng);
                gan = Gan::new(feature_dim, &cfg, &mut rng);
            }
        }
        let picker = Picker::new(PickerKind::Warper, &cfg);
        let detector = DriftDetector::new(baseline_gmq, &cfg);
        let gamma = cfg.gamma;
        let workload_tracker =
            WorkloadDriftTracker::new(training_set.iter().map(|(f, _)| f.clone()).collect());
        Self {
            cfg,
            pool,
            encoder,
            gan,
            picker,
            detector,
            gen_kind: GenKind::Gan,
            canonicalize: None,
            rng,
            gamma,
            n_t_since_drift: 0,
            n_a_since_drift: 0,
            drift_active: false,
            prev_eval_gmq: None,
            handled_changed_fraction: 0.0,
            recent_eval: Vec::new(),
            workload_tracker,
            sketch_baseline: None,
            seed,
        }
    }

    /// Swaps the picker policy (for the §4.3 ablations).
    pub fn with_picker(mut self, kind: PickerKind) -> Self {
        self.picker = Picker::new(kind, &self.cfg);
        self
    }

    /// Swaps the generator (for the §4.3 ablation "G → AUG").
    pub fn with_generator(mut self, kind: GenKind) -> Self {
        self.gen_kind = kind;
        self
    }

    /// Installs a canonicalization hook for generated feature vectors.
    pub fn with_canonicalizer(mut self, f: CanonicalizeFn) -> Self {
        self.canonicalize = Some(f);
        self
    }

    /// The current γ estimate.
    pub fn gamma(&self) -> usize {
        self.gamma
    }

    /// Read access to the pool (used by the Figure 7 visualization bench).
    pub fn pool(&self) -> &QueryPool {
        &self.pool
    }

    /// The drift detector (exposed for tests and telemetry dashboards).
    pub fn detector(&self) -> &DriftDetector {
        &self.detector
    }

    /// The configuration in use.
    pub fn config(&self) -> &WarperConfig {
        &self.cfg
    }

    /// The construction seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Snapshot of the encoder (for persistence).
    pub fn encoder_snapshot(&self) -> Encoder {
        self.encoder.clone()
    }

    /// Snapshot of the GAN networks (for persistence).
    pub fn gan_parts(&self) -> (warper_nn::Mlp, warper_nn::Mlp) {
        self.gan.parts()
    }

    /// Rebuilds a controller from persisted pieces (see `crate::persist`).
    #[allow(clippy::too_many_arguments)]
    pub fn restore(
        cfg: WarperConfig,
        pool: QueryPool,
        encoder: Encoder,
        generator: warper_nn::Mlp,
        discriminator: warper_nn::Mlp,
        baseline_gmq: f64,
        gamma: usize,
        seed: u64,
    ) -> Self {
        let detector = DriftDetector::new(baseline_gmq, &cfg);
        let workload_tracker = WorkloadDriftTracker::new(
            pool.records()
                .iter()
                .filter(|r| r.source == Source::Train)
                .map(|r| r.features.clone())
                .collect(),
        );
        Self {
            cfg,
            pool,
            encoder,
            gan: Gan::from_parts(generator, discriminator),
            picker: Picker::new(PickerKind::Warper, &cfg),
            detector,
            gen_kind: GenKind::Gan,
            canonicalize: None,
            rng: StdRng::seed_from_u64(seed),
            gamma,
            n_t_since_drift: 0,
            n_a_since_drift: 0,
            drift_active: false,
            prev_eval_gmq: None,
            handled_changed_fraction: 0.0,
            recent_eval: Vec::new(),
            workload_tracker,
            sketch_baseline: None,
            seed,
        }
    }

    /// Test-only: spikes the internal-module learning rate to force
    /// training divergence (used by the supervisor's rollback tests).
    #[cfg(test)]
    pub(crate) fn spike_lr_for_test(&mut self, lr: f64) {
        self.cfg.lr = lr;
    }

    /// The transient runtime state (drift counters, adaptive π, rolling
    /// evaluation window) for checkpointing.
    pub(crate) fn runtime_state(&self) -> RuntimeState {
        RuntimeState {
            pi: self.detector.pi(),
            drift_active: self.drift_active,
            n_t_since_drift: self.n_t_since_drift,
            n_a_since_drift: self.n_a_since_drift,
            prev_eval_gmq: self.prev_eval_gmq,
            handled_changed_fraction: self.handled_changed_fraction,
            recent_eval: self.recent_eval.clone(),
        }
    }

    /// Overwrites the transient runtime state from a checkpoint.
    pub(crate) fn apply_runtime(&mut self, rt: &RuntimeState) {
        self.detector.set_pi(rt.pi);
        self.drift_active = rt.drift_active;
        self.n_t_since_drift = rt.n_t_since_drift;
        self.n_a_since_drift = rt.n_a_since_drift;
        self.prev_eval_gmq = rt.prev_eval_gmq;
        self.handled_changed_fraction = rt.handled_changed_fraction;
        self.recent_eval = rt.recent_eval.clone();
    }

    /// A clone of the RNG at its current position (checkpointing; tests
    /// compare it across runs that must draw identically).
    pub fn rng_snapshot(&self) -> StdRng {
        self.rng.clone()
    }

    /// Restores the RNG position from a checkpoint.
    pub(crate) fn restore_rng(&mut self, rng: StdRng) {
        self.rng = rng;
    }

    /// In-place rollback to a previously captured [`WarperState`]: pool,
    /// `E`/`G`/`D`, γ and — when the state carries it — the transient drift
    /// runtime are all restored. The canonicalization hook, picker policy
    /// and generator kind are not part of the snapshot and survive the
    /// rollback; optimizer moments restart, exactly as after a process
    /// restart.
    pub fn rollback_to(&mut self, state: &WarperState) {
        self.cfg = state.cfg;
        self.pool = state.pool.clone();
        self.encoder = state.encoder.clone();
        self.gan = Gan::from_parts(state.generator.clone(), state.discriminator.clone());
        self.detector = DriftDetector::new(state.baseline_gmq, &self.cfg);
        self.gamma = state.gamma;
        self.workload_tracker = WorkloadDriftTracker::new(
            state
                .pool
                .records()
                .iter()
                .filter(|r| r.source == Source::Train)
                .map(|r| r.features.clone())
                .collect(),
        );
        if let Some(rt) = &state.runtime {
            self.apply_runtime(rt);
        } else {
            self.drift_active = false;
            self.n_t_since_drift = 0;
            self.n_a_since_drift = 0;
            self.prev_eval_gmq = None;
            self.handled_changed_fraction = 0.0;
            self.recent_eval.clear();
        }
        self.sketch_baseline = state.sketch_baseline.clone();
    }

    /// The sketch baseline the current model was trained against, if any.
    pub fn sketch_baseline(&self) -> Option<&warper_storage::TableSketch> {
        self.sketch_baseline.as_ref()
    }

    /// Installs (or clears) the sketch baseline so it rides the next
    /// checkpoint. The harness calls this whenever its
    /// [`SketchProbe`](crate::detect::SketchProbe) rebaselines.
    pub fn set_sketch_baseline(&mut self, baseline: Option<warper_storage::TableSketch>) {
        self.sketch_baseline = baseline;
    }

    /// `model`'s estimates over the rolling evaluation window, in one batched
    /// forward pass (empty when the window is).
    pub fn eval_estimates(&self, model: &dyn CardinalityEstimator) -> Vec<f64> {
        estimate_all(model, self.recent_eval.iter().map(|(f, _)| f.as_slice()))
    }

    /// GMQ of `ests` (one per window entry, as [`Self::eval_estimates`]
    /// returns them) against the window's labels. `None` when the window is
    /// empty.
    pub fn eval_gmq_of(&self, ests: &[f64]) -> Option<f64> {
        if self.recent_eval.is_empty() {
            return None;
        }
        let actuals: Vec<f64> = self.recent_eval.iter().map(|(_, a)| *a).collect();
        Some(gmq(ests, &actuals, PAPER_THETA))
    }

    /// `model`'s GMQ on the controller's rolling evaluation window — the
    /// quantity the supervisor compares across a checkpoint boundary. `None`
    /// when the window is empty.
    pub fn eval_gmq(&self, model: &dyn CardinalityEstimator) -> Option<f64> {
        self.eval_gmq_of(&self.eval_estimates(model))
    }

    /// Runs one risky internal-module training task with all-or-nothing
    /// semantics: on divergence the encoder and GAN are restored to their
    /// pre-call snapshots, then fresh re-seeded networks are retried up to
    /// `cfg.gan_retries` times; when every attempt diverges the invocation
    /// proceeds without the update (degraded mode) and reports the error.
    fn train_guarded(&mut self, task: &GanTask) -> (TrainStats, usize, Option<DivergenceError>) {
        let enc_ck = self.encoder.clone();
        let gan_ck = self.gan.clone();
        let mut retries = 0usize;
        loop {
            match task(
                &mut self.gan,
                &mut self.encoder,
                &self.pool,
                &self.cfg,
                &mut self.rng,
            ) {
                Ok(stats) => return (stats, retries, None),
                Err(err) => {
                    // The diverged networks never serve: restore the
                    // pre-call snapshot before deciding what happens next.
                    self.encoder = enc_ck.clone();
                    self.gan = gan_ck.clone();
                    if retries >= self.cfg.gan_retries {
                        return (TrainStats::default(), retries, Some(err));
                    }
                    retries += 1;
                    // Divergence is often an unlucky init/batch interaction:
                    // retry with fresh re-seeded G/D (the encoder keeps its
                    // checkpoint — it carries the pre-trained embedding).
                    self.gan = Gan::new(self.encoder.feature_dim(), &self.cfg, &mut self.rng);
                }
            }
        }
    }

    /// One Warper invocation: `det_drft` plus Algorithm 1.
    ///
    /// `annotate` is fallible: a `None` entry means the annotator could not
    /// label that query (fault, timeout, exhausted budget). The controller
    /// degrades gracefully — failed records stay unlabeled in the pool and
    /// are re-eligible at the next invocation.
    pub fn invoke(
        &mut self,
        model: &mut dyn CardinalityEstimator,
        arrived: &[ArrivedQuery],
        telemetry: &DataTelemetry,
        annotate: &mut AnnotateFn<'_>,
    ) -> InvocationReport {
        // Alg. 1 line 1: inject newly arrived predicates into the pool.
        let rows: Vec<(Vec<f64>, Option<f64>)> =
            arrived.iter().map(|a| (a.features.clone(), a.gt)).collect();
        self.pool.append_new(&rows);
        let mut probe_annotations = 0usize;
        let mut annotation_failed = 0usize;
        for a in arrived {
            if let Some(gt) = a.gt {
                self.recent_eval.push((a.features.clone(), gt));
            }
        }
        // When execution feedback provides no labels at all (the c3 regime),
        // δ_m would be blind; annotate a small probe sample of the arrivals
        // so the detector has evaluation feedback. This is the annotation
        // analogue of the data-drift canaries and its cost is accounted.
        if !arrived.is_empty() && arrived.iter().all(|a| a.gt.is_none()) {
            let n_probe = PROBE_SAMPLE.min(arrived.len());
            let stride = arrived.len() / n_probe;
            let probe_feats: Vec<Vec<f64>> = (0..n_probe)
                .map(|i| arrived[i * stride].features.clone())
                .collect();
            let cards = annotate(&probe_feats);
            let pool_base = self.pool.len() - arrived.len();
            for (i, (f, card)) in probe_feats.into_iter().zip(cards).enumerate() {
                let Some(card) = card else {
                    annotation_failed += 1;
                    continue;
                };
                probe_annotations += 1;
                self.recent_eval.push((f, card));
                let rec = &mut self.pool.records_mut()[pool_base + i * stride];
                rec.gt = Some(card);
                rec.gt_stale = false;
            }
        }
        let overflow = self.recent_eval.len().saturating_sub(EVAL_WINDOW);
        if overflow > 0 {
            self.recent_eval.drain(..overflow);
        }

        // det_drft.
        let arrived_features: Vec<Vec<f64>> = arrived.iter().map(|a| a.features.clone()).collect();
        self.workload_tracker.observe(&arrived_features);
        let labeled_arrivals =
            arrived.iter().filter(|a| a.gt.is_some()).count() + probe_annotations;
        if self.drift_active {
            self.n_t_since_drift += arrived.len();
            self.n_a_since_drift += labeled_arrivals;
        }
        let Detection {
            mode,
            delta_m,
            delta_js: _,
        } = self.detector.detect_with_tracker(
            model,
            &self.recent_eval,
            telemetry,
            Some(&self.workload_tracker),
            if self.drift_active {
                self.n_t_since_drift
            } else {
                arrived.len()
            },
            if self.drift_active {
                self.n_a_since_drift
            } else {
                labeled_arrivals
            },
            self.gamma,
        );
        if !mode.any() {
            // mode = ∅: keep using M (Figure 3) — but newly arrived labeled
            // queries still update the CE model as in FT (§4.1.2's "Warper
            // performs no worse than FT ... because the newly arrived
            // queries are still used to update the CE model"). None of the
            // Warper machinery (GAN, picker, annotator) runs.
            self.drift_active = false;
            self.prev_eval_gmq = None;
            let mut trained_on = 0;
            if model.update_kind() == UpdateKind::FineTune {
                let fresh: Vec<LabeledExample> = arrived
                    .iter()
                    .filter_map(|a| a.gt.map(|g| LabeledExample::new(a.features.clone(), g)))
                    .collect();
                if !fresh.is_empty() {
                    model.update(&fresh);
                    trained_on = fresh.len();
                }
            }
            self.pool.evict_to_cap(self.cfg.pool_cap);
            return InvocationReport {
                mode,
                delta_m,
                generated: 0,
                annotated: probe_annotations,
                trained_on,
                picked_train: 0,
                picked_gen: 0,
                eval_gmq: None,
                early_stopped: false,
                gan_stats: TrainStats::default(),
                annotation_failed,
                gan_retries: 0,
                training_error: None,
                rollback: None,
            };
        }
        if !self.drift_active {
            // A new drift begins: counters restart at this period's batch.
            self.drift_active = true;
            self.n_t_since_drift = arrived.len();
            self.n_a_since_drift = labeled_arrivals;
            self.prev_eval_gmq = None;
        }

        // c1: a (new) data drift outdates every label in the pool.
        if mode.c1
            && (telemetry.changed_fraction
                > self.handled_changed_fraction + self.cfg.data_drift_threshold
                || telemetry.canary_max_change > self.cfg.canary_threshold
                || telemetry.distinct_shift > self.cfg.distinct_shift_threshold
                || telemetry.hh_churn > self.cfg.hh_churn_threshold)
        {
            self.pool.mark_all_stale();
            self.handled_changed_fraction = telemetry.changed_fraction;
        }

        self.encoder.refresh_pool(&mut self.pool);

        // Alg. 1 lines 3–8: train internal modules; generate if needed.
        let mut gan_stats = TrainStats::default();
        let mut gan_retries = 0usize;
        let mut training_error = None;
        let mut generated = 0;
        // n_g = 10%·n_t with n_t the queries arrived from the new workload
        // so far (Table 1); the §4.3 cost analysis annotates ~0.1·n_t
        // generated queries per step under this reading.
        let n_g = self.cfg.n_g(self.n_t_since_drift);
        if mode.c2 && n_g > 0 {
            match self.gen_kind {
                GenKind::Gan => {
                    let (stats, retries, err) = self.train_guarded(&|gan, enc, pool, cfg, rng| {
                        gan.update_multi_task(enc, pool, cfg, rng)
                    });
                    gan_stats = stats;
                    gan_retries = retries;
                    training_error = err;
                    // Even when training diverged the restored pre-call G is
                    // a valid decoder — generation still runs (degraded).
                    let base: Vec<Vec<f64>> = self
                        .pool
                        .records()
                        .iter()
                        .filter(|r| r.source == Source::New)
                        .filter_map(|r| r.z.clone())
                        .collect();
                    let sigma = Encoder::embedding_std(&base);
                    let mut qgen = self.gan.generate(&base, &sigma, n_g, &mut self.rng);
                    if let Some(canon) = &self.canonicalize {
                        for q in &mut qgen {
                            *q = canon(q);
                        }
                    }
                    generated = qgen.len();
                    self.pool.append_gen(qgen);
                }
                GenKind::Noise => {
                    // Ablation: Gaussian noise around arrived queries.
                    let news: Vec<Vec<f64>> = self
                        .pool
                        .indices_of(Source::New)
                        .iter()
                        .map(|&i| self.pool.records()[i].features.clone())
                        .collect();
                    if !news.is_empty() {
                        let mut qgen: Vec<Vec<f64>> = (0..n_g)
                            .map(|_| {
                                let base =
                                    &news[rand::Rng::random_range(&mut self.rng, 0..news.len())];
                                base.iter()
                                    .map(|&v| {
                                        (v + 0.1 * standard_normal(&mut self.rng)).clamp(0.0, 1.0)
                                    })
                                    .collect()
                            })
                            .collect();
                        if let Some(canon) = &self.canonicalize {
                            for q in &mut qgen {
                                *q = canon(q);
                            }
                        }
                        generated = qgen.len();
                        self.pool.append_gen(qgen);
                    }
                }
            }
            // Embed + score the fresh synthetic records.
            self.encoder.refresh_pool(&mut self.pool);
            self.gan.score_pool(&mut self.pool);
        } else {
            // Alg. 1 line 8: no generation needed — keep E/G fresh with the
            // auto-encoder task.
            let (stats, retries, err) = self.train_guarded(&|gan, enc, pool, cfg, rng| {
                gan.update_auto_encoder(enc, pool, cfg, 2, rng)
            });
            gan_stats = stats;
            gan_retries = retries;
            training_error = err;
            if mode.c2 || mode.c3 {
                self.gan.score_pool(&mut self.pool);
            }
        }

        // Alg. 1 line 9: pick an n_p-element multiset of useful queries.
        // Sampling is with replacement (§3.2), so the multiset doubles as an
        // importance-weighted training set; each distinct query is annotated
        // at most once.
        let mut picked: Vec<usize> = Vec::new();
        if mode.c2 {
            let candidates: Vec<usize> = self.pool.indices_of(Source::Gen);
            // Cap the multiset so synthetic picks complement rather than
            // drown the real new-workload queries: the synthetic share ramps
            // up with the amount of new-workload evidence the GAN has seen
            // (n_t/γ), reaching up to 2× the labeled-new count, and never
            // exceeds n_p. An immature generator gets little weight; a
            // converged one supplies the bulk of the training signal.
            let n_new = self.pool.labeled_count(Some(Source::New));
            let maturity = (self.n_t_since_drift as f64 / self.gamma.max(1) as f64).min(1.0);
            let quota = self
                .cfg
                .n_p
                .min(((2 * n_new) as f64 * maturity).round() as usize)
                // Never weight any one synthetic query by more than ~8×:
                // extreme duplication of a few early generations destabilizes
                // the fine-tune on mild drifts.
                .min(8 * candidates.len())
                .max(candidates.len().min(self.cfg.n_p));
            picked.extend(self.picker.pick_by_confidence(
                &self.pool,
                &candidates,
                quota,
                &mut self.rng,
            ));
        }
        if mode.c3 {
            let candidates: Vec<usize> = self
                .pool
                .indices_of(Source::New)
                .into_iter()
                .filter(|&i| self.pool.records()[i].gt.is_none())
                .collect();
            picked.extend(self.picker.pick_stratified(
                &self.pool,
                model,
                &candidates,
                self.cfg.n_p,
                &mut self.rng,
            ));
        }
        if mode.c1 {
            let candidates: Vec<usize> = (0..self.pool.len())
                .filter(|&i| self.pool.records()[i].gt_stale)
                .collect();
            picked.extend(self.picker.pick_stratified(
                &self.pool,
                model,
                &candidates,
                self.cfg.n_p,
                &mut self.rng,
            ));
        }
        let picked_train = picked
            .iter()
            .filter(|&&i| self.pool.records()[i].source == Source::Train)
            .count();
        let picked_gen = picked
            .iter()
            .filter(|&&i| self.pool.records()[i].source == Source::Gen)
            .count();
        let mut to_annotate: Vec<usize> = picked
            .iter()
            .copied()
            .filter(|&i| !self.pool.records()[i].labeled())
            .collect();
        to_annotate.sort_unstable();
        to_annotate.dedup();
        let mut annotated = probe_annotations;
        if !to_annotate.is_empty() {
            let feats: Vec<Vec<f64>> = to_annotate
                .iter()
                .map(|&i| self.pool.records()[i].features.clone())
                .collect();
            let cards = annotate(&feats);
            for (&i, card) in to_annotate.iter().zip(cards) {
                // Skip-and-requeue: a failed annotation leaves the record
                // unlabeled and pickable again next invocation.
                let Some(card) = card else {
                    annotation_failed += 1;
                    continue;
                };
                let rec = &mut self.pool.records_mut()[i];
                rec.gt = Some(card);
                rec.gt_stale = false;
                annotated += 1;
            }
        }
        if annotated > 0 {
            self.n_a_since_drift += annotated;
        }

        // Alg. 1 line 10: update the CE model using predicates and labels
        // from the pool — the picked multiset (weights) plus every labeled
        // record from the new workload.
        let picked_examples: Vec<LabeledExample> = picked
            .iter()
            .filter_map(|&i| {
                let r = &self.pool.records()[i];
                if r.labeled() {
                    r.gt.map(|g| LabeledExample::new(r.features.clone(), g))
                } else {
                    None
                }
            })
            .collect();
        let trained_on = match model.update_kind() {
            UpdateKind::FineTune => {
                let mut examples: Vec<LabeledExample> = self
                    .pool
                    .labeled_examples(&[Source::New])
                    .into_iter()
                    .map(|(f, c)| LabeledExample::new(f, c))
                    .collect();
                examples.extend(picked_examples);
                if !examples.is_empty() {
                    model.update(&examples);
                }
                examples.len()
            }
            UpdateKind::Retrain => {
                let mut examples: Vec<LabeledExample> = self
                    .pool
                    .labeled_examples(&[Source::Train, Source::New, Source::Gen])
                    .into_iter()
                    .map(|(f, c)| LabeledExample::new(f, c))
                    .collect();
                examples.extend(picked_examples);
                if !examples.is_empty() {
                    model.fit(&examples);
                }
                examples.len()
            }
        };

        // Early stop + γ tuning (§3.4).
        let eval_gmq = self.eval_gmq(model);
        let mut early_stopped = false;
        if let (Some(prev), Some(cur)) = (self.prev_eval_gmq, eval_gmq) {
            let gain = prev - cur;
            if gain < self.cfg.early_stop_gain * prev {
                self.detector.register_early_stop();
                // The adapted-to workload is the status quo now: rebaseline
                // the intrinsic tracker so δ_js stops re-triggering.
                self.workload_tracker.rebaseline();
                early_stopped = true;
                if mode.c4 && !mode.c2 {
                    // Slow improvement under c4 suggests γ was underestimated.
                    self.gamma = (self.gamma as f64 * 1.5).round() as usize;
                }
            }
        }
        self.prev_eval_gmq = eval_gmq;

        // Bounded memory: enforce the pool cap only after every index into
        // the pool above is dead — eviction reorders record indices.
        self.pool.evict_to_cap(self.cfg.pool_cap);

        InvocationReport {
            mode,
            delta_m,
            generated,
            annotated,
            trained_on,
            picked_train,
            picked_gen,
            eval_gmq,
            early_stopped,
            gan_stats,
            annotation_failed,
            gan_retries,
            training_error,
            rollback: None,
        }
    }
}

/// Warper as an [`AdaptStrategy`], so experiments can swap it in anywhere a
/// baseline goes.
pub struct WarperStrategy {
    controller: WarperController,
    supervisor: Option<Supervisor>,
}

impl WarperStrategy {
    /// Wraps a configured controller; unsupervised, a step is exactly
    /// [`WarperController::invoke`].
    pub fn new(controller: WarperController) -> Self {
        Self {
            controller,
            supervisor: None,
        }
    }

    /// Makes every invocation transactional: checkpoint before, validate
    /// after, roll back on regression (see [`crate::supervisor`]).
    pub fn with_supervisor(mut self, cfg: SupervisorConfig) -> Self {
        self.supervisor = Some(Supervisor::new(cfg));
        self
    }

    /// Access to the wrapped controller.
    pub fn controller(&self) -> &WarperController {
        &self.controller
    }
}

impl AdaptStrategy for WarperStrategy {
    fn step(
        &mut self,
        model: &mut dyn CardinalityEstimator,
        arrived: &[ArrivedQuery],
        telemetry: &DataTelemetry,
        annotate: &mut AnnotateFn<'_>,
    ) -> StepReport {
        let report = match &mut self.supervisor {
            Some(sup) => sup.invoke(&mut self.controller, model, arrived, telemetry, annotate),
            None => self.controller.invoke(model, arrived, telemetry, annotate),
        };
        StepReport {
            annotated: report.annotated,
            generated: report.generated,
            trained_on: report.trained_on,
            skipped: !report.mode.any(),
            annotation_failed: report.annotation_failed,
            rolled_back: report.rollback.is_some(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A linear "model" whose estimate is `scale · f[0]`; update() nudges
    /// scale toward the labels. Enough to drive the controller's plumbing.
    struct ToyModel {
        scale: f64,
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

    fn controller() -> WarperController {
        WarperController::new(4, &training_set(), 1.2, small_cfg(), 42)
    }

    fn arrived_shifted(n: usize, with_gt: bool) -> Vec<ArrivedQuery> {
        // New workload near 0.8 with a very different scale (drift).
        (0..n)
            .map(|i| {
                let f = vec![0.8 + 0.001 * (i % 5) as f64; 4];
                ArrivedQuery {
                    gt: with_gt.then(|| 90_000.0 * (0.1 + f[0])),
                    features: f,
                }
            })
            .collect()
    }

    #[test]
    fn no_drift_no_action() {
        let mut ctl = controller();
        let mut model = ToyModel { scale: 1000.0 };
        // Arrivals match the training distribution → no drift.
        let arrived: Vec<ArrivedQuery> = training_set()
            .into_iter()
            .take(10)
            .map(|(f, c)| ArrivedQuery {
                features: f,
                gt: Some(c),
            })
            .collect();
        let rep = ctl.invoke(&mut model, &arrived, &DataTelemetry::default(), &mut |qs| {
            vec![Some(0.0); qs.len()]
        });
        assert!(!rep.mode.any());
        assert_eq!(rep.annotated, 0);
        assert_eq!(rep.generated, 0);
        // The free FT-style update on arrived labeled queries still runs
        // (§3.4's "no worse than FT" bottom line).
        assert_eq!(rep.trained_on, 10);
    }

    #[test]
    fn c2_generates_picks_annotates_and_updates() {
        let mut ctl = controller();
        let mut model = ToyModel { scale: 1000.0 };
        let arrived = arrived_shifted(40, true);
        let mut annotations = 0usize;
        let rep = ctl.invoke(&mut model, &arrived, &DataTelemetry::default(), &mut |qs| {
            annotations += qs.len();
            qs.iter().map(|f| Some(90_000.0 * (0.1 + f[0]))).collect()
        });
        assert!(rep.mode.c2, "mode {}", rep.mode);
        assert!(rep.generated > 0);
        assert!(rep.annotated > 0);
        assert_eq!(annotations, rep.annotated);
        assert!(rep.trained_on > 0);
        // The toy model should have moved toward the new scale.
        assert!(model.scale > 10_000.0, "scale {}", model.scale);
    }

    #[test]
    fn repeated_invocations_converge_and_early_stop() {
        let mut ctl = controller();
        let mut model = ToyModel { scale: 1000.0 };
        let mut stopped = false;
        for _ in 0..8 {
            let arrived = arrived_shifted(30, true);
            let rep = ctl.invoke(&mut model, &arrived, &DataTelemetry::default(), &mut |qs| {
                qs.iter().map(|f| Some(90_000.0 * (0.1 + f[0]))).collect()
            });
            stopped |= rep.early_stopped;
            if !rep.mode.any() {
                break;
            }
        }
        // Either the drift stopped triggering (model adapted) or early stop
        // kicked in — both are the intended terminal behaviours.
        let final_est = model.estimate(&[0.8; 4]);
        let truth = 90_000.0 * 0.9;
        let q = (final_est / truth).max(truth / final_est);
        assert!(q < 1.5, "final q-error {q}");
        assert!(stopped || !ctl.drift_active || ctl.detector.pi() >= 0.5);
    }

    #[test]
    fn c1_marks_stale_and_reannotates() {
        let mut ctl = controller();
        let mut model = ToyModel { scale: 1000.0 };
        let telemetry = DataTelemetry {
            changed_fraction: 0.5,
            canary_max_change: 0.5,
            ..Default::default()
        };
        let rep = ctl.invoke(&mut model, &[], &telemetry, &mut |qs| {
            // New data: cardinalities doubled.
            qs.iter().map(|f| Some(2_000.0 * (0.1 + f[0]))).collect()
        });
        assert!(rep.mode.c1);
        assert!(rep.annotated > 0);
        // Re-annotated records carry the new labels.
        let relabeled = ctl.pool.records().iter().filter(|r| r.labeled()).count();
        assert_eq!(relabeled, rep.annotated);
        assert!(model.scale > 1400.0, "scale {}", model.scale);
    }

    #[test]
    fn c3_uses_stratified_annotation() {
        let mut ctl = controller();
        let mut model = ToyModel { scale: 1000.0 };
        // Seed the eval window with a few labeled arrivals so δ_m fires,
        // then deliver unlabeled ones (c3: labels can't keep up).
        let mut first = arrived_shifted(5, true);
        first.extend(arrived_shifted(60, false));
        let rep = ctl.invoke(&mut model, &first, &DataTelemetry::default(), &mut |qs| {
            qs.iter().map(|f| Some(90_000.0 * (0.1 + f[0]))).collect()
        });
        assert!(rep.mode.c3, "mode {}", rep.mode);
        assert!(rep.annotated > 0);
    }

    #[test]
    fn strategy_wrapper_reports() {
        let ctl = controller();
        let mut strat = WarperStrategy::new(ctl);
        let mut model = ToyModel { scale: 1000.0 };
        let rep = strat.step(
            &mut model,
            &arrived_shifted(20, true),
            &DataTelemetry::default(),
            &mut |qs| qs.iter().map(|f| Some(90_000.0 * (0.1 + f[0]))).collect(),
        );
        assert!(!rep.skipped);
        assert!(rep.trained_on > 0);
    }

    #[test]
    fn unsupervised_strategy_step_is_a_bare_invoke() {
        // Three periods through each path: steady, then a c2 workload drift
        // twice. Same model scale, same serialized controller, same RNG
        // position after every one. The bare side also re-installs the
        // default picker and generator, as the runner's one Warper arm does.
        let mut strat = WarperStrategy::new(controller());
        let mut bare = controller()
            .with_picker(PickerKind::Warper)
            .with_generator(GenKind::Gan);
        let (mut model_a, mut model_b) = (ToyModel { scale: 1000.0 }, ToyModel { scale: 1000.0 });
        let steady: Vec<ArrivedQuery> = training_set()
            .into_iter()
            .take(10)
            .map(|(features, c)| ArrivedQuery {
                features,
                gt: Some(c),
            })
            .collect();
        let label = |qs: &[Vec<f64>]| -> Vec<Option<f64>> {
            qs.iter().map(|f| Some(90_000.0 * (0.1 + f[0]))).collect()
        };
        let mut c2 = false;
        for arrived in [steady, arrived_shifted(40, true), arrived_shifted(30, true)] {
            let telemetry = DataTelemetry::default();
            strat.step(&mut model_a, &arrived, &telemetry, &mut |qs| label(qs));
            c2 |= bare
                .invoke(&mut model_b, &arrived, &telemetry, &mut |qs| label(qs))
                .mode
                .c2;
            let ctl = &strat.controller;
            assert_eq!(model_a.scale.to_bits(), model_b.scale.to_bits());
            assert_eq!(
                serde_json::to_string(&ctl.to_state()).unwrap(),
                serde_json::to_string(&bare.to_state()).unwrap()
            );
            assert_eq!(ctl.rng, bare.rng);
        }
        assert!(c2, "the shifted periods must run the c2 path");
    }

    #[test]
    fn ablation_constructors() {
        let ctl = controller()
            .with_picker(PickerKind::Random)
            .with_generator(GenKind::Noise);
        let mut strat = WarperStrategy::new(ctl);
        let mut model = ToyModel { scale: 1000.0 };
        let rep = strat.step(
            &mut model,
            &arrived_shifted(30, true),
            &DataTelemetry::default(),
            &mut |qs| qs.iter().map(|f| Some(90_000.0 * (0.1 + f[0]))).collect(),
        );
        assert!(rep.generated > 0, "noise generator should still synthesize");
    }
}
