//! The shared experiment driver (§4.1's evaluation method).
//!
//! One run: train a CE model on `I_train` drawn from the *training*
//! workload, apply a drift (workload change, data change, or both), then
//! replay a fixed test period during which queries arrive at a constant
//! rate; at each checkpoint (0%, 20%, …, 100% of the period) the adaptation
//! strategy consumes the newly arrived queries and the model's GMQ is
//! measured on a held-out test set from the *new* workload. The output is
//! an [`AdaptationCurve`] plus the cost counters behind Tables 6 and 11.
//!
//! All strategies replay byte-identical workloads (same seeds), so curves
//! are directly comparable.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use warper_ce::lm::{KrrVariant, LmGbt, LmKrr, LmMlp, LmMlpParams};
use warper_ce::mscn::{Mscn, MscnFeaturizer};
use warper_ce::{estimate_all, CardinalityEstimator, LabeledExample};
use warper_metrics::{delta_js, gmq, AdaptationCurve, PAPER_THETA};
use warper_nn::GbtParams;
use warper_query::{
    Annotator, CountService, FaultConfig, FaultInjector, Featurizer, RangePredicate,
    ResilientAnnotator, SamplingAnnotator,
};
use warper_storage::drift as data_drift;
use warper_storage::Table;
use warper_workload::{ArrivalProcess, QueryGenerator};

use crate::baselines::{
    AdaptStrategy, ArrivedQuery, AugStrategy, FineTuneStrategy, HemStrategy, MixStrategy,
};
use crate::config::WarperConfig;
use crate::controller::{CanonicalizeFn, GenKind, WarperController, WarperStrategy};
use crate::detect::{CanarySet, SketchProbe};
use crate::error::WarperError;
use crate::parallel::{derive_seed, seed_stream};
use crate::picker::PickerKind;
use crate::supervisor::SupervisorConfig;

pub use warper_query::DegradedStats;

/// Which CE model a run adapts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// LM with an MLP (fine-tunes).
    LmMlp,
    /// LM with gradient-boosted trees (re-trains).
    LmGbt,
    /// LM with a degree-5 polynomial kernel (re-trains).
    LmPly,
    /// LM with an RBF kernel (re-trains).
    LmRbf,
    /// MSCN, single-table configuration (fine-tunes).
    Mscn,
}

impl ModelKind {
    /// Name as used in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::LmMlp => "LM-mlp",
            ModelKind::LmGbt => "LM-gbt",
            ModelKind::LmPly => "LM-ply",
            ModelKind::LmRbf => "LM-rbf",
            ModelKind::Mscn => "MSCN",
        }
    }
}

/// Which adaptation strategy a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// Fine-tuning / re-training (the reference).
    Ft,
    /// FT + original-workload mixing.
    Mix,
    /// Gaussian-noise augmentation.
    Aug,
    /// Hard example mining.
    Hem,
    /// Full Warper.
    Warper,
    /// Warper with an ablated picker or generator (§4.3).
    WarperAblated {
        /// Picker policy.
        picker: PickerKind,
        /// Generator kind.
        gen: GenKind,
    },
}

impl StrategyKind {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            StrategyKind::Ft => "FT",
            StrategyKind::Mix => "MIX",
            StrategyKind::Aug => "AUG",
            StrategyKind::Hem => "HEM",
            StrategyKind::Warper => "Warper",
            StrategyKind::WarperAblated {
                picker: PickerKind::Random,
                ..
            } => "Warper(P→rnd)",
            StrategyKind::WarperAblated {
                picker: PickerKind::Entropy,
                ..
            } => "Warper(P→ent)",
            StrategyKind::WarperAblated {
                gen: GenKind::Noise,
                ..
            } => "Warper(G→AUG)",
            StrategyKind::WarperAblated { .. } => "Warper(abl)",
        }
    }
}

/// The drift a run applies between training and the test period.
#[derive(Debug, Clone)]
pub enum DriftSetup {
    /// Workload drift (c2/c3/c4): train on `train` mix, drift to `new` mix.
    Workload {
        /// Training-workload notation, e.g. `"w12"`.
        train: String,
        /// New-workload notation, e.g. `"w345"`.
        new: String,
    },
    /// Data drift (c1): workload stays `workload`; the table is mutated.
    Data {
        /// The (unchanged) workload notation.
        workload: String,
        /// The mutation applied to the table.
        kind: DataDriftKind,
    },
    /// Combined drift: both of the above (Figure 2c, §4.2 Drift C).
    Combined {
        /// Training-workload notation.
        train: String,
        /// New-workload notation.
        new: String,
        /// The data mutation.
        kind: DataDriftKind,
    },
}

/// Concrete data mutations (paper §2's inserts/updates/deletes and §4.1.2's
/// sort-and-truncate).
#[derive(Debug, Clone, Copy)]
pub enum DataDriftKind {
    /// Sort by `col`, truncate to half (§4.1.2).
    SortTruncate {
        /// Column to sort by.
        col: usize,
    },
    /// Append `frac`×rows near existing rows.
    Append {
        /// Fraction of current rows to append.
        frac: f64,
    },
    /// Update `frac` of rows.
    Update {
        /// Fraction of rows to update in place.
        frac: f64,
    },
}

impl DataDriftKind {
    /// Applies the mutation.
    pub fn apply(&self, table: &mut Table, rng: &mut StdRng) {
        match *self {
            DataDriftKind::SortTruncate { col } => data_drift::sort_and_truncate_half(table, col),
            DataDriftKind::Append { frac } => {
                let extra = (table.num_rows() as f64 * frac) as usize;
                data_drift::append_rows(table, extra, 0.05, rng);
            }
            DataDriftKind::Update { frac } => data_drift::update_rows(table, frac, 0.3, rng),
        }
    }
}

/// Run-shape parameters.
#[derive(Debug, Clone, Copy)]
pub struct RunnerConfig {
    /// |I_train|.
    pub n_train: usize,
    /// Held-out test queries from the new workload.
    pub n_test: usize,
    /// Number of adaptation checkpoints (the paper evaluates at 0–100% in
    /// 20% steps → 5).
    pub checkpoints: usize,
    /// Arrival process for the test period.
    pub arrival: ArrivalProcess,
    /// Whether arrived queries carry labels (true for c2/c4; false for c3
    /// and data-drift runs, where annotation is the bottleneck).
    pub arrivals_labeled: bool,
    /// Master seed.
    pub seed: u64,
    /// Warper configuration.
    pub warper: WarperConfig,
    /// Fault profile injected into the annotation path (chaos runs). `None`
    /// annotates exactly, as the seed behavior did.
    pub faults: Option<FaultConfig>,
    /// Per-invocation annotation row budget — the deadline proxy. Once an
    /// adaptation step has scanned this many rows, the rest of its batch is
    /// skipped instead of blocking the loop. `None` = unbounded.
    pub annotate_budget_rows: Option<usize>,
    /// Checkpoint/rollback supervisor for Warper strategies. `None` runs
    /// unsupervised.
    pub supervisor: Option<SupervisorConfig>,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        Self {
            n_train: 1200,
            n_test: 200,
            checkpoints: 10,
            arrival: ArrivalProcess::paper_default(),
            arrivals_labeled: true,
            seed: 7,
            warper: WarperConfig::default(),
            faults: None,
            annotate_budget_rows: None,
            supervisor: None,
        }
    }
}

/// Everything one run produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Strategy name.
    pub strategy: String,
    /// Model name.
    pub model: String,
    /// GMQ as a function of queries consumed from the new workload.
    pub curve: AdaptationCurve,
    /// δ_m: drift-time GMQ minus baseline GMQ.
    pub delta_m: f64,
    /// δ_js between the training and new workloads.
    pub delta_js: f64,
    /// Model GMQ before the drift (α's floor; baseline on train workload).
    pub baseline_gmq: f64,
    /// Queries annotated during adaptation (excludes execution feedback).
    pub annotated_total: usize,
    /// Synthetic queries generated.
    pub generated_total: usize,
    /// Wall-clock seconds in the annotator.
    pub annotate_secs: f64,
    /// Wall-clock seconds in the strategy (model + module updates),
    /// excluding annotation.
    pub adapt_secs: f64,
    /// Seconds to build/pre-train the strategy (Warper's one-time cost).
    pub build_secs: f64,
    /// Annotation requests that produced no label (failed, timed out, or
    /// deadline-skipped) and were requeued.
    pub annotation_failed_total: usize,
    /// Supervisor rollbacks across the run (0 without a supervisor).
    pub rollbacks: usize,
    /// Degradation-ladder counters (all zero without fault injection or a
    /// row budget).
    pub degraded: DegradedStats,
}

/// Builds a CE model for a feature dimension.
pub fn build_model(
    kind: ModelKind,
    feature_dim: usize,
    seed: u64,
) -> Box<dyn CardinalityEstimator> {
    match kind {
        ModelKind::LmMlp => Box::new(LmMlp::new(feature_dim, LmMlpParams::default(), seed)),
        ModelKind::LmGbt => Box::new(LmGbt::new(
            feature_dim,
            GbtParams {
                n_trees: 120,
                learning_rate: 0.1,
                ..Default::default()
            },
        )),
        ModelKind::LmPly => Box::new(LmKrr::new(feature_dim, KrrVariant::Poly, seed)),
        ModelKind::LmRbf => Box::new(LmKrr::new(feature_dim, KrrVariant::Rbf, seed)),
        ModelKind::Mscn => {
            // Single-table MSCN; the feature map below uses featurize_single.
            unreachable!("MSCN models are built by the runner with their featurizer")
        }
    }
}

/// Builds an adaptation strategy. `make_canon` produces the
/// feature-canonicalization hook installed on every strategy that
/// synthesizes queries (Warper, AUG, HEM); pass a factory because each
/// strategy owns its hook.
pub fn build_strategy(
    kind: StrategyKind,
    training_set: &[(Vec<f64>, f64)],
    feature_dim: usize,
    baseline_gmq: f64,
    cfg: &RunnerConfig,
    make_canon: &dyn Fn() -> CanonicalizeFn,
) -> Box<dyn AdaptStrategy> {
    let seed = derive_seed(cfg.seed, seed_stream::STRATEGY);
    match kind {
        StrategyKind::Ft => Box::new(FineTuneStrategy::new(
            training_set,
            Some(cfg.warper.n_p),
            seed,
        )),
        StrategyKind::Mix => Box::new(MixStrategy::new(training_set, seed)),
        StrategyKind::Aug => {
            Box::new(AugStrategy::new(training_set, seed).with_canonicalizer(make_canon()))
        }
        StrategyKind::Hem => {
            Box::new(HemStrategy::new(training_set, seed).with_canonicalizer(make_canon()))
        }
        StrategyKind::Warper | StrategyKind::WarperAblated { .. } => {
            let (picker, gen) = match kind {
                StrategyKind::WarperAblated { picker, gen } => (picker, gen),
                _ => (PickerKind::Warper, GenKind::Gan),
            };
            let ctl =
                WarperController::new(feature_dim, training_set, baseline_gmq, cfg.warper, seed)
                    .with_picker(picker)
                    .with_generator(gen)
                    .with_canonicalizer(make_canon());
            let mut strat = WarperStrategy::new(ctl);
            if let Some(sup) = cfg.supervisor {
                strat = strat.with_supervisor(sup);
            }
            Box::new(strat)
        }
    }
}

/// The feature mapping used by a run: predicate → model features, and the
/// inverse needed to annotate generated feature vectors. Public because the
/// serving layer needs the same mapping online: featurize incoming
/// predicates for the model, defeaturize generated vectors for the
/// annotator's ground-truth counts.
#[derive(Clone)]
pub struct FeatureMap {
    featurizer: Featurizer,
    mscn: Option<MscnFeaturizer>,
}

impl FeatureMap {
    /// Builds the mapping for a table/model pairing.
    pub fn new(table: &Table, model: ModelKind) -> Self {
        let featurizer = Featurizer::from_table(table);
        let mscn =
            (model == ModelKind::Mscn).then(|| MscnFeaturizer::new(vec![featurizer.clone()], 0));
        Self { featurizer, mscn }
    }

    /// Model feature dimension `m`.
    pub fn dim(&self) -> usize {
        match &self.mscn {
            Some(m) => m.config().feature_dim(),
            None => self.featurizer.dim(),
        }
    }

    /// The underlying LM featurizer.
    pub fn featurizer(&self) -> &Featurizer {
        &self.featurizer
    }

    /// Maps a predicate to model features.
    pub fn featurize(&self, p: &RangePredicate) -> Vec<f64> {
        match &self.mscn {
            Some(m) => m.featurize_single(p),
            None => self.featurizer.featurize(p),
        }
    }

    /// Canonicalizer factory: maps a raw generated/perturbed feature vector
    /// to the featurization of the sparse predicate nearest to it (keep the
    /// ≤3 most selective columns — the structure of the live workloads).
    pub fn make_canonicalizer(&self) -> CanonicalizeFn {
        let featurizer = self.featurizer.clone();
        let mscn = self.mscn.clone();
        Box::new(move |feat: &[f64]| {
            let pred = match &mscn {
                Some(m) => {
                    let cfg = m.config();
                    let start = 1 + cfg.n_tables;
                    let d = featurizer.dim();
                    featurizer.defeaturize(&feat[start..start + d])
                }
                None => featurizer.defeaturize(feat),
            };
            let sparse = pred.keep_most_selective(featurizer.domains(), 3);
            match &mscn {
                Some(m) => m.featurize_single(&sparse),
                None => featurizer.featurize(&sparse),
            }
        })
    }

    /// Inverse: recover the predicate from a (possibly generated) feature
    /// vector so the annotator can count it.
    pub fn defeaturize(&self, features: &[f64]) -> RangePredicate {
        match &self.mscn {
            Some(m) => {
                // Single-table layout: [presence, onehot(1), feats..].
                let cfg = m.config();
                let start = 1 + cfg.n_tables;
                let d = self.featurizer.dim();
                self.featurizer.defeaturize(&features[start..start + d])
            }
            None => self.featurizer.defeaturize(features),
        }
    }
}

/// The offline phase of a deployment, reusable by the serving layer: a
/// trained CE model over a table plus everything needed to keep adapting it
/// online (feature mapping, training set, pre-drift baseline GMQ).
pub struct PreparedModel {
    /// Predicate ↔ feature mapping for the table/model pairing.
    pub fmap: FeatureMap,
    /// The trained model.
    pub model: Box<dyn CardinalityEstimator>,
    /// `I_train` as (features, cardinality) pairs.
    pub training_set: Vec<(Vec<f64>, f64)>,
    /// GMQ on held-out queries from the training workload.
    pub baseline_gmq: f64,
}

/// Trains a CE model on `n_train` queries drawn from `train_mix` over
/// `table` — the offline phase a serving deployment starts from. All RNG
/// consumption runs on the [`seed_stream::PREPARE`] and
/// [`seed_stream::MODEL`] streams of `seed`, so preparation is bit-stable
/// regardless of what else a process does with the master seed.
pub fn prepare_single_table(
    table: &Table,
    train_mix: &str,
    model_kind: ModelKind,
    n_train: usize,
    seed: u64,
) -> Result<PreparedModel, WarperError> {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, seed_stream::PREPARE));
    let n_baseline = (n_train / 8).clamp(50, 150);
    offline_phase(
        table, train_mix, model_kind, n_train, n_baseline, seed, &mut rng,
    )
    .map(|(prepared, _)| prepared)
}

/// The offline phase itself: draw `I_train` from `train_mix`, annotate and
/// featurize it, build the model on the [`seed_stream::MODEL`] stream of
/// `seed`, fit it, and score it on `n_baseline` further queries of the same
/// workload. Queries are drawn from `rng` — the caller's choice of stream is
/// the only thing [`prepare_single_table`] and [`run_single_table`] differ
/// in, besides `n_baseline`. Also returns the training predicates (the
/// runner's δ_js needs them in LM featurization).
fn offline_phase(
    table: &Table,
    train_mix: &str,
    model_kind: ModelKind,
    n_train: usize,
    n_baseline: usize,
    seed: u64,
    rng: &mut StdRng,
) -> Result<(PreparedModel, Vec<RangePredicate>), WarperError> {
    let fmap = FeatureMap::new(table, model_kind);
    let annotator = Annotator::new();

    let mut train_gen = QueryGenerator::try_from_notation(table, train_mix)?;
    let train_preds = train_gen.generate_many(n_train, rng);
    let train_cards = annotator.count_batch(table, &train_preds);
    let training_set: Vec<(Vec<f64>, f64)> = train_preds
        .iter()
        .zip(&train_cards)
        .map(|(p, &c)| (fmap.featurize(p), c as f64))
        .collect();

    let model_seed = derive_seed(seed, seed_stream::MODEL);
    let mut model: Box<dyn CardinalityEstimator> = match model_kind {
        ModelKind::Mscn => {
            let Some(mscn) = fmap.mscn.as_ref() else {
                return Err(WarperError::InvalidState(
                    "MSCN run without an MSCN featurizer".into(),
                ));
            };
            Box::new(Mscn::new(mscn.config(), model_seed))
        }
        other => build_model(other, fmap.dim(), model_seed),
    };
    let examples: Vec<LabeledExample> = training_set
        .iter()
        .map(|(f, c)| LabeledExample::new(f.clone(), *c))
        .collect();
    model.fit(&examples);

    let base_preds = train_gen.generate_many(n_baseline, rng);
    let base_cards = annotator.count_batch(table, &base_preds);
    let base_feats: Vec<Vec<f64>> = base_preds.iter().map(|p| fmap.featurize(p)).collect();
    let ests = estimate_all(model.as_ref(), base_feats.iter().map(Vec::as_slice));
    let actuals: Vec<f64> = base_cards.iter().map(|&c| c as f64).collect();
    let baseline_gmq = gmq(&ests, &actuals, PAPER_THETA);

    let prepared = PreparedModel {
        fmap,
        model,
        training_set,
        baseline_gmq,
    };
    Ok((prepared, train_preds))
}

/// Runs one (strategy × model × drift) experiment.
///
/// Errors on invalid workload notation or an inconsistent model/featurizer
/// pairing; a faulty annotator (see [`RunnerConfig::faults`]) degrades the
/// run but never fails it.
pub fn run_single_table(
    base_table: &Table,
    setup: &DriftSetup,
    model_kind: ModelKind,
    strategy_kind: StrategyKind,
    cfg: &RunnerConfig,
) -> Result<RunResult, WarperError> {
    let mut table = base_table.clone();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let annotator = Annotator::new();

    let (train_mix, new_mix, data_kind): (&str, &str, Option<DataDriftKind>) = match setup {
        DriftSetup::Workload { train, new } => (train, new, None),
        DriftSetup::Data { workload, kind } => (workload, workload, Some(*kind)),
        DriftSetup::Combined { train, new, kind } => (train, new, Some(*kind)),
    };

    // 1. I_train and the pre-drift baseline, on the run's own RNG.
    let (prepared, train_preds) = offline_phase(
        &table,
        train_mix,
        model_kind,
        cfg.n_train,
        cfg.n_test.min(150),
        cfg.seed,
        &mut rng,
    )?;
    let PreparedModel {
        fmap,
        mut model,
        training_set,
        baseline_gmq,
    } = prepared;

    // 2. Telemetry baselines, then apply the drift. The sketch probe's
    // baseline is the table's mergeable sketch rollup; per-period telemetry
    // comes from comparing rollups, falling back to the exact canary rescan
    // only when the sketch signals are ambiguous.
    let mut probe = SketchProbe::new(&table, &cfg.warper);
    let canaries = CanarySet::new(&table, cfg.warper.canaries, &mut rng);
    if let Some(kind) = data_kind {
        kind.apply(&mut table, &mut rng);
    }
    let mut new_gen = QueryGenerator::try_from_notation(&table, new_mix)?;

    // 3. Held-out test set from the new workload on the (post-drift) table.
    let test_preds = new_gen.generate_many(cfg.n_test, &mut rng);
    let test_cards = annotator.count_batch(&table, &test_preds);
    let test_feats: Vec<Vec<f64>> = test_preds.iter().map(|p| fmap.featurize(p)).collect();
    let eval = |model: &dyn CardinalityEstimator| {
        let ests = estimate_all(model, test_feats.iter().map(Vec::as_slice));
        let actuals: Vec<f64> = test_cards.iter().map(|&c| c as f64).collect();
        gmq(&ests, &actuals, PAPER_THETA)
    };

    // δ_js between the two workloads (LM featurization, paper k=10, m=3).
    let lm_train: Vec<Vec<f64>> = train_preds
        .iter()
        .map(|p| fmap.featurizer.featurize(p))
        .collect();
    let lm_new: Vec<Vec<f64>> = test_preds
        .iter()
        .map(|p| fmap.featurizer.featurize(p))
        .collect();
    let djs = delta_js(&lm_train, &lm_new, 10, 3);

    // 4. Build the strategy (timed: Warper's one-time pre-training).
    let build_start = Instant::now();
    let make_canon = || fmap.make_canonicalizer();
    let mut strategy = build_strategy(
        strategy_kind,
        &training_set,
        fmap.dim(),
        baseline_gmq,
        cfg,
        &make_canon,
    );
    let build_secs = build_start.elapsed().as_secs_f64();

    // Annotation backend: exact, or the degradation ladder when faults are
    // injected or a per-invocation deadline is set. The sampling fallback is
    // built on the post-drift table (a DBMS would sample live data too).
    let mut ladder = match (cfg.faults, cfg.annotate_budget_rows) {
        (None, None) => None,
        (faults, budget) => {
            let primary: Box<dyn CountService> = match faults {
                Some(f) => Box::new(FaultInjector::new(Box::new(Annotator::new()), f)),
                None => Box::new(Annotator::new()),
            };
            let mut r = ResilientAnnotator::new(primary)
                .with_fallback(Box::new(SamplingAnnotator::build(&table, 500, 4, &mut rng)));
            if let Some(rows) = budget {
                r = r.with_budget_rows(rows);
            }
            Some(r)
        }
    };

    // 5. The test period.
    let mut curve = AdaptationCurve::new();
    let drift_gmq = eval(model.as_ref());
    curve.push(0.0, drift_gmq);

    let mut annotate_secs = 0.0;
    let mut annotated_total = 0usize;
    let mut generated_total = 0usize;
    let mut annotation_failed_total = 0usize;
    let mut rollbacks = 0usize;
    let mut adapt_secs = 0.0;
    let mut prev_arrived = 0usize;

    let checkpoints = cfg.arrival.checkpoints(cfg.checkpoints);
    for &t in checkpoints.iter().skip(1) {
        let total_arrived = cfg.arrival.arrived_by(t);
        let batch = total_arrived - prev_arrived;
        prev_arrived = total_arrived;

        let preds = new_gen.generate_many(batch, &mut rng);
        // Pre-labeled arrivals go through the batch engine: one shared,
        // zone-map-pruned sweep instead of a rescan per arrival.
        let arrival_gts = cfg
            .arrivals_labeled
            .then(|| annotator.count_batch(&table, &preds));
        let arrived: Vec<ArrivedQuery> = preds
            .iter()
            .enumerate()
            .map(|(i, p)| ArrivedQuery {
                features: fmap.featurize(p),
                gt: arrival_gts.as_ref().map(|g| g[i] as f64),
            })
            .collect();

        let telemetry = probe.telemetry(&table, &canaries);

        let step_start = Instant::now();
        let mut step_annotate_secs = 0.0;
        if let Some(l) = ladder.as_mut() {
            l.begin_invocation();
        }
        let report = {
            let table_ref = &table;
            let fmap_ref = &fmap;
            let annotator_ref = &annotator;
            let ladder_ref = &mut ladder;
            let mut annotate = |qs: &[Vec<f64>]| -> Vec<Option<f64>> {
                let a0 = Instant::now();
                let preds: Vec<RangePredicate> =
                    qs.iter().map(|f| fmap_ref.defeaturize(f)).collect();
                let labels = match ladder_ref.as_mut() {
                    Some(l) => l.annotate_batch(table_ref, &preds),
                    None => annotator_ref
                        .count_batch(table_ref, &preds)
                        .into_iter()
                        .map(|c| Some(c as f64))
                        .collect(),
                };
                step_annotate_secs += a0.elapsed().as_secs_f64();
                labels
            };
            strategy.step(model.as_mut(), &arrived, &telemetry, &mut annotate)
        };
        adapt_secs += step_start.elapsed().as_secs_f64() - step_annotate_secs;
        annotate_secs += step_annotate_secs;
        annotated_total += report.annotated;
        generated_total += report.generated;
        annotation_failed_total += report.annotation_failed;
        rollbacks += report.rolled_back as usize;

        curve.push(total_arrived as f64, eval(model.as_ref()));
    }
    // Data drift fully handled → the probe rebaselines on the post-drift
    // sketch rollup so a follow-up period starts quiet; informative only
    // here since the run ends.
    probe.rebaseline(&table);

    Ok(RunResult {
        strategy: strategy_kind.name().to_string(),
        model: model_kind.name().to_string(),
        curve,
        delta_m: (drift_gmq - baseline_gmq).max(0.0),
        delta_js: djs,
        baseline_gmq,
        annotated_total,
        generated_total,
        annotate_secs,
        adapt_secs,
        build_secs,
        annotation_failed_total,
        rollbacks,
        degraded: ladder.as_ref().map(|l| l.stats()).unwrap_or_default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use warper_storage::{generate, DatasetKind};

    fn quick_cfg() -> RunnerConfig {
        RunnerConfig {
            n_train: 300,
            n_test: 60,
            checkpoints: 3,
            arrival: ArrivalProcess {
                rate_per_sec: 0.2,
                period_secs: 600.0,
            },
            arrivals_labeled: true,
            seed: 11,
            warper: WarperConfig {
                embed_dim: 8,
                hidden: 32,
                n_i: 8,
                pretrain_epochs: 3,
                gamma: 200,
                n_p: 60,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn ft_run_produces_monotoneish_curve() {
        let table = generate(DatasetKind::Prsa, 3_000, 5);
        let setup = DriftSetup::Workload {
            train: "w1".into(),
            new: "w3".into(),
        };
        let res = run_single_table(
            &table,
            &setup,
            ModelKind::LmMlp,
            StrategyKind::Ft,
            &quick_cfg(),
        )
        .unwrap();
        assert_eq!(res.strategy, "FT");
        assert_eq!(res.curve.points().len(), 4); // 0 + 3 checkpoints
        assert!(res.delta_js > 0.0);
        assert!(res.baseline_gmq >= 1.0);
        // Adaptation should not make things drastically worse.
        let first = res.curve.initial_gmq().unwrap();
        let best = res.curve.best_gmq().unwrap();
        assert!(best <= first * 1.2, "first {first}, best {best}");
    }

    #[test]
    fn warper_run_generates_and_annotates() {
        let table = generate(DatasetKind::Prsa, 3_000, 6);
        let setup = DriftSetup::Workload {
            train: "w1".into(),
            new: "w4".into(),
        };
        let res = run_single_table(
            &table,
            &setup,
            ModelKind::LmMlp,
            StrategyKind::Warper,
            &quick_cfg(),
        )
        .unwrap();
        assert_eq!(res.strategy, "Warper");
        // If the drift registered, Warper should have synthesized queries.
        if res.delta_m > quick_cfg().warper.pi {
            assert!(
                res.generated_total > 0,
                "delta_m {} but nothing generated",
                res.delta_m
            );
            assert!(res.annotated_total > 0);
        }
        assert!(res.build_secs >= 0.0);
    }

    #[test]
    fn strategy_names_come_from_the_kind() {
        // `RunResult::strategy` is `StrategyKind::name()`, ablations included.
        let ablated = |picker, gen| StrategyKind::WarperAblated { picker, gen }.name();
        assert_eq!(StrategyKind::Warper.name(), "Warper");
        assert_eq!(ablated(PickerKind::Random, GenKind::Noise), "Warper(P→rnd)");
        assert_eq!(ablated(PickerKind::Entropy, GenKind::Gan), "Warper(P→ent)");
        assert_eq!(ablated(PickerKind::Warper, GenKind::Noise), "Warper(G→AUG)");
    }

    #[test]
    fn data_drift_run_works() {
        let table = generate(DatasetKind::Prsa, 3_000, 7);
        let setup = DriftSetup::Data {
            workload: "w1".into(),
            kind: DataDriftKind::SortTruncate { col: 1 },
        };
        let mut cfg = quick_cfg();
        cfg.arrivals_labeled = false; // c1: labels must be re-obtained
        let res =
            run_single_table(&table, &setup, ModelKind::LmMlp, StrategyKind::Warper, &cfg).unwrap();
        assert!(res.annotated_total > 0, "c1 must re-annotate");
    }

    #[test]
    fn identical_seeds_reproduce_curves() {
        let table = generate(DatasetKind::Poker, 2_000, 8);
        let setup = DriftSetup::Workload {
            train: "w1".into(),
            new: "w5".into(),
        };
        let cfg = quick_cfg();
        let a = run_single_table(&table, &setup, ModelKind::LmMlp, StrategyKind::Ft, &cfg).unwrap();
        let b = run_single_table(&table, &setup, ModelKind::LmMlp, StrategyKind::Ft, &cfg).unwrap();
        assert_eq!(a.curve.points(), b.curve.points());
    }

    #[test]
    fn bad_notation_is_a_typed_error_not_a_panic() {
        let table = generate(DatasetKind::Poker, 1_000, 8);
        let setup = DriftSetup::Workload {
            train: "bogus".into(),
            new: "w5".into(),
        };
        let err = run_single_table(
            &table,
            &setup,
            ModelKind::LmMlp,
            StrategyKind::Ft,
            &quick_cfg(),
        )
        .unwrap_err();
        assert!(matches!(err, WarperError::Workload(_)), "{err}");
    }

    #[test]
    fn faulty_annotator_degrades_gracefully() {
        let table = generate(DatasetKind::Prsa, 3_000, 9);
        // Data drift forces re-annotation through the faulty path.
        let setup = DriftSetup::Data {
            workload: "w1".into(),
            kind: DataDriftKind::SortTruncate { col: 1 },
        };
        let mut cfg = quick_cfg();
        cfg.arrivals_labeled = false;
        cfg.faults = Some(FaultConfig {
            failure_rate: 0.2,
            seed: 21,
            ..Default::default()
        });
        cfg.annotate_budget_rows = Some(60_000);
        cfg.supervisor = Some(SupervisorConfig::default());
        let res =
            run_single_table(&table, &setup, ModelKind::LmMlp, StrategyKind::Warper, &cfg).unwrap();
        // Every checkpoint completed despite 20% injected failures + deadline.
        assert_eq!(res.curve.points().len(), 4);
        assert!(
            res.degraded.any(),
            "20% failures must trip the ladder: {:?}",
            res.degraded
        );
        assert!(res.degraded.retried > 0, "{:?}", res.degraded);
        assert!(res.rollbacks <= 3);
    }
}
