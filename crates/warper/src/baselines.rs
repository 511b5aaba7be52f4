//! Adaptation strategies: the paper's baselines (§4.1) under one interface.
//!
//! * **FT** — fine-tune (or re-train, for models that cannot fine-tune) on
//!   the newly arrived labeled queries. The reference point all speedups
//!   are measured against.
//! * **MIX** — fine-tune on the new queries mixed with an equal-size sample
//!   of the original training workload.
//! * **AUG** — additionally synthesize queries by adding Gaussian noise
//!   (10% of each column's range) to arrived queries, annotate them, and
//!   include them in the update.
//! * **HEM** — hard example mining: resample arrived queries weighted by
//!   the model's current error, perturb, annotate, include.
//!
//! Warper itself implements the same [`AdaptStrategy`] trait (see
//! [`crate::controller`]), so every experiment drives all methods through
//! identical plumbing.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use warper_ce::{estimate_all, CardinalityEstimator, LabeledExample, UpdateKind};
use warper_linalg::sampling::standard_normal;
use warper_metrics::{q_error, PAPER_THETA};

use crate::detect::DataTelemetry;

/// A query that arrived from the live workload, with its label when
/// execution feedback provided one.
#[derive(Debug, Clone)]
pub struct ArrivedQuery {
    /// Model-input features.
    pub features: Vec<f64>,
    /// Ground-truth cardinality, if known.
    pub gt: Option<f64>,
}

/// What one adaptation step did (drives the cost accounting of Table 6).
#[derive(Debug, Clone, Copy, Default)]
pub struct StepReport {
    /// Queries sent to the annotator this step.
    pub annotated: usize,
    /// Synthetic queries generated this step.
    pub generated: usize,
    /// Labeled examples handed to the model update.
    pub trained_on: usize,
    /// True if the strategy skipped the step (no drift detected / early
    /// stopped).
    pub skipped: bool,
    /// Annotation requests that failed (the annotator returned `None`).
    pub annotation_failed: usize,
    /// True if a supervising layer rolled this step back (Warper only).
    pub rolled_back: bool,
}

/// Batch annotation callback: query feature vectors in, labels out. A
/// `None` entry marks a query the annotator could not label — it stays
/// unlabeled and becomes eligible again at a later invocation.
pub type AnnotateFn<'a> = dyn FnMut(&[Vec<f64>]) -> Vec<Option<f64>> + 'a;

/// An adaptation method: consumes newly arrived queries each period and
/// updates the CE model. `annotate` computes fresh ground truth for feature
/// vectors (the runner wires it to the table's annotator and meters it). A
/// method's name is its `runner::StrategyKind::name()`.
pub trait AdaptStrategy {
    /// Runs one adaptation step.
    fn step(
        &mut self,
        model: &mut dyn CardinalityEstimator,
        arrived: &[ArrivedQuery],
        telemetry: &DataTelemetry,
        annotate: &mut AnnotateFn<'_>,
    ) -> StepReport;
}

/// Shared corpus bookkeeping: fine-tuning models update on the fresh batch,
/// re-training models re-fit on everything seen so far (paper §3.2).
pub(crate) struct Corpus {
    all: Vec<LabeledExample>,
}

impl Corpus {
    pub(crate) fn new(training_set: &[(Vec<f64>, f64)]) -> Self {
        let all = training_set
            .iter()
            .map(|(f, c)| LabeledExample::new(f.clone(), *c))
            .collect();
        Self { all }
    }

    /// Applies a model update with `fresh` examples, honoring the model's
    /// update kind. Returns how many examples the model trained on.
    pub(crate) fn apply(
        &mut self,
        model: &mut dyn CardinalityEstimator,
        fresh: Vec<LabeledExample>,
    ) -> usize {
        if fresh.is_empty() {
            return 0;
        }
        match model.update_kind() {
            UpdateKind::FineTune => {
                let n = fresh.len();
                model.update(&fresh);
                self.all.extend(fresh);
                n
            }
            UpdateKind::Retrain => {
                self.all.extend(fresh);
                model.fit(&self.all);
                self.all.len()
            }
        }
    }
}

/// Collects arrived queries' labeled examples, annotating unlabeled ones up
/// to `budget` (uniformly at random — what the paper's FT does when labels
/// are scarce, §4.1.2).
fn labeled_from_arrived(
    arrived: &[ArrivedQuery],
    budget: Option<usize>,
    rng: &mut StdRng,
    annotate: &mut AnnotateFn<'_>,
) -> (Vec<LabeledExample>, usize, usize) {
    let mut fresh: Vec<LabeledExample> = arrived
        .iter()
        .filter_map(|a| a.gt.map(|g| LabeledExample::new(a.features.clone(), g)))
        .collect();
    let mut unlabeled: Vec<&ArrivedQuery> = arrived.iter().filter(|a| a.gt.is_none()).collect();
    let budget = budget.unwrap_or(unlabeled.len()).min(unlabeled.len());
    // Partial Fisher–Yates for a uniform subset.
    for i in 0..budget {
        let j = rng.random_range(i..unlabeled.len());
        unlabeled.swap(i, j);
    }
    let to_annotate: Vec<Vec<f64>> = unlabeled[..budget]
        .iter()
        .map(|a| a.features.clone())
        .collect();
    let annotated = to_annotate.len();
    let mut failed = 0;
    if annotated > 0 {
        let cards = annotate(&to_annotate);
        for (f, c) in to_annotate.into_iter().zip(cards) {
            match c {
                Some(c) => fresh.push(LabeledExample::new(f, c)),
                None => failed += 1,
            }
        }
    }
    (fresh, annotated, failed)
}

/// FT: fine-tune on arrived labeled queries (re-train for tree/SVM models).
pub struct FineTuneStrategy {
    corpus: Corpus,
    /// Annotation budget per step for unlabeled arrivals (`None` = all).
    annotation_budget: Option<usize>,
    rng: StdRng,
}

impl FineTuneStrategy {
    /// Creates FT seeded with the original training corpus.
    pub fn new(
        training_set: &[(Vec<f64>, f64)],
        annotation_budget: Option<usize>,
        seed: u64,
    ) -> Self {
        Self {
            corpus: Corpus::new(training_set),
            annotation_budget,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl AdaptStrategy for FineTuneStrategy {
    fn step(
        &mut self,
        model: &mut dyn CardinalityEstimator,
        arrived: &[ArrivedQuery],
        _telemetry: &DataTelemetry,
        annotate: &mut AnnotateFn<'_>,
    ) -> StepReport {
        let (fresh, annotated, annotation_failed) =
            labeled_from_arrived(arrived, self.annotation_budget, &mut self.rng, annotate);
        let trained_on = self.corpus.apply(model, fresh);
        StepReport {
            annotated,
            trained_on,
            annotation_failed,
            ..Default::default()
        }
    }
}

/// MIX: arrived queries mixed with an equal-size sample of `I_train`.
pub struct MixStrategy {
    corpus: Corpus,
    train_set: Vec<LabeledExample>,
    rng: StdRng,
}

impl MixStrategy {
    /// Creates MIX.
    pub fn new(training_set: &[(Vec<f64>, f64)], seed: u64) -> Self {
        let train_set = training_set
            .iter()
            .map(|(f, c)| LabeledExample::new(f.clone(), *c))
            .collect();
        Self {
            corpus: Corpus::new(training_set),
            train_set,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl AdaptStrategy for MixStrategy {
    fn step(
        &mut self,
        model: &mut dyn CardinalityEstimator,
        arrived: &[ArrivedQuery],
        _telemetry: &DataTelemetry,
        annotate: &mut AnnotateFn<'_>,
    ) -> StepReport {
        let (mut fresh, annotated, annotation_failed) =
            labeled_from_arrived(arrived, None, &mut self.rng, annotate);
        let extra = fresh.len().min(self.train_set.len());
        for _ in 0..extra {
            let i = self.rng.random_range(0..self.train_set.len());
            fresh.push(self.train_set[i].clone());
        }
        let trained_on = self.corpus.apply(model, fresh);
        StepReport {
            annotated,
            trained_on,
            annotation_failed,
            ..Default::default()
        }
    }
}

/// AUG: Gaussian-noise data augmentation. The noise std is 10% of the
/// feature range; features live in [0, 1] after featurization, so std 0.1.
/// The paper adds noise "to the value in each clause" — i.e. perturbed
/// queries keep the sparse clause structure — which the optional
/// canonicalization hook restores after perturbation.
pub struct AugStrategy {
    corpus: Corpus,
    /// Synthetic queries per step as a fraction of arrivals (matches
    /// Warper's `n_g = 10% n_t` budget for a fair comparison, §4.1).
    gen_frac: f64,
    noise_std: f64,
    canonicalize: Option<crate::controller::CanonicalizeFn>,
    rng: StdRng,
}

impl AugStrategy {
    /// Creates AUG with the paper's defaults.
    pub fn new(training_set: &[(Vec<f64>, f64)], seed: u64) -> Self {
        Self {
            corpus: Corpus::new(training_set),
            gen_frac: 0.1,
            noise_std: 0.1,
            canonicalize: None,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Overrides the generation budget.
    pub fn with_gen_frac(mut self, frac: f64) -> Self {
        self.gen_frac = frac;
        self
    }

    /// Installs a feature-canonicalization hook (see
    /// [`crate::controller::CanonicalizeFn`]).
    pub fn with_canonicalizer(mut self, f: crate::controller::CanonicalizeFn) -> Self {
        self.canonicalize = Some(f);
        self
    }

    fn perturb(&mut self, features: &[f64]) -> Vec<f64> {
        let raw: Vec<f64> = features
            .iter()
            .map(|&v| (v + self.noise_std * standard_normal(&mut self.rng)).clamp(0.0, 1.0))
            .collect();
        match &self.canonicalize {
            Some(c) => c(&raw),
            None => raw,
        }
    }
}

impl AdaptStrategy for AugStrategy {
    fn step(
        &mut self,
        model: &mut dyn CardinalityEstimator,
        arrived: &[ArrivedQuery],
        _telemetry: &DataTelemetry,
        annotate: &mut AnnotateFn<'_>,
    ) -> StepReport {
        let (mut fresh, mut annotated, mut annotation_failed) =
            labeled_from_arrived(arrived, None, &mut self.rng, annotate);
        let n_g = (self.gen_frac * arrived.len() as f64).floor() as usize;
        let mut generated = 0;
        if n_g > 0 && !arrived.is_empty() {
            let synth: Vec<Vec<f64>> = (0..n_g)
                .map(|_| {
                    let base = &arrived[self.rng.random_range(0..arrived.len())];
                    self.perturb(&base.features)
                })
                .collect();
            generated = synth.len();
            let cards = annotate(&synth);
            annotated += synth.len();
            for (f, c) in synth.into_iter().zip(cards) {
                match c {
                    Some(c) => fresh.push(LabeledExample::new(f, c)),
                    None => annotation_failed += 1,
                }
            }
        }
        let trained_on = self.corpus.apply(model, fresh);
        StepReport {
            annotated,
            generated,
            trained_on,
            annotation_failed,
            ..Default::default()
        }
    }
}

/// HEM: hard example mining — resample arrived queries with probability
/// proportional to the model's q-error on them, perturb (the same noise as
/// AUG, which the paper applies "to robustly build HEM"), annotate, update.
pub struct HemStrategy {
    corpus: Corpus,
    gen_frac: f64,
    noise_std: f64,
    canonicalize: Option<crate::controller::CanonicalizeFn>,
    rng: StdRng,
}

impl HemStrategy {
    /// Creates HEM with the paper's defaults.
    pub fn new(training_set: &[(Vec<f64>, f64)], seed: u64) -> Self {
        Self {
            corpus: Corpus::new(training_set),
            gen_frac: 0.1,
            noise_std: 0.1,
            canonicalize: None,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Installs a feature-canonicalization hook.
    pub fn with_canonicalizer(mut self, f: crate::controller::CanonicalizeFn) -> Self {
        self.canonicalize = Some(f);
        self
    }
}

impl AdaptStrategy for HemStrategy {
    fn step(
        &mut self,
        model: &mut dyn CardinalityEstimator,
        arrived: &[ArrivedQuery],
        _telemetry: &DataTelemetry,
        annotate: &mut AnnotateFn<'_>,
    ) -> StepReport {
        let (mut fresh, mut annotated, mut annotation_failed) =
            labeled_from_arrived(arrived, None, &mut self.rng, annotate);
        // Weight the labeled arrivals by current model error.
        let weights: Vec<f64> = estimate_all(&*model, fresh.iter().map(|e| e.features.as_slice()))
            .into_iter()
            .zip(&fresh)
            .map(|(est, e)| q_error(est, e.card, PAPER_THETA))
            .collect();
        let total: f64 = weights.iter().sum();
        let n_g = (self.gen_frac * arrived.len() as f64).floor() as usize;
        let mut generated = 0;
        if n_g > 0 && total > 0.0 && !fresh.is_empty() {
            let synth: Vec<Vec<f64>> = (0..n_g)
                .map(|_| {
                    let mut u = self.rng.random_range(0.0..total);
                    let mut chosen = fresh.len() - 1;
                    for (i, w) in weights.iter().enumerate() {
                        if u < *w {
                            chosen = i;
                            break;
                        }
                        u -= w;
                    }
                    let raw: Vec<f64> = fresh[chosen]
                        .features
                        .iter()
                        .map(|&v| {
                            (v + self.noise_std * standard_normal(&mut self.rng)).clamp(0.0, 1.0)
                        })
                        .collect();
                    match &self.canonicalize {
                        Some(c) => c(&raw),
                        None => raw,
                    }
                })
                .collect();
            generated = synth.len();
            let cards = annotate(&synth);
            annotated += synth.len();
            for (f, c) in synth.into_iter().zip(cards) {
                match c {
                    Some(c) => fresh.push(LabeledExample::new(f, c)),
                    None => annotation_failed += 1,
                }
            }
        }
        let trained_on = self.corpus.apply(model, fresh);
        StepReport {
            annotated,
            generated,
            trained_on,
            annotation_failed,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A model that remembers what it was trained on.
    struct SpyModel {
        kind: UpdateKind,
        updates: Vec<usize>,
        fits: Vec<usize>,
    }

    impl SpyModel {
        fn new(kind: UpdateKind) -> Self {
            Self {
                kind,
                updates: Vec::new(),
                fits: Vec::new(),
            }
        }
    }

    impl CardinalityEstimator for SpyModel {
        fn feature_dim(&self) -> usize {
            2
        }
        fn estimate(&self, f: &[f64]) -> f64 {
            100.0 * (1.0 + f[0])
        }
        fn fit(&mut self, e: &[LabeledExample]) {
            self.fits.push(e.len());
        }
        fn update(&mut self, e: &[LabeledExample]) {
            self.updates.push(e.len());
        }
        fn update_kind(&self) -> UpdateKind {
            self.kind
        }
        fn name(&self) -> &'static str {
            "spy"
        }
    }

    fn train_set() -> Vec<(Vec<f64>, f64)> {
        (0..20)
            .map(|i| (vec![i as f64 / 20.0, 0.5], 100.0))
            .collect()
    }

    fn arrived(n: usize, with_gt: bool) -> Vec<ArrivedQuery> {
        (0..n)
            .map(|i| ArrivedQuery {
                features: vec![0.8, i as f64 / n as f64],
                gt: with_gt.then_some(500.0),
            })
            .collect()
    }

    fn no_annotate() -> impl FnMut(&[Vec<f64>]) -> Vec<Option<f64>> {
        |qs: &[Vec<f64>]| vec![Some(42.0); qs.len()]
    }

    #[test]
    fn ft_fine_tunes_on_arrived_only() {
        let mut model = SpyModel::new(UpdateKind::FineTune);
        let mut ft = FineTuneStrategy::new(&train_set(), None, 1);
        let rep = ft.step(
            &mut model,
            &arrived(10, true),
            &DataTelemetry::default(),
            &mut no_annotate(),
        );
        assert_eq!(model.updates, vec![10]);
        assert!(model.fits.is_empty());
        assert_eq!(rep.annotated, 0);
        assert_eq!(rep.trained_on, 10);
    }

    #[test]
    fn ft_retrains_cumulatively_for_tree_models() {
        let mut model = SpyModel::new(UpdateKind::Retrain);
        let mut ft = FineTuneStrategy::new(&train_set(), None, 1);
        ft.step(
            &mut model,
            &arrived(10, true),
            &DataTelemetry::default(),
            &mut no_annotate(),
        );
        ft.step(
            &mut model,
            &arrived(5, true),
            &DataTelemetry::default(),
            &mut no_annotate(),
        );
        assert_eq!(model.fits, vec![30, 35]); // 20 train + arrivals
    }

    #[test]
    fn ft_annotation_budget_respected() {
        let mut model = SpyModel::new(UpdateKind::FineTune);
        let mut ft = FineTuneStrategy::new(&train_set(), Some(3), 1);
        let rep = ft.step(
            &mut model,
            &arrived(10, false),
            &DataTelemetry::default(),
            &mut no_annotate(),
        );
        assert_eq!(rep.annotated, 3);
        assert_eq!(rep.trained_on, 3);
    }

    #[test]
    fn failed_annotations_are_skipped_not_trained_on() {
        let mut model = SpyModel::new(UpdateKind::FineTune);
        let mut ft = FineTuneStrategy::new(&train_set(), None, 1);
        let rep = ft.step(
            &mut model,
            &arrived(10, false),
            &DataTelemetry::default(),
            &mut |qs: &[Vec<f64>]| {
                qs.iter()
                    .enumerate()
                    .map(|(i, _)| (i % 2 == 0).then_some(42.0))
                    .collect()
            },
        );
        assert_eq!(rep.annotated, 10);
        assert_eq!(rep.annotation_failed, 5);
        assert_eq!(rep.trained_on, 5);
    }

    #[test]
    fn mix_doubles_with_train_samples() {
        let mut model = SpyModel::new(UpdateKind::FineTune);
        let mut mix = MixStrategy::new(&train_set(), 2);
        let rep = mix.step(
            &mut model,
            &arrived(8, true),
            &DataTelemetry::default(),
            &mut no_annotate(),
        );
        assert_eq!(rep.trained_on, 16);
    }

    #[test]
    fn aug_generates_and_annotates() {
        let mut model = SpyModel::new(UpdateKind::FineTune);
        let mut aug = AugStrategy::new(&train_set(), 3).with_gen_frac(0.5);
        let mut count = 0usize;
        let mut annotate = |qs: &[Vec<f64>]| {
            count += qs.len();
            vec![Some(10.0); qs.len()]
        };
        let rep = aug.step(
            &mut model,
            &arrived(10, true),
            &DataTelemetry::default(),
            &mut annotate,
        );
        assert_eq!(rep.generated, 5);
        assert_eq!(rep.annotated, 5);
        assert_eq!(count, 5);
        assert_eq!(rep.trained_on, 15);
        // Perturbed features stay in the box.
        assert!(model.updates.len() == 1);
    }

    #[test]
    fn hem_mines_hard_examples() {
        let mut model = SpyModel::new(UpdateKind::FineTune);
        let mut hem = HemStrategy::new(&train_set(), 4);
        let rep = hem.step(
            &mut model,
            &arrived(20, true),
            &DataTelemetry::default(),
            &mut no_annotate(),
        );
        assert_eq!(rep.generated, 2); // 10% of 20
        assert_eq!(rep.trained_on, 22);
    }

    #[test]
    fn empty_arrivals_are_noops() {
        let mut model = SpyModel::new(UpdateKind::FineTune);
        for (i, strat) in [
            &mut FineTuneStrategy::new(&train_set(), None, 1) as &mut dyn AdaptStrategy,
            &mut MixStrategy::new(&train_set(), 1),
            &mut AugStrategy::new(&train_set(), 1),
            &mut HemStrategy::new(&train_set(), 1),
        ]
        .into_iter()
        .enumerate()
        {
            let rep = strat.step(
                &mut model,
                &[],
                &DataTelemetry::default(),
                &mut no_annotate(),
            );
            assert_eq!(rep.trained_on, 0, "strategy {i} of FT, MIX, AUG, HEM");
        }
        assert!(model.updates.is_empty());
    }
}
