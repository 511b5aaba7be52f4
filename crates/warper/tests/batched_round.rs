//! The adaptation round estimates in batches: what that must not change,
//! and what it must not regress to.
//!
//! Detect, the picker, the early-stop evaluation and the supervisor's
//! validation read the model through `estimate_many` (one GEMM per layer)
//! instead of a per-query `estimate` in a `map`. The batch-invariant kernels
//! make the two bit-identical, so:
//!
//! * a supervised run over `LmMlp` and over a wrapper whose `estimate_many`
//!   *is* the per-query loop must end in the same reports, controller state,
//!   RNG position and weights — through c1, c2, c3 and a rollback;
//! * a supervised invocation makes no single-query `estimate` call at all and
//!   a bounded number of batched passes — the regression guard, as a count
//!   rather than a timing.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use warper_ce::lm::LmMlp;
use warper_ce::{CardinalityEstimator, LabeledExample, Persistable, UpdateKind};
use warper_core::detect::DataTelemetry;
use warper_core::runner::ModelKind;
use warper_core::{
    prepare_single_table, ArrivedQuery, Supervisor, SupervisorConfig, WarperConfig,
    WarperController,
};
use warper_query::{Annotator, RangePredicate};
use warper_storage::{generate, DatasetKind, Table};
use warper_workload::QueryGenerator;

/// Batched passes one supervised invocation may make over the model it
/// adapts: δ_m (1), the stratified picker once for c3 and once for c1 (2),
/// the early-stop evaluation (1), validation of the updated model and of the
/// rollback checkpoint (2), and the restored model's GMQ after a rollback (1).
const MAX_PASSES_PER_INVOCATION: usize = 7;

#[derive(Default)]
struct Calls {
    estimate: AtomicUsize,
    estimate_many: AtomicUsize,
}

/// A model behind a probe: counts how it is read, optionally answers
/// `estimate_many` with the per-query loop, and can poison one update so the
/// supervisor has something to roll back.
struct Probed {
    inner: Box<dyn CardinalityEstimator>,
    per_query: bool,
    poison_next_update: bool,
    calls: Arc<Calls>,
}

impl CardinalityEstimator for Probed {
    fn feature_dim(&self) -> usize {
        self.inner.feature_dim()
    }
    fn estimate(&self, features: &[f64]) -> f64 {
        self.calls.estimate.fetch_add(1, Ordering::Relaxed);
        self.inner.estimate(features)
    }
    fn estimate_many(&self, queries: &[&[f64]]) -> Vec<f64> {
        self.calls.estimate_many.fetch_add(1, Ordering::Relaxed);
        if self.per_query {
            queries.iter().map(|q| self.inner.estimate(q)).collect()
        } else {
            self.inner.estimate_many(queries)
        }
    }
    fn fit(&mut self, examples: &[LabeledExample]) {
        self.inner.fit(examples);
    }
    fn update(&mut self, examples: &[LabeledExample]) {
        if std::mem::take(&mut self.poison_next_update) {
            let poisoned: Vec<LabeledExample> = examples
                .iter()
                .map(|e| LabeledExample::new(e.features.clone(), e.card * 1e4 + 1e7))
                .collect();
            for _ in 0..6 {
                self.inner.update(&poisoned);
            }
        } else {
            self.inner.update(examples);
        }
    }
    fn update_kind(&self) -> UpdateKind {
        self.inner.update_kind()
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn snapshot(&self) -> Option<Box<dyn CardinalityEstimator>> {
        Some(Box::new(Probed {
            inner: self.inner.snapshot()?,
            per_query: self.per_query,
            poison_next_update: false,
            calls: Arc::clone(&self.calls),
        }))
    }
    fn restore(&mut self, snapshot: &dyn CardinalityEstimator) -> bool {
        match (snapshot as &dyn std::any::Any).downcast_ref::<Self>() {
            Some(s) => self.inner.restore(s.inner.as_ref()),
            None => false,
        }
    }
}

/// What a run leaves behind, every float as the text that round-trips it.
#[derive(Debug, PartialEq)]
struct Outcome {
    reports: Vec<String>,
    state_json: String,
    rng: StdRng,
    weights_json: String,
    passes_per_round: Vec<usize>,
    single_query_estimates: usize,
}

fn labelled(
    table: &Table,
    preds: &[RangePredicate],
    fmap: &warper_core::FeatureMap,
) -> Vec<ArrivedQuery> {
    let cards = Annotator::new().count_batch(table, preds);
    preds
        .iter()
        .zip(cards)
        .map(|(p, c)| ArrivedQuery {
            features: fmap.featurize(p),
            gt: Some(c as f64),
        })
        .collect()
}

/// Eight supervised rounds over a PRSA table whose workload drifts w1 → w4:
/// labelled arrivals (c2 + c3), unlabelled arrivals (c3 through the probe
/// sample), a data-drift signal (c1), and one poisoned update (rollback).
fn run(per_query: bool) -> Outcome {
    let table = generate(DatasetKind::Prsa, 2_000, 5);
    let prepared = prepare_single_table(&table, "w1", ModelKind::LmMlp, 250, 11).unwrap();
    let cfg = WarperConfig {
        embed_dim: 6,
        hidden: 24,
        n_i: 5,
        pretrain_epochs: 2,
        gamma: 150,
        n_p: 40,
        ..Default::default()
    };
    let mut ctl = WarperController::new(
        prepared.fmap.dim(),
        &prepared.training_set,
        prepared.baseline_gmq,
        cfg,
        17,
    )
    .with_canonicalizer(prepared.fmap.make_canonicalizer());
    let calls = Arc::new(Calls::default());
    let mut model = Probed {
        inner: prepared.model,
        per_query,
        poison_next_update: false,
        calls: Arc::clone(&calls),
    };
    let mut sup = Supervisor::new(SupervisorConfig::default());

    let fmap = &prepared.fmap;
    let annotator = Annotator::new();
    let mut annotate = |qs: &[Vec<f64>]| -> Vec<Option<f64>> {
        let preds: Vec<RangePredicate> = qs.iter().map(|f| fmap.defeaturize(f)).collect();
        annotator
            .count_batch(&table, &preds)
            .into_iter()
            .map(|c| Some(c as f64))
            .collect()
    };

    let mut rng = StdRng::seed_from_u64(3);
    let mut drifted = QueryGenerator::try_from_notation(&table, "w4").unwrap();
    let mut reports = Vec::new();
    let mut passes_per_round = Vec::new();
    for round in 0..8 {
        let preds = drifted.generate_many(30, &mut rng);
        let mut arrived = labelled(&table, &preds, fmap);
        let mut telemetry = DataTelemetry::default();
        match round {
            2 | 6 => arrived.iter_mut().for_each(|a| a.gt = None),
            3 => telemetry.changed_fraction = 0.6,
            4 => model.poison_next_update = true,
            _ => {}
        }
        let before = calls.estimate_many.load(Ordering::Relaxed);
        let rep = sup.invoke(&mut ctl, &mut model, &arrived, &telemetry, &mut annotate);
        passes_per_round.push(calls.estimate_many.load(Ordering::Relaxed) - before);
        reports.push(format!("{rep:?}"));
    }
    let lm = (model.inner.as_ref() as &dyn std::any::Any)
        .downcast_ref::<LmMlp>()
        .expect("the adapted model is an LM-MLP");
    Outcome {
        reports,
        state_json: serde_json::to_string(&ctl.to_state()).unwrap(),
        rng: ctl.rng_snapshot(),
        weights_json: serde_json::to_string(&lm.to_state()).unwrap(),
        passes_per_round,
        single_query_estimates: calls.estimate.load(Ordering::Relaxed),
    }
}

#[test]
fn batched_round_equals_per_query_round_and_stays_batched() {
    let batched = run(false);

    // The run covers what it claims to: every drift mode and a rollback.
    for needle in ["c1: true", "c2: true", "c3: true", "rollback: Some("] {
        assert!(
            batched.reports.iter().any(|r| r.contains(needle)),
            "no round with `{needle}`:\n{:#?}",
            batched.reports
        );
    }
    assert!(batched.reports.iter().any(|r| r.contains("rollback: None")));

    // Regression guards, as counts: no single-query estimate anywhere in a
    // supervised invocation, and a bounded number of batched passes.
    assert_eq!(batched.single_query_estimates, 0);
    assert!(
        batched
            .passes_per_round
            .iter()
            .all(|&n| (1..=MAX_PASSES_PER_INVOCATION).contains(&n)),
        "batched passes per round {:?}",
        batched.passes_per_round
    );

    // Batching changed nothing the loop learns, decides or draws: the same
    // run, reading the model one query at a time, ends bit-equal. (Its
    // single-query count is the wrapper's own loop calling the inner model,
    // which the wrapper does not see.)
    assert_eq!(run(true), batched);
}
