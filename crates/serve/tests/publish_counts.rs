//! Publication copies the f64 model only when the f64 model is what serves.
//!
//! The commit hook used to `snapshot()` the whole model (weights and both
//! Adam moments) before it knew whether the quantized copy would pass the
//! gate, and drop the copy when it did. These are the guards against that
//! coming back, as call counts rather than timings. A probe that counts
//! calls cannot itself be quantized (`quantize_for_serving` recognizes the
//! concrete model types), so the property is pinned from both sides of the
//! one gate function:
//!
//! * the gate, given a real f32 candidate that passes, reads the borrowed
//!   f64 model in exactly one batched pass and never copies it;
//! * the hook, driven through [`Adapter::step`] with a model that has no
//!   quantized form, copies it exactly once per publication — the fallback —
//!   on top of the supervisor's own rollback checkpoint.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

use rand::rngs::StdRng;
use rand::SeedableRng;
use warper_ce::{quantize_for_serving, CardinalityEstimator, LabeledExample, UpdateKind};
use warper_core::runner::ModelKind;
use warper_core::{prepare_single_table, ArrivedQuery, WarperConfig, WarperController};
use warper_query::Annotator;
use warper_serve::{
    gate_and_choose, AdaptConfig, Adapter, ModelSnapshot, Precision, QuantOutcome, ShardAdapt,
    SnapshotCell,
};
use warper_storage::{generate, DatasetKind};
use warper_workload::QueryGenerator;

#[derive(Default)]
struct Calls {
    estimate: AtomicUsize,
    estimate_many: AtomicUsize,
    snapshot: AtomicUsize,
}

/// Counts how the model behind it is read and copied.
struct Counted {
    inner: Box<dyn CardinalityEstimator>,
    calls: Arc<Calls>,
}

impl CardinalityEstimator for Counted {
    fn feature_dim(&self) -> usize {
        self.inner.feature_dim()
    }
    fn estimate(&self, features: &[f64]) -> f64 {
        self.calls.estimate.fetch_add(1, Ordering::Relaxed);
        self.inner.estimate(features)
    }
    fn estimate_many(&self, queries: &[&[f64]]) -> Vec<f64> {
        self.calls.estimate_many.fetch_add(1, Ordering::Relaxed);
        self.inner.estimate_many(queries)
    }
    fn fit(&mut self, examples: &[LabeledExample]) {
        self.inner.fit(examples);
    }
    fn update(&mut self, examples: &[LabeledExample]) {
        self.inner.update(examples);
    }
    fn update_kind(&self) -> UpdateKind {
        self.inner.update_kind()
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn snapshot(&self) -> Option<Box<dyn CardinalityEstimator>> {
        self.calls.snapshot.fetch_add(1, Ordering::Relaxed);
        Some(Box::new(Counted {
            inner: self.inner.snapshot()?,
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

#[test]
fn a_passing_f32_candidate_is_gated_without_copying_the_f64_model() {
    let table = generate(DatasetKind::Prsa, 2_000, 5);
    let prepared = prepare_single_table(&table, "w1", ModelKind::LmMlp, 250, 11).unwrap();
    let candidate =
        quantize_for_serving(prepared.model.as_ref(), Precision::F32).expect("LM-MLP quantizes");
    let probes: Vec<Vec<f64>> = prepared
        .training_set
        .iter()
        .take(64)
        .map(|(f, _)| f.clone())
        .collect();
    let refs: Vec<&[f64]> = probes.iter().map(Vec::as_slice).collect();
    let calls = Arc::new(Calls::default());
    let full = Counted {
        inner: prepared.model,
        calls: Arc::clone(&calls),
    };

    let (chosen, served, outcome) = gate_and_choose(
        &full,
        Some(Box::new(candidate)),
        Precision::F32,
        &refs,
        0.05,
    );
    assert!(matches!(outcome, QuantOutcome::Quantized(_)), "{outcome:?}");
    assert_eq!(served, Precision::F32);
    assert_eq!(chosen.expect("the candidate serves").name(), "LM-mlp[f32]");
    assert_eq!(calls.snapshot.load(Ordering::Relaxed), 0);
    assert_eq!(calls.estimate.load(Ordering::Relaxed), 0);
    assert_eq!(calls.estimate_many.load(Ordering::Relaxed), 1);
}

#[test]
fn a_publication_that_falls_back_to_f64_copies_the_model_once() {
    let table = generate(DatasetKind::Prsa, 2_000, 5);
    let prepared = prepare_single_table(&table, "w1", ModelKind::LmMlp, 250, 11).unwrap();
    let ctl = WarperController::new(
        prepared.fmap.dim(),
        &prepared.training_set,
        prepared.baseline_gmq,
        WarperConfig {
            embed_dim: 6,
            hidden: 24,
            n_i: 5,
            pretrain_epochs: 2,
            gamma: 80,
            n_p: 40,
            ..Default::default()
        },
        17,
    )
    .with_canonicalizer(prepared.fmap.make_canonicalizer());
    let serving = prepared.model.snapshot().expect("LmMlp snapshots");
    let cell = Arc::new(SnapshotCell::new(ModelSnapshot::initial(serving)));
    let calls = Arc::new(Calls::default());
    let mut adapter = Adapter::new(
        ShardAdapt {
            ctl,
            model: Box::new(Counted {
                inner: prepared.model,
                calls: Arc::clone(&calls),
            }),
            table: Arc::new(RwLock::new(table.clone())),
            fmap: prepared.fmap.clone(),
            cfg: AdaptConfig {
                precision: Precision::F32,
                seed: 11,
                ..Default::default()
            },
            store: None,
        },
        Arc::clone(&cell),
    );

    let mut rng = StdRng::seed_from_u64(3);
    let mut drifted = QueryGenerator::try_from_notation(&table, "w4").unwrap();
    let preds = drifted.generate_many(40, &mut rng);
    let cards = Annotator::new().count_batch(&table, &preds);
    let arrived: Vec<ArrivedQuery> = preds
        .iter()
        .zip(cards)
        .map(|(p, c)| ArrivedQuery {
            features: prepared.fmap.featurize(p),
            gt: Some(c as f64),
        })
        .collect();
    adapter.step(&arrived);
    let stats = adapter.finish();

    assert_eq!((stats.commits, stats.published), (1, 1), "{stats:?}");
    assert_eq!(cell.load().1.precision, Precision::F64, "no quantized form");
    // One copy is the supervisor's rollback checkpoint, one the hook's
    // fallback; the gate's reference pass and every pass of the round are
    // batched.
    assert_eq!(calls.snapshot.load(Ordering::Relaxed), 2);
    assert_eq!(calls.estimate.load(Ordering::Relaxed), 0);
}
