//! The adaptation loop: one step ([`Adapter::step`]), one publication point,
//! and the background worker that drives them.
//!
//! A serving deployment keeps two copies of the model: the frozen
//! [`ModelSnapshot`] the workers answer from, and a private copy this
//! loop retrains. Arrived queries stream into a bounded inbox
//! ([`AdaptWorker::observe`] — never blocking the serving path; a full
//! inbox drops the *observation*, never the request). Once `invoke_every`
//! observations accumulate (or `max_wait` elapses with at least one), the
//! worker runs one supervised adaptation step — checkpoint → invoke →
//! validate → commit or roll back — and, only on the commit path, snapshots
//! the updated model and publishes it to the [`SnapshotCell`]. Rolled-back
//! steps publish nothing: the serving side keeps answering from the last
//! good generation.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use warper_ce::{CardinalityEstimator, Precision};
use warper_core::detect::{CanarySet, ProbeStats, SketchProbe};
use warper_core::{
    derive_seed, seed_stream, ArrivedQuery, CommitHook, FeatureMap, PreparedModel, Supervisor,
    SupervisorConfig, WarperConfig, WarperController, WarperError,
};
use warper_durable::{DurableStore, Recovered};
use warper_query::{Annotator, RangePredicate};
use warper_storage::Table;

use crate::queue::BatchQueue;
use crate::snapshot::{ModelSnapshot, SnapshotCell};

/// Durably log labels as they are paid for: labelled arrivals before an
/// invocation consumes them (`arrival`), or what an annotation round
/// produced. Best-effort: a failed append keeps the label usable in memory —
/// it is simply not crash-protected (and is counted in the store's stats).
fn log_labels<'a>(
    store: &Mutex<DurableStore>,
    labels: impl Iterator<Item = (&'a [f64], Option<f64>)>,
    arrival: bool,
) {
    let mut s = store.lock().unwrap_or_else(PoisonError::into_inner);
    for (features, gt) in labels {
        if let Some(gt) = gt {
            let _ = s.append_label(features, gt, arrival);
        }
    }
}

/// Adaptation-loop knobs.
#[derive(Debug, Clone, Copy)]
pub struct AdaptConfig {
    /// Supervisor policy for the checkpoint/validate/commit cycle.
    pub supervisor: SupervisorConfig,
    /// Observations per invocation (n_t): the worker batches this many
    /// arrivals into one adaptation step.
    pub invoke_every: usize,
    /// Invoke with a partial batch after this long with ≥ 1 observation
    /// queued (bounds staleness under a trickle of arrivals).
    pub max_wait: Duration,
    /// Inbox bound; observations beyond it are dropped, not queued.
    pub inbox_capacity: usize,
    /// Canary predicates for data-drift telemetry.
    pub canaries: usize,
    /// Master seed (the worker draws from its [`seed_stream::ADAPT`]
    /// stream).
    pub seed: u64,
    /// Serving precision requested for published snapshots. Quantized
    /// copies are admitted per commit only after the GMQ drift gate
    /// (`crate::quant`, budget `supervisor.quant_gmq_tolerance`) passes;
    /// otherwise the f64 model serves.
    pub precision: Precision,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        Self {
            supervisor: SupervisorConfig::default(),
            invoke_every: 40,
            max_wait: Duration::from_millis(50),
            inbox_capacity: 4096,
            canaries: 8,
            seed: 7,
            precision: Precision::F32,
        }
    }
}

/// What the worker did over its lifetime.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdaptStats {
    /// Supervised invocations run.
    pub invocations: usize,
    /// Invocations that committed.
    pub commits: usize,
    /// Invocations rolled back to their checkpoint.
    pub rollbacks: usize,
    /// Snapshots published to the cell (= commits unless the model cannot
    /// snapshot or a committed state failed re-validation).
    pub published: usize,
    /// Committed steps that could not be published.
    pub publish_failures: usize,
    /// Commits whose quantized serving copy failed the GMQ drift gate and
    /// fell back to f64 (the commit itself still published).
    pub quant_refusals: usize,
    /// Observations dropped by the full inbox.
    pub dropped_observations: usize,
    /// Queries annotated by the adaptation loop.
    pub annotated: usize,
    /// Synthetic queries generated.
    pub generated: usize,
    /// Wall-clock seconds inside supervised invocations.
    pub adapt_secs: f64,
    /// Sketch fast-path decision counters (how many telemetry probes were
    /// answered without an exact canary rescan).
    pub probe: ProbeStats,
}

/// Everything the adaptation side of one shard needs: what a fleet hands
/// the [`AdaptWorker`] it spawns for the shard, and what a synchronous
/// replay hands the [`Adapter`] it steps at its barriers.
pub struct ShardAdapt {
    /// Adaptation-side controller (fresh or recovered from the shard's
    /// durable lineage).
    pub ctl: WarperController,
    /// Adaptation-side model copy.
    pub model: Box<dyn CardinalityEstimator>,
    /// The shard's table (telemetry + annotation), read under short-lived
    /// read locks so a drift mutator holding the write lock never waits on
    /// a whole retraining step.
    pub table: Arc<RwLock<Table>>,
    /// Featurization for this shard's schema.
    pub fmap: FeatureMap,
    /// Worker knobs. Seed it per shard (the replay harness gives shard 0
    /// the master seed and shard `id` beyond it
    /// `derive_seed(derive_seed(master, seed_stream::SHARD), id)`).
    pub cfg: AdaptConfig,
    /// The shard's own durable store (its WAL/checkpoint lineage), if any:
    /// labels are write-ahead logged as they are paid for, and every
    /// committed invocation counts toward its checkpoint cadence.
    pub store: Option<Arc<Mutex<DurableStore>>>,
}

/// An opened durable lineage and what [`DurableStore::open`] recovered from
/// it (`None` for a fresh directory).
pub type Lineage = (Arc<Mutex<DurableStore>>, Option<Recovered>);

fn own_copy(
    model: &dyn CardinalityEstimator,
) -> Result<Box<dyn CardinalityEstimator>, WarperError> {
    model.snapshot().ok_or_else(|| {
        WarperError::InvalidState(format!(
            "{} cannot snapshot; serving requires an immutable copy",
            model.name()
        ))
    })
}

/// Trains the controller a shard adapts with when its lineage recovered
/// none; [`bring_up`] installs the canonicalizer.
pub(crate) fn build_controller(
    base: &PreparedModel,
    warper: WarperConfig,
    seed: u64,
) -> WarperController {
    WarperController::new(
        base.fmap.dim(),
        &base.training_set,
        base.baseline_gmq,
        warper,
        derive_seed(seed, seed_stream::STRATEGY),
    )
}

/// Generation 0 of `model`, gated like every later generation (see
/// `publish_hook`): quantized to `precision` and admitted only within
/// `tolerance` GMQ drift of the f64 model, which serves otherwise. The
/// probes are the offline training set — no pool exists yet.
pub fn initial_snapshot(
    model: &dyn CardinalityEstimator,
    training_set: &[(Vec<f64>, f64)],
    precision: Precision,
    tolerance: f64,
) -> Result<Arc<ModelSnapshot>, WarperError> {
    let probes: Vec<&[f64]> = training_set.iter().map(|(f, _)| f.as_slice()).collect();
    let (serving, served, _) =
        crate::quant::prepare_serving_model(model, own_copy(model)?, precision, &probes, tolerance);
    Ok(Arc::new(
        ModelSnapshot::initial(serving).with_precision(served),
    ))
}

/// Brings one adapting shard up — the one place that decides what it adapts
/// with and what it serves first:
///
/// * the controller is the lineage's recovered one, else `trained` (a fleet
///   trains one controller and hands every shard a restored copy), else one
///   trained here from `warper` and `cfg.seed`; either way it canonicalizes
///   through `base.fmap`;
/// * a recovered model in the same feature space resumes both adapting and
///   serving, as its own generation 0 gated at `cfg.precision` within
///   `cfg.supervisor.quant_gmq_tolerance`; otherwise the shard adapts a copy
///   of the base model and serves `base_snapshot` — the very `Arc`, so shards
///   that have not diverged still pack into one GEMM.
///
/// Cutting the lineage's base checkpoint is left to the caller, who knows
/// when one is due.
pub fn bring_up(
    base: &PreparedModel,
    base_snapshot: &Arc<ModelSnapshot>,
    table: Arc<RwLock<Table>>,
    lineage: Option<Lineage>,
    trained: Option<WarperController>,
    warper: WarperConfig,
    cfg: AdaptConfig,
) -> Result<(Arc<ModelSnapshot>, ShardAdapt), WarperError> {
    let (store, recovered) = lineage.map_or((None, None), |(s, r)| (Some(s), r));
    let (rec_state, rec_model) = recovered.map_or((None, None), |r| (Some(r.state), r.model));
    let ctl = match (rec_state, trained) {
        (Some(state), _) => WarperController::from_state(state)?,
        (None, Some(ctl)) => ctl,
        (None, None) => build_controller(base, warper, cfg.seed),
    }
    .with_canonicalizer(base.fmap.make_canonicalizer());
    let (snapshot, model) = match rec_model {
        Some(m) if m.feature_dim() == base.fmap.dim() => {
            let tolerance = cfg.supervisor.quant_gmq_tolerance;
            let snap = initial_snapshot(m.as_ref(), &base.training_set, cfg.precision, tolerance)?;
            (snap, m)
        }
        _ => (Arc::clone(base_snapshot), own_copy(base.model.as_ref())?),
    };
    let adapt = ShardAdapt {
        ctl,
        model,
        table,
        fmap: base.fmap.clone(),
        cfg,
        store,
    };
    Ok((snapshot, adapt))
}

/// What the commit hook counts, shared with the [`Adapter`] that owns it.
#[derive(Default)]
struct Published {
    published: AtomicUsize,
    failures: AtomicUsize,
    quant_refusals: AtomicUsize,
}

/// Builds the publication hook — the crate's single publication point: on
/// every commit, quantize-and-gate a serving copy at the requested precision
/// against the borrowed model, re-validate the controller state, and swap
/// the cell. Durability always receives the full f64 model — quantization is
/// serving-only.
fn publish_hook(
    cell: Arc<SnapshotCell<ModelSnapshot>>,
    counts: Arc<Published>,
    store: Option<Arc<Mutex<DurableStore>>>,
    precision: Precision,
    quant_tolerance: f64,
) -> CommitHook {
    Box::new(move |state, model| {
        let next_gen = cell.version() + 1;
        let probes = crate::quant::probe_features(state);
        let refs: Vec<&[f64]> = probes.iter().map(Vec::as_slice).collect();
        let (chosen, served, outcome) =
            crate::quant::quantize_and_gate(model, precision, &refs, quant_tolerance);
        if matches!(outcome, crate::quant::QuantOutcome::Refused(_)) {
            counts.quant_refusals.fetch_add(1, Ordering::Relaxed);
        }
        // The f64 model is copied only when it is what will serve.
        let ok = chosen
            .or_else(|| model.snapshot())
            .and_then(|serving| ModelSnapshot::committed(next_gen, serving, state).ok())
            .map(|snap| cell.publish(snap.with_precision(served)));
        match ok {
            Some(_) => counts.published.fetch_add(1, Ordering::Relaxed),
            None => counts.failures.fetch_add(1, Ordering::Relaxed),
        };
        if let Some(store) = &store {
            let mut s = store.lock().unwrap_or_else(PoisonError::into_inner);
            // A failed checkpoint is retried at the next commit; the WAL
            // keeps every acked label durable in the meantime.
            let _ = s.note_commit(state, Some(model));
        }
    })
}

/// One shard's adaptation loop: the controller, the private model copy, the
/// supervisor with the publication hook, and the telemetry probes. Whoever
/// drives it — the background [`AdaptWorker`] thread, or a synchronous
/// replay at its segment barriers — calls the same [`Adapter::step`].
pub struct Adapter {
    ctl: WarperController,
    model: Box<dyn CardinalityEstimator>,
    sup: Supervisor,
    probe: SketchProbe,
    canaries: CanarySet,
    annotator: Annotator,
    table: Arc<RwLock<Table>>,
    fmap: FeatureMap,
    store: Option<Arc<Mutex<DurableStore>>>,
    counts: Arc<Published>,
    stats: AdaptStats,
}

impl Adapter {
    /// Wires `a` to publish committed updates into `cell`.
    pub fn new(a: ShardAdapt, cell: Arc<SnapshotCell<ModelSnapshot>>) -> Self {
        let ShardAdapt {
            mut ctl,
            model,
            table,
            fmap,
            cfg,
            store,
        } = a;
        let counts = Arc::new(Published::default());
        let sup = Supervisor::new(cfg.supervisor).with_commit_hook(publish_hook(
            cell,
            Arc::clone(&counts),
            store.clone(),
            cfg.precision,
            cfg.supervisor.quant_gmq_tolerance,
        ));
        let mut rng = StdRng::seed_from_u64(derive_seed(cfg.seed, seed_stream::ADAPT));
        // Telemetry baselines. A controller recovered from a checkpoint
        // carries the sketch baseline its model was trained against —
        // resuming from it means drift that happened across the restart is
        // still seen. A fresh controller baselines on the table as it
        // stands now.
        let (probe, canaries) = {
            let t = table.read().unwrap_or_else(PoisonError::into_inner);
            let probe = match ctl.sketch_baseline() {
                Some(b) => SketchProbe::from_baseline(b.clone(), ctl.config()),
                None => SketchProbe::new(&t, ctl.config()),
            };
            (probe, CanarySet::new(&t, cfg.canaries, &mut rng))
        };
        // The baseline rides every checkpoint the supervisor cuts from here on.
        ctl.set_sketch_baseline(Some(probe.baseline().clone()));
        Self {
            ctl,
            model,
            sup,
            probe,
            canaries,
            annotator: Annotator::new(),
            table,
            fmap,
            store,
            counts,
            stats: AdaptStats::default(),
        }
    }

    /// One supervised adaptation step over `arrived` — telemetry, log the
    /// labelled arrivals, then checkpoint → invoke → validate → commit or
    /// roll back, with every annotation the invocation pays for written
    /// ahead to the store. An empty batch is not an invocation.
    pub fn step(&mut self, arrived: &[ArrivedQuery]) {
        if arrived.is_empty() {
            return;
        }
        let telemetry = {
            let t = self.table.read().unwrap_or_else(PoisonError::into_inner);
            self.probe.telemetry(&t, &self.canaries)
        };
        let (table, fmap, annotator, store) =
            (&self.table, &self.fmap, &self.annotator, &self.store);
        let mut annotate = |qs: &[Vec<f64>]| -> Vec<Option<f64>> {
            let preds: Vec<RangePredicate> = qs.iter().map(|f| fmap.defeaturize(f)).collect();
            let labels: Vec<Option<f64>> = {
                let t = table.read().unwrap_or_else(PoisonError::into_inner);
                annotator
                    .count_batch(&t, &preds)
                    .into_iter()
                    .map(|c| Some(c as f64))
                    .collect()
            };
            if let Some(store) = store {
                let paid = qs.iter().zip(&labels).map(|(f, l)| (f.as_slice(), *l));
                log_labels(store, paid, false);
            }
            labels
        };
        if let Some(store) = store {
            let labelled = arrived.iter().map(|q| (q.features.as_slice(), q.gt));
            log_labels(store, labelled, true);
        }
        let t0 = Instant::now();
        let report = self.sup.invoke(
            &mut self.ctl,
            self.model.as_mut(),
            arrived,
            &telemetry,
            &mut annotate,
        );
        self.stats.adapt_secs += t0.elapsed().as_secs_f64();
        self.stats.invocations += 1;
        self.stats.annotated += report.annotated;
        self.stats.generated += report.generated;
        if report.rollback.is_some() {
            self.stats.rollbacks += 1;
        } else {
            self.stats.commits += 1;
        }
    }

    /// What the loop did over its lifetime.
    pub fn finish(self) -> AdaptStats {
        AdaptStats {
            probe: self.probe.stats,
            published: self.counts.published.load(Ordering::Relaxed),
            publish_failures: self.counts.failures.load(Ordering::Relaxed),
            quant_refusals: self.counts.quant_refusals.load(Ordering::Relaxed),
            ..self.stats
        }
    }
}

/// Handle to the background worker thread driving one [`Adapter`].
pub struct AdaptWorker {
    inbox: Arc<BatchQueue<ArrivedQuery>>,
    dropped: AtomicUsize,
    handle: JoinHandle<AdaptStats>,
}

impl AdaptWorker {
    /// Spawns the worker over `a`; committed updates are snapshotted into
    /// `cell`. The thread steps once per `invoke_every` observations (or
    /// after `max_wait` with at least one) until the inbox closes.
    pub fn spawn(a: ShardAdapt, cell: Arc<SnapshotCell<ModelSnapshot>>) -> Self {
        let cfg = a.cfg;
        let inbox = Arc::new(BatchQueue::new(cfg.inbox_capacity.max(1)));
        let worker_inbox = Arc::clone(&inbox);
        let handle = std::thread::Builder::new()
            .name("serve-adapt".into())
            .spawn(move || {
                let mut adapter = Adapter::new(a, cell);
                let mut batch: Vec<ArrivedQuery> = Vec::new();
                while worker_inbox.pop_batch(cfg.invoke_every.max(1), cfg.max_wait, &mut batch) {
                    adapter.step(&batch);
                }
                adapter.finish()
            })
            .expect("spawn adaptation worker");
        Self {
            inbox,
            dropped: AtomicUsize::new(0),
            handle,
        }
    }

    /// Feeds one arrived query to the loop. Never blocks: a full inbox
    /// drops the observation and the serving path moves on.
    pub fn observe(&self, q: ArrivedQuery) {
        if self.inbox.try_push(q).is_err() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Closes the inbox, lets the worker drain it, and returns its stats.
    pub fn finish(self) -> AdaptStats {
        self.inbox.close();
        match self.handle.join() {
            Ok(stats) => AdaptStats {
                dropped_observations: self.dropped.into_inner(),
                ..stats
            },
            Err(e) => std::panic::resume_unwind(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use warper_core::prepare_single_table;
    use warper_core::runner::ModelKind;
    use warper_storage::{generate, DatasetKind};
    use warper_workload::QueryGenerator;

    /// One shard over `table`, brought up the way every node does it.
    fn shard(
        table: &Table,
        n_train: usize,
        cfg: AdaptConfig,
    ) -> (FeatureMap, Arc<SnapshotCell<ModelSnapshot>>, ShardAdapt) {
        let prepared =
            prepare_single_table(table, "w1", ModelKind::LmMlp, n_train, cfg.seed).unwrap();
        let tolerance = cfg.supervisor.quant_gmq_tolerance;
        let model = prepared.model.as_ref();
        let base =
            initial_snapshot(model, &prepared.training_set, cfg.precision, tolerance).unwrap();
        let warper = crate::PrimarySpec::default().warper;
        let shared = Arc::new(RwLock::new(table.clone()));
        let (snap, adapt) = bring_up(&prepared, &base, shared, None, None, warper, cfg).unwrap();
        let cell = Arc::new(SnapshotCell::new_shared(snap));
        (prepared.fmap, cell, adapt)
    }

    #[test]
    fn worker_publishes_only_committed_generations() {
        let table = generate(DatasetKind::Prsa, 2_000, 5);
        let cfg = AdaptConfig {
            invoke_every: 30,
            max_wait: Duration::from_millis(5),
            seed: 11,
            ..Default::default()
        };
        let (fmap, cell, adapt) = shard(&table, 250, cfg);
        let worker = AdaptWorker::spawn(adapt, Arc::clone(&cell));

        // Feed two invocations' worth of drifted-workload arrivals.
        let mut rng = StdRng::seed_from_u64(3);
        let mut gen = QueryGenerator::try_from_notation(&table, "w4").unwrap();
        for p in gen.generate_many(60, &mut rng) {
            worker.observe(ArrivedQuery {
                features: fmap.featurize(&p),
                gt: Some(rng.random_range(1.0..500.0)),
            });
        }
        let stats = worker.finish();
        assert!(stats.invocations >= 1, "{stats:?}");
        assert_eq!(stats.invocations, stats.commits + stats.rollbacks);
        assert_eq!(stats.published + stats.publish_failures, stats.commits);
        assert_eq!(stats.publish_failures, 0, "LmMlp snapshots must publish");
        // The cell advanced exactly once per published commit, and the
        // published model answers.
        assert_eq!(cell.version(), stats.published as u64);
        let (v, snap) = cell.load();
        assert_eq!(snap.generation, v);
        let q = vec![0.5; snap.model.feature_dim()];
        assert!(snap.model.estimate(&q).is_finite());
        assert_eq!(stats.dropped_observations, 0);
    }

    #[test]
    fn full_inbox_drops_observations_instead_of_blocking() {
        let table = generate(DatasetKind::Prsa, 1_200, 6);
        let cfg = AdaptConfig {
            invoke_every: 1_000_000, // never invoke: everything queues
            max_wait: Duration::from_secs(60),
            inbox_capacity: 8,
            seed: 5,
            ..Default::default()
        };
        let (fmap, cell, adapt) = shard(&table, 150, cfg);
        let worker = AdaptWorker::spawn(adapt, cell);
        let t0 = Instant::now();
        for i in 0..100 {
            worker.observe(ArrivedQuery {
                features: vec![(i % 7) as f64; fmap.dim()],
                gt: None,
            });
        }
        // 92 drops, zero waiting.
        assert!(t0.elapsed() < Duration::from_secs(5));
        let stats = worker.finish();
        assert_eq!(stats.dropped_observations, 92);
    }
}
