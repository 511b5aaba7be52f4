//! The adapter to the system under test: the only file of the benchmark
//! that names a type of the repository.
//!
//! It uses the surface ROADMAP's one-serving-core item keeps — `Fleet` /
//! `FleetHandle` / `ShardSpec` / `ShardAdapt`, `ServerCore::new_fleet` +
//! `NetServer`, `EstimateClient`, `Supervisor` / `WarperController`,
//! `DurableStore`, `Annotator`, `storage::drift`, `prepare_single_table` —
//! and never `EstimationService`, `run_replay`, `run_fleet_replay` or
//! `PrimaryNode`, so deleting those cannot break the benchmark. Everything
//! it hands back is an opaque handle or plain numbers; spans are recorded
//! here, around each call into a layer's public functions.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use warper_ce::lm::{LmMlp, LmMlpParams};
use warper_ce::{CardinalityEstimator, LabeledExample, Precision};
use warper_core::detect::{CanarySet, SketchProbe};
use warper_core::runner::ModelKind;
use warper_core::{
    derive_seed, prepare_single_table, seed_stream, ArrivedQuery, FeatureMap, Supervisor,
    SupervisorConfig, WarperConfig, WarperController, WarperState,
};
use warper_durable::{
    validate_wal_frame, DurabilityConfig, DurableEvent, DurableStore, MemVfs, StdVfs, Vfs,
    WalRecord,
};
use warper_metrics::{gmq, PAPER_THETA};
use warper_query::{count_naive, Annotator, RangePredicate};
use warper_serve::net::{decode, encode, Msg, ServerCore, TcpDialer};
use warper_serve::{
    prepare_serving_model, probe_features, AdaptConfig, EstimateClient, Fleet, FleetConfig,
    FleetHandle, ModelSnapshot, NetServer, NetServerConfig, QuantOutcome, RetryPolicy, ShardAdapt,
    ShardKey, ShardSpec, SnapshotCell,
};
use warper_storage::{drift, generate, DatasetKind, Table, TableSketch};
use warper_workload::QueryGenerator;

use crate::trace::Tracer;
use crate::workloads::{Dataset, Spec, GAMMA, GAN_ITERS, N_TRAIN, PRETRAIN_EPOCHS};

fn unpoison<T>(r: Result<T, PoisonError<T>>) -> T {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// One annotator for the whole run (building one asks the OS for the core
/// count every time).
fn annotator() -> &'static Annotator {
    static ANNOTATOR: OnceLock<Annotator> = OnceLock::new();
    ANNOTATOR.get_or_init(Annotator::new)
}

/// Jitter of appended rows and shift of updated rows, as shares of a
/// column's domain.
const APPEND_NOISE: f64 = 0.05;
const UPDATE_SHIFT: f64 = 0.3;

/// The quantize-gated f32 serving copy of `model`, as every publication
/// makes it: admitted only if its GMQ drift on `probes` stays in tolerance.
fn serving_copy(
    model: &dyn CardinalityEstimator,
    probes: &[Vec<f64>],
) -> Option<(Box<dyn CardinalityEstimator>, Precision, QuantOutcome)> {
    let full = model.snapshot()?;
    let refs: Vec<&[f64]> = probes.iter().map(Vec::as_slice).collect();
    Some(prepare_serving_model(
        model,
        full,
        Precision::F32,
        &refs,
        SupervisorConfig::default().quant_gmq_tolerance,
    ))
}

// ---------------------------------------------------------------- storage

/// A table of the storage layer.
pub struct TableH(Table);

/// The seeded generator the drift mutators draw from.
pub struct DriftRng(StdRng);

impl DriftRng {
    pub fn new(seed: u64) -> Self {
        Self(StdRng::seed_from_u64(seed))
    }
}

impl TableH {
    pub fn generate(dataset: Dataset, rows: usize, seed: u64) -> Self {
        let kind = match dataset {
            Dataset::Prsa => DatasetKind::Prsa,
            Dataset::Higgs => DatasetKind::Higgs,
        };
        Self(generate(kind, rows, seed))
    }

    pub fn rows(&self) -> usize {
        self.0.num_rows()
    }

    /// A private copy, indexes included (what a fresh repetition starts from).
    pub fn fork(&self) -> Self {
        Self(self.0.clone())
    }

    /// Builds or refreshes the zone maps, so the table is annotatable.
    pub fn zone_index(&self) {
        std::hint::black_box(self.0.zone_index());
    }

    /// Builds or refreshes the sketches and their rollup, so the table is
    /// probe-able.
    pub fn table_sketch(&self) {
        std::hint::black_box(self.0.table_sketch());
    }

    pub fn sketch(&self) -> SketchH {
        SketchH(self.0.table_sketch().as_ref().clone())
    }

    pub fn append(&mut self, rows: usize, rng: &mut DriftRng) {
        drift::append_rows(&mut self.0, rows, APPEND_NOISE, &mut rng.0);
    }

    /// Updates `frac` of the rows in place.
    pub fn update(&mut self, frac: f64, rng: &mut DriftRng) {
        drift::update_rows(&mut self.0, frac, UPDATE_SHIFT, &mut rng.0);
    }

    pub fn share(self) -> SharedTable {
        SharedTable(Arc::new(RwLock::new(self.0)))
    }
}

/// A table's sketch rollup (the drift probe's baseline).
#[derive(Clone)]
pub struct SketchH(TableSketch);

/// A table behind the lock the adaptation worker, writers and readers share.
#[derive(Clone)]
pub struct SharedTable(Arc<RwLock<Table>>);

impl SharedTable {
    /// One write transaction: append `rows`, update `frac` of the rows, then
    /// refresh both indexes. Returns rows touched.
    pub fn write_batch(
        &self,
        rows: usize,
        frac: f64,
        rng: &mut DriftRng,
        tracer: &Tracer,
        parent: u64,
        unit: u64,
    ) -> usize {
        let mut t = unpoison(self.0.write());
        {
            let _s = tracer.span("storage.append", parent, unit);
            drift::append_rows(&mut t, rows, APPEND_NOISE, &mut rng.0);
        }
        let updated = (t.num_rows() as f64 * frac.clamp(0.0, 1.0)).round() as usize;
        {
            let _s = tracer.span("storage.update", parent, unit);
            drift::update_rows(&mut t, frac, UPDATE_SHIFT, &mut rng.0);
        }
        {
            let _s = tracer.span("storage.zone_refresh", parent, unit);
            std::hint::black_box(t.zone_index());
        }
        {
            let _s = tracer.span("storage.sketch_refresh", parent, unit);
            std::hint::black_box(t.table_sketch());
        }
        rows + updated
    }

    pub fn rows(&self) -> usize {
        unpoison(self.0.read()).num_rows()
    }

    /// Counts `queries[range]` under the read lock; returns the sum of the
    /// counts (so the work cannot be optimized away).
    pub fn count_batch(&self, queries: &QuerySet, from: usize, to: usize) -> u64 {
        let t = unpoison(self.0.read());
        annotator()
            .count_batch(&t, &queries.preds[from..to])
            .iter()
            .sum()
    }
}

// --------------------------------------------------------------- workload

/// A generated query stream: predicates and their model features.
pub struct QuerySet {
    preds: Vec<RangePredicate>,
    pub feats: Vec<Vec<f64>>,
}

impl QuerySet {
    pub fn generate(table: &TableH, mix: &str, n: usize, seed: u64, prep: &Prepared) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gen = QueryGenerator::try_from_notation(&table.0, mix)
            .unwrap_or_else(|e| panic!("workload notation {mix}: {e}"));
        let preds = gen.generate_many(n, &mut rng);
        let feats = preds.iter().map(|p| prep.fmap.featurize(p)).collect();
        Self { preds, feats }
    }

    pub fn len(&self) -> usize {
        self.preds.len()
    }

    pub fn refs(&self) -> Vec<&[f64]> {
        self.feats.iter().map(Vec::as_slice).collect()
    }
}

// ------------------------------------------------------------------ query

/// Exact counts by the annotation engine, with the rows it evaluated.
pub fn count_fast(table: &TableH, queries: &QuerySet) -> Vec<(u64, usize)> {
    annotator()
        .count_batch_with_cost(&table.0, &queries.preds)
        .into_iter()
        .map(|o| (o.count, o.rows_scanned))
        .collect()
}

/// The row-at-a-time oracle.
pub fn count_oracle(table: &TableH, queries: &QuerySet, i: usize) -> u64 {
    count_naive(&table.0, &queries.preds[i])
}

/// Oracle count of a feature vector the system produced (an annotation
/// label to audit).
pub fn count_oracle_features(table: &TableH, prep: &Prepared, features: &[f64]) -> u64 {
    count_naive(&table.0, &prep.fmap.defeaturize(features))
}

pub fn gmq_of(estimates: &[f64], actuals: &[f64]) -> f64 {
    gmq(estimates, actuals, PAPER_THETA)
}

// --------------------------------------------------------------- ce + nn

/// The offline phase's product: featurization, training set and the
/// trained full-precision model.
pub struct Prepared {
    fmap: FeatureMap,
    training_set: Vec<(Vec<f64>, f64)>,
    baseline_gmq: f64,
    model: Box<dyn CardinalityEstimator>,
    pub feature_dim: usize,
}

/// Runs the offline phase: `prepare_single_table` (training-set generation,
/// annotation, featurization, held-out baseline) and the fit of the
/// workload's LM-MLP shape.
pub fn prepare(table: &TableH, spec: &Spec, seed: u64, tracer: &Tracer, parent: u64) -> Prepared {
    let prepared = {
        let _s = tracer.span("warper.prepare_single_table", parent, 0);
        prepare_single_table(&table.0, spec.train_mix, ModelKind::LmMlp, N_TRAIN, seed)
            .unwrap_or_else(|e| panic!("prepare_single_table: {e}"))
    };
    let dim = prepared.fmap.dim();
    let params = LmMlpParams {
        hidden: spec.hidden,
        fit_epochs: spec.fit_epochs,
        update_epochs: spec.update_epochs,
        ..LmMlpParams::default()
    };
    let mut model = LmMlp::new(dim, params, derive_seed(seed, seed_stream::MODEL));
    let examples: Vec<LabeledExample> = prepared
        .training_set
        .iter()
        .map(|(f, c)| LabeledExample::new(f.clone(), *c))
        .collect();
    {
        let _s = tracer.span("ce.fit", parent, 0);
        model.fit(&examples);
    }
    Prepared {
        fmap: prepared.fmap,
        training_set: prepared.training_set,
        baseline_gmq: prepared.baseline_gmq,
        model: Box::new(model),
        feature_dim: dim,
    }
}

impl Prepared {
    /// The quantize-gated serving copy of the trained model, generation 0.
    pub fn serving_snapshot(&self) -> Snapshot {
        let probes: Vec<Vec<f64>> = self
            .training_set
            .iter()
            .take(256)
            .map(|(f, _)| f.clone())
            .collect();
        let (serving, precision, _) =
            serving_copy(self.model.as_ref(), &probes).expect("LM-MLP snapshots");
        Snapshot(Arc::new(
            ModelSnapshot::initial(serving).with_precision(precision),
        ))
    }

    pub fn model_copy(&self) -> ModelH {
        ModelH(self.model.snapshot().expect("LM-MLP snapshots"))
    }

    /// Multiply-adds ×2 of one forward pass, from the layer shapes.
    pub fn flops_per_estimate(&self, hidden: [usize; 2]) -> f64 {
        2.0 * (self.feature_dim * hidden[0] + hidden[0] * hidden[1] + hidden[1]) as f64
    }
}

/// A full-precision model (the adaptation side's copy).
pub struct ModelH(Box<dyn CardinalityEstimator>);

impl ModelH {
    pub fn fork(&self) -> Self {
        Self(self.0.snapshot().expect("LM-MLP snapshots"))
    }

    /// One fine-tuning `update` over `n` labelled examples drawn cyclically
    /// from `feats`/`labels`.
    pub fn update_on(&mut self, feats: &[Vec<f64>], labels: &[f64], n: usize) {
        let examples: Vec<LabeledExample> = (0..n)
            .map(|i| LabeledExample::new(feats[i % feats.len()].clone(), labels[i % labels.len()]))
            .collect();
        self.0.update(&examples);
    }
}

/// An immutable serving snapshot.
#[derive(Clone)]
pub struct Snapshot(Arc<ModelSnapshot>);

impl Snapshot {
    pub fn generation(&self) -> u64 {
        self.0.generation
    }

    pub fn estimate_many(&self, queries: &[&[f64]]) -> Vec<f64> {
        self.0.model.estimate_many(queries)
    }

    pub fn estimate(&self, query: &[f64]) -> f64 {
        self.0.model.estimate(query)
    }
}

// ----------------------------------------------------------------- warper

fn warper_config(spec: &Spec) -> WarperConfig {
    WarperConfig {
        n_p: spec.n_p,
        gamma: GAMMA,
        n_i: GAN_ITERS,
        pretrain_epochs: PRETRAIN_EPOCHS,
        ..WarperConfig::default()
    }
}

/// A controller's persisted state: what every adaptation repetition is
/// restored from.
#[derive(Clone)]
pub struct CtlState(WarperState);

/// `WarperController::new`: pool initialisation plus E/G pre-training.
pub fn build_controller(prep: &Prepared, spec: &Spec, seed: u64) -> CtlState {
    let ctl = WarperController::new(
        prep.feature_dim,
        &prep.training_set,
        prep.baseline_gmq,
        warper_config(spec),
        derive_seed(seed, seed_stream::STRATEGY),
    )
    .with_canonicalizer(prep.fmap.make_canonicalizer());
    CtlState(ctl.to_state())
}

impl CtlState {
    fn controller(&self, prep: &Prepared, baseline: Option<&SketchH>) -> WarperController {
        let mut ctl = WarperController::from_state(self.0.clone())
            .expect("a state this program took from a live controller validates")
            .with_canonicalizer(prep.fmap.make_canonicalizer());
        if let Some(b) = baseline {
            // The probe then sees whatever changed in the table since this
            // sketch as c1 drift.
            ctl.set_sketch_baseline(Some(b.0.clone()));
        }
        ctl
    }
}

// ---------------------------------------------------------------- durable

/// A state directory: in memory or on disk under the run's scratch dir.
#[derive(Clone)]
pub struct StateDir {
    vfs: Arc<dyn Vfs>,
    path: Option<PathBuf>,
}

impl StateDir {
    pub fn memory() -> Self {
        Self {
            vfs: Arc::new(MemVfs::new()),
            path: None,
        }
    }

    pub fn disk(path: &Path) -> Self {
        let vfs = StdVfs::open(path).unwrap_or_else(|e| panic!("state dir {path:?}: {e}"));
        Self {
            vfs: Arc::new(vfs),
            path: Some(path.to_path_buf()),
        }
    }

    /// Bytes of every file in the directory.
    pub fn bytes(&self) -> u64 {
        let names = self.vfs.list().unwrap_or_default();
        names
            .iter()
            .filter_map(|n| self.vfs.read(n).ok())
            .map(|d| d.len() as u64)
            .sum()
    }

    /// Size of the largest checkpoint file in the directory.
    pub fn largest_checkpoint(&self) -> u64 {
        let names = self.vfs.list().unwrap_or_default();
        names
            .iter()
            .filter(|n| n.ends_with(".ckpt"))
            .filter_map(|n| self.vfs.read(n).ok())
            .map(|d| d.len() as u64)
            .max()
            .unwrap_or(0)
    }

    pub fn remove(&self) {
        if let Some(p) = &self.path {
            let _ = std::fs::remove_dir_all(p);
        }
    }
}

/// One acknowledged label: feature bits, label bits, and whether it came
/// with an arrival (execution feedback) or from the annotator.
pub type AckedLabel = (Vec<u64>, u64, bool);

/// An open store on a fresh state directory, with a tap that keeps every
/// label the store acknowledged.
pub struct StoreH {
    store: Arc<Mutex<DurableStore>>,
    acked: Arc<Mutex<Vec<AckedLabel>>>,
    wal_bytes: Arc<AtomicU64>,
}

impl StoreH {
    /// Opens `dir` (which must be fresh), cuts the base checkpoint labels
    /// replay onto, and starts recording acknowledgements.
    pub fn open_fresh(dir: &StateDir, every: usize, ctl: &CtlState, model: &ModelH) -> Self {
        let cfg = DurabilityConfig {
            checkpoint_every: every,
        };
        let (mut store, recovered) = DurableStore::open(Arc::clone(&dir.vfs), cfg)
            .unwrap_or_else(|e| panic!("open state dir: {e}"));
        assert!(recovered.is_none(), "state directory was not fresh");
        store
            .checkpoint(&ctl.0, Some(model.0.as_ref()))
            .unwrap_or_else(|e| panic!("base checkpoint: {e}"));
        let acked: Arc<Mutex<Vec<AckedLabel>>> = Arc::default();
        let sink = Arc::clone(&acked);
        let wal_bytes = Arc::new(AtomicU64::new(0));
        let wal_sink = Arc::clone(&wal_bytes);
        store.set_tap(Box::new(move |ev| {
            if let DurableEvent::WalAppend { frame, .. } = ev {
                wal_sink.fetch_add(frame.len() as u64, Ordering::Relaxed);
                if let Ok(WalRecord::Label {
                    features,
                    gt,
                    arrival,
                }) = validate_wal_frame(frame)
                {
                    let bits = features.iter().map(|f| f.to_bits()).collect();
                    unpoison(sink.lock()).push((bits, gt.to_bits(), arrival));
                }
            }
        }));
        Self {
            store: Arc::new(Mutex::new(store)),
            acked,
            wal_bytes,
        }
    }

    pub fn acked(&self) -> Vec<AckedLabel> {
        unpoison(self.acked.lock()).clone()
    }

    pub fn counters(&self) -> StoreCounters {
        let s = unpoison(self.store.lock());
        let st = s.stats();
        StoreCounters {
            checkpoints: st.checkpoints as u64,
            checkpoint_failures: st.checkpoint_failures as u64,
            wal_appends: st.wal_appends as u64,
            wal_append_failures: st.wal_append_failures as u64,
            wal_bytes: self.wal_bytes.load(Ordering::Relaxed),
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct StoreCounters {
    pub checkpoints: u64,
    pub checkpoint_failures: u64,
    pub wal_appends: u64,
    pub wal_append_failures: u64,
    /// Framed bytes of every acknowledged WAL append.
    pub wal_bytes: u64,
}

/// What a recovery produced.
pub struct Recovery {
    pub snapshot: Snapshot,
    pub first_estimate: f64,
    pub replayed: usize,
    pub open_ms: f64,
    pub restore_ms: f64,
    /// Acknowledged labels that the recovered pool does not hold.
    pub lost_labels: usize,
}

/// Restart: `DurableStore::open` on the state directory, validated
/// controller restore, quantize-gated serving snapshot, first estimate.
pub fn recover(
    dir: &StateDir,
    prep: &Prepared,
    acked: &[AckedLabel],
    first_query: &[f64],
    tracer: &Tracer,
    unit: u64,
) -> Recovery {
    let root = tracer.span("recover", 0, unit);
    let t0 = Instant::now();
    let recovered = {
        let _s = tracer.span("durable.recover_open", root.id(), unit);
        let (_store, rec) = DurableStore::open(Arc::clone(&dir.vfs), DurabilityConfig::default())
            .unwrap_or_else(|e| panic!("recovery open: {e}"));
        rec.expect("the state directory holds a checkpoint")
    };
    let open_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let replayed = recovered.report.wal_records_replayed;
    let model = recovered.model.expect("checkpoints carry the model");
    let (snapshot, ctl) = {
        let _s = tracer.span("durable.recover_restore", root.id(), unit);
        let probes = probe_features(&recovered.state);
        let ctl = WarperController::from_state(recovered.state)
            .unwrap_or_else(|e| panic!("recovered state: {e}"))
            .with_canonicalizer(prep.fmap.make_canonicalizer());
        let (serving, precision, _) =
            serving_copy(model.as_ref(), &probes).expect("LM-MLP snapshots");
        let snap = ModelSnapshot::committed(1, serving, &ctl.to_state())
            .unwrap_or_else(|e| panic!("recovered snapshot: {e}"))
            .with_precision(precision);
        (Snapshot(Arc::new(snap)), ctl)
    };
    let first_estimate = {
        let _s = tracer.span("recover.first_estimate", root.id(), unit);
        snapshot.estimate(first_query)
    };
    let restore_ms = t1.elapsed().as_secs_f64() * 1e3;
    drop(root);
    // Audit, untimed: every acknowledged label is in the recovered pool.
    // One query can hold several labels (an arrival's, then a re-annotation
    // after a data drift), so membership is by (features, label).
    let pool: HashSet<(Vec<u64>, u64)> = ctl
        .pool()
        .records()
        .iter()
        .filter_map(|r| {
            let gt = r.gt?;
            Some((
                r.features.iter().map(|f| f.to_bits()).collect(),
                gt.to_bits(),
            ))
        })
        .collect();
    let lost_labels = acked
        .iter()
        .filter(|(f, gt, _)| !pool.contains(&(f.clone(), *gt)))
        .count();
    Recovery {
        snapshot,
        first_estimate,
        replayed,
        open_ms,
        restore_ms,
        lost_labels,
    }
}

// ------------------------------------------------------------------ serve

/// What shard 0 adapts with.
pub struct AdaptPlan<'a> {
    pub prep: &'a Prepared,
    pub ctl: &'a CtlState,
    pub model: &'a ModelH,
    pub table: SharedTable,
    /// Sketch of the table the model was trained on, when the table has
    /// drifted since.
    pub baseline: Option<&'a SketchH>,
    pub store: Option<&'a StoreH>,
    pub invoke_every: usize,
    pub inbox: usize,
    pub seed: u64,
}

fn adapt_config(invoke_every: usize, inbox: usize, seed: u64) -> AdaptConfig {
    AdaptConfig {
        invoke_every,
        // Long enough that a batch is always exactly `invoke_every`
        // observations (or the drain at shutdown).
        max_wait: Duration::from_secs(10),
        inbox_capacity: inbox,
        seed,
        precision: Precision::F32,
        ..AdaptConfig::default()
    }
}

/// A running fleet, with its TCP front-end when the workload has one.
pub struct Running {
    fleet: Fleet,
    server: Option<NetServer>,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct FleetCounters {
    pub served: u64,
    pub shed: u64,
    pub shed_deadline: u64,
    pub rejected: u64,
    pub packs: u64,
    pub gemm_groups: u64,
    pub packed_requests: u64,
    pub sub_batches: u64,
    pub inference_nanos: u64,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct NetCounters {
    pub deadline_trips: u64,
    pub decode_errors: u64,
    pub cut_connections: u64,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct AdaptCounters {
    pub invocations: u64,
    pub commits: u64,
    pub rollbacks: u64,
    pub publish_failures: u64,
    pub dropped_observations: u64,
    pub annotated: u64,
    pub generated: u64,
}

pub struct Stopped {
    pub fleet: FleetCounters,
    pub net: Option<NetCounters>,
    pub adapt: Option<AdaptCounters>,
}

impl Running {
    /// Starts `shards` shards that all serve clones of one snapshot `Arc`
    /// (what lets the packer group them), shard 0 adapting when `adapt` is
    /// given, behind a loopback `NetServer` when `tcp`.
    pub fn start(
        shards: usize,
        snapshot: &Snapshot,
        adapt: Option<AdaptPlan<'_>>,
        tcp: bool,
    ) -> Self {
        let mut adapt = adapt.map(|a| ShardAdapt {
            ctl: a.ctl.controller(a.prep, a.baseline),
            model: a.model.fork().0,
            table: a.table.0,
            fmap: a.prep.fmap.clone(),
            cfg: adapt_config(a.invoke_every, a.inbox, a.seed),
            store: a.store.map(|s| Arc::clone(&s.store)),
        });
        let specs = (0..shards)
            .map(|id| ShardSpec {
                key: ShardKey::new(format!("tenant-{id:04}"), "main"),
                snapshot: Arc::clone(&snapshot.0),
                adapt: if id == 0 { adapt.take() } else { None },
            })
            .collect();
        let fleet = Fleet::start(specs, FleetConfig::default());
        let server = tcp.then(|| {
            let core = ServerCore::new_fleet(fleet.handle(), true, None);
            NetServer::bind("127.0.0.1:0", core, NetServerConfig::default())
                .unwrap_or_else(|e| panic!("bind loopback: {e}"))
        });
        Self { fleet, server }
    }

    /// A client through the workload's front door: a TCP connection when the
    /// fleet has a server, the in-process handle otherwise.
    pub fn client(&self, seed: u64) -> Client {
        match &self.server {
            Some(server) => Client::Tcp(Box::new(EstimateClient::new(
                Box::new(TcpDialer {
                    endpoints: vec![server.local_addr().to_string()],
                    connect_timeout: Duration::from_secs(2),
                }),
                RetryPolicy::default(),
                seed,
            ))),
            None => Client::InProcess(self.fleet.handle()),
        }
    }

    pub fn observe(&self, shard: u32, features: Vec<f64>, gt: Option<f64>) {
        self.fleet.observe(shard, ArrivedQuery { features, gt });
    }

    /// The snapshot shard `shard` serves right now.
    pub fn current(&self, shard: u32) -> Snapshot {
        Snapshot(self.fleet.cell(shard).expect("shard exists").load().1)
    }

    pub fn version(&self, shard: u32) -> u64 {
        self.fleet.cell(shard).expect("shard exists").version()
    }

    /// A handle that outlives the fleet, to read the last published
    /// snapshot after shutdown.
    pub fn cell(&self, shard: u32) -> CellH {
        CellH(Arc::clone(self.fleet.cell(shard).expect("shard exists")))
    }

    /// Stops the server (when there is one), drains and joins the fleet and
    /// its adaptation worker.
    pub fn shutdown(self) -> Stopped {
        let net = self.server.map(|s| {
            let n = s.shutdown();
            NetCounters {
                deadline_trips: n.deadline_trips,
                decode_errors: n.decode_errors,
                cut_connections: n.cut_connections,
            }
        });
        let (f, _, adapt) = self.fleet.shutdown();
        Stopped {
            fleet: FleetCounters {
                served: f.served,
                shed: f.shed,
                shed_deadline: f.shed_deadline,
                rejected: f.rejected,
                packs: f.packs,
                gemm_groups: f.gemm_groups,
                packed_requests: f.packed_requests,
                sub_batches: f.sub_batches,
                inference_nanos: f.inference_nanos,
            },
            net,
            adapt: adapt.first().map(|(_, a)| AdaptCounters {
                invocations: a.invocations as u64,
                commits: a.commits as u64,
                rollbacks: a.rollbacks as u64,
                publish_failures: a.publish_failures as u64,
                dropped_observations: a.dropped_observations as u64,
                annotated: a.annotated as u64,
                generated: a.generated as u64,
            }),
        }
    }
}

/// A shard's snapshot cell.
pub struct CellH(Arc<SnapshotCell<ModelSnapshot>>);

impl CellH {
    pub fn load(&self) -> (u64, Snapshot) {
        let (v, snap) = self.0.load();
        (v, Snapshot(snap))
    }
}

/// One answered request.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    pub bits: u64,
    pub generation: u64,
}

pub enum Client {
    InProcess(FleetHandle),
    Tcp(Box<EstimateClient>),
}

impl Client {
    /// One estimate; shed, refused and errored requests are `None`.
    pub fn estimate(&mut self, shard: u32, features: &[f64]) -> Option<Reply> {
        let est = match self {
            Client::InProcess(h) => h.estimate(shard, features.to_vec()).ok(),
            Client::Tcp(c) => c.estimate_shard(shard, features).ok(),
        }?;
        Some(Reply {
            bits: est.value.to_bits(),
            generation: est.generation,
        })
    }

    /// `(reconnects, absorbed network errors)` of a TCP client.
    pub fn net_stats(&self) -> (u64, u64) {
        match self {
            Client::InProcess(_) => (0, 0),
            Client::Tcp(c) => {
                let s = c.stats();
                (s.reconnects, s.net_errors)
            }
        }
    }
}

/// Wire cost of one request and its reply: `(encode ns, decode ns, bytes)`
/// from direct calls of the codec, `iters` times each. Bytes count both
/// payloads plus the 8-byte length + CRC frame header of each.
pub fn codec_cost(features: &[f64], iters: usize) -> (f64, f64, f64) {
    let req = Msg::EstimateReqShard {
        id: 1,
        shard: 0,
        features: features.to_vec(),
    };
    let ok = Msg::EstimateOk {
        id: 1,
        value_bits: 1234.5f64.to_bits(),
        generation: 3,
        batch: 2,
    };
    let (req_bytes, ok_bytes) = (encode(&req), encode(&ok));
    let t0 = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(encode(std::hint::black_box(&req)));
        std::hint::black_box(encode(std::hint::black_box(&ok)));
    }
    let enc = t0.elapsed().as_nanos() as f64 / iters as f64;
    let t1 = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(decode(std::hint::black_box(&req_bytes)).is_ok());
        std::hint::black_box(decode(std::hint::black_box(&ok_bytes)).is_ok());
    }
    let dec = t1.elapsed().as_nanos() as f64 / iters as f64;
    (enc, dec, (req_bytes.len() + ok_bytes.len() + 16) as f64)
}

// ------------------------------------------------- the hand-driven round

/// What one hand-driven round did.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundReport {
    /// Drift modes `det_drft` flagged, as c1..c4 bits (0 = no drift).
    pub mode_bits: u8,
    pub delta_m: f64,
    pub committed: bool,
    pub annotated: usize,
    pub generated: usize,
    pub trained_on: usize,
    pub gan_retries: usize,
    pub rows_scanned: u64,
    pub labels_logged: usize,
    pub quant_refused: bool,
}

struct RoundShared {
    cell: Arc<SnapshotCell<ModelSnapshot>>,
    store: Option<Arc<Mutex<DurableStore>>>,
    /// `(invoke span id, round id, quant refused)` of the round in flight.
    ctx: Mutex<(u64, u64, bool)>,
}

/// The adaptation worker's loop body, taken apart so that each call into a
/// layer carries its own span: probe → supervised invoke (annotation and
/// WAL appends inside it) → quantize gate → publish → checkpoint. It does
/// the same work as the real driver's round, in the same order, on the
/// calling thread.
pub struct HandDriver<'a> {
    prep: &'a Prepared,
    ctl: WarperController,
    model: Box<dyn CardinalityEstimator>,
    sup: Supervisor,
    probe: SketchProbe,
    canaries: CanarySet,
    table: SharedTable,
    shared: Arc<RoundShared>,
    tracer: Arc<Tracer>,
}

impl<'a> HandDriver<'a> {
    pub fn new(plan: AdaptPlan<'a>, snapshot: &Snapshot, tracer: Arc<Tracer>) -> Self {
        let mut ctl = plan.ctl.controller(plan.prep, plan.baseline);
        let cfg = adapt_config(plan.invoke_every, plan.inbox, plan.seed);
        let shared = Arc::new(RoundShared {
            cell: Arc::new(SnapshotCell::new_shared(Arc::clone(&snapshot.0))),
            store: plan.store.map(|s| Arc::clone(&s.store)),
            ctx: Mutex::new((0, 0, false)),
        });
        let hook_shared = Arc::clone(&shared);
        let hook_tracer = Arc::clone(&tracer);
        let sup =
            Supervisor::new(cfg.supervisor).with_commit_hook(Box::new(move |state, model| {
                let (parent, unit, _) = *unpoison(hook_shared.ctx.lock());
                let next_gen = hook_shared.cell.version() + 1;
                let gated = {
                    let _s = hook_tracer.span("serve.quant.gate", parent, unit);
                    serving_copy(model, &probe_features(state))
                };
                if let Some((serving, served, outcome)) = gated {
                    if matches!(outcome, QuantOutcome::Refused(_)) {
                        unpoison(hook_shared.ctx.lock()).2 = true;
                    }
                    let _s = hook_tracer.span("serve.snapshot.publish", parent, unit);
                    if let Ok(snap) = ModelSnapshot::committed(next_gen, serving, state) {
                        hook_shared.cell.publish(snap.with_precision(served));
                    }
                }
                if let Some(store) = &hook_shared.store {
                    let _s = hook_tracer.span("durable.checkpoint", parent, unit);
                    let _ = unpoison(store.lock()).note_commit(state, Some(model));
                }
            }));
        let mut rng = StdRng::seed_from_u64(derive_seed(cfg.seed, seed_stream::ADAPT));
        let (probe, canaries) = {
            let t = unpoison(plan.table.0.read());
            let probe = match ctl.sketch_baseline() {
                Some(b) => SketchProbe::from_baseline(b.clone(), ctl.config()),
                None => SketchProbe::new(&t, ctl.config()),
            };
            (probe, CanarySet::new(&t, cfg.canaries, &mut rng))
        };
        ctl.set_sketch_baseline(Some(probe.baseline().clone()));
        Self {
            prep: plan.prep,
            ctl,
            model: plan.model.fork().0,
            sup,
            probe,
            canaries,
            table: plan.table,
            shared,
            tracer,
        }
    }

    /// One round over `arrived` (`(features, label)` pairs).
    pub fn round(&mut self, arrived: &[(Vec<f64>, Option<f64>)], unit: u64) -> RoundReport {
        let tracer = Arc::clone(&self.tracer);
        let root = tracer.span("warper.round", 0, unit);
        let batch: Vec<ArrivedQuery> = arrived
            .iter()
            .map(|(f, gt)| ArrivedQuery {
                features: f.clone(),
                gt: *gt,
            })
            .collect();
        let telemetry = {
            let _s = tracer.span("warper.probe", root.id(), unit);
            let t = unpoison(self.table.0.read());
            self.probe.telemetry(&t, &self.canaries)
        };
        let mut report = RoundReport::default();
        let invoke = tracer.span("warper.invoke", root.id(), unit);
        *unpoison(self.shared.ctx.lock()) = (invoke.id(), unit, false);
        let store = self.shared.store.clone();
        let (fmap, table) = (&self.prep.fmap, &self.table);
        let annotator = annotator();
        let (mut rows_scanned, mut labels_logged) = (0u64, 0usize);
        let invoke_id = invoke.id();
        if let Some(store) = &store {
            let _s = tracer.span("durable.wal_append", invoke_id, unit);
            let mut s = unpoison(store.lock());
            for q in &batch {
                if let Some(gt) = q.gt {
                    labels_logged += usize::from(s.append_label(&q.features, gt, true).is_ok());
                }
            }
        }
        let mut annotate = |qs: &[Vec<f64>]| -> Vec<Option<f64>> {
            let preds: Vec<RangePredicate> = qs.iter().map(|f| fmap.defeaturize(f)).collect();
            let labels: Vec<Option<f64>> = {
                let _s = tracer.span("query.annotate", invoke_id, unit);
                let t = unpoison(table.0.read());
                annotator
                    .count_batch_with_cost(&t, &preds)
                    .into_iter()
                    .map(|o| {
                        rows_scanned += o.rows_scanned as u64;
                        Some(o.count as f64)
                    })
                    .collect()
            };
            if let Some(store) = &store {
                let _s = tracer.span("durable.wal_append", invoke_id, unit);
                let mut s = unpoison(store.lock());
                for (f, l) in qs.iter().zip(&labels) {
                    if let Some(gt) = l {
                        labels_logged += usize::from(s.append_label(f, *gt, false).is_ok());
                    }
                }
            }
            labels
        };
        let rep = self.sup.invoke(
            &mut self.ctl,
            self.model.as_mut(),
            &batch,
            &telemetry,
            &mut annotate,
        );
        drop(invoke);
        report.mode_bits = u8::from(rep.mode.c1)
            | u8::from(rep.mode.c2) << 1
            | u8::from(rep.mode.c3) << 2
            | u8::from(rep.mode.c4) << 3;
        report.delta_m = rep.delta_m;
        report.committed = rep.rollback.is_none();
        report.annotated = rep.annotated;
        report.generated = rep.generated;
        report.trained_on = rep.trained_on;
        report.gan_retries = rep.gan_retries;
        report.rows_scanned = rows_scanned;
        report.labels_logged = labels_logged;
        report.quant_refused = unpoison(self.shared.ctx.lock()).2;
        report
    }

    pub fn probe_counts(&self) -> (u64, u64, u64) {
        let s = self.probe.stats;
        (s.fast_negatives, s.fast_positives, s.rescans)
    }

    /// The snapshot the hand-driven cell serves now.
    pub fn served(&self) -> Snapshot {
        Snapshot(self.shared.cell.load().1)
    }
}
