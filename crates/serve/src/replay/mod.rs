//! Load-generator / replay harness.
//!
//! One replay: train a model offline ([`prepare_single_table`]), start a
//! [`Fleet`] of `shards` shards that all serve clones of its snapshot (the
//! sharing the cross-shard packer exploits; a single-table replay is the
//! one-shard fleet), then have `clients` threads replay a pre-generated
//! query stream against it — shard assignment Zipf-skewed, optionally paced
//! by an [`ArrivalProcess`], optionally hitting a mid-run [`DriftEvent`],
//! and optionally adapting online ([`AdaptMode`]) on the first
//! `adapt_shards` shards. Per-request latency lands in per-client
//! [`LatencyHistogram`]s (merged at the end), and every served estimate is
//! folded into an order-independent checksum so two replays can be compared
//! bit-for-bit.
//!
//! # Determinism
//!
//! Query streams are generated *before* the run from the
//! [`seed_stream::LOADGEN`] and [`seed_stream::DRIFT`] streams of the
//! master seed and shard assignments from [`seed_stream::SHARD`], so what
//! arrives where never depends on thread timing, and changing the shard
//! count or skew never perturbs the queries themselves. Batched inference
//! is bit-identical to per-query inference (the GEMM accumulates each
//! output row in the same order regardless of batch size), so *which* pack
//! a request rides in — across runs, client counts, worker counts, packing
//! on or off — cannot change its answer; only the model generation serving
//! it can. [`AdaptMode::Synchronous`] therefore pins the whole replay:
//! adaptation runs only at segment barriers (every `invoke_every` queries
//! and at the drift point, adapting shards stepped in id order), where
//! every in-flight request has drained, so each query is answered by a
//! deterministic generation and [`ReplayReport::estimates_checksum`]
//! reproduces exactly — for any client count. [`AdaptMode::Background`]
//! trades that for free-running adaptation (the latency-realistic mode) on
//! the adapting shards only.
//!
//! Shard 0 is the original: it adapts with the controller that was trained
//! and the master seed, so a one-shard replay is the single-table replay.
//! Every further adapting shard is a clone of that controller's state,
//! re-seeded from the [`seed_stream::SHARD`] stream by shard id.

use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use warper_ce::Precision;
use warper_core::runner::{DataDriftKind, ModelKind};
use warper_core::{
    derive_seed, prepare_single_table, seed_stream, ArrivedQuery, SupervisorConfig, WarperConfig,
    WarperController, WarperError,
};
use warper_durable::{
    DurabilityConfig, DurabilityStats, DurableStore, RecoveryReport, Vfs, VfsError,
};
use warper_metrics::{gmq, LatencyHistogram, PAPER_THETA};
use warper_query::{Annotator, RangePredicate};
use warper_storage::{Table, TableSketch};
use warper_workload::ArrivalProcess;

use crate::adapt::{
    bring_up, build_controller, initial_snapshot, AdaptConfig, AdaptStats, Adapter, ShardAdapt,
};
use crate::fleet::{
    DriftRanker, Fleet, FleetConfig, FleetStats, ShardDrift, ShardKey, ShardSpec, ShardStats,
};
use crate::service::ServeError;

mod client;
mod net;

use client::{drive, query_stream, shard_assignment, ClientLog, Served};
pub use net::{run_net_loadgen, NetLoadReport, NetLoadSpec};

/// What changes mid-run.
#[derive(Debug, Clone)]
pub enum DriftKind {
    /// The table is mutated (c1).
    Data(DataDriftKind),
    /// Later queries come from a different workload mix (c2/c3).
    Workload {
        /// Post-drift workload notation, e.g. `"w45"`.
        new_mix: String,
    },
}

/// A drift injected after `at_query` requests have been served.
#[derive(Debug, Clone)]
pub struct DriftEvent {
    /// Request index at which the drift lands (a segment barrier).
    pub at_query: usize,
    /// What drifts.
    pub kind: DriftKind,
}

/// How the adapting shards adapt during the replay.
pub enum AdaptMode {
    /// No adaptation: the initial snapshot serves everything.
    None,
    /// One free-running background worker per adapting shard (the
    /// deployment shape): arrivals stream into its inbox and committed
    /// updates hot-swap mid-traffic. Seed and precision come from the spec.
    Background(AdaptConfig),
    /// Adaptation only at segment barriers, every `invoke_every` queries —
    /// the bit-deterministic mode.
    Synchronous {
        /// Supervisor policy.
        supervisor: SupervisorConfig,
        /// Barrier spacing in queries.
        invoke_every: usize,
    },
}

/// Opens the durable state directory of one shard — typically a
/// [`warper_durable::StdVfs`] over `state_dir/{key.dir_name()}` in
/// deployments, a [`warper_durable::ScopedVfs`] over one shared in-memory
/// VFS in tests.
pub type VfsFactory = Box<dyn Fn(&ShardKey) -> Result<Arc<dyn Vfs>, VfsError> + Send + Sync>;

/// Crash-safe persistence for a replay.
///
/// Every *adapting* shard gets its own store from [`VfsFactory`] — its own
/// WAL and checkpoint lineage, opened before serving: a prior run's
/// checkpoint + WAL resume the shard's controller (and its model, which
/// then also serves, when the snapshot carried one), every annotation label
/// is write-ahead logged, and the supervisor's commit hook drives periodic
/// checkpoints. The same directories handed to a later replay resume with
/// zero acknowledged-label loss. Non-adapting shards are stateless replicas
/// of the base model and persist nothing.
pub struct DurableReplay {
    /// Checkpoint cadence and friends, applied to every shard store.
    pub cfg: DurabilityConfig,
    /// Factory yielding each shard's state directory.
    pub vfs_for: VfsFactory,
}

impl DurableReplay {
    /// One state directory, for a replay with one adapting shard.
    pub fn single(vfs: Arc<dyn Vfs>, cfg: DurabilityConfig) -> Self {
        Self {
            cfg,
            vfs_for: Box::new(move |_| Ok(Arc::clone(&vfs))),
        }
    }
}

/// A full replay specification.
pub struct ReplaySpec {
    /// CE model every shard serves (one offline training run).
    pub model: ModelKind,
    /// Training/pre-drift workload notation.
    pub mix: String,
    /// Offline training-set size.
    pub n_train: usize,
    /// Requests to replay across the whole fleet.
    pub n_queries: usize,
    /// Concurrent client threads.
    pub clients: usize,
    /// Number of `(tenant, table)` shards.
    pub shards: usize,
    /// Zipf exponent of the shard-popularity skew (0 = uniform).
    pub zipf_s: f64,
    /// Fleet shape (workers, packing, fairness quantum, ...).
    pub fleet: FleetConfig,
    /// Warper controller configuration (adapting shards only).
    pub warper: WarperConfig,
    /// Adaptation mode of the adapting shards.
    pub adapt: AdaptMode,
    /// The first `adapt_shards` shards adapt (and own a durable lineage
    /// when [`ReplaySpec::durable`] is set) unless `adapt` is
    /// [`AdaptMode::None`].
    pub adapt_shards: usize,
    /// Mid-run drift, if any. A data drift lands the same post-drift table
    /// on every adapting shard.
    pub drift: Option<DriftEvent>,
    /// The first `drift_shards` *adapting* shards have data drift applied to
    /// their tables before serving starts, with intensity decreasing by
    /// shard id — the scenario the sketch-driven [`DriftRanker`] triages.
    pub drift_shards: usize,
    /// Global annotation budget split across adapting shards by drift rank
    /// (each shard's `n_p` becomes its grant). 0 keeps every shard's
    /// configured `n_p` untouched.
    pub annotation_budget: usize,
    /// Master seed; all randomness derives from its named streams.
    pub seed: u64,
    /// Open-loop pacing. `None` replays closed-loop at full speed.
    pub pace: Option<ArrivalProcess>,
    /// Ground-truth spot checks per phase (0 disables).
    pub spot_checks: usize,
    /// Crash-safe state directories. `None` runs purely in memory.
    pub durable: Option<DurableReplay>,
    /// Serving precision: every published snapshot (including the initial
    /// one) is quantized to this and GMQ-gated against its f64 source;
    /// failures fall back to f64. Training stays f64 regardless.
    pub precision: Precision,
}

impl Default for ReplaySpec {
    fn default() -> Self {
        Self {
            model: ModelKind::LmMlp,
            mix: "w1".into(),
            n_train: 400,
            n_queries: 1_000,
            clients: 4,
            shards: 1,
            zipf_s: 1.1,
            fleet: FleetConfig::default(),
            warper: WarperConfig::default(),
            adapt: AdaptMode::None,
            adapt_shards: 1,
            drift: None,
            drift_shards: 0,
            annotation_budget: 0,
            seed: 7,
            pace: None,
            spot_checks: 0,
            durable: None,
            precision: Precision::F32,
        }
    }
}

/// What the durability layer did for one shard during one replay.
#[derive(Debug, Clone)]
pub struct DurabilityReport {
    /// What recovery found, when the state directory held a prior image the
    /// replay resumed (`None` for a fresh directory).
    pub recovery: Option<RecoveryReport>,
    /// The store's counters over this replay: checkpoints, WAL appends,
    /// their failures and wall-clock.
    pub stats: DurabilityStats,
    /// Newest checkpoint sequence when the replay ended.
    pub final_seq: u64,
}

/// One shard's slice of the replay outcome.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Who the shard serves.
    pub key: ShardKey,
    /// The shard's counters at shutdown.
    pub stats: ShardStats,
    /// Served requests per wall-clock second, this shard only.
    pub qps: f64,
}

/// Everything a replay measured.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Requests answered with an estimate, fleet-wide.
    pub served: usize,
    /// Requests shed (admission or deadline), fleet-wide.
    pub shed: usize,
    /// Requests that failed for any other reason.
    pub errors: usize,
    /// Merged per-request latency (nanoseconds).
    pub latency: LatencyHistogram,
    /// Wall-clock seconds for the serving phase (excludes offline
    /// preparation).
    pub wall_secs: f64,
    /// Served requests per wall-clock second, fleet-wide.
    pub throughput_qps: f64,
    /// Model generations published during the run, summed over shards.
    pub generations_published: u64,
    /// Largest `cell version − serving generation` any response observed.
    pub max_staleness: u64,
    /// Order-independent FNV checksum over `(index, estimate bits)` of all
    /// served requests — equal checksums mean bit-identical estimate
    /// streams (see module docs for when it reproduces).
    pub estimates_checksum: u64,
    /// GMQ of served estimates vs fresh ground truth, pre-drift phase (the
    /// whole stream when nothing drifts mid-run).
    pub spot_gmq_pre: Option<f64>,
    /// Same for the post-drift phase.
    pub spot_gmq_post: Option<f64>,
    /// Precision shard 0's final snapshot served at. Equals the requested
    /// [`ReplaySpec::precision`] unless the quantized copy was refused by
    /// the GMQ gate (or the model has no quantized path), in which case the
    /// f64 fallback served.
    pub precision: Precision,
    /// Fleet counters: packing, GEMM grouping, shed splits.
    pub fleet: FleetStats,
    /// Per-shard counters, indexed by shard id.
    pub per_shard: Vec<ShardReport>,
    /// Adaptation stats of each adapting shard, by shard id.
    pub adapt: Vec<(u32, AdaptStats)>,
    /// Sketch-measured pre-serving drift of each adapting shard, worst
    /// first (see [`DriftRanker::rank`]); empty when no shard adapts.
    pub drift: Vec<ShardDrift>,
    /// Annotation-budget grants per shard, in `drift` order. Empty when
    /// [`ReplaySpec::annotation_budget`] is 0.
    pub annotation_grants: Vec<(u32, usize)>,
    /// Durability activity of each shard that owned a store.
    pub durability: Vec<(u32, DurabilityReport)>,
}

/// Runs one replay against `table`.
///
/// All shards serve the same schema (one offline training run shared
/// fleet-wide — the multi-schema generalization only multiplies preparation
/// cost, not serving behavior). Errors on invalid workload notation, a
/// model that cannot snapshot (serving requires an immutable copy to
/// publish), or a durable store that cannot open.
pub fn run_replay(table: &Table, spec: &ReplaySpec) -> Result<ReplayReport, WarperError> {
    let shards = spec.shards.max(1);
    let n = spec.n_queries;
    let drift_at = spec.drift.as_ref().map_or(n, |d| d.at_query.min(n));
    let durable_err =
        |e: warper_durable::DurabilityError| WarperError::InvalidState(format!("durable: {e}"));

    // ---- Offline phase: one training run, pre-generated streams.
    let prepared = prepare_single_table(table, &spec.mix, spec.model, spec.n_train, spec.seed)?;
    let fmap = &prepared.fmap;

    let mut loadgen = StdRng::seed_from_u64(derive_seed(spec.seed, seed_stream::LOADGEN));
    let mut preds = query_stream(table, &spec.mix, drift_at, &mut loadgen)?;

    // The post-drift table is materialized up front (same DRIFT-stream RNG
    // the live swap uses), so phase-2 queries can be pre-generated against
    // the exact data they will run on.
    let drifted_table: Option<Table> = match spec.drift.as_ref().map(|d| &d.kind) {
        Some(DriftKind::Data(kind)) => {
            let mut t = table.clone();
            let mut rng = StdRng::seed_from_u64(derive_seed(spec.seed, seed_stream::DRIFT));
            kind.apply(&mut t, &mut rng);
            Some(t)
        }
        Some(DriftKind::Workload { .. }) => Some(table.clone()),
        None => None,
    };
    if let (Some(drift), Some(post)) = (spec.drift.as_ref(), drifted_table.as_ref()) {
        let mix2 = match &drift.kind {
            DriftKind::Workload { new_mix } => new_mix.as_str(),
            DriftKind::Data(_) => spec.mix.as_str(),
        };
        preds.extend(query_stream(post, mix2, n - drift_at, &mut loadgen)?);
    }
    let feats: Vec<Vec<f64>> = preds.iter().map(|p| fmap.featurize(p)).collect();

    let assign = shard_assignment(spec.seed, shards, spec.zipf_s, n);

    // ---- Adaptation shape. Synchronous mode is the same worker
    // configuration, stepped by the harness instead of a thread.
    let adapt_cfg: Option<AdaptConfig> = match &spec.adapt {
        AdaptMode::None => None,
        AdaptMode::Background(cfg) => Some(*cfg),
        AdaptMode::Synchronous {
            supervisor,
            invoke_every,
        } => Some(AdaptConfig {
            supervisor: *supervisor,
            invoke_every: *invoke_every,
            canaries: spec.warper.canaries,
            ..AdaptConfig::default()
        }),
    };
    let synchronous = matches!(spec.adapt, AdaptMode::Synchronous { .. });
    let n_adapt = adapt_cfg.map_or(0, |_| spec.adapt_shards.min(shards));

    // ---- Base serving snapshot, gated once at the requested precision and
    // shared by every shard through one Arc, which is what makes cross-shard
    // packing possible.
    let quant_tolerance = adapt_cfg
        .map_or_else(SupervisorConfig::default, |c| c.supervisor)
        .quant_gmq_tolerance;
    let base_snap = initial_snapshot(
        prepared.model.as_ref(),
        &prepared.training_set,
        spec.precision,
        quant_tolerance,
    )?;

    // ---- Per-shard tables + sketch drift triage. Every adapting shard
    // owns a clone of the base table. The ranker baselines each shard on
    // its pre-drift sketch rollup, the first `drift_shards` tables are
    // mutated with intensity decreasing by shard id, and the global
    // annotation budget is granted worst-drift-first — all from merged
    // sketches, without rescanning a single shard.
    let n_drift = spec.drift_shards.min(n_adapt);
    let mut ranker = DriftRanker::new();
    let mut shard_tables: Vec<Arc<RwLock<Table>>> = Vec::with_capacity(n_adapt);
    let mut pre_drift: Vec<TableSketch> = Vec::with_capacity(n_adapt);
    {
        let mut drift_rng = StdRng::seed_from_u64(derive_seed(spec.seed, seed_stream::DRIFT));
        for id in 0..n_adapt {
            let mut t = table.clone();
            let base = t.table_sketch().as_ref().clone();
            ranker.baseline(id as u32, base.clone());
            if id < n_drift {
                // Intensity ladder: shard 0 is always the worst hit.
                let frac = 0.5 / (id as f64 + 1.0);
                warper_storage::drift::update_rows(&mut t, frac, 0.6, &mut drift_rng);
            }
            pre_drift.push(base);
            shard_tables.push(Arc::new(RwLock::new(t)));
        }
    }
    let current: Vec<(u32, TableSketch)> = shard_tables
        .iter()
        .enumerate()
        .map(|(id, t)| {
            let t = t.read().unwrap_or_else(PoisonError::into_inner);
            (id as u32, t.table_sketch().as_ref().clone())
        })
        .collect();
    let drift_rank = ranker.rank(&current);
    let annotation_grants = if spec.annotation_budget > 0 {
        DriftRanker::allocate(&drift_rank, spec.annotation_budget)
    } else {
        Vec::new()
    };

    // ---- Per-shard specs. One controller is trained (GAN pretrain is the
    // expensive part): shard 0 keeps it, every other shard restores a clone
    // of its state — as does any shard resuming a durable lineage or
    // capped by a budget grant.
    let mut trained = (n_adapt > 0).then(|| build_controller(&prepared, spec.warper, spec.seed));
    let base_state = trained.as_ref().map(WarperController::to_state);
    let mut specs: Vec<ShardSpec> = Vec::with_capacity(shards);
    let mut stepped: Vec<(u32, ShardAdapt)> = Vec::new();
    let mut durable_shards: Vec<(u32, Arc<Mutex<DurableStore>>, Option<RecoveryReport>)> =
        Vec::new();
    for id in 0..shards {
        let key = ShardKey::new(format!("tenant-{id:04}"), "main");
        let mut snapshot = Arc::clone(&base_snap);
        let mut adapt = None;
        if let (Some(cfg), true) = (adapt_cfg, id < n_adapt) {
            let mut lineage = match &spec.durable {
                Some(d) => {
                    let vfs = (d.vfs_for)(&key)
                        .map_err(|e| WarperError::InvalidState(format!("shard {key}: vfs: {e}")))?;
                    let (s, rec) = DurableStore::open(vfs, d.cfg).map_err(durable_err)?;
                    Some((Arc::new(Mutex::new(s)), rec))
                }
                None => None,
            };
            // The shard's slice of the global annotation budget becomes its
            // per-invocation annotation cap.
            let grant = annotation_grants
                .iter()
                .find(|&&(s, _)| s == id as u32)
                .map(|&(_, g)| g);
            let recovered = lineage.as_mut().and_then(|(_, rec)| rec.as_mut());
            let original = trained.take().filter(|_| id == 0 && grant.is_none());
            let fresh = match (recovered, original) {
                (Some(rec), _) => {
                    rec.state.cfg.n_p = grant.unwrap_or(rec.state.cfg.n_p);
                    None
                }
                (None, Some(ctl)) => Some(ctl),
                (None, None) => {
                    let mut state = base_state
                        .clone()
                        .unwrap_or_else(|| unreachable!("base state exists when n_adapt > 0"));
                    state.cfg.n_p = grant.unwrap_or(state.cfg.n_p);
                    Some(WarperController::from_state(state)?)
                }
            };
            if let Some((store, rec)) = &lineage {
                let report = rec.as_ref().map(|r| r.report.clone());
                durable_shards.push((id as u32, Arc::clone(store), report));
            }
            let cfg = AdaptConfig {
                seed: match id {
                    0 => spec.seed,
                    _ => derive_seed(derive_seed(spec.seed, seed_stream::SHARD), id as u64),
                },
                precision: spec.precision,
                ..cfg
            };
            let table = Arc::clone(&shard_tables[id]);
            let (snap, mut shard_adapt) = bring_up(
                &prepared,
                &base_snap,
                table,
                lineage,
                fresh,
                spec.warper,
                cfg,
            )?;
            snapshot = snap;
            // A fresh controller adopts the shard's pre-drift sketch rollup
            // as its baseline, so the probe sees the pre-serving drift as
            // c1 drift; a recovered one keeps its own.
            if shard_adapt.ctl.sketch_baseline().is_none() {
                shard_adapt
                    .ctl
                    .set_sketch_baseline(Some(pre_drift[id].clone()));
            }
            if let Some(store) = &shard_adapt.store {
                // A fresh lineage gets an immediate base checkpoint so
                // labels logged before the first commit have a snapshot to
                // replay onto.
                let mut s = store.lock().unwrap_or_else(PoisonError::into_inner);
                if s.seq() == 0 {
                    let _ = s.checkpoint(
                        &shard_adapt.ctl.to_state(),
                        Some(shard_adapt.model.as_ref()),
                    );
                }
            }
            if synchronous {
                stepped.push((id as u32, shard_adapt));
            } else {
                adapt = Some(shard_adapt);
            }
        }
        specs.push(ShardSpec {
            key,
            snapshot,
            adapt,
        });
    }
    let keys: Vec<ShardKey> = specs.iter().map(|s| s.key.clone()).collect();

    // ---- Segment plan: barriers at the drift point and (synchronous mode)
    // every `invoke_every` queries.
    let mut boundaries: Vec<usize> = vec![0, drift_at, n];
    if let AdaptMode::Synchronous { invoke_every, .. } = &spec.adapt {
        let step = (*invoke_every).max(1);
        boundaries.extend((1..).map(|k| k * step).take_while(|&b| b < n));
    }
    boundaries.sort_unstable();
    boundaries.dedup();

    // ---- Serve.
    let fleet = Fleet::start(specs, spec.fleet);
    let cells: Vec<_> = (0..shards as u32)
        .filter_map(|id| fleet.cell(id).cloned())
        .collect();
    let mut stepped: Vec<(u32, Adapter)> = stepped
        .into_iter()
        .map(|(id, a)| (id, Adapter::new(a, Arc::clone(&cells[id as usize]))))
        .collect();
    let handle = fleet.handle();
    let observed = if synchronous { 0 } else { n_adapt as u32 };
    let start = Instant::now();
    let mut logs: Vec<ClientLog> = Vec::new();
    let mut max_staleness = 0u64;

    for w in boundaries.windows(2) {
        let (seg_start, seg_end) = (w[0], w[1]);
        if seg_start == seg_end {
            continue;
        }
        let seg = drive(
            seg_start..seg_end,
            spec.clients,
            spec.pace.as_ref().map(|p| (p, start)),
            |_| 0u64,
            |stale, idx| match handle.estimate(assign[idx], feats[idx].clone()) {
                Ok(est) => {
                    let version = cells[assign[idx] as usize].version();
                    *stale = (*stale).max(version.saturating_sub(est.generation));
                    Served::Ok(est.value)
                }
                Err(ServeError::Shed | ServeError::ShedDeadline) => Served::Shed,
                Err(_) => Served::Failed,
            },
            |idx| {
                if assign[idx] < observed {
                    let features = feats[idx].clone();
                    fleet.observe(assign[idx], ArrivedQuery { features, gt: None });
                }
            },
        );
        for (log, stale) in seg {
            logs.push(log);
            max_staleness = max_staleness.max(stale);
        }

        // Barrier work: drift lands, then synchronous adaptation runs.
        if seg_end == drift_at {
            if let Some(post) = drifted_table.as_ref() {
                for t in &shard_tables {
                    *t.write().unwrap_or_else(PoisonError::into_inner) = post.clone();
                }
            }
        }
        for (id, adapter) in &mut stepped {
            let arrived: Vec<ArrivedQuery> = (seg_start..seg_end)
                .filter(|&idx| assign[idx] == *id)
                .map(|idx| ArrivedQuery {
                    features: feats[idx].clone(),
                    gt: None,
                })
                .collect();
            adapter.step(&arrived);
        }
    }

    let wall_secs = start.elapsed().as_secs_f64();
    let precision = cells[0].load().1.precision;
    let (fleet_stats, shard_stats, mut adapt) = fleet.shutdown();
    adapt.extend(stepped.into_iter().map(|(id, a)| (id, a.finish())));

    // ---- Durability summaries (workers and adapters have joined).
    let durability: Vec<(u32, DurabilityReport)> = durable_shards
        .into_iter()
        .map(|(id, store, recovery)| {
            let s = store.lock().unwrap_or_else(PoisonError::into_inner);
            let report = DurabilityReport {
                recovery,
                stats: s.stats(),
                final_seq: s.seq(),
            };
            (id, report)
        })
        .collect();

    let merged = ClientLog::merged(logs);
    let results = &merged.results;

    // ---- Ground-truth spot checks: GMQ of what was actually served vs
    // fresh counts on the (base) table of each phase.
    let annotator = Annotator::new();
    let spot = |lo: usize, hi: usize, t: &Table| -> Option<f64> {
        if spec.spot_checks == 0 || lo >= hi {
            return None;
        }
        let slice: Vec<&(usize, u64)> = results
            .iter()
            .filter(|(idx, _)| (lo..hi).contains(idx))
            .collect();
        if slice.is_empty() {
            return None;
        }
        let stride = (slice.len() / spec.spot_checks).max(1);
        let picked: Vec<&(usize, u64)> = slice.iter().step_by(stride).copied().collect();
        let checked: Vec<RangePredicate> =
            picked.iter().map(|(idx, _)| preds[*idx].clone()).collect();
        let actuals: Vec<f64> = annotator
            .count_batch(t, &checked)
            .into_iter()
            .map(|c| c as f64)
            .collect();
        let ests: Vec<f64> = picked
            .iter()
            .map(|(_, bits)| f64::from_bits(*bits))
            .collect();
        Some(gmq(&ests, &actuals, PAPER_THETA))
    };
    let spot_gmq_pre = spot(0, drift_at, table);
    let spot_gmq_post = drifted_table
        .as_ref()
        .and_then(|post| spot(drift_at, n, post));

    let served = results.len();
    let per_shard: Vec<ShardReport> = keys
        .into_iter()
        .zip(shard_stats)
        .map(|(key, stats)| ShardReport {
            key,
            qps: stats.served as f64 / wall_secs.max(1e-9),
            stats,
        })
        .collect();
    Ok(ReplayReport {
        served,
        shed: merged.shed,
        errors: merged.errors,
        estimates_checksum: merged.checksum(),
        latency: merged.latency,
        wall_secs,
        throughput_qps: served as f64 / wall_secs.max(1e-9),
        generations_published: per_shard.iter().map(|s| s.stats.generation).sum(),
        precision,
        max_staleness,
        spot_gmq_pre,
        spot_gmq_post,
        fleet: fleet_stats,
        per_shard,
        adapt,
        drift: drift_rank,
        annotation_grants,
        durability,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use warper_storage::{generate, DatasetKind};

    /// The node-scale controller shape (small modules, short retraining).
    fn small_warper() -> WarperConfig {
        crate::PrimarySpec::default().warper
    }

    #[test]
    fn plain_replay_serves_everything() {
        let table = generate(DatasetKind::Prsa, 1_500, 5);
        let spec = ReplaySpec {
            n_train: 200,
            n_queries: 300,
            clients: 3,
            spot_checks: 20,
            seed: 13,
            ..Default::default()
        };
        let rep = run_replay(&table, &spec).unwrap();
        assert_eq!(rep.served, 300);
        assert_eq!(rep.shed, 0);
        assert_eq!(rep.errors, 0);
        assert_eq!(rep.generations_published, 0);
        assert_eq!(rep.max_staleness, 0);
        assert_eq!(rep.latency.count(), 300);
        assert!(rep.throughput_qps > 0.0);
        let pre = rep.spot_gmq_pre.unwrap();
        assert!(pre >= 1.0 && pre.is_finite());
        assert!(rep.spot_gmq_post.is_none(), "no drift, no post phase");
    }

    #[test]
    fn drift_with_background_adaptation_hot_swaps_without_errors() {
        let table = generate(DatasetKind::Prsa, 2_000, 6);
        let spec = ReplaySpec {
            n_train: 250,
            n_queries: 400,
            clients: 4,
            drift: Some(DriftEvent {
                at_query: 200,
                kind: DriftKind::Workload {
                    new_mix: "w4".into(),
                },
            }),
            adapt: AdaptMode::Background(AdaptConfig {
                invoke_every: 60,
                max_wait: Duration::from_millis(10),
                ..Default::default()
            }),
            warper: small_warper(),
            seed: 17,
            ..Default::default()
        };
        let rep = run_replay(&table, &spec).unwrap();
        assert_eq!(rep.errors, 0);
        assert_eq!(rep.served + rep.shed, 400);
        let (_, adapt) = rep.adapt[0];
        assert!(adapt.invocations >= 1, "{adapt:?}");
        assert_eq!(adapt.publish_failures, 0);
        assert_eq!(rep.generations_published, adapt.published as u64);
    }

    #[test]
    fn synchronous_replay_is_bit_deterministic_across_runs_and_client_counts() {
        let table = generate(DatasetKind::Prsa, 1_500, 7);
        let spec = |clients: usize, shards: usize| ReplaySpec {
            n_train: 200,
            n_queries: 240,
            clients,
            shards,
            adapt_shards: shards,
            drift: Some(DriftEvent {
                at_query: 120,
                kind: DriftKind::Data(DataDriftKind::SortTruncate { col: 1 }),
            }),
            adapt: AdaptMode::Synchronous {
                supervisor: SupervisorConfig::default(),
                invoke_every: 80,
            },
            warper: small_warper(),
            seed: 23,
            ..Default::default()
        };
        // One shard, then three adapting shards stepped in id order.
        for shards in [1, 3] {
            let a = run_replay(&table, &spec(1, shards)).unwrap();
            let b = run_replay(&table, &spec(1, shards)).unwrap();
            let c = run_replay(&table, &spec(3, shards)).unwrap();
            assert_eq!(a.served, 240);
            assert_eq!(a.shed + a.errors, 0);
            assert_eq!(
                a.estimates_checksum, b.estimates_checksum,
                "same spec must replay bit-identically ({shards} shards)"
            );
            assert_eq!(
                a.estimates_checksum, c.estimates_checksum,
                "client count must not change the estimate stream ({shards} shards)"
            );
            assert_eq!(a.adapt.len(), shards);
            let (_, adapt) = a.adapt[0];
            assert!(adapt.invocations >= 2, "{adapt:?}");
        }
    }

    #[test]
    fn fleet_replay_serves_everything_with_zipf_skew() {
        let table = generate(DatasetKind::Prsa, 1_500, 5);
        let spec = ReplaySpec {
            shards: 16,
            n_train: 200,
            n_queries: 400,
            clients: 4,
            spot_checks: 20,
            seed: 13,
            ..Default::default()
        };
        let rep = run_replay(&table, &spec).unwrap();
        assert_eq!(rep.served, 400);
        assert_eq!(rep.shed, 0);
        assert_eq!(rep.errors, 0);
        assert_eq!(rep.per_shard.len(), 16);
        assert_eq!(rep.latency.count(), 400);
        // Zipf skew: the hottest tenant dominates the coldest.
        let hot = rep.per_shard[0].stats.served;
        let cold = rep.per_shard[15].stats.served;
        assert!(hot > cold, "zipf head {hot} vs tail {cold}");
        // Counters reconcile.
        let sum: u64 = rep.per_shard.iter().map(|s| s.stats.served).sum();
        assert_eq!(sum, 400);
        assert_eq!(rep.fleet.served, 400);
        assert_eq!(rep.fleet.packed_requests, 400);
        // Every shard still shares the base snapshot: all sub-batches pack
        // into single-GEMM groups, so packs ≥ groups and efficiency ≥ 1.
        assert!(rep.fleet.gemm_groups <= rep.fleet.sub_batches);
        assert!(rep.fleet.pack_efficiency() >= 1.0);
        let gmq = rep.spot_gmq_pre.unwrap();
        assert!(gmq >= 1.0 && gmq.is_finite());
    }

    #[test]
    fn drift_triage_is_deterministic_and_budget_conserving() {
        let table = generate(DatasetKind::Prsa, 1_500, 5);
        let spec = || ReplaySpec {
            shards: 6,
            adapt: AdaptMode::Background(AdaptConfig::default()),
            adapt_shards: 3,
            drift_shards: 2,
            annotation_budget: 120,
            n_train: 120,
            n_queries: 150,
            clients: 2,
            warper: WarperConfig {
                hidden: 16,
                n_i: 4,
                ..small_warper()
            },
            seed: 17,
            ..Default::default()
        };
        let a = run_replay(&table, &spec()).unwrap();
        let b = run_replay(&table, &spec()).unwrap();
        // Worst-first by the intensity ladder: shard 0 leads, the undrifted
        // adapting shard trails at exactly zero.
        assert_eq!(a.drift.len(), 3);
        assert_eq!(a.drift[0].shard, 0);
        assert_eq!(a.drift[1].shard, 1);
        assert!(a.drift[0].score > a.drift[1].score);
        assert_eq!(a.drift[2].shard, 2);
        assert_eq!(a.drift[2].score, 0.0);
        assert!(a.drift[0].changed_fraction > 0.4);
        // Deterministic across runs: identical ranking and grants.
        for (x, y) in a.drift.iter().zip(&b.drift) {
            assert_eq!(x.shard, y.shard);
            assert_eq!(x.score.to_bits(), y.score.to_bits());
        }
        assert_eq!(a.annotation_grants, b.annotation_grants);
        // The budget is spent exactly, worst shards first; the quiet shard
        // gets nothing.
        let total: usize = a.annotation_grants.iter().map(|&(_, g)| g).sum();
        assert_eq!(total, 120);
        let grant = |s: u32| {
            a.annotation_grants
                .iter()
                .find(|&&(id, _)| id == s)
                .map(|&(_, g)| g)
                .unwrap()
        };
        assert!(grant(0) > grant(1));
        assert_eq!(grant(2), 0);
    }

    #[test]
    fn packing_is_bit_identical_to_unpacked_and_reproducible() {
        let table = generate(DatasetKind::Higgs, 1_200, 3);
        let spec = |packing: bool| ReplaySpec {
            shards: 12,
            n_train: 150,
            n_queries: 300,
            clients: 3,
            zipf_s: 1.3,
            fleet: FleetConfig {
                packing,
                ..FleetConfig::default()
            },
            seed: 29,
            ..Default::default()
        };
        let packed = run_replay(&table, &spec(true)).unwrap();
        let packed2 = run_replay(&table, &spec(true)).unwrap();
        let unpacked = run_replay(&table, &spec(false)).unwrap();
        assert_eq!(packed.served, 300);
        assert_eq!(unpacked.served, 300);
        assert_eq!(
            packed.estimates_checksum, packed2.estimates_checksum,
            "same spec must replay bit-identically"
        );
        assert_eq!(
            packed.estimates_checksum, unpacked.estimates_checksum,
            "packing must not change a single answer"
        );
        // Unpacked runs one GEMM per sub-batch by construction.
        assert_eq!(unpacked.fleet.gemm_groups, unpacked.fleet.sub_batches);
    }
}
