//! Node orchestration: a serving **primary** (trained model, adaptation
//! loop, replicated durability, TCP front-end), a warm **standby**
//! (subscribes to the primary's replication stream, validates and installs
//! every shipped mutation, promotes through full recovery when the primary
//! dies), and [`run_net_loadgen`] — the deterministic multi-client load
//! generator the failover bench and the CLI drive.
//!
//! Failover state machine (DESIGN.md §11):
//!
//! ```text
//!   standby: Subscribing ──validated ckpt──▶ Warm ──link lost──▶ Promoting
//!                ▲                             │                    │
//!                └────────── reconnect ────────┘        recovery OK │
//!                                                                   ▼
//!                                                               Serving
//! ```
//!
//! Until `Serving`, the standby's front-end answers every estimate with
//! `Unavailable { NotPrimary }` — a typed refusal the client reacts to by
//! rotating endpoints — and promotion runs the full PR 5 recovery path, so
//! an unvalidated or torn-tail model can never be served.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use warper_ce::{CardinalityEstimator, LabeledExample, UpdateKind};
use warper_core::runner::ModelKind;
use warper_core::{
    derive_seed, prepare_single_table, seed_stream, ArrivedQuery, FeatureMap, WarperConfig,
    WarperController, WarperError,
};
use warper_durable::{DurabilityConfig, DurabilityError, RecoveryReport, Vfs};
use warper_metrics::LatencyHistogram;
use warper_storage::Table;

use super::client::{ClientError, ClientStats, EstimateClient, RetryPolicy};
use super::codec::{Msg, Role, NET_PROTO};
use super::conn::FrameConn;
use super::repl::{
    AckLevel, AckMode, ReplHub, ReplHubStats, ReplLag, ReplicatedStore, StandbyApplier,
    StandbyStats,
};
use super::server::{NetServer, NetServerConfig, NetStats, ServerCore};
use super::tcp::{dial, TcpDialer};
use crate::adapt::{AdaptConfig, AdaptStats, ShardAdapt};
use crate::fleet::{Fleet, FleetConfig, FleetHandle, FleetStats};
use crate::replay::{build_controller, drive, query_stream, shard_assignment, ClientLog, Served};
use crate::snapshot::{ModelSnapshot, SnapshotCell};

/// Everything a primary needs beyond the table and the state directory.
#[derive(Debug, Clone)]
pub struct PrimarySpec {
    /// Training workload notation (e.g. `"w1"`).
    pub mix: String,
    /// CE model family.
    pub model: ModelKind,
    /// Offline training queries.
    pub n_train: usize,
    /// Master seed; adaptation and loadgen streams derive from it.
    pub seed: u64,
    /// Warper controller shape.
    pub warper: WarperConfig,
    /// Background adaptation knobs (its `seed` is overwritten with ours).
    pub adapt: AdaptConfig,
    /// Checkpoint cadence for the durable store.
    pub durability: DurabilityConfig,
    /// Shape of the one-shard fleet that serves.
    pub service: FleetConfig,
    /// Per-connection deadlines.
    pub net: NetServerConfig,
    /// How long a [`AckMode::Replicated`] append waits for the standby.
    pub ack_timeout: Duration,
}

impl Default for PrimarySpec {
    fn default() -> Self {
        Self {
            mix: "w1".into(),
            model: ModelKind::LmMlp,
            n_train: 250,
            seed: 11,
            // Modest controller: nodes exist to exercise serving and
            // failover, not to reproduce paper accuracy numbers.
            warper: WarperConfig {
                embed_dim: 6,
                hidden: 24,
                n_i: 5,
                pretrain_epochs: 2,
                gamma: 80,
                n_p: 40,
                ..Default::default()
            },
            adapt: AdaptConfig::default(),
            durability: DurabilityConfig::default(),
            service: FleetConfig::default(),
            net: NetServerConfig::default(),
            ack_timeout: Duration::from_secs(2),
        }
    }
}

/// Final counters from a primary's lifetime.
#[derive(Debug, Clone)]
pub struct PrimaryReport {
    /// Network front-end counters.
    pub net: NetStats,
    /// Serving fleet counters.
    pub service: FleetStats,
    /// Adaptation-loop stats.
    pub adapt: AdaptStats,
    /// Replication hub counters.
    pub repl: ReplHubStats,
    /// Replication lag at shutdown.
    pub lag: ReplLag,
}

/// A serving primary: a one-shard [`Fleet`] whose shard adapts against a
/// replicated durable store, behind the TCP front-end — wired exactly like
/// the in-process replay harness (`crate::replay`) plus the network and
/// replication layers. One primary is one durable lineage.
pub struct PrimaryNode {
    server: Option<NetServer>,
    fleet: Option<Fleet>,
    repl: ReplicatedStore,
    hub: Arc<ReplHub>,
    fmap: FeatureMap,
    addr: String,
}

impl PrimaryNode {
    /// Train, recover (if `vfs` holds a prior image), checkpoint, and
    /// start serving on `listen` (use `"127.0.0.1:0"` for an OS port).
    pub fn start(
        table: &Table,
        vfs: Arc<dyn Vfs>,
        listen: &str,
        spec: PrimarySpec,
    ) -> Result<Self, WarperError> {
        let durable_err =
            |e: warper_durable::DurabilityError| WarperError::InvalidState(format!("durable: {e}"));
        let net_err = |e: super::NetError| WarperError::InvalidState(format!("net: {e}"));

        let prepared = prepare_single_table(table, &spec.mix, spec.model, spec.n_train, spec.seed)?;
        let fmap = prepared.fmap.clone();

        // Recover a prior image when the directory has one; otherwise the
        // freshly trained model serves (same policy as `run_replay`).
        let (store, recovered) =
            warper_durable::DurableStore::open(vfs, spec.durability).map_err(durable_err)?;
        let (recovered_state, recovered_model) = match recovered {
            Some(rec) => (Some(rec.state), rec.model),
            None => (None, None),
        };
        let model: Box<dyn CardinalityEstimator> = match recovered_model {
            Some(m) if m.feature_dim() == fmap.dim() => m,
            _ => prepared.model,
        };
        let ctl = match recovered_state {
            Some(state) => {
                WarperController::from_state(state)?.with_canonicalizer(fmap.make_canonicalizer())
            }
            None => build_controller(
                &fmap,
                &prepared.training_set,
                prepared.baseline_gmq,
                spec.warper,
                spec.seed,
            ),
        };
        let serving = model.snapshot().ok_or_else(|| {
            WarperError::InvalidState(format!(
                "{} cannot snapshot; serving requires an immutable copy",
                model.name()
            ))
        })?;

        // Replication: hub tap first, then a startup checkpoint, so the
        // oldest entry a subscribing standby can fetch is a full snapshot.
        let hub = Arc::new(ReplHub::new());
        let repl = ReplicatedStore::new(store, Arc::clone(&hub), spec.ack_timeout);
        {
            let mut s = repl.store.lock().unwrap_or_else(PoisonError::into_inner);
            s.checkpoint(&ctl.to_state(), Some(model.as_ref()))
                .map_err(durable_err)?;
        }

        let adapt = ShardAdapt {
            ctl,
            model,
            table: Arc::new(RwLock::new(table.clone())),
            fmap: fmap.clone(),
            cfg: AdaptConfig {
                seed: spec.seed,
                ..spec.adapt
            },
            store: Some(Arc::clone(&repl.store)),
        };
        let snapshot = Arc::new(ModelSnapshot::initial(serving));
        let fleet = Fleet::single(snapshot, Some(adapt), spec.service);
        let core = ServerCore::new_fleet(fleet.handle(), true, Some(Arc::clone(&hub)));
        let server = NetServer::bind(listen, core, spec.net).map_err(net_err)?;
        let addr = server.local_addr().to_string();
        Ok(Self {
            server: Some(server),
            fleet: Some(fleet),
            repl,
            hub,
            fmap,
            addr,
        })
    }

    /// The bound address (real port).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Predicate ↔ feature mapping (loadgen featurizes against this).
    pub fn fmap(&self) -> &FeatureMap {
        &self.fmap
    }

    /// In-process submission handle (bypasses the network).
    pub fn handle(&self) -> FleetHandle {
        self.fleet
            .as_ref()
            .expect("fleet runs until shutdown")
            .handle()
    }

    /// Measured replication lag right now.
    pub fn lag(&self) -> ReplLag {
        self.hub.lag()
    }

    /// Feed one labeled arrival to the adaptation loop (its WAL path
    /// replicates through the store tap).
    pub fn observe(&self, features: Vec<f64>, gt: Option<f64>) {
        if let Some(fleet) = &self.fleet {
            fleet.observe(0, ArrivedQuery { features, gt });
        }
    }

    /// Durably log one label, optionally waiting for the standby's ack.
    pub fn append_label(
        &self,
        features: &[f64],
        gt: f64,
        mode: AckMode,
    ) -> Result<AckLevel, DurabilityError> {
        self.repl.append_label_replicated(features, gt, true, mode)
    }

    /// Stop everything — the accept loop, live connections (severed, not
    /// drained: this doubles as the crash in failover tests), the worker
    /// pool, and adaptation — and report final counters.
    pub fn shutdown(mut self) -> PrimaryReport {
        let lag = self.hub.lag();
        let net = self
            .server
            .take()
            .map(NetServer::shutdown)
            .unwrap_or_default();
        let (service, _, adapt) = self.fleet.take().map(Fleet::shutdown).unwrap_or_default();
        PrimaryReport {
            net,
            service,
            adapt: adapt.first().map(|&(_, a)| a).unwrap_or_default(),
            repl: self.hub.stats(),
            lag,
        }
    }
}

/// Standby tunables.
#[derive(Debug, Clone, Copy)]
pub struct StandbyConfig {
    /// Shape of the one-shard fleet behind the (post-promotion) front-end.
    pub service: FleetConfig,
    /// Per-connection deadlines, shared with the replication link.
    pub net: NetServerConfig,
    /// Checkpoint cadence for the promoted store.
    pub durability: DurabilityConfig,
    /// Connect timeout per dial to the primary.
    pub connect_timeout: Duration,
    /// Consecutive failed dials before the link is declared lost.
    pub reconnect_attempts: u32,
    /// Sleep between dial attempts.
    pub reconnect_backoff: Duration,
    /// Promote automatically once the link is lost and a validated
    /// checkpoint is installed. `false` keeps the node warm until
    /// [`StandbyNode::request_promotion`].
    pub auto_promote: bool,
}

impl Default for StandbyConfig {
    fn default() -> Self {
        Self {
            service: FleetConfig::default(),
            net: NetServerConfig::default(),
            durability: DurabilityConfig::default(),
            connect_timeout: Duration::from_millis(250),
            reconnect_attempts: 4,
            reconnect_backoff: Duration::from_millis(25),
            auto_promote: true,
        }
    }
}

/// Point-in-time standby progress.
#[derive(Debug, Clone, Default)]
pub struct StandbyState {
    /// Last applied-and-fsynced ship index (the acked watermark).
    pub watermark: u64,
    /// Newest checkpoint sequence that passed validation locally.
    pub validated_seq: u64,
    /// Applier counters.
    pub stats: StandbyStats,
    /// Serving-cell generation promotion published, if it happened.
    pub promoted_generation: Option<u64>,
    /// The promotion's recovery report.
    pub promotion: Option<RecoveryReport>,
    /// Last replication-link error, for diagnostics.
    pub last_error: Option<String>,
}

/// Final counters from a standby's lifetime.
#[derive(Debug, Clone)]
pub struct StandbyReport {
    /// Network front-end counters.
    pub net: NetStats,
    /// Serving fleet counters (nonzero only after promotion).
    pub service: FleetStats,
    /// Replication progress at shutdown.
    pub state: StandbyState,
}

/// Placeholder the standby's cell holds before any validated checkpoint
/// arrives. It can never answer a request: the front-end refuses with
/// `Unavailable { NotPrimary }` until promotion flips `ServerCore`.
pub(crate) struct ColdModel;

impl CardinalityEstimator for ColdModel {
    fn feature_dim(&self) -> usize {
        0
    }
    fn estimate(&self, _f: &[f64]) -> f64 {
        1.0
    }
    fn fit(&mut self, _e: &[LabeledExample]) {}
    fn update(&mut self, _e: &[LabeledExample]) {}
    fn update_kind(&self) -> UpdateKind {
        UpdateKind::FineTune
    }
    fn name(&self) -> &'static str {
        "cold-standby"
    }
}

struct StandbyShared {
    inner: Mutex<StandbyState>,
    promote_req: AtomicBool,
    stop: AtomicBool,
}

/// A warm standby: replication subscriber + refusing front-end, promoting
/// (automatically on link loss, or on request) through full recovery.
pub struct StandbyNode {
    server: Option<NetServer>,
    fleet: Option<Fleet>,
    core: Arc<ServerCore>,
    shared: Arc<StandbyShared>,
    repl_thread: Option<JoinHandle<()>>,
    addr: String,
}

impl StandbyNode {
    /// Start replicating from `primary` into `vfs`, refusing requests on
    /// `listen` until promoted.
    pub fn start(
        vfs: Arc<dyn Vfs>,
        listen: &str,
        primary: String,
        cfg: StandbyConfig,
    ) -> Result<Self, super::NetError> {
        let cold = Arc::new(ModelSnapshot::initial(Box::new(ColdModel)));
        let fleet = Fleet::single(cold, None, cfg.service);
        let cell = Arc::clone(fleet.cell(0).expect("the fleet has its one shard"));
        let core = ServerCore::new_fleet(fleet.handle(), false, None);
        let server = NetServer::bind(listen, Arc::clone(&core), cfg.net)?;
        let addr = server.local_addr().to_string();
        let shared = Arc::new(StandbyShared {
            inner: Mutex::new(StandbyState::default()),
            promote_req: AtomicBool::new(false),
            stop: AtomicBool::new(false),
        });
        let repl_thread = {
            let shared = Arc::clone(&shared);
            let core = Arc::clone(&core);
            std::thread::Builder::new()
                .name("repl-standby".into())
                .spawn(move || standby_repl_main(vfs, cell, shared, core, primary, cfg))
                .map_err(|e| super::NetError::Io(e.to_string()))?
        };
        Ok(Self {
            server: Some(server),
            fleet: Some(fleet),
            core,
            shared,
            repl_thread: Some(repl_thread),
            addr,
        })
    }

    /// The bound address (real port).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Replication progress right now.
    pub fn state(&self) -> StandbyState {
        self.shared
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Whether the node has been promoted and is serving.
    pub fn promoted(&self) -> bool {
        self.core.is_serving()
    }

    /// Ask the replication loop to promote at its next check (it still
    /// refuses until a validated checkpoint exists to recover from).
    pub fn request_promotion(&self) {
        self.shared.promote_req.store(true, Ordering::Release);
    }

    /// Block until promoted (polling); `false` on timeout.
    pub fn wait_promoted(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while !self.promoted() {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        true
    }

    /// Stop replication and serving; report final counters.
    pub fn shutdown(mut self) -> StandbyReport {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(t) = self.repl_thread.take() {
            let _ = t.join();
        }
        let net = self
            .server
            .take()
            .map(NetServer::shutdown)
            .unwrap_or_default();
        let (service, _, _) = self.fleet.take().map(Fleet::shutdown).unwrap_or_default();
        StandbyReport {
            net,
            service,
            state: self
                .shared
                .inner
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone(),
        }
    }
}

impl Drop for StandbyNode {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(t) = self.repl_thread.take() {
            let _ = t.join();
        }
    }
}

/// The standby's replication loop: dial → resubscribe from the watermark →
/// validate-and-apply → ack; reconnect on any link fault; promote when the
/// link is declared lost (or on request) and a validated checkpoint exists.
fn standby_repl_main(
    vfs: Arc<dyn Vfs>,
    cell: Arc<SnapshotCell<ModelSnapshot>>,
    shared: Arc<StandbyShared>,
    core: Arc<ServerCore>,
    primary: String,
    cfg: StandbyConfig,
) {
    let mut applier = StandbyApplier::new(vfs, cell);
    let stopped = |shared: &StandbyShared| shared.stop.load(Ordering::Acquire);
    let sync_state = |shared: &StandbyShared, applier: &StandbyApplier, err: Option<String>| {
        let mut g = shared.inner.lock().unwrap_or_else(PoisonError::into_inner);
        g.watermark = applier.watermark();
        g.validated_seq = applier.validated_seq;
        g.stats = applier.stats;
        if err.is_some() {
            g.last_error = err;
        }
    };
    let promote = |applier: &mut StandbyApplier| -> bool {
        match applier.promote(cfg.durability) {
            Ok(promotion) => {
                {
                    let mut g = shared.inner.lock().unwrap_or_else(PoisonError::into_inner);
                    g.promoted_generation = Some(promotion.generation);
                    g.promotion = Some(promotion.report.clone());
                }
                // The gate: only after full recovery does the front-end
                // start answering.
                core.set_serving(true);
                true
            }
            Err(e) => {
                sync_state(&shared, applier, Some(format!("promotion failed: {e}")));
                false
            }
        }
    };

    'reconnect: while !stopped(&shared) {
        if shared.promote_req.load(Ordering::Acquire)
            && applier.promotable()
            && promote(&mut applier)
        {
            return;
        }
        // Dial with bounded attempts; exhausting them declares the link
        // lost and (optionally) triggers promotion.
        let mut stream = None;
        for _attempt in 0..cfg.reconnect_attempts.max(1) {
            if stopped(&shared) {
                return;
            }
            match dial(&primary, cfg.connect_timeout) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(e) => {
                    sync_state(&shared, &applier, Some(e.to_string()));
                    std::thread::sleep(cfg.reconnect_backoff);
                }
            }
        }
        let Some(mut stream) = stream else {
            let want_promote = cfg.auto_promote || shared.promote_req.load(Ordering::Acquire);
            if want_promote && applier.promotable() && promote(&mut applier) {
                return;
            }
            // Nothing validated yet (or promotion is manual): keep trying.
            continue 'reconnect;
        };
        use super::conn::ByteStream;
        if stream
            .set_read_deadline(Some(cfg.net.read_deadline))
            .and_then(|()| stream.set_write_deadline(Some(cfg.net.write_deadline)))
            .is_err()
        {
            continue 'reconnect;
        }
        let mut conn = FrameConn::new(stream);
        // Subscribe, then announce the watermark so the shipper resumes
        // after it instead of re-sending mutations we already hold.
        let subscribed = conn
            .send(&Msg::Hello {
                role: Role::Standby,
                proto: NET_PROTO,
            })
            .and_then(|()| {
                conn.send(&Msg::ReplAck {
                    watermark: applier.watermark(),
                })
            });
        if subscribed.is_err() {
            continue 'reconnect;
        }
        loop {
            if stopped(&shared) {
                return;
            }
            if shared.promote_req.load(Ordering::Acquire) && applier.promotable() {
                conn.stream().shutdown();
                if promote(&mut applier) {
                    return;
                }
            }
            match conn.recv() {
                Ok(Msg::Repl { idx, event }) => {
                    if idx <= applier.watermark() {
                        // Retransmission of something already durable here.
                        continue;
                    }
                    match applier.apply(idx, &event) {
                        Ok(()) => {
                            sync_state(&shared, &applier, None);
                            if conn
                                .send(&Msg::ReplAck {
                                    watermark: applier.watermark(),
                                })
                                .is_err()
                            {
                                continue 'reconnect;
                            }
                        }
                        Err(e) => {
                            // Validation rejected the ship: never installed,
                            // never acked. Treat the link as poisoned and
                            // resync from the watermark.
                            sync_state(&shared, &applier, Some(format!("rejected ship: {e}")));
                            conn.stream().shutdown();
                            continue 'reconnect;
                        }
                    }
                }
                Ok(_) => {
                    sync_state(&shared, &applier, Some("unexpected repl message".into()));
                    conn.stream().shutdown();
                    continue 'reconnect;
                }
                Err(e) => {
                    // Timeout, cut, or corrupt frame: any of them means the
                    // stream can no longer be trusted mid-frame — resync.
                    sync_state(&shared, &applier, Some(e.to_string()));
                    conn.stream().shutdown();
                    continue 'reconnect;
                }
            }
        }
    }
}

/// A networked load-generation run.
#[derive(Debug, Clone)]
pub struct NetLoadSpec {
    /// Server addresses, primary first; clients rotate on refusal/cut.
    pub endpoints: Vec<String>,
    /// Concurrent client connections.
    pub clients: usize,
    /// Total queries, striped round-robin across clients.
    pub n_queries: usize,
    /// Workload notation for the pre-generated query stream.
    pub mix: String,
    /// Model family (fixes the featurization).
    pub model: ModelKind,
    /// Master seed: queries from [`seed_stream::LOADGEN`], per-client
    /// retry jitter from [`seed_stream::NET`].
    pub seed: u64,
    /// Retry/backoff policy for every client.
    pub policy: RetryPolicy,
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Multi-tenant mode: with `tenants > 1` every query is addressed to a
    /// shard (`Msg::EstimateReqShard`) drawn Zipf(`zipf_s`)-skewed from
    /// `0..tenants` on the [`seed_stream::SHARD`] stream — the wire-side
    /// counterpart of [`crate::ReplaySpec::shards`]. `0` or `1` sends plain
    /// v1 `EstimateReq` frames (shard 0).
    pub tenants: u32,
    /// Zipf exponent of the tenant skew (only read when `tenants > 1`).
    pub zipf_s: f64,
}

impl Default for NetLoadSpec {
    fn default() -> Self {
        Self {
            endpoints: Vec::new(),
            clients: 2,
            n_queries: 200,
            mix: "w1".into(),
            model: ModelKind::LmMlp,
            seed: 11,
            policy: RetryPolicy::default(),
            connect_timeout: Duration::from_millis(250),
            tenants: 0,
            zipf_s: 1.1,
        }
    }
}

/// What a networked load run measured.
#[derive(Debug, Clone)]
pub struct NetLoadReport {
    /// Queries attempted.
    pub n_queries: usize,
    /// Answered with an estimate.
    pub ok: u64,
    /// Shed by the server's admission control.
    pub shed: u64,
    /// Rejected (feature-dimension mismatch).
    pub rejected: u64,
    /// Refused everywhere (no endpoint serving) after rotation.
    pub unavailable: u64,
    /// Failed after exhausting bounded retries.
    pub disconnected: u64,
    /// Order-independent FNV checksum over `(query index, estimate bits)`
    /// of every answered query — equal across runs ⇒ the distributed run
    /// reproduced bit-for-bit (see `replay` module docs).
    pub checksum: u64,
    /// End-to-end wall clock.
    pub elapsed: Duration,
    /// Per-request latency across all clients (successful requests).
    pub latency: LatencyHistogram,
    /// Aggregated client transport counters.
    pub client: ClientStats,
    /// Longest gap between consecutive successful responses on any one
    /// client — during a failover run this upper-bounds the outage a
    /// client observed.
    pub max_success_gap: Duration,
}

fn merge_client_stats(into: &mut ClientStats, s: ClientStats) {
    into.requests += s.requests;
    into.ok += s.ok;
    into.shed += s.shed;
    into.reconnects += s.reconnects;
    into.rotations += s.rotations;
    into.net_errors += s.net_errors;
    into.backoff_secs += s.backoff_secs;
}

/// Drive `spec.clients` concurrent [`EstimateClient`]s against
/// `spec.endpoints` with a pre-generated query stream.
///
/// Determinism: queries come from the `LOADGEN` stream of `spec.seed` and
/// are striped to clients by index; each client's retry jitter comes from
/// `derive_seed(derive_seed(seed, NET), client)`. Two runs with the same
/// seed against equivalent servers produce the same [`NetLoadReport::checksum`]
/// regardless of thread interleaving.
pub fn run_net_loadgen(table: &Table, spec: &NetLoadSpec) -> Result<NetLoadReport, WarperError> {
    if spec.endpoints.is_empty() {
        return Err(WarperError::InvalidState(
            "loadgen needs ≥ 1 endpoint".into(),
        ));
    }
    let clients = spec.clients.max(1);
    let fmap = FeatureMap::new(table, spec.model);
    let mut rng = StdRng::seed_from_u64(derive_seed(spec.seed, seed_stream::LOADGEN));
    let preds = query_stream(table, &spec.mix, spec.n_queries, &mut rng)?;
    let feats: Vec<Vec<f64>> = preds.iter().map(|p| fmap.featurize(p)).collect();

    // Multi-tenant addressing: shard assignments draw from their own
    // stream, exactly as the in-process replay does, so a networked run and
    // an in-process run of the same seed target the same shards.
    let assign: Option<Vec<u32>> = (spec.tenants > 1).then(|| {
        shard_assignment(
            spec.seed,
            spec.tenants as usize,
            spec.zipf_s,
            spec.n_queries,
        )
    });

    /// One networked client and what its refusals were.
    struct NetClient {
        client: EstimateClient,
        rejected: u64,
        unavailable: u64,
        disconnected: u64,
    }

    let t0 = Instant::now();
    let outcomes = drive(
        0..spec.n_queries,
        clients,
        None,
        |c| {
            let dialer = TcpDialer {
                endpoints: spec.endpoints.clone(),
                connect_timeout: spec.connect_timeout,
            };
            let seed = derive_seed(derive_seed(spec.seed, seed_stream::NET), c as u64);
            NetClient {
                client: EstimateClient::new(Box::new(dialer), spec.policy, seed),
                rejected: 0,
                unavailable: 0,
                disconnected: 0,
            }
        },
        |nc, idx| {
            let res = match &assign {
                Some(a) => nc.client.estimate_shard(a[idx], &feats[idx]),
                None => nc.client.estimate(&feats[idx]),
            };
            match res {
                Ok(est) => return Served::Ok(est.value),
                Err(ClientError::Shed) => return Served::Shed,
                Err(ClientError::Rejected { .. }) => nc.rejected += 1,
                Err(ClientError::Unavailable | ClientError::UnknownShard(_)) => nc.unavailable += 1,
                Err(ClientError::Disconnected(_) | ClientError::Protocol(_)) => {
                    nc.disconnected += 1
                }
            }
            Served::Failed
        },
        |_| {},
    );
    let elapsed = t0.elapsed();

    let (logs, net_clients): (Vec<_>, Vec<_>) = outcomes.into_iter().unzip();
    let merged = ClientLog::merged(logs);
    let mut report = NetLoadReport {
        n_queries: spec.n_queries,
        ok: merged.results.len() as u64,
        shed: merged.shed as u64,
        rejected: 0,
        unavailable: 0,
        disconnected: 0,
        checksum: merged.checksum(),
        elapsed,
        latency: merged.latency,
        client: ClientStats::default(),
        max_success_gap: merged.max_gap,
    };
    for nc in net_clients {
        report.rejected += nc.rejected;
        report.unavailable += nc.unavailable;
        report.disconnected += nc.disconnected;
        merge_client_stats(&mut report.client, nc.client.stats());
    }
    Ok(report)
}
