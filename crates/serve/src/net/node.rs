//! Node orchestration: a serving **primary** (trained model, adaptation
//! loop, replicated durability, TCP front-end) and a warm **standby**
//! (subscribes to the primary's replication stream, validates and installs
//! every shipped mutation, promotes through full recovery when the primary
//! dies).
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

use warper_core::runner::ModelKind;
use warper_core::{prepare_single_table, ArrivedQuery, FeatureMap, WarperConfig, WarperError};
use warper_durable::{DurabilityConfig, DurabilityError, DurableStore, RecoveryReport, Vfs};
use warper_storage::Table;

use super::codec::{Msg, Role, NET_PROTO};
use super::conn::FrameConn;
use super::repl::{
    AckLevel, AckMode, ReplHub, ReplHubStats, ReplLag, ReplicatedStore, StandbyApplier,
    StandbyStats,
};
use super::server::{NetServer, NetServerConfig, NetStats, ServerCore};
use super::tcp::dial;
use crate::adapt::{bring_up, initial_snapshot, AdaptConfig, AdaptStats};
use crate::fleet::{Fleet, FleetConfig, FleetHandle, FleetStats};
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
/// replicated durable store, behind the TCP front-end — brought up by the
/// same [`bring_up`] as a replay's shards, plus the network and replication
/// layers. One primary is one durable lineage.
pub struct PrimaryNode {
    server: NetServer,
    fleet: Fleet,
    repl: ReplicatedStore,
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
        let durable_err = |e: DurabilityError| WarperError::InvalidState(format!("durable: {e}"));
        let net_err = |e: super::NetError| WarperError::InvalidState(format!("net: {e}"));

        let prepared = prepare_single_table(table, &spec.mix, spec.model, spec.n_train, spec.seed)?;
        let (store, recovered) = DurableStore::open(vfs, spec.durability).map_err(durable_err)?;
        let repl = ReplicatedStore::new(store, Arc::new(ReplHub::new()), spec.ack_timeout);

        let cfg = AdaptConfig {
            seed: spec.seed,
            ..spec.adapt
        };
        let base = initial_snapshot(
            prepared.model.as_ref(),
            &prepared.training_set,
            cfg.precision,
            cfg.supervisor.quant_gmq_tolerance,
        )?;
        let (snapshot, adapt) = bring_up(
            &prepared,
            &base,
            Arc::new(RwLock::new(table.clone())),
            Some((Arc::clone(&repl.store), recovered)),
            None,
            spec.warper,
            cfg,
        )?;
        // A startup checkpoint every time, with the hub's tap already on the
        // store: the oldest entry a subscribing standby can fetch is then a
        // full snapshot.
        repl.store
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .checkpoint(&adapt.ctl.to_state(), Some(adapt.model.as_ref()))
            .map_err(durable_err)?;

        let fmap = prepared.fmap;
        let fleet = Fleet::single(snapshot, Some(adapt), spec.service);
        let core = ServerCore::new_fleet(fleet.handle(), true, Some(Arc::clone(&repl.hub)));
        let server = NetServer::bind(listen, core, spec.net).map_err(net_err)?;
        let addr = server.local_addr().to_string();
        Ok(Self {
            server,
            fleet,
            repl,
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
        self.fleet.handle()
    }

    /// Measured replication lag right now.
    pub fn lag(&self) -> ReplLag {
        self.repl.hub.lag()
    }

    /// Feed one labeled arrival to the adaptation loop (its WAL path
    /// replicates through the store tap).
    pub fn observe(&self, features: Vec<f64>, gt: Option<f64>) {
        self.fleet.observe(0, ArrivedQuery { features, gt });
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
    pub fn shutdown(self) -> PrimaryReport {
        let lag = self.repl.hub.lag();
        let net = self.server.shutdown();
        let (service, _, adapt) = self.fleet.shutdown();
        PrimaryReport {
            net,
            service,
            adapt: adapt.first().map(|&(_, a)| a).unwrap_or_default(),
            repl: self.repl.hub.stats(),
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
        let fleet = Fleet::single(Arc::new(ModelSnapshot::cold()), None, cfg.service);
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
        self.stop_replication();
        let net = self
            .server
            .take()
            .map(NetServer::shutdown)
            .unwrap_or_default();
        let (service, _, _) = self.fleet.take().map(Fleet::shutdown).unwrap_or_default();
        StandbyReport {
            net,
            service,
            state: self.state(),
        }
    }

    fn stop_replication(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(t) = self.repl_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for StandbyNode {
    fn drop(&mut self) {
        self.stop_replication();
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
        // Anything but an applied ship ends the link: a rejected ship was
        // never installed and never acked; a timeout, cut or corrupt frame
        // means the stream can no longer be trusted mid-frame. Either way,
        // resync from the watermark.
        let link_error = loop {
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
                // Retransmission of something already durable here.
                Ok(Msg::Repl { idx, .. }) if idx <= applier.watermark() => {}
                Ok(Msg::Repl { idx, event }) => match applier.apply(idx, &event) {
                    Ok(()) => {
                        sync_state(&shared, &applier, None);
                        let watermark = applier.watermark();
                        if conn.send(&Msg::ReplAck { watermark }).is_err() {
                            continue 'reconnect;
                        }
                    }
                    Err(e) => break format!("rejected ship: {e}"),
                },
                Ok(_) => break "unexpected repl message".to_string(),
                Err(e) => break e.to_string(),
            }
        };
        sync_state(&shared, &applier, Some(link_error));
        conn.stream().shutdown();
    }
}
