//! Replication: primary-side ship log + ack watermark, standby-side
//! validate-then-install applier, and promotion through the PR 5 recovery
//! path.
//!
//! ## The invariant (DESIGN.md §11)
//!
//! *Acked ⇒ on the standby within the lag bound; the standby serves only
//! validated snapshots.* Concretely:
//!
//! * Every durable mutation the primary fsyncs is published to the
//!   [`ReplHub`] in commit order (via the `DurableStore` tap) and shipped
//!   to the standby, which applies it to its own Vfs — byte-identical
//!   files under the same names — fsyncs, and acks its cumulative
//!   watermark. [`ReplHub::lag`] is the measured distance between the two.
//! * A label appended with [`ReplicatedStore::append_label_replicated`] in
//!   [`AckMode::Replicated`] is acknowledged only after the standby's
//!   watermark covers it — those labels survive failover *by construction*
//!   (proven per fault × op in `tests/net_failover.rs`). In
//!   [`AckMode::Local`] the label is acked when locally durable and reaches
//!   the standby asynchronously within the lag watermark.
//! * The standby validates everything before installing it: a shipped
//!   checkpoint must decode *and* pass `WarperState::validate` before it
//!   touches the standby's directory or warms its serving cell; a shipped
//!   WAL frame must be checksum-valid and decodable before it is appended.
//!   Promotion re-runs the full [`DurableStore::open`] recovery (newest
//!   valid snapshot → validate → WAL-tail replay with truncate-repair), so
//!   a standby can never serve an unvalidated or torn-tail model.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use warper_durable::{
    DurabilityConfig, DurabilityError, DurableEvent, DurableStore, RecoveryReport, ReplicaDir, Vfs,
};

use crate::snapshot::{ModelSnapshot, SnapshotCell};

/// Point-in-time replication distance between primary and standby.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplLag {
    /// Ship index of the newest published mutation.
    pub published: u64,
    /// The standby's cumulative ack watermark.
    pub acked: u64,
    /// Mutations published but not yet acked.
    pub ops_behind: u64,
    /// Age of the oldest unacked mutation.
    pub secs_behind: f64,
}

/// Lifetime replication counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplHubStats {
    /// Mutations published to the hub.
    pub published: u64,
    /// The final ack watermark.
    pub acked: u64,
    /// Checkpoints among the published mutations.
    pub snapshots: u64,
    /// WAL frames among the published mutations.
    pub wal_frames: u64,
    /// Largest observed ops-behind.
    pub max_ops_behind: u64,
    /// Largest observed ack latency (publish → ack), seconds.
    pub max_secs_behind: f64,
}

struct HubInner {
    /// Retained mutations, oldest first. Compacted at every checkpoint:
    /// a shipped snapshot supersedes everything before it (carry-forward
    /// WAL records ride inside the checkpoint event), so the log is
    /// bounded by one checkpoint interval — no unbounded buffering.
    log: VecDeque<(u64, DurableEvent)>,
    next_idx: u64,
    acked: u64,
    /// Publish instants of unacked mutations, for the time-lag watermark.
    inflight: VecDeque<(u64, Instant)>,
    stats: ReplHubStats,
}

/// Primary-side replication fan-out: the `DurableStore` tap publishes every
/// durable mutation here; per-standby shipper threads fetch from it and
/// feed acks back.
pub struct ReplHub {
    inner: Mutex<HubInner>,
    cv: Condvar,
}

impl Default for ReplHub {
    fn default() -> Self {
        Self::new()
    }
}

impl ReplHub {
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(HubInner {
                log: VecDeque::new(),
                next_idx: 1,
                acked: 0,
                inflight: VecDeque::new(),
                stats: ReplHubStats::default(),
            }),
            cv: Condvar::new(),
        }
    }

    /// The tap to install on the primary's `DurableStore`.
    pub fn tap(self: &Arc<Self>) -> warper_durable::DurableTap {
        let hub = Arc::clone(self);
        Box::new(move |ev| {
            hub.publish(ev.clone());
        })
    }

    /// Publish one mutation; returns its ship index.
    pub fn publish(&self, ev: DurableEvent) -> u64 {
        let mut g = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let idx = g.next_idx;
        g.next_idx += 1;
        match &ev {
            DurableEvent::Checkpoint { .. } => {
                // The snapshot supersedes everything shipped before it.
                g.log.clear();
                g.stats.snapshots += 1;
            }
            DurableEvent::WalAppend { .. } => g.stats.wal_frames += 1,
        }
        g.log.push_back((idx, ev));
        g.inflight.push_back((idx, Instant::now()));
        g.stats.published = idx;
        let behind = idx - g.acked.min(idx);
        g.stats.max_ops_behind = g.stats.max_ops_behind.max(behind);
        self.cv.notify_all();
        idx
    }

    /// Ship index of the newest published mutation (0 = none yet).
    pub fn last_published(&self) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .next_idx
            - 1
    }

    /// Blocks until `ready` yields a value from the hub's state, re-checking
    /// at every publish and ack; `None` on timeout.
    fn wait_for<T>(
        &self,
        timeout: Duration,
        mut ready: impl FnMut(&HubInner) -> Option<T>,
    ) -> Option<T> {
        let deadline = Instant::now() + timeout;
        let mut g = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(out) = ready(&g) {
                return Some(out);
            }
            let left = deadline.checked_duration_since(Instant::now())?;
            if left.is_zero() {
                return None;
            }
            (g, _) = self
                .cv
                .wait_timeout(g, left)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Mutations with index > `after`, waiting up to `timeout` for at least
    /// one. The standby's first fetch (`after = 0`) starts at the oldest
    /// retained entry, which after any checkpoint is a full snapshot.
    pub fn fetch(&self, after: u64, timeout: Duration) -> Vec<(u64, DurableEvent)> {
        self.wait_for(timeout, |g| {
            let out: Vec<_> = g.log.iter().filter(|(i, _)| *i > after).cloned().collect();
            (!out.is_empty()).then_some(out)
        })
        .unwrap_or_default()
    }

    /// Record the standby's cumulative ack.
    pub fn record_ack(&self, watermark: u64) {
        let mut g = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if watermark > g.acked {
            g.acked = watermark;
            g.stats.acked = watermark;
            let now = Instant::now();
            while g.inflight.front().is_some_and(|&(idx, _)| idx <= watermark) {
                if let Some((_, at)) = g.inflight.pop_front() {
                    let secs = now.duration_since(at).as_secs_f64();
                    if secs > g.stats.max_secs_behind {
                        g.stats.max_secs_behind = secs;
                    }
                }
            }
            self.cv.notify_all();
        }
    }

    /// Block until the ack watermark covers `idx`; `false` on timeout.
    pub fn wait_acked(&self, idx: u64, timeout: Duration) -> bool {
        self.wait_for(timeout, |g| (g.acked >= idx).then_some(()))
            .is_some()
    }

    /// The measured replication-lag watermark.
    pub fn lag(&self) -> ReplLag {
        let g = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let published = g.next_idx - 1;
        let secs_behind = g
            .inflight
            .front()
            .map(|&(_, at)| at.elapsed().as_secs_f64())
            .unwrap_or(0.0);
        ReplLag {
            published,
            acked: g.acked,
            ops_behind: published - g.acked.min(published),
            secs_behind,
        }
    }

    pub fn stats(&self) -> ReplHubStats {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .stats
    }
}

/// When `append_label_replicated` acknowledges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckMode {
    /// Ack when locally durable; replication is asynchronous (bounded by
    /// the lag watermark).
    Local,
    /// Ack only after the standby's watermark covers the append; falls
    /// back to [`AckLevel::Local`] if the standby misses the deadline.
    Replicated,
}

/// How far an acknowledged label actually got.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckLevel {
    /// Durable on the primary only.
    Local,
    /// Durable on the primary *and* applied+fsynced on the standby —
    /// guaranteed to survive failover.
    Replicated,
}

/// A `DurableStore` wired into a [`ReplHub`], with replication-acked
/// appends. The store itself is shared (`Arc<Mutex<_>>`) so the adaptation
/// worker's existing WAL path replicates transparently through the tap.
pub struct ReplicatedStore {
    pub store: Arc<Mutex<DurableStore>>,
    pub hub: Arc<ReplHub>,
    /// How long a [`AckMode::Replicated`] append waits for the standby.
    pub ack_timeout: Duration,
}

impl ReplicatedStore {
    /// Install the hub's tap and share the store.
    pub fn new(mut store: DurableStore, hub: Arc<ReplHub>, ack_timeout: Duration) -> Self {
        store.set_tap(hub.tap());
        Self {
            store: Arc::new(Mutex::new(store)),
            hub,
            ack_timeout,
        }
    }

    /// Durably log one label, then (in [`AckMode::Replicated`]) wait for
    /// the standby's ack. The returned level reports how far the label
    /// verifiably got; `Ok(_)` always means at least locally durable.
    pub fn append_label_replicated(
        &self,
        features: &[f64],
        gt: f64,
        arrival: bool,
        mode: AckMode,
    ) -> Result<AckLevel, DurabilityError> {
        let idx = {
            let mut s = self.store.lock().unwrap_or_else(PoisonError::into_inner);
            s.append_label(features, gt, arrival)?;
            self.hub.last_published()
        };
        match mode {
            AckMode::Local => Ok(AckLevel::Local),
            AckMode::Replicated => {
                if self.hub.wait_acked(idx, self.ack_timeout) {
                    Ok(AckLevel::Replicated)
                } else {
                    Ok(AckLevel::Local)
                }
            }
        }
    }
}

/// Standby-side applier counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct StandbyStats {
    /// Checkpoints validated and installed.
    pub snapshots_applied: u64,
    /// WAL frames validated and appended.
    pub wal_frames_applied: u64,
    /// Shipped mutations rejected by validation (never installed).
    pub rejected_ops: u64,
}

/// What promotion recovered.
pub struct Promotion {
    /// The recovered store, positioned to continue appending — the promoted
    /// node keeps full durability.
    pub store: DurableStore,
    /// The recovery report from the PR 5 path.
    pub report: RecoveryReport,
    /// Snapshot generation published to the serving cell.
    pub generation: u64,
}

/// Applies shipped mutations to the standby's own directory (through
/// [`ReplicaDir`], which owns the install protocol), warms the serving cell
/// with validated models, and promotes through full recovery.
pub struct StandbyApplier {
    dir: ReplicaDir,
    cell: Arc<SnapshotCell<ModelSnapshot>>,
    watermark: u64,
    /// Newest checkpoint sequence that passed local validation.
    pub validated_seq: u64,
    pub stats: StandbyStats,
}

impl StandbyApplier {
    pub fn new(vfs: Arc<dyn Vfs>, cell: Arc<SnapshotCell<ModelSnapshot>>) -> Self {
        Self {
            dir: ReplicaDir::new(vfs),
            cell,
            watermark: 0,
            validated_seq: 0,
            stats: StandbyStats::default(),
        }
    }

    /// Cumulative index of the last applied-and-fsynced mutation — the
    /// value acked back to the primary.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Whether at least one validated checkpoint is installed (the minimum
    /// for promotion to have something to recover).
    pub fn promotable(&self) -> bool {
        self.validated_seq > 0
    }

    /// Validate and apply one shipped mutation. On `Ok` the mutation is
    /// durable locally and `watermark()` covers `idx`; on `Err` nothing was
    /// installed (a corrupt ship can never poison the replica).
    pub fn apply(&mut self, idx: u64, ev: &DurableEvent) -> Result<(), DurabilityError> {
        let image = self.dir.install(ev).inspect_err(|_| {
            self.stats.rejected_ops += 1;
        })?;
        match (ev, image) {
            (DurableEvent::Checkpoint { seq, .. }, Some((state, model))) => {
                // Warm the serving cell so promotion is instant — but only
                // with the model that just passed validation, and only
                // behind the server's not-promoted gate.
                if let Some(model) = model {
                    self.warm(model, &state)?;
                }
                self.validated_seq = *seq;
                self.stats.snapshots_applied += 1;
            }
            _ => self.stats.wal_frames_applied += 1,
        }
        self.watermark = self.watermark.max(idx);
        Ok(())
    }

    /// Publishes a recovered model (f64, as checkpoints hold it) as the
    /// cell's next generation.
    fn warm(
        &self,
        model: Box<dyn warper_ce::CardinalityEstimator>,
        state: &warper_core::WarperState,
    ) -> Result<u64, DurabilityError> {
        let generation = self.cell.version() + 1;
        let snap =
            ModelSnapshot::committed(generation, model, state).map_err(DurabilityError::State)?;
        Ok(self.cell.publish(snap))
    }

    /// Promote: run the full recovery path over the replica directory —
    /// newest *valid* snapshot, `WarperState::validate`, WAL-tail replay
    /// with truncate-repair — and publish the recovered model to the
    /// serving cell. This is the only road to serving from a standby, so
    /// an unvalidated or torn-tail model cannot be promoted.
    pub fn promote(&mut self, cfg: DurabilityConfig) -> Result<Promotion, DurabilityError> {
        let (store, recovered) = DurableStore::open(Arc::clone(self.dir.vfs()), cfg)?;
        let Some(rec) = recovered else {
            return Err(DurabilityError::Corrupt(
                "standby has no replicated checkpoint to promote from".into(),
            ));
        };
        let Some(model) = rec.model else {
            return Err(DurabilityError::Corrupt(
                "replicated checkpoint carries no serving model".into(),
            ));
        };
        let generation = self.warm(model, &rec.state)?;
        Ok(Promotion {
            store,
            report: rec.report,
            generation,
        })
    }
}
