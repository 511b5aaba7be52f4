//! The sharded multi-tenant estimator fleet (DESIGN.md §12).
//!
//! Production CE deployments serve thousands of tables, not one: ByteCard's
//! deployability argument hinges on keeping per-table overhead tiny. This
//! module puts a shard router in front of the serving machinery: every
//! `(tenant, table)` shard owns its own [`SnapshotCell`], bounded admission
//! queue, counters, and — when configured — its own [`AdaptWorker`] and
//! durable WAL/checkpoint lineage, while *all* shards share one worker
//! pool.
//!
//! The headline optimization is **cross-shard batch packing**: small
//! tenants rarely queue enough requests to fill a micro-batch on their own,
//! so a per-shard worker pool would burn its throughput on tiny GEMMs. The
//! fleet dispatcher instead drains several ready shards into one pack and
//! groups their requests by *snapshot identity* — shards that still serve
//! the same `Arc<ModelSnapshot>` (same weights, same precision, same
//! generation; see [`SnapshotCell::new_shared`]) are answered by a single
//! `estimate_many` call, one GEMM per layer for the whole pack. A shard
//! whose adaptation loop has published its own generation simply packs
//! alone: grouping by `Arc` pointer identity makes "may these requests
//! share a GEMM" trivially sound, and PR 6's batch-invariance guarantee
//! makes the packed answers bit-identical to serving each shard alone
//! (proptested in `tests/fleet_proptests.rs`).
//!
//! Fairness is deficit-round-robin over a ready ring: a shard is enqueued
//! at most once, each activation drains at most [`FleetConfig::quantum`]
//! requests, and a shard with leftovers re-queues at the *tail* — so a hot
//! tenant cycles behind every other ready shard instead of starving them,
//! and sheds at its own queue bound ([`FleetConfig::per_shard_queue`])
//! instead of consuming the fleet's.

mod pack;
mod rank;

pub use crate::adapt::ShardAdapt;
pub use rank::{DriftRanker, ShardDrift};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use warper_core::ArrivedQuery;

use crate::adapt::{AdaptStats, AdaptWorker};
use crate::queue::{BatchQueue, PushError};
use crate::service::{Estimate, ResponseSlot, ServeError};
use crate::snapshot::{ModelSnapshot, SnapshotCell};

use pack::ReadyRing;

/// Identity of one shard: which tenant, which of their tables.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ShardKey {
    /// Owning tenant.
    pub tenant: String,
    /// Table within the tenant.
    pub table: String,
}

impl ShardKey {
    pub fn new(tenant: impl Into<String>, table: impl Into<String>) -> Self {
        Self {
            tenant: tenant.into(),
            table: table.into(),
        }
    }

    /// The state-directory name this shard's durable lineage lives under:
    /// `shard-{tenant}-{table}` with anything outside `[A-Za-z0-9_-]`
    /// mapped to `_`. This is the on-disk layout pinned by the
    /// `fleet_layout_v1` fixture — change it only with a format bump.
    pub fn dir_name(&self) -> String {
        let sane = |s: &str| -> String {
            s.chars()
                .map(|c| {
                    if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                        c
                    } else {
                        '_'
                    }
                })
                .collect()
        };
        format!("shard-{}-{}", sane(&self.tenant), sane(&self.table))
    }
}

impl std::fmt::Display for ShardKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.tenant, self.table)
    }
}

/// Fleet shape knobs.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Shared worker threads answering the whole fleet.
    pub workers: usize,
    /// Per-shard admission bound: a tenant's requests beyond this are shed
    /// at *their* door, never from another tenant's budget.
    pub per_shard_queue: usize,
    /// Largest packed batch a worker assembles across shards.
    pub max_packed_batch: usize,
    /// Deficit-round-robin quantum: requests one shard may contribute per
    /// activation before it re-queues behind the other ready shards.
    pub quantum: usize,
    /// Cap on how long a worker lingers for more ready shards after the
    /// first, before executing a smaller pack. The linger itself is
    /// `min(pack_linger, mean estimate_many call so far)` — zero until a
    /// call has been measured — since waiting longer than one call costs
    /// can never pay for itself.
    pub pack_linger: Duration,
    /// Oldest a request may be when a worker picks it up. A request that
    /// waited longer is shed with [`ServeError::ShedDeadline`] instead of
    /// being answered late — distinct from admission shed
    /// ([`ServeError::Shed`]) both in the stats and on the wire. `None`
    /// disables the check.
    pub queue_deadline: Option<Duration>,
    /// Cross-shard packing. `false` keeps the same shared pool and
    /// fairness but runs one `estimate_many` per shard sub-batch — the
    /// baseline the fleet bench compares against.
    pub packing: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            per_shard_queue: 64,
            max_packed_batch: 128,
            quantum: 32,
            pack_linger: Duration::from_micros(200),
            queue_deadline: None,
            packing: true,
        }
    }
}

/// One shard's declaration at fleet start.
pub struct ShardSpec {
    /// Who this shard serves.
    pub key: ShardKey,
    /// Initial serving snapshot. Pass *clones of one `Arc`* for shards
    /// serving the same base model — that sharing is what lets the packer
    /// group them into one GEMM (see module docs).
    pub snapshot: Arc<ModelSnapshot>,
    /// Online adaptation for this shard, if any.
    pub adapt: Option<ShardAdapt>,
}

#[derive(Default)]
pub(crate) struct ShardCounters {
    pub(crate) served: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) shed_deadline: AtomicU64,
    pub(crate) rejected: AtomicU64,
    /// Sub-batches this shard contributed to packs.
    pub(crate) sub_batches: AtomicU64,
    /// Requests across those sub-batches.
    pub(crate) sub_batched_requests: AtomicU64,
}

/// Point-in-time counters of one shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Requests answered with an estimate.
    pub served: u64,
    /// Requests shed at this shard's admission bound.
    pub shed: u64,
    /// Requests admitted but shed for aging past the queue deadline.
    pub shed_deadline: u64,
    /// Requests rejected for a feature-dimension mismatch.
    pub rejected: u64,
    /// Sub-batches this shard contributed to packed batches.
    pub sub_batches: u64,
    /// Requests across those sub-batches.
    pub sub_batched_requests: u64,
    /// The shard's current snapshot generation (>0 once its adaptation
    /// loop has published).
    pub generation: u64,
}

impl ShardStats {
    /// Mean requests this shard put into each pack it joined — the "tiny
    /// per-shard batch" the packer amortizes away.
    pub fn mean_sub_batch(&self) -> f64 {
        if self.sub_batches == 0 {
            0.0
        } else {
            self.sub_batched_requests as f64 / self.sub_batches as f64
        }
    }
}

#[derive(Default)]
pub(crate) struct FleetCounters {
    packs: AtomicU64,
    gemm_groups: AtomicU64,
    packed_requests: AtomicU64,
    inference_nanos: AtomicU64,
    deadline_trips: AtomicU64,
}

/// Fleet-wide counters plus the per-shard totals rolled up.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Shards in the fleet.
    pub shards: u64,
    /// Requests answered across all shards.
    pub served: u64,
    /// Requests shed at shard admission bounds.
    pub shed: u64,
    /// Requests shed for aging past the queue deadline.
    pub shed_deadline: u64,
    /// Requests rejected for feature-dimension mismatches.
    pub rejected: u64,
    /// Packs assembled (dispatcher wakeups that found work).
    pub packs: u64,
    /// `estimate_many` calls executed. With packing on, many shards'
    /// sub-batches share one; with packing off this equals the number of
    /// sub-batches.
    pub gemm_groups: u64,
    /// Requests that rode in those calls.
    pub packed_requests: u64,
    /// Sub-batches across all shards (each pack membership of each shard).
    pub sub_batches: u64,
    /// Wall-clock nanoseconds inside `estimate_many` (the GEMM time).
    pub inference_nanos: u64,
    /// Connection-level deadline expiries recorded by the network
    /// front-end against this fleet.
    pub deadline_trips: u64,
}

impl FleetStats {
    /// Mean requests per `estimate_many` call — the batch size the GEMM
    /// actually sees.
    pub fn mean_gemm_batch(&self) -> f64 {
        if self.gemm_groups == 0 {
            0.0
        } else {
            self.packed_requests as f64 / self.gemm_groups as f64
        }
    }

    /// Mean requests per shard sub-batch — the batch size each shard could
    /// have mustered alone.
    pub fn mean_sub_batch(&self) -> f64 {
        if self.sub_batches == 0 {
            0.0
        } else {
            self.packed_requests as f64 / self.sub_batches as f64
        }
    }

    /// Pack efficiency: mean GEMM batch over mean per-shard sub-batch —
    /// how many shards' worth of work each GEMM amortizes. 1.0 means
    /// packing bought nothing (or is off); N means N small tenants rode
    /// each call on average.
    pub fn pack_efficiency(&self) -> f64 {
        let sub = self.mean_sub_batch();
        if sub == 0.0 {
            0.0
        } else {
            self.mean_gemm_batch() / sub
        }
    }
}

/// One request in a shard queue, waiting for the dispatcher.
pub(crate) struct FleetRequest {
    pub(crate) features: Vec<f64>,
    pub(crate) slot: Arc<ResponseSlot>,
    pub(crate) enqueued: Instant,
}

/// Per-shard runtime state the dispatcher and handles share.
pub(crate) struct ShardRuntime {
    pub(crate) key: ShardKey,
    pub(crate) cell: Arc<SnapshotCell<ModelSnapshot>>,
    pub(crate) queue: BatchQueue<FleetRequest>,
    pub(crate) counters: ShardCounters,
    /// Whether this shard currently holds (or is about to hold) a ready
    /// ring entry. The push-side protocol — push to the queue, then enqueue
    /// the shard only on the `false → true` transition — keeps at most one
    /// ring entry per shard, which is what makes the round-robin fair.
    pub(crate) ready: AtomicBool,
}

pub(crate) struct FleetShared {
    pub(crate) shards: Vec<ShardRuntime>,
    pub(crate) ring: ReadyRing,
    pub(crate) counters: FleetCounters,
    pub(crate) cfg: FleetConfig,
}

impl FleetShared {
    fn stats(&self) -> FleetStats {
        let mut s = FleetStats {
            shards: self.shards.len() as u64,
            packs: self.counters.packs.load(Ordering::Relaxed),
            gemm_groups: self.counters.gemm_groups.load(Ordering::Relaxed),
            packed_requests: self.counters.packed_requests.load(Ordering::Relaxed),
            inference_nanos: self.counters.inference_nanos.load(Ordering::Relaxed),
            deadline_trips: self.counters.deadline_trips.load(Ordering::Relaxed),
            ..FleetStats::default()
        };
        for sh in &self.shards {
            s.served += sh.counters.served.load(Ordering::Relaxed);
            s.shed += sh.counters.shed.load(Ordering::Relaxed);
            s.shed_deadline += sh.counters.shed_deadline.load(Ordering::Relaxed);
            s.rejected += sh.counters.rejected.load(Ordering::Relaxed);
            s.sub_batches += sh.counters.sub_batches.load(Ordering::Relaxed);
        }
        s
    }
}

/// The running fleet: shard runtimes, the shared worker pool, and the
/// per-shard adaptation workers.
///
/// Dropping the fleet closes every shard queue and joins the workers;
/// in-flight requests are answered first (drain-then-exit), and a request
/// that slipped in behind the drain is answered [`ServeError::Closed`].
pub struct Fleet {
    shared: Arc<FleetShared>,
    workers: Vec<JoinHandle<()>>,
    adapts: Vec<Option<AdaptWorker>>,
}

impl Fleet {
    /// Starts the fleet over `specs` (shard id = index) with `cfg.workers`
    /// shared threads.
    pub fn start(specs: Vec<ShardSpec>, cfg: FleetConfig) -> Self {
        let mut shards = Vec::with_capacity(specs.len());
        let mut adapt_inputs = Vec::with_capacity(specs.len());
        for spec in specs {
            let cell = Arc::new(SnapshotCell::new_shared(spec.snapshot));
            shards.push(ShardRuntime {
                key: spec.key,
                cell: Arc::clone(&cell),
                queue: BatchQueue::new(cfg.per_shard_queue),
                counters: ShardCounters::default(),
                ready: AtomicBool::new(false),
            });
            adapt_inputs.push(spec.adapt.map(|a| (a, cell)));
        }
        let shared = Arc::new(FleetShared {
            shards,
            ring: ReadyRing::new(),
            counters: FleetCounters::default(),
            cfg,
        });
        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("fleet-worker-{i}"))
                    .spawn(move || pack::worker_loop(shared))
                    .expect("spawn fleet worker")
            })
            .collect();
        let adapts = adapt_inputs
            .into_iter()
            .map(|input| input.map(|(a, cell)| AdaptWorker::spawn(a, cell)))
            .collect();
        Self {
            shared,
            workers,
            adapts,
        }
    }

    /// The one-shard fleet — what a single-table service is.
    pub fn single(
        snapshot: Arc<ModelSnapshot>,
        adapt: Option<ShardAdapt>,
        cfg: FleetConfig,
    ) -> Self {
        let key = ShardKey::new("tenant-0000", "main");
        let spec = ShardSpec {
            key,
            snapshot,
            adapt,
        };
        Self::start(vec![spec], cfg)
    }

    /// A clonable handle for submitting requests to any shard.
    pub fn handle(&self) -> FleetHandle {
        FleetHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The snapshot cell of shard `id` (tests and publication hooks).
    pub fn cell(&self, id: u32) -> Option<&Arc<SnapshotCell<ModelSnapshot>>> {
        self.shared.shards.get(id as usize).map(|s| &s.cell)
    }

    /// Feeds one arrived query to shard `id`'s adaptation worker. No-op
    /// for unknown shards and shards without adaptation — observation is
    /// best-effort by design.
    pub fn observe(&self, id: u32, q: ArrivedQuery) {
        if let Some(Some(w)) = self.adapts.get(id as usize) {
            w.observe(q);
        }
    }

    /// Fleet-wide counters.
    pub fn stats(&self) -> FleetStats {
        self.shared.stats()
    }

    /// The key of shard `id`.
    pub fn key(&self, id: u32) -> Option<&ShardKey> {
        self.shared.shards.get(id as usize).map(|s| &s.key)
    }

    /// Closes every shard queue, drains in-flight requests, joins the
    /// worker pool, then finishes each adaptation worker. Returns
    /// `(fleet, per-shard, per-shard adaptation)` stats.
    pub fn shutdown(mut self) -> (FleetStats, Vec<ShardStats>, Vec<(u32, AdaptStats)>) {
        self.shutdown_inner();
        let adapt: Vec<(u32, AdaptStats)> = self
            .adapts
            .drain(..)
            .enumerate()
            .filter_map(|(i, w)| w.map(|w| (i as u32, w.finish())))
            .collect();
        (self.shared.stats(), self.shard_stats_inner(), adapt)
    }

    fn shard_stats_inner(&self) -> Vec<ShardStats> {
        self.shared
            .shards
            .iter()
            .map(|s| ShardStats {
                served: s.counters.served.load(Ordering::Relaxed),
                shed: s.counters.shed.load(Ordering::Relaxed),
                shed_deadline: s.counters.shed_deadline.load(Ordering::Relaxed),
                rejected: s.counters.rejected.load(Ordering::Relaxed),
                sub_batches: s.counters.sub_batches.load(Ordering::Relaxed),
                sub_batched_requests: s.counters.sub_batched_requests.load(Ordering::Relaxed),
                generation: s.cell.version(),
            })
            .collect()
    }

    fn shutdown_inner(&mut self) {
        for s in &self.shared.shards {
            s.queue.close();
        }
        self.shared.ring.close();
        for w in self.workers.drain(..) {
            if let Err(e) = w.join() {
                std::panic::resume_unwind(e);
            }
        }
        // A request admitted just before `close()` announces its shard on
        // the ring only after the push, with no lock held in between: the
        // workers may already have seen "ring closed and empty" and left.
        // The queues are closed, so nothing can be admitted behind this
        // sweep — answer what is stranded instead of leaving it waiting.
        let mut stranded = Vec::new();
        for s in &self.shared.shards {
            s.queue.try_pop_batch(usize::MAX, &mut stranded);
        }
        for req in stranded {
            req.slot.fill(Err(ServeError::Closed));
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.shutdown_inner();
        for w in self.adapts.drain(..).flatten() {
            let _ = w.finish();
        }
    }
}

/// A clonable submission handle over the whole fleet. `estimate` blocks the
/// calling thread until the answer arrives (or the request is shed or
/// rejected).
#[derive(Clone)]
pub struct FleetHandle {
    shared: Arc<FleetShared>,
}

impl FleetHandle {
    /// Submits one request to shard `shard` and waits for its estimate.
    pub fn estimate(&self, shard: u32, features: Vec<f64>) -> Result<Estimate, ServeError> {
        let Some(s) = self.shared.shards.get(shard as usize) else {
            return Err(ServeError::UnknownShard { shard });
        };
        let slot = Arc::new(ResponseSlot::new());
        let req = FleetRequest {
            features,
            slot: Arc::clone(&slot),
            enqueued: Instant::now(),
        };
        match s.queue.try_push(req) {
            Ok(()) => {
                #[cfg(test)]
                tests::stall_between_admit_and_announce();
                // Enqueue the shard on the false→true edge only: at most
                // one ring entry per shard (see ShardRuntime::ready).
                if !s.ready.swap(true, Ordering::AcqRel) {
                    self.shared.ring.push(shard);
                }
                slot.wait()
            }
            Err(PushError::Full(_)) => {
                s.counters.shed.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::Shed)
            }
            Err(PushError::Closed(_)) => Err(ServeError::Closed),
        }
    }

    /// Records one connection-level deadline expiry against the fleet.
    pub fn note_deadline_trip(&self) {
        self.shared
            .counters
            .deadline_trips
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Fleet-wide counters.
    pub fn stats(&self) -> FleetStats {
        self.shared.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    thread_local! {
        /// What this thread does between its queue push and its ring push —
        /// the window (tens of nanoseconds otherwise) the tests below hold
        /// a client in.
        static WINDOW: std::cell::RefCell<Option<Box<dyn Fn()>>> =
            const { std::cell::RefCell::new(None) };
    }

    pub(super) fn stall_between_admit_and_announce() {
        WINDOW.with_borrow(|w| w.iter().for_each(|f| f()));
    }

    fn cold_fleet() -> Fleet {
        let snapshot = Arc::new(ModelSnapshot::cold());
        let cfg = FleetConfig {
            workers: 1,
            ..FleetConfig::default()
        };
        Fleet::single(snapshot, None, cfg)
    }

    /// The interleaving itself: a request is in its shard queue but not yet
    /// on the ring when shutdown closes, drains and joins. The workers left
    /// on "ring closed and empty"; the sweep must answer it.
    #[test]
    fn request_admitted_behind_the_drain_is_answered_closed() {
        let fleet = cold_fleet();
        let handle = fleet.handle();
        let (admitted_tx, admitted) = channel();
        let (resume, resumed) = channel::<()>();
        let (answer_tx, answer) = channel();
        std::thread::spawn(move || {
            WINDOW.set(Some(Box::new(move || {
                admitted_tx.send(()).unwrap();
                resumed.recv().unwrap();
            })));
            answer_tx.send(handle.estimate(0, Vec::new())).unwrap();
        });
        admitted.recv().unwrap();
        fleet.shutdown();
        resume.send(()).unwrap();
        let got = answer.recv_timeout(Duration::from_secs(2));
        assert_eq!(got, Ok(Err(ServeError::Closed)), "stranded in slot.wait()");
    }

    /// The same race under load: clients hammer one worker until `Closed`
    /// while shutdown lands at a varying offset; every call must return.
    #[test]
    fn shutdown_never_strands_an_admitted_request() {
        for iter in 0..5_000u64 {
            let fleet = cold_fleet();
            let (done_tx, done) = channel();
            for _ in 0..6 {
                let (h, done_tx) = (fleet.handle(), done_tx.clone());
                std::thread::spawn(move || {
                    WINDOW.set(Some(Box::new(|| {
                        std::thread::sleep(Duration::from_micros(30))
                    })));
                    loop {
                        match h.estimate(0, Vec::new()) {
                            Ok(_) | Err(ServeError::Shed) => {}
                            Err(ServeError::Closed) => return done_tx.send(()).unwrap(),
                            Err(e) => panic!("unexpected error {e}"),
                        }
                    }
                });
            }
            std::thread::sleep(Duration::from_micros(20 + iter % 150));
            fleet.shutdown();
            for _ in 0..6 {
                let got = done.recv_timeout(Duration::from_secs(2));
                assert!(got.is_ok(), "iteration {iter}: a client is still blocked");
            }
        }
    }
}
