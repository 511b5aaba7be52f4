//! The cross-shard packer: the ready ring, the shared worker loop, and
//! pack execution.
//!
//! A worker wakes on the first ready shard, lingers collecting more ready
//! shards up to [`FleetConfig::max_packed_batch`] requests — for at most the
//! mean `estimate_many` call so far, capped at [`FleetConfig::pack_linger`]
//! — then groups the drained sub-batches by snapshot `Arc` identity and
//! runs one `estimate_many` per group. Grouping by pointer identity is what
//! makes packing sound: two requests may share a GEMM iff they are answered
//! by the *same* model at the same precision and generation, and sharing
//! the allocation implies exactly that.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::service::{Estimate, ServeError};
use crate::snapshot::ModelSnapshot;

use super::{FleetRequest, FleetShared};

/// The ready ring: shard ids with pending work, in round-robin order.
///
/// The push-side `ready`-flag protocol (see `ShardRuntime::ready`) keeps at
/// most one entry per shard, so the ring length is bounded by the shard
/// count and popping from the head / re-queueing leftovers at the tail is
/// exactly deficit round-robin.
pub(crate) struct ReadyRing {
    state: Mutex<RingState>,
    nonempty: Condvar,
}

struct RingState {
    ids: VecDeque<u32>,
    closed: bool,
}

impl ReadyRing {
    pub(crate) fn new() -> Self {
        Self {
            state: Mutex::new(RingState {
                ids: VecDeque::new(),
                closed: false,
            }),
            nonempty: Condvar::new(),
        }
    }

    /// Appends a shard id at the tail. Permitted after close so workers can
    /// re-queue shards with leftovers while draining.
    pub(crate) fn push(&self, id: u32) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.ids.push_back(id);
        drop(st);
        self.nonempty.notify_one();
    }

    /// Pops the head, waiting while the ring is empty until `deadline`
    /// (without limit when `None`). Returns `None` once the ring is closed
    /// and empty, or once the deadline has passed with the ring empty.
    pub(crate) fn pop(&self, deadline: Option<Instant>) -> Option<u32> {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(id) = st.ids.pop_front() {
                return Some(id);
            }
            if st.closed {
                return None;
            }
            st = match deadline {
                None => self
                    .nonempty
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner),
                Some(d) => {
                    let left = d.checked_duration_since(Instant::now())?;
                    let waited = self.nonempty.wait_timeout(st, left);
                    waited.unwrap_or_else(PoisonError::into_inner).0
                }
            };
        }
    }

    pub(crate) fn close(&self) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
        self.nonempty.notify_all();
    }
}

/// One shard's contribution to the pack being assembled.
struct SubBatch {
    shard: u32,
    reqs: Vec<FleetRequest>,
}

/// The shared worker loop: assemble a pack, execute it, repeat until the
/// ring closes and drains.
pub(crate) fn worker_loop(shared: Arc<FleetShared>) {
    let cfg = shared.cfg;
    while let Some(first) = shared.ring.pop(None) {
        let mut pack: Vec<SubBatch> = Vec::new();
        let mut total = 0usize;
        drain_shard(&shared, first, &mut pack, &mut total);
        // Linger for more ready shards, since small tenants arrive staggered
        // and one larger GEMM beats several tiny ones, but for no longer
        // than one call costs (ski rental): not waiting costs at most one
        // extra call. Before the first call is measured, don't linger.
        let groups = shared.counters.gemm_groups.load(Ordering::Relaxed);
        let nanos = shared.counters.inference_nanos.load(Ordering::Relaxed);
        let mean_call = Duration::from_nanos(nanos.checked_div(groups).unwrap_or(0));
        let deadline = Instant::now() + mean_call.min(cfg.pack_linger);
        while total < cfg.max_packed_batch {
            match shared.ring.pop(Some(deadline)) {
                Some(id) => drain_shard(&shared, id, &mut pack, &mut total),
                None => break,
            }
        }
        execute_pack(&shared, pack);
    }
}

/// Drains up to one quantum from shard `id` into the pack and re-queues the
/// shard at the ring tail if its queue still has items.
fn drain_shard(shared: &FleetShared, id: u32, pack: &mut Vec<SubBatch>, total: &mut usize) {
    let Some(shard) = shared.shards.get(id as usize) else {
        return;
    };
    // Clear the ready flag *before* draining: a producer pushing after this
    // point re-arms the flag and re-queues the shard itself, so nothing can
    // be stranded. (A harmless spurious ring entry — non-empty flag over an
    // empty queue — drains zero requests below.)
    shard.ready.store(false, Ordering::Release);
    let budget = shared
        .cfg
        .quantum
        .min(shared.cfg.max_packed_batch.saturating_sub(*total))
        .max(1);
    let mut reqs = Vec::new();
    let n = shard.queue.try_pop_batch(budget, &mut reqs);
    if n > 0 {
        *total += n;
        pack.push(SubBatch { shard: id, reqs });
    }
    // Leftovers go to the *tail*: the hot shard waits behind every other
    // ready shard (deficit round-robin).
    if !shard.queue.is_empty() && !shard.ready.swap(true, Ordering::AcqRel) {
        shared.ring.push(id);
    }
}

/// A group of requests that share one `estimate_many` call.
struct GemmGroup {
    snap: Arc<ModelSnapshot>,
    /// `(shard, request)` in drain order.
    reqs: Vec<(u32, FleetRequest)>,
}

/// Validates, groups, and executes one assembled pack.
fn execute_pack(shared: &FleetShared, pack: Vec<SubBatch>) {
    if pack.is_empty() {
        return;
    }
    shared.counters.packs.fetch_add(1, Ordering::Relaxed);
    let now = Instant::now();
    let mut groups: Vec<GemmGroup> = Vec::new();
    for sub in pack {
        let Some(shard) = shared.shards.get(sub.shard as usize) else {
            continue;
        };
        // One snapshot resolution per sub-batch: every request of the
        // sub-batch is answered by the same generation, like the
        // single-service worker loop.
        let (_, snap) = shard.cell.load();
        let expected = snap.model.feature_dim();
        let mut kept: Vec<FleetRequest> = Vec::with_capacity(sub.reqs.len());
        for req in sub.reqs {
            if let Some(deadline) = shared.cfg.queue_deadline {
                if now.duration_since(req.enqueued) > deadline {
                    shard.counters.shed_deadline.fetch_add(1, Ordering::Relaxed);
                    req.slot.fill(Err(ServeError::ShedDeadline));
                    continue;
                }
            }
            if req.features.len() != expected {
                shard.counters.rejected.fetch_add(1, Ordering::Relaxed);
                req.slot.fill(Err(ServeError::FeatureDim {
                    expected,
                    got: req.features.len(),
                }));
                continue;
            }
            kept.push(req);
        }
        if kept.is_empty() {
            continue;
        }
        shard.counters.sub_batches.fetch_add(1, Ordering::Relaxed);
        shard
            .counters
            .sub_batched_requests
            .fetch_add(kept.len() as u64, Ordering::Relaxed);
        if shared.cfg.packing {
            if let Some(g) = groups.iter_mut().find(|g| Arc::ptr_eq(&g.snap, &snap)) {
                g.reqs.extend(kept.into_iter().map(|r| (sub.shard, r)));
                continue;
            }
        }
        groups.push(GemmGroup {
            snap,
            reqs: kept.into_iter().map(|r| (sub.shard, r)).collect(),
        });
    }
    for group in groups {
        let features: Vec<&[f64]> = group
            .reqs
            .iter()
            .map(|(_, r)| r.features.as_slice())
            .collect();
        let batch_size = features.len();
        let t0 = Instant::now();
        let values = group.snap.model.estimate_many(&features);
        shared
            .counters
            .inference_nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        shared.counters.gemm_groups.fetch_add(1, Ordering::Relaxed);
        shared
            .counters
            .packed_requests
            .fetch_add(batch_size as u64, Ordering::Relaxed);
        let generation = group.snap.generation;
        for ((shard_id, req), value) in group.reqs.into_iter().zip(values) {
            if let Some(shard) = shared.shards.get(shard_id as usize) {
                shard.counters.served.fetch_add(1, Ordering::Relaxed);
            }
            req.slot.fill(Ok(Estimate {
                value,
                generation,
                batch_size,
            }));
        }
    }
}
