//! The serving layer: a concurrent cardinality-estimation service with
//! hot-swappable model snapshots and an online adaptation loop.
//!
//! The paper evaluates Warper as an offline replay; a deployment has to
//! answer estimation requests *while* adapting. This crate closes that gap
//! with one serving core, one adaptation step and one measurement harness,
//! all plain `std` threads (no async runtime):
//!
//! * [`snapshot`] — epoch-style publication: workers answer from an
//!   immutable [`ModelSnapshot`] behind a [`SnapshotCell`]; the adaptation
//!   loop publishes a new generation under the cell's lock, and readers
//!   take the current `(version, Arc)` pair with [`SnapshotCell::load`].
//! * [`queue`] — the bounded micro-batching queue: producers shed instead
//!   of blocking (admission control), consumers drain batches for the
//!   model's one-GEMM-per-layer `estimate_many` path.
//! * [`fleet`] — the serving core (DESIGN.md §8): one shard — snapshot
//!   cell, admission queue, adaptation worker, durable lineage — per
//!   `(tenant, table)`, a shared worker pool with deficit-round-robin
//!   fairness, and cross-shard batch packing that answers many small
//!   tenants' requests with one `estimate_many` call whenever their shards
//!   still share a snapshot `Arc`. A single-table service is the one-shard
//!   fleet; [`service`] holds the request/response vocabulary
//!   ([`Estimate`], [`ServeError`]).
//! * [`adapt`] — the adaptation loop: [`Adapter::step`] runs the supervised
//!   checkpoint → invoke → validate → commit cycle, driven by a background
//!   [`AdaptWorker`] per adapting shard or by a replay at its barriers;
//!   only *committed* steps are ever published (the supervisor's commit
//!   hook is the single publication point), so a rolled-back update can
//!   never serve a request. [`bring_up`] is how a shard starts: what it
//!   adapts with, what it serves first, and what a durable lineage resumes.
//! * [`quant`] — the dual-precision publication gate (DESIGN.md §10):
//!   every publication quantizes the validated f64 model's serving copy
//!   (f32 or int8 SIMD microkernels) and admits it only if its GMQ drift
//!   vs the full model stays inside budget, falling back to f64 otherwise;
//!   training, checkpoints, and the WAL stay f64 throughout.
//! * [`net`] — the networked front-end and replicated durability
//!   (DESIGN.md §11): a length-prefixed CRC-framed binary protocol over a
//!   `ByteStream` seam (TCP, in-memory pipes, or fault injection) routing
//!   shard-addressed requests to a fleet, streaming WAL/checkpoint shipping
//!   to a warm standby that validates everything before install and
//!   promotes only through the full recovery path, and a bounded-retry
//!   client that can fail but never hang.
//!
//! [`replay`] is the measurement harness over all of it: pre-generated
//! query streams with Zipf-skewed shard assignment, mid-run drift events,
//! per-client latency histograms, and an order-independent estimate
//! checksum that makes replays comparable bit-for-bit (see its module docs
//! for the determinism argument). With [`replay::DurableReplay`] configured,
//! the harness is also crash-safe: annotation labels are write-ahead
//! logged, supervisor commits drive atomic checkpoints (via
//! `warper-durable`), and a restarted replay over the same state
//! directories resumes each adapting shard's controller, pool, and serving
//! model with zero acknowledged-label loss.

pub mod adapt;
pub mod fleet;
pub mod net;
pub mod quant;
pub mod queue;
pub mod replay;
pub mod service;
pub mod snapshot;

pub use adapt::{
    bring_up, initial_snapshot, AdaptConfig, AdaptStats, AdaptWorker, Adapter, Lineage, ShardAdapt,
};
pub use fleet::{Fleet, FleetConfig, FleetHandle, FleetStats, ShardKey, ShardSpec, ShardStats};
pub use net::{
    AckLevel, AckMode, EstimateClient, NetError, NetServer, NetServerConfig, PrimaryNode,
    PrimarySpec, ReplHub, ReplicatedStore, RetryPolicy, StandbyApplier, StandbyConfig, StandbyNode,
};
pub use quant::{gate_and_choose, prepare_serving_model, probe_features, QuantOutcome};
pub use queue::{BatchQueue, PushError};
pub use replay::{
    run_net_loadgen, run_replay, AdaptMode, DriftEvent, DriftKind, DurabilityReport, DurableReplay,
    NetLoadReport, NetLoadSpec, ReplayReport, ReplaySpec, ShardReport, VfsFactory,
};
pub use service::{Estimate, ServeError};
pub use snapshot::{ModelSnapshot, SnapshotCell};
pub use warper_ce::Precision;
