//! The request/response vocabulary of the serving core.
//!
//! Every request — in process through a [`crate::FleetHandle`] or over the
//! wire through `net::server` — is answered with an [`Estimate`] or a typed
//! [`ServeError`], delivered through a one-shot [`ResponseSlot`] the
//! dispatcher fills and the requester waits on. No async runtime: a
//! condvar-backed slot per request.

use std::sync::{Condvar, Mutex, PoisonError};

use warper_ce::{CardinalityEstimator, LabeledExample, UpdateKind};

/// A successful estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// The model's cardinality estimate.
    pub value: f64,
    /// Generation of the snapshot that served it (staleness = current cell
    /// version minus this).
    pub generation: u64,
    /// Size of the micro-batch this request rode in.
    pub batch_size: usize,
}

/// Why a request was not answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control: the shard's queue was full.
    Shed,
    /// The request was admitted but waited past
    /// [`crate::FleetConfig::queue_deadline`] before a worker reached it.
    ShedDeadline,
    /// The fleet is shutting down.
    Closed,
    /// The request's feature vector does not match the model.
    FeatureDim {
        /// The serving model's feature dimension.
        expected: usize,
        /// The request's feature count.
        got: usize,
    },
    /// The request named a shard this fleet does not have.
    UnknownShard {
        /// The shard id the request asked for.
        shard: u32,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Shed => write!(f, "request shed (queue full)"),
            ServeError::ShedDeadline => write!(f, "request shed (queue deadline exceeded)"),
            ServeError::Closed => write!(f, "service closed"),
            ServeError::FeatureDim { expected, got } => {
                write!(
                    f,
                    "feature dim mismatch: model expects {expected}, got {got}"
                )
            }
            ServeError::UnknownShard { shard } => write!(f, "unknown shard {shard}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Placeholder a cell holds before any model may serve from it (a standby
/// before its first validated checkpoint, see [`crate::ModelSnapshot::cold`]).
/// It can never answer a request: the front-end refuses with
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

/// A one-shot rendezvous the dispatcher fills and the requester waits on.
pub(crate) struct ResponseSlot {
    result: Mutex<Option<Result<Estimate, ServeError>>>,
    ready: Condvar,
}

impl ResponseSlot {
    pub(crate) fn new() -> Self {
        Self {
            result: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    pub(crate) fn fill(&self, value: Result<Estimate, ServeError>) {
        let mut slot = self.result.lock().unwrap_or_else(PoisonError::into_inner);
        *slot = Some(value);
        drop(slot);
        self.ready.notify_one();
    }

    pub(crate) fn wait(&self) -> Result<Estimate, ServeError> {
        let mut slot = self.result.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(res) = slot.take() {
                return res;
            }
            slot = self
                .ready
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}
