//! Crash-safe durability for Warper's adaptation state.
//!
//! The paper's premise (§3.5, §4.5) is that adaptation state — the adapted
//! `E`/`G`/`D` networks, the tuned γ, and above all the pool of *annotated*
//! queries whose ground-truth labels cost seconds each — is expensive to
//! rebuild. This crate makes that state survive a crash at any instruction:
//!
//! * [`vfs`] — the file-I/O abstraction: [`vfs::StdVfs`] for a real state
//!   directory, [`vfs::MemVfs`] modelling fsync/dir-sync crash semantics,
//!   and [`vfs::FailpointVfs`] injecting deterministic faults at any
//!   schedulable operation;
//! * [`frame`] — CRC32-framed record encoding shared by snapshots and WAL
//!   (the snapshot frames' payloads are `warper_linalg::bulk` images: raw
//!   little-endian runs for the weights, JSON for the rest);
//! * [`wal`] — the write-ahead log of annotation observations between
//!   checkpoints, with truncate-repair of torn tails;
//! * [`model_blob`] — type-erased persistence of the serving CE model;
//! * [`store`] — [`store::DurableStore`], tying it together: atomic
//!   checkpoints (temp file → fsync → WAL rotation → rename → dir fsync,
//!   last-known-good retained), WAL rotation with carry-forward of labels
//!   not yet absorbed into a snapshot, and recovery = newest valid snapshot →
//!   `WarperState::validate` → WAL-tail replay truncating at the first
//!   corrupt record.
//!
//! The durability invariant, enforced by the kill-at-every-failpoint suite
//! in `tests/crash_recovery.rs`: once [`store::DurableStore::append_label`]
//! returns `Ok` (the label is *acknowledged*), the label survives any
//! subsequent crash, and recovery always yields a `WarperState` that passes
//! `validate()`.

pub mod frame;
pub mod model_blob;
pub mod scoped;
pub mod store;
pub mod vfs;
pub mod wal;

pub use model_blob::ModelBlob;
pub use scoped::{ScopedVfs, SCOPE_SEP};
pub use store::{
    decode_snapshot, encode_snapshot, DurabilityConfig, DurabilityStats, DurableEvent,
    DurableStore, DurableTap, LoadedSnapshot, Recovered, RecoveryReport, ReplicaDir,
};
pub use vfs::{FailKind, FailPlan, FailpointVfs, MemVfs, StdVfs, Vfs, VfsError};
pub use wal::{validate_wal_frame, WalRecord, WalWriter};

use std::fmt;

/// Why a durability operation failed.
#[derive(Debug)]
pub enum DurabilityError {
    /// The underlying VFS operation failed (I/O error, injected fault,
    /// simulated crash).
    Vfs(VfsError),
    /// On-disk bytes were unrecognizable or failed checksum/validation.
    Corrupt(String),
    /// State could not be serialized.
    Encode(String),
    /// A recovered `WarperState` failed its own validation.
    State(warper_core::WarperError),
}

impl fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurabilityError::Vfs(e) => write!(f, "vfs: {e}"),
            DurabilityError::Corrupt(msg) => write!(f, "corrupt durable state: {msg}"),
            DurabilityError::Encode(msg) => write!(f, "encode failure: {msg}"),
            DurabilityError::State(e) => write!(f, "recovered state invalid: {e}"),
        }
    }
}

impl std::error::Error for DurabilityError {}

impl From<VfsError> for DurabilityError {
    fn from(e: VfsError) -> Self {
        DurabilityError::Vfs(e)
    }
}

/// JSON-encode to bytes (the vendored serde_json exposes string I/O only).
pub(crate) fn json_to_bytes<T: serde::Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, String> {
    serde_json::to_string(value)
        .map(String::into_bytes)
        .map_err(|e| e.to_string())
}

/// JSON-decode from bytes; non-UTF-8 payloads are decode errors, not panics.
pub(crate) fn json_from_bytes<T: for<'de> serde::Deserialize<'de>>(
    bytes: &[u8],
) -> Result<T, String> {
    let s = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
    serde_json::from_str(s).map_err(|e| e.to_string())
}
