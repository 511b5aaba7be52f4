//! The durable store: atomic checkpoints + WAL rotation + recovery.
//!
//! ## On-disk layout (flat, inside one state directory)
//!
//! ```text
//! snap-00000007.ckpt   magic "WARPSNP4" + frame(WarperState) + frame(Option<ModelBlob>)
//! snap-00000008.ckpt   newest snapshot (last-known-good is the one before)
//! wal-00000007.log     magic "WARPWAL1" + frames of labels since snap 7
//! wal-00000008.log     labels since snap 8 (the live WAL)
//! tmp-snap-*.ckpt      in-flight checkpoint; removed/overwritten on open
//! ```
//!
//! Both frame payloads are [`bulk`] images: weights, pool features and
//! sketch registers as raw little-endian runs, everything else as the JSON
//! skeleton. That is the only format written; `"WARPSNP1"` files (the same
//! two frames, each one JSON text) written by earlier builds still load, so
//! a state directory upgrades in place at its next checkpoint. The WAL
//! format is the same under both.
//!
//! ## Checkpoint protocol (fsync ordering)
//!
//! 1. write `tmp-snap-<n+1>.ckpt` fully, `fsync` it;
//! 2. create `wal-<n+1>.log` and append the *carry-forward*: every
//!    acknowledged label from the previous WAL that the snapshot's pool did
//!    not absorb (each append fsyncs);
//! 3. `rename` the temp file to `snap-<n+1>.ckpt` (atomic replace) — this
//!    is the **commit point**: the moment the new snapshot is visible, the
//!    in-memory store switches to the new sequence and WAL, because
//!    recovery starts from the newest visible snapshot and only reads WALs
//!    at or above it;
//! 4. one `sync_dir` barrier publishes the rename and the new WAL entry;
//!    if it fails, the checkpoint reports failure but the lineage switch
//!    stands, and `append_label` re-takes the barrier before acking
//!    anything into the still-volatile WAL entry;
//! 5. after the barrier, snapshots/WALs older than `<n>` are deleted
//!    (best-effort).
//!
//! Rotating the WAL *before* the rename (2 before 3) is load-bearing: if
//! rotation fails, the previous `(snap, wal)` pair is untouched and stays
//! the recovery source; if the rename fails after rotation, recovery from
//! the old snapshot replays the old WAL plus the newer one, where the
//! carry records deduplicate. A failed checkpoint is retried on the next
//! commit. This is what makes the acked ⇒ durable invariant hold without
//! ever blocking acknowledgements.
//!
//! ## Recovery algorithm
//!
//! 1. delete `tmp-*` strays;
//! 2. walk snapshots newest-first; the first one whose magic, frames,
//!    checksums, deserialization, *and* `WarperState::validate` all pass is
//!    the base (its predecessor existing is what "last-known-good retained"
//!    buys);
//! 3. read its WAL, truncating at the first corrupt record, and replay the
//!    labels into the pool (deduplicating against labels the snapshot
//!    already holds, enforcing `cfg.pool_cap` by the pool's eviction
//!    policy);
//! 4. re-validate and hand the state (plus the deserialized serving model,
//!    when present) to the caller.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use warper_ce::persist::bulk;
use warper_ce::CardinalityEstimator;
use warper_core::WarperState;

use crate::frame::{decode_frame, encode_frame, write_frame, FrameDecode, MAX_FRAME_LEN};
use crate::model_blob::ModelBlob;
use crate::vfs::Vfs;
use crate::wal::{is_not_found, read_wal, validate_wal_frame, WalReadout, WalRecord, WalWriter};
use crate::DurabilityError;

/// Magic prefix of the snapshot files this build writes: both frames are
/// [`bulk`] images.
pub const SNAP_MAGIC: &[u8; 8] = b"WARPSNP4";

/// Magic prefix of the snapshot files earlier builds wrote (both frames JSON
/// text); read, never written.
pub const SNAP_MAGIC_V1: &[u8; 8] = b"WARPSNP1";

fn snap_name(seq: u64) -> String {
    format!("snap-{seq:08}.ckpt")
}

fn tmp_snap_name(seq: u64) -> String {
    format!("tmp-snap-{seq:08}.ckpt")
}

fn wal_name(seq: u64) -> String {
    format!("wal-{seq:08}.log")
}

fn parse_seq(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

/// Durability tunables.
#[derive(Debug, Clone, Copy)]
pub struct DurabilityConfig {
    /// Supervisor commits between checkpoints (1 = checkpoint every commit).
    pub checkpoint_every: usize,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            checkpoint_every: 4,
        }
    }
}

/// Counters accumulated over a store's lifetime.
#[derive(Debug, Clone, Copy, Default)]
pub struct DurabilityStats {
    /// Checkpoints successfully published.
    pub checkpoints: usize,
    /// Checkpoint attempts that failed (retried at the next commit).
    pub checkpoint_failures: usize,
    /// Labels acknowledged (durable in the WAL).
    pub wal_appends: usize,
    /// Label appends that failed (not acknowledged).
    pub wal_append_failures: usize,
    /// Labels re-appended into a rotated WAL because the snapshot's pool
    /// had not absorbed them.
    pub carried_forward: usize,
    /// Wall-clock seconds spent writing checkpoints.
    pub checkpoint_secs: f64,
    /// Wall-clock seconds spent appending to the WAL.
    pub wal_secs: f64,
}

/// One durable mutation, observed *after* it is locally durable (fsynced).
/// A replication tap receives these in commit order; the byte payloads are
/// exactly what hit the primary's disk, so a standby that writes them under
/// the same file names reconstructs a byte-identical state directory.
#[derive(Debug, Clone, PartialEq)]
pub enum DurableEvent {
    /// One label frame appended to `wal-<wal_seq>.log`. `frame` is the
    /// CRC32-framed record as written (length + checksum + JSON payload).
    WalAppend {
        /// Sequence of the live WAL the frame went into.
        wal_seq: u64,
        /// The framed bytes appended to that WAL.
        frame: Vec<u8>,
    },
    /// Checkpoint `snap-<seq>.ckpt` published and the WAL rotated to
    /// `wal-<seq>.log`, whose initial contents (after the magic) are the
    /// framed carry-forward records in `carry`.
    Checkpoint {
        /// Sequence of the published snapshot.
        seq: u64,
        /// Full contents of the snapshot file.
        snapshot: Vec<u8>,
        /// Framed carry-forward records seeding the rotated WAL.
        carry: Vec<u8>,
    },
}

/// A replication tap: called synchronously after each durable mutation,
/// while the store's internal order is still the call order.
pub type DurableTap = Box<dyn FnMut(&DurableEvent) + Send>;

/// What recovery found.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Sequence number of the snapshot recovery restored from.
    pub snapshot_seq: u64,
    /// Snapshots that failed checksum/deserialization/validation and were
    /// skipped (newest-first) before a good one was found.
    pub corrupt_snapshots: usize,
    /// WAL records replayed into the pool on top of the snapshot.
    pub wal_records_replayed: usize,
    /// Whether the WAL had a corrupt tail that was truncated away.
    pub wal_truncated: bool,
    /// Wall-clock seconds the whole recovery took.
    pub recovery_secs: f64,
    /// Pool size after replay.
    pub pool_len: usize,
    /// Usable labels in the pool after replay.
    pub pool_labeled: usize,
}

/// A successfully recovered durable image.
pub struct Recovered {
    /// Validated controller state, WAL tail already replayed.
    pub state: WarperState,
    /// The serving CE model, when the snapshot carried one.
    pub model: Option<Box<dyn CardinalityEstimator>>,
    /// What recovery did.
    pub report: RecoveryReport,
}

/// Crash-safe persistence for one Warper instance's adaptation state.
pub struct DurableStore {
    vfs: Arc<dyn Vfs>,
    cfg: DurabilityConfig,
    /// Sequence of the newest published checkpoint (0 = none yet).
    seq: u64,
    wal: WalWriter,
    /// Whether the live WAL's *directory entry* is known durable. False
    /// after a checkpoint whose publishing barrier failed: appends into a
    /// volatile entry would vanish with it on power loss, so `append_label`
    /// re-issues the barrier before acking anything into such a WAL.
    dir_synced: bool,
    /// In-memory mirror of the live WAL's records, for carry-forward.
    tail: Vec<WalRecord>,
    commits_since_checkpoint: usize,
    stats: DurabilityStats,
    tap: Option<DurableTap>,
    /// Largest frame payload a checkpoint may write: [`MAX_FRAME_LEN`], the
    /// most the reader accepts (unit tests lower it).
    max_frame_len: u32,
}

impl DurableStore {
    /// Open a state directory: recover the newest valid durable image if
    /// one exists, and position the store to continue appending.
    ///
    /// A fresh (empty) directory yields `None` for the recovery half;
    /// labels appended before the first checkpoint become recoverable once
    /// that checkpoint provides a base state, so callers should checkpoint
    /// the initial state promptly. A directory whose *every* snapshot is
    /// corrupt is an error — silently starting fresh would clobber state
    /// the operator may still want to salvage.
    pub fn open(
        vfs: Arc<dyn Vfs>,
        cfg: DurabilityConfig,
    ) -> Result<(DurableStore, Option<Recovered>), DurabilityError> {
        let t0 = Instant::now();
        let names = vfs.list()?;
        for name in &names {
            if name.starts_with("tmp-") {
                let _ = vfs.remove(name);
            }
        }

        let mut seqs: Vec<u64> = names
            .iter()
            .filter_map(|n| parse_seq(n, "snap-", ".ckpt"))
            .collect();
        seqs.sort_unstable();
        seqs.reverse();

        let mut corrupt_snapshots = 0usize;
        let mut base: Option<(u64, LoadedSnapshot)> = None;
        for &seq in &seqs {
            match load_snapshot(vfs.as_ref(), &snap_name(seq)) {
                Ok((state, model)) => {
                    base = Some((seq, (state, model)));
                    break;
                }
                Err(_) => corrupt_snapshots += 1,
            }
        }

        let Some((seq, (mut state, model))) = base else {
            if corrupt_snapshots > 0 {
                return Err(DurabilityError::Corrupt(format!(
                    "all {corrupt_snapshots} snapshots in the state directory are corrupt"
                )));
            }
            let wal = WalWriter::create(vfs.as_ref(), &wal_name(0))?;
            vfs.sync_dir()?;
            let store = DurableStore {
                vfs,
                cfg,
                seq: 0,
                wal,
                dir_synced: true,
                tail: Vec::new(),
                commits_since_checkpoint: 0,
                stats: DurabilityStats::default(),
                tap: None,
                max_frame_len: MAX_FRAME_LEN,
            };
            return Ok((store, None));
        };

        // Replay WAL tails. The base snapshot's own WAL holds labels acked
        // since it was published — but when the *newest* snapshot was
        // corrupt and recovery fell back to its predecessor, the labels
        // acked after the newer checkpoint live only in the newer WAL (the
        // rotation carried anything older forward). So every WAL at or
        // above the base sequence is replayed, ascending; deduplication
        // against the pool makes re-reading absorbed records a no-op.
        let mut wal_records_replayed = 0usize;
        let mut wal_truncated = false;
        let mut later_wals: Vec<u64> = names
            .iter()
            .filter_map(|n| parse_seq(n, "wal-", ".log"))
            .filter(|&s| s > seq)
            .collect();
        later_wals.sort_unstable();

        // The live WAL (the base's own). A missing one is possible when
        // directory entries persisted independently (real filesystems may
        // durably publish the snapshot rename without the WAL creation);
        // recreate it empty.
        let (wal, readout) = open_wal(vfs.as_ref(), seq)?;
        wal_records_replayed += apply_wal_records(&mut state, &readout.records);
        wal_truncated |= readout.truncated;
        let mut tail = readout.records;
        for later in later_wals {
            match read_wal(vfs.as_ref(), &wal_name(later)) {
                Ok(readout) => {
                    wal_records_replayed += apply_wal_records(&mut state, &readout.records);
                    wal_truncated |= readout.truncated;
                    // Replayed-but-unabsorbed labels must survive the next
                    // rotation from this (older) base, so they join the
                    // carry-forward mirror.
                    tail.extend(readout.records);
                }
                Err(ref e) if is_not_found(e) => {}
                Err(e) => return Err(e),
            }
        }
        state.validate().map_err(DurabilityError::State)?;

        let report = RecoveryReport {
            snapshot_seq: seq,
            corrupt_snapshots,
            wal_records_replayed,
            wal_truncated,
            recovery_secs: t0.elapsed().as_secs_f64(),
            pool_len: state.pool.len(),
            pool_labeled: state.pool.labeled_count(None),
        };
        // Conservative: the resumed WAL's entry was *listed*, but nothing
        // proves a barrier ever covered it — take one lazy barrier before
        // the first ack instead of assuming.
        let store = DurableStore {
            vfs,
            cfg,
            seq,
            wal,
            dir_synced: false,
            tail,
            commits_since_checkpoint: 0,
            stats: DurabilityStats::default(),
            tap: None,
            max_frame_len: MAX_FRAME_LEN,
        };
        Ok((
            store,
            Some(Recovered {
                state,
                model,
                report,
            }),
        ))
    }

    /// Sequence of the newest published checkpoint (0 = none yet).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Install a replication tap. The tap observes every durable mutation
    /// *after* its local fsync succeeds, in commit order, while the caller
    /// still holds whatever lock serializes the store — so the event order
    /// the tap sees is exactly the on-disk order.
    pub fn set_tap(&mut self, tap: DurableTap) {
        self.tap = Some(tap);
    }

    fn emit(&mut self, ev: DurableEvent) {
        if let Some(tap) = self.tap.as_mut() {
            tap(&ev);
        }
    }

    /// Lifetime counters.
    pub fn stats(&self) -> DurabilityStats {
        self.stats
    }

    /// Records in the live WAL (not yet absorbed by a checkpoint).
    pub fn tail_len(&self) -> usize {
        self.tail.len()
    }

    /// Durably log one ground-truth label. `Ok` *acknowledges* the label:
    /// it is in the WAL and fsynced, and will survive any crash from this
    /// point on. `Err` means the label is NOT durable (the caller may keep
    /// using it in memory; it is simply not crash-protected).
    pub fn append_label(
        &mut self,
        features: &[f64],
        gt: f64,
        arrival: bool,
    ) -> Result<(), DurabilityError> {
        let t0 = Instant::now();
        // Acked ⇒ durable requires the WAL's directory entry to be durable
        // too: a record fsynced into a file whose entry is still volatile
        // vanishes with the entry on power loss. Re-issue the publishing
        // barrier if the last one failed, and refuse to ack until it lands.
        if !self.dir_synced {
            if let Err(e) = self.vfs.sync_dir() {
                self.stats.wal_append_failures += 1;
                self.stats.wal_secs += t0.elapsed().as_secs_f64();
                return Err(e.into());
            }
            self.dir_synced = true;
        }
        let rec = WalRecord::Label {
            features: features.to_vec(),
            gt,
            arrival,
        };
        let res = self.wal.append(self.vfs.as_ref(), &rec);
        self.stats.wal_secs += t0.elapsed().as_secs_f64();
        match res {
            Ok(()) => {
                self.stats.wal_appends += 1;
                if self.tap.is_some() {
                    // Re-encode the record for the tap; serde_json is
                    // deterministic, so these bytes match the WAL's.
                    let frame =
                        encode_frame(&crate::json_to_bytes(&rec).map_err(DurabilityError::Encode)?);
                    self.emit(DurableEvent::WalAppend {
                        wal_seq: self.seq,
                        frame,
                    });
                }
                self.tail.push(rec);
                Ok(())
            }
            Err(e) => {
                self.stats.wal_append_failures += 1;
                Err(e)
            }
        }
    }

    /// Count one supervisor commit; checkpoints every
    /// [`DurabilityConfig::checkpoint_every`] commits. Returns whether a
    /// checkpoint was published. A failed checkpoint leaves the commit
    /// counter above the threshold, so the very next commit retries.
    pub fn note_commit(
        &mut self,
        state: &WarperState,
        model: Option<&dyn CardinalityEstimator>,
    ) -> Result<bool, DurabilityError> {
        self.commits_since_checkpoint += 1;
        if self.commits_since_checkpoint >= self.cfg.checkpoint_every.max(1) {
            self.checkpoint(state, model)?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Publish an atomic checkpoint of `state` (and the serving model, when
    /// given) and rotate the WAL. See the module docs for the protocol.
    pub fn checkpoint(
        &mut self,
        state: &WarperState,
        model: Option<&dyn CardinalityEstimator>,
    ) -> Result<(), DurabilityError> {
        let t0 = Instant::now();
        let res = self.checkpoint_inner(state, model);
        self.stats.checkpoint_secs += t0.elapsed().as_secs_f64();
        match &res {
            Ok(()) => self.stats.checkpoints += 1,
            Err(_) => self.stats.checkpoint_failures += 1,
        }
        res
    }

    fn checkpoint_inner(
        &mut self,
        state: &WarperState,
        model: Option<&dyn CardinalityEstimator>,
    ) -> Result<(), DurabilityError> {
        let next = self.seq + 1;
        let tmp = tmp_snap_name(next);
        let snap = snap_name(next);

        // Before the first file operation: an image the reader would refuse
        // leaves the old snapshot + WAL as the durable image.
        let bytes = encode_snapshot_capped(state, model, self.max_frame_len)?;

        self.vfs.create(&tmp)?;
        self.vfs.append(&tmp, &bytes)?;
        self.vfs.fsync(&tmp)?;

        // Rotate the WAL *before* publishing the snapshot, carrying forward
        // every acked label the snapshot's pool did not absorb — acked ⇒
        // durable must hold unconditionally, even for labels the controller
        // chose to evict. The ordering is load-bearing: if rotation fails,
        // the old snapshot + old WAL still cover every acked label (and the
        // store keeps appending to the old WAL); if the rename below fails
        // after rotation, recovery from the old snapshot replays the old
        // WAL plus the newer one, where the carry records deduplicate. The
        // reverse order has a hole: a published snapshot whose WAL rotation
        // failed strands later acked labels in a WAL recovery never reads.
        let absorbed: HashSet<LabelKey> = state
            .pool
            .records()
            .iter()
            .filter_map(|r| r.gt.map(|g| label_key(&r.features, g)))
            .collect();
        let carry: Vec<WalRecord> = self
            .tail
            .iter()
            .filter(|rec| {
                let WalRecord::Label { features, gt, .. } = rec;
                !absorbed.contains(&label_key(features, *gt))
            })
            .cloned()
            .collect();
        let mut wal = WalWriter::create(self.vfs.as_ref(), &wal_name(next))?;
        for rec in &carry {
            wal.append(self.vfs.as_ref(), rec)?;
        }
        self.vfs.rename(&tmp, &snap)?;

        // The rename is the commit point: the new snapshot is visible, so
        // the store MUST switch to the new lineage now — even if the
        // barrier below fails — or later acked labels would land in a WAL
        // that recovery (which starts from the visible newest snapshot)
        // never reads.
        let mut carry_bytes = Vec::new();
        if self.tap.is_some() {
            for rec in &carry {
                let payload = crate::json_to_bytes(rec).map_err(DurabilityError::Encode)?;
                carry_bytes.extend_from_slice(&encode_frame(&payload));
            }
        }
        self.stats.carried_forward += carry.len();
        self.seq = next;
        self.wal = wal;
        self.tail = carry;

        // One barrier publishes the snapshot rename and the new WAL entry.
        // A transient failure here reports the checkpoint as failed (the
        // commit counter stays high, so the next commit retries) but the
        // lineage switch above stands; `dir_synced` makes `append_label`
        // re-take the barrier before acking into the still-volatile WAL.
        let barrier = self.vfs.sync_dir();
        self.dir_synced = barrier.is_ok();
        if barrier.is_ok() {
            self.commits_since_checkpoint = 0;
        }

        if self.tap.is_some() {
            self.emit(DurableEvent::Checkpoint {
                seq: next,
                snapshot: bytes,
                carry: carry_bytes,
            });
        }
        barrier?;

        retire_before(self.vfs.as_ref(), next);
        Ok(())
    }
}

/// Retention after checkpoint `newest` is published: keep it and its
/// last-known-good predecessor; every older snapshot and WAL goes
/// (best-effort — strays are harmless and re-collected on the next open or
/// checkpoint).
fn retire_before(vfs: &dyn Vfs, newest: u64) {
    let keep_from = newest.saturating_sub(1);
    if let Ok(names) = vfs.list() {
        for name in names {
            let old = parse_seq(&name, "snap-", ".ckpt")
                .or_else(|| parse_seq(&name, "wal-", ".log"))
                .is_some_and(|s| s < keep_from);
            if old {
                let _ = vfs.remove(&name);
            }
        }
        let _ = vfs.sync_dir();
    }
}

/// Opens `wal-<seq>.log` for appending: resumes it on its good prefix
/// (truncating a corrupt tail), or — a missing one is possible when
/// directory entries persisted independently (real filesystems may durably
/// publish the snapshot rename without the WAL creation) — recreates it
/// empty. Also returns what the scan read.
fn open_wal(vfs: &dyn Vfs, seq: u64) -> Result<(WalWriter, WalReadout), DurabilityError> {
    let wname = wal_name(seq);
    match read_wal(vfs, &wname) {
        Ok(readout) => Ok((WalWriter::resume(vfs, &wname, &readout)?, readout)),
        Err(ref e) if is_not_found(e) => {
            let w = WalWriter::create(vfs, &wname)?;
            vfs.sync_dir()?;
            Ok((w, WalReadout::default()))
        }
        Err(e) => Err(e),
    }
}

/// A replica's state directory: where a standby installs the mutations a
/// primary's [`DurableTap`] shipped, so that [`DurableStore::open`] over the
/// same directory recovers what the primary would.
///
/// Everything is vetted before a byte lands, and a checkpoint lands in the
/// primary's order (module docs, "Checkpoint protocol"): temp file → fsync →
/// the rotated WAL with its carry-forward → fsync → rename → `sync_dir` →
/// retention. A failed install leaves the previous `(snap, wal)` pair as the
/// recovery source and may simply be retried.
pub struct ReplicaDir {
    vfs: Arc<dyn Vfs>,
    /// The WAL shipped frames currently go to, by sequence.
    live: Option<(u64, WalWriter)>,
}

impl ReplicaDir {
    /// A replica over `vfs` (empty, or holding an earlier replica's files).
    pub fn new(vfs: Arc<dyn Vfs>) -> Self {
        ReplicaDir { vfs, live: None }
    }

    /// The directory, for the recovery that promotion runs over it.
    pub fn vfs(&self) -> &Arc<dyn Vfs> {
        &self.vfs
    }

    /// Validate and install one shipped mutation. `Ok` means it is durable
    /// here; for a checkpoint it carries the decoded image, which passed
    /// `WarperState::validate`. `Err` means the replica still recovers to
    /// its previous image (a corrupt ship can never poison it).
    pub fn install(
        &mut self,
        ev: &DurableEvent,
    ) -> Result<Option<LoadedSnapshot>, DurabilityError> {
        let vfs = self.vfs.as_ref();
        match ev {
            DurableEvent::Checkpoint {
                seq,
                snapshot,
                carry,
            } => {
                let image = decode_snapshot(snapshot)?;
                let tmp = tmp_snap_name(*seq);
                vfs.create(&tmp)?;
                vfs.append(&tmp, snapshot)?;
                vfs.fsync(&tmp)?;
                let mut wal = WalWriter::create(vfs, &wal_name(*seq))?;
                if !carry.is_empty() {
                    wal.append_framed(vfs, carry)?;
                }
                vfs.rename(&tmp, &snap_name(*seq))?;
                // The commit point, as on the primary: later frames belong
                // to the new WAL whether or not the barrier below lands.
                self.live = Some((*seq, wal));
                vfs.sync_dir()?;
                retire_before(vfs, *seq);
                Ok(Some(image))
            }
            DurableEvent::WalAppend { wal_seq, frame } => {
                validate_wal_frame(frame)?;
                let wal = match &mut self.live {
                    Some((seq, wal)) if seq == wal_seq => wal,
                    // Frames for a WAL this replica did not rotate (ships
                    // that began before the first shipped checkpoint).
                    live => &mut live.insert((*wal_seq, open_wal(vfs, *wal_seq)?.0)).1,
                };
                wal.append_framed(vfs, frame)?;
                Ok(None)
            }
        }
    }
}

type LabelKey = (Vec<u64>, u64);

/// A decoded checkpoint: the validated state plus the optional serving
/// model restored from its blob frame.
pub type LoadedSnapshot = (WarperState, Option<Box<dyn CardinalityEstimator>>);

fn label_key(features: &[f64], gt: f64) -> LabelKey {
    (features.iter().map(|v| v.to_bits()).collect(), gt.to_bits())
}

/// Replay WAL labels into a recovered state's pool: finite, dimensionally
/// sane labels only, deduplicated against what the snapshot already holds,
/// with `cfg.pool_cap` enforced through the pool's own eviction policy.
fn apply_wal_records(state: &mut WarperState, records: &[WalRecord]) -> usize {
    let dim = state.encoder.feature_dim();
    let mut seen: HashSet<LabelKey> = state
        .pool
        .records()
        .iter()
        .filter_map(|r| r.gt.map(|g| label_key(&r.features, g)))
        .collect();
    let mut applied = 0usize;
    for rec in records {
        let WalRecord::Label { features, gt, .. } = rec;
        if features.len() != dim || !gt.is_finite() || features.iter().any(|v| !v.is_finite()) {
            continue;
        }
        if seen.insert(label_key(features, *gt)) {
            state.pool.append_new(&[(features.clone(), Some(*gt))]);
            applied += 1;
        }
    }
    state.pool.evict_to_cap(state.cfg.pool_cap);
    applied
}

fn load_snapshot(vfs: &dyn Vfs, name: &str) -> Result<LoadedSnapshot, DurabilityError> {
    let data = vfs.read(name)?;
    decode_snapshot(&data)
}

/// Encode a full snapshot image (magic + state frame + model frame) in the
/// format this build writes. Deterministic: the same state and model yield
/// the same bytes, which replication's shipped checkpoint images rely on.
pub fn encode_snapshot(
    state: &WarperState,
    model: Option<&dyn CardinalityEstimator>,
) -> Result<Vec<u8>, DurabilityError> {
    encode_snapshot_capped(state, model, MAX_FRAME_LEN)
}

fn encode_snapshot_capped(
    state: &WarperState,
    model: Option<&dyn CardinalityEstimator>,
    max_frame_len: u32,
) -> Result<Vec<u8>, DurabilityError> {
    let too_long = |what: &str, len: usize| {
        DurabilityError::Encode(format!(
            "{what} frame of {len} bytes exceeds the {max_frame_len}-byte frame limit"
        ))
    };
    let mut bytes = SNAP_MAGIC.to_vec();
    // `encode` moves the runs out of the value it is given, hence the copy
    // (of the small frame: the weights are in the model's).
    write_frame(&mut bytes, max_frame_len, |out| {
        bulk::encode(state.clone(), out)
    })
    .map_err(|len| too_long("state", len))?;
    let blob = model.and_then(ModelBlob::capture);
    write_frame(&mut bytes, max_frame_len, |out| bulk::encode(blob, out))
        .map_err(|len| too_long("model", len))?;
    Ok(bytes)
}

/// Decode and validate a full snapshot image from bytes (magic + state
/// frame + model frame), in either the current [`SNAP_MAGIC`] format or the
/// JSON [`SNAP_MAGIC_V1`] one. Ends in `WarperState::validate`, so
/// [`ReplicaDir::install`] vets a shipped checkpoint with it *before* a byte
/// lands. Total and allocation-bounded on arbitrary bytes.
pub fn decode_snapshot(data: &[u8]) -> Result<LoadedSnapshot, DurabilityError> {
    type Payload<T> = fn(&[u8]) -> Result<T, String>;
    let bad_magic = || DurabilityError::Corrupt("bad snapshot magic".into());
    let (magic, rest) = data.split_first_chunk::<8>().ok_or_else(bad_magic)?;
    let (state_of, blob_of): (Payload<WarperState>, Payload<Option<ModelBlob>>) =
        if magic == SNAP_MAGIC {
            (bulk::decode, bulk::decode)
        } else if magic == SNAP_MAGIC_V1 {
            (crate::json_from_bytes, crate::json_from_bytes)
        } else {
            return Err(bad_magic());
        };
    let FrameDecode::Frame { payload, consumed } = decode_frame(rest) else {
        return Err(DurabilityError::Corrupt(
            "snapshot state frame damaged".into(),
        ));
    };
    let state = state_of(payload)
        .map_err(|e| DurabilityError::Corrupt(format!("snapshot state undecodable: {e}")))?;
    state.validate().map_err(DurabilityError::State)?;
    let model = match decode_frame(&rest[consumed..]) {
        FrameDecode::Frame { payload, .. } => {
            let blob = blob_of(payload)
                .map_err(|e| DurabilityError::Corrupt(format!("model blob undecodable: {e}")))?;
            match blob {
                Some(blob) => Some(blob.restore()?),
                None => None,
            }
        }
        // Tolerated: a snapshot written without a model frame still has a
        // fully usable state; resume rebuilds the model instead.
        FrameDecode::CleanEof => None,
        FrameDecode::Corrupt(msg) => {
            return Err(DurabilityError::Corrupt(format!(
                "model frame damaged: {msg}"
            )))
        }
    };
    Ok((state, model))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;
    use warper_core::{WarperConfig, WarperController};

    fn small_state() -> WarperState {
        let cfg = WarperConfig {
            embed_dim: 6,
            hidden: 16,
            n_i: 8,
            pretrain_epochs: 2,
            gamma: 100,
            ..Default::default()
        };
        let train: Vec<(Vec<f64>, f64)> = (0..40)
            .map(|i| (vec![0.2 + 0.001 * (i % 7) as f64; 4], 300.0))
            .collect();
        WarperController::new(4, &train, 1.5, cfg, 42).to_state()
    }

    fn files(mem: &MemVfs) -> Vec<(String, Vec<u8>)> {
        let mut names = mem.list().expect("list");
        names.sort();
        names
            .into_iter()
            .map(|n| {
                let bytes = mem.read(&n).expect("read");
                (n, bytes)
            })
            .collect()
    }

    /// A frame longer than the reader's limit used to be written (its length
    /// cast to `u32`), the WAL rotated, and every later restart refused the
    /// image. It is now refused before the first file operation.
    #[test]
    fn checkpoint_the_reader_would_refuse_is_not_written() {
        let mem = MemVfs::new();
        let (mut store, _) =
            DurableStore::open(Arc::new(mem.clone()), DurabilityConfig::default()).expect("open");
        let state = small_state();
        store.checkpoint(&state, None).expect("base checkpoint");
        store
            .append_label(&[0.1, 0.2, 0.3, 0.4], 77.0, false)
            .expect("label");
        let before = files(&mem);

        store.max_frame_len = 64;
        let err = store.checkpoint(&state, None).expect_err("over the cap");
        assert!(matches!(err, DurabilityError::Encode(_)), "{err}");
        assert_eq!(files(&mem), before, "no temp file, no rotation, no rename");
        assert_eq!(store.seq(), 1);
        assert_eq!(store.stats().checkpoint_failures, 1);

        // The old snapshot + WAL are still the durable image.
        drop(store);
        let (_, recovered) =
            DurableStore::open(Arc::new(mem), DurabilityConfig::default()).expect("reopen");
        let rec = recovered.expect("image");
        assert_eq!(rec.report.snapshot_seq, 1);
        assert_eq!(rec.report.wal_records_replayed, 1);
    }
}
