//! Write-ahead log of annotation observations between checkpoints.
//!
//! File layout: an 8-byte magic followed by CRC-framed records (see
//! [`crate::frame`]), each payload a JSON-encoded [`WalRecord`]. A record is
//! *acknowledged* — and only then may the caller treat the label as durable
//! — once both the append and the following fsync succeed. On an append
//! failure the writer truncate-repairs the file back to its last good
//! length, so one torn record never poisons the records that follow it.
//!
//! Reading tolerates arbitrary garbage tails: decoding stops at the first
//! corrupt frame and reports the byte offset of the last good record, which
//! recovery uses to resume appending on the repaired prefix.

use serde::{Deserialize, Serialize};

use crate::frame::{decode_frame, encode_frame, FrameDecode};
use crate::vfs::{Vfs, VfsError};
use crate::DurabilityError;

/// Magic prefix of every WAL file ("WARPWAL" + format version 1).
const WAL_MAGIC: &[u8; 8] = b"WARPWAL1";

/// One durable observation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WalRecord {
    /// A ground-truth label the annotator paid for (or observed on an
    /// arrival). `arrival` distinguishes labeled arrivals from committed
    /// pool additions; both replay identically.
    Label {
        features: Vec<f64>,
        gt: f64,
        arrival: bool,
    },
}

/// Outcome of scanning a WAL file.
#[derive(Debug, Default)]
pub struct WalReadout {
    /// Every record up to the first corruption.
    pub records: Vec<WalRecord>,
    /// Byte offset just past the last good record (where appends resume).
    pub good_len: u64,
    /// Whether a garbage tail (or bad magic) was found past `good_len`.
    pub truncated: bool,
}

/// Scan `name`, decoding records until EOF or the first corrupt frame.
pub fn read_wal(vfs: &dyn Vfs, name: &str) -> Result<WalReadout, DurabilityError> {
    let data = vfs.read(name)?;
    if data.len() < WAL_MAGIC.len() || &data[..WAL_MAGIC.len()] != WAL_MAGIC {
        // Unrecognizable file: nothing salvageable, not even the magic.
        return Ok(WalReadout {
            records: Vec::new(),
            good_len: 0,
            truncated: true,
        });
    }
    let mut offset = WAL_MAGIC.len();
    let mut records = Vec::new();
    let mut truncated = false;
    loop {
        match decode_frame(&data[offset..]) {
            FrameDecode::CleanEof => break,
            FrameDecode::Corrupt(_) => {
                truncated = true;
                break;
            }
            FrameDecode::Frame { payload, consumed } => {
                match crate::json_from_bytes::<WalRecord>(payload) {
                    Ok(rec) => {
                        records.push(rec);
                        offset += consumed;
                    }
                    Err(_) => {
                        // Checksum-valid but undecodable: treat as the start
                        // of a corrupt tail rather than skipping over it.
                        truncated = true;
                        break;
                    }
                }
            }
        }
    }
    Ok(WalReadout {
        records,
        good_len: offset as u64,
        truncated,
    })
}

/// Appender that tracks the last known-good file length and repairs torn
/// tails before every new record.
pub struct WalWriter {
    name: String,
    good_len: u64,
    /// A failed append may have left garbage; repair before the next write.
    needs_repair: bool,
}

impl WalWriter {
    /// Create a fresh WAL file (truncating any existing one) and make its
    /// header durable. The caller is responsible for the `sync_dir` barrier
    /// that makes the *entry* durable.
    pub fn create(vfs: &dyn Vfs, name: &str) -> Result<Self, DurabilityError> {
        vfs.create(name)?;
        vfs.append(name, WAL_MAGIC)?;
        vfs.fsync(name)?;
        Ok(WalWriter {
            name: name.to_string(),
            good_len: WAL_MAGIC.len() as u64,
            needs_repair: false,
        })
    }

    /// Resume appending to an existing WAL whose scan reported `good_len`.
    /// Any tail past it is truncated away immediately.
    pub fn resume(
        vfs: &dyn Vfs,
        name: &str,
        readout: &WalReadout,
    ) -> Result<Self, DurabilityError> {
        if readout.truncated {
            vfs.truncate(name, readout.good_len)?;
        }
        Ok(WalWriter {
            name: name.to_string(),
            good_len: readout.good_len,
            needs_repair: false,
        })
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Append one record and fsync. `Ok` means the record is durable — the
    /// caller may acknowledge the label. On failure the file is repaired
    /// back to its good prefix (immediately if possible, else lazily before
    /// the next append) and the record is NOT acknowledged.
    pub fn append(&mut self, vfs: &dyn Vfs, record: &WalRecord) -> Result<(), DurabilityError> {
        let payload = crate::json_to_bytes(record).map_err(DurabilityError::Encode)?;
        self.append_framed(vfs, &encode_frame(&payload))
    }

    /// [`WalWriter::append`] for bytes that are already whole frames — what
    /// a replica appends when it installs a shipped record or carry-forward.
    pub fn append_framed(&mut self, vfs: &dyn Vfs, frames: &[u8]) -> Result<(), DurabilityError> {
        if self.needs_repair {
            vfs.truncate(&self.name, self.good_len)?;
            self.needs_repair = false;
        }
        match vfs
            .append(&self.name, frames)
            .and_then(|()| vfs.fsync(&self.name))
        {
            Ok(()) => {
                self.good_len += frames.len() as u64;
                Ok(())
            }
            Err(err) => {
                // Best-effort immediate repair; if the store is dead
                // (power cut) the truncate fails too and repair stays
                // pending for a writer that will never run again.
                if vfs.truncate(&self.name, self.good_len).is_err() {
                    self.needs_repair = true;
                }
                Err(DurabilityError::Vfs(err))
            }
        }
    }
}

/// Decode exactly one framed WAL record from `frame` (as shipped by a
/// replication tap). The frame must carry a checksum-valid, fully decodable
/// record and nothing else — a standby uses this to vet a shipped frame
/// *before* appending it to its local WAL, so a corrupted ship can never
/// poison the replica's tail.
pub fn validate_wal_frame(frame: &[u8]) -> Result<WalRecord, DurabilityError> {
    match decode_frame(frame) {
        FrameDecode::Frame { payload, consumed } if consumed == frame.len() => {
            crate::json_from_bytes::<WalRecord>(payload)
                .map_err(|e| DurabilityError::Corrupt(format!("wal frame undecodable: {e}")))
        }
        FrameDecode::Frame { .. } => Err(DurabilityError::Corrupt(
            "wal frame has trailing bytes".into(),
        )),
        FrameDecode::CleanEof => Err(DurabilityError::Corrupt("empty wal frame".into())),
        FrameDecode::Corrupt(msg) => Err(DurabilityError::Corrupt(format!("wal frame: {msg}"))),
    }
}

/// True if `err` is a missing-file error.
pub fn is_not_found(err: &DurabilityError) -> bool {
    matches!(err, DurabilityError::Vfs(VfsError::NotFound(_)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;

    fn label(x: f64) -> WalRecord {
        WalRecord::Label {
            features: vec![x, x + 0.5],
            gt: 100.0 * x,
            arrival: false,
        }
    }

    #[test]
    fn wal_roundtrip() {
        let vfs = MemVfs::new();
        let mut w = WalWriter::create(&vfs, "wal").unwrap();
        for i in 0..5 {
            w.append(&vfs, &label(i as f64)).unwrap();
        }
        let out = read_wal(&vfs, "wal").unwrap();
        assert_eq!(out.records.len(), 5);
        assert!(!out.truncated);
        assert_eq!(out.records[3], label(3.0));
    }

    #[test]
    fn garbage_tail_is_truncated_at_last_good_record() {
        let vfs = MemVfs::new();
        let mut w = WalWriter::create(&vfs, "wal").unwrap();
        w.append(&vfs, &label(1.0)).unwrap();
        w.append(&vfs, &label(2.0)).unwrap();
        let good = vfs.size("wal").unwrap();
        vfs.append("wal", &[0xDE, 0xAD, 0xBE]).unwrap();

        let out = read_wal(&vfs, "wal").unwrap();
        assert_eq!(out.records.len(), 2);
        assert!(out.truncated);
        assert_eq!(out.good_len, good);

        // Resume repairs the tail and appending continues cleanly.
        let mut w2 = WalWriter::resume(&vfs, "wal", &out).unwrap();
        w2.append(&vfs, &label(3.0)).unwrap();
        let out2 = read_wal(&vfs, "wal").unwrap();
        assert_eq!(out2.records.len(), 3);
        assert!(!out2.truncated);
    }

    #[test]
    fn bad_magic_salvages_nothing() {
        let vfs = MemVfs::new();
        vfs.create("wal").unwrap();
        vfs.append("wal", b"NOTAWAL!rest").unwrap();
        let out = read_wal(&vfs, "wal").unwrap();
        assert!(out.records.is_empty());
        assert!(out.truncated);
        assert_eq!(out.good_len, 0);
    }

    #[test]
    fn failed_append_repairs_and_does_not_ack() {
        use crate::vfs::{FailKind, FailPlan, FailpointVfs};
        let mem = MemVfs::new();
        let mut w = {
            let setup = FailpointVfs::new(mem.clone());
            let mut w = WalWriter::create(&setup, "wal").unwrap();
            w.append(&setup, &label(1.0)).unwrap();
            w
        };
        // Short write on the next append: record 2 must NOT be acked, and
        // record 3 must land cleanly after in-place repair.
        let ops_per_append = 2; // append + fsync
        let fp = FailpointVfs::with_plan(
            mem.clone(),
            FailPlan {
                at_op: 0,
                kind: FailKind::ShortWrite,
            },
        );
        assert!(w.append(&fp, &label(2.0)).is_err());
        w.append(&fp, &label(3.0)).unwrap();
        assert_eq!(fp.ops(), 1 + 1 + ops_per_append); // fault + repair truncate + append/fsync
        let out = read_wal(&mem, "wal").unwrap();
        let recs = out.records;
        assert_eq!(recs, vec![label(1.0), label(3.0)]);
        assert!(!out.truncated);
    }
}
