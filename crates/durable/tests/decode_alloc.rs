//! Decoding outside bytes allocates in proportion to the bytes it was given.
//!
//! Every length a snapshot, a WAL frame or a replication-shipped checkpoint
//! carries — a frame's `len`, a bulk image's `runs_len`, a run's element
//! count, a matrix's `rows × cols` — is held against the bytes that remain
//! before anything is allocated for it, so a damaged or hostile image can
//! cost at most a constant factor of its own size. This binary measures
//! that with a counting allocator; it holds one `#[test]` so nothing else
//! allocates while a decode is being measured.
//!
//! The damage is applied to frame *payloads*, which are then re-framed with
//! a valid checksum: flipping bytes of a finished file only ever exercises
//! the CRC check.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use warper_core::{WarperConfig, WarperController, WarperState};
use warper_durable::frame::{decode_frame, encode_frame, FrameDecode};
use warper_durable::{decode_snapshot, encode_snapshot, validate_wal_frame};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: defers every request to `System` unchanged; the counters are
// side bookkeeping and never influence what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK.fetch_max(live, Ordering::Relaxed);
        // SAFETY: same layout, forwarded as received.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes allocated at the high-water mark of `f`, above where it started.
fn peak_of(f: impl FnOnce()) -> usize {
    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    f();
    PEAK.load(Ordering::Relaxed).saturating_sub(start)
}

/// The constant: the densest text → memory expansion the skeleton parser has
/// is a `Vec` of empty `Vec`s (3 bytes of text per 24-byte header, doubled by
/// growth, old and new buffer alive across a reallocation).
const FACTOR: usize = 32;
const SLACK: usize = 64 * 1024;

fn state() -> WarperState {
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

/// The two frame payloads of a snapshot image.
fn payloads(image: &[u8]) -> (Vec<u8>, Vec<u8>) {
    let FrameDecode::Frame { payload, consumed } = decode_frame(&image[8..]) else {
        panic!("state frame");
    };
    let FrameDecode::Frame { payload: model, .. } = decode_frame(&image[8 + consumed..]) else {
        panic!("model frame");
    };
    (payload.to_vec(), model.to_vec())
}

/// `payload` with one kind of damage at `at`: cut short, a bit flipped, or
/// four bytes overwritten with `0xFF` (what turns a count or a length into
/// 4 Gi).
fn damage(payload: &[u8], kind: usize, at: usize) -> Vec<u8> {
    let mut p = payload.to_vec();
    match kind {
        0 => p.truncate(at),
        1 => p[at] ^= 1 << (at % 8),
        _ => p[at..(at + 4).min(payload.len())].fill(0xFF),
    }
    p
}

#[test]
fn decoding_is_allocation_bounded() {
    let state = state();
    let v4 = encode_snapshot(&state, None).expect("encodes");
    let (v4_state, v4_model) = payloads(&v4);
    // The same state as an earlier build wrote it: JSON text frames.
    let v1_state = serde_json::to_string(&state)
        .expect("serializes")
        .into_bytes();
    let record = br#"{"Label":{"features":[0.25,0.5,0.75,1.0],"gt":42.0,"arrival":true}}"#;

    // Every third offset lands a 4-byte overwrite on each count and length
    // of the binary image in at least one alignment; the JSON image is
    // sampled more coarsely (it has no lengths, only text to misparse).
    let snapshots = [
        (b"WARPSNP4", v4_state.as_slice(), v4_model.as_slice(), 3),
        (b"WARPSNP1", v1_state.as_slice(), b"null".as_slice(), 29),
    ];
    for (magic, good, model, stride) in snapshots {
        for at in (0..good.len()).step_by(stride) {
            for kind in 0..3 {
                let mut image = magic.to_vec();
                image.extend_from_slice(&encode_frame(&damage(good, kind, at)));
                image.extend_from_slice(&encode_frame(model));
                let peak = peak_of(|| drop(decode_snapshot(&image)));
                assert!(
                    peak <= FACTOR * image.len() + SLACK,
                    "{}: damage {kind} at {at} of a {}-byte image allocated {peak} bytes",
                    String::from_utf8_lossy(magic),
                    image.len()
                );
            }
        }
    }
    for at in 0..record.len() {
        for kind in 0..3 {
            let frame = encode_frame(&damage(record, kind, at));
            let peak = peak_of(|| drop(validate_wal_frame(&frame)));
            assert!(
                peak <= FACTOR * frame.len() + SLACK,
                "wal frame: damage {kind} at {at} allocated {peak} bytes"
            );
        }
    }
}
