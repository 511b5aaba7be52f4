//! CRC32-framed record encoding shared by snapshots and the WAL.
//!
//! Wire format of one frame:
//!
//! ```text
//! [len: u32 LE] [crc32(payload): u32 LE] [payload: len bytes]
//! ```
//!
//! Decoding distinguishes a *clean end* (the buffer stops exactly at a frame
//! boundary) from a *corrupt tail* (truncated header, truncated payload,
//! implausible length, or checksum mismatch). That distinction is what lets
//! recovery replay a WAL up to the last good record and truncate the rest.

/// Frames above this payload size are rejected as corrupt rather than
/// allocated: a torn length word must not drive a multi-gigabyte read.
pub const MAX_FRAME_LEN: u32 = 1 << 30;

/// Slicing-by-8 tables: `T[0]` is the classic byte-at-a-time table and
/// `T[k][b]` the CRC of byte `b` followed by `k` zero bytes, so eight input
/// bytes fold into the register with eight independent lookups.
const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

/// CRC-32 (IEEE 802.3 polynomial, reflected), eight bytes per step.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

/// Encode one frame: length + checksum header followed by the payload.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Appends one frame to `out` whose payload `fill` writes in place — a
/// multi-megabyte checkpoint payload is never copied into its frame. A
/// payload longer than `max_len` would be written as a frame
/// [`decode_frame`] refuses: `out` is left as it was and `Err` carries the
/// payload's length.
pub fn write_frame(
    out: &mut Vec<u8>,
    max_len: u32,
    fill: impl FnOnce(&mut Vec<u8>),
) -> Result<(), usize> {
    let at = out.len();
    out.extend_from_slice(&[0; 8]);
    fill(out);
    let len = out.len() - at - 8;
    match u32::try_from(len) {
        Ok(len32) if len32 <= max_len => {
            let crc = crc32(&out[at + 8..]);
            out[at..at + 4].copy_from_slice(&len32.to_le_bytes());
            out[at + 4..at + 8].copy_from_slice(&crc.to_le_bytes());
            Ok(())
        }
        _ => {
            out.truncate(at);
            Err(len)
        }
    }
}

/// Result of decoding the frame at the start of a buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameDecode<'a> {
    /// A complete, checksum-valid frame occupying `consumed` bytes.
    Frame { payload: &'a [u8], consumed: usize },
    /// The buffer is empty: a clean end of the frame stream.
    CleanEof,
    /// The buffer starts with garbage: torn header, short payload,
    /// implausible length, or checksum mismatch.
    Corrupt(&'static str),
}

/// Decode the frame at the start of `buf`.
pub fn decode_frame(buf: &[u8]) -> FrameDecode<'_> {
    if buf.is_empty() {
        return FrameDecode::CleanEof;
    }
    if buf.len() < 8 {
        return FrameDecode::Corrupt("truncated frame header");
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    let crc = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
    if len > MAX_FRAME_LEN {
        return FrameDecode::Corrupt("implausible frame length");
    }
    let len = len as usize;
    if buf.len() < 8 + len {
        return FrameDecode::Corrupt("truncated frame payload");
    }
    let payload = &buf[8..8 + len];
    if crc32(payload) != crc {
        return FrameDecode::Corrupt("frame checksum mismatch");
    }
    FrameDecode::Frame {
        payload,
        consumed: 8 + len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time loop [`crc32`] replaced, kept as its reference.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
        }
        !crc
    }

    proptest::proptest! {
        /// Slicing-by-8 computes the same function at every length 0–4096
        /// (the 8-byte body and each remainder) and every start alignment.
        #[test]
        fn crc32_matches_the_bytewise_loop(
            bytes in proptest::collection::vec(0u8..=255, 7..4104usize),
            len in 0usize..=4096,
        ) {
            for start in 0..8 {
                let data = &bytes[start..(start + len).min(bytes.len())];
                proptest::prop_assert_eq!(crc32(data), crc32_bytewise(data));
            }
        }
    }

    #[test]
    fn write_frame_equals_encode_frame_and_enforces_the_cap() {
        let mut out = b"prefix".to_vec();
        write_frame(&mut out, 16, |o| o.extend_from_slice(b"hello warper")).unwrap();
        assert_eq!(&out[6..], encode_frame(b"hello warper"));
        let before = out.clone();
        assert_eq!(
            write_frame(&mut out, 16, |o| o.resize(o.len() + 17, 7)),
            Err(17)
        );
        assert_eq!(out, before, "a refused frame leaves no bytes behind");
    }

    #[test]
    fn frame_roundtrip() {
        let enc = encode_frame(b"hello warper");
        match decode_frame(&enc) {
            FrameDecode::Frame { payload, consumed } => {
                assert_eq!(payload, b"hello warper");
                assert_eq!(consumed, enc.len());
            }
            other => panic!("expected frame, got {other:?}"),
        }
    }

    #[test]
    fn empty_buffer_is_clean_eof() {
        assert_eq!(decode_frame(&[]), FrameDecode::CleanEof);
    }

    #[test]
    fn every_truncation_point_is_detected() {
        let enc = encode_frame(b"payload bytes");
        for cut in 1..enc.len() {
            match decode_frame(&enc[..cut]) {
                FrameDecode::Corrupt(_) => {}
                other => panic!("cut at {cut} not detected: {other:?}"),
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let enc = encode_frame(b"bitflip target");
        for byte in 0..enc.len() {
            for bit in 0..8 {
                let mut bad = enc.clone();
                bad[byte] ^= 1 << bit;
                match decode_frame(&bad) {
                    FrameDecode::Corrupt(_) => {}
                    // A flip in the length word can make the frame appear
                    // truncated-in-a-longer-stream; within a lone buffer it
                    // still must not decode as a valid frame.
                    FrameDecode::Frame { .. } => panic!("flip {byte}:{bit} undetected"),
                    FrameDecode::CleanEof => panic!("flip {byte}:{bit} read as eof"),
                }
            }
        }
    }

    #[test]
    fn oversized_length_word_is_corrupt_not_alloc() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(decode_frame(&buf), FrameDecode::Corrupt(_)));
    }

    #[test]
    fn back_to_back_frames_decode_in_sequence() {
        let mut stream = encode_frame(b"first");
        stream.extend_from_slice(&encode_frame(b"second"));
        let FrameDecode::Frame { payload, consumed } = decode_frame(&stream) else {
            panic!("first frame failed");
        };
        assert_eq!(payload, b"first");
        let FrameDecode::Frame { payload, .. } = decode_frame(&stream[consumed..]) else {
            panic!("second frame failed");
        };
        assert_eq!(payload, b"second");
    }
}
