//! Binary persistence of a structure's bulk numeric runs.
//!
//! A checkpoint image is almost entirely weights, and printing 1.6 M `f64`s
//! as decimal text is what made one slow to write, to parse and to checksum.
//! [`encode`] therefore splits a value in two: every *bulk run* it owns — a
//! matrix's data, a bias vector, a pool record's features, a sketch's
//! registers, as listed by its [`Bulk`] impl — is moved out and written as
//! raw little-endian elements, and what is left (shapes, scalars, config,
//! enums, small collections) is serialized as the JSON *skeleton* its serde
//! impls already define. A new scalar field therefore needs no codec change;
//! only a new bulk run is named in a `Bulk` impl.
//!
//! ```text
//! [runs_len: u32 LE] [run]* [skeleton: JSON text]
//! run = [tag: u8] [count: u32 LE] [count elements, LE]      tag 1 = f64, 2 = u8
//! ```
//!
//! The encoding is deterministic (same value ⇒ same bytes) and bit-exact
//! (`-0.0`, subnormals and NaN payloads survive). [`decode`] is total on
//! arbitrary bytes and allocation-bounded: every count is checked against
//! the bytes that remain before anything is allocated for it, the runs must
//! be consumed exactly, and a run whose owner knows its shape (a matrix's
//! `rows × cols`) must match it.

use serde::json::Parser;
use serde::{Deserialize, Serialize};

const TAG_F64: u8 = 1;
const TAG_U8: u8 = 2;

/// A structure that owns bulk numeric runs.
pub trait Bulk {
    /// Presents every bulk run to `v`, in an order that depends only on the
    /// structure's skeleton (its lengths, shapes and `Option`/enum variants).
    fn runs(&mut self, v: &mut dyn Runs);
}

/// The two directions of a [`Bulk::runs`] walk: the writer drains each run
/// into the image, the reader fills each run from it.
pub trait Runs {
    /// An `f64` run. `len` is the element count the owner's shape fields
    /// demand, when they demand one.
    fn f64s(&mut self, data: &mut Vec<f64>, len: Option<usize>);
    /// A byte run.
    fn u8s(&mut self, data: &mut Vec<u8>);
    /// The owner could not rebuild itself from the runs it was handed: the
    /// image is not one [`encode`] wrote. Fails the decode.
    fn reject(&mut self, why: &'static str);
}

impl<T: Bulk> Bulk for Option<T> {
    fn runs(&mut self, v: &mut dyn Runs) {
        if let Some(inner) = self {
            inner.runs(v);
        }
    }
}

impl<T: Bulk> Bulk for Vec<T> {
    fn runs(&mut self, v: &mut dyn Runs) {
        for item in self {
            item.runs(v);
        }
    }
}

struct Writer<'a> {
    out: &'a mut Vec<u8>,
}

impl Writer<'_> {
    fn header(&mut self, tag: u8, count: usize) {
        // A frame holds at most 1 GiB, so a count that does not fit `u32`
        // can never be stored; saturating keeps the image self-consistent
        // (the reader then rejects it) instead of silently wrapping.
        self.out.push(tag);
        self.out
            .extend_from_slice(&u32::try_from(count).unwrap_or(u32::MAX).to_le_bytes());
    }
}

impl Runs for Writer<'_> {
    fn f64s(&mut self, data: &mut Vec<f64>, _len: Option<usize>) {
        self.header(TAG_F64, data.len());
        self.out.reserve(data.len() * 8);
        for v in data.iter() {
            self.out.extend_from_slice(&v.to_le_bytes());
        }
        *data = Vec::new();
    }

    fn u8s(&mut self, data: &mut Vec<u8>) {
        self.header(TAG_U8, data.len());
        self.out.extend_from_slice(data);
        *data = Vec::new();
    }

    fn reject(&mut self, why: &'static str) {
        unreachable!("an owner rejected the runs it had just written: {why}");
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    err: Option<&'static str>,
}

impl<'a> Reader<'a> {
    /// The element bytes of the next run, which must carry `tag`; `elem` is
    /// the element size. The count is held against the bytes that remain
    /// before the caller allocates anything for it.
    fn run(&mut self, tag: u8, elem: usize) -> Option<&'a [u8]> {
        if self.err.is_some() {
            return None;
        }
        let Some((head, rest)) = self.buf.split_first_chunk::<5>() else {
            self.err = Some("bulk run header truncated");
            return None;
        };
        if head[0] != tag {
            self.err = Some("bulk run has the wrong element type");
            return None;
        }
        let count = u32::from_le_bytes([head[1], head[2], head[3], head[4]]) as usize;
        let Some(bytes) = count.checked_mul(elem).filter(|&n| n <= rest.len()) else {
            self.err = Some("bulk run longer than the bytes that remain");
            return None;
        };
        let (run, rest) = rest.split_at(bytes);
        self.buf = rest;
        Some(run)
    }
}

impl Runs for Reader<'_> {
    fn f64s(&mut self, data: &mut Vec<f64>, len: Option<usize>) {
        let Some(run) = self.run(TAG_F64, 8) else {
            return;
        };
        if len.is_some_and(|n| n != run.len() / 8) {
            self.err = Some("bulk run does not match its owner's shape");
            return;
        }
        *data = run
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
            .collect();
    }

    fn u8s(&mut self, data: &mut Vec<u8>) {
        if let Some(run) = self.run(TAG_U8, 1) {
            *data = run.to_vec();
        }
    }

    fn reject(&mut self, why: &'static str) {
        self.err.get_or_insert(why);
    }
}

/// Appends the binary image of `value` to `out`: its bulk runs, then its
/// hollowed JSON skeleton. Consumes the value — the runs are moved out of it.
pub fn encode<T: Serialize + Bulk>(mut value: T, out: &mut Vec<u8>) {
    let at = out.len();
    out.extend_from_slice(&[0; 4]);
    value.runs(&mut Writer { out });
    let runs_len = u32::try_from(out.len() - at - 4).unwrap_or(u32::MAX);
    out[at..at + 4].copy_from_slice(&runs_len.to_le_bytes());
    let mut skeleton = String::new();
    value.serialize(&mut skeleton);
    out.extend_from_slice(skeleton.as_bytes());
}

/// Rebuilds a value from an image [`encode`] wrote. Total: any byte string
/// yields `Ok` or `Err`, never a panic, and never allocates more than a
/// constant factor of `image.len()`.
pub fn decode<T: for<'de> Deserialize<'de> + Bulk>(image: &[u8]) -> Result<T, String> {
    let (head, rest) = image
        .split_first_chunk::<4>()
        .ok_or("bulk image shorter than its header")?;
    let runs_len = u32::from_le_bytes(*head) as usize;
    if runs_len > rest.len() {
        return Err("bulk runs longer than the image".into());
    }
    let (runs, skeleton) = rest.split_at(runs_len);
    let text = std::str::from_utf8(skeleton).map_err(|e| e.to_string())?;
    let mut p = Parser::new(text);
    let mut value = T::deserialize(&mut p).map_err(|e| e.to_string())?;
    p.end().map_err(|e| e.to_string())?;
    let mut reader = Reader {
        buf: runs,
        err: None,
    };
    value.runs(&mut reader);
    match reader.err {
        Some(e) => Err(e.into()),
        None if !reader.buf.is_empty() => Err("bulk runs left over after the last owner".into()),
        None => Ok(value),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    fn image_of(m: &Matrix) -> Vec<u8> {
        let mut out = Vec::new();
        encode(m.clone(), &mut out);
        out
    }

    #[test]
    fn matrix_roundtrips_bit_exactly() {
        let data = vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE / 4.0,
            -1.5e-310,
            f64::MAX,
            std::f64::consts::PI,
        ];
        let m = Matrix::from_vec(2, 3, data.clone());
        let image = image_of(&m);
        assert_eq!(image, image_of(&m), "encoding is deterministic");
        let back: Matrix = decode(&image).expect("decodes");
        assert_eq!((back.rows(), back.cols()), (2, 3));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(back.data()), bits(&data));
    }

    /// An image assembled by hand: `runs` bytes, then the skeleton text.
    fn image(runs: &[u8], skeleton: &str) -> Vec<u8> {
        let mut out = (runs.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(runs);
        out.extend_from_slice(skeleton.as_bytes());
        out
    }

    fn f64_run(values: &[f64]) -> Vec<u8> {
        let mut run = vec![TAG_F64];
        run.extend_from_slice(&(values.len() as u32).to_le_bytes());
        run.extend(values.iter().flat_map(|v| v.to_le_bytes()));
        run
    }

    #[test]
    fn shape_mismatch_truncation_and_leftovers_are_errors() {
        let run = f64_run(&[1.0, 2.0, 3.0, 4.0]);
        let good = image(&run, "{\"rows\":2,\"cols\":2,\"data\":[]}");
        assert_eq!(
            good,
            image_of(&Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]))
        );
        for cut in 0..good.len() {
            assert!(decode::<Matrix>(&good[..cut]).is_err(), "cut at {cut}");
        }
        // A skeleton that claims another shape than the run holds (one whose
        // product overflows included).
        for rows in ["3", "18446744073709551615"] {
            let lying = image(&run, &format!("{{\"rows\":{rows},\"cols\":2,\"data\":[]}}"));
            assert!(decode::<Matrix>(&lying).unwrap_err().contains("shape"));
        }
        // A count far beyond the bytes that remain fails before allocating.
        let mut huge = good.clone();
        huge[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode::<Matrix>(&huge).unwrap_err().contains("remain"));
        // The wrong element type, and a run nobody claims.
        let mut bytes = good.clone();
        bytes[4] = TAG_U8;
        assert!(decode::<Matrix>(&bytes).unwrap_err().contains("type"));
        let two = [run.clone(), run].concat();
        let extra = image(&two, "[{\"rows\":2,\"cols\":2,\"data\":[]}]");
        assert!(decode::<Vec<Matrix>>(&extra)
            .unwrap_err()
            .contains("left over"));
    }
}
