//! Blocked, optionally multithreaded GEMM kernels with fused-transpose
//! variants.
//!
//! Three products cover every dense contraction in the workspace:
//!
//! * [`matmul_into`]            — `out = a · b`
//! * [`matmul_transpose_a_into`] — `out = aᵀ · b` (no transpose materialized)
//! * [`matmul_transpose_b_into`] — `out = a · bᵀ` (no transpose materialized)
//!
//! All kernels share one accumulation discipline: each output element
//! receives its `k` terms in strictly ascending order, one `+=` per term,
//! starting from `0.0`, with no zero-skipping and no FMA contraction. That
//! makes the cache-blocked kernel, the row-band parallel kernel, and the
//! fused-transpose kernels **bit-identical** to the naive triple loop (and
//! to `transpose()` followed by `matmul`), which the property tests assert.
//!
//! Large products are split into contiguous bands of output rows and fanned
//! out over `crossbeam` scoped threads; disjoint output bands make the
//! parallel result deterministic regardless of scheduling. Small products
//! (under [`PARALLEL_FLOP_CUTOFF`] multiply-adds) skip thread spawn entirely
//! and run the serial blocked kernel.

use crate::matrix::Matrix;

/// Rows of `a` processed per L2 tile (transpose-A kernel).
const BLOCK_I: usize = 32;
/// Contraction depth processed per tile (transpose-A kernel).
const BLOCK_K: usize = 64;

/// Multiply-add count below which threading costs more than it saves.
pub const PARALLEL_FLOP_CUTOFF: u64 = 4_000_000;

/// A parallel worker never gets fewer output rows than this.
pub const MIN_ROWS_PER_BAND: usize = 8;

/// Picks a worker count for an `m×k · k×n` product: 1 below the FLOP
/// cutoff, otherwise bounded by hardware parallelism and by giving every
/// band at least [`MIN_ROWS_PER_BAND`] rows.
pub fn auto_threads(m: usize, k: usize, n: usize) -> usize {
    let flops = (m as u64).saturating_mul(k as u64).saturating_mul(n as u64);
    if flops < PARALLEL_FLOP_CUTOFF {
        return 1;
    }
    let hw = std::thread::available_parallelism().map_or(1, |p| p.get());
    hw.min(m.div_ceil(MIN_ROWS_PER_BAND)).max(1)
}

/// `out = a · b`, reusing `out`'s allocation. Threads chosen automatically.
///
/// # Panics
/// Panics on inner-dimension mismatch or if `out` aliases an input (not
/// expressible through the borrow system here, so dimensions are the guard).
pub fn matmul_into(out: &mut Matrix, a: &Matrix, b: &Matrix) {
    matmul_into_threaded(out, a, b, auto_threads(a.rows(), a.cols(), b.cols()));
}

/// `out = a · b` with an explicit worker count (exposed so tests can pin
/// thread counts; results are identical for every `threads` value).
pub fn matmul_into_threaded(out: &mut Matrix, a: &Matrix, b: &Matrix, threads: usize) {
    assert_eq!(a.cols(), b.rows(), "matmul dimension mismatch");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    out.ensure_shape(m, n);
    out.fill_zero();
    run_banded(out.data_mut(), m, n, threads, |row0, band| {
        band_mul(band, a.data(), b.data(), row0, k, n);
    });
}

/// `out = aᵀ · b` without materializing `aᵀ` (`a` is `p×m`, `b` is `p×n`,
/// `out` is `m×n`). Threads chosen automatically.
pub fn matmul_transpose_a_into(out: &mut Matrix, a: &Matrix, b: &Matrix) {
    matmul_transpose_a_into_threaded(out, a, b, auto_threads(a.cols(), a.rows(), b.cols()));
}

/// `out = aᵀ · b` with an explicit worker count.
pub fn matmul_transpose_a_into_threaded(out: &mut Matrix, a: &Matrix, b: &Matrix, threads: usize) {
    assert_eq!(a.rows(), b.rows(), "matmul_transpose_a dimension mismatch");
    let (p, m, n) = (a.rows(), a.cols(), b.cols());
    out.ensure_shape(m, n);
    out.fill_zero();
    run_banded(out.data_mut(), m, n, threads, |row0, band| {
        band_tmul(band, a.data(), b.data(), row0, p, m, n);
    });
}

/// `out = a · bᵀ` without materializing `bᵀ` (`a` is `m×k`, `b` is `n×k`,
/// `out` is `m×n`). Threads chosen automatically.
pub fn matmul_transpose_b_into(out: &mut Matrix, a: &Matrix, b: &Matrix) {
    matmul_transpose_b_into_threaded(out, a, b, auto_threads(a.rows(), a.cols(), b.rows()));
}

/// `out = a · bᵀ` with an explicit worker count.
pub fn matmul_transpose_b_into_threaded(out: &mut Matrix, a: &Matrix, b: &Matrix, threads: usize) {
    assert_eq!(a.cols(), b.cols(), "matmul_transpose_b dimension mismatch");
    let (m, k, n) = (a.rows(), a.cols(), b.rows());
    out.ensure_shape(m, n);
    run_banded(out.data_mut(), m, n, threads, |row0, band| {
        band_mul_bt(band, a.data(), b.data(), row0, k, n);
    });
}

/// Splits `out` (an `m×n` row-major buffer) into contiguous row bands and
/// runs `kernel(first_row, band)` on each, across `threads` scoped workers.
///
/// Bands are disjoint `&mut` slices, so worker scheduling cannot affect the
/// result. The serial path (`threads <= 1` or a single band) avoids thread
/// spawn altogether.
fn run_banded(
    out: &mut [f64],
    m: usize,
    n: usize,
    threads: usize,
    kernel: impl Fn(usize, &mut [f64]) + Sync,
) {
    let threads = threads.max(1).min(m.max(1));
    if threads == 1 || m == 0 || n == 0 {
        kernel(0, out);
        return;
    }
    let band_rows = m.div_ceil(threads);
    crossbeam::scope(|scope| {
        for (bi, band) in out.chunks_mut(band_rows * n).enumerate() {
            let kernel = &kernel;
            scope.spawn(move |_| kernel(bi * band_rows, band));
        }
    })
    .expect("gemm worker panicked");
}

/// Micro-kernel tile height: output rows accumulated in registers at once.
pub const MR: usize = 4;
/// Micro-kernel tile width in f64 lanes (one or two SIMD vectors).
const NR: usize = 8;

/// `band = a[row0..][..rows] · b` for the band's rows.
///
/// Structure: `MR×NR` output tiles are accumulated entirely in registers
/// across the **full** contraction dimension, inside an outer row block that
/// keeps the active slab of `a` in L2 while a `k×NR` column panel of `b`
/// streams through L1. Each output element is one accumulator chain fed in
/// ascending `k` starting from `0.0` — the identical add sequence to the
/// naive i-k-j loop (which also starts from a zeroed matrix), so the result
/// is bit-identical; registers only remove the intermediate loads/stores.
fn band_mul(band: &mut [f64], a: &[f64], b: &[f64], row0: usize, k: usize, n: usize) {
    mul_panels(
        band,
        a,
        row0,
        k,
        n,
        |panel, j| {
            for (kk, dst) in panel.chunks_exact_mut(NR).enumerate() {
                dst.copy_from_slice(&b[kk * n + j..kk * n + j + NR]);
            }
        },
        |kk, jj| b[kk * n + jj],
    );
}

/// Packed-panel micro-kernel driver shared by [`band_mul`] (plain `a·b`) and
/// [`band_mul_bt`] (`a·bᵀ`): the two differ only in how a k×[`NR`] column
/// panel of the right operand is gathered.
///
/// Without packing, the kernel's panel walk strides `n` (or `k`) doubles per
/// k-step — for typical power-of-two widths that is exactly one 4 KiB page,
/// which defeats the hardware prefetcher and stalls every load. Packing
/// costs one strided sweep per j-tile and converts the hot loop to purely
/// sequential reads. It is data movement only: the multiply-add sequence per
/// output element (ascending `k`, from `0.0`) is untouched, so both callers
/// stay bit-identical to their materialized-transpose references.
///
/// `pack(panel, j)` fills the panel with right-operand columns `j..j+NR`;
/// `col(kk, jj)` reads one right-operand element for the ragged columns.
fn mul_panels(
    band: &mut [f64],
    a: &[f64],
    row0: usize,
    k: usize,
    n: usize,
    pack: impl Fn(&mut [f64], usize),
    col: impl Fn(usize, usize) -> f64,
) {
    if n == 0 {
        return;
    }
    let rows = band.len() / n;
    PANEL.with_borrow_mut(|panel| {
        panel.clear();
        panel.resize(k * NR, 0.0);
        let mut j = 0;
        while j + NR <= n {
            pack(panel, j);
            let mut i = 0;
            while i + MR <= rows {
                let a0 = &a[(row0 + i) * k..(row0 + i) * k + k];
                let a1 = &a[(row0 + i + 1) * k..(row0 + i + 1) * k + k];
                let a2 = &a[(row0 + i + 2) * k..(row0 + i + 2) * k + k];
                let a3 = &a[(row0 + i + 3) * k..(row0 + i + 3) * k + k];
                let mut c = [[0.0f64; NR]; MR];
                for (kk, bv) in panel.chunks_exact(NR).enumerate() {
                    let (x0, x1, x2, x3) = (a0[kk], a1[kk], a2[kk], a3[kk]);
                    for (t, &bt) in bv.iter().enumerate() {
                        c[0][t] += x0 * bt;
                        c[1][t] += x1 * bt;
                        c[2][t] += x2 * bt;
                        c[3][t] += x3 * bt;
                    }
                }
                for (r, crow) in c.iter().enumerate() {
                    band[(i + r) * n + j..(i + r) * n + j + NR].copy_from_slice(crow);
                }
                i += MR;
            }
            // Fewer than MR rows left: one register row at a time.
            while i < rows {
                let arow = &a[(row0 + i) * k..(row0 + i) * k + k];
                let mut c = [0.0f64; NR];
                for (kk, bv) in panel.chunks_exact(NR).enumerate() {
                    let av = arow[kk];
                    for (t, &bt) in bv.iter().enumerate() {
                        c[t] += av * bt;
                    }
                }
                band[i * n + j..i * n + j + NR].copy_from_slice(&c);
                i += 1;
            }
            j += NR;
        }
        // Ragged rightmost columns: scalar accumulators per element, still
        // ascending in k from 0.0.
        if j < n {
            for i in 0..rows {
                let arow = &a[(row0 + i) * k..(row0 + i) * k + k];
                for jj in j..n {
                    let mut acc = 0.0;
                    for (kk, &av) in arow.iter().enumerate() {
                        acc += av * col(kk, jj);
                    }
                    band[i * n + jj] = acc;
                }
            }
        }
    });
}

thread_local! {
    /// Reusable packing buffer: keeps the steady-state GEMM path
    /// allocation-free (each worker thread owns one panel).
    static PANEL: std::cell::RefCell<Vec<f64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// `band = (aᵀ · b)[row0..]` where `a` is `p×m` and `b` is `p×n`; the band
/// covers output rows `row0..row0+rows` (i.e. columns of `a`).
///
/// Loop order r-i-j: for each output element the contraction index `r`
/// ascends, matching `a.transpose().matmul(b)` bit for bit.
fn band_tmul(band: &mut [f64], a: &[f64], b: &[f64], row0: usize, p: usize, m: usize, n: usize) {
    if n == 0 {
        return;
    }
    let rows = band.len() / n;
    for r0 in (0..p).step_by(BLOCK_K) {
        let r1 = (r0 + BLOCK_K).min(p);
        for i0 in (0..rows).step_by(BLOCK_I) {
            let i1 = (i0 + BLOCK_I).min(rows);
            // Four r-steps per pass over each output row (same unroll
            // discipline as `band_mul`: the adds stay in ascending r per
            // element, only the row traffic shrinks).
            let mut r = r0;
            while r + 4 <= r1 {
                let b0 = &b[r * n..r * n + n];
                let b1 = &b[(r + 1) * n..(r + 1) * n + n];
                let b2 = &b[(r + 2) * n..(r + 2) * n + n];
                let b3 = &b[(r + 3) * n..(r + 3) * n + n];
                for i in i0..i1 {
                    let a0 = a[r * m + row0 + i];
                    let a1 = a[(r + 1) * m + row0 + i];
                    let a2 = a[(r + 2) * m + row0 + i];
                    let a3 = a[(r + 3) * m + row0 + i];
                    let orow = &mut band[i * n..i * n + n];
                    for ((((o, &v0), &v1), &v2), &v3) in
                        orow.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3)
                    {
                        let mut acc = *o;
                        acc += a0 * v0;
                        acc += a1 * v1;
                        acc += a2 * v2;
                        acc += a3 * v3;
                        *o = acc;
                    }
                }
                r += 4;
            }
            while r < r1 {
                let brow = &b[r * n..r * n + n];
                for i in i0..i1 {
                    let ari = a[r * m + row0 + i];
                    let orow = &mut band[i * n..i * n + n];
                    for (o, &bv) in orow.iter_mut().zip(brow) {
                        *o += ari * bv;
                    }
                }
                r += 1;
            }
        }
    }
}

/// `band = (a · bᵀ)[row0..]` where `b` is `n×k` row-major: the right
/// operand's rows are its columns here, so packing transposes `b` into the
/// panel and the shared micro-kernel does the rest. The per-element add
/// sequence (ascending `k` from `0.0`) equals `a.matmul(&b.transpose())`.
fn band_mul_bt(band: &mut [f64], a: &[f64], b: &[f64], row0: usize, k: usize, n: usize) {
    mul_panels(
        band,
        a,
        row0,
        k,
        n,
        |panel, j| {
            for t in 0..NR {
                let brow = &b[(j + t) * k..(j + t) * k + k];
                for (kk, &v) in brow.iter().enumerate() {
                    panel[kk * NR + t] = v;
                }
            }
        },
        |kk, jj| b[jj * k + kk],
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(rows: usize, cols: usize, f: impl Fn(usize) -> f64) -> Matrix {
        Matrix::from_vec(rows, cols, (0..rows * cols).map(f).collect())
    }

    /// Naive reference: plain i-k-j accumulation, no blocking, no skipping.
    fn reference(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for kk in 0..a.cols() {
                let v = a.get(i, kk);
                for j in 0..b.cols() {
                    out.set(i, j, out.get(i, j) + v * b.get(kk, j));
                }
            }
        }
        out
    }

    #[test]
    fn blocked_matches_reference_bitwise() {
        for (m, k, n) in [
            (1, 1, 1),
            (3, 5, 2),
            (33, 65, 70),
            (64, 64, 64),
            (70, 129, 300),
        ] {
            let a = filled(m, k, |i| (i as f64 * 0.37).sin());
            let b = filled(k, n, |i| (i as f64 * 0.11).cos());
            let mut out = Matrix::zeros(0, 0);
            matmul_into_threaded(&mut out, &a, &b, 1);
            assert_eq!(out, reference(&a, &b), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn parallel_matches_serial_bitwise_across_thread_counts() {
        let a = filled(67, 43, |i| (i as f64 * 0.201).sin());
        let b = filled(43, 51, |i| (i as f64 * 0.73).cos());
        let mut serial = Matrix::zeros(0, 0);
        matmul_into_threaded(&mut serial, &a, &b, 1);
        for threads in [2, 3, 4, 7, 16, 67, 1000] {
            let mut par = Matrix::zeros(0, 0);
            matmul_into_threaded(&mut par, &a, &b, threads);
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn transpose_a_fused_matches_materialized() {
        let a = filled(37, 29, |i| (i as f64 * 0.49).sin());
        let b = filled(37, 31, |i| (i as f64 * 0.17).cos());
        let mut fused = Matrix::zeros(0, 0);
        matmul_transpose_a_into_threaded(&mut fused, &a, &b, 1);
        assert_eq!(fused, a.transpose().matmul(&b));
        let mut par = Matrix::zeros(0, 0);
        matmul_transpose_a_into_threaded(&mut par, &a, &b, 5);
        assert_eq!(par, fused);
    }

    #[test]
    fn transpose_b_fused_matches_materialized() {
        let a = filled(23, 40, |i| (i as f64 * 0.31).sin());
        let b = filled(57, 40, |i| (i as f64 * 0.23).cos());
        let mut fused = Matrix::zeros(0, 0);
        matmul_transpose_b_into_threaded(&mut fused, &a, &b, 1);
        assert_eq!(fused, a.matmul(&b.transpose()));
        let mut par = Matrix::zeros(0, 0);
        matmul_transpose_b_into_threaded(&mut par, &a, &b, 4);
        assert_eq!(par, fused);
    }

    #[test]
    fn into_reuses_capacity_and_reshapes() {
        let mut out = Matrix::zeros(100, 100);
        let a = filled(4, 6, |i| i as f64);
        let b = filled(6, 3, |i| i as f64 * 0.5);
        matmul_into(&mut out, &a, &b);
        assert_eq!((out.rows(), out.cols()), (4, 3));
        assert_eq!(out, reference(&a, &b));
    }

    #[test]
    fn degenerate_shapes() {
        let a = Matrix::zeros(0, 5);
        let b = Matrix::zeros(5, 4);
        let mut out = Matrix::zeros(3, 3);
        matmul_into(&mut out, &a, &b);
        assert_eq!((out.rows(), out.cols()), (0, 4));

        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 2);
        matmul_into(&mut out, &a, &b);
        assert_eq!((out.rows(), out.cols()), (3, 2));
        assert!(out.data().iter().all(|&v| v == 0.0));
    }
}
