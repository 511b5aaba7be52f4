//! Serving-side `f32` / int8 GEMM microkernels.
//!
//! The training path ([`gemm`](crate::gemm)) is `f64` and bit-exact — every
//! kernel there reproduces the naive triple loop bit-for-bit so checkpoints,
//! the WAL, and replay checksums never depend on blocking or thread count.
//! Serving has the opposite trade: the model is frozen between generations,
//! nobody diffs its intermediate activations, and per-query inference cost is
//! the product. This module is that serving path:
//!
//! * [`MatrixF32`] — a row-major `f32` matrix (activations);
//! * [`PackedWeights`] — a layer's weight matrix `W` (`out×in`, as stored by
//!   `nn::Linear`) repacked **once at publication time** into column panels
//!   of [`NR`] output lanes, either as `f32` or as int8 with one `f32` scale
//!   per output row (`scale = max|row|/127`, the classic weight-only
//!   max-abs scheme);
//! * [`linear_forward_into`] — the fused serving primitive
//!   `Y = act(X·Wᵀ + b)`: packed-panel GEMM with the bias add, the int8
//!   dequantization (folded into the epilogue as a per-column multiplier),
//!   and the activation all applied in the same pass over each output tile.
//!
//! Three kernel back ends compute the identical per-row arithmetic, picked
//! at runtime via `is_x86_feature_detected!`:
//!
//! * **`avx512f`** — explicit `std::arch` intrinsics: one 16-lane `zmm`
//!   FMA per row per `k`-step, eight rows of accumulators (enough
//!   independent chains to cover FMA latency);
//! * **`avx2+fma`** — 8-lane FMA, two vectors per [`NR`]-wide tile, [`MR`]
//!   rows of accumulators;
//! * **portable** — the same tile loop in plain indexed Rust, written so
//!   LLVM's autovectorizer can profitably widen it on whatever the target
//!   supports (including non-x86).
//!
//! Neither back end is bit-identical to the `f64` path — that is the point —
//! but both are *tolerance-equivalent* to the naive loop (proptested in
//! `tests/gemm32_proptests.rs` on both back ends), and each output row's
//! arithmetic is independent of which other rows share its micro-batch, so
//! batched serving answers match per-query serving answers bit-for-bit
//! within one back end.

use serde::{Deserialize, Serialize};

use crate::matrix::Matrix;

/// Output columns per packed panel tile (one 16-lane AVX-512 vector, or two
/// 8-lane AVX2 vectors).
pub const NR: usize = 16;
/// Rows of `X` processed per AVX2/portable microkernel invocation.
pub const MR: usize = 4;
/// Rows per AVX-512 microkernel invocation (eight independent FMA chains).
pub const MR_WIDE: usize = 8;

// ---------------------------------------------------------------------------
// MatrixF32
// ---------------------------------------------------------------------------

/// A row-major dense `f32` matrix — the activation type of the serving path.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MatrixF32 {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl MatrixF32 {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds from a row-major buffer. Panics when the length mismatches.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        Self { rows, cols, data }
    }

    /// Rounds an `f64` matrix to `f32`.
    pub fn from_f64(m: &Matrix) -> Self {
        Self {
            rows: m.rows(),
            cols: m.cols(),
            data: m.data().iter().map(|&v| v as f32).collect(),
        }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Reshapes to `rows × cols`, reusing the allocation when it is large
    /// enough. Contents are unspecified afterwards (every kernel here
    /// overwrites its full output).
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Overwrites this matrix with `f64` feature rows, rounding to `f32`.
    /// All rows must have the same length.
    pub fn fill_from_f64_rows(&mut self, rows: &[&[f64]]) {
        let cols = rows.first().map_or(0, |r| r.len());
        self.reset(rows.len(), cols);
        for (r, src) in rows.iter().enumerate() {
            assert_eq!(src.len(), cols, "ragged feature rows");
            let dst = &mut self.data[r * cols..(r + 1) * cols];
            for (d, &s) in dst.iter_mut().zip(src.iter()) {
                *d = s as f32;
            }
        }
    }

    /// Element at `(r, c)`.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The backing row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable backing buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }
}

// ---------------------------------------------------------------------------
// Packed weights
// ---------------------------------------------------------------------------

/// One `k` step of an `f32` panel: a tile's [`NR`] weights, on a cache line
/// of their own. The kernels load one such row per step as a single vector;
/// in a `Vec<f32>` (16-byte aligned by the allocator) every one of those
/// loads straddles two lines unless the buffer happens to land on a multiple
/// of 64, and which residue it lands on is an accident of what the process
/// allocated before — worth 15–20 % of batch-256 throughput on a 6.4 MB
/// panel (EXPERIMENTS.md, "Ingest at memory speed"). The alignment lives in
/// the type so no allocation history can take it away.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C, align(64))]
struct PanelRow {
    w: [f32; NR],
}

impl Serialize for PanelRow {
    fn serialize(&self, out: &mut String) {
        self.w.serialize(out);
    }
}

impl<'de> Deserialize<'de> for PanelRow {
    fn deserialize(p: &mut serde::json::Parser<'_>) -> Result<Self, serde::json::Error> {
        Ok(Self {
            w: Deserialize::deserialize(p)?,
        })
    }
}

/// How a packed layer stores its weights.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum PanelStore {
    /// `f32` panels, one [`PanelRow`] per `(tile, k)`.
    F32(Vec<PanelRow>),
    /// Int8 panels plus one dequantization scale per (padded) output column.
    I8 { data: Vec<i8>, scales: Vec<f32> },
}

/// A weight matrix `W` (`out×in`) packed into `NR`-wide column panels for
/// [`linear_forward_into`]. Packing happens once, at model publication; the
/// hot path only streams panels.
///
/// Panel layout: output columns are grouped into tiles of [`NR`]; within a
/// tile the `k = in` rows are contiguous, each row holding the tile's `NR`
/// weights (zero-padded past the real output count). The per-`k` stride is
/// therefore exactly one cache line of `f32` (or a quarter line of int8).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PackedWeights {
    /// Input dimension (columns of `W`, i.e. the reduction length).
    k: usize,
    /// Real output dimension (rows of `W`).
    n: usize,
    store: PanelStore,
}

/// `n` rounded up to a whole number of [`NR`]-wide tiles.
fn padded(n: usize) -> usize {
    n.div_ceil(NR) * NR
}

impl PackedWeights {
    /// Packs `w` (`out×in`, row-major, as stored by `nn::Linear`) into `f32`
    /// panels.
    pub fn pack_f32(w: &Matrix) -> Self {
        let (n, k) = (w.rows(), w.cols());
        let mut data = vec![PanelRow { w: [0.0; NR] }; padded(n) / NR * k];
        for j in 0..n {
            let (tile, lane) = (j / NR, j % NR);
            for kk in 0..k {
                data[tile * k + kk].w[lane] = w.get(j, kk) as f32;
            }
        }
        Self {
            k,
            n,
            store: PanelStore::F32(data),
        }
    }

    /// Packs `w` into int8 panels with per-output-row max-abs scales:
    /// `scale_j = max_kk |w[j][kk]| / 127`, `q = round(w/scale)`. An all-zero
    /// row gets scale 0 (its dequantized weights are exactly zero).
    pub fn pack_i8(w: &Matrix) -> Self {
        let (n, k) = (w.rows(), w.cols());
        let np = padded(n);
        let mut data = vec![0i8; np * k];
        let mut scales = vec![0.0f32; np];
        for j in 0..n {
            let row = w.row(j);
            let max = row.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
            let scale = if max > 0.0 { max / 127.0 } else { 0.0 };
            scales[j] = scale as f32;
            let (tile, lane) = (j / NR, j % NR);
            for kk in 0..k {
                let q = if scale > 0.0 {
                    (row[kk] / scale).round().clamp(-127.0, 127.0)
                } else {
                    0.0
                };
                data[(tile * k + kk) * NR + lane] = q as i8;
            }
        }
        Self {
            k,
            n,
            store: PanelStore::I8 { data, scales },
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.k
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.n
    }

    /// `"f32"` or `"int8"`.
    pub fn precision_name(&self) -> &'static str {
        match &self.store {
            PanelStore::F32(_) => "f32",
            PanelStore::I8 { .. } => "int8",
        }
    }

    /// Weight bytes the hot path streams per forward pass.
    pub fn panel_bytes(&self) -> usize {
        match &self.store {
            PanelStore::F32(d) => std::mem::size_of_val(d.as_slice()),
            PanelStore::I8 { data, scales } => {
                std::mem::size_of_val(data.as_slice()) + std::mem::size_of_val(scales.as_slice())
            }
        }
    }

    /// Largest dequantization step (`scale/2` bounds each weight's rounding
    /// error); 0 for `f32` storage.
    pub fn max_quant_step(&self) -> f32 {
        match &self.store {
            PanelStore::F32(_) => 0.0,
            PanelStore::I8 { scales, .. } => scales.iter().fold(0.0f32, |m, &s| m.max(s)) * 0.5,
        }
    }
}

// ---------------------------------------------------------------------------
// Epilogue
// ---------------------------------------------------------------------------

/// The fused per-element epilogue applied to each output tile while it is
/// still hot: activation after the (already-added) bias.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Epilogue32 {
    /// `y = x`.
    Identity,
    /// `y = max(x, 0)`.
    Relu,
    /// `y = x` for `x > 0`, else `a·x`.
    LeakyRelu(f32),
    /// `y = tanh(x)`.
    Tanh,
    /// `y = 1/(1+e^{-x})`.
    Sigmoid,
}

impl Epilogue32 {
    /// Applies the activation to one pre-activation value.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Epilogue32::Identity => x,
            Epilogue32::Relu => {
                if x > 0.0 {
                    x
                } else {
                    0.0
                }
            }
            Epilogue32::LeakyRelu(a) => {
                if x > 0.0 {
                    x
                } else {
                    a * x
                }
            }
            Epilogue32::Tanh => x.tanh(),
            Epilogue32::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        }
    }
}

// ---------------------------------------------------------------------------
// Back-end dispatch
// ---------------------------------------------------------------------------

/// Which microkernel computes the tiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Runtime choice: the best explicit-SIMD tier the CPU supports
    /// (AVX-512F, then AVX2+FMA), else [`Backend::Portable`].
    Auto,
    /// The best explicit `std::arch` kernel this CPU supports. Callers must
    /// only request this when [`simd_available`] is true (checked; panics
    /// otherwise).
    Simd,
    /// The autovectorization-friendly plain-Rust kernel.
    Portable,
}

/// The concrete kernel a [`Backend`] resolves to on this machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    Avx512,
    Avx2,
    Portable,
}

#[cfg(target_arch = "x86_64")]
fn best_simd() -> Option<Kernel> {
    if std::arch::is_x86_feature_detected!("avx512f") {
        Some(Kernel::Avx512)
    } else if std::arch::is_x86_feature_detected!("avx2")
        && std::arch::is_x86_feature_detected!("fma")
    {
        Some(Kernel::Avx2)
    } else {
        None
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn best_simd() -> Option<Kernel> {
    None
}

/// Whether an explicit-SIMD back end can run on this CPU.
pub fn simd_available() -> bool {
    best_simd().is_some()
}

/// Name of the kernel [`Backend::Auto`] resolves to on this machine.
pub fn active_backend_name() -> &'static str {
    match best_simd() {
        Some(Kernel::Avx512) => "avx512f",
        Some(Kernel::Avx2) => "avx2+fma",
        _ => "portable",
    }
}

fn resolve(backend: Backend) -> Kernel {
    match backend {
        Backend::Auto => best_simd().unwrap_or(Kernel::Portable),
        Backend::Simd => best_simd().expect("Backend::Simd requested on a CPU without avx2+fma"),
        Backend::Portable => Kernel::Portable,
    }
}

// ---------------------------------------------------------------------------
// The fused serving primitive
// ---------------------------------------------------------------------------

/// Computes `out = act(x · wᵀ + bias)` — one fused pass per output tile.
///
/// `x` is `batch × in`, `w` packs the `out × in` weight matrix, `bias` has
/// length `out`. For int8 weights the per-column dequantization scale is
/// folded into the epilogue (`y = act(acc·scale + bias)`), so the inner loop
/// is identical to the `f32` case apart from the panel load.
///
/// Each output row's arithmetic (reduction order along `k`, lane layout) is
/// the same regardless of the batch it rides in, so micro-batching cannot
/// change an individual answer within one back end.
pub fn linear_forward_into(
    out: &mut MatrixF32,
    x: &MatrixF32,
    w: &PackedWeights,
    bias: &[f32],
    act: Epilogue32,
    backend: Backend,
) {
    assert_eq!(x.cols, w.k, "input dim mismatch");
    assert_eq!(bias.len(), w.n, "bias length mismatch");
    let kernel = resolve(backend);
    let (m, k, n) = (x.rows, w.k, w.n);
    out.reset(m, n);
    if m == 0 || n == 0 {
        return;
    }

    let row_step = match kernel {
        Kernel::Avx512 => MR_WIDE,
        Kernel::Avx2 | Kernel::Portable => MR,
    };
    let tiles = padded(n) / NR;
    for tile in 0..tiles {
        let j0 = tile * NR;
        let jw = NR.min(n - j0); // real columns in this tile

        // The tile's rows of an f32 panel, and its bytes of an int8 one.
        let rows = tile * k..(tile + 1) * k;
        let (p0, p1) = (tile * k * NR, (tile + 1) * k * NR);
        for r0 in (0..m).step_by(row_step) {
            let rh = row_step.min(m - r0);
            // Accumulate the full row_step×NR tile in registers…
            let mut acc = [[0.0f32; NR]; MR_WIDE];
            match (&w.store, kernel) {
                (PanelStore::F32(panel), Kernel::Portable) => {
                    tile_f32_portable(x, r0, rh, &panel[rows.clone()], k, &mut acc);
                }
                (PanelStore::I8 { data, .. }, Kernel::Portable) => {
                    tile_i8_portable(x, r0, rh, &data[p0..p1], k, &mut acc);
                }
                #[cfg(target_arch = "x86_64")]
                (PanelStore::F32(panel), Kernel::Avx512) => {
                    // SAFETY: `resolve` established avx512f support; the
                    // panel slice holds exactly k rows of NR floats.
                    unsafe { avx512::tile_f32(x, r0, rh, &panel[rows.clone()], k, &mut acc) }
                }
                #[cfg(target_arch = "x86_64")]
                (PanelStore::I8 { data, .. }, Kernel::Avx512) => {
                    // SAFETY: as above, for the int8 panel.
                    unsafe { avx512::tile_i8(x, r0, rh, &data[p0..p1], k, &mut acc) }
                }
                #[cfg(target_arch = "x86_64")]
                (PanelStore::F32(panel), Kernel::Avx2) => {
                    // SAFETY: `resolve` established avx2+fma support.
                    unsafe { avx2::tile_f32(x, r0, rh, &panel[rows.clone()], k, &mut acc) }
                }
                #[cfg(target_arch = "x86_64")]
                (PanelStore::I8 { data, .. }, Kernel::Avx2) => {
                    // SAFETY: as above, for the int8 panel.
                    unsafe { avx2::tile_i8(x, r0, rh, &data[p0..p1], k, &mut acc) }
                }
                #[cfg(not(target_arch = "x86_64"))]
                (_, Kernel::Avx512) | (_, Kernel::Avx2) => {
                    unreachable!("resolve() never yields a SIMD kernel off x86_64")
                }
            }
            // …then run the epilogue and store only the real columns.
            let scales = match &w.store {
                PanelStore::F32(_) => None,
                PanelStore::I8 { scales, .. } => Some(&scales[j0..j0 + jw]),
            };
            let bias_tile = &bias[j0..j0 + jw];
            for r in 0..rh {
                let dst = &mut out.data[(r0 + r) * n + j0..(r0 + r) * n + j0 + jw];
                // Branchless, loop-specialized epilogue so LLVM vectorizes
                // the bias/scale/activation pass instead of emitting a
                // per-element branch.
                match scales {
                    Some(s) => {
                        for j in 0..jw {
                            dst[j] = acc[r][j].mul_add(s[j], bias_tile[j]);
                        }
                    }
                    None => {
                        for j in 0..jw {
                            dst[j] = acc[r][j] + bias_tile[j];
                        }
                    }
                }
                match act {
                    Epilogue32::Identity => {}
                    Epilogue32::Relu => {
                        for v in dst.iter_mut() {
                            *v = v.max(0.0);
                        }
                    }
                    Epilogue32::LeakyRelu(a) => {
                        for v in dst.iter_mut() {
                            let x = *v;
                            *v = x.max(0.0) + a * x.min(0.0);
                        }
                    }
                    Epilogue32::Tanh => {
                        for v in dst.iter_mut() {
                            *v = v.tanh();
                        }
                    }
                    Epilogue32::Sigmoid => {
                        for v in dst.iter_mut() {
                            *v = 1.0 / (1.0 + (-*v).exp());
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Portable microkernels (autovectorizable)
// ---------------------------------------------------------------------------

/// One `rh×NR` tile, `f32` panel, plain indexed loops. The `j` loop is a
/// fixed-width `NR` reduction-free sweep LLVM vectorizes on any target.
fn tile_f32_portable(
    x: &MatrixF32,
    r0: usize,
    rh: usize,
    panel: &[PanelRow],
    k: usize,
    acc: &mut [[f32; NR]; MR_WIDE],
) {
    debug_assert!(rh <= MR);
    for kk in 0..k {
        let p = &panel[kk].w;
        for (r, row_acc) in acc.iter_mut().enumerate().take(rh) {
            let b = x.data[(r0 + r) * k + kk];
            for j in 0..NR {
                row_acc[j] = b.mul_add(p[j], row_acc[j]);
            }
        }
    }
}

/// One `rh×NR` tile, int8 panel. Weights dequantize to "units of scale";
/// the epilogue applies the per-column scale.
fn tile_i8_portable(
    x: &MatrixF32,
    r0: usize,
    rh: usize,
    panel: &[i8],
    k: usize,
    acc: &mut [[f32; NR]; MR_WIDE],
) {
    debug_assert!(rh <= MR);
    for kk in 0..k {
        let p: &[i8; NR] = panel[kk * NR..(kk + 1) * NR].try_into().expect("panel row");
        let mut pf = [0.0f32; NR];
        for j in 0..NR {
            pf[j] = f32::from(p[j]);
        }
        for (r, row_acc) in acc.iter_mut().enumerate().take(rh) {
            let b = x.data[(r0 + r) * k + kk];
            for j in 0..NR {
                row_acc[j] = b.mul_add(pf[j], row_acc[j]);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Explicit AVX-512F microkernels
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{MatrixF32, PanelRow, MR_WIDE, NR};
    use std::arch::x86_64::*;

    /// `rh×NR` tile over an `f32` panel: per `k` step, one 16-lane `zmm`
    /// panel load and one broadcast-FMA per row, with [`MR_WIDE`] rows of
    /// accumulators — eight independent FMA chains, enough to hide the
    /// 4-cycle FMA latency at 2/cycle issue. Rows beyond `rh` are clamped
    /// to row 0 and their accumulators discarded, keeping the loop
    /// branch-free.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports avx512f and that `panel` holds
    /// exactly `k` rows.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn tile_f32(
        x: &MatrixF32,
        r0: usize,
        rh: usize,
        panel: &[PanelRow],
        k: usize,
        acc: &mut [[f32; NR]; MR_WIDE],
    ) {
        debug_assert_eq!(panel.len(), k);
        let xd = x.data();
        let xk = x.cols();
        let xp: [*const f32; MR_WIDE] = std::array::from_fn(|r| {
            let rr = if r < rh { r } else { 0 };
            xd.as_ptr().add((r0 + rr) * xk)
        });
        // `PanelRow` is `repr(C)` around `[f32; NR]`: the rows are `k × NR`
        // contiguous floats.
        let mut p = panel.as_ptr().cast::<f32>();
        let mut a: [__m512; MR_WIDE] = [_mm512_setzero_ps(); MR_WIDE];
        for kk in 0..k {
            let w = _mm512_loadu_ps(p);
            for r in 0..MR_WIDE {
                let b = _mm512_set1_ps(*xp[r].add(kk));
                a[r] = _mm512_fmadd_ps(b, w, a[r]);
            }
            p = p.add(NR);
        }
        for r in 0..rh {
            _mm512_storeu_ps(acc[r].as_mut_ptr(), a[r]);
        }
    }

    /// As [`tile_f32`] but the panel is int8: 16 bytes per `k` step widened
    /// to one `f32` vector before the same broadcast-FMA pattern.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports avx512f and that `panel` holds
    /// exactly `k × NR` values.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn tile_i8(
        x: &MatrixF32,
        r0: usize,
        rh: usize,
        panel: &[i8],
        k: usize,
        acc: &mut [[f32; NR]; MR_WIDE],
    ) {
        debug_assert_eq!(panel.len(), k * NR);
        let xd = x.data();
        let xk = x.cols();
        let xp: [*const f32; MR_WIDE] = std::array::from_fn(|r| {
            let rr = if r < rh { r } else { 0 };
            xd.as_ptr().add((r0 + rr) * xk)
        });
        let mut p = panel.as_ptr();
        let mut a: [__m512; MR_WIDE] = [_mm512_setzero_ps(); MR_WIDE];
        for kk in 0..k {
            let raw = _mm_loadu_si128(p as *const __m128i);
            let w = _mm512_cvtepi32_ps(_mm512_cvtepi8_epi32(raw));
            for r in 0..MR_WIDE {
                let b = _mm512_set1_ps(*xp[r].add(kk));
                a[r] = _mm512_fmadd_ps(b, w, a[r]);
            }
            p = p.add(NR);
        }
        for r in 0..rh {
            _mm512_storeu_ps(acc[r].as_mut_ptr(), a[r]);
        }
    }
}

// ---------------------------------------------------------------------------
// Explicit AVX2+FMA microkernels
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{MatrixF32, PanelRow, MR, MR_WIDE, NR};
    use std::arch::x86_64::*;

    /// `rh×NR` tile over an `f32` panel: per `k` step, one 16-lane panel
    /// load (two `ymm`) and one broadcast-FMA per active row. Rows beyond
    /// `rh` are clamped to row 0 — their accumulators are computed and
    /// discarded, keeping the inner loop branch-free.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports avx2+fma and that `panel` holds
    /// exactly `k` rows.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn tile_f32(
        x: &MatrixF32,
        r0: usize,
        rh: usize,
        panel: &[PanelRow],
        k: usize,
        acc: &mut [[f32; NR]; MR_WIDE],
    ) {
        debug_assert_eq!(panel.len(), k);
        debug_assert!(rh <= MR);
        let xd = x.data();
        let xk = x.cols();
        // Row pointers, clamped so inactive rows alias row 0.
        let xp: [*const f32; MR] = std::array::from_fn(|r| {
            let rr = if r < rh { r } else { 0 };
            xd.as_ptr().add((r0 + rr) * xk)
        });
        // `PanelRow` is `repr(C)` around `[f32; NR]`: the rows are `k × NR`
        // contiguous floats.
        let mut p = panel.as_ptr().cast::<f32>();
        let mut a: [[__m256; 2]; MR] = [[_mm256_setzero_ps(); 2]; MR];
        for kk in 0..k {
            let w0 = _mm256_loadu_ps(p);
            let w1 = _mm256_loadu_ps(p.add(8));
            for r in 0..MR {
                let b = _mm256_set1_ps(*xp[r].add(kk));
                a[r][0] = _mm256_fmadd_ps(b, w0, a[r][0]);
                a[r][1] = _mm256_fmadd_ps(b, w1, a[r][1]);
            }
            p = p.add(NR);
        }
        for r in 0..rh {
            _mm256_storeu_ps(acc[r].as_mut_ptr(), a[r][0]);
            _mm256_storeu_ps(acc[r].as_mut_ptr().add(8), a[r][1]);
        }
    }

    /// As [`tile_f32`] but the panel is int8: 16 bytes load per `k` step,
    /// widened to two `f32` vectors before the same broadcast-FMA pattern.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports avx2+fma and that `panel` holds
    /// exactly `k × NR` values.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn tile_i8(
        x: &MatrixF32,
        r0: usize,
        rh: usize,
        panel: &[i8],
        k: usize,
        acc: &mut [[f32; NR]; MR_WIDE],
    ) {
        debug_assert_eq!(panel.len(), k * NR);
        debug_assert!(rh <= MR);
        let xd = x.data();
        let xk = x.cols();
        let xp: [*const f32; MR] = std::array::from_fn(|r| {
            let rr = if r < rh { r } else { 0 };
            xd.as_ptr().add((r0 + rr) * xk)
        });
        let mut p = panel.as_ptr();
        let mut a: [[__m256; 2]; MR] = [[_mm256_setzero_ps(); 2]; MR];
        for kk in 0..k {
            let raw = _mm_loadu_si128(p as *const __m128i);
            let w0 = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(raw));
            let w1 = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(_mm_srli_si128::<8>(raw)));
            for r in 0..MR {
                let b = _mm256_set1_ps(*xp[r].add(kk));
                a[r][0] = _mm256_fmadd_ps(b, w0, a[r][0]);
                a[r][1] = _mm256_fmadd_ps(b, w1, a[r][1]);
            }
            p = p.add(NR);
        }
        for r in 0..rh {
            _mm256_storeu_ps(acc[r].as_mut_ptr(), a[r][0]);
            _mm256_storeu_ps(acc[r].as_mut_ptr().add(8), a[r][1]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive f64 reference of the fused op on already-quantized weights.
    fn reference(x: &MatrixF32, w: &Matrix, bias: &[f32], act: Epilogue32) -> Vec<f64> {
        let (m, k, n) = (x.rows(), w.cols(), w.rows());
        let mut out = vec![0.0f64; m * n];
        for r in 0..m {
            for j in 0..n {
                let mut s = 0.0f64;
                for kk in 0..k {
                    s += f64::from(x.get(r, kk)) * w.get(j, kk);
                }
                out[r * n + j] = f64::from(act.apply((s + f64::from(bias[j])) as f32));
            }
        }
        out
    }

    fn toy(m: usize, k: usize, n: usize, seed: u64) -> (MatrixF32, Matrix, Vec<f32>) {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let x = MatrixF32::from_vec(m, k, (0..m * k).map(|_| next() as f32).collect());
        let w = Matrix::from_vec(n, k, (0..n * k).map(|_| next()).collect());
        let bias: Vec<f32> = (0..n).map(|_| next() as f32).collect();
        (x, w, bias)
    }

    fn backends() -> Vec<Backend> {
        let mut v = vec![Backend::Portable];
        if simd_available() {
            v.push(Backend::Simd);
        }
        v
    }

    #[test]
    fn f32_panel_rows_sit_on_cache_lines() {
        assert_eq!(std::mem::size_of::<PanelRow>(), NR * 4);
        // Odd-sized live allocations in between walk the allocator through
        // every 16-byte residue a `Vec<f32>` could have landed on.
        let mut held = Vec::new();
        for i in 0..8 {
            held.push(vec![0u8; 24 + 16 * i]);
            let (_, w, _) = toy(1, 5 + i, 17, 3);
            let PanelStore::F32(rows) = PackedWeights::pack_f32(&w).store else {
                panic!("pack_f32 packs f32 panels");
            };
            assert_eq!(rows.as_ptr() as usize % 64, 0);
        }
    }

    #[test]
    fn f32_kernel_matches_naive_on_ragged_shapes() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (1, 32, 1),
            (3, 7, 15),
            (4, 16, 16),
            (5, 33, 17),
            (64, 32, 48),
            (2, 512, 16),
        ] {
            let (x, w, bias) = toy(m, k, n, (m * 31 + k * 7 + n) as u64);
            let packed = PackedWeights::pack_f32(&w);
            // f32 reference on the rounded weights the kernel actually uses.
            let wq = Matrix::from_vec(
                n,
                k,
                w.data().iter().map(|&v| f64::from(v as f32)).collect(),
            );
            let want = reference(&x, &wq, &bias, Epilogue32::Relu);
            for backend in backends() {
                let mut out = MatrixF32::zeros(0, 0);
                linear_forward_into(&mut out, &x, &packed, &bias, Epilogue32::Relu, backend);
                assert_eq!(out.rows(), m);
                assert_eq!(out.cols(), n);
                for (got, want) in out.data().iter().zip(&want) {
                    let tol = 1e-5 * (1.0 + k as f64);
                    assert!(
                        (f64::from(*got) - want).abs() <= tol,
                        "{backend:?} {m}x{k}x{n}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn i8_kernel_matches_dequantized_naive() {
        let (x, w, bias) = toy(6, 40, 19, 99);
        let packed = PackedWeights::pack_i8(&w);
        // Reference over the dequantized weights so only accumulation-order
        // error remains.
        let mut deq = Matrix::zeros(19, 40);
        for j in 0..19 {
            let row = w.row(j);
            let max = row.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
            let scale = if max > 0.0 { max / 127.0 } else { 0.0 };
            let s32 = scale as f32;
            for kk in 0..40 {
                let q = if scale > 0.0 {
                    (row[kk] / scale).round().clamp(-127.0, 127.0) as f32
                } else {
                    0.0
                };
                deq.set(j, kk, f64::from(q * s32));
            }
        }
        let want = reference(&x, &deq, &bias, Epilogue32::Identity);
        for backend in backends() {
            let mut out = MatrixF32::zeros(0, 0);
            linear_forward_into(&mut out, &x, &packed, &bias, Epilogue32::Identity, backend);
            for (got, want) in out.data().iter().zip(&want) {
                assert!(
                    (f64::from(*got) - want).abs() <= 1e-4 * (1.0 + want.abs()),
                    "{backend:?}: {got} vs {want}"
                );
            }
        }
        assert!(packed.max_quant_step() > 0.0);
        assert_eq!(packed.precision_name(), "int8");
    }

    #[test]
    fn batching_does_not_change_individual_rows() {
        let (x, w, bias) = toy(9, 24, 21, 4);
        let packed = PackedWeights::pack_f32(&w);
        for backend in backends() {
            let mut full = MatrixF32::zeros(0, 0);
            linear_forward_into(&mut full, &x, &packed, &bias, Epilogue32::Tanh, backend);
            for r in 0..x.rows() {
                let single = MatrixF32::from_vec(1, 24, x.row(r).to_vec());
                let mut out = MatrixF32::zeros(0, 0);
                linear_forward_into(&mut out, &single, &packed, &bias, Epilogue32::Tanh, backend);
                assert_eq!(out.data(), full.row(r), "row {r} must be batch-invariant");
            }
        }
    }
}
