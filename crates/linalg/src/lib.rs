//! Dense linear algebra kernels for the Warper reproduction.
//!
//! This crate provides the small set of numerical primitives the rest of the
//! workspace is built on: a row-major dense [`Matrix`], a symmetric-matrix
//! Jacobi eigensolver, [`Pca`] (principal component analysis, used by the
//! paper's workload-drift visualization in §2 and by the Jensen-Shannon drift
//! metric in §3.1), and scalar statistics helpers.
//!
//! Everything is implemented from scratch on `f64` — no BLAS, no external
//! numeric crates — for portability and determinism. Dense products go
//! through the cache-blocked, optionally multithreaded kernels in [`gemm`],
//! which also provide fused-transpose variants (`AᵀB`, `ABᵀ`) so call sites
//! never materialize a transpose; all kernel paths are bit-identical to the
//! naive triple loop. [`parallel`] holds the shared scoped-thread worker
//! pool the kernels and higher-level crates fan out on.
//!
//! The one deliberate exception to "everything is `f64`" is [`gemm32`]: the
//! serving-side `f32`/int8 packed-panel microkernels (explicit AVX2+FMA with
//! a portable fallback) behind the quantized inference path. They are
//! tolerance-equivalent — not bit-identical — to the naive loop; training
//! and persistence never touch them.

// Index-based loops are the clearer idiom for the numerical kernels here.
#![allow(clippy::needless_range_loop)]

pub mod bulk;
pub mod eigen;
pub mod gemm;
pub mod gemm32;
pub mod matrix;
pub mod parallel;
pub mod pca;
pub mod sampling;
pub mod solve;
pub mod stats;

pub use eigen::{symmetric_eigen, EigenDecomposition};
pub use gemm32::{
    active_backend_name, linear_forward_into, simd_available, Backend, Epilogue32, MatrixF32,
    PackedWeights,
};
pub use matrix::Matrix;
pub use pca::Pca;
pub use solve::{cholesky, cholesky_solve, SolveError};
