//! Evaluation metrics from the paper (§4.1).
//!
//! * [`qerror`]: the q-error `q_θ(g, ĝ)` with the paper's θ = 10 floor, and
//!   GMQ, the geometric mean of q-errors over a test workload.
//! * [`speedup`]: adaptation curves and the relative speedup
//!   `Δ(FT, λ) / Δ(A, λ)` that Tables 7, 8 and 10 report at λ ∈ {0.5, 0.8, 1}
//!   ([`speedups_vs_ft`]).
//! * [`jsd`]: the intrinsic workload-drift metric δ_js — PCA to `k` dims,
//!   `m`-bin quantization, sparse histograms, symmetric discrete
//!   Jensen–Shannon divergence (§3.1, footnote 8).
//! * [`latency`]: a mergeable log-linear (HDR-style) histogram with
//!   p50/p95/p99 extraction for the serving benches.

// Index-based loops are the clearer idiom for the numerical kernels here.
#![allow(clippy::needless_range_loop)]

pub mod jsd;
pub mod latency;
pub mod qerror;
pub mod speedup;

pub use jsd::{delta_js, js_divergence};
pub use latency::LatencyHistogram;
pub use qerror::{gmq, q_error, PAPER_THETA};
pub use speedup::{speedups_vs_ft, AdaptationCurve, SpeedupReport};
