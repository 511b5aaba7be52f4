//! GEMM kernel benchmark: seed kernel vs blocked serial vs blocked+parallel,
//! plus end-to-end `Mlp::train_epoch` (workspace path) vs the allocating
//! cached path it replaced, plus the f32/int8 inference microkernels
//! (`warper_linalg::gemm32`) against the f64 blocked kernel on the serving
//! layer shape.
//!
//! Run with `cargo bench --bench gemm` (release profile). Writes the
//! measured numbers to `BENCH_gemm.json` at the workspace root in addition
//! to printing them.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;
use warper_linalg::{gemm, Matrix};
use warper_nn::{Activation, Mlp, Workspace};

/// The seed repository's dense kernel, kept verbatim as the baseline: naive
/// i-k-j loop with a zero-skip on the left operand, allocating its output.
fn seed_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "matmul dimension mismatch");
    let (m, p, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        let arow = a.row(i);
        for (k, &aik) in arow.iter().enumerate().take(p) {
            if aik == 0.0 {
                continue;
            }
            let brow = b.row(k);
            let orow = out.row_mut(i);
            for j in 0..n {
                orow[j] += aik * brow[j];
            }
        }
    }
    out
}

fn random_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    for v in m.data_mut() {
        *v = rng.random_range(-1.0..1.0);
    }
    m
}

/// Median wall-clock seconds of `reps` runs of `f`.
fn time_median<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    // One untimed warm-up run.
    f();
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn bench_gemm_512(out: &mut Vec<(String, serde_json::Value)>) {
    const N: usize = 512;
    let mut rng = StdRng::seed_from_u64(7);
    let a = random_matrix(N, N, &mut rng);
    let b = random_matrix(N, N, &mut rng);

    let seed_s = time_median(5, || {
        black_box(seed_matmul(&a, &b));
    });
    let mut buf = Matrix::zeros(0, 0);
    let blocked_s = time_median(5, || {
        gemm::matmul_into_threaded(&mut buf, &a, &b, 1);
        black_box(&buf);
    });
    let threads = gemm::auto_threads(N, N, N);
    let parallel_s = time_median(5, || {
        gemm::matmul_into(&mut buf, &a, &b);
        black_box(&buf);
    });

    // Sanity: all three paths agree bitwise (seed zero-skip only ever skips
    // adding ±0.0, which random inputs never produce).
    let reference = seed_matmul(&a, &b);
    gemm::matmul_into(&mut buf, &a, &b);
    assert_eq!(buf, reference, "kernel mismatch at {N}");

    println!("gemm {N}x{N}x{N}: seed {:.1} ms | blocked(1t) {:.1} ms ({:.2}x) | parallel({threads}t) {:.1} ms ({:.2}x)",
        seed_s * 1e3, blocked_s * 1e3, seed_s / blocked_s, parallel_s * 1e3, seed_s / parallel_s);

    out.push((
        "gemm_512".into(),
        serde_json::json!({
            "shape": [N, N, N],
            "seed_kernel_ms": seed_s * 1e3,
            "blocked_serial_ms": blocked_s * 1e3,
            "parallel_ms": parallel_s * 1e3,
            "parallel_threads": threads,
            "speedup_blocked_vs_seed": seed_s / blocked_s,
            "speedup_parallel_vs_seed": seed_s / parallel_s,
        }),
    ));
}

fn bench_fused_transpose(out: &mut Vec<(String, serde_json::Value)>) {
    const N: usize = 384;
    let mut rng = StdRng::seed_from_u64(8);
    let a = random_matrix(N, N, &mut rng);
    let b = random_matrix(N, N, &mut rng);

    // Seed path: materialize the transpose, then multiply with the seed
    // kernel — exactly what `x.transpose().matmul(&y)` call sites paid.
    let mat_s = time_median(5, || {
        black_box(seed_matmul(&a.transpose(), &b));
    });
    let mut buf = Matrix::zeros(0, 0);
    let fused_s = time_median(5, || {
        gemm::matmul_transpose_a_into(&mut buf, &a, &b);
        black_box(&buf);
    });

    println!(
        "fused aT*b {N}x{N}: materialized {:.1} ms | fused {:.1} ms ({:.2}x)",
        mat_s * 1e3,
        fused_s * 1e3,
        mat_s / fused_s
    );
    out.push((
        "fused_transpose_a_384".into(),
        serde_json::json!({
            "shape": [N, N, N],
            "materialized_transpose_ms": mat_s * 1e3,
            "fused_ms": fused_s * 1e3,
            "speedup": mat_s / fused_s,
        }),
    ));
}

fn bench_train_epoch(out: &mut Vec<(String, serde_json::Value)>) {
    // The repo's realistic training shape (LM-style estimator: narrow
    // features, two hidden layers, small batches).
    let (n, din, hidden, batch) = (2048, 18, 64, 32);
    let mut rng = StdRng::seed_from_u64(9);
    let x = random_matrix(n, din, &mut rng);
    let y = random_matrix(n, 1, &mut rng);
    let net0 = Mlp::new(
        &[din, hidden, hidden, 1],
        Activation::Relu,
        Activation::Identity,
        &mut rng,
    );
    let order: Vec<usize> = (0..n).collect();

    // Seed-style epoch: fresh batch matrices + cached forward/backward with
    // per-call allocations, mirroring the pre-workspace training loops.
    // Network/optimizer state lives across reps in both variants so each
    // timed rep is one steady-state epoch.
    let mut net = net0.clone();
    let mut opt = warper_nn::optim::Sgd::new();
    let cached_s = time_median(9, || {
        for chunk in order.chunks(batch) {
            let bx =
                Matrix::from_rows(&chunk.iter().map(|&i| x.row(i).to_vec()).collect::<Vec<_>>());
            let by =
                Matrix::from_rows(&chunk.iter().map(|&i| y.row(i).to_vec()).collect::<Vec<_>>());
            let (outm, cache) = net.forward_cached(&bx);
            let (_, dout) = warper_nn::loss::mse(&outm, &by);
            let grads = net.backward(&cache, &dout);
            warper_nn::optim::Optimizer::step(&mut opt, &mut net, &grads, 1e-3);
        }
        black_box(&net);
    });

    let mut net = net0.clone();
    let mut opt = warper_nn::optim::Sgd::new();
    let mut ws = Workspace::new();
    let ws_s = time_median(9, || {
        black_box(net.train_epoch(&x, &y, &order, batch, &mut opt, 1e-3, &mut ws));
    });

    println!(
        "mlp train_epoch n={n} [{din},{hidden},{hidden},1] b={batch}: cached-alloc {:.1} ms | workspace {:.1} ms ({:.2}x)",
        cached_s * 1e3,
        ws_s * 1e3,
        cached_s / ws_s
    );
    out.push((
        "mlp_train_epoch".into(),
        serde_json::json!({
            "n": n, "dims": [din, hidden, hidden, 1], "batch": batch,
            "cached_alloc_path_ms": cached_s * 1e3,
            "workspace_path_ms": ws_s * 1e3,
            "speedup": cached_s / ws_s,
        }),
    ));
}

fn bench_gemm32(out: &mut Vec<(String, serde_json::Value)>) {
    use warper_linalg::{
        active_backend_name, linear_forward_into, simd_available, Backend, Epilogue32, MatrixF32,
        PackedWeights,
    };

    // The serving shape: one batch-64 forward through the wide hidden
    // layer of the precision-serving benchmark model (64×2048 · 2048×1024).
    const M: usize = 64;
    const K: usize = 2048;
    const N: usize = 1024;
    let mut rng = StdRng::seed_from_u64(11);
    let x64 = random_matrix(M, K, &mut rng);
    let w = random_matrix(N, K, &mut rng); // row-major out×in, as nn stores it
    let wt = w.transpose();
    let bias: Vec<f32> = (0..N).map(|j| (j % 7) as f32 * 0.05).collect();

    // f64 baseline: the blocked kernel every f64 `estimate_many` runs on.
    let mut f64_buf = Matrix::zeros(0, 0);
    let f64_s = time_median(9, || {
        gemm::matmul_into_threaded(&mut f64_buf, &x64, &wt, 1);
        black_box(&f64_buf);
    });

    let x32 = MatrixF32::from_f64(&x64);
    let packed_f32 = PackedWeights::pack_f32(&w);
    let packed_i8 = PackedWeights::pack_i8(&w);
    let mut out32 = MatrixF32::zeros(M, N);

    let flops = 2.0 * (M * K * N) as f64;
    let gflops = |s: f64| flops / s / 1e9;
    println!(
        "gemm32 {M}x{K}x{N} (simd backend: {}): f64 blocked {:.2} ms ({:.1} Gflop/s)",
        active_backend_name(),
        f64_s * 1e3,
        gflops(f64_s)
    );

    let mut section = serde_json::Map::new();
    section.insert("shape".into(), serde_json::json!([M, K, N]));
    section.insert(
        "simd_backend".into(),
        serde_json::json!(active_backend_name()),
    );
    section.insert("f64_blocked_ms".into(), serde_json::json!(f64_s * 1e3));
    section.insert(
        "f64_blocked_gflops".into(),
        serde_json::json!(gflops(f64_s)),
    );

    let variants: [(&str, &PackedWeights, Backend); 4] = [
        ("f32_simd", &packed_f32, Backend::Simd),
        ("f32_portable", &packed_f32, Backend::Portable),
        ("int8_simd", &packed_i8, Backend::Simd),
        ("int8_portable", &packed_i8, Backend::Portable),
    ];
    for (label, packed, backend) in variants {
        if matches!(backend, Backend::Simd) && !simd_available() {
            continue;
        }
        let s = time_median(9, || {
            linear_forward_into(&mut out32, &x32, packed, &bias, Epilogue32::Relu, backend);
            black_box(&out32);
        });
        println!(
            "  {label:<14} {:.2} ms ({:.1} Gflop/s, {:.2}x vs f64 blocked)",
            s * 1e3,
            gflops(s),
            f64_s / s
        );
        section.insert(format!("{label}_ms"), serde_json::json!(s * 1e3));
        section.insert(format!("{label}_gflops"), serde_json::json!(gflops(s)));
        section.insert(
            format!("{label}_speedup_vs_f64"),
            serde_json::json!(f64_s / s),
        );
    }
    out.push((
        "gemm32_inference".into(),
        serde_json::Value::Object(section),
    ));
}

fn main() {
    let mut sections: Vec<(String, serde_json::Value)> = Vec::new();
    bench_gemm_512(&mut sections);
    bench_fused_transpose(&mut sections);
    bench_train_epoch(&mut sections);
    bench_gemm32(&mut sections);

    let mut root = serde_json::Map::new();
    root.insert(
        "bench".into(),
        serde_json::Value::String("crates/bench/benches/gemm.rs".into()),
    );
    for (k, v) in sections {
        root.insert(k, v);
    }
    warper_bench::publish_bench("gemm", serde_json::Value::Object(root));
}
