//! Serving-layer benchmark: micro-batched estimation throughput, quantized
//! serving precision, and hot-swap behavior under drift with background
//! adaptation.
//!
//! Three claims are measured (and asserted):
//!
//! 1. **Micro-batching pays.** The same closed-loop replay served by a
//!    one-shard fleet with `max_packed_batch = quantum = 64` must push ≥ 3×
//!    the throughput of one-at-a-time service (batch 1, no linger):
//!    batching collapses per-request queue/wake overhead and turns
//!    per-query matrix-vector products into one GEMM per layer. Worker-side
//!    `inference_nanos` splits each batch's cost into GEMM time vs
//!    queue/wake time.
//! 2. **Quantized serving pays ≥ 4× per thread.** The same model, queries,
//!    and harness served at f32 (SIMD microkernels) must push ≥ 4× the qps
//!    of the f64 path *per GEMM thread*: the f64 GEMM fans a batch out over
//!    `linalg::gemm::auto_threads` workers while the f32 microkernel path
//!    is single-threaded, so the raw qps ratio shrinks with the host's core
//!    count and the kernel's own gain is `f32_qps × threads / f64_qps`.
//!    int8 is reported alongside.
//! 3. **Adaptation never stalls serving.** A replay with a mid-run
//!    workload drift and a free-running background adaptation worker must
//!    serve with zero errors, publish at least one hot-swapped generation,
//!    and keep p99 latency *below the duration of a single retraining
//!    step* — the direct evidence that no request ever waited behind
//!    retraining.
//!
//! Run with `cargo bench --bench serve` (release profile). Writes
//! `BENCH_serve.json` at the workspace root in addition to printing.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use warper_ce::lm::{LmMlp, LmMlpParams};
use warper_ce::{CardinalityEstimator, Precision};
use warper_core::WarperConfig;
use warper_metrics::LatencyHistogram;
use warper_serve::{
    run_replay, AdaptConfig, AdaptMode, DriftEvent, DriftKind, Fleet, FleetConfig, FleetStats,
    ModelSnapshot, ReplayReport, ReplaySpec,
};
use warper_storage::{generate, DatasetKind};

fn hist_json(hist: &LatencyHistogram) -> serde_json::Value {
    let (p50, p95, p99, max) = hist.summary_scaled(1_000.0);
    serde_json::json!({
        "p50_us": p50,
        "p95_us": p95,
        "p99_us": p99,
        "max_us": max,
        "mean_us": hist.mean() / 1_000.0,
    })
}

fn latency_json(rep: &ReplayReport) -> serde_json::Value {
    hist_json(&rep.latency)
}

/// A one-shard fleet's batching policy: `workers` threads, at most `batch`
/// requests per GEMM, lingering `linger` for a fuller one.
fn batching(workers: usize, batch: usize, linger: Duration) -> FleetConfig {
    FleetConfig {
        workers,
        per_shard_queue: 1024,
        max_packed_batch: batch,
        quantum: batch,
        pack_linger: linger,
        ..FleetConfig::default()
    }
}

/// Closed-loop throughput of the serving core alone: `clients` threads
/// replay `feats` against a fixed model under the given batching policy.
fn service_throughput(
    model: &dyn CardinalityEstimator,
    cfg: FleetConfig,
    clients: usize,
    feats: &[Vec<f64>],
) -> (f64, LatencyHistogram, FleetStats) {
    let initial = ModelSnapshot::initial(model.snapshot().expect("LmMlp snapshots"));
    let service = Fleet::single(Arc::new(initial), None, cfg);
    let handle = service.handle();

    let t0 = Instant::now();
    let mut latency = LatencyHistogram::new();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                let h = handle.clone();
                s.spawn(move || {
                    let mut hist = LatencyHistogram::new();
                    for f in feats.iter().skip(c).step_by(clients) {
                        let sent = Instant::now();
                        h.estimate(0, f.clone()).expect("closed loop never sheds");
                        hist.record_duration(sent.elapsed());
                    }
                    hist
                })
            })
            .collect();
        for w in workers {
            latency.merge(&w.join().expect("client thread"));
        }
    });
    let qps = feats.len() as f64 / t0.elapsed().as_secs_f64();
    let (stats, _, _) = service.shutdown();
    (qps, latency, stats)
}

/// Mean microseconds of model inference per GEMM batch.
fn gemm_us_per_batch(stats: &FleetStats) -> f64 {
    stats.inference_nanos as f64 / 1e3 / stats.gemm_groups.max(1) as f64
}

/// Mean microseconds of model inference attributed to each served request.
fn gemm_us_per_request(stats: &FleetStats) -> f64 {
    stats.inference_nanos as f64 / 1e3 / stats.served.max(1) as f64
}

/// GEMM-vs-queue breakdown of a batching policy: per-batch model time
/// (worker-measured) and the queue/wake remainder of the mean request
/// latency.
fn breakdown_json(stats: &FleetStats, latency: &LatencyHistogram) -> serde_json::Value {
    let gemm_per_req_us = gemm_us_per_request(stats);
    let queue_per_req_us = (latency.mean() / 1e3 - gemm_per_req_us).max(0.0);
    serde_json::json!({
        "mean_batch": stats.mean_gemm_batch(),
        "gemm_us_per_batch": gemm_us_per_batch(stats),
        "gemm_us_per_request": gemm_per_req_us,
        "queue_us_per_request": queue_per_req_us,
    })
}

fn main() {
    let table = generate(DatasetKind::Prsa, 6_000, 17);
    let mut root = serde_json::Map::new();
    root.insert(
        "bench".into(),
        serde_json::Value::String("crates/bench/benches/serve.rs".into()),
    );

    // -----------------------------------------------------------------
    // 1. Micro-batching: one-at-a-time vs batch-64 on the same service.
    // -----------------------------------------------------------------
    // A production-sized MLP (where a per-query forward pass re-reads the
    // whole weight matrix) served to more clients than the batch size, so
    // batches fill without lingering. Same model, same queries, same
    // worker count — only the batching policy differs.
    const DIM: usize = 32;
    const CLIENTS: usize = 96;
    const QUERIES: usize = 24_000;
    let model = LmMlp::new(
        DIM,
        LmMlpParams {
            hidden: [512, 256],
            ..Default::default()
        },
        17,
    );
    let mut rng = StdRng::seed_from_u64(17);
    let feats: Vec<Vec<f64>> = (0..QUERIES)
        .map(|_| (0..DIM).map(|_| rng.random_f64()).collect())
        .collect();

    let (batch1_qps, batch1_lat, batch1_stats) =
        service_throughput(&model, batching(2, 1, Duration::ZERO), CLIENTS, &feats);
    let (batch64_qps, batch64_lat, batch64_stats) = service_throughput(
        &model,
        batching(2, 64, Duration::from_micros(200)),
        CLIENTS,
        &feats,
    );

    let speedup = batch64_qps / batch1_qps;
    println!(
        "micro-batching: {batch1_qps:.0} qps (batch 1) -> {batch64_qps:.0} qps (batch 64) \
         = {speedup:.1}x"
    );
    println!(
        "  batch 1:  gemm {:.1} us/batch, queue {:.1} us/req | batch 64: gemm {:.1} us/batch \
         ({:.2} us/req), queue {:.1} us/req",
        gemm_us_per_batch(&batch1_stats),
        (batch1_lat.mean() / 1e3 - gemm_us_per_request(&batch1_stats)).max(0.0),
        gemm_us_per_batch(&batch64_stats),
        gemm_us_per_request(&batch64_stats),
        (batch64_lat.mean() / 1e3 - gemm_us_per_request(&batch64_stats)).max(0.0),
    );
    assert!(
        speedup >= 3.0,
        "micro-batching speedup {speedup:.2}x below the 3x bar \
         ({batch1_qps:.0} -> {batch64_qps:.0} qps)"
    );
    root.insert(
        "micro_batching".into(),
        serde_json::json!({
            "queries": QUERIES,
            "clients": CLIENTS,
            "workers": 2,
            "model": "lm-mlp 32->512->256->1",
            "batch1_qps": batch1_qps,
            "batch64_qps": batch64_qps,
            "speedup": speedup,
            "batch1_latency": hist_json(&batch1_lat),
            "batch64_latency": hist_json(&batch64_lat),
            "batch1_breakdown": breakdown_json(&batch1_stats, &batch1_lat),
            "batch64_breakdown": breakdown_json(&batch64_stats, &batch64_lat),
        }),
    );

    // -----------------------------------------------------------------
    // 2. Serving precision: f64 vs f32 (SIMD microkernels) vs int8.
    // -----------------------------------------------------------------
    // Same harness, same queries, one worker; only the serving copy of the
    // model differs. The f64 path runs the blocked f64 GEMM; f32/int8 run
    // the packed-panel `gemm32` microkernels behind `QuantizedModel`. The
    // layer shape is serving-scale so the forward pass, not queue
    // overhead, dominates.
    let big = LmMlp::new(
        DIM,
        LmMlpParams {
            hidden: [2048, 1024],
            ..Default::default()
        },
        17,
    );
    let pfeats = &feats[..12_000];
    let pcfg = || batching(1, 64, Duration::from_micros(200));
    const P_CLIENTS: usize = 64;

    let (f64_qps, f64_lat, f64_stats) = service_throughput(&big, pcfg(), P_CLIENTS, pfeats);
    let quant = |p| {
        Box::new(warper_ce::quantize_for_serving(&big, p).expect("LmMlp quantizes"))
            as Box<dyn CardinalityEstimator>
    };
    let (f32_qps, f32_lat, f32_stats) =
        service_throughput(quant(Precision::F32).as_ref(), pcfg(), P_CLIENTS, pfeats);
    let (i8_qps, i8_lat, i8_stats) =
        service_throughput(quant(Precision::Int8).as_ref(), pcfg(), P_CLIENTS, pfeats);

    let f32_speedup = f32_qps / f64_qps;
    let i8_speedup = i8_qps / f64_qps;
    println!(
        "precision (batch 64, kernel {}): f64 {f64_qps:.0} qps | f32 {f32_qps:.0} qps \
         ({f32_speedup:.1}x) | int8 {i8_qps:.0} qps ({i8_speedup:.1}x)",
        warper_linalg::active_backend_name(),
    );
    println!(
        "  gemm us/batch: f64 {:.0} | f32 {:.0} | int8 {:.0}",
        gemm_us_per_batch(&f64_stats),
        gemm_us_per_batch(&f32_stats),
        gemm_us_per_batch(&i8_stats),
    );
    // Like with like: the f64 GEMM of a batch-64 layer runs on this many
    // threads, the f32 microkernels on one.
    let f64_gemm_threads = warper_linalg::gemm::auto_threads(64, 2048, 1024);
    let f32_speedup_per_thread = f32_speedup * f64_gemm_threads as f64;
    println!(
        "  f64 gemm threads {f64_gemm_threads}: f32 per-thread speedup \
         {f32_speedup_per_thread:.1}x"
    );
    assert!(
        f32_speedup_per_thread >= 4.0,
        "f32 serving speedup {f32_speedup_per_thread:.2}x per thread below the 4x bar \
         ({f64_qps:.0} qps on {f64_gemm_threads} gemm threads -> {f32_qps:.0} qps on one)"
    );
    root.insert(
        "precision_serving".into(),
        serde_json::json!({
            "queries": pfeats.len(),
            "clients": P_CLIENTS,
            "workers": 1,
            "max_batch": 64,
            "model": "lm-mlp 32->2048->1024->1",
            "simd_backend": warper_linalg::active_backend_name(),
            "f64_qps": f64_qps,
            "f32_qps": f32_qps,
            "int8_qps": i8_qps,
            "f32_speedup_vs_f64": f32_speedup,
            "f64_gemm_threads": f64_gemm_threads,
            "f32_speedup_vs_f64_per_thread": f32_speedup_per_thread,
            "int8_speedup_vs_f64": i8_speedup,
            "f64_latency": hist_json(&f64_lat),
            "f32_latency": hist_json(&f32_lat),
            "int8_latency": hist_json(&i8_lat),
            "f64_breakdown": breakdown_json(&f64_stats, &f64_lat),
            "f32_breakdown": breakdown_json(&f32_stats, &f32_lat),
            "int8_breakdown": breakdown_json(&i8_stats, &i8_lat),
        }),
    );

    // -----------------------------------------------------------------
    // 3. Drift + background adaptation: hot swap without stalling.
    // -----------------------------------------------------------------
    let spec = ReplaySpec {
        n_train: 400,
        n_queries: 6_000,
        clients: 8,
        drift: Some(DriftEvent {
            at_query: 2_000,
            kind: DriftKind::Workload {
                new_mix: "w4".into(),
            },
        }),
        adapt: AdaptMode::Background(AdaptConfig {
            invoke_every: 150,
            max_wait: Duration::from_millis(10),
            ..Default::default()
        }),
        warper: WarperConfig {
            embed_dim: 8,
            hidden: 32,
            n_i: 6,
            pretrain_epochs: 3,
            gamma: 200,
            n_p: 60,
            ..Default::default()
        },
        seed: 29,
        spot_checks: 40,
        ..Default::default()
    };
    let rep = run_replay(&table, &spec).expect("adaptation replay");
    let (_, adapt) = rep.adapt[0];
    let (p50, _, p99, max) = rep.latency.summary_scaled(1_000.0);
    let mean_invoke_ms = if adapt.invocations == 0 {
        0.0
    } else {
        adapt.adapt_secs * 1e3 / adapt.invocations as f64
    };
    println!(
        "drift+adapt: served={} shed={} errors={} | {:.0} qps | \
         p50={p50:.0}us p99={p99:.0}us max={max:.0}us | \
         {} generations, max staleness {} | retrain mean {mean_invoke_ms:.1} ms x{}",
        rep.served,
        rep.shed,
        rep.errors,
        rep.throughput_qps,
        rep.generations_published,
        rep.max_staleness,
        adapt.invocations,
    );

    assert_eq!(rep.errors, 0, "drift replay served errors");
    assert!(
        rep.generations_published >= 1,
        "adaptation never hot-swapped a generation"
    );
    assert_eq!(adapt.publish_failures, 0, "commits failed to publish");
    // The stall check: if any request had waited behind a retraining step,
    // p99 would be at least one invocation long.
    assert!(
        p99 / 1e3 < mean_invoke_ms,
        "p99 {:.1} ms not below mean retraining step {mean_invoke_ms:.1} ms — \
         requests stalled behind adaptation",
        p99 / 1e3
    );
    root.insert(
        "drift_adaptation".into(),
        serde_json::json!({
            "queries": 6_000,
            "clients": 8,
            "drift_at": 2_000,
            "served": rep.served,
            "shed": rep.shed,
            "errors": rep.errors,
            "throughput_qps": rep.throughput_qps,
            "latency": latency_json(&rep),
            "generations_published": rep.generations_published,
            "max_staleness": rep.max_staleness,
            "adapt_invocations": adapt.invocations,
            "adapt_commits": adapt.commits,
            "adapt_rollbacks": adapt.rollbacks,
            "adapt_annotated": adapt.annotated,
            "mean_retrain_ms": mean_invoke_ms,
            "spot_gmq_pre": rep.spot_gmq_pre,
            "spot_gmq_post": rep.spot_gmq_post,
        }),
    );

    warper_bench::publish_bench("serve", serde_json::Value::Object(root));
}
