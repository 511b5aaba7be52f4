//! Annotation engine benchmark: seed per-predicate scan vs the zone-map-
//! pruned, batch-shared engine, on Higgs-like (10 numeric columns) and
//! IMDB-like `cast_info` (3 columns, Zipf fanout, sorted FK column) tables
//! at ≥1M rows.
//!
//! Run with `cargo bench --bench annotator` (release profile). Writes the
//! measured numbers to `BENCH_annotator.json` at the workspace root in
//! addition to printing them.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;
use warper_query::{Annotator, RangePredicate};
use warper_storage::imdb::generate_imdb;
use warper_storage::{generate, DatasetKind, Table};

// ---------------------------------------------------------------------------
// Seed baseline, kept verbatim from the pre-engine annotator: every count
// re-derives the column domains with a full all-column scan, then runs a
// selection-vector pipeline (first constrained column pushes survivor
// indices, later columns `retain`). Batches fan out over contiguous chunks
// of the predicate list, one scoped thread per chunk.
// ---------------------------------------------------------------------------

fn seed_count(table: &Table, pred: &RangePredicate) -> u64 {
    assert_eq!(pred.dim(), table.num_cols(), "predicate dimension mismatch");
    if pred.is_empty_range() {
        return 0;
    }
    let domains = table.domains();
    let mut cols = pred.constrained_columns(&domains);
    if cols.is_empty() {
        return table.num_rows() as u64;
    }
    let est = |c: usize| -> f64 {
        let (dlo, dhi) = domains[c];
        let width = dhi - dlo;
        if width <= 0.0 {
            return 1.0;
        }
        let lo = pred.lows[c].max(dlo);
        let hi = pred.highs[c].min(dhi);
        ((hi - lo) / width).clamp(0.0, 1.0)
    };
    cols.sort_by(|&a, &b| est(a).total_cmp(&est(b)));

    let c0 = cols[0];
    let (lo, hi) = (pred.lows[c0], pred.highs[c0]);
    let values = table.column(c0).values();
    let mut selection: Vec<u32> = Vec::with_capacity(values.len() / 4);
    for (i, &v) in values.iter().enumerate() {
        if v >= lo && v <= hi {
            selection.push(i as u32);
        }
    }
    for &c in &cols[1..] {
        if selection.is_empty() {
            break;
        }
        let (lo, hi) = (pred.lows[c], pred.highs[c]);
        let values = table.column(c).values();
        selection.retain(|&i| {
            let v = values[i as usize];
            v >= lo && v <= hi
        });
    }
    selection.len() as u64
}

fn seed_count_batch(table: &Table, preds: &[RangePredicate], threads: usize) -> Vec<u64> {
    if preds.len() < 4 || threads == 1 {
        return preds.iter().map(|p| seed_count(table, p)).collect();
    }
    let chunk = preds.len().div_ceil(threads);
    let mut out = vec![0u64; preds.len()];
    std::thread::scope(|s| {
        for (preds_chunk, out_chunk) in preds.chunks(chunk).zip(out.chunks_mut(chunk)) {
            s.spawn(move || {
                for (p, o) in preds_chunk.iter().zip(out_chunk.iter_mut()) {
                    *o = seed_count(table, p);
                }
            });
        }
    });
    out
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

/// Median wall-clock seconds of `reps` runs of `f` (one untimed warm-up).
fn time_median<F: FnMut()>(reps: usize, mut f: F) -> f64 {
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

/// A workload of `n` training-style predicates: each constrains 1–3 random
/// columns to a random sub-range of its domain.
fn workload(table: &Table, n: usize, seed: u64) -> Vec<RangePredicate> {
    let domains = table.domains();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut p = RangePredicate::unconstrained(&domains);
            for _ in 0..rng.random_range(1..=3usize) {
                let c = rng.random_range(0..domains.len());
                let (lo, hi) = domains[c];
                let a = rng.random_range(lo..=hi);
                let b = rng.random_range(lo..=hi);
                p = p.with_range(c, a.min(b), a.max(b));
            }
            p
        })
        .collect()
}

fn bench_table(
    label: &str,
    table: &Table,
    threads: usize,
    out: &mut Vec<(String, serde_json::Value)>,
) {
    let rows = table.num_rows();
    let preds256 = workload(table, 256, 0xA0);
    let singles = workload(table, 8, 0xB1);
    let engine = Annotator::with_threads(threads);

    // One-off zone-map construction cost, reported for honesty: the engine
    // pays it on the first query after a cold start (and amortizes it over
    // every query until the next drift).
    let t0 = Instant::now();
    let index = table.zone_index();
    let index_build_s = t0.elapsed().as_secs_f64();
    black_box(&index);

    // Sanity: both engines are exact, so they must agree everywhere.
    let expect = seed_count_batch(table, &preds256, threads);
    assert_eq!(
        engine.count_batch(table, &preds256),
        expect,
        "batch mismatch on {label}"
    );
    for p in &singles {
        assert_eq!(
            engine.count(table, p),
            seed_count(table, p),
            "single mismatch on {label}"
        );
    }

    // Single-query latency: median across 8 predicates, each timed alone.
    let seed_single_s = time_median(3, || {
        for p in &singles {
            black_box(seed_count(table, p));
        }
    }) / singles.len() as f64;
    let engine_single_s = time_median(5, || {
        for p in &singles {
            black_box(engine.count(table, p));
        }
    }) / singles.len() as f64;

    // Batch of 256, the adaptation-loop shape (`c_gt` in paper §4.3).
    let seed_batch_s = time_median(3, || {
        black_box(seed_count_batch(table, &preds256, threads));
    });
    let engine_batch_s = time_median(5, || {
        black_box(engine.count_batch(table, &preds256));
    });

    let single_speedup = seed_single_s / engine_single_s;
    let batch_speedup = seed_batch_s / engine_batch_s;
    println!(
        "{label} ({rows} rows, {threads}t): single {:.2} ms -> {:.3} ms ({single_speedup:.1}x) | \
         batch-256 {:.0} ms -> {:.1} ms ({batch_speedup:.1}x) | index build {:.1} ms",
        seed_single_s * 1e3,
        engine_single_s * 1e3,
        seed_batch_s * 1e3,
        engine_batch_s * 1e3,
        index_build_s * 1e3,
    );

    out.push((
        label.into(),
        serde_json::json!({
            "rows": rows,
            "cols": table.num_cols(),
            "threads": threads,
            "index_build_ms": index_build_s * 1e3,
            "single_seed_ms": seed_single_s * 1e3,
            "single_engine_ms": engine_single_s * 1e3,
            "single_speedup": single_speedup,
            "batch256_seed_ms": seed_batch_s * 1e3,
            "batch256_engine_ms": engine_batch_s * 1e3,
            "batch256_speedup": batch_speedup,
        }),
    ));
}

fn main() {
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let mut sections: Vec<(String, serde_json::Value)> = Vec::new();

    // Higgs-like: 10 numeric columns at 1M rows.
    let higgs = generate(DatasetKind::Higgs, 1_000_000, 17);
    bench_table("higgs_1m", &higgs, threads, &mut sections);

    // IMDB-like cast_info: 3 columns (sorted FK `ci_title`, Zipf role,
    // order), ≥1M rows from 250K titles with skewed fanout. Predicates on
    // the FK column exercise the sorted binary-search fast path.
    let imdb = generate_imdb(250_000, 23);
    let cast = &imdb.cast_info;
    assert!(
        cast.num_rows() >= 1_000_000,
        "cast_info too small: {} rows",
        cast.num_rows()
    );
    bench_table("imdb_cast_info", cast, threads, &mut sections);

    let mut root = serde_json::Map::new();
    root.insert(
        "bench".into(),
        serde_json::Value::String("crates/bench/benches/annotator.rs".into()),
    );
    root.insert(
        "baseline".into(),
        serde_json::Value::String(
            "seed annotator: per-predicate table.domains() rescan + selection-vector pipeline"
                .into(),
        ),
    );
    for (k, v) in sections {
        root.insert(k, v);
    }
    warper_bench::publish_bench("annotator", serde_json::Value::Object(root));
}
