//! Sketch-backed drift telemetry benchmark.
//!
//! Measures the costs the `storage::sketch` subsystem was built around, and
//! asserts the headline claims:
//!
//! 0. **Block kernel (a gate).** `ColumnSketch::from_values` versus the
//!    `insert_value` / `insert` fold it is state-identical to, in ns per
//!    value on one all-distinct and one <= 16-distinct column, measured in
//!    the same run. The kernel must be **>= 3x** the fold on the all-distinct
//!    column — a ratio inside one process, not an absolute time.
//! 1. **Maintenance.** After a drift op dirties a handful of blocks, the
//!    incremental `sketch_index()` refresh re-sketches only those blocks; a
//!    cold rebuild re-hashes the whole table. The refresh must beat the
//!    rebuild. Scattered in-place updates dirty every block, so that refresh
//!    costs a rebuild — reported as `scattered_refresh_ms` so the kernel's
//!    speed is what keeps it affordable.
//! 2. **Merge.** Block → table and shard → fleet rollups are monoid merges
//!    of fixed-size summaries; reported per-merge so the "a thousand shards
//!    summarize into one sketch" claim has a number attached.
//! 3. **Detection (the gate).** A drift probe on the warmed sketch rollup
//!    (the `SketchProbe` fast path) versus the exact canary rescan that the
//!    detector used before sketches existed. The sketch path must be
//!    **>= 10x** faster — it reads a cached fixed-size rollup while the
//!    rescan re-counts every canary predicate over every row — and both
//!    paths must agree that the injected drift is real.
//!
//! Run with `cargo bench --bench sketch` (release profile). Writes
//! `BENCH_sketch.json` at the workspace root in addition to printing.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use warper_core::detect::{CanarySet, SketchProbe};
use warper_core::WarperConfig;
use warper_storage::sketch::{DistinctSketch, HeavyHitters, DEFAULT_HH_CAP, DEFAULT_PRECISION};
use warper_storage::{drift, generate, ColumnSketch, DatasetKind, TableSketch, BLOCK_ROWS};

const ROWS: usize = 50_000;
const SEED: u64 = 23;
const COLD_BUILDS: usize = 3;
const REFRESH_OPS: usize = 20;
const FLEET_SHARDS: usize = 128;
const DETECT_ITERS: usize = 50;
const KERNEL_BLOCKS: usize = 48;
const KERNEL_PASSES: usize = 5;

fn secs_per(iters: usize, f: impl FnMut()) -> f64 {
    let mut f = f;
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_secs_f64() / iters as f64
}

/// The per-value reference `ColumnSketch::from_values` replaced as the block
/// constructor (and still equals, state for state).
fn fold_block(values: &[f64]) -> ColumnSketch {
    let mut distinct = DistinctSketch::new(DEFAULT_PRECISION);
    let mut heavy = HeavyHitters::new(DEFAULT_HH_CAP);
    for &v in values {
        distinct.insert_value(v);
        heavy.insert(v);
    }
    ColumnSketch { distinct, heavy }
}

/// `(kernel, fold)` ns per value over `column`, block by block; best of
/// `KERNEL_PASSES` alternating passes each.
fn kernel_vs_fold_ns(column: &[f64]) -> (f64, f64) {
    // Odd-sized blocks, so the last SpaceSaving round is a partial one.
    for block in column.chunks(BLOCK_ROWS - 7).take(4) {
        assert_eq!(
            ColumnSketch::from_values(block),
            fold_block(block),
            "kernel and fold disagree"
        );
    }
    let pass = |f: fn(&[f64]) -> ColumnSketch| {
        let t0 = Instant::now();
        for block in column.chunks(BLOCK_ROWS) {
            std::hint::black_box(f(std::hint::black_box(block)));
        }
        t0.elapsed().as_secs_f64() * 1e9 / column.len() as f64
    };
    let (mut kernel, mut fold) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..KERNEL_PASSES {
        kernel = kernel.min(pass(ColumnSketch::from_values));
        fold = fold.min(pass(fold_block));
    }
    (kernel, fold)
}

fn main() {
    let cfg = WarperConfig::default();

    // -- 0. Block kernel vs the per-value fold ------------------------------
    let n = KERNEL_BLOCKS * BLOCK_ROWS;
    let mut rng = StdRng::seed_from_u64(SEED);
    let distinct_col: Vec<f64> = (0..n).map(|_| rng.random_range(-1.0e3..1.0e3)).collect();
    let dict_col: Vec<f64> = (0..n)
        .map(|_| f64::from(rng.random_range(0u32..12)))
        .collect();
    let (kernel_distinct_ns, fold_distinct_ns) = kernel_vs_fold_ns(&distinct_col);
    let (kernel_dict_ns, fold_dict_ns) = kernel_vs_fold_ns(&dict_col);
    let kernel_speedup = fold_distinct_ns / kernel_distinct_ns;

    // -- 1. Maintenance: cold build vs incremental refresh -----------------
    let cold_s = {
        let tables: Vec<_> = (0..COLD_BUILDS)
            .map(|i| generate(DatasetKind::Prsa, ROWS, SEED + i as u64))
            .collect();
        let t0 = Instant::now();
        for t in &tables {
            std::hint::black_box(t.sketch_index());
        }
        t0.elapsed().as_secs_f64() / COLD_BUILDS as f64
    };

    // Incremental refresh is measured on appends — the localized mutation
    // the block-granular dirty tracking exists for (only tail blocks are
    // re-sketched). Scattered in-place updates dirty most of a small table's
    // blocks and rightly degrade toward a rebuild.
    let mut table = generate(DatasetKind::Prsa, ROWS, SEED);
    let n_blocks = table.sketch_index().n_blocks();
    let mut rng = StdRng::seed_from_u64(SEED);
    let refresh_s = {
        let t0 = Instant::now();
        let mut mutate = std::time::Duration::ZERO;
        for _ in 0..REFRESH_OPS {
            // The mutation itself is excluded from the timer; only the
            // dirty-block re-sketch + rollup is the subsystem's cost.
            let m0 = Instant::now();
            drift::append_rows(&mut table, 256, 0.3, &mut rng);
            mutate += m0.elapsed();
            std::hint::black_box(table.table_sketch());
        }
        (t0.elapsed() - mutate).as_secs_f64() / REFRESH_OPS as f64
    };
    let refresh_speedup = cold_s / refresh_s;

    // One row in a thousand updated in place lands in every block: the
    // refresh re-sketches the whole table (HLL and SpaceSaving cannot
    // unlearn a row), so it costs what the kernel costs per value.
    let scattered_s = {
        let mut scattered = std::time::Duration::ZERO;
        for _ in 0..COLD_BUILDS {
            drift::update_rows(&mut table, 0.001, 0.3, &mut rng);
            let t0 = Instant::now();
            std::hint::black_box(table.table_sketch());
            scattered += t0.elapsed();
        }
        scattered.as_secs_f64() / COLD_BUILDS as f64
    };

    // -- 2. Merge: fleet rollup of per-shard summaries ---------------------
    let shard_sketch = table.table_sketch().as_ref().clone();
    let merge_s = secs_per(1, || {
        let mut fleet = TableSketch::empty();
        for _ in 0..FLEET_SHARDS {
            fleet.merge(&shard_sketch);
        }
        std::hint::black_box(fleet.rows);
    }) / FLEET_SHARDS as f64;

    // -- 3. Detection: sketch fast path vs exact canary rescan -------------
    let table = generate(DatasetKind::Prsa, ROWS, SEED);
    let mut probe = SketchProbe::new(&table, &cfg);
    let mut rng = StdRng::seed_from_u64(SEED + 1);
    let canaries = CanarySet::new(&table, cfg.canaries, &mut rng);

    // Steady state first: nothing changed, the probe answers from the
    // rows_changed stamp alone.
    let quiet_s = secs_per(DETECT_ITERS, || {
        std::hint::black_box(probe.telemetry(&table, &canaries));
    });
    assert_eq!(
        probe.stats.fast_negatives, DETECT_ITERS as u64,
        "quiet probes must all take the fast-negative path"
    );

    // Inject real drift (10% of rows, well past data_drift_threshold), warm
    // the rollup cache once — steady-state probes hit the cache, that is the
    // design — then race the two detection paths over the same table.
    let mut table = table;
    let mut drift_rng = StdRng::seed_from_u64(SEED + 2);
    drift::update_rows(&mut table, 0.10, 0.6, &mut drift_rng);
    std::hint::black_box(table.table_sketch());

    probe.stats = Default::default();
    let sketch_s = secs_per(DETECT_ITERS, || {
        std::hint::black_box(probe.telemetry(&table, &canaries));
    });
    assert_eq!(
        probe.stats.fast_positives, DETECT_ITERS as u64,
        "10% drift must be conclusive from the sketches alone"
    );
    let rescan_s = secs_per(DETECT_ITERS, || {
        std::hint::black_box(canaries.max_relative_change(&table));
    });
    let detect_speedup = rescan_s / sketch_s;

    // Agreement: the exact path sees the same drift the sketch path flagged.
    let exact = canaries.max_relative_change(&table);
    let sketched = probe.telemetry(&table, &canaries);
    assert!(
        sketched.changed_fraction > cfg.data_drift_threshold,
        "sketch path missed the injected drift (changed_fraction {:.4})",
        sketched.changed_fraction
    );
    assert!(
        exact > cfg.data_drift_threshold,
        "exact path missed the injected drift (canary change {exact:.4})"
    );

    println!("sketch telemetry @ {ROWS} Prsa rows ({n_blocks} blocks):");
    println!(
        "  kernel: all-distinct {kernel_distinct_ns:.1} ns/value vs fold {fold_distinct_ns:.1}  -> {kernel_speedup:.1}x; \
         <=16-distinct {kernel_dict_ns:.1} vs {fold_dict_ns:.1}"
    );
    println!(
        "  maintenance: cold build {:.2} ms, incremental refresh {:.1} us/op  -> {refresh_speedup:.0}x, \
         scattered refresh {:.2} ms",
        cold_s * 1e3,
        refresh_s * 1e6,
        scattered_s * 1e3,
    );
    println!(
        "  merge: {:.2} us per shard rollup ({FLEET_SHARDS}-shard fleet fold)",
        merge_s * 1e6
    );
    println!(
        "  detect: quiet probe {:.2} us, drifted probe {:.2} us, canary rescan {:.0} us  -> {detect_speedup:.0}x",
        quiet_s * 1e6,
        sketch_s * 1e6,
        rescan_s * 1e6,
    );

    assert!(
        kernel_speedup >= 3.0,
        "block kernel {kernel_distinct_ns:.1} ns/value only {kernel_speedup:.1}x the \
         {fold_distinct_ns:.1} ns/value fold on an all-distinct column — below the 3x bar"
    );
    assert!(
        refresh_speedup > 1.0,
        "incremental refresh ({:.1} us) slower than cold rebuild ({:.1} us)",
        refresh_s * 1e6,
        cold_s * 1e6
    );
    assert!(
        detect_speedup >= 10.0,
        "sketch detection {:.2} us only {detect_speedup:.1}x faster than the \
         {:.2} us canary rescan — below the 10x bar",
        sketch_s * 1e6,
        rescan_s * 1e6
    );

    let root = serde_json::json!({
        "bench": "crates/bench/benches/sketch.rs",
        "rows": ROWS,
        "blocks": n_blocks,
        "cold_build_ms": cold_s * 1e3,
        "incremental_refresh_us": refresh_s * 1e6,
        "refresh_speedup": refresh_speedup,
        "scattered_refresh_ms": scattered_s * 1e3,
        "kernel_ns_per_value_all_distinct": kernel_distinct_ns,
        "fold_ns_per_value_all_distinct": fold_distinct_ns,
        "kernel_speedup_all_distinct": kernel_speedup,
        "kernel_ns_per_value_12_distinct": kernel_dict_ns,
        "fold_ns_per_value_12_distinct": fold_dict_ns,
        "merge_per_shard_us": merge_s * 1e6,
        "fleet_shards": FLEET_SHARDS,
        "detect_quiet_us": quiet_s * 1e6,
        "detect_sketch_us": sketch_s * 1e6,
        "detect_rescan_us": rescan_s * 1e6,
        "detect_speedup": detect_speedup,
        "canaries": cfg.canaries,
    });

    warper_bench::publish_bench("sketch", root);
}
