//! Property-based tests for the mergeable sketch subsystem.
//!
//! Five families:
//! * algebraic laws of `merge` — associativity and commutativity for both
//!   sketches (and the table-level rollup), idempotence for the distinct
//!   sketch (register max is a semilattice; heavy-hitter counts sum, so
//!   idempotence is intentionally *not* claimed there);
//! * incremental maintenance — after any sequence of drift mutators, the
//!   `DirtySet`-driven `Table::sketch_index` refresh equals a from-scratch
//!   `SketchIndex::build`;
//! * accuracy — HLL estimates stay within relative-error bounds of the exact
//!   distinct counts on every synthetic `DatasetKind`;
//! * kernel state identity — `ColumnSketch::from_values` (the one-pass block
//!   kernel) equals the `insert_value` / `insert` fold, as values and as
//!   serialized bytes, across the SpaceSaving cap, the sparse → dense
//!   promotion point and the awkward `f64` encodings;
//! * mutator domains — after any sequence of drift mutators the zone maps'
//!   domains (what `append_rows` / `update_rows` read) equal the full-scan
//!   `Table::domains`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use warper_storage::drift::{append_rows, delete_rows, sort_and_truncate_half, update_rows};
use warper_storage::sketch::{
    hash_value, DistinctSketch, HeavyHitters, DEFAULT_HH_CAP, DEFAULT_PRECISION,
};
use warper_storage::{
    generate, Column, ColumnSketch, ColumnType, DatasetKind, SketchIndex, Table, TableSketch,
    BLOCK_ROWS,
};

fn sketch_of(values: &[f64]) -> DistinctSketch {
    let mut s = DistinctSketch::new(DEFAULT_PRECISION);
    for &v in values {
        s.insert_value(v);
    }
    s
}

fn hh_of(values: &[f64], cap: usize) -> HeavyHitters {
    let mut h = HeavyHitters::new(cap);
    for &v in values {
        h.insert(v);
    }
    h
}

/// The reference the block kernel must reproduce: the public per-value API
/// folded over an empty column sketch.
fn fold_of(values: &[f64]) -> ColumnSketch {
    ColumnSketch {
        distinct: sketch_of(values),
        heavy: hh_of(values, DEFAULT_HH_CAP),
    }
}

fn json_of(s: &ColumnSketch) -> String {
    let mut out = String::new();
    s.serialize(&mut out);
    out
}

/// Each inner list is one key under the sketches' canonicalization, spelled
/// every way it can arrive: NaN payloads and signs, both zeros, the
/// infinities, subnormals.
fn awkward_keys() -> Vec<Vec<f64>> {
    vec![
        vec![
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff8_0000_0000_0001),
            f64::from_bits(0x7ff0_0000_0000_0001),
            f64::from_bits(0xffff_ffff_ffff_ffff),
        ],
        vec![0.0, -0.0],
        vec![f64::INFINITY],
        vec![f64::NEG_INFINITY],
        vec![f64::from_bits(1)],
        vec![-f64::from_bits(1)],
        vec![f64::MIN_POSITIVE / 2.0],
        vec![f64::MAX],
        vec![f64::MIN],
    ]
}

/// `n` keys: the awkward ones first, then distinct reals.
fn key_pool(n: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
    let mut pool = awkward_keys();
    pool.truncate(n);
    let base: f64 = rng.random_range(-1.0e6..1.0e6);
    pool.extend((pool.len()..n).map(|i| vec![base + 0.37 * i as f64]));
    pool
}

/// `n` keys that occupy exactly `n` distinct HLL registers, so a stream
/// over them ends at a chosen distance from the promotion point.
fn register_pool(n: usize) -> Vec<Vec<f64>> {
    let mut seen = std::collections::BTreeSet::new();
    (0u32..)
        .map(|i| f64::from(i) + 0.5)
        .filter(|&v| seen.insert(hash_value(v) >> (64 - DEFAULT_PRECISION)))
        .take(n)
        .map(|v| vec![v])
        .collect()
}

/// A `len`-value stream over `pool`: cyclic (systematic evictions), uniform
/// or skewed (a few heavy keys among many light ones), by `mode`.
fn stream_over(pool: &[Vec<f64>], len: usize, mode: usize, rng: &mut StdRng) -> Vec<f64> {
    (0..len)
        .map(|i| {
            let k = match mode {
                0 => i % pool.len(),
                1 => rng.random_range(0..pool.len()),
                _ => {
                    let u: f64 = rng.random_range(0.0..1.0);
                    ((u * u * u * pool.len() as f64) as usize).min(pool.len() - 1)
                }
            };
            let spellings = &pool[k];
            spellings[rng.random_range(0..spellings.len())]
        })
        .collect()
}

fn table_from(values: Vec<f64>) -> Table {
    let cats: Vec<f64> = (0..values.len()).map(|i| (i % 7) as f64).collect();
    Table::new(
        "t",
        vec![
            Column::new("v", ColumnType::Real, values),
            Column::new("c", ColumnType::Categorical, cats),
        ],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn distinct_merge_laws(
        a in prop::collection::vec(-500i64..500, 0..300),
        b in prop::collection::vec(-500i64..500, 0..300),
        c in prop::collection::vec(-500i64..500, 0..300),
    ) {
        let (a, b, c): (Vec<f64>, Vec<f64>, Vec<f64>) = (
            a.into_iter().map(|v| v as f64).collect(),
            b.into_iter().map(|v| v as f64).collect(),
            c.into_iter().map(|v| v as f64).collect(),
        );
        let (sa, sb, sc) = (sketch_of(&a), sketch_of(&b), sketch_of(&c));
        // Commutativity: a ∪ b == b ∪ a.
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(&ab, &ba);
        // Associativity: (a ∪ b) ∪ c == a ∪ (b ∪ c).
        let mut ab_c = ab.clone();
        ab_c.merge(&sc);
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut a_bc = sa.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc);
        // Idempotence: x ∪ x == x.
        let mut twice = ab_c.clone();
        twice.merge(&ab_c);
        prop_assert_eq!(&twice, &ab_c);
        // Identity: x ∪ ∅ == x.
        let mut with_empty = ab_c.clone();
        with_empty.merge(&DistinctSketch::new(DEFAULT_PRECISION));
        prop_assert_eq!(&with_empty, &ab_c);
    }

    #[test]
    fn heavy_hitter_merge_laws(
        a in prop::collection::vec(0i64..40, 0..200),
        b in prop::collection::vec(0i64..40, 0..200),
        c in prop::collection::vec(0i64..40, 0..200),
        cap in 2usize..12,
    ) {
        let (a, b, c): (Vec<f64>, Vec<f64>, Vec<f64>) = (
            a.into_iter().map(|v| v as f64).collect(),
            b.into_iter().map(|v| v as f64).collect(),
            c.into_iter().map(|v| v as f64).collect(),
        );
        let (ha, hb, hc) = (hh_of(&a, cap), hh_of(&b, cap), hh_of(&c, cap));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(&ab, &ba, "commutative");
        let mut ab_c = ab.clone();
        ab_c.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut a_bc = ha.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc, "associative (merge never truncates)");
        let mut with_empty = ab_c.clone();
        with_empty.merge(&HeavyHitters::new(cap));
        prop_assert_eq!(&with_empty, &ab_c, "empty identity");
    }

    #[test]
    fn table_rollup_merge_is_order_insensitive(
        values in prop::collection::vec(-100i64..100, 10..400),
        split in 1usize..9,
    ) {
        // Merging per-shard rollups in any order/grouping yields the same
        // fleet-level state (block → table → shard → fleet exactness).
        let values: Vec<f64> = values.into_iter().map(|v| v as f64).collect();
        let at = values.len() * split / 10;
        let (left, right) = values.split_at(at.clamp(1, values.len() - 1));
        let sl = SketchIndex::build(&[Column::new("v", ColumnType::Real, left.to_vec())])
            .rollup(left.len() as u64);
        let sr = SketchIndex::build(&[Column::new("v", ColumnType::Real, right.to_vec())])
            .rollup(right.len() as u64);
        let mut lr = sl.clone();
        lr.merge(&sr);
        let mut rl = sr.clone();
        rl.merge(&sl);
        prop_assert_eq!(&lr, &rl);
        prop_assert_eq!(lr.rows as usize, values.len());
        let mut with_empty = lr.clone();
        with_empty.merge(&TableSketch::empty());
        prop_assert_eq!(&with_empty, &lr);
        // The merged distinct sketch equals sketching the whole stream.
        let whole = SketchIndex::build(&[Column::new("v", ColumnType::Real, values)])
            .rollup(0);
        prop_assert_eq!(&lr.cols[0].distinct, &whole.cols[0].distinct);
    }

    #[test]
    fn incremental_sketch_refresh_matches_full_rebuild(
        values in prop::collection::vec(-100.0f64..100.0, 4..300),
        seed in 0u64..500,
        ops in prop::collection::vec(0usize..4, 1..5),
    ) {
        let mut t = table_from(values);
        // Force the initial build so later calls exercise the refresh path.
        let _ = t.sketch_index();
        let mut rng = StdRng::seed_from_u64(seed);
        for (i, &op) in ops.iter().enumerate() {
            match op {
                0 => append_rows(&mut t, 20 + i, 0.1, &mut rng),
                1 => update_rows(&mut t, 0.4, 0.2, &mut rng),
                2 => delete_rows(&mut t, 0.3, &mut rng),
                _ => sort_and_truncate_half(&mut t, i % 2),
            }
            let refreshed = t.sketch_index();
            let rebuilt = SketchIndex::build(t.columns());
            prop_assert_eq!(refreshed.as_ref(), &rebuilt);
            // The cached rollup equals rolling up the rebuilt index.
            let rolled = t.table_sketch();
            prop_assert_eq!(rolled.cols.clone(), rebuilt.rollup(0).cols);
        }
    }

    #[test]
    fn block_kernel_equals_insert_fold(
        seed in 0u64..u64::MAX,
        long in 0usize..=2 * BLOCK_ROWS,
        short in 0usize..=17,
        mode in 0usize..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Key counts straddling the SpaceSaving cap, register counts
        // straddling sparse → dense promotion (m / 4 = 256), and a pool no
        // stream exhausts (all-distinct when cyclic).
        let mut pools: Vec<Vec<Vec<f64>>> = [1, 3, 15, 16, 17, 40, 200, 1000, 5000, 3 * BLOCK_ROWS]
            .iter()
            .map(|&n| key_pool(n, &mut rng))
            .collect();
        pools.extend([255, 256, 257].iter().map(|&n| register_pool(n)));
        for pool in &pools {
            for len in [long, short] {
                let values = stream_over(pool, len, mode, &mut rng);
                let kernel = ColumnSketch::from_values(&values);
                let fold = fold_of(&values);
                prop_assert_eq!(&kernel, &fold, "{} keys, {} values", pool.len(), len);
                prop_assert_eq!(json_of(&kernel), json_of(&fold));
                prop_assert!(kernel.validate().is_ok());
            }
        }
    }

    #[test]
    fn zone_map_domains_equal_scanned_domains_after_mutators(
        rows in 4usize..3 * BLOCK_ROWS,
        seed in 0u64..500,
        ops in prop::collection::vec(0usize..4, 1..6),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let values: Vec<f64> = (0..rows)
            .map(|i| if i % 97 == 0 { -0.0 } else { rng.random_range(-100.0..100.0) })
            .collect();
        let mut t = table_from(values);
        for (i, &op) in ops.iter().enumerate() {
            match op {
                0 => append_rows(&mut t, 20 + 700 * i, 0.1, &mut rng),
                1 => update_rows(&mut t, 0.01, 0.2, &mut rng),
                2 => delete_rows(&mut t, 0.3, &mut rng),
                _ => sort_and_truncate_half(&mut t, i % 2),
            }
            let scanned = t.domains();
            let zoned = t.zone_index().domains();
            prop_assert_eq!(zoned.len(), scanned.len());
            for (c, (z, s)) in zoned.iter().zip(&scanned).enumerate() {
                prop_assert_eq!(z, s, "column {} after op {}", c, op);
            }
        }
    }

    #[test]
    fn serde_roundtrips_preserve_rollups(
        values in prop::collection::vec(-1000i64..1000, 0..500),
        changed in 0u64..1000,
    ) {
        use serde::Deserialize;
        let values: Vec<f64> = values.into_iter().map(|v| v as f64).collect();
        let ts = SketchIndex::build(&[Column::new("v", ColumnType::Real, values)])
            .rollup(changed);
        let mut json = String::new();
        ts.serialize(&mut json);
        let mut p = serde::json::Parser::new(&json);
        let back = TableSketch::deserialize(&mut p).unwrap();
        p.end().unwrap();
        prop_assert_eq!(&back, &ts);
        prop_assert!(back.validate().is_ok());
    }
}

/// HLL relative error stays within bounds of the exact distinct count on
/// every synthetic dataset the reproduction generates. With `p = 10`
/// (1024 registers) the theoretical standard error is ~3.25%; we allow 12%
/// (≈3.7σ) per column, which is deterministic for the fixed seeds used.
#[test]
fn hll_error_bounds_across_dataset_kinds() {
    for kind in DatasetKind::all() {
        for seed in [7u64, 31] {
            let table = generate(kind, 20_000, seed);
            let rollup = table.table_sketch();
            for (c, col) in table.columns().iter().enumerate() {
                let exact = col.distinct_count() as f64;
                let est = rollup.distinct(c);
                let rel = (est - exact).abs() / exact.max(1.0);
                assert!(
                    rel < 0.12,
                    "{} seed {seed} col {c}: exact {exact} est {est:.1} rel {rel:.3}",
                    kind.name()
                );
            }
        }
    }
}

/// The drift signals are exactly zero when nothing mutated, and fire after
/// the paper's sort-and-truncate drift, on every dataset kind.
#[test]
fn sketch_drift_signals_across_dataset_kinds() {
    for kind in DatasetKind::all() {
        let mut table = generate(kind, 8_000, 11);
        let baseline = table.table_sketch();
        let d0 = table.table_sketch().drift_vs(&baseline);
        assert_eq!(d0.rows_changed, 0, "{}", kind.name());
        assert_eq!(d0.score(), 0.0, "{}", kind.name());
        sort_and_truncate_half(&mut table, 1);
        let d1 = table.table_sketch().drift_vs(&baseline);
        assert!(
            d1.changed_fraction > 0.4,
            "{}: {}",
            kind.name(),
            d1.changed_fraction
        );
        assert!(
            d1.max_distinct_shift > 0.2,
            "{}: {}",
            kind.name(),
            d1.max_distinct_shift
        );
    }
}
