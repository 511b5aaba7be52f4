//! Data-drift mutators and the change telemetry Warper consumes.
//!
//! Paper §2 defines *data drift* as "inserts, appends, deletes, or updates to
//! rows", and §3.1 says Warper identifies it by "counting the fraction of
//! rows that are new or have changed since the model was last trained" — the
//! kind of statistic every production DBMS already tracks. [`ChangeLog`]
//! provides exactly that counter; the free functions mutate a [`Table`]
//! while keeping the counter honest.
//!
//! §4.1.2's data-drift experiment ("we sort the dataset by one column and
//! truncate the table in half") is [`sort_and_truncate_half`].
//!
//! The mutators that need column domains read them off the zone maps
//! (`Table::zone_index`, which re-scans only the blocks the previous mutator
//! dirtied) rather than scanning every value with `Table::domains`; the two
//! agree under `==`, proptested after arbitrary mutator sequences.
//!
//! Every mutator records block-granular invalidation marks through the
//! `Table::index_mark_*` hooks, which fan out to **both** lazily-maintained
//! indexes: the zone maps ([`crate::zonemap`]) and the mergeable per-block
//! sketches ([`crate::sketch`]) that back rescan-free drift telemetry.

use rand::rngs::StdRng;
use rand::Rng;

use crate::table::Table;

/// A snapshot of a table's change counter, used to measure the fraction of
/// rows changed since the CE model was last trained.
#[derive(Debug, Clone, Copy)]
pub struct ChangeLog {
    baseline_changed: u64,
    baseline_rows: usize,
}

impl ChangeLog {
    /// Marks the current state of `table` as the baseline.
    pub fn mark(table: &Table) -> Self {
        Self {
            baseline_changed: table.rows_changed,
            baseline_rows: table.num_rows(),
        }
    }

    /// Fraction of rows changed (appended / updated / deleted) since the
    /// mark, relative to the baseline row count. Can exceed 1.0 when more
    /// rows changed than existed at the mark (e.g. repeated full updates).
    pub fn changed_fraction(&self, table: &Table) -> f64 {
        let changed = table.rows_changed.saturating_sub(self.baseline_changed);
        changed as f64 / self.baseline_rows.max(1) as f64
    }
}

/// Appends `extra` rows drawn from `source` (row indices sampled uniformly
/// with replacement, with per-column jitter `noise_frac` of the column's
/// domain width so appended rows are not exact duplicates).
pub fn append_rows(table: &mut Table, extra: usize, noise_frac: f64, rng: &mut StdRng) {
    let n = table.num_rows();
    if n == 0 || extra == 0 {
        return;
    }
    let domains = table.zone_index().domains();
    let picks: Vec<usize> = (0..extra).map(|_| rng.random_range(0..n)).collect();
    for (c, col) in table.columns_mut().iter_mut().enumerate() {
        let (lo, hi) = domains[c];
        let width = (hi - lo).max(1e-12);
        let is_cat = col.ty() == crate::column::ColumnType::Categorical;
        let values = col.values_mut();
        for &p in &picks {
            let base = values[p];
            let v = if is_cat || noise_frac == 0.0 {
                base
            } else {
                (base + rng.random_range(-1.0..1.0) * noise_frac * width).clamp(lo, hi)
            };
            values.push(v);
        }
    }
    table.rows_changed += extra as u64;
    // Appends only extend the tail: the last (possibly partial) old block
    // and the new blocks are dirtied; everything before is untouched.
    table.index_mark_from_row(n);
}

/// Updates a `frac` fraction of rows in place by re-centering each selected
/// row's numeric values by `shift_frac` of the column domain (categoricals
/// are re-drawn uniformly). This is the paper's "X% of the rows are updated"
/// drift.
pub fn update_rows(table: &mut Table, frac: f64, shift_frac: f64, rng: &mut StdRng) {
    let n = table.num_rows();
    let k = ((n as f64) * frac.clamp(0.0, 1.0)).round() as usize;
    if k == 0 {
        return;
    }
    let domains = table.zone_index().domains();
    let rows: Vec<usize> = (0..k).map(|_| rng.random_range(0..n)).collect();
    for (c, col) in table.columns_mut().iter_mut().enumerate() {
        let (lo, hi) = domains[c];
        let width = (hi - lo).max(1e-12);
        let is_cat = col.ty() == crate::column::ColumnType::Categorical;
        let values = col.values_mut();
        for &r in &rows {
            if is_cat {
                values[r] = lo + (rng.random_range(0.0..1.0) * width).floor();
            } else {
                values[r] = (values[r] + shift_frac * width).clamp(lo, hi + shift_frac * width);
            }
        }
    }
    table.rows_changed += k as u64;
    // In-place updates dirty only the blocks that contain touched rows.
    table.index_mark_rows(&rows);
}

/// Deletes a uniformly random `frac` fraction of rows.
pub fn delete_rows(table: &mut Table, frac: f64, rng: &mut StdRng) {
    let n = table.num_rows();
    let k = ((n as f64) * frac.clamp(0.0, 1.0)).round() as usize;
    if k == 0 || n == 0 {
        return;
    }
    // Keep-mask approach: mark k distinct victims.
    let mut keep = vec![true; n];
    let mut removed = 0;
    while removed < k.min(n) {
        let r = rng.random_range(0..n);
        if keep[r] {
            keep[r] = false;
            removed += 1;
        }
    }
    for col in table.columns_mut() {
        let values = col.values_mut();
        let mut w = 0;
        for r in 0..n {
            if keep[r] {
                values[w] = values[r];
                w += 1;
            }
        }
        values.truncate(w);
    }
    table.rows_changed += removed as u64;
    // Compaction shifts every row from the first victim onward; blocks
    // before it are byte-identical and keep their zone maps.
    if let Some(first) = keep.iter().position(|&k| !k) {
        table.index_mark_from_row(first);
    }
}

/// The paper's §4.1.2 data-drift: sorts by column `col` and truncates the
/// table to its lower half, changing the data distribution sharply.
pub fn sort_and_truncate_half(table: &mut Table, col: usize) {
    let n = table.num_rows();
    if n < 2 {
        return;
    }
    let mut order: Vec<u32> = (0..n as u32).collect();
    {
        let key = table.column(col).values();
        order.sort_by(|&a, &b| {
            key[a as usize]
                .partial_cmp(&key[b as usize])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
    }
    let half = n / 2;
    for c in table.columns_mut() {
        let old = c.values().to_vec();
        let values = c.values_mut();
        values.clear();
        values.extend(order[..half].iter().map(|&i| old[i as usize]));
    }
    table.rows_changed += (n - half) as u64;
    // Every row moved: full zone-map rebuild (after which the sort column
    // reads back as sorted, arming the annotator's binary-search path).
    table.index_mark_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{Column, ColumnType};
    use rand::SeedableRng;

    fn table(n: usize) -> Table {
        let a: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..n).map(|i| (i % 4) as f64).collect();
        Table::new(
            "t",
            vec![
                Column::new("a", ColumnType::Real, a),
                Column::new("b", ColumnType::Categorical, b),
            ],
        )
    }

    #[test]
    fn append_grows_and_counts() {
        let mut t = table(100);
        let log = ChangeLog::mark(&t);
        let mut rng = StdRng::seed_from_u64(1);
        append_rows(&mut t, 20, 0.05, &mut rng);
        assert_eq!(t.num_rows(), 120);
        assert!((log.changed_fraction(&t) - 0.2).abs() < 1e-12);
        // Appended values stay in the original domain.
        let (lo, hi) = t.column(0).domain().unwrap();
        assert!(lo >= 0.0 && hi <= 99.0);
    }

    #[test]
    fn update_changes_values() {
        let mut t = table(100);
        let before = t.column(0).values().to_vec();
        let log = ChangeLog::mark(&t);
        let mut rng = StdRng::seed_from_u64(2);
        update_rows(&mut t, 0.5, 0.3, &mut rng);
        assert_eq!(t.num_rows(), 100);
        assert!(log.changed_fraction(&t) >= 0.49);
        let after = t.column(0).values();
        let changed = before.iter().zip(after).filter(|(a, b)| a != b).count();
        assert!(changed > 20, "changed {changed}");
    }

    #[test]
    fn delete_shrinks() {
        let mut t = table(100);
        let log = ChangeLog::mark(&t);
        let mut rng = StdRng::seed_from_u64(3);
        delete_rows(&mut t, 0.25, &mut rng);
        assert_eq!(t.num_rows(), 75);
        assert!((log.changed_fraction(&t) - 0.25).abs() < 1e-12);
        // Column invariant holds.
        assert_eq!(t.column(1).len(), 75);
    }

    #[test]
    fn sort_truncate_keeps_lower_half() {
        let mut t = table(100);
        sort_and_truncate_half(&mut t, 0);
        assert_eq!(t.num_rows(), 50);
        let (lo, hi) = t.column(0).domain().unwrap();
        assert_eq!(lo, 0.0);
        assert_eq!(hi, 49.0);
    }

    #[test]
    fn noop_on_empty() {
        let mut t = table(0);
        let mut rng = StdRng::seed_from_u64(4);
        append_rows(&mut t, 5, 0.1, &mut rng);
        delete_rows(&mut t, 0.5, &mut rng);
        update_rows(&mut t, 0.5, 0.1, &mut rng);
        sort_and_truncate_half(&mut t, 0);
        assert_eq!(t.num_rows(), 0);
    }

    #[test]
    fn changed_fraction_accumulates() {
        let mut t = table(100);
        let log = ChangeLog::mark(&t);
        let mut rng = StdRng::seed_from_u64(5);
        update_rows(&mut t, 1.0, 0.1, &mut rng);
        update_rows(&mut t, 1.0, 0.1, &mut rng);
        assert!(log.changed_fraction(&t) >= 1.9);
    }
}
