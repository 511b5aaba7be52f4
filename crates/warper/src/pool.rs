//! The query pool (paper §3.2).
//!
//! "The query pool maintains tuples of `(q, gt, z, l, l', s')` wherein `q`
//! is a predicate with ground truth cardinality `gt` and `l` denotes the
//! source of the predicate — a prior training workload (`l = train`), the
//! new workload (`l = new`) or synthesized (`l = gen`)." The other fields
//! are filled in by the Warper components: the encoder writes `z`, the
//! discriminator writes the predicted source `l'` and its confidence `s'`,
//! and the annotator writes `gt`.

use warper_linalg::bulk::{Bulk, Runs};

/// The source label `l` of a pool record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Source {
    /// From the original training workload `I_train`.
    Train,
    /// Newly arrived from the live workload.
    New,
    /// Synthesized by the generator.
    Gen,
}

impl Source {
    /// Class index used by the three-class discriminator (§3.3).
    pub fn class_index(&self) -> usize {
        match self {
            Source::Gen => 0,
            Source::New => 1,
            Source::Train => 2,
        }
    }

    /// Inverse of [`Source::class_index`].
    pub fn from_class_index(i: usize) -> Source {
        match i {
            0 => Source::Gen,
            1 => Source::New,
            _ => Source::Train,
        }
    }
}

/// One pool record.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct PoolRecord {
    /// The featurized predicate `q` (model-input features).
    pub features: Vec<f64>,
    /// Ground-truth cardinality; `None` when not (yet) annotated — the
    /// paper writes this as `gt = -1`.
    pub gt: Option<f64>,
    /// Encoder embedding `z`, refreshed each invocation.
    pub z: Option<Vec<f64>>,
    /// Source label `l`.
    pub source: Source,
    /// Discriminator's predicted source `l'`.
    pub predicted: Option<Source>,
    /// Discriminator confidence `s'` — here, the softmax probability that
    /// the record belongs to the *new* workload, which is what the c2
    /// picker weights by.
    pub score: Option<f64>,
    /// Entropy of the discriminator's class distribution; used only by the
    /// entropy-picker ablation of §4.3.
    pub entropy: Option<f64>,
    /// True when `gt` was computed before the latest data drift and is
    /// therefore stale (drift c1 marks all labels outdated).
    pub gt_stale: bool,
}

/// Bytes of one record's header in the pool's byte run: a flags byte (the
/// source's class index in the low two bits, then the bits below), the
/// predicted source (0 = none, else class index + 1), and the lengths of
/// `features` and `z` as `u32` LE.
const HEAD: usize = 10;
const HAS_GT: u8 = 1 << 2;
const HAS_Z: u8 = 1 << 3;
const HAS_SCORE: u8 = 1 << 4;
const HAS_ENTROPY: u8 = 1 << 5;
const GT_STALE: u8 = 1 << 6;

/// The pool leaves the JSON skeleton whole — thousands of records at eight
/// keys each are most of a small model's image — as two runs: a [`HEAD`]-byte
/// header per record, and per record its `features`, `z`, `gt`, `score` and
/// `entropy` (those that are present) back to back.
impl Bulk for QueryPool {
    fn runs(&mut self, v: &mut dyn Runs) {
        // Written, the columns come back drained and the pool is left empty;
        // read, they come back filled and the records are rebuilt from them.
        let (mut heads, mut values) = self.drain_columns();
        v.u8s(&mut heads);
        v.f64s(&mut values, None);
        match Self::records_from_columns(&heads, &values) {
            Some(records) => self.records = records,
            None => v.reject("pool columns do not describe a pool"),
        }
    }
}

impl QueryPool {
    fn drain_columns(&mut self) -> (Vec<u8>, Vec<f64>) {
        let mut heads = Vec::with_capacity(self.records.len() * HEAD);
        let mut values = Vec::new();
        for r in self.records.drain(..) {
            let z = r.z.as_deref().unwrap_or_default();
            let mut flags = r.source.class_index() as u8;
            for (present, bit) in [
                (r.gt.is_some(), HAS_GT),
                (r.z.is_some(), HAS_Z),
                (r.score.is_some(), HAS_SCORE),
                (r.entropy.is_some(), HAS_ENTROPY),
                (r.gt_stale, GT_STALE),
            ] {
                flags |= if present { bit } else { 0 };
            }
            heads.push(flags);
            heads.push(r.predicted.map_or(0, |s| s.class_index() as u8 + 1));
            // A run cannot hold 4 Gi elements: a saturated length fails the
            // read instead of wrapping into a different pool.
            for len in [r.features.len(), z.len()] {
                heads.extend_from_slice(&u32::try_from(len).unwrap_or(u32::MAX).to_le_bytes());
            }
            values.extend_from_slice(&r.features);
            values.extend_from_slice(z);
            values.extend([r.gt, r.score, r.entropy].into_iter().flatten());
        }
        (heads, values)
    }

    /// The inverse of [`Self::drain_columns`]; `None` when the columns are
    /// not ones it could have produced (outside bytes). Allocates no more
    /// than the columns hold.
    fn records_from_columns(heads: &[u8], values: &[f64]) -> Option<Vec<PoolRecord>> {
        let source = |class: u8| (class < 3).then(|| Source::from_class_index(class.into()));
        let mut rest = values;
        let mut records = Vec::with_capacity(heads.len() / HEAD);
        for h in heads.chunks(HEAD) {
            let &[flags, predicted, f0, f1, f2, f3, z0, z1, z2, z3] = h else {
                return None;
            };
            let features = rest
                .split_off(..u32::from_le_bytes([f0, f1, f2, f3]) as usize)?
                .to_vec();
            let z = rest.split_off(..u32::from_le_bytes([z0, z1, z2, z3]) as usize)?;
            let mut one = |present: u8| match flags & present {
                0 => Some(None),
                _ => rest.split_off_first().map(|v| Some(*v)),
            };
            records.push(PoolRecord {
                features,
                z: (flags & HAS_Z != 0).then(|| z.to_vec()),
                gt: one(HAS_GT)?,
                score: one(HAS_SCORE)?,
                entropy: one(HAS_ENTROPY)?,
                source: source(flags & 0b11)?,
                predicted: match predicted {
                    0 => None,
                    class => Some(source(class - 1)?),
                },
                gt_stale: flags & GT_STALE != 0,
            });
        }
        rest.is_empty().then_some(records)
    }
}

impl PoolRecord {
    /// A fresh record with only `q`, `gt` and `l` set.
    pub fn new(features: Vec<f64>, gt: Option<f64>, source: Source) -> Self {
        Self {
            features,
            gt,
            z: None,
            source,
            predicted: None,
            score: None,
            entropy: None,
            gt_stale: false,
        }
    }

    /// True if the record has a usable (present and not stale) label.
    pub fn labeled(&self) -> bool {
        self.gt.is_some() && !self.gt_stale
    }
}

/// The in-memory query pool.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct QueryPool {
    records: Vec<PoolRecord>,
}

impl QueryPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Initializes the pool from the original training workload: "for each
    /// `(q, gt)` tuple in `I_train`, Warper creates a record ... with
    /// `l = train` and empty values for `z, l', s'`" (§3.2).
    pub fn from_training_set(examples: &[(Vec<f64>, f64)]) -> Self {
        let records = examples
            .iter()
            .map(|(f, gt)| PoolRecord::new(f.clone(), Some(*gt), Source::Train))
            .collect();
        Self { records }
    }

    /// Appends a record.
    pub fn push(&mut self, record: PoolRecord) {
        self.records.push(record);
    }

    /// Appends newly arrived queries (with labels when available).
    pub fn append_new(&mut self, arrived: &[(Vec<f64>, Option<f64>)]) {
        for (f, gt) in arrived {
            self.push(PoolRecord::new(f.clone(), *gt, Source::New));
        }
    }

    /// Appends generated queries (always unlabeled, `gt = -1` in the paper).
    pub fn append_gen(&mut self, features: Vec<Vec<f64>>) {
        for f in features {
            self.push(PoolRecord::new(f, None, Source::Gen));
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the pool holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records.
    pub fn records(&self) -> &[PoolRecord] {
        &self.records
    }

    /// Mutable records (the components update `z`, `l'`, `s'`, `gt`).
    pub fn records_mut(&mut self) -> &mut [PoolRecord] {
        &mut self.records
    }

    /// Record indices with the given source.
    pub fn indices_of(&self, source: Source) -> Vec<usize> {
        (0..self.records.len())
            .filter(|&i| self.records[i].source == source)
            .collect()
    }

    /// Count of records with the given source.
    pub fn count_of(&self, source: Source) -> usize {
        self.records.iter().filter(|r| r.source == source).count()
    }

    /// Count of records with usable labels, optionally restricted to one
    /// source.
    pub fn labeled_count(&self, source: Option<Source>) -> usize {
        self.records
            .iter()
            .filter(|r| r.labeled() && source.is_none_or(|s| r.source == s))
            .count()
    }

    /// Marks every label stale — a data drift invalidates all ground truth
    /// including `I_train`'s (§3.1: "the cardinality labels for all queries
    /// ... may be outdated").
    pub fn mark_all_stale(&mut self) {
        for r in &mut self.records {
            if r.gt.is_some() {
                r.gt_stale = true;
            }
        }
    }

    /// Labeled `(features, card)` pairs for model updates, optionally
    /// restricted to the given sources.
    pub fn labeled_examples(&self, sources: &[Source]) -> Vec<(Vec<f64>, f64)> {
        self.records
            .iter()
            .filter(|r| r.labeled() && sources.contains(&r.source))
            .filter_map(|r| r.gt.map(|g| (r.features.clone(), g)))
            .collect()
    }

    /// Drops generated records (used between periods so synthetic queries
    /// from an old drift do not pollute the next one).
    pub fn clear_generated(&mut self) {
        self.records.retain(|r| r.source != Source::Gen);
    }

    /// Re-labels all `New` records as `Train` — after a drift has been fully
    /// adapted to, the "new" workload becomes the status quo.
    pub fn promote_new_to_train(&mut self) {
        for r in &mut self.records {
            if r.source == Source::New {
                r.source = Source::Train;
            }
        }
    }

    /// Eviction priority class; lower classes are evicted first. Synthetic
    /// records are cheapest to lose (the generator can remake them), then
    /// unlabeled and stale-labeled records (little or no annotation cost
    /// sunk), and fresh ground-truth labels — the pool's expensive asset —
    /// go last. Within a class, older records (lower index) are dropped
    /// before newer ones.
    fn evict_class(r: &PoolRecord) -> u8 {
        match (r.source, r.gt.is_some(), r.gt_stale) {
            (Source::Gen, false, _) => 0,
            (Source::Gen, true, _) => 1,
            (Source::New, false, _) => 2,
            (_, true, true) => 3,
            (Source::Train, false, _) => 4,
            (Source::New, true, false) => 5,
            (Source::Train, true, false) => 6,
        }
    }

    /// Evicts down to `cap` records, cheapest-to-rebuild first (see
    /// [`QueryPool::evict_class`]), oldest-first within a class. Returns the
    /// number of records dropped. This is the single bounded-memory policy:
    /// the controller applies it after every invocation and durable recovery
    /// applies it while replaying a WAL tail, so both paths agree.
    pub fn evict_to_cap(&mut self, cap: usize) -> usize {
        if self.records.len() <= cap {
            return 0;
        }
        let excess = self.records.len() - cap;
        let mut order: Vec<usize> = (0..self.records.len()).collect();
        order.sort_by_key(|&i| (Self::evict_class(&self.records[i]), i));
        let mut drop = vec![false; self.records.len()];
        for &i in order.iter().take(excess) {
            drop[i] = true;
        }
        let mut idx = 0;
        self.records.retain(|_| {
            let d = drop[idx];
            idx += 1;
            !d
        });
        excess
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example_pool() -> QueryPool {
        let mut p =
            QueryPool::from_training_set(&[(vec![0.1, 0.2], 100.0), (vec![0.3, 0.4], 200.0)]);
        p.append_new(&[(vec![0.5, 0.6], Some(50.0)), (vec![0.7, 0.8], None)]);
        p.append_gen(vec![vec![0.9, 1.0]]);
        p
    }

    #[test]
    fn columns_roundtrip_every_field_and_reject_what_they_could_not_have_written() {
        let mut pool = example_pool();
        {
            let recs = pool.records_mut();
            recs[0].z = Some(vec![-0.0, 1e-310, 3.5]);
            recs[0].predicted = Some(Source::Gen);
            recs[0].score = Some(0.25);
            recs[1].entropy = Some(1.5);
            recs[1].gt_stale = true;
            recs[2].z = Some(Vec::new());
            recs[3].predicted = Some(Source::Train);
            recs[4].features.clear();
        }
        let json = serde_json::to_string(&pool).unwrap();
        let (heads, values) = pool.clone().drain_columns();
        assert_eq!(heads.len(), pool.len() * HEAD);
        let rebuilt = QueryPool {
            records: QueryPool::records_from_columns(&heads, &values).expect("own columns"),
        };
        assert_eq!(serde_json::to_string(&rebuilt).unwrap(), json);
        let bits = |p: &QueryPool| -> Vec<u64> {
            let zs = p.records().iter().flat_map(|r| r.z.iter().flatten());
            zs.map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&rebuilt), bits(&pool), "-0.0 and subnormals survive");
        assert_eq!(
            QueryPool::records_from_columns(&[], &[]).map(|r| r.len()),
            Some(0)
        );

        // A torn header, missing or surplus values, a source that is none.
        let refuse = |h: &[u8], v: &[f64]| QueryPool::records_from_columns(h, v).is_none();
        assert!(refuse(&heads[..heads.len() - 1], &values));
        assert!(refuse(&heads, &values[..values.len() - 1]));
        assert!(refuse(&heads, &[values.as_slice(), &[0.0]].concat()));
        let mut bad = heads.clone();
        bad[0] |= 0b11;
        assert!(refuse(&bad, &values));
        bad = heads.clone();
        bad[1] = 4;
        assert!(refuse(&bad, &values));
        bad = heads.clone();
        bad[2..6].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(refuse(&bad, &values));
    }

    #[test]
    fn sources_and_counts() {
        let p = example_pool();
        assert_eq!(p.len(), 5);
        assert_eq!(p.count_of(Source::Train), 2);
        assert_eq!(p.count_of(Source::New), 2);
        assert_eq!(p.count_of(Source::Gen), 1);
        assert_eq!(p.labeled_count(None), 3);
        assert_eq!(p.labeled_count(Some(Source::New)), 1);
    }

    #[test]
    fn class_index_roundtrip() {
        for s in [Source::Train, Source::New, Source::Gen] {
            assert_eq!(Source::from_class_index(s.class_index()), s);
        }
    }

    #[test]
    fn stale_labels_excluded() {
        let mut p = example_pool();
        p.mark_all_stale();
        assert_eq!(p.labeled_count(None), 0);
        assert!(p.labeled_examples(&[Source::Train, Source::New]).is_empty());
        // Re-annotation clears staleness.
        let r = &mut p.records_mut()[0];
        r.gt = Some(120.0);
        r.gt_stale = false;
        assert_eq!(p.labeled_count(None), 1);
    }

    #[test]
    fn labeled_examples_filters_sources() {
        let p = example_pool();
        let train_only = p.labeled_examples(&[Source::Train]);
        assert_eq!(train_only.len(), 2);
        let new_only = p.labeled_examples(&[Source::New]);
        assert_eq!(new_only, vec![(vec![0.5, 0.6], 50.0)]);
    }

    #[test]
    fn clear_and_promote() {
        let mut p = example_pool();
        p.clear_generated();
        assert_eq!(p.count_of(Source::Gen), 0);
        p.promote_new_to_train();
        assert_eq!(p.count_of(Source::New), 0);
        assert_eq!(p.count_of(Source::Train), 4);
    }
}
