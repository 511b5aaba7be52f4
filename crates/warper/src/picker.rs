//! The picker `P` (paper §3.2) and its §4.3 ablation variants.
//!
//! Two distinct use-cases:
//! * **c2** (synthetic queries available): weighted sampling with
//!   replacement over generated records by the discriminator confidence
//!   `s'` — "synthetic queries that more closely resemble the newly
//!   arriving queries are picked".
//! * **c1/c3** (annotation-constrained): error-stratified sampling —
//!   cluster labeled records into `k` buckets by their CE error, assign
//!   unlabeled candidates to buckets via kNN in embedding space, then pick
//!   across buckets "so that predicates to annotate come from across a wide
//!   range of CE errors".
//!
//! Ablations (§4.3, Table 10): uniform-random picking and entropy-based
//! uncertainty sampling.

use rand::rngs::StdRng;
use rand::Rng;
use warper_ce::{estimate_all, CardinalityEstimator};
use warper_metrics::{q_error, PAPER_THETA};

use crate::config::WarperConfig;
use crate::pool::QueryPool;

/// Which picking policy to use (default is the paper's; the others are the
/// §4.3 ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PickerKind {
    /// The paper's picker: confidence-weighted (c2) / error-stratified
    /// (c1, c3).
    Warper,
    /// Uniform random picking ("P → rnd pick" in Table 10).
    Random,
    /// Entropy-based uncertainty sampling ("P → entropy" in Table 10).
    Entropy,
}

/// The picker `P`.
#[derive(Debug, Clone)]
pub struct Picker {
    kind: PickerKind,
    buckets: usize,
    knn: usize,
}

impl Picker {
    /// Builds a picker with the configuration's bucket/kNN parameters.
    pub fn new(kind: PickerKind, cfg: &WarperConfig) -> Self {
        Self {
            kind,
            buckets: cfg.picker_buckets.max(1),
            knn: cfg.picker_knn.max(1),
        }
    }

    /// The active policy.
    pub fn kind(&self) -> PickerKind {
        self.kind
    }

    /// c2 use-case: draws an `n`-element **multiset** (sampling with
    /// replacement, as the paper specifies) from `candidates` (pool indices,
    /// typically the generated records), weighted by the discriminator's
    /// `s'` confidence. Duplicates are intentional: the multiset becomes the
    /// model-update training set, so repetition acts as an importance
    /// weight; callers annotate each *distinct* index only once.
    pub fn pick_by_confidence(
        &self,
        pool: &QueryPool,
        candidates: &[usize],
        n: usize,
        rng: &mut StdRng,
    ) -> Vec<usize> {
        if candidates.is_empty() || n == 0 {
            return Vec::new();
        }
        let weights: Vec<f64> = match self.kind {
            PickerKind::Warper => candidates
                .iter()
                .map(|&i| pool.records()[i].score.unwrap_or(0.0).max(1e-6))
                .collect(),
            PickerKind::Random => vec![1.0; candidates.len()],
            PickerKind::Entropy => candidates
                .iter()
                .map(|&i| pool.records()[i].entropy.unwrap_or(0.0).max(1e-6))
                .collect(),
        };
        weighted_sample_multiset(candidates, &weights, n, rng)
    }

    /// Generic weighted multiset over explicit weights (used by the
    /// controller for the new-workload-proximity replay of training
    /// records). Ignores the picker's policy — weights are the policy.
    pub fn pick_weighted(
        &self,
        candidates: &[usize],
        weights: &[f64],
        n: usize,
        rng: &mut StdRng,
    ) -> Vec<usize> {
        if candidates.is_empty() || n == 0 {
            return Vec::new();
        }
        weighted_sample_multiset(candidates, weights, n, rng)
    }

    /// c1/c3 use-case: error-stratified `n`-element multiset from
    /// `candidates` (pool indices needing annotation). References with
    /// (possibly stale) labels build the error buckets; picks are drawn
    /// across buckets "with replacement to make a stratified sample" (§3.2).
    pub fn pick_stratified(
        &self,
        pool: &QueryPool,
        model: &dyn CardinalityEstimator,
        candidates: &[usize],
        n: usize,
        rng: &mut StdRng,
    ) -> Vec<usize> {
        if candidates.is_empty() || n == 0 {
            return Vec::new();
        }
        match self.kind {
            PickerKind::Random => {
                let weights = vec![1.0; candidates.len()];
                return weighted_sample_multiset(candidates, &weights, n, rng);
            }
            PickerKind::Entropy => {
                let weights: Vec<f64> = candidates
                    .iter()
                    .map(|&i| pool.records()[i].entropy.unwrap_or(0.0).max(1e-6))
                    .collect();
                return weighted_sample_multiset(candidates, &weights, n, rng);
            }
            PickerKind::Warper => {}
        }

        // 1. Build error buckets over labeled references.
        let references: Vec<usize> = (0..pool.len())
            .filter(|&i| pool.records()[i].gt.is_some())
            .collect();
        if references.is_empty() {
            let weights = vec![1.0; candidates.len()];
            return weighted_sample_multiset(candidates, &weights, n, rng);
        }
        // One batched pass over the references; `err_of[i]` is pool record
        // `i`'s q-error (unset for unlabeled records).
        let ests = estimate_all(
            model,
            references
                .iter()
                .map(|&i| pool.records()[i].features.as_slice()),
        );
        let mut err_of = vec![f64::NAN; pool.len()];
        let mut ref_errors: Vec<(usize, f64)> = Vec::with_capacity(references.len());
        for (&i, est) in references.iter().zip(ests) {
            if let Some(gt) = pool.records()[i].gt {
                err_of[i] = q_error(est, gt, PAPER_THETA);
                ref_errors.push((i, err_of[i]));
            }
        }
        ref_errors.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        let k = self.buckets.min(ref_errors.len());
        let bucket_of_ref: std::collections::HashMap<usize, usize> = ref_errors
            .iter()
            .enumerate()
            .map(|(rank, &(idx, _))| (idx, rank * k / ref_errors.len()))
            .collect();

        // 2. Assign each candidate to a bucket.
        let mut bucket_members: Vec<Vec<usize>> = vec![Vec::new(); k];
        for &c in candidates {
            let rec = &pool.records()[c];
            let bucket = if rec.gt.is_some() {
                // Candidate has a (stale) label, so it is itself a reference:
                // bucket by its own error from the pass above.
                rank_bucket(&ref_errors, err_of[c], k)
            } else if let Some(z) = &rec.z {
                // kNN over reference embeddings.
                knn_bucket(pool, &references, &bucket_of_ref, z, self.knn)
            } else {
                rng.random_range(0..k)
            };
            bucket_members[bucket.min(k - 1)].push(c);
        }

        // 3. Round-robin across buckets, sampling within each bucket with
        //    replacement; empty buckets are skipped.
        let nonempty: Vec<&Vec<usize>> = bucket_members.iter().filter(|m| !m.is_empty()).collect();
        if nonempty.is_empty() {
            return Vec::new();
        }
        let mut picked = Vec::with_capacity(n);
        for i in 0..n {
            let members = nonempty[i % nonempty.len()];
            picked.push(members[rng.random_range(0..members.len())]);
        }
        picked
    }
}

/// Weighted sampling with replacement: an `n`-element multiset.
fn weighted_sample_multiset(
    candidates: &[usize],
    weights: &[f64],
    n: usize,
    rng: &mut StdRng,
) -> Vec<usize> {
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return Vec::new();
    }
    let mut picked = Vec::with_capacity(n);
    for _ in 0..n {
        let mut u = rng.random_range(0.0..total);
        let mut chosen = candidates.len() - 1;
        for (i, w) in weights.iter().enumerate() {
            if u < *w {
                chosen = i;
                break;
            }
            u -= w;
        }
        picked.push(candidates[chosen]);
    }
    picked
}

/// Bucket index for an error value given the sorted reference errors.
fn rank_bucket(sorted_ref_errors: &[(usize, f64)], err: f64, k: usize) -> usize {
    let pos = sorted_ref_errors.partition_point(|&(_, e)| e < err);
    (pos * k / sorted_ref_errors.len().max(1)).min(k - 1)
}

/// Majority bucket among the `knn` nearest labeled references in z-space.
fn knn_bucket(
    pool: &QueryPool,
    references: &[usize],
    bucket_of_ref: &std::collections::HashMap<usize, usize>,
    z: &[f64],
    knn: usize,
) -> usize {
    let mut dists: Vec<(f64, usize)> = references
        .iter()
        .filter_map(|&r| {
            pool.records()[r].z.as_ref().map(|rz| {
                let d: f64 = rz.iter().zip(z).map(|(a, b)| (a - b) * (a - b)).sum();
                (d, r)
            })
        })
        .collect();
    if dists.is_empty() {
        return 0;
    }
    dists.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let mut votes = std::collections::HashMap::new();
    for &(_, r) in dists.iter().take(knn) {
        *votes.entry(bucket_of_ref[&r]).or_insert(0usize) += 1;
    }
    // Tie-break on the bucket id: `max_by_key` alone would resolve ties by
    // HashMap iteration order, which differs run to run.
    votes
        .into_iter()
        .max_by_key(|&(b, v)| (v, std::cmp::Reverse(b)))
        .map(|(b, _)| b)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{PoolRecord, Source};
    use rand::SeedableRng;
    use warper_ce::{LabeledExample, UpdateKind};

    /// A fake model whose estimate is always `self.0` — lets tests control
    /// q-errors exactly.
    struct ConstModel(f64);
    impl CardinalityEstimator for ConstModel {
        fn feature_dim(&self) -> usize {
            2
        }
        fn estimate(&self, _f: &[f64]) -> f64 {
            self.0
        }
        fn fit(&mut self, _e: &[LabeledExample]) {}
        fn update(&mut self, _e: &[LabeledExample]) {}
        fn update_kind(&self) -> UpdateKind {
            UpdateKind::FineTune
        }
        fn name(&self) -> &'static str {
            "const"
        }
    }

    fn pool_with_scores(scores: &[f64]) -> (QueryPool, Vec<usize>) {
        let mut pool = QueryPool::new();
        for (i, &s) in scores.iter().enumerate() {
            let mut r = PoolRecord::new(vec![i as f64, 0.0], None, Source::Gen);
            r.score = Some(s);
            r.entropy = Some(s); // reuse for the entropy variant
            pool.push(r);
        }
        let idx = (0..scores.len()).collect();
        (pool, idx)
    }

    #[test]
    fn confidence_weighting_prefers_high_scores() {
        let (pool, cands) = pool_with_scores(&[0.01, 0.01, 0.01, 0.97]);
        let picker = Picker::new(PickerKind::Warper, &WarperConfig::default());
        let mut hits = 0;
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let picked = picker.pick_by_confidence(&pool, &cands, 1, &mut rng);
            if picked == vec![3] {
                hits += 1;
            }
        }
        assert!(hits > 150, "high-score record picked only {hits}/200 times");
    }

    #[test]
    fn random_picker_is_uniformish() {
        let (pool, cands) = pool_with_scores(&[0.01, 0.01, 0.01, 0.97]);
        let picker = Picker::new(PickerKind::Random, &WarperConfig::default());
        let mut hits = [0usize; 4];
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..400 {
            let picked = picker.pick_by_confidence(&pool, &cands, 1, &mut rng);
            hits[picked[0]] += 1;
        }
        for &h in &hits {
            assert!(h > 50, "{hits:?}");
        }
    }

    #[test]
    fn picks_form_an_exact_size_multiset() {
        let (pool, cands) = pool_with_scores(&[0.5; 10]);
        let picker = Picker::new(PickerKind::Warper, &WarperConfig::default());
        let mut rng = StdRng::seed_from_u64(7);
        let picked = picker.pick_by_confidence(&pool, &cands, 5, &mut rng);
        assert_eq!(picked.len(), 5);
        // Sampling with replacement: asking for more than exist is fine and
        // produces duplicates (the paper's importance-weighting effect).
        let many = picker.pick_by_confidence(&pool, &cands, 100, &mut rng);
        assert_eq!(many.len(), 100);
        let distinct: std::collections::HashSet<_> = many.iter().collect();
        assert!(distinct.len() <= 10);
        assert!(many.iter().all(|i| cands.contains(i)));
    }

    #[test]
    fn stratified_picks_across_error_range() {
        // References: gt spread so the const model's error varies widely.
        let mut pool = QueryPool::new();
        for i in 0..50 {
            let gt = 10.0 * (i as f64 + 1.0); // errors from ~50x to ~1x
            let mut r = PoolRecord::new(vec![i as f64 / 50.0, 0.0], Some(gt), Source::Train);
            r.z = Some(vec![i as f64 / 50.0, 0.0]);
            pool.push(r);
        }
        // Candidates: unlabeled, embeddings near both extremes.
        let mut cands = Vec::new();
        for i in 0..20 {
            let z0 = if i < 10 { 0.02 } else { 0.98 };
            let mut r = PoolRecord::new(vec![z0, 0.0], None, Source::New);
            r.z = Some(vec![z0, 0.0]);
            pool.push(r);
            cands.push(50 + i);
        }
        let model = ConstModel(500.0);
        let picker = Picker::new(PickerKind::Warper, &WarperConfig::default());
        let mut rng = StdRng::seed_from_u64(8);
        let picked = picker.pick_stratified(&pool, &model, &cands, 10, &mut rng);
        assert!(!picked.is_empty());
        // Stratification should draw from both embedding clusters.
        let low = picked
            .iter()
            .filter(|&&i| pool.records()[i].z.as_ref().unwrap()[0] < 0.5)
            .count();
        let high = picked.len() - low;
        assert!(
            low > 0 && high > 0,
            "picked only one cluster: low={low} high={high}"
        );
    }

    #[test]
    fn pick_weighted_respects_weights() {
        let (_, cands) = pool_with_scores(&[0.0; 4]);
        let picker = Picker::new(PickerKind::Warper, &WarperConfig::default());
        let mut rng = StdRng::seed_from_u64(12);
        let weights = [0.0, 0.0, 1.0, 0.0];
        let picked = picker.pick_weighted(&cands, &weights, 20, &mut rng);
        assert_eq!(picked.len(), 20);
        assert!(picked.iter().all(|&i| i == 2));
        assert!(picker.pick_weighted(&[], &[], 5, &mut rng).is_empty());
    }

    #[test]
    fn empty_inputs_are_safe() {
        let (pool, _) = pool_with_scores(&[]);
        let picker = Picker::new(PickerKind::Warper, &WarperConfig::default());
        let model = ConstModel(1.0);
        let mut rng = StdRng::seed_from_u64(9);
        assert!(picker
            .pick_by_confidence(&pool, &[], 5, &mut rng)
            .is_empty());
        assert!(picker
            .pick_stratified(&pool, &model, &[], 5, &mut rng)
            .is_empty());
        let (pool2, cands2) = pool_with_scores(&[0.5]);
        assert!(picker
            .pick_by_confidence(&pool2, &cands2, 0, &mut rng)
            .is_empty());
    }
}
