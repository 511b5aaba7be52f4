//! The encoder `E` (paper §3.2, Table 3).
//!
//! `E` maps a featurized predicate `q` (plus its ground-truth label, when
//! available and up to date — see the paper's implementation note on
//! `embed()`) to a compact embedding `z`. It decouples the internal modules
//! `G`, `D`, `P` from whatever featurization the black-box CE model uses.
//!
//! Architecture (Table 3): three FC-128 + Leaky-ReLU layers and an FC-`|z|`
//! output.

use rand::rngs::StdRng;
use warper_linalg::Matrix;
use warper_nn::{Activation, Mlp};

use crate::pool::QueryPool;

/// Normalization applied to the ground-truth side input: `ln(1+gt)` rarely
/// exceeds ~20 for the table sizes here.
const GT_SCALE: f64 = 20.0;

/// The encoder `E`.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Encoder {
    net: Mlp,
    feature_dim: usize,
}

impl warper_linalg::bulk::Bulk for Encoder {
    fn runs(&mut self, v: &mut dyn warper_linalg::bulk::Runs) {
        self.net.runs(v);
    }
}

impl Encoder {
    /// Creates an encoder for `feature_dim`-dimensional predicates with the
    /// given hidden width and embedding size.
    ///
    /// The network input is `[q, gt_norm, has_gt]` — the two extra slots
    /// carry the label signal the paper feeds to `embed()` and a validity
    /// flag so missing labels are distinguishable from zero.
    pub fn new(feature_dim: usize, hidden: usize, embed_dim: usize, rng: &mut StdRng) -> Self {
        let net = Mlp::new(
            &[feature_dim + 2, hidden, hidden, hidden, embed_dim],
            Activation::LeakyRelu(0.01),
            Activation::Identity,
            &mut *rng,
        );
        Self { net, feature_dim }
    }

    /// Predicate feature dimension `m`.
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// Embedding size `|z|`.
    pub fn embed_dim(&self) -> usize {
        self.net.out_dim()
    }

    /// Access to the underlying network (the trainers need it).
    pub fn net(&self) -> &Mlp {
        &self.net
    }

    /// Mutable access for the trainers.
    pub fn net_mut(&mut self) -> &mut Mlp {
        &mut self.net
    }

    /// Builds the network input row for a predicate and optional label.
    pub fn input_row(&self, features: &[f64], gt: Option<f64>) -> Vec<f64> {
        debug_assert_eq!(features.len(), self.feature_dim);
        let mut row = Vec::with_capacity(self.feature_dim + 2);
        row.extend_from_slice(features);
        match gt {
            Some(g) => {
                row.push((1.0 + g.max(0.0)).ln() / GT_SCALE);
                row.push(1.0);
            }
            None => {
                row.push(0.0);
                row.push(0.0);
            }
        }
        row
    }

    /// Embeds one predicate.
    pub fn embed(&self, features: &[f64], gt: Option<f64>) -> Vec<f64> {
        self.net.forward_one(&self.input_row(features, gt))
    }

    /// Embeds a batch of `(features, gt)` rows.
    pub fn embed_batch(&self, rows: &[(Vec<f64>, Option<f64>)]) -> Matrix {
        let inputs: Vec<Vec<f64>> = rows.iter().map(|(f, gt)| self.input_row(f, *gt)).collect();
        self.net.forward(&Matrix::from_rows(&inputs))
    }

    /// Refreshes the `z` field of every pool record (stale labels are
    /// treated as absent, per the paper's "available and up-to-date" rule).
    ///
    /// All records are embedded in one batched forward pass, so the pool
    /// refresh costs a handful of large GEMMs instead of one small network
    /// evaluation per record.
    pub fn refresh_pool(&self, pool: &mut QueryPool) {
        let rows: Vec<(Vec<f64>, Option<f64>)> = pool
            .records()
            .iter()
            .map(|r| (r.features.clone(), if r.gt_stale { None } else { r.gt }))
            .collect();
        if rows.is_empty() {
            return;
        }
        let z = self.embed_batch(&rows);
        for (i, r) in pool.records_mut().iter_mut().enumerate() {
            r.z = Some(z.row(i).to_vec());
        }
    }

    /// Per-dimension standard deviation of the given embeddings — the σ for
    /// the generator's input noise ε ~ N(0, σ²) (§3.2).
    pub fn embedding_std(embeddings: &[Vec<f64>]) -> Vec<f64> {
        if embeddings.is_empty() {
            return Vec::new();
        }
        let d = embeddings[0].len();
        let n = embeddings.len() as f64;
        let mut mean = vec![0.0; d];
        for z in embeddings {
            for (m, v) in mean.iter_mut().zip(z) {
                *m += v / n;
            }
        }
        let mut var = vec![0.0; d];
        for z in embeddings {
            for ((s, v), m) in var.iter_mut().zip(z).zip(&mean) {
                *s += (v - m) * (v - m) / n;
            }
        }
        var.into_iter().map(f64::sqrt).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{QueryPool, Source};
    use rand::SeedableRng;

    fn encoder() -> Encoder {
        let mut rng = StdRng::seed_from_u64(1);
        Encoder::new(4, 32, 8, &mut rng)
    }

    #[test]
    fn dimensions() {
        let e = encoder();
        assert_eq!(e.feature_dim(), 4);
        assert_eq!(e.embed_dim(), 8);
        let z = e.embed(&[0.1, 0.2, 0.3, 0.4], Some(100.0));
        assert_eq!(z.len(), 8);
        assert!(z.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn label_changes_embedding() {
        let e = encoder();
        let q = [0.1, 0.2, 0.3, 0.4];
        let with = e.embed(&q, Some(1000.0));
        let without = e.embed(&q, None);
        assert_ne!(with, without);
    }

    #[test]
    fn refresh_pool_fills_z_and_skips_stale_labels() {
        let e = encoder();
        let mut pool = QueryPool::from_training_set(&[(vec![0.1; 4], 10.0)]);
        pool.append_new(&[(vec![0.2; 4], None)]);
        e.refresh_pool(&mut pool);
        assert!(pool.records().iter().all(|r| r.z.is_some()));

        // A stale label embeds the same as no label.
        let mut p2 = QueryPool::from_training_set(&[(vec![0.1; 4], 10.0)]);
        p2.mark_all_stale();
        e.refresh_pool(&mut p2);
        let z_stale = p2.records()[0].z.clone().unwrap();
        assert_eq!(z_stale, e.embed(&[0.1; 4], None));
    }

    #[test]
    fn embedding_std_known() {
        let zs = vec![vec![0.0, 10.0], vec![2.0, 10.0]];
        let s = Encoder::embedding_std(&zs);
        assert!((s[0] - 1.0).abs() < 1e-12);
        assert_eq!(s[1], 0.0);
        assert!(Encoder::embedding_std(&[]).is_empty());
    }

    #[test]
    fn batch_matches_single() {
        let e = encoder();
        let rows = vec![
            (vec![0.1, 0.2, 0.3, 0.4], Some(5.0)),
            (vec![0.5, 0.6, 0.7, 0.8], None),
        ];
        let batch = e.embed_batch(&rows);
        for (i, (f, gt)) in rows.iter().enumerate() {
            assert_eq!(batch.row(i), &e.embed(f, *gt)[..]);
        }
        let _ = Source::Gen; // silence unused import in some cfgs
    }
}
