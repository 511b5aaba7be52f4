//! LM [10] — "Selectivity Estimation for Range Predicates Using Lightweight
//! Models" — and its regressor variants.
//!
//! The input is the `{low₁..low_d, high₁..high_d}` featurization produced by
//! `warper_query::Featurizer`; the regressor is swappable, which is exactly
//! how the paper builds LM-mlp / LM-gbt / LM-ply / LM-rbf (§4.1, §4.1.2).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use warper_linalg::Matrix;
use warper_nn::{
    Activation, Adam, GbtParams, GradientBoostedTrees, Kernel, KernelRidge, KernelRidgeParams,
    LrSchedule, Mlp, Optimizer,
};

use crate::{from_target, to_target, CardinalityEstimator, LabeledExample, UpdateKind};

/// Training hyperparameters for [`LmMlp`].
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub struct LmMlpParams {
    /// Hidden-layer widths.
    pub hidden: [usize; 2],
    /// Epochs for initial `fit`.
    pub fit_epochs: usize,
    /// Epochs for each `update` (fine-tuning trains "a few more epochs").
    pub update_epochs: usize,
    /// Mini-batch size (the paper uses 32).
    pub batch: usize,
    /// Learning-rate schedule (paper: 1e-3, half-decay every 10 epochs).
    pub lr: LrSchedule,
}

impl Default for LmMlpParams {
    fn default() -> Self {
        Self {
            hidden: [64, 32],
            fit_epochs: 40,
            update_epochs: 4,
            batch: 32,
            lr: LrSchedule::paper_default(),
        }
    }
}

/// LM with an MLP regressor; updates by fine-tuning.
#[derive(Clone)]
pub struct LmMlp {
    net: Mlp,
    opt: Adam,
    params: LmMlpParams,
    rng: StdRng,
    feature_dim: usize,
    seed: u64,
}

impl LmMlp {
    /// Creates an untrained model for `feature_dim`-dimensional inputs.
    pub fn new(feature_dim: usize, params: LmMlpParams, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Mlp::new(
            &[feature_dim, params.hidden[0], params.hidden[1], 1],
            Activation::Relu,
            Activation::Identity,
            &mut rng,
        );
        Self {
            net,
            opt: Adam::new(),
            params,
            rng,
            feature_dim,
            seed,
        }
    }

    /// Rebuilds a model from persisted parts (see `crate::persist`).
    pub fn from_parts(net: Mlp, params: LmMlpParams, feature_dim: usize, seed: u64) -> Self {
        Self {
            net,
            opt: Adam::new(),
            params,
            rng: StdRng::seed_from_u64(seed),
            feature_dim,
            seed,
        }
    }

    /// The trained network.
    pub fn net(&self) -> &Mlp {
        &self.net
    }

    /// Snapshot of the hyperparameters.
    pub fn params_snapshot(&self) -> LmMlpParams {
        self.params
    }

    /// The input dimension.
    pub fn feature_dim_snapshot(&self) -> usize {
        self.feature_dim
    }

    /// The construction seed.
    pub fn seed_snapshot(&self) -> u64 {
        self.seed
    }

    /// Runs `epochs` of mini-batch training over `examples`.
    fn train(&mut self, examples: &[LabeledExample], epochs: usize) {
        if examples.is_empty() {
            return;
        }
        // Stage the full set once; each batch is a row gather from these,
        // and all layer intermediates live in one reused workspace.
        let x = Matrix::from_rows(
            &examples
                .iter()
                .map(|e| e.features.clone())
                .collect::<Vec<_>>(),
        );
        let y = Matrix::from_rows(
            &examples
                .iter()
                .map(|e| vec![to_target(e.card)])
                .collect::<Vec<_>>(),
        );
        let mut ws = warper_nn::Workspace::new();
        let mut idx: Vec<usize> = (0..examples.len()).collect();
        for epoch in 0..epochs {
            let lr = self.params.lr.lr(epoch);
            idx.shuffle(&mut self.rng);
            self.net
                .train_epoch(&x, &y, &idx, self.params.batch, &mut self.opt, lr, &mut ws);
        }
    }
}

impl CardinalityEstimator for LmMlp {
    crate::clone_snapshot_impl!();

    fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    fn estimate(&self, features: &[f64]) -> f64 {
        from_target(self.net.forward_one(features)[0])
    }

    fn estimate_many(&self, queries: &[&[f64]]) -> Vec<f64> {
        // One batched forward pass: a single GEMM per layer instead of a
        // matrix-vector product per query.
        if queries.is_empty() {
            return Vec::new();
        }
        let mut data = Vec::with_capacity(queries.len() * self.feature_dim);
        for q in queries {
            data.extend_from_slice(q);
        }
        let x = Matrix::from_vec(queries.len(), self.feature_dim, data);
        let out = self.net.forward(&x);
        (0..queries.len())
            .map(|i| from_target(out.get(i, 0)))
            .collect()
    }

    fn fit(&mut self, examples: &[LabeledExample]) {
        self.opt.reset();
        self.train(examples, self.params.fit_epochs);
    }

    fn update(&mut self, examples: &[LabeledExample]) {
        self.train(examples, self.params.update_epochs);
    }

    fn update_kind(&self) -> UpdateKind {
        UpdateKind::FineTune
    }

    fn name(&self) -> &'static str {
        "LM-mlp"
    }
}

/// LM with a gradient-boosted-tree regressor; re-trains on update.
#[derive(Clone)]
pub struct LmGbt {
    model: Option<GradientBoostedTrees>,
    params: GbtParams,
    feature_dim: usize,
    /// Retraining needs the full corpus; Warper's pool supplies it via
    /// `update`, so the model itself only keeps the latest fit inputs.
    mean_fallback: f64,
}

impl LmGbt {
    /// Creates an untrained model. The paper's LM-gbt uses lr = 1e-2.
    pub fn new(feature_dim: usize, params: GbtParams) -> Self {
        Self {
            model: None,
            params,
            feature_dim,
            mean_fallback: 0.0,
        }
    }

    fn refit(&mut self, examples: &[LabeledExample]) {
        if examples.is_empty() {
            return;
        }
        let x: Vec<Vec<f64>> = examples.iter().map(|e| e.features.clone()).collect();
        let y: Vec<f64> = examples.iter().map(|e| to_target(e.card)).collect();
        self.mean_fallback = y.iter().sum::<f64>() / y.len() as f64;
        self.model = Some(GradientBoostedTrees::fit(&x, &y, &self.params));
    }

    /// Decomposes into persisted parts.
    pub fn parts(&self) -> (Option<GradientBoostedTrees>, GbtParams, usize, f64) {
        (
            self.model.clone(),
            self.params,
            self.feature_dim,
            self.mean_fallback,
        )
    }

    /// Rebuilds from persisted parts.
    pub fn from_parts(
        model: Option<GradientBoostedTrees>,
        params: GbtParams,
        feature_dim: usize,
        mean_fallback: f64,
    ) -> Self {
        Self {
            model,
            params,
            feature_dim,
            mean_fallback,
        }
    }
}

impl CardinalityEstimator for LmGbt {
    crate::clone_snapshot_impl!();

    fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    fn estimate(&self, features: &[f64]) -> f64 {
        match &self.model {
            Some(m) => from_target(m.predict_one(features)),
            None => from_target(self.mean_fallback),
        }
    }

    fn fit(&mut self, examples: &[LabeledExample]) {
        self.refit(examples);
    }

    fn update(&mut self, examples: &[LabeledExample]) {
        self.refit(examples);
    }

    fn update_kind(&self) -> UpdateKind {
        UpdateKind::Retrain
    }

    fn name(&self) -> &'static str {
        "LM-gbt"
    }
}

/// Which kernel an [`LmKrr`] uses — the paper's two SVM variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KrrVariant {
    /// Degree-5 polynomial kernel (the paper's LM-ply).
    Poly,
    /// RBF kernel (the paper's LM-rbf).
    Rbf,
}

/// LM with a kernel ridge regressor (SVM substitute); re-trains on update.
#[derive(Clone)]
pub struct LmKrr {
    variant: KrrVariant,
    model: Option<KernelRidge>,
    params: KernelRidgeParams,
    feature_dim: usize,
    rng: StdRng,
    seed: u64,
    mean_fallback: f64,
}

impl LmKrr {
    /// Creates an untrained model.
    pub fn new(feature_dim: usize, variant: KrrVariant, seed: u64) -> Self {
        Self {
            variant,
            model: None,
            params: KernelRidgeParams::default(),
            feature_dim,
            rng: StdRng::seed_from_u64(seed),
            seed,
            mean_fallback: 0.0,
        }
    }

    /// Decomposes into persisted parts.
    pub fn parts(&self) -> (Option<KernelRidge>, KrrVariant, usize, u64, f64) {
        (
            self.model.clone(),
            self.variant,
            self.feature_dim,
            self.seed,
            self.mean_fallback,
        )
    }

    /// Rebuilds from persisted parts.
    pub fn from_parts(
        model: Option<KernelRidge>,
        variant: KrrVariant,
        feature_dim: usize,
        seed: u64,
        mean_fallback: f64,
    ) -> Self {
        Self {
            variant,
            model,
            params: KernelRidgeParams::default(),
            feature_dim,
            rng: StdRng::seed_from_u64(seed),
            seed,
            mean_fallback,
        }
    }

    fn kernel(&self) -> Kernel {
        match self.variant {
            KrrVariant::Poly => Kernel::paper_poly(self.feature_dim),
            KrrVariant::Rbf => Kernel::paper_rbf(self.feature_dim),
        }
    }

    fn refit(&mut self, examples: &[LabeledExample]) {
        if examples.is_empty() {
            return;
        }
        let x: Vec<Vec<f64>> = examples.iter().map(|e| e.features.clone()).collect();
        let y: Vec<f64> = examples.iter().map(|e| to_target(e.card)).collect();
        self.mean_fallback = y.iter().sum::<f64>() / y.len() as f64;
        self.model = KernelRidge::fit(&x, &y, self.kernel(), &self.params, &mut self.rng);
    }
}

impl CardinalityEstimator for LmKrr {
    crate::clone_snapshot_impl!();

    fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    fn estimate(&self, features: &[f64]) -> f64 {
        match &self.model {
            Some(m) => from_target(m.predict_one(features)),
            None => from_target(self.mean_fallback),
        }
    }

    fn fit(&mut self, examples: &[LabeledExample]) {
        self.refit(examples);
    }

    fn update(&mut self, examples: &[LabeledExample]) {
        self.refit(examples);
    }

    fn update_kind(&self) -> UpdateKind {
        UpdateKind::Retrain
    }

    fn name(&self) -> &'static str {
        match self.variant {
            KrrVariant::Poly => "LM-ply",
            KrrVariant::Rbf => "LM-rbf",
        }
    }
}

/// LM with an ordinary linear regressor — the paper's negative result:
/// "a linear-kernel SVM did not work as a CE model (has a high error) ...
/// this is as expected since predicates are non-linear" (§4.1.2).
///
/// Included so the benches can reproduce that finding. Fitting solves the
/// ridge-regularized normal equations `(XᵀX + λI)β = Xᵀy` directly.
#[derive(Clone)]
pub struct LmLinear {
    beta: Option<Vec<f64>>,
    intercept: f64,
    feature_dim: usize,
    lambda: f64,
}

impl LmLinear {
    /// Creates an untrained linear model.
    pub fn new(feature_dim: usize) -> Self {
        Self {
            beta: None,
            intercept: 0.0,
            feature_dim,
            lambda: 1e-3,
        }
    }

    fn refit(&mut self, examples: &[LabeledExample]) {
        if examples.is_empty() {
            return;
        }
        let d = self.feature_dim;
        let n = examples.len() as f64;
        let y_mean = examples.iter().map(|e| to_target(e.card)).sum::<f64>() / n;
        let mut x_mean = vec![0.0; d];
        for e in examples {
            for (m, v) in x_mean.iter_mut().zip(&e.features) {
                *m += v / n;
            }
        }
        // Centered normal equations.
        let mut xtx = Matrix::zeros(d, d);
        let mut xty = vec![0.0; d];
        for e in examples {
            let yc = to_target(e.card) - y_mean;
            let xc: Vec<f64> = e.features.iter().zip(&x_mean).map(|(v, m)| v - m).collect();
            for i in 0..d {
                xty[i] += xc[i] * yc;
                for j in 0..d {
                    xtx.set(i, j, xtx.get(i, j) + xc[i] * xc[j]);
                }
            }
        }
        for i in 0..d {
            xtx.set(i, i, xtx.get(i, i) + self.lambda);
        }
        if let Ok(beta) = warper_linalg::cholesky_solve(&xtx, &xty) {
            self.intercept = y_mean - beta.iter().zip(&x_mean).map(|(b, m)| b * m).sum::<f64>();
            self.beta = Some(beta);
        }
    }
}

impl LmLinear {
    /// Decomposes into persisted parts.
    pub fn parts(&self) -> (Option<Vec<f64>>, f64, usize) {
        (self.beta.clone(), self.intercept, self.feature_dim)
    }

    /// Rebuilds from persisted parts.
    pub fn from_parts(beta: Option<Vec<f64>>, intercept: f64, feature_dim: usize) -> Self {
        Self {
            beta,
            intercept,
            feature_dim,
            lambda: 1e-3,
        }
    }
}

impl CardinalityEstimator for LmLinear {
    crate::clone_snapshot_impl!();

    fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    fn estimate(&self, features: &[f64]) -> f64 {
        match &self.beta {
            Some(beta) => {
                let t = self.intercept + beta.iter().zip(features).map(|(b, v)| b * v).sum::<f64>();
                from_target(t)
            }
            None => from_target(self.intercept),
        }
    }

    fn fit(&mut self, examples: &[LabeledExample]) {
        self.refit(examples);
    }

    fn update(&mut self, examples: &[LabeledExample]) {
        self.refit(examples);
    }

    fn update_kind(&self) -> UpdateKind {
        UpdateKind::Retrain
    }

    fn name(&self) -> &'static str {
        "LM-linear"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use warper_metrics_shim::gmq_of;
    use warper_query::{Annotator, Featurizer, RangePredicate};
    use warper_storage::{generate, DatasetKind};

    /// Tiny local GMQ helper so `ce` does not depend on `warper-metrics`.
    mod warper_metrics_shim {
        pub fn gmq_of(pairs: &[(f64, f64)]) -> f64 {
            let logs: f64 = pairs
                .iter()
                .map(|&(e, a)| {
                    let g = e.max(10.0);
                    let t = a.max(10.0);
                    (g / t).max(t / g).ln()
                })
                .sum();
            (logs / pairs.len() as f64).exp()
        }
    }

    fn make_training(n: usize, seed: u64) -> (Vec<LabeledExample>, Vec<LabeledExample>, usize) {
        let table = generate(DatasetKind::Prsa, 4_000, seed);
        let f = Featurizer::from_table(&table);
        let a = Annotator::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let make = |rng: &mut StdRng| {
            let domains = f.domains().to_vec();
            let c = rng.random_range(0..domains.len());
            let (lo, hi) = domains[c];
            let x1 = rng.random_range(lo..=hi);
            let x2 = rng.random_range(lo..=hi);
            let p = RangePredicate::unconstrained(&domains).with_range(c, x1.min(x2), x1.max(x2));
            let card = a.count(&table, &p) as f64;
            LabeledExample::new(f.featurize(&p), card)
        };
        let train: Vec<_> = (0..n).map(|_| make(&mut rng)).collect();
        let test: Vec<_> = (0..100).map(|_| make(&mut rng)).collect();
        (train, test, f.dim())
    }

    fn model_gmq(model: &dyn CardinalityEstimator, test: &[LabeledExample]) -> f64 {
        let pairs: Vec<(f64, f64)> = test
            .iter()
            .map(|e| (model.estimate(&e.features), e.card))
            .collect();
        gmq_of(&pairs)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(4))]

        /// The property the batched adaptation round rests on: a query's
        /// estimate has the same bits alone, in a batch of any size, and
        /// under any GEMM thread count. 16 → 512 → 256 → 1 makes the second
        /// layer 131 072 multiply-adds a row, so batches of 30 and 31 sit
        /// either side of `PARALLEL_FLOP_CUTOFF`; the other sizes straddle the
        /// micro-kernel tile and the smallest parallel band.
        #[test]
        fn estimate_many_matches_per_query_estimates(seed in 0u64..10_000) {
            use warper_linalg::gemm::{self, MIN_ROWS_PER_BAND, MR, PARALLEL_FLOP_CUTOFF};
            const DIM: usize = 16;
            const HIDDEN: [usize; 2] = [512, 256];
            let cutoff_rows = PARALLEL_FLOP_CUTOFF.div_ceil((HIDDEN[0] * HIDDEN[1]) as u64) as usize;
            let params = LmMlpParams { hidden: HIDDEN, ..Default::default() };
            let m = LmMlp::new(DIM, params, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            for batch in [
                1, MR - 1, MR, MR + 1, MIN_ROWS_PER_BAND - 1, MIN_ROWS_PER_BAND,
                MIN_ROWS_PER_BAND + 1, 2 * MIN_ROWS_PER_BAND + 1, cutoff_rows - 1, cutoff_rows,
                cutoff_rows + 1, 2 * cutoff_rows + 3,
            ] {
                let feats: Vec<Vec<f64>> = (0..batch)
                    .map(|_| (0..DIM).map(|_| rng.random_range(0.0..1.0)).collect())
                    .collect();
                let queries: Vec<&[f64]> = feats.iter().map(Vec::as_slice).collect();
                let single: Vec<u64> = queries.iter().map(|q| m.estimate(q).to_bits()).collect();
                let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
                proptest::prop_assert_eq!(&bits(m.estimate_many(&queries)), &single);
                // The same forward pass with the GEMM worker count pinned.
                for threads in [1, 2, 4] {
                    let mut h = Matrix::from_rows(&feats);
                    for (i, layer) in m.net().layers().iter().enumerate() {
                        let mut y = Matrix::zeros(0, 0);
                        gemm::matmul_transpose_b_into_threaded(&mut y, &h, &layer.w, threads);
                        for r in 0..y.rows() {
                            for (v, b) in y.row_mut(r).iter_mut().zip(&layer.b) {
                                *v += b;
                            }
                        }
                        h = m.net().activation_for(i).forward(&y);
                    }
                    let pinned = (0..batch).map(|r| from_target(h.get(r, 0))).collect();
                    proptest::prop_assert_eq!(&bits(pinned), &single);
                }
            }
            proptest::prop_assert!(m.estimate_many(&[]).is_empty());
        }
    }

    #[test]
    fn lm_mlp_learns_simple_predicates() {
        let (train, test, dim) = make_training(800, 42);
        let mut m = LmMlp::new(dim, LmMlpParams::default(), 7);
        m.fit(&train);
        let g = model_gmq(&m, &test);
        assert!(g < 3.5, "LM-mlp GMQ {g}");
        assert_eq!(m.update_kind(), UpdateKind::FineTune);
        assert_eq!(m.name(), "LM-mlp");
    }

    #[test]
    fn lm_mlp_fine_tuning_improves_on_new_data() {
        let (train, _, dim) = make_training(400, 1);
        let (new_train, new_test, _) = make_training(400, 2);
        let mut m = LmMlp::new(dim, LmMlpParams::default(), 8);
        m.fit(&train);
        let before = model_gmq(&m, &new_test);
        for _ in 0..4 {
            m.update(&new_train);
        }
        let after = model_gmq(&m, &new_test);
        assert!(after <= before * 1.05, "before {before}, after {after}");
    }

    #[test]
    fn lm_gbt_learns() {
        let (train, test, dim) = make_training(800, 5);
        let mut m = LmGbt::new(
            dim,
            GbtParams {
                n_trees: 150,
                learning_rate: 0.1,
                ..Default::default()
            },
        );
        m.fit(&train);
        let g = model_gmq(&m, &test);
        assert!(g < 4.0, "LM-gbt GMQ {g}");
        assert_eq!(m.update_kind(), UpdateKind::Retrain);
    }

    #[test]
    fn lm_krr_variants_learn() {
        let (train, test, dim) = make_training(500, 6);
        for variant in [KrrVariant::Poly, KrrVariant::Rbf] {
            let mut m = LmKrr::new(dim, variant, 9);
            m.fit(&train);
            let g = model_gmq(&m, &test);
            assert!(g < 5.0, "{} GMQ {g}", m.name());
        }
    }

    #[test]
    fn linear_model_is_the_papers_negative_result() {
        // §4.1.2: "a linear-kernel SVM did not work as a CE model ...
        // predicates are non-linear". The effect needs multi-column
        // conjunctions over correlated columns (selectivities multiply, so
        // log-card is non-additive in the bounds); single-column ranges are
        // nearly linear and would not show it.
        let table = generate(DatasetKind::Higgs, 6_000, 42);
        let f = Featurizer::from_table(&table);
        let a = Annotator::new();
        let domains = f.domains().to_vec();
        let mut rng = StdRng::seed_from_u64(43);
        let make = |rng: &mut StdRng| {
            let mut p = RangePredicate::unconstrained(&domains);
            for _ in 0..3 {
                let c = rng.random_range(2..domains.len()); // continuous cols
                let (lo, hi) = domains[c];
                let x1 = rng.random_range(lo..=hi);
                let x2 = rng.random_range(lo..=hi);
                p = p.with_range(c, x1.min(x2), x1.max(x2));
            }
            let card = a.count(&table, &p) as f64;
            LabeledExample::new(f.featurize(&p), card)
        };
        let train: Vec<_> = (0..900).map(|_| make(&mut rng)).collect();
        let test: Vec<_> = (0..120).map(|_| make(&mut rng)).collect();
        let mut linear = LmLinear::new(f.dim());
        linear.fit(&train);
        let g_lin = model_gmq(&linear, &test);
        let mut mlp = LmMlp::new(f.dim(), LmMlpParams::default(), 7);
        mlp.fit(&train);
        let g_mlp = model_gmq(&mlp, &test);
        // The gap's magnitude depends on workload hardness; directionally
        // the linear model must lose to the MLP on conjunctive predicates.
        assert!(
            g_lin > 1.05 * g_mlp,
            "linear GMQ {g_lin} should be worse than MLP {g_mlp}"
        );
        assert_eq!(linear.name(), "LM-linear");
    }

    #[test]
    fn untrained_models_return_finite_estimates() {
        let m = LmMlp::new(6, LmMlpParams::default(), 1);
        assert!(m.estimate(&[0.0; 6]).is_finite());
        let g = LmGbt::new(6, GbtParams::default());
        assert!(g.estimate(&[0.0; 6]).is_finite());
        let k = LmKrr::new(6, KrrVariant::Rbf, 2);
        assert!(k.estimate(&[0.0; 6]).is_finite());
    }

    #[test]
    fn fit_on_empty_is_noop() {
        let mut m = LmMlp::new(4, LmMlpParams::default(), 3);
        m.fit(&[]);
        m.update(&[]);
        assert!(m.estimate(&[0.5; 4]).is_finite());
    }
}
