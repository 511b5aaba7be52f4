//! Quantized serving copies of the learned CE models.
//!
//! [`QuantizedModel`] wraps a read-only f32 (or weight-only int8) mirror of
//! a trained [`LmMlp`](crate::lm::LmMlp) or [`Mscn`](crate::mscn::Mscn)
//! behind the same [`CardinalityEstimator`] contract, so the serving layer
//! can publish it to readers without knowing it is quantized. The dual-
//! precision lifecycle (DESIGN.md §10):
//!
//! 1. the supervisor trains and validates the **f64** model (bit-exact,
//!    checkpointed, WAL-logged — quantization never touches durability);
//! 2. at publication, [`quantize_for_serving`] converts the serving copy;
//! 3. the commit hook gates the quantized copy against the full-precision
//!    one (GMQ over probe queries) and falls back to f64 on failure.
//!
//! Quantized models are estimate-only: [`CardinalityEstimator::fit`] and
//! [`CardinalityEstimator::update`] are deliberate no-ops, because training
//! always happens on the f64 source model and a fresh quantized copy is
//! derived at the next publication.

use std::cell::RefCell;
use std::fmt;
use std::str::FromStr;

use warper_linalg::{Backend, MatrixF32};
use warper_nn::{QuantScratch, QuantizedMlp, WeightPrecision};

use crate::lm::LmMlp;
use crate::mscn::{Mscn, MscnConfig};
use crate::{from_target, CardinalityEstimator, LabeledExample, UpdateKind};

/// Numeric precision of the serving path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum Precision {
    /// Full-precision f64 — the training representation served directly.
    F64,
    /// f32 weights and arithmetic via the SIMD microkernels.
    F32,
    /// int8 weights (per-row scales) with f32 arithmetic.
    Int8,
}

impl Precision {
    /// The weight precision to pack at, or `None` for the f64 path.
    fn weight_precision(self) -> Option<WeightPrecision> {
        match self {
            Precision::F64 => None,
            Precision::F32 => Some(WeightPrecision::F32),
            Precision::Int8 => Some(WeightPrecision::Int8),
        }
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Precision::F64 => "f64",
            Precision::F32 => "f32",
            Precision::Int8 => "int8",
        })
    }
}

impl FromStr for Precision {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "f64" => Ok(Precision::F64),
            "f32" => Ok(Precision::F32),
            "int8" => Ok(Precision::Int8),
            other => Err(format!(
                "unknown precision {other:?} (expected f64, f32, or int8)"
            )),
        }
    }
}

/// The quantized network behind a [`QuantizedModel`].
#[derive(Clone)]
enum QuantNet {
    /// LM-mlp: one feed-forward network.
    Lm(QuantizedMlp),
    /// MSCN: set-pooled per-table module, optional join module, and head.
    Mscn {
        cfg: MscnConfig,
        pred: QuantizedMlp,
        join: Option<QuantizedMlp>,
        head: QuantizedMlp,
    },
}

/// Per-thread forward scratch. One set serves every quantized model on the
/// thread: the buffers reshape on each call and grow to the largest batch
/// seen.
#[derive(Default)]
struct ScratchSet {
    lm: QuantScratch,
    pred: QuantScratch,
    join: QuantScratch,
    head: QuantScratch,
}

thread_local! {
    static SCRATCH: RefCell<ScratchSet> = RefCell::new(ScratchSet::default());
}

/// A read-only quantized serving copy of a learned CE model.
#[derive(Clone)]
pub struct QuantizedModel {
    net: QuantNet,
    feature_dim: usize,
    precision: Precision,
    backend: Backend,
}

impl QuantizedModel {
    /// Quantizes the serving copy of an LM-mlp.
    pub fn from_lm(model: &LmMlp, precision: Precision) -> Option<Self> {
        let wp = precision.weight_precision()?;
        Some(Self {
            net: QuantNet::Lm(QuantizedMlp::from_mlp(model.net(), wp)),
            feature_dim: model.feature_dim_snapshot(),
            precision,
            backend: Backend::Auto,
        })
    }

    /// Quantizes the serving copy of an MSCN model.
    pub fn from_mscn(model: &Mscn, precision: Precision) -> Option<Self> {
        let wp = precision.weight_precision()?;
        let (cfg, pred_net, join_net, head, _seed) = model.parts();
        Some(Self {
            net: QuantNet::Mscn {
                cfg,
                pred: QuantizedMlp::from_mlp(&pred_net, wp),
                join: join_net.map(|jn| QuantizedMlp::from_mlp(&jn, wp)),
                head: QuantizedMlp::from_mlp(&head, wp),
            },
            feature_dim: cfg.feature_dim(),
            precision,
            backend: Backend::Auto,
        })
    }

    /// The precision this copy was packed at.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Forces a specific kernel backend (tests use [`Backend::Portable`] to
    /// exercise the no-SIMD fallback); serving uses the default
    /// [`Backend::Auto`].
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    fn forward(&self, queries: &[&[f64]]) -> Vec<f64> {
        SCRATCH.with(|cell| {
            let s = &mut *cell.borrow_mut();
            let out: &MatrixF32 = match &self.net {
                QuantNet::Lm(net) => net.forward(queries, self.backend, &mut s.lm),
                QuantNet::Mscn {
                    cfg,
                    pred,
                    join,
                    head,
                } => mscn_forward(cfg, pred, join.as_ref(), head, queries, self.backend, s),
            };
            (0..queries.len())
                .map(|i| from_target(out.get(i, 0) as f64))
                .collect()
        })
    }
}

/// Quantized mirror of `Mscn::forward_batch`: split each flat feature row
/// into stacked table blocks and the join block, run the set module, mean-
/// pool per query, concatenate the join embedding, and regress through the
/// head.
fn mscn_forward<'s>(
    cfg: &MscnConfig,
    pred: &QuantizedMlp,
    join: Option<&QuantizedMlp>,
    head: &QuantizedMlp,
    queries: &[&[f64]],
    backend: Backend,
    s: &'s mut ScratchSet,
) -> &'s MatrixF32 {
    let b = queries.len();
    let t = cfg.n_tables;
    let bw = cfg.block_width();
    let h = cfg.hidden;
    {
        let blocks = pred.staged_input(b * t, &mut s.pred);
        let data = blocks.data_mut();
        for (r, q) in queries.iter().enumerate() {
            for ti in 0..t {
                let dst = &mut data[(r * t + ti) * bw..(r * t + ti + 1) * bw];
                for (d, &v) in dst.iter_mut().zip(&q[ti * bw..(ti + 1) * bw]) {
                    *d = v as f32;
                }
            }
        }
    }
    let head_dim = head.in_dim();
    {
        // Mean-pool table embeddings into the head staging buffer's first
        // `h` columns (`staged_input` zeroes it).
        let units = pred.forward_prepared(b * t, backend, &mut s.pred);
        let hi = head.staged_input(b, &mut s.head);
        let data = hi.data_mut();
        let inv_t = 1.0f32 / t as f32;
        for r in 0..b {
            let dst = &mut data[r * head_dim..r * head_dim + h];
            for ti in 0..t {
                for (d, &u) in dst.iter_mut().zip(units.row(r * t + ti)) {
                    *d += u * inv_t;
                }
            }
        }
    }
    if let Some(jn) = join {
        let jdim = cfg.join_dim;
        {
            let jx = jn.staged_input(b, &mut s.join);
            let data = jx.data_mut();
            for (r, q) in queries.iter().enumerate() {
                for (d, &v) in data[r * jdim..(r + 1) * jdim].iter_mut().zip(&q[t * bw..]) {
                    *d = v as f32;
                }
            }
        }
        let ju = jn.forward_prepared(b, backend, &mut s.join);
        let hi = s.head.staged_mut();
        let data = hi.data_mut();
        for r in 0..b {
            data[r * head_dim + h..(r + 1) * head_dim].copy_from_slice(ju.row(r));
        }
    }
    head.forward_prepared(b, backend, &mut s.head)
}

impl CardinalityEstimator for QuantizedModel {
    crate::clone_snapshot_impl!();

    fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    fn estimate(&self, features: &[f64]) -> f64 {
        self.forward(&[features])[0]
    }

    fn estimate_many(&self, queries: &[&[f64]]) -> Vec<f64> {
        if queries.is_empty() {
            return Vec::new();
        }
        self.forward(queries)
    }

    /// No-op: quantized copies are estimate-only; training happens on the
    /// f64 source model.
    fn fit(&mut self, _examples: &[LabeledExample]) {}

    /// No-op: see [`Self::fit`].
    fn update(&mut self, _examples: &[LabeledExample]) {}

    fn update_kind(&self) -> UpdateKind {
        UpdateKind::FineTune
    }

    fn name(&self) -> &'static str {
        match (&self.net, self.precision) {
            (QuantNet::Lm(_), Precision::Int8) => "LM-mlp[int8]",
            (QuantNet::Lm(_), _) => "LM-mlp[f32]",
            (QuantNet::Mscn { .. }, Precision::Int8) => "MSCN[int8]",
            (QuantNet::Mscn { .. }, _) => "MSCN[f32]",
        }
    }
}

/// Derives the quantized serving copy of `model` at `precision`, or `None`
/// when no quantized path exists — `precision` is [`Precision::F64`], or the
/// concrete model type has no quantized implementation (histograms, GBT,
/// kernel regressors). Callers treat `None` as "serve the f64 model".
pub fn quantize_for_serving(
    model: &dyn CardinalityEstimator,
    precision: Precision,
) -> Option<QuantizedModel> {
    let any = model as &dyn std::any::Any;
    if let Some(lm) = any.downcast_ref::<LmMlp>() {
        QuantizedModel::from_lm(lm, precision)
    } else if let Some(mscn) = any.downcast_ref::<Mscn>() {
        QuantizedModel::from_mscn(mscn, precision)
    } else {
        None
    }
}
