//! Quantize-and-gate: the publication-side half of the dual-precision
//! lifecycle (DESIGN.md §10).
//!
//! The adaptation loop trains and validates in f64; this module decides
//! what the *readers* get. At every publication the requested serving
//! precision is applied to a copy of the validated model, and the copy is
//! admitted only if its estimates stay within a GMQ drift budget of the
//! full-precision model over a probe workload drawn from the query pool.
//! A candidate that fails the gate — or a model with no quantized
//! implementation — falls back to the f64 snapshot, so the serving side
//! never trades correctness for speed silently.
//!
//! The gate compares the two models on the *same* queries, so any drift is
//! pure numeric (rounding) error: f32 passes with orders of magnitude to
//! spare, while int8's per-row weight rounding is exactly what the budget
//! exists to judge.

use warper_ce::{quantize_for_serving, CardinalityEstimator, Precision};
use warper_core::WarperState;
use warper_metrics::{gmq, PAPER_THETA};

/// Upper bound on gate probes: enough for a stable geometric mean, cheap
/// enough to run inside every commit hook.
const MAX_PROBES: usize = 256;

/// What [`gate_and_choose`] decided.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QuantOutcome {
    /// The requested precision was f64; no gate ran.
    FullPrecision,
    /// A quantized candidate passed the gate and was chosen (its measured
    /// GMQ drift vs the full model is attached).
    Quantized(f64),
    /// No quantized path exists for this model type; served f64.
    Unsupported,
    /// The candidate exceeded the drift budget (measured drift attached);
    /// served f64.
    Refused(f64),
}

impl QuantOutcome {
    /// Whether the f64 model ended up serving.
    pub fn fell_back(&self) -> bool {
        matches!(self, QuantOutcome::Unsupported | QuantOutcome::Refused(_))
    }
}

/// A gate verdict: the quantized candidate when it may serve (`None` when
/// the f64 model must), the precision that serves, and what happened.
type Gated = (
    Option<Box<dyn CardinalityEstimator>>,
    Precision,
    QuantOutcome,
);

/// Measures the quantized candidate's GMQ drift against the full model over
/// `probes`.
///
/// `full` is the validated f64 model, only borrowed — the caller copies it
/// just when the answer is `None`; `candidate` its quantized copy (pass
/// `None` when quantization is unsupported or not requested). With an empty
/// probe set the gate cannot measure drift and refuses conservatively.
pub fn gate_and_choose(
    full: &dyn CardinalityEstimator,
    candidate: Option<Box<dyn CardinalityEstimator>>,
    requested: Precision,
    probes: &[&[f64]],
    tolerance: f64,
) -> Gated {
    if requested == Precision::F64 {
        return (None, Precision::F64, QuantOutcome::FullPrecision);
    }
    let Some(candidate) = candidate else {
        return (None, Precision::F64, QuantOutcome::Unsupported);
    };
    if probes.is_empty() {
        return (None, Precision::F64, QuantOutcome::Refused(f64::INFINITY));
    }
    let reference = full.estimate_many(probes);
    let quantized = candidate.estimate_many(probes);
    // GMQ of quantized-vs-full: treats the f64 estimates as "truth", so a
    // perfectly faithful copy scores exactly 1.0.
    let drift = gmq(&quantized, &reference, PAPER_THETA);
    if drift.is_finite() && drift <= 1.0 + tolerance {
        (Some(candidate), requested, QuantOutcome::Quantized(drift))
    } else {
        (None, Precision::F64, QuantOutcome::Refused(drift))
    }
}

/// Quantizes `model` at `requested` and runs the gate against the borrowed
/// model: what the commit hook calls, copying the f64 model only when the
/// answer is `None`.
pub(crate) fn quantize_and_gate(
    model: &dyn CardinalityEstimator,
    requested: Precision,
    probes: &[&[f64]],
    tolerance: f64,
) -> Gated {
    let candidate = quantize_for_serving(model, requested)
        .map(|q| Box::new(q) as Box<dyn CardinalityEstimator>);
    gate_and_choose(model, candidate, requested, probes, tolerance)
}

/// [`quantize_and_gate`] for callers that already hold `model`'s f64 serving
/// copy: `full_snapshot` serves when the quantized candidate may not.
pub fn prepare_serving_model(
    model: &dyn CardinalityEstimator,
    full_snapshot: Box<dyn CardinalityEstimator>,
    requested: Precision,
    probes: &[&[f64]],
    tolerance: f64,
) -> (Box<dyn CardinalityEstimator>, Precision, QuantOutcome) {
    let (chosen, served, outcome) = quantize_and_gate(model, requested, probes, tolerance);
    (chosen.unwrap_or(full_snapshot), served, outcome)
}

/// Stride-samples up to [`MAX_PROBES`] probe feature vectors from the query
/// pool (every record, labeled or not — the gate needs inputs, not labels).
pub fn probe_features(state: &WarperState) -> Vec<Vec<f64>> {
    let records = state.pool.records();
    let stride = records.len().div_ceil(MAX_PROBES).max(1);
    records
        .iter()
        .step_by(stride)
        .map(|r| r.features.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use warper_ce::lm::{LmMlp, LmMlpParams};

    fn probe_set(dim: usize, n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                (0..dim)
                    .map(|c| ((i * dim + c) % 13) as f64 / 13.0)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn f32_candidate_passes_and_int8_is_judged() {
        let model = LmMlp::new(10, LmMlpParams::default(), 99);
        let probes = probe_set(10, 64);
        let refs: Vec<&[f64]> = probes.iter().map(Vec::as_slice).collect();
        for precision in [Precision::F32, Precision::Int8] {
            let (chosen, served, outcome) = prepare_serving_model(
                &model,
                model.snapshot().expect("LmMlp snapshots"),
                precision,
                &refs,
                0.05,
            );
            match outcome {
                QuantOutcome::Quantized(drift) => {
                    assert_eq!(served, precision);
                    assert!((1.0..=1.05).contains(&drift), "drift {drift}");
                    assert!(
                        chosen.name().contains('['),
                        "quantized name {}",
                        chosen.name()
                    );
                }
                QuantOutcome::Refused(drift) => {
                    // int8 may legitimately refuse on an unlucky init; f64
                    // must then be serving.
                    assert_eq!(precision, Precision::Int8, "f32 must never refuse");
                    assert_eq!(served, Precision::F64);
                    assert!(drift > 1.05, "refused drift {drift}");
                    assert_eq!(chosen.name(), "LM-mlp");
                }
                other => panic!("unexpected outcome {other:?}"),
            }
        }
    }

    #[test]
    fn f64_request_skips_the_gate() {
        let model = LmMlp::new(6, LmMlpParams::default(), 1);
        let (chosen, served, outcome) = prepare_serving_model(
            &model,
            model.snapshot().expect("LmMlp snapshots"),
            Precision::F64,
            &[],
            0.05,
        );
        assert_eq!(outcome, QuantOutcome::FullPrecision);
        assert_eq!(served, Precision::F64);
        assert_eq!(chosen.name(), "LM-mlp");
    }

    #[test]
    fn unsupported_model_falls_back_to_f64() {
        let model = warper_ce::lm::LmLinear::new(4);
        let (_, served, outcome) = prepare_serving_model(
            &model,
            Box::new(warper_ce::lm::LmLinear::new(4)),
            Precision::F32,
            &[],
            0.05,
        );
        assert_eq!(outcome, QuantOutcome::Unsupported);
        assert!(outcome.fell_back());
        assert_eq!(served, Precision::F64);
    }

    #[test]
    fn empty_probe_set_refuses_conservatively() {
        let model = LmMlp::new(6, LmMlpParams::default(), 2);
        let (_, served, outcome) = prepare_serving_model(
            &model,
            model.snapshot().expect("LmMlp snapshots"),
            Precision::F32,
            &[],
            0.05,
        );
        assert!(matches!(outcome, QuantOutcome::Refused(d) if d.is_infinite()));
        assert_eq!(served, Precision::F64);
    }
}
