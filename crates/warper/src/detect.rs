//! Drift detection and mode identification (`det_drft`, paper §3.1).
//!
//! The blind trigger is δ_m — the gap between the model's error on newly
//! arriving queries and its error at training time; Warper adapts only when
//! δ_m exceeds the threshold π, which itself adapts over time (§3.1, §3.4).
//! Data drifts (c1) are identified from database telemetry — the fraction
//! of changed rows — confirmed by canary predicates whose ground truth is
//! re-checked each period. Workload drifts are split into c2 (too few new
//! queries), c3 (too few *labeled* new queries) and c4 (adequate both) by
//! comparing against γ.

use rand::rngs::StdRng;
use warper_ce::{estimate_all, CardinalityEstimator};
use warper_metrics::{gmq, PAPER_THETA};
use warper_query::{Annotator, RangePredicate};
use warper_storage::Table;
use warper_workload::{QueryGenerator, WorkloadSpec};

use crate::config::WarperConfig;

/// The c1–c4 mode flags of Table 2. More than one can be set at once
/// (complex drifts, §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DriftMode {
    /// Data drift: labels (including `I_train`'s) are outdated.
    pub c1: bool,
    /// Workload drift with inadequate incoming queries (`n_t < γ`).
    pub c2: bool,
    /// Workload drift with inadequate labels (`n_a < γ`).
    pub c3: bool,
    /// Workload drift with adequate labeled queries.
    pub c4: bool,
}

impl DriftMode {
    /// No drift detected.
    pub fn none() -> Self {
        Self::default()
    }

    /// True if any flag is set.
    pub fn any(&self) -> bool {
        self.c1 || self.c2 || self.c3 || self.c4
    }

    /// True if generation/picking mitigations are needed (Alg. 1 line 2).
    pub fn needs_mitigation(&self) -> bool {
        self.c1 || self.c2 || self.c3
    }
}

impl std::fmt::Display for DriftMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if !self.any() {
            return write!(f, "∅");
        }
        let mut parts = Vec::new();
        if self.c1 {
            parts.push("c1");
        }
        if self.c2 {
            parts.push("c2");
        }
        if self.c3 {
            parts.push("c3");
        }
        if self.c4 {
            parts.push("c4");
        }
        write!(f, "{}", parts.join("|"))
    }
}

/// Database telemetry snapshot handed to [`DriftDetector::detect`].
#[derive(Debug, Clone, Copy, Default)]
pub struct DataTelemetry {
    /// Fraction of rows changed since the model was last trained.
    pub changed_fraction: f64,
    /// Largest relative ground-truth change observed on a canary predicate.
    pub canary_max_change: f64,
    /// Largest per-column relative distinct-count shift reported by the
    /// mergeable sketches (0 when no sketch probe is in use).
    pub distinct_shift: f64,
    /// Largest per-column heavy-hitter churn reported by the mergeable
    /// sketches (0 when no sketch probe is in use).
    pub hh_churn: f64,
}

/// A fixed set of canary predicates whose ground truth is cheap to re-check
/// and signals data drift (§3.1: "measuring the change in ground truth
/// cardinality for a few canary predicates").
#[derive(Debug, Clone)]
pub struct CanarySet {
    preds: Vec<RangePredicate>,
    baseline: Vec<u64>,
}

impl CanarySet {
    /// Draws `n` canaries from a w1-style workload over `table` and records
    /// their current ground truth as the baseline.
    pub fn new(table: &Table, n: usize, rng: &mut StdRng) -> Self {
        let spec = WorkloadSpec {
            min_cols: 1,
            max_cols: 2,
            ..Default::default()
        };
        // "w1" always parses; the fallback keeps this path panic-free.
        let mix = warper_workload::Mix::parse("w1")
            .unwrap_or_else(|| warper_workload::Mix::new(vec![warper_workload::Method::W1]));
        let mut gen = QueryGenerator::new(table, mix, spec);
        let preds = gen.generate_many(n, rng);
        let annotator = Annotator::new();
        let baseline = preds.iter().map(|p| annotator.count(table, p)).collect();
        Self { preds, baseline }
    }

    /// Largest relative change `|new − old| / max(old, 1)` across canaries.
    pub fn max_relative_change(&self, table: &Table) -> f64 {
        let annotator = Annotator::new();
        self.preds
            .iter()
            .zip(&self.baseline)
            .map(|(p, &old)| {
                let new = annotator.count(table, p);
                (new as f64 - old as f64).abs() / (old as f64).max(1.0)
            })
            .fold(0.0, f64::max)
    }

    /// Re-records the current ground truth as the baseline (after the model
    /// has been adapted to the new data).
    pub fn rebaseline(&mut self, table: &Table) {
        let annotator = Annotator::new();
        self.baseline = self
            .preds
            .iter()
            .map(|p| annotator.count(table, p))
            .collect();
    }

    /// Number of canaries.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }
}

/// Counters describing how often the sketch fast path decided without a
/// rescan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeStats {
    /// Probes answered "no drift" without a rescan (nothing changed since
    /// the baseline — the sketch state is bit-identical, so canaries are
    /// provably unchanged too).
    pub fast_negatives: u64,
    /// Probes answered "drift" without a rescan (a sketch signal cleared its
    /// threshold on its own).
    pub fast_positives: u64,
    /// Probes that fell back to the exact canary rescan (some rows changed
    /// but no sketch signal was conclusive).
    pub rescans: u64,
}

impl ProbeStats {
    /// Total probes taken.
    pub fn total(&self) -> u64 {
        self.fast_negatives + self.fast_positives + self.rescans
    }
}

/// The sketch-backed c1 fast path: compares the table's current mergeable
/// sketch rollup against a baseline captured when the model was last
/// (re)trained, and consults the exact canary rescan only when the sketch
/// signal is ambiguous.
///
/// Decision rule per probe:
/// * **fast negative** — not a single row changed since the baseline
///   (`rows_changed` delta is 0, hence the sketch states are identical).
///   Canaries are mathematically unchanged, so the rescan is skipped and all
///   telemetry signals are 0. This is the steady-state serving case.
/// * **fast positive** — the changed fraction, a distinct-count shift, or
///   heavy-hitter churn already clears its configured threshold; c1 triggers
///   from the sketch signals alone and the rescan is skipped.
/// * **ambiguous** — some rows changed but no signal is conclusive; fall
///   back to [`CanarySet::max_relative_change`], the exact (rescanning)
///   path, so borderline drifts are decided exactly as before.
#[derive(Debug, Clone)]
pub struct SketchProbe {
    baseline: warper_storage::TableSketch,
    data_drift_threshold: f64,
    distinct_shift_threshold: f64,
    hh_churn_threshold: f64,
    /// Fast-path decision counters (exposed for reports and benches).
    pub stats: ProbeStats,
}

impl SketchProbe {
    /// Baselines on `table`'s current sketch state.
    pub fn new(table: &Table, cfg: &WarperConfig) -> Self {
        Self::from_baseline(table.table_sketch().as_ref().clone(), cfg)
    }

    /// Rebuilds a probe around a persisted baseline (checkpoint recovery).
    pub fn from_baseline(baseline: warper_storage::TableSketch, cfg: &WarperConfig) -> Self {
        Self {
            baseline,
            data_drift_threshold: cfg.data_drift_threshold,
            distinct_shift_threshold: cfg.distinct_shift_threshold,
            hh_churn_threshold: cfg.hh_churn_threshold,
            stats: ProbeStats::default(),
        }
    }

    /// The baseline sketch (persisted into `WarperState.sketch_baseline`).
    pub fn baseline(&self) -> &warper_storage::TableSketch {
        &self.baseline
    }

    /// Produces the period's [`DataTelemetry`], rescanning canaries only
    /// when the sketch signal is ambiguous.
    ///
    /// The content signals (distinct shift, heavy-hitter churn) are damped
    /// by the changed row mass before they reach the detector: a handful of
    /// perturbed rows can double a low-cardinality column's distinct count
    /// (every perturbed value is brand new) or reorder a near-tied top-k
    /// set, yet the exact canary rescan would rightly call that noise. A
    /// content signal therefore only carries full weight once the changed
    /// fraction itself reaches the drift threshold; below that it shrinks
    /// proportionally, and sub-threshold mutations take the rescan path
    /// instead of fast-positives — keeping the fast path's triggers a
    /// superset of none and a subset of "the exact path would also fire".
    pub fn telemetry(&mut self, table: &Table, canaries: &CanarySet) -> DataTelemetry {
        let rollup = table.table_sketch();
        // The change counter is monotone; an unchanged stamp proves the
        // sketch states are identical, so the column-by-column comparison
        // (and the rescan) can both be skipped in the steady state.
        if rollup.rows_changed == self.baseline.rows_changed {
            self.stats.fast_negatives += 1;
            return DataTelemetry::default();
        }
        let drift = rollup.drift_vs(&self.baseline);
        let mass = if self.data_drift_threshold > 0.0 {
            (drift.changed_fraction / self.data_drift_threshold).min(1.0)
        } else {
            1.0
        };
        let distinct_shift = drift.max_distinct_shift * mass;
        let hh_churn = drift.max_hh_churn * mass;
        let conclusive = drift.changed_fraction > self.data_drift_threshold
            || distinct_shift > self.distinct_shift_threshold
            || hh_churn > self.hh_churn_threshold;
        let canary_max_change = if conclusive {
            self.stats.fast_positives += 1;
            0.0
        } else {
            self.stats.rescans += 1;
            canaries.max_relative_change(table)
        };
        DataTelemetry {
            changed_fraction: drift.changed_fraction,
            canary_max_change,
            distinct_shift,
            hh_churn,
        }
    }

    /// Re-baselines on the table's current sketch state (after the model has
    /// been adapted to the new data — the sketch analogue of
    /// [`CanarySet::rebaseline`]).
    pub fn rebaseline(&mut self, table: &Table) {
        self.baseline = table.table_sketch().as_ref().clone();
    }
}

/// Tracks the intrinsic workload distance δ_js between a reference workload
/// (the training predicates) and a sliding window of recent arrivals
/// (§3.1's second drift signal — it needs no cardinality labels, so it keeps
/// `det_drft` alive even when execution feedback is label-free).
#[derive(Debug, Clone)]
pub struct WorkloadDriftTracker {
    reference: Vec<Vec<f64>>,
    window: Vec<Vec<f64>>,
    window_cap: usize,
    /// PCA dimensions `k` (paper: 10).
    k: usize,
    /// Quantization bins per dimension `m` (paper: 3).
    m: usize,
}

impl WorkloadDriftTracker {
    /// Builds a tracker over the training workload's feature vectors.
    pub fn new(reference: Vec<Vec<f64>>) -> Self {
        Self {
            reference,
            window: Vec::new(),
            window_cap: 300,
            k: 10,
            m: 3,
        }
    }

    /// Records newly arrived featurized queries.
    pub fn observe(&mut self, features: &[Vec<f64>]) {
        self.window.extend_from_slice(features);
        let overflow = self.window.len().saturating_sub(self.window_cap);
        if overflow > 0 {
            self.window.drain(..overflow);
        }
    }

    /// Current δ_js *excess* between the reference and the recent window.
    ///
    /// The plug-in JS estimator is biased upward on small samples (two
    /// same-distribution samples of size n spread over up to mᵏ buckets look
    /// different), so the raw value is calibrated against a null: δ_js
    /// between one half of the reference and a window-sized sample of the
    /// other half. The returned excess is ≈0 for in-distribution arrivals at
    /// any window size and grows toward the true δ_js under real drift.
    /// Returns 0 when either side is too small to histogram.
    pub fn delta_js(&self) -> f64 {
        if self.reference.len() < 40 || self.window.len() < 20 {
            return 0.0;
        }
        let half = self.reference.len() / 2;
        let (ref_a, ref_b) = self.reference.split_at(half);
        // Deterministic stride subsample of ref_b at the window's size, so
        // the null carries the same sampling noise as the signal.
        let n = self.window.len().min(ref_b.len());
        let stride = ref_b.len() / n;
        let null_sample: Vec<Vec<f64>> = (0..n).map(|i| ref_b[i * stride].clone()).collect();
        let raw = warper_metrics::delta_js(ref_a, &self.window, self.k, self.m);
        let null = warper_metrics::delta_js(ref_a, &null_sample, self.k, self.m);
        (raw - null).max(0.0)
    }

    /// Re-baselines on the current window (after an adaptation converges,
    /// the new workload becomes the reference).
    pub fn rebaseline(&mut self) {
        if !self.window.is_empty() {
            self.reference = self.window.clone();
        }
    }
}

/// The `det_drft` trigger.
#[derive(Debug, Clone)]
pub struct DriftDetector {
    baseline_gmq: f64,
    pi: f64,
    pi_initial: f64,
    cfg: DetectorConfig,
}

/// The detector's slice of [`WarperConfig`].
#[derive(Debug, Clone, Copy)]
struct DetectorConfig {
    pi_backoff: f64,
    data_drift_threshold: f64,
    canary_threshold: f64,
    js_threshold: f64,
    distinct_shift_threshold: f64,
    hh_churn_threshold: f64,
}

/// Result of one `det_drft` call.
#[derive(Debug, Clone, Copy)]
pub struct Detection {
    /// The identified mode flags.
    pub mode: DriftMode,
    /// The measured accuracy gap δ_m = GMQ(new) − GMQ(baseline).
    pub delta_m: f64,
    /// The intrinsic workload distance δ_js (0 when no tracker supplied).
    pub delta_js: f64,
}

impl DriftDetector {
    /// Builds a detector. `baseline_gmq` is the model's error observed
    /// during training (the reference for δ_m).
    pub fn new(baseline_gmq: f64, cfg: &WarperConfig) -> Self {
        Self {
            baseline_gmq,
            pi: cfg.pi,
            pi_initial: cfg.pi,
            cfg: DetectorConfig {
                pi_backoff: cfg.pi_backoff,
                data_drift_threshold: cfg.data_drift_threshold,
                canary_threshold: cfg.canary_threshold,
                js_threshold: cfg.js_threshold,
                distinct_shift_threshold: cfg.distinct_shift_threshold,
                hh_churn_threshold: cfg.hh_churn_threshold,
            },
        }
    }

    /// The current threshold π.
    pub fn pi(&self) -> f64 {
        self.pi
    }

    /// Restores an adapted threshold π (checkpoint rollback / persistence).
    pub fn set_pi(&mut self, pi: f64) {
        self.pi = pi;
    }

    /// The reference GMQ.
    pub fn baseline_gmq(&self) -> f64 {
        self.baseline_gmq
    }

    /// Runs `det_drft`. `recent` are recently arrived queries with labels
    /// (used to evaluate the model), `telemetry` the data-drift signals,
    /// `n_t`/`n_a` the arrived/annotated counts since the drift began, and
    /// `gamma` the robust-model threshold γ.
    pub fn detect(
        &self,
        model: &dyn CardinalityEstimator,
        recent: &[(Vec<f64>, f64)],
        telemetry: &DataTelemetry,
        n_t: usize,
        n_a: usize,
        gamma: usize,
    ) -> Detection {
        self.detect_with_tracker(model, recent, telemetry, None, n_t, n_a, gamma)
    }

    /// `det_drft` with the intrinsic δ_js signal: when a workload tracker is
    /// supplied, a large distribution shift triggers workload-drift handling
    /// even while δ_m is still starved of labeled evaluations.
    #[allow(clippy::too_many_arguments)]
    pub fn detect_with_tracker(
        &self,
        model: &dyn CardinalityEstimator,
        recent: &[(Vec<f64>, f64)],
        telemetry: &DataTelemetry,
        tracker: Option<&WorkloadDriftTracker>,
        n_t: usize,
        n_a: usize,
        gamma: usize,
    ) -> Detection {
        let delta_m = if recent.is_empty() {
            0.0
        } else {
            let ests = estimate_all(model, recent.iter().map(|(f, _)| f.as_slice()));
            let actuals: Vec<f64> = recent.iter().map(|(_, a)| *a).collect();
            (gmq(&ests, &actuals, PAPER_THETA) - self.baseline_gmq).max(0.0)
        };
        let delta_js = tracker.map_or(0.0, WorkloadDriftTracker::delta_js);

        let mut mode = DriftMode::none();
        // Data drift from telemetry, independent of the accuracy gap (the
        // bottom line is to re-obtain labels; §3.4). The sketch-derived
        // signals (distinct shift, heavy-hitter churn) stand in for the
        // canary rescan on the fast path.
        if telemetry.changed_fraction > self.cfg.data_drift_threshold
            || telemetry.canary_max_change > self.cfg.canary_threshold
            || telemetry.distinct_shift > self.cfg.distinct_shift_threshold
            || telemetry.hh_churn > self.cfg.hh_churn_threshold
        {
            mode.c1 = true;
        }
        // Workload drift from the blind δ_m trigger, or — when labels are
        // scarce — from the intrinsic distribution shift.
        if delta_m > self.pi || delta_js > self.cfg.js_threshold {
            if n_t < gamma {
                mode.c2 = true;
            }
            if n_a < gamma {
                mode.c3 = true;
            }
            if !mode.c2 && !mode.c3 {
                mode.c4 = true;
            }
        }
        Detection {
            mode,
            delta_m,
            delta_js,
        }
    }

    /// After an early stop, raise π so the next invocation "directly uses
    /// the previous CE model unless a larger drift is observed" (§3.4).
    pub fn register_early_stop(&mut self) {
        self.pi *= self.cfg.pi_backoff;
    }

    /// Resets π (a clearly new drift was confirmed and handled).
    pub fn reset_pi(&mut self) {
        self.pi = self.pi_initial;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use warper_ce::{LabeledExample, UpdateKind};
    use warper_storage::{drift, generate, DatasetKind};

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

    fn detector() -> DriftDetector {
        DriftDetector::new(2.0, &WarperConfig::default())
    }

    #[test]
    fn no_drift_when_model_accurate() {
        let d = detector();
        let model = ConstModel(100.0);
        let recent = vec![(vec![0.0, 0.0], 100.0); 10];
        let det = d.detect(&model, &recent, &DataTelemetry::default(), 1000, 1000, 400);
        assert!(!det.mode.any(), "{}", det.mode);
        assert_eq!(det.delta_m, 0.0);
    }

    #[test]
    fn workload_drift_modes() {
        let d = detector();
        let model = ConstModel(100.0);
        // Actual cardinality 10000 → q-error 100, δ_m = 98 > π.
        let recent = vec![(vec![0.0, 0.0], 10_000.0); 10];
        // Few queries, few labels → c2|c3.
        let det = d.detect(&model, &recent, &DataTelemetry::default(), 50, 10, 400);
        assert!(det.mode.c2 && det.mode.c3 && !det.mode.c4);
        // Many queries, few labels → c3 only.
        let det = d.detect(&model, &recent, &DataTelemetry::default(), 1000, 10, 400);
        assert!(!det.mode.c2 && det.mode.c3);
        // Adequate both → c4.
        let det = d.detect(&model, &recent, &DataTelemetry::default(), 1000, 1000, 400);
        assert!(det.mode.c4 && !det.mode.c2 && !det.mode.c3);
        assert!(det.delta_m > 90.0);
    }

    #[test]
    fn data_drift_from_telemetry() {
        let d = detector();
        let model = ConstModel(100.0);
        let telemetry = DataTelemetry {
            changed_fraction: 0.3,
            canary_max_change: 0.0,
            ..Default::default()
        };
        let det = d.detect(&model, &[], &telemetry, 0, 0, 400);
        assert!(det.mode.c1);
        assert!(!det.mode.c2 && !det.mode.c3 && !det.mode.c4);
    }

    #[test]
    fn pi_backoff_suppresses_retrigger() {
        // Pin π explicitly so the test is independent of the default.
        let cfg = WarperConfig {
            pi: 0.5,
            pi_backoff: 1.5,
            ..Default::default()
        };
        let mut d = DriftDetector::new(2.0, &cfg);
        let model = ConstModel(100.0);
        let recent = vec![(vec![0.0, 0.0], 280.0); 10]; // q-error 2.8, δ_m = 0.8
        assert!(d
            .detect(&model, &recent, &DataTelemetry::default(), 10, 10, 400)
            .mode
            .any());
        d.register_early_stop(); // π → 0.75
        assert!(d
            .detect(&model, &recent, &DataTelemetry::default(), 10, 10, 400)
            .mode
            .any());
        d.register_early_stop(); // π → 1.125 > 0.8
        assert!(!d
            .detect(&model, &recent, &DataTelemetry::default(), 10, 10, 400)
            .mode
            .any());
        d.reset_pi();
        assert!(d
            .detect(&model, &recent, &DataTelemetry::default(), 10, 10, 400)
            .mode
            .any());
    }

    #[test]
    fn canaries_detect_sort_truncate_drift() {
        let mut table = generate(DatasetKind::Prsa, 3_000, 31);
        let mut rng = StdRng::seed_from_u64(32);
        let canaries = CanarySet::new(&table, 8, &mut rng);
        assert_eq!(canaries.len(), 8);
        assert!(canaries.max_relative_change(&table) < 1e-9);
        drift::sort_and_truncate_half(&mut table, 1);
        assert!(canaries.max_relative_change(&table) > 0.2);
        let mut canaries = canaries;
        canaries.rebaseline(&table);
        assert!(canaries.max_relative_change(&table) < 1e-9);
    }

    #[test]
    fn sketch_probe_fast_paths_and_fallback() {
        let cfg = WarperConfig::default();
        let mut table = generate(DatasetKind::Prsa, 3_000, 31);
        let mut rng = StdRng::seed_from_u64(32);
        let canaries = CanarySet::new(&table, 8, &mut rng);
        let mut probe = SketchProbe::new(&table, &cfg);

        // Steady state: nothing changed → fast negative, all signals zero.
        let t0 = probe.telemetry(&table, &canaries);
        assert_eq!(t0.changed_fraction, 0.0);
        assert_eq!(t0.distinct_shift, 0.0);
        assert_eq!(probe.stats.fast_negatives, 1);
        assert_eq!(probe.stats.rescans, 0);

        // Sort-truncate drift: conclusive sketch signal → fast positive,
        // no rescan, and the detector reaches the same c1 verdict the
        // exact path reaches.
        drift::sort_and_truncate_half(&mut table, 1);
        let t1 = probe.telemetry(&table, &canaries);
        assert_eq!(probe.stats.fast_positives, 1);
        assert_eq!(probe.stats.rescans, 0);
        assert!(t1.changed_fraction > 0.4);
        let d = detector();
        let model = ConstModel(100.0);
        let sketch_det = d.detect(&model, &[], &t1, 0, 0, 400);
        let exact = DataTelemetry {
            changed_fraction: t1.changed_fraction,
            canary_max_change: canaries.max_relative_change(&table),
            ..DataTelemetry::default()
        };
        let exact_det = d.detect(&model, &[], &exact, 0, 0, 400);
        assert_eq!(sketch_det.mode.c1, exact_det.mode.c1);
        assert!(sketch_det.mode.c1);

        // Rebaseline: the probe goes quiet again.
        probe.rebaseline(&table);
        let t2 = probe.telemetry(&table, &canaries);
        assert_eq!(t2.changed_fraction, 0.0);
        assert_eq!(probe.stats.fast_negatives, 2);
        assert_eq!(probe.stats.total(), 3);
    }

    #[test]
    fn sketch_probe_ambiguous_band_falls_back_to_rescan() {
        let cfg = WarperConfig::default();
        let mut table = generate(DatasetKind::Prsa, 5_000, 31);
        let mut rng = StdRng::seed_from_u64(33);
        let canaries = CanarySet::new(&table, 8, &mut rng);
        let mut probe = SketchProbe::new(&table, &cfg);
        // A tiny update: rows changed, but well under every threshold.
        drift::update_rows(&mut table, 0.01, 0.05, &mut rng);
        let t = probe.telemetry(&table, &canaries);
        assert_eq!(probe.stats.rescans, 1, "ambiguous signal must rescan");
        assert!(t.changed_fraction > 0.0 && t.changed_fraction < 0.05);
        // The fallback telemetry carries the exact canary measurement.
        assert_eq!(t.canary_max_change, canaries.max_relative_change(&table));
    }

    #[test]
    fn sketch_signals_trigger_c1_in_detector() {
        let d = detector();
        let model = ConstModel(100.0);
        let telemetry = DataTelemetry {
            changed_fraction: 0.0,
            canary_max_change: 0.0,
            distinct_shift: 0.9,
            hh_churn: 0.0,
        };
        assert!(d.detect(&model, &[], &telemetry, 0, 0, 400).mode.c1);
        let telemetry = DataTelemetry {
            hh_churn: 0.9,
            ..DataTelemetry::default()
        };
        assert!(d.detect(&model, &[], &telemetry, 0, 0, 400).mode.c1);
    }

    #[test]
    fn workload_tracker_detects_distribution_shift() {
        let reference: Vec<Vec<f64>> = (0..200)
            .map(|i| vec![0.2 + 0.001 * (i % 10) as f64; 6])
            .collect();
        let mut tracker = WorkloadDriftTracker::new(reference);
        assert_eq!(tracker.delta_js(), 0.0, "empty window");
        // Same-distribution arrivals: small δ_js.
        let same: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![0.2 + 0.001 * (i % 7) as f64; 6])
            .collect();
        tracker.observe(&same);
        let d_same = tracker.delta_js();
        // Shifted arrivals displace the window: δ_js rises.
        let shifted: Vec<Vec<f64>> = (0..300).map(|_| vec![0.9; 6]).collect();
        tracker.observe(&shifted);
        let d_shift = tracker.delta_js();
        assert!(d_shift > 0.5, "shifted δ_js {d_shift}");
        assert!(d_shift > d_same + 0.2, "same {d_same} vs shifted {d_shift}");
        // Rebaselining on the new workload zeroes the signal again.
        tracker.rebaseline();
        assert!(tracker.delta_js() < 0.1);
    }

    #[test]
    fn tracker_triggers_detection_without_labels() {
        let d = detector();
        let model = ConstModel(100.0);
        let reference: Vec<Vec<f64>> = (0..100).map(|_| vec![0.1; 4]).collect();
        let mut tracker = WorkloadDriftTracker::new(reference);
        tracker.observe(&(0..100).map(|_| vec![0.9; 4]).collect::<Vec<_>>());
        // No labeled evaluations at all — δ_m is 0 — yet the intrinsic
        // distribution shift triggers workload-drift handling.
        let det = d.detect_with_tracker(
            &model,
            &[],
            &DataTelemetry::default(),
            Some(&tracker),
            50,
            0,
            400,
        );
        assert!(det.mode.c2 && det.mode.c3, "{}", det.mode);
        assert!(det.delta_js > 0.5);
        assert_eq!(det.delta_m, 0.0);
    }

    #[test]
    fn mode_display() {
        let mut m = DriftMode::none();
        assert_eq!(m.to_string(), "∅");
        m.c1 = true;
        m.c2 = true;
        assert_eq!(m.to_string(), "c1|c2");
        assert!(m.needs_mitigation());
        let c4 = DriftMode {
            c4: true,
            ..DriftMode::none()
        };
        assert!(!c4.needs_mitigation());
        assert!(c4.any());
    }
}
