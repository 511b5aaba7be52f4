//! Adaptation curves and the relative speedup metric.
//!
//! Paper §4.1: "Let α, β, respectively, be the GMQ before and after the
//! drift; we define Δ(A, λ) as the number of queries required for method A
//! to reach a GMQ at most β + λ(α − β)." The reported speedup is
//! `Δ(FT, λ) / Δ(A, λ)` at λ ∈ {0.5, 0.8, 1}.

/// A method's adaptation progress: GMQ as a function of the number of
/// queries consumed from the new workload (monotone in neither direction in
/// general, so the threshold search takes the *first* crossing).
#[derive(Debug, Clone, Default)]
pub struct AdaptationCurve {
    points: Vec<(f64, f64)>,
}

impl AdaptationCurve {
    /// An empty curve.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds from `(queries, gmq)` pairs.
    pub fn from_points(points: Vec<(f64, f64)>) -> Self {
        Self { points }
    }

    /// Appends a measurement.
    pub fn push(&mut self, queries: f64, gmq: f64) {
        self.points.push((queries, gmq));
    }

    /// The recorded points.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// GMQ at the first recorded point (the "before adaptation" error α
    /// when the curve starts at zero queries).
    pub fn initial_gmq(&self) -> Option<f64> {
        self.points.first().map(|p| p.1)
    }

    /// Best (lowest) GMQ reached anywhere on the curve.
    pub fn best_gmq(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|p| p.1)
            .min_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
    }

    /// Number of queries at the first point where GMQ ≤ `target`, linearly
    /// interpolating between measurements; `None` if never reached.
    pub fn queries_to_reach(&self, target: f64) -> Option<f64> {
        let mut prev: Option<(f64, f64)> = None;
        for &(x, y) in &self.points {
            if y <= target {
                return match prev {
                    Some((px, py)) if py > target && x > px => {
                        // Interpolate the crossing.
                        let t = (py - target) / (py - y);
                        Some(px + t * (x - px))
                    }
                    _ => Some(x),
                };
            }
            prev = Some((x, y));
        }
        None
    }
}

/// The Δ-speedups of a method relative to fine-tuning at λ ∈ {0.5, 0.8, 1}.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedupReport {
    /// Speedup to reach half the possible improvement.
    pub d05: f64,
    /// Speedup to reach 80% of the possible improvement.
    pub d08: f64,
    /// Speedup to reach the full improvement.
    pub d10: f64,
}

/// The paper's Δ-speedup of method `a` over fine-tuning, with α and β read
/// off the two curves: α is FT's GMQ right after the drift (its first
/// point), β the lower of the two converged (best) GMQs. An empty curve
/// contributes 1.0. Every reported speedup goes through this function.
pub fn speedups_vs_ft(ft: &AdaptationCurve, a: &AdaptationCurve) -> SpeedupReport {
    let alpha = ft.initial_gmq().unwrap_or(1.0);
    let beta = ft
        .best_gmq()
        .unwrap_or(1.0)
        .min(a.best_gmq().unwrap_or(1.0));
    relative_speedups(ft, a, alpha, beta)
}

/// Computes `Δ(FT, λ)/Δ(A, λ)` at the paper's three λ values for an
/// explicit α and β ([`speedups_vs_ft`] is the paper's choice of both).
///
/// `alpha` is the GMQ right after the drift (before adaptation); `beta` is
/// the converged GMQ. Conventions for edge cases, matching the paper's
/// "Warper performs no worse than FT (Δ ≥ 1)" framing:
/// * if neither method reaches the target, the speedup is 1 (tie);
/// * if only `a` reaches it, the speedup is `ft`'s total budget over `a`'s
///   crossing point (a lower bound);
/// * if only `ft` reaches it, the converse ratio (≤ 1).
pub fn relative_speedups(
    ft: &AdaptationCurve,
    a: &AdaptationCurve,
    alpha: f64,
    beta: f64,
) -> SpeedupReport {
    let at = |lambda: f64| {
        // GMQ target: β + λ(α−β); λ=1 is β itself but measured curves are
        // noisy, so allow a 2% slack at full convergence.
        let target = if lambda >= 1.0 {
            beta * 1.02
        } else {
            beta + lambda * (alpha - beta)
        };
        let ft_q = ft.queries_to_reach(target);
        let a_q = a.queries_to_reach(target);
        let budget = ft
            .points()
            .last()
            .map(|p| p.0)
            .unwrap_or(1.0)
            .max(a.points().last().map(|p| p.0).unwrap_or(1.0));
        match (ft_q, a_q) {
            (Some(f), Some(g)) => (f.max(1e-9) / g.max(1e-9)).max(
                // A method can't be "worse than never": floor tiny ratios
                // caused by both crossing immediately.
                f64::MIN_POSITIVE,
            ),
            (None, Some(g)) => budget.max(1.0) / g.max(1e-9),
            (Some(f), None) => f.max(1e-9) / budget.max(1.0),
            (None, None) => 1.0,
        }
    };
    SpeedupReport {
        d05: at(0.5),
        d08: at(0.8),
        d10: at(1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queries_to_reach_interpolates() {
        let c = AdaptationCurve::from_points(vec![(0.0, 3.0), (100.0, 2.0)]);
        // Target 2.5 crossed halfway.
        assert!((c.queries_to_reach(2.5).unwrap() - 50.0).abs() < 1e-9);
        assert_eq!(c.queries_to_reach(3.0), Some(0.0));
        assert_eq!(c.queries_to_reach(1.5), None);
    }

    #[test]
    fn paper_example_speedup() {
        // §4.1: α=3.0, β=2.0; FT reaches 2.5 at 100 queries, A at 50 → 2×.
        let ft = AdaptationCurve::from_points(vec![(0.0, 3.0), (100.0, 2.5), (200.0, 2.0)]);
        let a = AdaptationCurve::from_points(vec![(0.0, 3.0), (50.0, 2.5), (120.0, 2.0)]);
        let s = relative_speedups(&ft, &a, 3.0, 2.0);
        assert!((s.d05 - 2.0).abs() < 1e-9, "{s:?}");
    }

    #[test]
    fn tie_when_neither_reaches() {
        let ft = AdaptationCurve::from_points(vec![(0.0, 3.0), (100.0, 2.9)]);
        let a = AdaptationCurve::from_points(vec![(0.0, 3.0), (100.0, 2.9)]);
        let s = relative_speedups(&ft, &a, 3.0, 1.0);
        assert_eq!(s.d05, 1.0);
        assert_eq!(s.d10, 1.0);
    }

    #[test]
    fn only_a_reaches_gives_lower_bound() {
        let ft = AdaptationCurve::from_points(vec![(0.0, 3.0), (100.0, 2.8)]);
        let a = AdaptationCurve::from_points(vec![(0.0, 3.0), (25.0, 1.95)]);
        let s = relative_speedups(&ft, &a, 3.0, 2.0);
        assert!(s.d10 >= 4.0 - 1e-9, "{s:?}");
    }

    #[test]
    fn curve_accessors() {
        let mut c = AdaptationCurve::new();
        c.push(0.0, 5.0);
        c.push(10.0, 2.0);
        c.push(20.0, 2.5);
        assert_eq!(c.initial_gmq(), Some(5.0));
        assert_eq!(c.best_gmq(), Some(2.0));
        assert_eq!(c.points().len(), 3);
    }
}
