//! Plan choice and simulated execution.
//!
//! The optimizer sees *estimated* cardinalities and commits to a plan; the
//! executor then runs that plan against the *actual* cardinalities. This
//! mirrors the paper's methodology of injecting CE-model estimates into the
//! optimizer's memo (§4.2) — a bad estimate changes the plan (or the memory
//! grant), and the latency difference is what Figure 9 plots.

use super::cost::{CostModel, Scenario};

/// The cardinalities a join query exposes to the optimizer/executor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryCards {
    /// `|σ(L)|` — filtered lineitem rows (the hash build side).
    pub left: f64,
    /// `|σ(O)|` — filtered orders rows (the probe side).
    pub right: f64,
    /// `|σ(L) ⋈ σ(O)|`.
    pub join: f64,
    /// `|L|` — unfiltered lineitem rows (scan cost).
    pub left_base: f64,
    /// `|O|` — unfiltered orders rows (scan cost).
    pub right_base: f64,
}

/// A committed physical plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Plan {
    /// Hash join with a memory grant sized for `grant_rows` build rows (S1).
    HashJoin {
        /// Build rows that fit in memory before spilling.
        grant_rows: f64,
    },
    /// Nested-loop join (S2's trap).
    NestedLoop,
    /// Parallel hash join with a semi-join bitmap built on one side (S3).
    BitmapHash {
        /// True when the bitmap is built on the left (σ(L)) input.
        build_on_left: bool,
    },
}

/// The simulated query optimizer + executor for one scenario.
#[derive(Debug, Clone, Copy)]
pub struct Executor {
    scenario: Scenario,
    cost: CostModel,
}

impl Executor {
    /// Builds an executor with the default calibrated cost model.
    pub fn new(scenario: Scenario) -> Self {
        Self {
            scenario,
            cost: CostModel::default(),
        }
    }

    /// The scenario.
    pub fn scenario(&self) -> Scenario {
        self.scenario
    }

    /// Chooses a plan from *estimated* cardinalities.
    pub fn plan(&self, est: &QueryCards) -> Plan {
        let c = &self.cost;
        match self.scenario {
            Scenario::S1BufferSpill => Plan::HashJoin {
                grant_rows: (est.left * c.grant_headroom).max(1.0),
            },
            Scenario::S2JoinType => {
                // Cost-based choice on the estimates.
                let nl = c.nl_pair * est.left * est.right;
                let hash = c.build * est.left + c.probe * est.right + c.fixed_overhead;
                if nl < hash {
                    Plan::NestedLoop
                } else {
                    Plan::HashJoin {
                        grant_rows: f64::INFINITY,
                    }
                }
            }
            Scenario::S3BitmapSide => Plan::BitmapHash {
                build_on_left: est.left <= est.right,
            },
        }
    }

    /// Simulated latency of executing `plan` against the *actual*
    /// cardinalities.
    pub fn simulate(&self, plan: &Plan, actual: &QueryCards) -> f64 {
        let c = &self.cost;
        let scan = c.scan * (actual.left_base + actual.right_base);
        match *plan {
            Plan::HashJoin { grant_rows } => {
                let build = c.build * actual.left;
                let probe = c.probe * actual.right;
                let spilled = (actual.left - grant_rows).max(0.0);
                scan + build + probe + c.spill * spilled
            }
            Plan::NestedLoop => {
                // Outer σ(O), inner σ(L) scanned per outer row.
                scan + c.nl_pair * actual.left * actual.right
            }
            Plan::BitmapHash { build_on_left } => {
                // The bitmap is built over the build side's join keys and
                // pushed into the probe side's scan, so only probe rows with
                // a key match (≈ |join| when the build side is genuinely the
                // smaller one) cross the exchange into the join. Building on
                // the wrong (larger) side pays its bitmap construction *and*
                // pushes all of that side's rows through the join pipeline.
                let (build_rows, probe_passed) = if build_on_left {
                    (
                        actual.left,
                        if actual.left <= actual.right {
                            actual.join.min(actual.right)
                        } else {
                            actual.right
                        },
                    )
                } else {
                    (
                        actual.right,
                        if actual.right <= actual.left {
                            actual.join.min(actual.left)
                        } else {
                            actual.left
                        },
                    )
                };
                let join_work = c.join_row * (build_rows + probe_passed);
                (scan + c.bitmap_build * build_rows + join_work) / c.threads
            }
        }
    }

    /// End-to-end: plan from estimates, execute against actuals.
    pub fn latency(&self, est: &QueryCards, actual: &QueryCards) -> f64 {
        self.simulate(&self.plan(est), actual)
    }

    /// Latency with perfect estimates (the oracle plan).
    pub fn oracle_latency(&self, actual: &QueryCards) -> f64 {
        self.latency(actual, actual)
    }

    /// Worst-case latency over the plan space for these actuals — the
    /// "plans with ... inaccurate CE" side of Table 9's latency gap.
    pub fn worst_latency(&self, actual: &QueryCards) -> f64 {
        let plans: Vec<Plan> = match self.scenario {
            Scenario::S1BufferSpill => vec![
                // Grant sized from an arbitrarily bad underestimate.
                Plan::HashJoin { grant_rows: 1.0 },
                Plan::HashJoin {
                    grant_rows: f64::INFINITY,
                },
            ],
            Scenario::S2JoinType => vec![
                Plan::NestedLoop,
                Plan::HashJoin {
                    grant_rows: f64::INFINITY,
                },
            ],
            Scenario::S3BitmapSide => vec![
                Plan::BitmapHash {
                    build_on_left: true,
                },
                Plan::BitmapHash {
                    build_on_left: false,
                },
            ],
        };
        plans
            .iter()
            .map(|p| self.simulate(p, actual))
            .fold(0.0, f64::max)
    }

    /// Table 9's latency gap: worst plan over oracle plan.
    pub fn latency_gap(&self, actual: &QueryCards) -> f64 {
        self.worst_latency(actual) / self.oracle_latency(actual)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Representative §4.2 shape: TPC-H-like sizes with a moderately
    /// selective predicate on L and a more selective one on O.
    fn rep_cards() -> QueryCards {
        QueryCards {
            left: 40_000.0,
            right: 12_000.0,
            join: 9_000.0,
            left_base: 200_000.0,
            right_base: 50_000.0,
        }
    }

    #[test]
    fn s1_underestimate_spills_and_slows() {
        let ex = Executor::new(Scenario::S1BufferSpill);
        let actual = rep_cards();
        let under = QueryCards {
            left: 400.0,
            ..actual
        };
        let over = QueryCards {
            left: 400_000.0,
            ..actual
        };
        let good = ex.oracle_latency(&actual);
        let bad = ex.latency(&under, &actual);
        let over_lat = ex.latency(&over, &actual);
        assert!(bad > good * 1.5, "spill gap {}", bad / good);
        // Overestimates waste memory but have little latency impact (§4.2).
        assert!((over_lat - good).abs() < 1e-9);
    }

    #[test]
    fn s1_gap_matches_table9() {
        let ex = Executor::new(Scenario::S1BufferSpill);
        let gap = ex.latency_gap(&rep_cards());
        assert!((1.6..=2.6).contains(&gap), "S1 gap {gap}");
    }

    #[test]
    fn s2_underestimates_trigger_nested_loop() {
        let ex = Executor::new(Scenario::S2JoinType);
        let actual = rep_cards();
        // 1000× underestimates on both sides make NLJ look cheap.
        let under = QueryCards {
            left: 40.0,
            right: 12.0,
            ..actual
        };
        assert_eq!(ex.plan(&under), Plan::NestedLoop);
        assert!(matches!(ex.plan(&actual), Plan::HashJoin { .. }));
        let good = ex.oracle_latency(&actual);
        let bad = ex.latency(&under, &actual);
        assert!(bad / good > 50.0, "S2 gap {}", bad / good);
    }

    #[test]
    fn s2_gap_is_catastrophic() {
        let ex = Executor::new(Scenario::S2JoinType);
        // A larger query shape approaching paper scale shows the ~306×.
        let actual = QueryCards {
            left: 120_000.0,
            right: 30_000.0,
            join: 25_000.0,
            left_base: 600_000.0,
            right_base: 150_000.0,
        };
        let gap = ex.latency_gap(&actual);
        assert!((100.0..=1000.0).contains(&gap), "S2 gap {gap}");
    }

    #[test]
    fn s2_nlj_is_right_for_tiny_inputs() {
        let ex = Executor::new(Scenario::S2JoinType);
        let tiny = QueryCards {
            left: 20.0,
            right: 10.0,
            join: 10.0,
            left_base: 200_000.0,
            right_base: 50_000.0,
        };
        assert_eq!(ex.plan(&tiny), Plan::NestedLoop);
        // And it is genuinely no slower there.
        assert!(
            ex.latency(&tiny, &tiny)
                <= ex.simulate(
                    &Plan::HashJoin {
                        grant_rows: f64::INFINITY
                    },
                    &tiny
                ) + 1e-9
        );
    }

    #[test]
    fn s3_wrong_bitmap_side_slows() {
        let ex = Executor::new(Scenario::S3BitmapSide);
        let actual = rep_cards(); // right (12k) < left (40k) → build on right
        assert_eq!(
            ex.plan(&actual),
            Plan::BitmapHash {
                build_on_left: false
            }
        );
        // A flipped estimate picks the wrong side.
        let flipped = QueryCards {
            left: 5_000.0,
            right: 50_000.0,
            ..actual
        };
        assert_eq!(
            ex.plan(&flipped),
            Plan::BitmapHash {
                build_on_left: true
            }
        );
        assert!(ex.latency(&flipped, &actual) > ex.oracle_latency(&actual));
        // The Table-9 gap is measured on asymmetric inputs, where picking
        // the wrong side is most damaging.
        let asym = QueryCards {
            left: 120_000.0,
            right: 8_000.0,
            join: 6_000.0,
            left_base: 200_000.0,
            right_base: 50_000.0,
        };
        let gap = ex.latency_gap(&asym);
        assert!((3.0..=9.0).contains(&gap), "S3 gap {gap}");
    }

    #[test]
    fn better_estimates_never_hurt() {
        // For each scenario, the oracle plan is the fastest available.
        for s in Scenario::all() {
            let ex = Executor::new(s);
            let actual = rep_cards();
            let oracle = ex.oracle_latency(&actual);
            for f in [0.001, 0.1, 1.0, 10.0, 1000.0] {
                let est = QueryCards {
                    left: actual.left * f,
                    right: actual.right / f.max(0.5),
                    ..actual
                };
                assert!(ex.latency(&est, &actual) >= oracle - 1e-9, "{s:?} f={f}");
            }
        }
    }
}
