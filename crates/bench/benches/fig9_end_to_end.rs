//! **Figure 9**: end-to-end query performance under continuous drifts.
//!
//! For each plan-choice scenario (S1 buffer spill, S2 join type, S3 bitmap
//! side) and each continuous drift (A: persistent w1→w2; B: short-lived
//! w1→w4→w1; C: w1 workload shift + data drift), this harness replays the
//! test period and reports, per adaptation step, the CE model's GMQ on the
//! live workload and the average simulated query latency of the plans the
//! optimizer picks with the model's estimates — for no adaptation, FT and
//! Warper — next to the oracle latency from true cardinalities.
//!
//! Paper shape: drifts cause up to ~1000× GMQ and 30–300% latency
//! regressions; faster adaptation shortens the regression window.

use rand::rngs::StdRng;
use rand::SeedableRng;
use warper_bench::qo::{Executor, QueryCards, Scenario, SpjTemplate, TemplateQuery};
use warper_bench::{ft_or_warper, print_table, save_results, Scale};
use warper_ce::lm::{LmMlp, LmMlpParams};
use warper_ce::{CardinalityEstimator, LabeledExample};
use warper_core::baselines::ArrivedQuery;
use warper_core::detect::{CanarySet, DataTelemetry};
use warper_core::runner::StrategyKind;
use warper_core::WarperConfig;
use warper_metrics::{gmq, PAPER_THETA};
use warper_query::{Annotator, Featurizer};
use warper_storage::drift::{sort_and_truncate_half, ChangeLog};
use warper_storage::tpch::{generate_tpch, TpchScale};

/// Which continuous drift is replayed (§4.2).
#[derive(Clone, Copy, PartialEq)]
enum Drift {
    /// Persistent workload shift w1 → w2.
    A,
    /// Short-lived: w4 for the first half, back to w1.
    B,
    /// Workload back to w1 plus a data drift on lineitem.
    C,
}

impl Drift {
    fn name(&self) -> &'static str {
        match self {
            Drift::A => "Drift A (w1→w2)",
            Drift::B => "Drift B (w1→w4→w1)",
            Drift::C => "Drift C (w1 + data drift)",
        }
    }

    fn workload_at(&self, step: usize, steps: usize) -> &'static str {
        match self {
            Drift::A => "w2",
            Drift::B => {
                if step <= steps / 2 {
                    "w4"
                } else {
                    "w1"
                }
            }
            Drift::C => "w1",
        }
    }
}

fn main() {
    let scale = Scale::from_env();
    let tpch_scale = match scale {
        Scale::Small => TpchScale { orders: 12_000 },
        Scale::Full => TpchScale { orders: 60_000 },
    };
    let steps = 8;
    let arrivals_per_step = 25;

    let mut json = serde_json::Map::new();
    for scenario in Scenario::all() {
        for drift in [Drift::A, Drift::B, Drift::C] {
            let mut rows = Vec::new();
            let mut series = serde_json::Map::new();
            for method in [None, Some(StrategyKind::Ft), Some(StrategyKind::Warper)] {
                let method_name = method.map_or("no-adapt", |m| m.name());
                let (gmqs, lats, oracle) = run_one(
                    scenario,
                    drift,
                    method,
                    tpch_scale,
                    steps,
                    arrivals_per_step,
                );
                series.insert(
                    method_name.to_string(),
                    serde_json::json!({ "gmq": gmqs, "latency": lats, "oracle": oracle }),
                );
                rows.push(vec![
                    method_name.to_string(),
                    gmqs.iter()
                        .map(|g| format!("{g:.1}"))
                        .collect::<Vec<_>>()
                        .join(" "),
                    lats.iter()
                        .zip(&oracle)
                        .map(|(l, o)| format!("{:.0}%", 100.0 * (l / o - 1.0)))
                        .collect::<Vec<_>>()
                        .join(" "),
                ]);
            }
            print_table(
                &format!("Figure 9 [{} × {}]", scenario.name(), drift.name()),
                &[
                    "method",
                    "GMQ per step",
                    "latency regression vs oracle per step",
                ],
                &rows,
            );
            json.insert(
                format!("{}-{}", scenario.name(), drift.name()),
                serde_json::Value::Object(series),
            );
        }
    }
    save_results("fig9_end_to_end", &serde_json::Value::Object(json));
}

/// Replays one (scenario × drift × method, `None` = no adaptation); returns
/// per-step GMQ, average latency with model estimates, and the oracle
/// latency.
fn run_one(
    scenario: Scenario,
    drift: Drift,
    method: Option<StrategyKind>,
    tpch_scale: TpchScale,
    steps: usize,
    arrivals_per_step: usize,
) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut tables = generate_tpch(tpch_scale, 11);
    let lf = Featurizer::from_table(&tables.lineitem);
    let of = Featurizer::from_table(&tables.orders);
    let annotator = Annotator::new();
    let mut rng = StdRng::seed_from_u64(31);

    // Seed CE models trained on w1 over each table.
    let train_side =
        |table: &warper_storage::Table, f: &Featurizer, seed: u64, rng: &mut StdRng| {
            let mut gen = warper_workload::QueryGenerator::from_notation(table, "w1");
            let preds = gen.generate_many(700, rng);
            let cards = annotator.count_batch(table, &preds);
            let set: Vec<(Vec<f64>, f64)> = preds
                .iter()
                .zip(&cards)
                .map(|(p, &c)| (f.featurize(p), c as f64))
                .collect();
            let mut m = LmMlp::new(f.dim(), LmMlpParams::default(), seed);
            let ex: Vec<LabeledExample> = set
                .iter()
                .map(|(q, c)| LabeledExample::new(q.clone(), *c))
                .collect();
            m.fit(&ex);
            let baseline = {
                let ests: Vec<f64> = set.iter().map(|(q, _)| m.estimate(q)).collect();
                let actuals: Vec<f64> = set.iter().map(|(_, c)| *c).collect();
                gmq(&ests, &actuals, PAPER_THETA)
            };
            (m, set, baseline)
        };
    let (mut model_l, train_l, base_l) = train_side(&tables.lineitem, &lf, 1, &mut rng);
    let (mut model_o, train_o, base_o) = train_side(&tables.orders, &of, 2, &mut rng);

    let changelog = ChangeLog::mark(&tables.lineitem);
    let mut canaries = CanarySet::new(&tables.lineitem, 8, &mut rng);

    // One strategy per table: lineitem, then orders.
    let mut strategies = method.map(|m| {
        let make = |set: &[(Vec<f64>, f64)], f: &Featurizer, base: f64, seed: u64| {
            let f2 = f.clone();
            let canon = Box::new(move |q: &[f64]| {
                f2.featurize(&f2.defeaturize(q).keep_most_selective(f2.domains(), 2))
            });
            let cfg = WarperConfig {
                gamma: 150,
                ..Default::default()
            };
            ft_or_warper(m, set, f.dim(), base, cfg, seed, canon)
        };
        [
            make(&train_l, &lf, base_l, 3),
            make(&train_o, &of, base_o, 4),
        ]
    });

    // Drift C mutates the data before the first step.
    if drift == Drift::C {
        sort_and_truncate_half(&mut tables.lineitem, 1);
    }

    let executor = Executor::new(scenario);
    let mut gmqs = Vec::with_capacity(steps);
    let mut lats = Vec::with_capacity(steps);
    let mut oracles = Vec::with_capacity(steps);

    for step in 1..=steps {
        let workload = drift.workload_at(step, steps);
        let mut template = SpjTemplate::new(&tables, scenario, workload);
        let arrived_queries = template.draw_many(arrivals_per_step, &mut rng);

        // Per-side arrived batches with execution-feedback labels.
        let to_arrived = |q: &TemplateQuery| {
            (
                ArrivedQuery {
                    features: lf.featurize(&q.join.left_pred),
                    gt: Some(q.actual.left),
                },
                ArrivedQuery {
                    features: of.featurize(&q.join.right_pred),
                    gt: Some(q.actual.right),
                },
            )
        };
        let (arr_l, arr_o): (Vec<_>, Vec<_>) = arrived_queries.iter().map(to_arrived).unzip();
        let telemetry = DataTelemetry {
            changed_fraction: changelog.changed_fraction(&tables.lineitem),
            canary_max_change: canaries.max_relative_change(&tables.lineitem),
            ..Default::default()
        };
        {
            let lineitem = &tables.lineitem;
            let orders = &tables.orders;
            let mut anno_l = |qs: &[Vec<f64>]| -> Vec<Option<f64>> {
                qs.iter()
                    .map(|q| Some(annotator.count(lineitem, &lf.defeaturize(q)) as f64))
                    .collect()
            };
            let mut anno_o = |qs: &[Vec<f64>]| -> Vec<Option<f64>> {
                qs.iter()
                    .map(|q| Some(annotator.count(orders, &of.defeaturize(q)) as f64))
                    .collect()
            };
            if let Some([sl, so]) = &mut strategies {
                sl.step(&mut model_l, &arr_l, &telemetry, &mut anno_l);
                so.step(&mut model_o, &arr_o, &telemetry, &mut anno_o);
            }
        }

        // Evaluate on fresh queries from the live workload.
        let eval_queries = template.draw_many(30, &mut rng);
        let mut ests = Vec::new();
        let mut actuals = Vec::new();
        let mut lat = 0.0;
        let mut oracle = 0.0;
        for q in &eval_queries {
            let est = QueryCards {
                left: model_l.estimate(&lf.featurize(&q.join.left_pred)),
                right: model_o.estimate(&of.featurize(&q.join.right_pred)),
                ..q.actual
            };
            ests.push(est.left);
            actuals.push(q.actual.left);
            lat += executor.latency(&est, &q.actual);
            oracle += executor.oracle_latency(&q.actual);
        }
        gmqs.push(gmq(&ests, &actuals, PAPER_THETA));
        lats.push(lat / eval_queries.len() as f64);
        oracles.push(oracle / eval_queries.len() as f64);
    }
    canaries.rebaseline(&tables.lineitem);
    (gmqs, lats, oracles)
}
