//! Integration tests for the experiment runner: every strategy and model
//! runs through `run_single_table`, replays are deterministic, and the
//! Δ-speedup against FT is computable; better CE translates into better
//! plans on the query-optimizer simulator (`warper_bench::qo`).

use rand::rngs::StdRng;
use rand::SeedableRng;
use warper_bench::qo::{Executor, QueryCards, Scenario, SpjTemplate};
use warper_repro::prelude::*;
use warper_repro::storage::tpch::{generate_tpch, TpchScale};
use warper_repro::workload::ArrivalProcess;

fn tiny_cfg(seed: u64) -> RunnerConfig {
    RunnerConfig {
        n_train: 250,
        n_test: 60,
        checkpoints: 3,
        arrival: ArrivalProcess {
            rate_per_sec: 0.2,
            period_secs: 450.0,
        },
        arrivals_labeled: true,
        seed,
        warper: WarperConfig {
            embed_dim: 8,
            hidden: 32,
            n_i: 8,
            pretrain_epochs: 3,
            gamma: 100,
            n_p: 60,
            ..Default::default()
        },
        ..Default::default()
    }
}

#[test]
fn every_strategy_completes_a_run() {
    let table = generate(DatasetKind::Prsa, 2_500, 31);
    let setup = DriftSetup::Workload {
        train: "w1".into(),
        new: "w3".into(),
    };
    for strategy in [
        StrategyKind::Ft,
        StrategyKind::Mix,
        StrategyKind::Aug,
        StrategyKind::Hem,
        StrategyKind::Warper,
    ] {
        let res =
            run_single_table(&table, &setup, ModelKind::LmMlp, strategy, &tiny_cfg(31)).unwrap();
        assert_eq!(res.curve.points().len(), 4, "{}", res.strategy);
        assert!(res
            .curve
            .points()
            .iter()
            .all(|(_, g)| g.is_finite() && *g >= 1.0));
        assert!(res.delta_js >= 0.0 && res.delta_js <= 1.0);
    }
}

#[test]
fn every_model_kind_completes_a_run() {
    let table = generate(DatasetKind::Poker, 2_000, 33);
    let setup = DriftSetup::Workload {
        train: "w1".into(),
        new: "w5".into(),
    };
    for model in [
        ModelKind::LmMlp,
        ModelKind::LmGbt,
        ModelKind::LmPly,
        ModelKind::LmRbf,
        ModelKind::Mscn,
    ] {
        let res =
            run_single_table(&table, &setup, model, StrategyKind::Warper, &tiny_cfg(33)).unwrap();
        assert_eq!(res.model, model.name());
        assert!(res.curve.best_gmq().unwrap().is_finite(), "{}", res.model);
    }
}

#[test]
fn combined_drift_runs() {
    let table = generate(DatasetKind::Prsa, 2_500, 35);
    let setup = DriftSetup::Combined {
        train: "w1".into(),
        new: "w2".into(),
        kind: DataDriftKind::Update { frac: 0.5 },
    };
    let mut cfg = tiny_cfg(35);
    cfg.arrivals_labeled = false;
    let res =
        run_single_table(&table, &setup, ModelKind::LmMlp, StrategyKind::Warper, &cfg).unwrap();
    // Combined drift: both data telemetry and the workload change act.
    assert!(
        res.annotated_total > 0,
        "combined drift requires annotation"
    );
}

#[test]
fn better_estimates_give_better_plans() {
    // A model's estimate error and its induced plan latency must co-move:
    // the oracle never loses, and a 100× misestimate costs latency in S1.
    let tables = generate_tpch(TpchScale::tiny(), 41);
    let mut template = SpjTemplate::new(&tables, Scenario::S1BufferSpill, "w1");
    let mut rng = StdRng::seed_from_u64(41);
    let executor = Executor::new(Scenario::S1BufferSpill);
    let queries = template.draw_many(30, &mut rng);
    let mut any_regression = false;
    for q in &queries {
        let oracle = executor.oracle_latency(&q.actual);
        let under = QueryCards {
            left: q.actual.left / 100.0,
            ..q.actual
        };
        let bad = executor.latency(&under, &q.actual);
        assert!(bad >= oracle - 1e-12);
        if q.actual.left > 1_000.0 {
            any_regression |= bad > oracle * 1.05;
        }
    }
    assert!(
        any_regression,
        "large underestimates should cause spills somewhere"
    );
}

#[test]
fn runner_is_deterministic_across_processes() {
    // Replays with the same seed must agree exactly — the basis for every
    // cross-strategy comparison in the benches.
    let table = generate(DatasetKind::Higgs, 2_000, 43);
    let setup = DriftSetup::Workload {
        train: "w2".into(),
        new: "w4".into(),
    };
    let a = run_single_table(
        &table,
        &setup,
        ModelKind::LmMlp,
        StrategyKind::Warper,
        &tiny_cfg(43),
    )
    .unwrap();
    let b = run_single_table(
        &table,
        &setup,
        ModelKind::LmMlp,
        StrategyKind::Warper,
        &tiny_cfg(43),
    )
    .unwrap();
    assert_eq!(a.curve.points(), b.curve.points());
    assert_eq!(a.generated_total, b.generated_total);
    assert_eq!(a.annotated_total, b.annotated_total);
}

#[test]
fn speedup_report_vs_ft_is_computable() {
    let table = generate(DatasetKind::Prsa, 2_500, 47);
    let setup = DriftSetup::Workload {
        train: "w12".into(),
        new: "w345".into(),
    };
    let cfg = tiny_cfg(47);
    let ft = run_single_table(&table, &setup, ModelKind::LmMlp, StrategyKind::Ft, &cfg).unwrap();
    let warper =
        run_single_table(&table, &setup, ModelKind::LmMlp, StrategyKind::Warper, &cfg).unwrap();
    let s = speedups_vs_ft(&ft.curve, &warper.curve);
    for v in [s.d05, s.d08, s.d10] {
        assert!(v.is_finite() && v > 0.0);
    }
}
