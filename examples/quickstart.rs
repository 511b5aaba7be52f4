//! Quickstart: adapt an LM-mlp cardinality estimator to a workload drift
//! with Warper, and compare against plain fine-tuning.
//!
//! Reproduces a miniature version of the paper's Figure 6 on the PRSA-like
//! dataset: the model is trained on a w1+w2 workload, the live workload
//! drifts to w3+w4+w5, and we watch the GMQ (geometric mean q-error) recover
//! under each adaptation strategy.
//!
//! Run with: `cargo run --release --example quickstart`

use warper_repro::prelude::*;

fn main() {
    // 1. A PRSA-like table (schema of paper Table 4, synthetic contents).
    let table = generate(DatasetKind::Prsa, 20_000, 7);
    println!("dataset: {:?}", table.profile());

    // 2. Workload drift c2: train on w12, drift to w345 — the headline
    //    configuration of the paper's Figure 6 / Table 7a.
    let setup = DriftSetup::Workload {
        train: "w12".into(),
        new: "w345".into(),
    };
    let cfg = RunnerConfig {
        n_train: 1000,
        n_test: 150,
        seed: 7,
        ..Default::default()
    };

    // 3. Run FT (the baseline every speedup is measured against) and Warper
    //    on byte-identical workload replays.
    println!("\nadapting LM-mlp to the drift:");
    let mut results = Vec::new();
    for strategy in [StrategyKind::Ft, StrategyKind::Warper] {
        let res = run_single_table(&table, &setup, ModelKind::LmMlp, strategy, &cfg).expect("run");
        println!(
            "  {:<8} δ_m={:>5.2} δ_js={:.2}  curve: {}",
            res.strategy,
            res.delta_m,
            res.delta_js,
            res.curve
                .points()
                .iter()
                .map(|(q, g)| format!("({q:.0} queries → GMQ {g:.2})"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        results.push(res);
    }

    // 4. The paper's Δ-speedup metric: how many times fewer new-workload
    //    queries Warper needs than FT to reach the same accuracy.
    let ft = &results[0];
    let warper = &results[1];
    let speedups = speedups_vs_ft(&ft.curve, &warper.curve);
    println!(
        "\nWarper speedup over FT: Δ.5 = {:.1}x, Δ.8 = {:.1}x, Δ1 = {:.1}x",
        speedups.d05, speedups.d08, speedups.d10
    );
    println!(
        "Warper costs: {} generated, {} annotated, {:.2}s annotating, {:.2}s adapting",
        warper.generated_total, warper.annotated_total, warper.annotate_secs, warper.adapt_secs
    );
}
