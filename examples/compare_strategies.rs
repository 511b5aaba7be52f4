//! Compare every adaptation strategy on one workload drift — a miniature of
//! the paper's Figure 6 plus the §4.3 ablations, on one dataset.
//!
//! All strategies replay byte-identical workloads (same seeds), so the GMQ
//! columns are directly comparable. Expected shape (paper §4.1.1 / Table
//! 10): Warper at least matches FT and converges lower; AUG/HEM sit between
//! FT and Warper; MIX is erratic; the ablated Warpers trail the full one.
//!
//! Run with: `cargo run --release --example compare_strategies`

use warper_repro::prelude::*;
use warper_repro::warper::controller::GenKind;
use warper_repro::warper::picker::PickerKind;

fn main() {
    let table = generate(DatasetKind::Prsa, 20_000, 7);
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

    println!(
        "{:<16} {:>4} {:>5} {:>6}  GMQ at 0%..100% of the test period",
        "strategy", "gen", "anno", "Δ_m"
    );
    let mut ft_curve = None;
    for strategy in [
        StrategyKind::Ft,
        StrategyKind::Mix,
        StrategyKind::Aug,
        StrategyKind::Hem,
        StrategyKind::Warper,
        StrategyKind::WarperAblated {
            picker: PickerKind::Random,
            gen: GenKind::Gan,
        },
        StrategyKind::WarperAblated {
            picker: PickerKind::Entropy,
            gen: GenKind::Gan,
        },
        StrategyKind::WarperAblated {
            picker: PickerKind::Warper,
            gen: GenKind::Noise,
        },
    ] {
        let res = run_single_table(&table, &setup, ModelKind::LmMlp, strategy, &cfg).expect("run");
        let pts: Vec<String> = res
            .curve
            .points()
            .iter()
            .map(|(_, g)| format!("{g:.2}"))
            .collect();
        println!(
            "{:<16} {:>4} {:>5} {:>6.2}  [{}]",
            res.strategy,
            res.generated_total,
            res.annotated_total,
            res.delta_m,
            pts.join(", ")
        );
        if strategy == StrategyKind::Ft {
            ft_curve = Some(res);
        } else if strategy == StrategyKind::Warper {
            // Report the paper's Δ-speedups for the headline pair.
            let ft = ft_curve.as_ref().unwrap();
            let s = speedups_vs_ft(&ft.curve, &res.curve);
            println!(
                "{:<16} Δ.5={:.1}x Δ.8={:.1}x Δ1={:.1}x (vs FT)",
                "  → speedups", s.d05, s.d08, s.d10
            );
        }
    }
}
