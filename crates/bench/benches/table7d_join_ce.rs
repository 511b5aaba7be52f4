//! **Table 7d**: join cardinality estimation — adapting MSCN on an
//! IMDB-like star schema under a w4 → w1 workload drift at one query per
//! minute.
//!
//! Paper values: Δ.5 = 2.1×, Δ.8 = 2.8×, Δ1 = 1.1×.

use warper_bench::{join_ce, mean_speedups, print_table, save_results, Scale};
use warper_core::runner::StrategyKind;
use warper_metrics::speedups_vs_ft;

fn main() {
    let scale = Scale::from_env();
    let runs = scale.runs();
    let mut speedups = Vec::new();
    let mut curves = Vec::new();
    for r in 0..runs {
        let seed = 5 + 31 * r as u64;
        let ft = join_ce::run(scale, StrategyKind::Ft, seed);
        let warper = join_ce::run(scale, StrategyKind::Warper, seed);
        speedups.push(speedups_vs_ft(&ft, &warper));
        curves.push((ft, warper));
    }
    let d = mean_speedups(&speedups);
    let rows = vec![vec![
        "IMDB".to_string(),
        "c2".to_string(),
        "w4/w1".to_string(),
        "MSCN".to_string(),
        format!("{:.1}", d.d05),
        format!("{:.1}", d.d08),
        format!("{:.1}", d.d10),
    ]];
    print_table(
        "Table 7d: join CE on the IMDB-like schema (1 query/min)",
        &["Dataset", "Cs", "Wkld", "Model", "Δ.5", "Δ.8", "Δ1"],
        &rows,
    );
    println!("(paper: 2.1 / 2.8 / 1.1)");
    let (ft, warper) = &curves[0];
    println!("sample curves (run 0):");
    println!("  FT:     {}", warper_bench::fmt_curve(ft.points()));
    println!("  Warper: {}", warper_bench::fmt_curve(warper.points()));
    save_results(
        "table7d_join_ce",
        &serde_json::json!({
            "d05": d.d05, "d08": d.d08, "d10": d.d10,
        }),
    );
}
