//! **Table 9**: the latency gap between plans chosen with accurate vs
//! inaccurate cardinality estimates, per scenario.
//!
//! Paper values: S1 2.1×, S2 306×, S3 5.3×. Absolute latencies are from the
//! calibrated simulator, so only the ratios are compared.

use rand::rngs::StdRng;
use rand::SeedableRng;
use warper_bench::qo::{Executor, Scenario, SpjTemplate};
use warper_bench::{print_table, save_results, Scale};
use warper_storage::tpch::{generate_tpch, TpchScale};

fn main() {
    let scale = Scale::from_env();
    let tpch_scale = match scale {
        Scale::Small => TpchScale { orders: 20_000 },
        Scale::Full => TpchScale { orders: 120_000 },
    };
    let tables = generate_tpch(tpch_scale, 11);
    let mut rng = StdRng::seed_from_u64(9);

    let mut rows = Vec::new();
    let mut json = serde_json::Map::new();
    for scenario in Scenario::all() {
        // Max latency gap across drawn template queries, as the paper
        // defines it ("max latency difference between plans with accurate
        // and inaccurate CE").
        let mut template = SpjTemplate::new(&tables, scenario, "w1");
        let executor = Executor::new(scenario);
        let queries = template.draw_many(100, &mut rng);
        let max_gap = queries
            .iter()
            .map(|q| executor.latency_gap(&q.actual))
            .fold(0.0, f64::max);
        let (threads, preds) = match scenario {
            Scenario::S1BufferSpill => ("Single thread", "L"),
            Scenario::S2JoinType => ("Single thread", "L, O"),
            Scenario::S3BitmapSide => ("Multi-thread", "L, O"),
        };
        let paper = match scenario {
            Scenario::S1BufferSpill => "2.1x",
            Scenario::S2JoinType => "306x",
            Scenario::S3BitmapSide => "5.3x",
        };
        rows.push(vec![
            scenario.name().to_string(),
            threads.to_string(),
            preds.to_string(),
            format!("{max_gap:.1}x"),
            paper.to_string(),
        ]);
        json.insert(scenario.name().to_string(), serde_json::json!(max_gap));
    }
    print_table(
        "Table 9: queries used in §4.2 (latency gap = worst/oracle plan)",
        &[
            "Query setting",
            "Executed as",
            "Predicate on",
            "Latency gap (measured)",
            "(paper)",
        ],
        &rows,
    );
    save_results("table9_plan_gaps", &serde_json::Value::Object(json));
}
