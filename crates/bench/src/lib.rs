//! Shared harness utilities for the per-table / per-figure experiment
//! benches.
//!
//! Every artifact in the paper's evaluation (§4) has a `[[bench]]` target in
//! this crate (see DESIGN.md §4 for the full index). The targets are plain
//! `main` functions (`harness = false`) that print paper-shaped rows, so
//! `cargo bench --workspace` regenerates the entire evaluation; Criterion
//! microbenchmarks of the component costs live in the `micro` target.
//!
//! Scale is controlled by the `WARPER_SCALE` environment variable:
//! `small` (default — minutes for the whole suite) or `full` (closer to
//! paper scale).
//!
//! Two experiment-only substrates live here too: [`qo`], the simulated
//! query optimizer of the §4.2 end-to-end study (Figures 1 and 9, Table 9),
//! and [`join_ce`], the §4.1.2 join-CE study (Table 7d).

use std::time::Instant;

use warper_core::baselines::{AdaptStrategy, FineTuneStrategy};
use warper_core::controller::{CanonicalizeFn, WarperStrategy};
use warper_core::runner::{
    run_single_table, DriftSetup, ModelKind, RunResult, RunnerConfig, StrategyKind,
};
use warper_core::{WarperConfig, WarperController};
use warper_metrics::{speedups_vs_ft, SpeedupReport};
use warper_storage::{generate, DatasetKind, Table};
use warper_workload::ArrivalProcess;

pub mod qo;

/// The repository root, anchored on this crate's manifest (two levels down
/// from it) and not on the working directory: a copy of the workspace under
/// a directory with no `Cargo.lock` above it must not publish at `/`.
pub fn repo_root() -> std::path::PathBuf {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    root.canonicalize().unwrap_or(root)
}

/// Writes `results` (a JSON object) as `BENCH_<name>.json` at the
/// [`repo_root`], stamped with what a reader needs before comparing it to
/// another file: commit, core count, SIMD tier and compiler.
pub fn publish_bench(name: &str, mut results: serde_json::Value) {
    let root = repo_root();
    let tool = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .current_dir(&root)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map(|s| s.trim().to_string())
    };
    let unknown = || "unknown".to_string();
    let commit = tool("git", &["rev-parse", "--short", "HEAD"]).map_or_else(unknown, |head| {
        match tool("git", &["status", "--porcelain", "--untracked-files=no"]) {
            Some(changes) if !changes.is_empty() => head + "+dirty",
            _ => head,
        }
    });
    let stamp = serde_json::json!({
        "commit": commit,
        "cores": std::thread::available_parallelism().map_or(1, |p| p.get()),
        "simd": warper_linalg::active_backend_name(),
        "rustc": tool("rustc", &["--version"]).unwrap_or_else(unknown),
    });
    match &mut results {
        serde_json::Value::Object(map) => {
            map.insert("measured_on".into(), stamp);
        }
        other => panic!("bench results must be a JSON object, got {other:?}"),
    }
    let json = serde_json::to_string_pretty(&results).expect("results serialize");
    let path = root.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Fast defaults: small tables, few repetitions.
    Small,
    /// Larger tables and more repetitions (closer to the paper).
    Full,
}

impl Scale {
    /// Reads `WARPER_SCALE` (`small` | `full`), defaulting to small.
    pub fn from_env() -> Scale {
        match std::env::var("WARPER_SCALE").as_deref() {
            Ok("full") | Ok("FULL") => Scale::Full,
            _ => Scale::Small,
        }
    }

    /// Table rows for a dataset at this scale.
    pub fn rows(&self, kind: DatasetKind) -> usize {
        match self {
            Scale::Small => kind.default_rows() / 2,
            Scale::Full => kind.default_rows() * 4,
        }
    }

    /// Independent repetitions per configuration (the paper runs 10).
    pub fn runs(&self) -> usize {
        match self {
            Scale::Small => 2,
            Scale::Full => 5,
        }
    }

    /// Training-set size.
    pub fn n_train(&self) -> usize {
        match self {
            Scale::Small => 800,
            Scale::Full => 2000,
        }
    }
}

/// The runner configuration shared by the experiment benches.
pub fn bench_runner_config(scale: Scale, seed: u64) -> RunnerConfig {
    RunnerConfig {
        n_train: scale.n_train(),
        n_test: 150,
        checkpoints: 10,
        arrival: ArrivalProcess::paper_default(),
        arrivals_labeled: true,
        seed,
        warper: WarperConfig::default(),
        ..Default::default()
    }
}

/// Generates a dataset at bench scale.
pub fn bench_table(kind: DatasetKind, scale: Scale, seed: u64) -> Table {
    generate(kind, scale.rows(kind), seed)
}

/// One (dataset × model × drift) comparison of a method against FT,
/// averaged over `runs` seeds: the Δ-speedups plus the per-run results.
pub struct Comparison {
    /// Averaged speedups.
    pub speedups: SpeedupReport,
    /// Mean δ_m across runs.
    pub delta_m: f64,
    /// Mean δ_js across runs.
    pub delta_js: f64,
    /// The method's runs.
    pub method_runs: Vec<RunResult>,
    /// The FT reference runs.
    pub ft_runs: Vec<RunResult>,
}

/// Runs `method` and FT on identical replays over `runs` seeds and computes
/// the paper's Δ-speedup triple (averaged geometrically across runs).
///
/// # Panics
/// Panics if a run fails (bench configurations are static and known-good, so
/// a failure is a bug worth a loud stop, not a degraded row).
pub fn compare_to_ft(
    table: &Table,
    setup: &DriftSetup,
    model: ModelKind,
    method: StrategyKind,
    base_cfg: &RunnerConfig,
    runs: usize,
) -> Comparison {
    let mut speedups = Vec::new();
    let mut delta_m = Vec::new();
    let mut delta_js = Vec::new();
    let mut method_runs = Vec::new();
    let mut ft_runs = Vec::new();
    for r in 0..runs {
        let cfg = RunnerConfig {
            seed: base_cfg.seed + 97 * r as u64,
            ..*base_cfg
        };
        let ft = run_single_table(table, setup, model, StrategyKind::Ft, &cfg)
            .unwrap_or_else(|e| panic!("FT reference run failed: {e}"));
        let m = run_single_table(table, setup, model, method, &cfg)
            .unwrap_or_else(|e| panic!("{} run failed: {e}", method.name()));
        speedups.push(speedups_vs_ft(&ft.curve, &m.curve));
        delta_m.push(m.delta_m);
        delta_js.push(m.delta_js);
        method_runs.push(m);
        ft_runs.push(ft);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    Comparison {
        speedups: mean_speedups(&speedups),
        delta_m: mean(&delta_m),
        delta_js: mean(&delta_js),
        method_runs,
        ft_runs,
    }
}

/// The per-run Δ-speedups averaged geometrically, each λ on its own (a
/// speedup below 1e-6 counts as 1e-6).
pub fn mean_speedups(runs: &[SpeedupReport]) -> SpeedupReport {
    let gmean = |d: fn(&SpeedupReport) -> f64| {
        (runs.iter().map(|s| d(s).max(1e-6).ln()).sum::<f64>() / runs.len() as f64).exp()
    };
    SpeedupReport {
        d05: gmean(|s| s.d05),
        d08: gmean(|s| s.d08),
        d10: gmean(|s| s.d10),
    }
}

/// FT or unsupervised Warper as one [`AdaptStrategy`], for the studies that
/// drive a model by hand ([`join_ce`], Figure 9): FT annotates every
/// unlabelled arrival, Warper canonicalizes what it generates with `canon`.
///
/// # Panics
/// Panics on any `method` other than FT or Warper.
pub fn ft_or_warper(
    method: StrategyKind,
    training_set: &[(Vec<f64>, f64)],
    feature_dim: usize,
    baseline_gmq: f64,
    cfg: WarperConfig,
    seed: u64,
    canon: CanonicalizeFn,
) -> Box<dyn AdaptStrategy> {
    match method {
        StrategyKind::Ft => Box::new(FineTuneStrategy::new(training_set, None, seed)),
        StrategyKind::Warper => Box::new(WarperStrategy::new(
            WarperController::new(feature_dim, training_set, baseline_gmq, cfg, seed)
                .with_canonicalizer(canon),
        )),
        other => panic!("{} is neither FT nor Warper", other.name()),
    }
}

/// Prints an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&header_cells));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Formats an adaptation curve as `q→gmq` checkpoints.
pub fn fmt_curve(points: &[(f64, f64)]) -> String {
    points
        .iter()
        .map(|(q, g)| format!("{q:.0}→{g:.2}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Wall-clock a closure, returning (result, seconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Writes a JSON results blob under `target/warper-results/` so
/// EXPERIMENTS.md entries can be traced back to raw outputs.
pub fn save_results(name: &str, json: &serde_json::Value) {
    let dir = std::path::Path::new("target/warper-results");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(format!("{name}.json"));
        if let Ok(s) = serde_json::to_string_pretty(json) {
            let _ = std::fs::write(&path, s);
            println!("(raw results: {})", path.display());
        }
    }
}

/// The §4.1.2 join-CE experiment (Table 7d): MSCN over an IMDB-like star
/// schema, workload drift w4 → w1 at one query per minute.
pub mod join_ce {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use warper_ce::mscn::{Mscn, MscnFeaturizer};
    use warper_ce::{CardinalityEstimator, LabeledExample};
    use warper_core::baselines::ArrivedQuery;
    use warper_core::detect::DataTelemetry;
    use warper_core::runner::StrategyKind;
    use warper_core::WarperConfig;
    use warper_metrics::{gmq, AdaptationCurve, PAPER_THETA};
    use warper_query::{join_count, Featurizer, JoinQuery, RangePredicate};
    use warper_storage::imdb::{generate_imdb, ImdbTables};
    use warper_storage::Table;
    use warper_workload::{ArrivalProcess, QueryGenerator};

    use super::{ft_or_warper, Scale};

    /// The two PK–FK joins of the schema.
    fn join_tables(db: &ImdbTables, join_id: usize) -> (&Table, &Table) {
        match join_id {
            0 => (&db.cast_info, &db.title),
            _ => (&db.movie_info, &db.title),
        }
    }

    fn draw_query(db: &ImdbTables, workload: &str, rng: &mut StdRng) -> (usize, JoinQuery) {
        let join_id = rng.random_range(0..2usize);
        let (fact, dim) = join_tables(db, join_id);
        let mut fact_gen = QueryGenerator::from_notation(fact, workload);
        let mut dim_gen = QueryGenerator::from_notation(dim, workload);
        let mut left_pred = fact_gen.generate(rng);
        let mut right_pred = dim_gen.generate(rng);
        let fd = fact.domains();
        let dd = dim.domains();
        left_pred.lows[0] = fd[0].0;
        left_pred.highs[0] = fd[0].1;
        right_pred.lows[0] = dd[0].0;
        right_pred.highs[0] = dd[0].1;
        (
            join_id,
            JoinQuery {
                left_pred,
                right_pred,
                left_key: 0,
                right_key: 0,
            },
        )
    }

    fn featurize(mf: &MscnFeaturizer, join_id: usize, q: &JoinQuery) -> Vec<f64> {
        let fact_table = if join_id == 0 { 1 } else { 2 };
        mf.featurize(
            &[(fact_table, &q.left_pred), (0, &q.right_pred)],
            &[join_id],
        )
    }

    fn annotate(mf: &MscnFeaturizer, db: &ImdbTables, feat: &[f64]) -> f64 {
        let (preds, joins) = mf.defeaturize(feat);
        let join_id = joins.first().copied().unwrap_or(0);
        let (fact, dim) = join_tables(db, join_id);
        let fact_idx = if join_id == 0 { 1 } else { 2 };
        let left_pred = preds[fact_idx]
            .clone()
            .unwrap_or_else(|| RangePredicate::unconstrained(&fact.domains()));
        let right_pred = preds[0]
            .clone()
            .unwrap_or_else(|| RangePredicate::unconstrained(&dim.domains()));
        let q = JoinQuery {
            left_pred,
            right_pred,
            left_key: 0,
            right_key: 0,
        };
        join_count(fact, dim, &q) as f64
    }

    /// Runs the experiment for one method, FT or Warper.
    pub fn run(scale: Scale, method: StrategyKind, seed: u64) -> AdaptationCurve {
        let titles = match scale {
            Scale::Small => 6_000,
            Scale::Full => 20_000,
        };
        let db = generate_imdb(titles, 3);
        let mf = MscnFeaturizer::new(
            vec![
                Featurizer::from_table(&db.title),
                Featurizer::from_table(&db.cast_info),
                Featurizer::from_table(&db.movie_info),
            ],
            2,
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let n_train = match scale {
            Scale::Small => 600,
            Scale::Full => 1600,
        };
        let make_set = |workload: &str, n: usize, rng: &mut StdRng| -> Vec<(Vec<f64>, f64)> {
            (0..n)
                .map(|_| {
                    let (jid, q) = draw_query(&db, workload, rng);
                    let f = featurize(&mf, jid, &q);
                    let card = annotate(&mf, &db, &f);
                    (f, card)
                })
                .collect()
        };
        let train = make_set("w4", n_train, &mut rng);
        let base_set = make_set("w4", 100, &mut rng);
        let test = make_set("w1", 120, &mut rng);

        let mut model = Mscn::new(mf.config(), 17);
        let examples: Vec<LabeledExample> = train
            .iter()
            .map(|(f, c)| LabeledExample::new(f.clone(), *c))
            .collect();
        model.fit(&examples);
        let eval = |m: &Mscn, set: &[(Vec<f64>, f64)]| {
            let ests: Vec<f64> = set.iter().map(|(f, _)| m.estimate(f)).collect();
            let actuals: Vec<f64> = set.iter().map(|(_, c)| *c).collect();
            gmq(&ests, &actuals, PAPER_THETA)
        };
        let baseline = eval(&model, &base_set);

        let mf2 = mf.clone();
        let mut strategy = ft_or_warper(
            method,
            &train,
            mf.config().feature_dim(),
            baseline,
            WarperConfig {
                gamma: 100,
                n_p: 200,
                ..Default::default()
            },
            seed,
            Box::new(move |f: &[f64]| mf2.canonicalize(f, 2)),
        );

        // One query per minute over the paper's 30-minute period.
        let arrival = ArrivalProcess {
            rate_per_sec: 1.0 / 60.0,
            period_secs: 1800.0,
        };
        let steps = 6;
        let mut run_rng = StdRng::seed_from_u64(seed ^ 0x77);
        let mut curve = AdaptationCurve::new();
        curve.push(0.0, eval(&model, &test));
        let mut prev = 0;
        for s in 1..=steps {
            let t = arrival.period_secs * s as f64 / steps as f64;
            let total = arrival.arrived_by(t);
            let batch = total - prev;
            prev = total;
            let arrived: Vec<ArrivedQuery> = (0..batch)
                .map(|_| {
                    let (jid, q) = draw_query(&db, "w1", &mut run_rng);
                    let f = featurize(&mf, jid, &q);
                    let gt = annotate(&mf, &db, &f);
                    ArrivedQuery {
                        features: f,
                        gt: Some(gt),
                    }
                })
                .collect();
            let mut annotate_cb = |qs: &[Vec<f64>]| -> Vec<Option<f64>> {
                qs.iter().map(|f| Some(annotate(&mf, &db, f))).collect()
            };
            strategy.step(
                &mut model,
                &arrived,
                &DataTelemetry::default(),
                &mut annotate_cb,
            );
            curve.push(total as f64, eval(&model, &test));
        }
        curve
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_env_parsing() {
        // Default is Small (env not set in tests).
        assert_eq!(Scale::from_env(), Scale::Small);
        assert!(Scale::Full.rows(DatasetKind::Prsa) > Scale::Small.rows(DatasetKind::Prsa));
        assert!(Scale::Full.runs() > Scale::Small.runs());
    }

    #[test]
    fn fmt_helpers() {
        let s = fmt_curve(&[(0.0, 7.0), (36.0, 3.5)]);
        assert_eq!(s, "0→7.00 36→3.50");
        let (v, secs) = timed(|| 42);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }
}
