//! `warper-benchmark compare <dirA> <dirB>`: holds two sets of result files
//! against each other with the bounds `BENCHMARK.json` fixes.
//!
//! Per (workload, metric) it prints both medians, both quartile pairs and
//! the bound. It exits non-zero when an end-to-end median differs by more
//! than its bound, or when a count that must repeat exactly (labels, rows
//! scanned, WAL appends, estimate checksum, `adapt_gmq`) differs at all
//! between two runs of the same workload and seed. A median beyond its bound
//! in a set whose own interquartile spread is wider than the bound is
//! reported as unresolved, not as a difference: those runs cannot tell.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use serde_json::Value;

use crate::stats::quartiles;

/// One parsed result file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunFile {
    pub workload: String,
    pub seed: u64,
    pub trace: u64,
    pub correct: bool,
    pub metrics: BTreeMap<String, f64>,
    pub exact: BTreeMap<String, String>,
    pub calib_mops: Option<f64>,
}

/// `name → bound` of the end-to-end metrics.
pub type Bounds = BTreeMap<String, f64>;

/// The runs of one (workload, trace) pair in set A and in set B.
type Pairing<'a> = (Vec<&'a RunFile>, Vec<&'a RunFile>);

pub(crate) fn obj(v: &Value) -> Option<&serde_json::Map> {
    match v {
        Value::Object(m) => Some(m),
        _ => None,
    }
}

pub(crate) fn num(v: Option<&Value>) -> Option<f64> {
    match v {
        Some(Value::Number(n)) => Some(*n),
        _ => None,
    }
}

pub(crate) fn text(v: Option<&Value>) -> Option<String> {
    match v {
        Some(Value::String(s)) => Some(s.clone()),
        _ => None,
    }
}

pub fn parse_run(src: &str) -> Option<RunFile> {
    let v: Value = serde_json::from_str(src.trim()).ok()?;
    let o = obj(&v)?;
    let mut run = RunFile {
        workload: text(o.get("workload"))?,
        seed: num(o.get("seed"))? as u64,
        trace: num(o.get("trace"))? as u64,
        correct: matches!(o.get("correct"), Some(Value::Bool(true))),
        ..RunFile::default()
    };
    for (name, m) in obj(o.get("metrics")?)?.iter() {
        run.metrics.insert(name.clone(), num(obj(m)?.get("value"))?);
    }
    if let Some(exact) = o.get("exact").and_then(obj) {
        for (k, v) in exact.iter() {
            run.exact.insert(k.clone(), text(Some(v))?);
        }
    }
    run.calib_mops = o
        .get("info")
        .and_then(obj)
        .and_then(|i| num(i.get("host.calib_mops")))
        .or_else(|| run.metrics.get("host.calib_mops").copied());
    Some(run)
}

pub fn parse_bounds(src: &str) -> Option<Bounds> {
    let v: Value = serde_json::from_str(src).ok()?;
    let Value::Array(list) = obj(&v)?.get("end_to_end")? else {
        return None;
    };
    let mut bounds = Bounds::new();
    for m in list {
        let m = obj(m)?;
        bounds.insert(text(m.get("name"))?, num(m.get("bound"))?);
    }
    Some(bounds)
}

fn load_dir(dir: &Path) -> Vec<RunFile> {
    let mut runs: Vec<RunFile> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
        .filter_map(|e| std::fs::read_to_string(e.path()).ok())
        .filter_map(|s| parse_run(&s))
        .collect();
    runs.sort_by(|a, b| (&a.workload, a.trace, a.seed).cmp(&(&b.workload, b.trace, b.seed)));
    runs
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: (f64, f64, f64),
    pub b: (f64, f64, f64),
    pub bound: Option<f64>,
    /// Relative difference of the medians, against set A's.
    pub diff: f64,
    /// The medians differ by more than the bound, and both sets are steady
    /// enough (spread within the bound) for that to mean something.
    pub breach: bool,
    /// The medians differ by more than the bound, but a set's own spread is
    /// wider than the bound.
    pub unresolved: bool,
}

/// Everything `compare` found.
#[derive(Debug, Default)]
pub struct Outcome {
    pub rows: Vec<Row>,
    /// `(workload, seed, key, value in A, value in B)`.
    pub exact_mismatches: Vec<(String, u64, String, String, String)>,
    pub incorrect_runs: usize,
    pub calib_drift_pct: Option<f64>,
}

impl Outcome {
    pub fn failed(&self) -> bool {
        self.incorrect_runs > 0
            || !self.exact_mismatches.is_empty()
            || self.rows.iter().any(|r| r.breach)
    }
}

pub fn compare(a: &[RunFile], b: &[RunFile], bounds: &Bounds) -> Outcome {
    let mut out = Outcome {
        incorrect_runs: a.iter().chain(b).filter(|r| !r.correct).count(),
        ..Outcome::default()
    };
    let mut groups: BTreeMap<(String, u64), Pairing<'_>> = BTreeMap::new();
    for r in a {
        groups
            .entry((r.workload.clone(), r.trace))
            .or_default()
            .0
            .push(r);
    }
    for r in b {
        groups
            .entry((r.workload.clone(), r.trace))
            .or_default()
            .1
            .push(r);
    }
    for ((workload, _), (ra, rb)) in &groups {
        if ra.is_empty() || rb.is_empty() {
            continue;
        }
        for metric in ra[0].metrics.keys() {
            let vals = |rs: &[&RunFile]| -> Vec<f64> {
                rs.iter()
                    .filter_map(|r| r.metrics.get(metric).copied())
                    .collect()
            };
            let (qa, qb) = (quartiles(&vals(ra)), quartiles(&vals(rb)));
            let diff = if qa.1 == 0.0 {
                0.0
            } else {
                (qb.1 - qa.1) / qa.1.abs()
            };
            let bound = bounds.get(metric).copied();
            let spread = |q: (f64, f64, f64)| (q.2 - q.0).abs() / q.1.abs().max(f64::MIN_POSITIVE);
            let beyond = bound.is_some_and(|b| diff.abs() > b);
            let noisy = bound.is_some_and(|b| spread(qa).max(spread(qb)) > b);
            out.rows.push(Row {
                workload: workload.clone(),
                metric: metric.clone(),
                a: qa,
                b: qb,
                bound,
                diff,
                breach: beyond && !noisy,
                unresolved: beyond && noisy,
            });
        }
        for x in ra {
            for y in rb.iter().filter(|y| y.seed == x.seed) {
                for (k, vx) in &x.exact {
                    if let Some(vy) = y.exact.get(k).filter(|vy| *vy != vx) {
                        out.exact_mismatches.push((
                            workload.clone(),
                            x.seed,
                            k.clone(),
                            vx.clone(),
                            vy.clone(),
                        ));
                    }
                }
            }
        }
    }
    let calib = |rs: &[RunFile]| -> Option<f64> {
        let v: Vec<f64> = rs.iter().filter_map(|r| r.calib_mops).collect();
        (!v.is_empty()).then(|| quartiles(&v).1)
    };
    if let (Some(ca), Some(cb)) = (calib(a), calib(b)) {
        out.calib_drift_pct = Some(100.0 * (cb - ca) / ca);
    }
    out
}

pub fn main(args: &[String]) -> ExitCode {
    let mut dirs = Vec::new();
    let mut bounds_path = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--bounds" {
            match it.next() {
                Some(p) => bounds_path = p.clone(),
                None => return ExitCode::from(2),
            }
        } else {
            dirs.push(a.clone());
        }
    }
    let [dir_a, dir_b] = dirs.as_slice() else {
        eprintln!("usage: warper-benchmark compare <dirA> <dirB> [--bounds <BENCHMARK.json>]");
        return ExitCode::from(2);
    };
    let Some(bounds) = std::fs::read_to_string(&bounds_path)
        .ok()
        .and_then(|s| parse_bounds(&s))
    else {
        eprintln!("compare: cannot read end_to_end bounds from {bounds_path}");
        return ExitCode::from(2);
    };
    let (a, b) = (load_dir(Path::new(dir_a)), load_dir(Path::new(dir_b)));
    if a.is_empty() || b.is_empty() {
        eprintln!("compare: no result files in {dir_a} or {dir_b}");
        return ExitCode::from(2);
    }
    let out = compare(&a, &b, &bounds);
    println!(
        "{:<14} {:<30} {:>14} {:>14} {:>8} {:>7}  quartiles A | B",
        "workload", "metric", "median A", "median B", "diff %", "bound %"
    );
    for r in &out.rows {
        println!(
            "{:<14} {:<30} {:>14.4} {:>14.4} {:>8.2} {:>7}  [{:.4} {:.4}] | [{:.4} {:.4}]{}",
            r.workload,
            r.metric,
            r.a.1,
            r.b.1,
            100.0 * r.diff,
            r.bound.map_or("-".into(), |b| format!("{:.0}", 100.0 * b)),
            r.a.0,
            r.a.2,
            r.b.0,
            r.b.2,
            if r.breach {
                "  <-- beyond bound"
            } else if r.unresolved {
                "  <-- unresolved: a set spreads wider than the bound"
            } else {
                ""
            }
        );
    }
    for (w, seed, k, va, vb) in &out.exact_mismatches {
        println!("exact count differs: {w} seed {seed} {k}: {va} vs {vb}");
    }
    if out.incorrect_runs > 0 {
        println!("{} run(s) reported correct: false", out.incorrect_runs);
    }
    if out.failed() {
        match out.calib_drift_pct {
            Some(d) => println!(
                "sets disagree; host.calib_mops median moved {d:+.2} % from A to B (a host that changed speed moves every rate with it)"
            ),
            None => println!("sets disagree; no host.calib_mops in the result files"),
        }
        ExitCode::from(1)
    } else {
        println!(
            "sets agree within bounds: {} runs in A, {} in B, {} comparison(s) unresolved",
            a.len(),
            b.len(),
            out.rows.iter().filter(|r| r.unresolved).count()
        );
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(seed: u64, qps: f64, gmq_bits: &str) -> RunFile {
        parse_run(&format!(
            "{{\"workload\": \"point_tcp\", \"seed\": {seed}, \"trace\": 0, \"correct\": true, \"attempted\": 5, \"failed\": 0, \
\"metrics\": {{\"serve_qps\": {{\"value\": {qps}, \"unit\": \"1/s\", \"median\": 1.0, \"q1\": 1.0, \"q3\": 1.0, \"n\": 9}}}}, \
\"exact\": {{\"adapt_gmq_bits\": \"{gmq_bits}\"}}, \"info\": {{\"host.calib_mops\": 480.0}}}}"
        ))
        .expect("fixture parses")
    }

    fn bounds() -> Bounds {
        parse_bounds(
            "{\"end_to_end\": [{\"name\": \"serve_qps\", \"unit\": \"1/s\", \"better\": \"higher\", \"bound\": 0.08}]}",
        )
        .expect("bounds parse")
    }

    #[test]
    fn sets_within_bounds_agree() {
        let a = vec![
            run(1, 4000.0, "aa"),
            run(2, 4100.0, "bb"),
            run(3, 4050.0, "cc"),
        ];
        let b = vec![
            run(1, 4150.0, "aa"),
            run(2, 4020.0, "bb"),
            run(3, 4200.0, "cc"),
        ];
        let out = compare(&a, &b, &bounds());
        assert!(!out.failed(), "{out:?}");
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0].bound, Some(0.08));
        assert_eq!(out.calib_drift_pct, Some(0.0));
    }

    #[test]
    fn a_median_beyond_its_bound_fails() {
        let a = vec![run(1, 4000.0, "aa"), run(2, 4000.0, "bb")];
        let b = vec![run(1, 3500.0, "aa"), run(2, 3500.0, "bb")];
        let out = compare(&a, &b, &bounds());
        assert!(out.failed());
        assert!(out.rows[0].breach && out.rows[0].diff < -0.08);
    }

    #[test]
    fn a_median_beyond_its_bound_in_a_noisy_set_is_unresolved() {
        // Set B spreads 4000..3000 around 3500: wider than the 8 % bound.
        let a = vec![
            run(1, 4000.0, "aa"),
            run(2, 4010.0, "bb"),
            run(3, 3990.0, "cc"),
        ];
        let b = vec![
            run(1, 4000.0, "aa"),
            run(2, 3500.0, "bb"),
            run(3, 3000.0, "cc"),
        ];
        let out = compare(&a, &b, &bounds());
        assert!(out.rows[0].unresolved && !out.rows[0].breach);
        assert!(!out.failed());
    }

    #[test]
    fn an_exact_count_that_differs_fails_even_when_speeds_agree() {
        let a = vec![run(1, 4000.0, "aa")];
        let b = vec![run(1, 4000.0, "ab")];
        let out = compare(&a, &b, &bounds());
        assert!(out.failed());
        assert_eq!(out.exact_mismatches.len(), 1);
        // Different seeds are different inputs: nothing to compare exactly.
        let out = compare(&a, &[run(2, 4000.0, "zz")], &bounds());
        assert!(!out.failed());
    }

    #[test]
    fn incorrect_runs_fail_the_comparison() {
        let mut bad = run(1, 4000.0, "aa");
        bad.correct = false;
        assert!(compare(&[bad], &[run(1, 4000.0, "aa")], &bounds()).failed());
    }
}
