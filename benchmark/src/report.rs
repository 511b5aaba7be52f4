//! What a run prints: every metric by name with its unit, the correctness
//! tally, the contract's final JSON line, and the richer result file that
//! `compare` reads.

use std::fmt::Write as _;
use std::path::Path;

use crate::catalogue::unit_of;
use crate::stats::Summary;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub summary: Summary,
}

/// Operations checked and operations that failed a check, with the checks
/// that failed by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<(String, u64)>,
}

impl Tally {
    /// Records `attempted` operations of the check `what`, `failed` of which
    /// did not hold.
    pub fn add(&mut self, what: &str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            match self.failures.iter_mut().find(|(w, _)| w == what) {
                Some((_, n)) => *n += failed,
                None => self.failures.push((what.to_string(), failed)),
            }
        }
    }

    /// Adds what another process tallied.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed - other.failures.iter().map(|f| f.1).sum::<u64>();
        for (what, n) in &other.failures {
            self.add(what, 0, *n);
        }
    }
}

pub struct RunResult {
    pub workload: &'static str,
    /// Why the workload exists: which layer does the work.
    pub why: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// Counts and digests that must repeat exactly for one seed.
    pub exact: Vec<(&'static str, String)>,
    /// Host context kept beside the metrics (never bounded, never used to
    /// rescale anything).
    pub info: Vec<(&'static str, f64)>,
}

fn num(v: f64) -> String {
    if v.is_finite() {
        // Shortest text that parses back to the same f64: every digit the
        // measurement has.
        let s = format!("{v}");
        if s.contains(['.', 'e', 'E']) {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "0.0".into()
    }
}

impl RunResult {
    pub fn new(workload: &'static str, seed: u64, traced: bool) -> Self {
        Self {
            workload,
            why: "",
            seed,
            traced,
            tally: Tally::default(),
            metrics: Vec::new(),
            exact: Vec::new(),
            info: Vec::new(),
        }
    }

    /// Reports a metric of the catalogue (its unit comes from there).
    pub fn push(&mut self, name: &'static str, summary: Summary) {
        self.metrics.push(Metric {
            name,
            unit: unit_of(name),
            summary,
        });
    }

    pub fn push_value(&mut self, name: &'static str, value: f64) {
        self.push(name, Summary::single(value));
    }

    /// A run is correct when nothing it checked failed and every metric is
    /// a finite number.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
            && self.tally.attempted > 0
            && self.metrics.iter().all(|m| m.summary.value.is_finite())
    }

    /// The contract's last line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn json_line(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.tally.attempted.max(1),
            self.tally.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.summary.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// The result file: the final line's content plus each metric's median,
    /// quartiles and repetition count, and the exact counts.
    pub fn file_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.workload,
            self.seed,
            u8::from(self.traced),
            self.correct(),
            self.tally.attempted,
            self.tally.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let s = &m.summary;
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
                m.name,
                num(s.value),
                m.unit,
                num(s.median),
                num(s.q1),
                num(s.q3),
                s.n
            );
        }
        out.push_str("}, \"exact\": {");
        for (i, (k, v)) in self.exact.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{k}\": \"{v}\"");
        }
        out.push_str("}, \"info\": {");
        for (i, (k, v)) in self.info.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{k}\": {}", num(*v));
        }
        out.push_str("}}\n");
        out
    }

    /// Every metric by name, with its unit, the repetitions behind it, and
    /// the correctness tally.
    pub fn print_human(&self) {
        println!(
            "# workload {} seed {} trace {}",
            self.workload,
            self.seed,
            u8::from(self.traced)
        );
        if !self.why.is_empty() {
            println!("# {}", self.why);
        }
        for m in &self.metrics {
            let s = &m.summary;
            if s.n > 1 {
                println!(
                    "{:<34} {:>16.4} {:<7} (median {:.4}  q1 {:.4}  q3 {:.4}  n {})",
                    m.name, s.value, m.unit, s.median, s.q1, s.q3, s.n
                );
            } else {
                println!("{:<34} {:>16.4} {}", m.name, s.value, m.unit);
            }
        }
        for (k, v) in &self.exact {
            println!("exact {k} = {v}");
        }
        for (k, v) in &self.info {
            println!("info {k} = {v:.4}");
        }
        println!(
            "checked {} operations, {} failed",
            self.tally.attempted, self.tally.failed
        );
        for (what, n) in &self.tally.failures {
            println!("failed check {what}: {n}");
        }
    }

    /// Writes the result file under `dir` (best effort: a read-only
    /// checkout must not fail the run).
    pub fn write_file(&self, dir: &Path) {
        let name = format!(
            "{}-seed{}-trace{}.json",
            self.workload,
            self.seed,
            u8::from(self.traced)
        );
        if std::fs::create_dir_all(dir).is_ok() {
            let _ = std::fs::write(dir.join(name), self.file_json());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn final_line_has_exactly_the_contract_keys() {
        let mut r = RunResult::new("point_tcp", 3, false);
        r.tally.add("t", 10, 0);
        r.push_value("setup_s", 0.8127);
        r.push_value("serve_qps", 4300.0);
        assert_eq!(
            r.json_line(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \"serve_qps\": {\"value\": 4300.0, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn failures_and_non_finite_values_make_a_run_incorrect() {
        let mut r = RunResult::new("w", 1, false);
        r.tally.add("t", 5, 1);
        assert!(!r.correct());
        let mut r = RunResult::new("w", 1, false);
        r.tally.add("t", 5, 0);
        r.push_value("adapt_s", f64::NAN);
        assert!(!r.correct());
        assert!(r.json_line().contains("\"value\": 0.0"));
        assert!(!RunResult::new("w", 1, false).correct(), "nothing checked");
    }

    #[test]
    fn merged_tallies_add_up_by_check() {
        let (mut a, mut b) = (Tally::default(), Tally::default());
        a.add("serve", 10, 1);
        b.add("serve", 20, 2);
        b.add("bulk", 5, 0);
        b.add("recover", 3, 3);
        a.merge(&b);
        assert_eq!((a.attempted, a.failed), (38, 6));
        assert_eq!(
            a.failures,
            vec![("serve".to_string(), 3), ("recover".to_string(), 3)]
        );
    }

    #[test]
    fn result_file_round_trips_through_the_json_parser() {
        let mut r = RunResult::new("drift_heavy", 9, true);
        r.tally.add("t", 7, 0);
        r.push(
            "adapt_s",
            Summary::of(&[1.0, 2.0, 3.0], crate::stats::Better::Lower),
        );
        r.exact.push(("labels", "123".into()));
        let v: serde_json::Value = serde_json::from_str(r.file_json().trim()).unwrap();
        let serde_json::Value::Object(o) = v else {
            panic!("not an object")
        };
        assert_eq!(o.get("seed"), Some(&serde_json::Value::Number(9.0)));
        assert!(o.get("metrics").is_some() && o.get("exact").is_some());
    }
}
