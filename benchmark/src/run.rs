//! The end-to-end run (`--trace 0`): the nine metrics a user of the system
//! feels, each measured over fresh-instance repetitions and reported as
//! their fast quartile, with tracing off.
//!
//! A run is three passes through the whole lifecycle — set-up → serve →
//! bulk estimate → ingest → drift + adapt → checkpoint → recover, the last
//! three once on each drift scenario (`gen::SCENARIOS`) — each pass in a
//! process of its own: the run spawns this program once per pass and reads
//! what the pass measured from its last line. Serve, bulk and ingest do the
//! same work in every pass, so their repetitions are pooled over the passes;
//! an episode and a restart are a scenario's own work, so each scenario
//! reports the median of its three and the run their mean.
//!
//! A pass keeps to one CPU (`host::pin_to_one_cpu` says why), the next pass
//! to the next one.
//!
//! A process per pass, because where the kernel puts a process's stack, heap
//! and mappings decides how fast some code runs in it: with address-space
//! randomisation on, about one process in four ingests 12 % slower than the
//! rest — every repetition of it, on every table it builds — and the same
//! episode on the 200 k-row table takes 0.85 s in one process and 1.03 s in
//! the next; with it off none does (README, "A process per pass"). Three
//! processes re-roll the layout three times, and the fast quartile of the
//! pooled repetitions comes from the ones that drew well.

use std::path::Path;
use std::process::{Command, Stdio};

use serde_json::{Map, Value};

use crate::compare::{num, obj, text};
use crate::gen::{scenario_order, SCENARIOS};
use crate::host;
use crate::phases::{
    adapt_episode, bulk_rep, ingest_rep, recover_rep, serve_rep, setup, Episode, Fixture,
    RecoverRep, ServeShape,
};
use crate::report::{RunResult, Tally};
use crate::stats::{fnv_checksum, median, Better, Summary};
use crate::sut;
use crate::trace::Tracer;
use crate::workloads::{Spec, BULK_BATCH};

/// Passes of one run, each a process of its own. As many as scenarios, so
/// that every scenario is some pass's first, second and third.
pub const PASSES: usize = SCENARIOS.len();
/// Repetitions of each phase in one pass. One turn is a serve repetition,
/// `BULK_PER_TURN` bulk repetitions and an ingest repetition, so each of
/// the three samples the whole pass and not one stretch of it. After the
/// turns come one episode and one restart per scenario.
pub const TURNS_PER_PASS: usize = 3;
pub const BULK_PER_TURN: usize = 3;
/// `--seconds` is split into this many units: a serve repetition measures
/// one unit, a bulk repetition a sixth. Set-up, ingest, adapt and recover
/// repeat fixed work.
pub const UNITS: f64 = 30.0;

const SERVE_CHECK: &str = "serve: replies wrong, shed or errored";
pub const LABEL_CHECK: &str = "query: labels differ from count_naive";
/// Held-out labels re-counted per scenario.
pub const HELDOUT_AUDIT: usize = 16;

/// Re-counts up to 64 of the labels the episode's annotator produced (and
/// its store acknowledged) with the row-at-a-time oracle; the fixture tops
/// the audit up to 64 with the arrivals' labels. Returns `(checked, wrong)`.
pub fn audit_labels(fx: &Fixture, ep: &Episode) -> (u64, u64) {
    let annotated: Vec<_> = ep.acked.iter().filter(|l| !l.2).collect();
    let stride = (annotated.len() / 64).max(1);
    let (mut checked, mut wrong) = (0u64, 0u64);
    for (bits, gt, _) in annotated.into_iter().step_by(stride).take(64) {
        let features: Vec<f64> = bits.iter().map(|b| f64::from_bits(*b)).collect();
        let truth = sut::count_oracle_features(&fx.drift.adapt_table, &fx.built.prep, &features);
        checked += 1;
        wrong += u64::from(truth as f64 != f64::from_bits(*gt));
    }
    let (more, more_wrong) = fx.audit_arrivals(64usize.saturating_sub(checked as usize));
    (checked + more, wrong + more_wrong)
}

/// The checks every episode through the real driver must pass.
pub fn tally_episode(tally: &mut Tally, fx: &Fixture, ep: &Episode) {
    let a = &ep.adapt;
    tally.add(
        "adapt: observations dropped or publications failed",
        fx.drift.arrivals.len() as u64,
        a.dropped_observations + a.publish_failures,
    );
    tally.add(
        "durable: WAL appends or checkpoints failed",
        ep.store.wal_appends + ep.store.checkpoints,
        ep.store.wal_append_failures + ep.store.checkpoint_failures,
    );
    tally.add(
        "adapt: rounds run differ from rounds fed",
        1,
        u64::from(a.invocations != fx.spec.rounds as u64),
    );
}

/// The checks every restart must pass.
pub fn tally_recovery(tally: &mut Tally, ep: &Episode, r: &RecoverRep) {
    tally.add(
        "recover: acknowledged labels lost",
        ep.acked.len() as u64,
        r.lost_labels as u64,
    );
    tally.add(
        "recover: model differs from the checkpointed generation",
        257,
        r.model_mismatches as u64,
    );
}

/// What one pass measured: the repetitions of the pooled phases, every
/// scenario's episode and restart time, and the counts that must repeat
/// exactly. It crosses from the pass's process to the run's as one JSON line.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassOutcome {
    /// CPUs the pass's threads could run on: 1 when pinning worked.
    pub cpus: usize,
    pub setup_secs: f64,
    pub qps: Vec<f64>,
    pub p50_us: Vec<f64>,
    pub bulk: Vec<f64>,
    pub ingest: Vec<f64>,
    /// One episode and one restart per scenario, in `SCENARIOS`' order
    /// whatever order the pass took them in.
    pub adapt_secs: Vec<f64>,
    pub recover_ms: Vec<f64>,
    pub calib: Vec<f64>,
    /// `VmHWM` once the process has been through the lifecycle once.
    pub rss_mb: f64,
    pub state_bytes: u64,
    pub tally: Tally,
    /// Per key one value per scenario, comma-separated (the estimate
    /// checksum is the set-up's and stands alone).
    pub exact: Vec<(String, String)>,
}

/// The names under which a run lists each scenario's exact counts.
const EXACT_KEYS: [&str; 9] = [
    "adapt_gmq_bits",
    "labels_annotated",
    "queries_generated",
    "wal_appends",
    "checkpoints",
    "commits",
    "rollbacks",
    "recover_replayed",
    "arrival_rows_scanned",
];

/// Pass `pass` of run `seed`: the whole lifecycle, the drift and what
/// follows it once per scenario.
pub fn pass(spec: &Spec, seed: u64, pass: usize, seconds: f64, out: &Path) -> PassOutcome {
    // One CPU for everything the pass does, another one for the next pass.
    host::pin_to_one_cpu(seed as usize + pass);
    let tracer = Tracer::new(false);
    let unit_secs = seconds / UNITS;
    let order = scenario_order(seed, pass);
    let scratch = out.join(format!("tmp-{}-{}-{}", spec.name, seed, std::process::id()));
    let shape = ServeShape::of(spec, unit_secs);
    // State lives in memory here whatever the workload says: an fsync on a
    // shared disk takes what the host's other tenants leave it (the same
    // episode 0.86–1.42 s within one process), and that is not the program's
    // time. The traced run keeps `disk_state` and reports `durable.*`.
    let spec = &Spec {
        disk_state: false,
        ..spec.clone()
    };
    let mut o = PassOutcome {
        cpus: std::thread::available_parallelism().map_or(0, |n| n.get()),
        ..PassOutcome::default()
    };

    o.calib.push(host::calib_mops());
    let (built, secs) = setup(spec, seed, &tracer);
    o.setup_secs = secs;
    let mut fx = Fixture::build(spec, order[0], seed, built, &scratch);

    // No warm-up: a repetition that pays for cold code and an empty
    // allocator is slow, and the fast quartile does not see slow repetitions.
    for turn in 0..TURNS_PER_PASS {
        o.calib.push(host::calib_mops());
        let rep = serve_rep(&fx, shape, &tracer, turn as u64 + 1);
        o.tally.add(SERVE_CHECK, rep.attempted, rep.failed);
        // Anything the fleet shed or refused must have reached a client as a
        // failure; count it again only if it did not.
        let refused = rep.fleet.shed + rep.fleet.shed_deadline + rep.fleet.rejected;
        o.tally.add(
            "serve: refusals the clients did not see",
            0,
            refused.saturating_sub(rep.failed),
        );
        o.qps.push(rep.qps);
        o.p50_us.push(rep.p50_us);
        for _ in 0..BULK_PER_TURN {
            o.calib.push(host::calib_mops());
            let b = bulk_rep(&fx, unit_secs / 6.0, &tracer, o.bulk.len() as u64);
            o.tally.add(
                "bulk: estimates differ from generation 0",
                b.calls * BULK_BATCH as u64,
                b.mismatched,
            );
            o.bulk.push(b.est_per_s);
        }
        o.calib.push(host::calib_mops());
        let r = ingest_rep(&fx, spec.count_beside_writes, &tracer, turn as u64);
        let want = fx.built.table.rows() + spec.ingest_batches * spec.ingest_append;
        o.tally.add(
            "ingest: row count wrong",
            1,
            u64::from(r.rows_after != want),
        );
        o.ingest.push(r.rows_per_s);
    }

    // Per scenario: drift, one episode through the real driver, one restart
    // on what it left behind.
    o.adapt_secs = vec![0.0; SCENARIOS.len()];
    o.recover_ms = vec![0.0; SCENARIOS.len()];
    let mut exact = vec![vec![String::new(); SCENARIOS.len()]; EXACT_KEYS.len()];
    for (i, &scenario) in order.iter().enumerate() {
        if i > 0 {
            fx.redrift(scenario);
        }
        o.calib.push(host::calib_mops());
        let ep = adapt_episode(&fx, "e");
        tally_episode(&mut o.tally, &fx, &ep);
        o.adapt_secs[scenario] = ep.secs;
        // 64 of the first episode's labels and 16 of every scenario's
        // held-out counts, again with the row-at-a-time oracle.
        let (mut checked, mut wrong) = fx.audit_heldout(HELDOUT_AUDIT);
        if i == 0 {
            let (c, w) = audit_labels(&fx, &ep);
            (checked, wrong) = (checked + c, wrong + w);
        }
        o.tally.add(LABEL_CHECK, checked, wrong);
        o.calib.push(host::calib_mops());
        let r = recover_rep(&fx, &ep, &tracer, i as u64);
        tally_recovery(&mut o.tally, &ep, &r);
        o.recover_ms[scenario] = r.ms;
        if i == 0 {
            // Once through the whole lifecycle: the high-water mark now is
            // what the pass reports as resident set.
            o.rss_mb = host::rss_peak_mb();
        }
        o.state_bytes = o.state_bytes.max(ep.state_bytes);
        let values = [
            format!("{:016x}", ep.gmq.to_bits()),
            ep.adapt.annotated.to_string(),
            ep.adapt.generated.to_string(),
            ep.store.wal_appends.to_string(),
            ep.store.checkpoints.to_string(),
            ep.adapt.commits.to_string(),
            ep.adapt.rollbacks.to_string(),
            r.replayed.to_string(),
            fx.drift.arrival_rows_scanned.to_string(),
        ];
        for (list, value) in exact.iter_mut().zip(values) {
            list[scenario] = value;
        }
        ep.dir.remove();
    }
    let _ = std::fs::remove_dir_all(&scratch);
    // Every reply was verified against these bits, so their digest is the
    // digest of what generation 0 served.
    let mut pairs: Vec<(u64, u64)> = (0u64..).zip(fx.expected.iter().copied()).collect();
    o.exact = vec![(
        "estimate_checksum".to_string(),
        format!("{:016x}", fnv_checksum(&mut pairs)),
    )];
    o.exact.extend(
        EXACT_KEYS
            .iter()
            .zip(&exact)
            .map(|(k, list)| (k.to_string(), list.join(","))),
    );
    o
}

fn numbers(values: &[f64]) -> Value {
    Value::Array(values.iter().map(|v| Value::Number(*v)).collect())
}

fn pairs_of(v: Option<&Value>) -> Option<Vec<(String, &Value)>> {
    Some(obj(v?)?.iter().map(|(k, v)| (k.clone(), v)).collect())
}

impl PassOutcome {
    /// The line a pass's process ends its output with.
    pub fn to_json(&self) -> String {
        let mut m = Map::new();
        let mut put = |k: &str, v: Value| {
            m.insert(k.to_string(), v);
        };
        put("cpus", Value::Number(self.cpus as f64));
        put("setup_secs", Value::Number(self.setup_secs));
        for (k, v) in [
            ("qps", &self.qps),
            ("p50_us", &self.p50_us),
            ("bulk", &self.bulk),
            ("ingest", &self.ingest),
            ("adapt_secs", &self.adapt_secs),
            ("recover_ms", &self.recover_ms),
            ("calib", &self.calib),
        ] {
            put(k, numbers(v));
        }
        put("rss_mb", Value::Number(self.rss_mb));
        put("state_bytes", Value::Number(self.state_bytes as f64));
        put("attempted", Value::Number(self.tally.attempted as f64));
        put("failed", Value::Number(self.tally.failed as f64));
        let mut failures = Map::new();
        for (what, n) in &self.tally.failures {
            failures.insert(what.clone(), Value::Number(*n as f64));
        }
        put("failures", Value::Object(failures));
        let mut exact = Map::new();
        for (k, v) in &self.exact {
            exact.insert(k.clone(), Value::String(v.clone()));
        }
        put("exact", Value::Object(exact));
        serde_json::to_string(&Value::Object(m)).expect("a JSON value serialises")
    }

    pub fn from_json(line: &str) -> Option<Self> {
        let v: Value = serde_json::from_str(line.trim()).ok()?;
        let o = obj(&v)?;
        let list = |k: &str| -> Option<Vec<f64>> {
            match o.get(k)? {
                Value::Array(items) => items.iter().map(|x| num(Some(x))).collect(),
                _ => None,
            }
        };
        Some(Self {
            cpus: num(o.get("cpus"))? as usize,
            setup_secs: num(o.get("setup_secs"))?,
            qps: list("qps")?,
            p50_us: list("p50_us")?,
            bulk: list("bulk")?,
            ingest: list("ingest")?,
            adapt_secs: list("adapt_secs")?,
            recover_ms: list("recover_ms")?,
            calib: list("calib")?,
            rss_mb: num(o.get("rss_mb"))?,
            state_bytes: num(o.get("state_bytes"))? as u64,
            tally: Tally {
                attempted: num(o.get("attempted"))? as u64,
                failed: num(o.get("failed"))? as u64,
                failures: pairs_of(o.get("failures"))?
                    .into_iter()
                    .map(|(k, v)| Some((k, num(Some(v))? as u64)))
                    .collect::<Option<_>>()?,
            },
            exact: pairs_of(o.get("exact"))?
                .into_iter()
                .map(|(k, v)| Some((k, text(Some(v))?)))
                .collect::<Option<_>>()?,
        })
    }
}

/// Runs pass `pass` in a process of its own and reads its outcome.
fn spawn_pass(
    spec: &Spec,
    seed: u64,
    pass: usize,
    seconds: f64,
    out: &Path,
) -> Option<PassOutcome> {
    let exe = std::env::current_exe().ok()?;
    let output = Command::new(exe)
        .args(["--workload", spec.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", "0"])
        .args(["--pass", &pass.to_string()])
        .arg("--out")
        .arg(out)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .ok()?;
    if !output.status.success() {
        return None;
    }
    let stdout = String::from_utf8(output.stdout).ok()?;
    PassOutcome::from_json(stdout.lines().last()?).filter(|o| {
        o.exact.len() == 1 + EXACT_KEYS.len()
            && o.adapt_secs.len() == SCENARIOS.len()
            && o.recover_ms.len() == SCENARIOS.len()
    })
}

const GMQ_INFO: [&str; PASSES] = [
    "adapt_gmq.scenario0",
    "adapt_gmq.scenario1",
    "adapt_gmq.scenario2",
];
const ADAPT_INFO: [&str; PASSES] = [
    "adapt_s.scenario0",
    "adapt_s.scenario1",
    "adapt_s.scenario2",
];

pub fn run(spec: &Spec, seed: u64, seconds: f64, out: &Path) -> RunResult {
    let mut result = RunResult::new(spec.name, seed, false);
    result.why = spec.why;
    let mut passes: Vec<PassOutcome> = Vec::new();
    for p in 0..PASSES {
        match spawn_pass(spec, seed, p, seconds, out) {
            Some(o) => {
                result.tally.merge(&o.tally);
                passes.push(o);
            }
            None => result.tally.add("pass: its process failed", 1, 1),
        }
    }
    if passes.len() < PASSES {
        // Nothing to report: the line below says `correct: false`.
        result.print_human();
        return result;
    }
    let setup_secs: Vec<f64> = passes.iter().map(|p| p.setup_secs).collect();
    let pooled = |f: fn(&PassOutcome) -> &Vec<f64>| -> Vec<f64> {
        passes.iter().flat_map(|p| f(p).iter().copied()).collect()
    };
    let (qps, p50) = (pooled(|p| &p.qps), pooled(|p| &p.p50_us));
    let (bulk, ingest, calib) = (
        pooled(|p| &p.bulk),
        pooled(|p| &p.ingest),
        pooled(|p| &p.calib),
    );
    // A pass's process did every scenario: per scenario, the three
    // processes' values, and of them the median — one process that drew a
    // bad layout or a fast stretch of the host does not move it.
    let by_scenario = |f: fn(&PassOutcome) -> &Vec<f64>| -> Vec<Vec<f64>> {
        (0..SCENARIOS.len())
            .map(|s| passes.iter().map(|p| f(p)[s]).collect())
            .collect()
    };
    let medians = |reps: &[Vec<f64>]| -> Vec<f64> { reps.iter().map(|v| median(v)).collect() };
    let (adapt_reps, recover_reps) = (
        by_scenario(|p| &p.adapt_secs),
        by_scenario(|p| &p.recover_ms),
    );
    let (adapt, recover) = (medians(&adapt_reps), medians(&recover_reps));
    // Identical work from identical state in three processes: the counts,
    // the served model and so its accuracy must repeat exactly.
    let exact = &passes[0].exact;
    result.tally.add(
        "pass: processes disagree on a count that must repeat",
        PASSES as u64,
        passes.iter().filter(|p| p.exact != *exact).count() as u64,
    );
    // `exact` is the checksum, then `EXACT_KEYS` in order: GMQ bits first.
    let gmqs: Vec<f64> = exact[1]
        .1
        .split(',')
        .map(|bits| u64::from_str_radix(bits, 16).map_or(f64::NAN, f64::from_bits))
        .collect();
    let rss: Vec<f64> = passes.iter().map(|p| p.rss_mb).collect();

    result.push("setup_s", {
        // The contract asks for the median of several set-ups.
        let s = Summary::of(&setup_secs, Better::Lower);
        Summary {
            value: s.median,
            ..s
        }
    });
    result.push("serve_qps", Summary::of(&qps, Better::Higher));
    result.push("serve_p50_us", Summary::of(&p50, Better::Lower));
    result.push("bulk_est_per_s", Summary::of(&bulk, Better::Higher));
    result.push("adapt_s", Summary::mean_of(&adapt));
    result.push_value("adapt_gmq", geometric_mean(&gmqs));
    result.push("ingest_rows_per_s", Summary::of(&ingest, Better::Higher));
    result.push("recover_ms", Summary::mean_of(&recover));
    result.push("rss_peak_mb", {
        let s = Summary::of(&rss, Better::Lower);
        Summary {
            value: s.median,
            ..s
        }
    });

    result.exact.push(("estimate_checksum", exact[0].1.clone()));
    for (key, (_, list)) in EXACT_KEYS.iter().zip(&exact[1..]) {
        result.exact.push((key, list.clone()));
    }
    result.info.push(("host.calib_mops", median(&calib)));
    result.info.push((
        "host.cpus_per_pass",
        passes.iter().map(|p| p.cpus).max().unwrap_or(0) as f64,
    ));
    for (s, (gmq, secs)) in gmqs.iter().zip(&adapt).enumerate() {
        result.info.push((GMQ_INFO[s], *gmq));
        result.info.push((ADAPT_INFO[s], *secs));
    }
    result.info.push((
        "durable.state_bytes",
        passes.iter().map(|p| p.state_bytes).max().unwrap_or(0) as f64,
    ));
    result.print_human();
    let fmt = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    for (name, reps) in [
        ("setup_s", &setup_secs),
        ("serve_qps", &qps),
        ("serve_p50_us", &p50),
        ("bulk_est_per_s", &bulk),
        ("ingest_rows_per_s", &ingest),
        ("host.calib_mops", &calib),
    ] {
        println!("reps {name} [{}]", fmt(reps));
    }
    for (s, (a, r)) in adapt_reps.iter().zip(&recover_reps).enumerate() {
        println!("reps {} [{}]", ADAPT_INFO[s], fmt(a));
        println!("reps recover_ms.scenario{s} [{}]", fmt(r));
    }
    result.write_file(out);
    result
}

/// Geometric mean (the mean GMQ over scenarios weighs ratios, not
/// differences); 0 for an empty slice.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_weighs_ratios() {
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[1.3, 1.3, 1.3]) - 1.3).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 0.0);
    }

    #[test]
    fn a_pass_outcome_crosses_the_process_boundary_exactly() {
        let mut tally = Tally::default();
        tally.add("serve: replies wrong, shed or errored", 1000, 2);
        tally.add("ingest: row count wrong", 3, 0);
        let o = PassOutcome {
            cpus: 1,
            setup_secs: 0.812_345_678_9,
            qps: vec![8123.456789012, 8000.0, 7999.999999],
            p50_us: vec![451.25],
            bulk: vec![2.9e5, 1.0 / 3.0],
            ingest: vec![],
            adapt_secs: vec![0.81, 0.79, 0.84],
            recover_ms: vec![37.5, 38.25, 36.0],
            calib: vec![490.1],
            rss_mb: 74.285_156_25,
            state_bytes: 9_670_820,
            tally,
            exact: vec![
                ("estimate_checksum".into(), "f4b46a9dab0f4590".into()),
                ("commits".into(), "8,8,7".into()),
            ],
        };
        let line = o.to_json();
        assert!(!line.contains('\n'));
        assert_eq!(PassOutcome::from_json(&line), Some(o));
        assert_eq!(PassOutcome::from_json("{\"scenario\": 1}"), None);
        assert_eq!(PassOutcome::from_json("not json"), None);
    }
}
