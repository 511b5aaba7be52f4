//! `warper` — command-line driver for the reproduction.
//!
//! Commands and flags: [`USAGE`] (what `warper` prints when it cannot parse
//! its arguments).
//!
//! `serve` and `loadgen` without `--listen`/`--connect` are one in-process
//! replay of one fleet (`serve` adapts and spot-checks accuracy, `loadgen`
//! measures the frozen model); a single-table run is its one-shard case.
//!
//! Argument parsing is hand-rolled (this workspace takes no CLI
//! dependencies); every flag has a sane default, so `warper adapt` alone
//! runs the headline PRSA experiment.

use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use warper_repro::prelude::*;
use warper_repro::warper::gamma::{estimate_gamma, DEFAULT_TOLERANCE};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, flags)) = parse(&args) else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    // Every command reports what it could not parse or run, then yields
    // `None`.
    let done = match cmd.as_str() {
        "adapt" => cmd_adapt(&flags),
        "gamma" => cmd_gamma(&flags),
        // Dispatch: `--standby-of` wins (a standby may also `--listen`),
        // then `--listen` starts a networked node (`--shards` makes it a
        // fleet); everything else is the in-process replay.
        "serve" if flags.contains_key("standby-of") => cmd_serve_standby(&flags),
        "serve" if flags.contains_key("listen") && flags.contains_key("shards") => {
            cmd_serve_fleet_net(&flags)
        }
        "serve" if flags.contains_key("listen") => cmd_serve_primary(&flags),
        "serve" => cmd_replay(&flags, true),
        "loadgen" if flags.contains_key("connect") => cmd_loadgen_net(&flags),
        "loadgen" => cmd_replay(&flags, false),
        "datasets" => cmd_datasets(),
        _ => {
            eprintln!("unknown command {cmd:?}\n{USAGE}");
            None
        }
    };
    done.unwrap_or(ExitCode::FAILURE)
}

const USAGE: &str = "usage:
  warper adapt   [--dataset prsa|poker|higgs] [--train w12] [--new w345]
                 [--model lm-mlp|lm-gbt|lm-ply|lm-rbf|mscn]
                 [--strategy ft|mix|aug|hem|warper] [--rows N] [--seed S]
                 [--compare-ft]
  warper gamma   [--dataset prsa|poker|higgs] [--rows N] [--seed S]
  warper serve   [--dataset prsa|poker|higgs] [--mix w1] [--queries N]
                 [--clients N] [--drift-at N] [--new w4 | --data-drift]
                 [--sync] [--invoke-every N] [--smoke] [--rows N] [--seed S]
                 [--precision f64|f32|int8] [--state-dir DIR]
                 [--checkpoint-every N] [--workers N] [--no-pack]
                 [--shards N [--zipf S] [--adapt-shards K] [--drift-shards D]
                  [--annotation-budget B]]
                   in-process replay of one fleet while it adapts. A single
                   table is the one-shard fleet (the default; it adapts).
                   --shards N: one shard per (tenant, table), shared worker
                   pool, cross-shard batch packing; the first K shards
                   adapt (default 0), the first D of those drift
                   pre-serving and B annotations are granted
                   worst-drift-first from the merged sketches
  warper serve   --listen ADDR [--state-dir DIR] [--duration SECS]
                 [--dataset ...] [--mix w1] [--rows N] [--seed S]
                 [--precision f64|f32|int8]
                   networked primary: replicated durability + TCP front-end
  warper serve   --listen ADDR --shards N [--workers N] [--no-pack]
                 [--duration SECS]
                   networked fleet: shard-addressed requests over TCP
  warper serve   --standby-of ADDR [--listen ADDR] [--state-dir DIR]
                 [--duration SECS] [--no-auto-promote]
                   warm standby: replicates, promotes when the primary dies
  warper loadgen [--dataset prsa|poker|higgs] [--mix w1] [--queries N]
                 [--clients N] [--rate QPS] [--batch N] [--rows N] [--seed S]
                 [--precision f64|f32|int8] [--tenants N [--zipf S]]
                   the same replay against the frozen model: no adaptation
                   unless --adapt-shards, no spot checks; --tenants N is
                   Zipf-skewed multi-tenant load, --batch N caps a shard's
                   batch (max_packed_batch = quantum = N)
  warper loadgen --connect ADDR[,ADDR2...] [--queries N] [--clients N]
                 [--tenants N] [--zipf S] [--dataset ...] [--mix w1]
                 [--rows N] [--seed S]
                   networked clients with bounded retry + endpoint rotation
  warper datasets";

/// Splits `[cmd, --k, v, --flag, ...]` into the command and a flag map
/// (valueless flags map to "true").
fn parse(args: &[String]) -> Option<(String, HashMap<String, String>)> {
    let mut it = args.iter();
    let cmd = it.next()?.clone();
    let mut flags = HashMap::new();
    let mut pending: Option<String> = None;
    for a in it {
        if let Some(key) = a.strip_prefix("--") {
            if let Some(prev) = pending.take() {
                flags.insert(prev, "true".to_string());
            }
            pending = Some(key.to_string());
        } else if let Some(key) = pending.take() {
            flags.insert(key, a.clone());
        } else {
            eprintln!("unexpected positional argument {a:?}");
            return None;
        }
    }
    if let Some(prev) = pending {
        flags.insert(prev, "true".to_string());
    }
    Some((cmd, flags))
}

type Flags = HashMap<String, String>;

/// Prints `msg` and fails the command.
fn fail<T>(msg: impl std::fmt::Display) -> Option<T> {
    eprintln!("{msg}");
    None
}

/// The value of `r`, or `what: <its error>` on stderr and a failed command.
fn ok_or_fail<T, E: std::fmt::Display>(r: Result<T, E>, what: impl std::fmt::Display) -> Option<T> {
    r.map_err(|e| eprintln!("{what}: {e}")).ok()
}

fn dataset_of(flags: &Flags) -> Option<DatasetKind> {
    match flags.get("dataset").map(String::as_str).unwrap_or("prsa") {
        "prsa" => Some(DatasetKind::Prsa),
        "poker" => Some(DatasetKind::Poker),
        "higgs" => Some(DatasetKind::Higgs),
        other => fail(format!("unknown dataset {other:?} (prsa|poker|higgs)")),
    }
}

/// Parses `--precision` (default f32 — the gated SIMD serving path).
fn precision_of(flags: &Flags) -> Option<warper_repro::serve::Precision> {
    match flags.get("precision") {
        None => Some(warper_repro::serve::Precision::F32),
        Some(v) => v.parse().map_err(|e| eprintln!("{e}")).ok(),
    }
}

fn num<T: std::str::FromStr>(flags: &Flags, key: &str, default: T) -> Option<T> {
    match flags.get(key) {
        None => Some(default),
        Some(v) => match v.parse() {
            Ok(x) => Some(x),
            Err(_) => fail(format!("--{key} expects a number, got {v:?}")),
        },
    }
}

fn text(flags: &Flags, key: &str, default: &str) -> String {
    flags.get(key).cloned().unwrap_or_else(|| default.into())
}

fn cmd_adapt(flags: &Flags) -> Option<ExitCode> {
    let kind = dataset_of(flags)?;
    let rows = num(flags, "rows", kind.default_rows())?;
    let seed = num(flags, "seed", 7u64)?;
    let model = match text(flags, "model", "lm-mlp").as_str() {
        "lm-mlp" => ModelKind::LmMlp,
        "lm-gbt" => ModelKind::LmGbt,
        "lm-ply" => ModelKind::LmPly,
        "lm-rbf" => ModelKind::LmRbf,
        "mscn" => ModelKind::Mscn,
        other => return fail(format!("unknown model {other:?}")),
    };
    let strategy = match text(flags, "strategy", "warper").as_str() {
        "ft" => StrategyKind::Ft,
        "mix" => StrategyKind::Mix,
        "aug" => StrategyKind::Aug,
        "hem" => StrategyKind::Hem,
        "warper" => StrategyKind::Warper,
        other => return fail(format!("unknown strategy {other:?}")),
    };
    let train = text(flags, "train", "w12");
    let new = text(flags, "new", "w345");
    if Mix::parse(&train).is_none() || Mix::parse(&new).is_none() {
        return fail("workloads must be w-notation mixtures like w12 or w345");
    }

    let table = generate(kind, rows, seed);
    let setup = DriftSetup::Workload {
        train: train.clone(),
        new: new.clone(),
    };
    let cfg = RunnerConfig {
        seed,
        ..Default::default()
    };
    println!(
        "{} ({} rows), {train} → {new}, model {}, strategy {}",
        kind.name(),
        rows,
        model.name(),
        strategy.name()
    );

    let run = |strategy, what: &str| {
        let res = run_single_table(&table, &setup, model, strategy, &cfg);
        ok_or_fail(res, format!("{what} failed"))
    };
    let res = run(strategy, "run")?;
    print_run(&res);
    if flags.contains_key("compare-ft") && strategy != StrategyKind::Ft {
        let ft = run(StrategyKind::Ft, "FT comparison run")?;
        print_run(&ft);
        let s = speedups_vs_ft(&ft.curve, &res.curve);
        println!(
            "speedup vs FT: Δ.5={:.1}x Δ.8={:.1}x Δ1={:.1}x",
            s.d05, s.d08, s.d10
        );
    }
    Some(ExitCode::SUCCESS)
}

fn print_run(res: &RunResult) {
    let pts: Vec<String> = res
        .curve
        .points()
        .iter()
        .map(|(q, g)| format!("{q:.0}→{g:.2}"))
        .collect();
    println!(
        "{:<8} δ_m={:.2} δ_js={:.2} gen={} anno={}  GMQ: {}",
        res.strategy,
        res.delta_m,
        res.delta_js,
        res.generated_total,
        res.annotated_total,
        pts.join(" ")
    );
}

fn cmd_gamma(flags: &Flags) -> Option<ExitCode> {
    let kind = dataset_of(flags)?;
    let rows = num(flags, "rows", kind.default_rows())?;
    let seed = num(flags, "seed", 7u64)?;

    let table = generate(kind, rows, seed);
    let f = Featurizer::from_table(&table);
    let a = Annotator::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gen = QueryGenerator::from_notation(&table, "w12");
    let mut labelled = |n: usize| -> Vec<LabeledExample> {
        gen.generate_many(n, &mut rng)
            .iter()
            .map(|p| LabeledExample::new(f.featurize(p), a.count(&table, p) as f64))
            .collect()
    };
    let corpus = labelled(1600);
    let holdout = labelled(200);
    let dim = f.dim();
    let est = estimate_gamma(
        &move || {
            Box::new(warper_repro::ce::lm::LmMlp::new(
                dim,
                warper_repro::ce::lm::LmMlpParams::default(),
                9,
            ))
        },
        &corpus,
        &holdout,
        &[100, 200, 400, 800, 1600],
        DEFAULT_TOLERANCE,
    );
    println!(
        "learning curve on {} ({} rows, w12 workload):",
        kind.name(),
        rows
    );
    for p in &est.curve {
        println!("  {:>5} training queries → GMQ {:.2}", p.train_size, p.gmq);
    }
    println!("estimated γ = {}", est.gamma);
    Some(ExitCode::SUCCESS)
}

/// The table every serving command builds: `--dataset`, `--rows` (capped
/// default — serving runs are about the service, not the scan) and `--seed`.
fn table_of(flags: &Flags) -> Option<(DatasetKind, usize, u64, Table)> {
    let kind = dataset_of(flags)?;
    let rows = num(flags, "rows", kind.default_rows().min(10_000))?;
    let seed = num(flags, "seed", 7u64)?;
    Some((kind, rows, seed, generate(kind, rows, seed)))
}

/// The fleet shape flags: `--workers`, `--no-pack`.
fn fleet_of(flags: &Flags) -> Option<warper_repro::serve::FleetConfig> {
    let default = warper_repro::serve::FleetConfig::default();
    Some(warper_repro::serve::FleetConfig {
        workers: num(flags, "workers", default.workers)?,
        packing: !flags.contains_key("no-pack"),
        ..default
    })
}

/// Sleeps in one-second ticks until `--duration` seconds passed (forever
/// when 0), calling `tick` after each.
fn run_for(duration: u64, mut tick: impl FnMut()) {
    let t0 = Instant::now();
    loop {
        std::thread::sleep(Duration::from_secs(1));
        tick();
        if duration > 0 && t0.elapsed().as_secs() >= duration {
            return;
        }
    }
}

/// The replay-report printer for `serve` / `loadgen`: aggregate throughput,
/// split shed counters (admission vs deadline), packing efficiency, a
/// per-shard hot-spot table when there is more than one shard, and what the
/// adapting shards did.
fn print_replay(rep: &warper_repro::serve::ReplayReport) {
    let f = &rep.fleet;
    let (p50, p95, p99, max) = rep.latency.summary_scaled(1_000.0);
    println!(
        "shards={} served={} shed={} deadline_shed={} rejected={} errors={} \
         throughput={:.0} qps ({:.1}s)",
        rep.per_shard.len(),
        rep.served,
        f.shed,
        f.shed_deadline,
        f.rejected,
        rep.errors,
        rep.throughput_qps,
        rep.wall_secs
    );
    println!("latency µs: p50={p50:.0} p95={p95:.0} p99={p99:.0} max={max:.0}");
    println!(
        "packing: gemm_groups={} packed_requests={} mean_gemm_batch={:.1} \
         mean_sub_batch={:.1} pack_efficiency={:.2} deadline_trips={}",
        f.gemm_groups,
        f.packed_requests,
        f.mean_gemm_batch(),
        f.mean_sub_batch(),
        f.pack_efficiency(),
        f.deadline_trips
    );
    println!(
        "generations={} max_staleness={} precision={}",
        rep.generations_published, rep.max_staleness, rep.precision
    );
    if rep.per_shard.len() > 1 {
        let mut hot: Vec<_> = rep.per_shard.iter().enumerate().collect();
        hot.sort_by(|a, b| b.1.stats.served.cmp(&a.1.stats.served).then(a.0.cmp(&b.0)));
        println!("hottest shards (of {}):", rep.per_shard.len());
        for (id, s) in hot.iter().take(8) {
            println!(
                "  #{id:<4} {:<20} served={:<6} shed={} deadline_shed={} qps={:.0} \
                 mean_sub_batch={:.1} gen={}",
                s.key.to_string(),
                s.stats.served,
                s.stats.shed,
                s.stats.shed_deadline,
                s.qps,
                s.stats.mean_sub_batch(),
                s.stats.generation
            );
        }
    }
    for (id, a) in &rep.adapt {
        println!(
            "shard #{id} adaptation: invocations={} commits={} rollbacks={} published={} \
             quant_refusals={} annotated={} generated={} ({:.1}s)",
            a.invocations,
            a.commits,
            a.rollbacks,
            a.published,
            a.quant_refusals,
            a.annotated,
            a.generated,
            a.adapt_secs
        );
    }
    if rep.drift.iter().any(|d| d.score > 0.0) || !rep.annotation_grants.is_empty() {
        println!("shard drift (sketch-ranked, worst first):");
        for d in &rep.drift {
            let grant = rep
                .annotation_grants
                .iter()
                .find(|&&(id, _)| id == d.shard)
                .map(|&(_, g)| format!(" grant={g}"))
                .unwrap_or_default();
            println!(
                "  #{:<4} score={:.3} changed={:.3} distinct_shift={:.3} hh_churn={:.3}{}",
                d.shard, d.score, d.changed_fraction, d.distinct_shift, d.hh_churn, grant
            );
        }
    }
    for (id, d) in &rep.durability {
        let resumed = match &d.recovery {
            Some(r) => format!(
                "resumed from checkpoint {} (+{} WAL labels{}, {:.3}s, pool={})",
                r.snapshot_seq,
                r.wal_records_replayed,
                if r.wal_truncated {
                    ", corrupt tail truncated"
                } else {
                    ""
                },
                r.recovery_secs,
                r.pool_len,
            ),
            None => "fresh state directory".into(),
        };
        let s = &d.stats;
        println!(
            "shard #{id} durability: {resumed}; checkpoints={} (failures={}, {:.3}s) \
             wal_appends={} (failures={}, {:.3}s) final_seq={}",
            s.checkpoints,
            s.checkpoint_failures,
            s.checkpoint_secs,
            s.wal_appends,
            s.wal_append_failures,
            s.wal_secs,
            d.final_seq,
        );
    }
    if let Some(g) = rep.spot_gmq_pre {
        println!("spot GMQ pre-drift:  {g:.2}");
    }
    if let Some(g) = rep.spot_gmq_post {
        println!("spot GMQ post-drift: {g:.2}");
    }
    println!("estimates checksum: {:016x}", rep.estimates_checksum);
}

/// `warper serve` / `warper loadgen` in process: one replay of one fleet.
/// `serving` picks the defaults that differ — `serve` adapts its single
/// table and spot-checks accuracy, `loadgen` replays against the frozen
/// model — and which flag carries the shard count (`--shards` vs
/// `--tenants`).
fn cmd_replay(flags: &Flags, serving: bool) -> Option<ExitCode> {
    use warper_repro::durable::{DurabilityConfig, StdVfs, Vfs};
    use warper_repro::serve::{
        run_replay, AdaptConfig, AdaptMode, DriftEvent, DriftKind, DurableReplay, ReplaySpec,
        ShardKey,
    };
    use warper_repro::warper::supervisor::SupervisorConfig;

    let shards_key = if serving { "shards" } else { "tenants" };
    let sharded = flags.contains_key(shards_key);
    let single_service = serving && !sharded;
    let shards = num(flags, shards_key, 1usize)?;
    let queries = num(
        flags,
        "queries",
        if single_service { 1_000 } else { 2_000usize },
    )?;
    let clients = num(flags, "clients", 4usize)?;
    let invoke_every = num(flags, "invoke-every", 100usize)?;
    let drift_at = num(flags, "drift-at", 0usize)?;
    let rate = num(flags, "rate", 0.0f64)?;
    let checkpoint_every = num(flags, "checkpoint-every", 4usize)?;
    let mut fleet = fleet_of(flags)?;
    if flags.contains_key("batch") {
        fleet.max_packed_batch = num(flags, "batch", fleet.max_packed_batch)?;
        fleet.quantum = fleet.max_packed_batch;
    }
    let sync = flags.contains_key("sync");

    // Per-shard durable lineages live under `state_dir/{shard-tenant-table}`
    // ([`StdVfs::open`] creates the subdirectory); the single table's
    // lineage is the state directory itself.
    let durable = flags.get("state-dir").cloned().map(|dir| DurableReplay {
        cfg: DurabilityConfig { checkpoint_every },
        vfs_for: Box::new(move |key: &ShardKey| {
            let dir = match sharded {
                true => format!("{dir}/{}", key.dir_name()),
                false => dir.clone(),
            };
            StdVfs::open(dir).map(|v| Arc::new(v) as Arc<dyn Vfs>)
        }),
    });
    let spec = ReplaySpec {
        mix: text(flags, "mix", "w1"),
        n_train: 400,
        n_queries: queries,
        clients,
        shards,
        zipf_s: num(flags, "zipf", 1.1f64)?,
        fleet,
        // Serving-scale controller: small modules keep per-shard retraining
        // steps short.
        warper: WarperConfig {
            embed_dim: 8,
            hidden: 32,
            n_i: 6,
            pretrain_epochs: 3,
            gamma: 200,
            n_p: 60,
            ..Default::default()
        },
        adapt: if sync {
            AdaptMode::Synchronous {
                supervisor: SupervisorConfig::default(),
                invoke_every,
            }
        } else {
            AdaptMode::Background(AdaptConfig {
                invoke_every,
                ..Default::default()
            })
        },
        adapt_shards: num(flags, "adapt-shards", usize::from(single_service))?,
        drift: (drift_at > 0).then(|| DriftEvent {
            at_query: drift_at,
            kind: if flags.contains_key("data-drift") {
                DriftKind::Data(DataDriftKind::SortTruncate { col: 1 })
            } else {
                DriftKind::Workload {
                    new_mix: text(flags, "new", "w4"),
                }
            },
        }),
        drift_shards: num(flags, "drift-shards", 0usize)?,
        annotation_budget: num(flags, "annotation-budget", 0usize)?,
        seed: num(flags, "seed", 7u64)?,
        pace: (rate > 0.0).then(|| ArrivalProcess {
            rate_per_sec: rate,
            period_secs: queries as f64 / rate,
        }),
        spot_checks: if serving { 25 } else { 0 },
        durable,
        precision: precision_of(flags)?,
        ..Default::default()
    };

    let (kind, rows, _, table) = table_of(flags)?;
    println!(
        "{} ({rows} rows), {queries} queries over {shards} shards (zipf s={}, {clients} clients{}, \
         {} workers, packing {}), {} adapting ({})",
        kind.name(),
        spec.zipf_s,
        if rate > 0.0 {
            format!(" at {rate} qps")
        } else {
            " closed loop".into()
        },
        fleet.workers,
        if fleet.packing { "on" } else { "off" },
        spec.adapt_shards.min(shards),
        if sync { "synchronous" } else { "background" },
    );
    let rep = ok_or_fail(run_replay(&table, &spec), "replay failed")?;
    print_replay(&rep);

    if flags.contains_key("smoke") {
        // CI smoke gate: every request answered (no admission or deadline
        // sheds at this load), nothing errored, tail latency within a
        // generous bound, adaptation ran if it was asked for, and packing
        // actually packed.
        let f = &rep.fleet;
        let (_, _, p99, _) = rep.latency.summary_scaled(1_000.0);
        let mut failures = Vec::new();
        if rep.errors != 0 {
            failures.push(format!("{} serve errors", rep.errors));
        }
        if f.shed != 0 {
            failures.push(format!("{} requests admission-shed at idle load", f.shed));
        }
        if f.shed_deadline != 0 {
            failures.push(format!(
                "{} requests deadline-shed at idle load",
                f.shed_deadline
            ));
        }
        if rep.served != queries {
            failures.push(format!("served {}/{queries}", rep.served));
        }
        if p99 > 250_000.0 {
            failures.push(format!("p99 {p99:.0}µs above generous 250ms bound"));
        }
        if !rep.adapt.is_empty() && rep.adapt.iter().all(|(_, a)| a.invocations == 0) {
            failures.push("adaptation never ran".into());
        }
        if fleet.packing && f.pack_efficiency() < 1.0 {
            failures.push(format!(
                "pack efficiency {:.2} below 1.0 with packing on",
                f.pack_efficiency()
            ));
        }
        if !failures.is_empty() {
            return fail(format!("SMOKE FAILED: {}", failures.join("; ")));
        }
        println!("smoke OK");
    }
    Some(ExitCode::SUCCESS)
}

/// Opens `--state-dir` as a [`StdVfs`], or a fresh in-memory Vfs when the
/// flag is absent (ephemeral node).
fn vfs_of(flags: &Flags) -> Option<Arc<dyn warper_repro::durable::Vfs>> {
    use warper_repro::durable::{MemVfs, StdVfs};
    match flags.get("state-dir") {
        None => Some(Arc::new(MemVfs::new())),
        Some(dir) => {
            let vfs = ok_or_fail(StdVfs::open(dir), format!("cannot open state dir {dir:?}"))?;
            Some(Arc::new(vfs))
        }
    }
}

/// `warper serve --listen ADDR`: a networked primary — trained model,
/// background adaptation, replicated durable store, TCP front-end.
fn cmd_serve_primary(flags: &Flags) -> Option<ExitCode> {
    use warper_repro::durable::DurabilityConfig;
    use warper_repro::serve::net::{PrimaryNode, PrimarySpec};
    use warper_repro::serve::AdaptConfig;

    let duration = num(flags, "duration", 0u64)?;
    let checkpoint_every = num(flags, "checkpoint-every", 4usize)?;
    let vfs = vfs_of(flags)?;
    let (kind, rows, seed, table) = table_of(flags)?;
    let spec = PrimarySpec {
        mix: text(flags, "mix", "w1"),
        seed,
        adapt: AdaptConfig {
            precision: precision_of(flags)?,
            ..Default::default()
        },
        durability: DurabilityConfig { checkpoint_every },
        ..Default::default()
    };
    let started = PrimaryNode::start(&table, vfs, &text(flags, "listen", ""), spec);
    let node = ok_or_fail(started, "primary failed to start")?;
    println!(
        "primary serving {} ({rows} rows) on {}",
        kind.name(),
        node.addr()
    );
    run_for(duration, || {
        let lag = node.lag();
        if lag.published > 0 {
            println!(
                "repl: published={} acked={} ops_behind={} secs_behind={:.3}",
                lag.published, lag.acked, lag.ops_behind, lag.secs_behind
            );
        }
    });
    let rep = node.shutdown();
    println!(
        "primary done: {} requests, {} ok, {} shed, {} deadline trips; \
         replicated {} mutations ({} acked)",
        rep.net.requests,
        rep.net.responses_ok,
        rep.net.shed,
        rep.net.deadline_trips,
        rep.repl.published,
        rep.repl.acked
    );
    Some(ExitCode::SUCCESS)
}

/// `warper serve --standby-of ADDR`: a warm standby that replicates the
/// primary's durable state and promotes itself when the link is lost.
fn cmd_serve_standby(flags: &Flags) -> Option<ExitCode> {
    use warper_repro::serve::net::{StandbyConfig, StandbyNode};

    let duration = num(flags, "duration", 0u64)?;
    let vfs = vfs_of(flags)?;
    let primary = text(flags, "standby-of", "");
    let cfg = StandbyConfig {
        auto_promote: !flags.contains_key("no-auto-promote"),
        ..Default::default()
    };
    let listen = text(flags, "listen", "127.0.0.1:0");
    let started = StandbyNode::start(vfs, &listen, primary.clone(), cfg);
    let node = ok_or_fail(started, "standby failed to start")?;
    println!("standby of {primary} listening on {}", node.addr());
    let mut was_promoted = false;
    run_for(duration, || {
        let st = node.state();
        println!(
            "standby: watermark={} validated_seq={} snapshots={} wal_frames={} rejected={}",
            st.watermark,
            st.validated_seq,
            st.stats.snapshots_applied,
            st.stats.wal_frames_applied,
            st.stats.rejected_ops
        );
        if node.promoted() && !was_promoted {
            was_promoted = true;
            println!("PROMOTED: serving on {}", node.addr());
        }
    });
    let rep = node.shutdown();
    println!(
        "standby done: applied {} snapshots + {} wal frames (rejected {}), promoted={}",
        rep.state.stats.snapshots_applied,
        rep.state.stats.wal_frames_applied,
        rep.state.stats.rejected_ops,
        rep.state.promoted_generation.is_some()
    );
    Some(ExitCode::SUCCESS)
}

/// `warper serve --listen ADDR --shards N`: a networked fleet — N shards
/// sharing one base snapshot behind a shard-routing TCP front-end
/// (`EstimateReqShard` on the wire; plain v1 requests land on shard 0).
fn cmd_serve_fleet_net(flags: &Flags) -> Option<ExitCode> {
    use warper_repro::serve::net::{NetServer, NetServerConfig, ServerCore};
    use warper_repro::serve::{initial_snapshot, Fleet, ShardKey, ShardSpec};
    use warper_repro::warper::supervisor::SupervisorConfig;

    let duration = num(flags, "duration", 0u64)?;
    let shards = num(flags, "shards", 8u32)?;
    let precision = precision_of(flags)?;
    let fleet_cfg = fleet_of(flags)?;
    let listen = text(flags, "listen", "");
    let (kind, rows, seed, table) = table_of(flags)?;
    let mix = text(flags, "mix", "w1");
    let tolerance = SupervisorConfig::default().quant_gmq_tolerance;
    let snap =
        warper_repro::warper::prepare_single_table(&table, &mix, ModelKind::LmMlp, 400, seed)
            .and_then(|p| {
                initial_snapshot(p.model.as_ref(), &p.training_set, precision, tolerance)
            });
    let snap = ok_or_fail(snap, "training failed")?;
    let specs: Vec<ShardSpec> = (0..shards)
        .map(|i| ShardSpec {
            key: ShardKey::new(format!("tenant-{i:04}"), "main"),
            snapshot: Arc::clone(&snap),
            adapt: None,
        })
        .collect();
    let fleet = Fleet::start(specs, fleet_cfg);
    let core = ServerCore::new_fleet(fleet.handle(), true, None);
    let bound = NetServer::bind(&listen, core, NetServerConfig::default());
    let server = ok_or_fail(bound, format!("fleet server failed to bind {listen:?}"))?;
    println!(
        "fleet serving {shards} shards of {} ({rows} rows) on {}",
        kind.name(),
        server.local_addr()
    );
    run_for(duration, || {});
    let net = server.shutdown();
    let (stats, _, _) = fleet.shutdown();
    println!(
        "fleet done: {} requests, {} ok, shed={} deadline_shed={} unknown_shard_rejects={}",
        net.requests, net.responses_ok, net.shed, net.shed_deadline, stats.rejected
    );
    println!(
        "packing: gemm_groups={} mean_gemm_batch={:.1} pack_efficiency={:.2}",
        stats.gemm_groups,
        stats.mean_gemm_batch(),
        stats.pack_efficiency()
    );
    Some(ExitCode::SUCCESS)
}

/// `warper loadgen --connect ADDR[,ADDR2]`: deterministic multi-client
/// load against networked servers, with bounded retry and rotation.
fn cmd_loadgen_net(flags: &Flags) -> Option<ExitCode> {
    use warper_repro::serve::{run_net_loadgen, NetLoadSpec};

    // The table must match the server's `--dataset/--rows/--seed` so the
    // featurization (and therefore the checksum) lines up.
    let (kind, rows, seed, table) = table_of(flags)?;
    let spec = NetLoadSpec {
        endpoints: flags
            .get("connect")
            .map(|s| s.split(',').map(str::to_string).collect())
            .unwrap_or_default(),
        clients: num(flags, "clients", 4usize)?,
        n_queries: num(flags, "queries", 2_000usize)?,
        mix: text(flags, "mix", "w1"),
        seed,
        tenants: num(flags, "tenants", 0u32)?,
        zipf_s: num(flags, "zipf", 1.1f64)?,
        ..Default::default()
    };
    println!(
        "{} ({rows} rows), {} queries from {} networked clients → {:?}",
        kind.name(),
        spec.n_queries,
        spec.clients,
        spec.endpoints
    );
    let rep = ok_or_fail(run_net_loadgen(&table, &spec), "loadgen failed")?;
    let (p50, p95, p99, max) = rep.latency.summary_scaled(1_000.0);
    println!(
        "ok={} shed={} rejected={} unavailable={} disconnected={} ({:.1}s)",
        rep.ok,
        rep.shed,
        rep.rejected,
        rep.unavailable,
        rep.disconnected,
        rep.elapsed.as_secs_f64()
    );
    println!("latency µs: p50={p50:.0} p95={p95:.0} p99={p99:.0} max={max:.0}");
    println!(
        "transport: reconnects={} rotations={} net_errors={} backoff={:.2}s \
         max_success_gap={:.3}s",
        rep.client.reconnects,
        rep.client.rotations,
        rep.client.net_errors,
        rep.client.backoff_secs,
        rep.max_success_gap.as_secs_f64()
    );
    println!("estimates checksum: {:016x}", rep.checksum);
    Some(ExitCode::SUCCESS)
}

fn cmd_datasets() -> Option<ExitCode> {
    for kind in DatasetKind::all() {
        let t = generate(kind, kind.default_rows(), 7);
        println!("{:?}", t.profile());
    }
    Some(ExitCode::SUCCESS)
}
