//! The traced run (`--trace 1`): the same lifecycle with a span around every
//! call into a layer's public functions, reported as per-layer metrics. It
//! claims nothing about end-to-end speed — that is the untraced run's job —
//! and says where a change to one layer should show.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use crate::gen::SCENARIOS;
use crate::host;
use crate::phases::{
    adapt_episode, bulk_rep, ingest_rep, open_loop_rep, recover_rep, serve_rep, setup, Fixture,
    ServeRep, ServeShape,
};
use crate::report::RunResult;
use crate::run::{audit_labels, tally_episode, tally_recovery, HELDOUT_AUDIT, LABEL_CHECK, UNITS};
use crate::stats::{median, Better, Summary};
use crate::sut::{self, RoundReport, StoreH};
use crate::trace::{count, total_ms, total_self_ms, Span, Tracer};
use crate::workloads::{Spec, BULK_BATCH, PER_ROUND};

/// Untraced/traced serve repetition pairs behind `loadgen.trace_overhead_pct`.
const OVERHEAD_PAIRS: usize = 4;
/// Open-loop rates (requests per second), their metrics, and the p99 limit,
/// timed from due time, a rate must meet to count as sustained.
const OPEN_LOOP: [(f64, &str); 2] = [
    (1000.0, "loadgen.p99_us_at_1000"),
    (3000.0, "loadgen.p99_us_at_3000"),
];
const OPEN_LOOP_P99_LIMIT_US: f64 = 5000.0;
const SERVE_CHECK: &str = "serve: replies wrong, shed or errored";
/// The hand-driven round's child spans: what its time is attributed to.
const ROUND_CHILDREN: [&str; 7] = [
    "warper.probe",
    "warper.invoke",
    "query.annotate",
    "durable.wal_append",
    "serve.quant.gate",
    "serve.snapshot.publish",
    "durable.checkpoint",
];

fn mean_ms(spans: &[Span], name: &str) -> f64 {
    total_ms(spans, name) / count(spans, name).max(1) as f64
}

fn fast(values: impl Iterator<Item = f64>, better: Better) -> f64 {
    Summary::of(&values.collect::<Vec<_>>(), better).value
}

/// What the sections of a traced run share.
struct Traced<'a> {
    spec: &'a Spec,
    fx: &'a Fixture,
    tracer: Arc<Tracer>,
    /// A tracer that records nothing, for the untraced repetitions.
    off: Tracer,
    unit_secs: f64,
    calib: Vec<f64>,
    result: RunResult,
}

/// Inference inside the serve phase, from the fleet's own counters.
#[derive(Debug, Clone, Copy)]
struct Inference {
    /// `inference_nanos` / requests served: amortised over the batch.
    us_per_req: f64,
    /// `inference_nanos` / GEMM groups: how long the requests of one batch
    /// wait for their `estimate_many` call.
    call_us: f64,
    /// `inference_nanos` over the CPU time of the whole process (clients,
    /// connections, workers) in the same repetitions.
    cpu_share_pct: f64,
}

/// What the hand-driven rounds hand to the sections after them.
struct Rounds {
    annotated: usize,
    total_ms: f64,
    gmq_post: f64,
}

impl Traced<'_> {
    /// Spans recorded while `f` ran.
    fn spans_of<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> (T, Vec<Span>) {
        let mark = self.tracer.mark();
        let out = f(self);
        (out, self.tracer.since(mark))
    }

    /// One reading of the calibration loop, taken between sections.
    fn calibrate(&mut self) {
        self.calib.push(host::calib_mops());
    }

    fn serve(&mut self, shape: ServeShape, traced: bool, unit: u64) -> ServeRep {
        let rep = if traced {
            let shape = ServeShape {
                spans: true,
                ..shape
            };
            serve_rep(self.fx, shape, &self.tracer, unit)
        } else {
            serve_rep(self.fx, shape, &self.off, unit)
        };
        self.result
            .tally
            .add(SERVE_CHECK, rep.attempted, rep.failed);
        rep
    }

    /// In-process p50 of a `shards` × `clients` shape: the best of two short
    /// repetitions.
    fn in_process_p50(&mut self, shards: usize, clients: usize) -> f64 {
        let shape = ServeShape {
            shards,
            clients,
            tcp: false,
            secs: self.unit_secs / 2.0,
            beside_adapt: false,
            spans: false,
        };
        (0..2)
            .map(|i| self.serve(shape, false, 100 + i).p50_us)
            .fold(f64::INFINITY, f64::min)
    }

    /// Serve: untraced and traced repetitions alternating, the in-process
    /// floor, and what the network adds. Returns what `FleetStats` says about
    /// inference and the tracing overhead in percent.
    fn serve_layers(&mut self) -> (Inference, f64) {
        let shape = ServeShape::of(self.spec, self.unit_secs);
        let warm = ServeShape {
            secs: self.unit_secs / 2.0,
            ..shape
        };
        self.serve(warm, false, 0);
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        for i in 0..OVERHEAD_PAIRS as u64 {
            self.calibrate();
            plain.push(self.serve(shape, false, 2 * i + 1));
            traced.push(self.serve(shape, true, 2 * i + 2));
        }
        let plain_qps = fast(plain.iter().map(|r| r.qps), Better::Higher);
        let traced_qps = fast(traced.iter().map(|r| r.qps), Better::Higher);
        let p50_front = fast(plain.iter().chain(&traced).map(|r| r.p50_us), Better::Lower);
        let sum = |f: fn(&ServeRep) -> u64| traced.iter().map(f).sum::<u64>() as f64;
        let served = sum(|r| r.fleet.served).max(1.0);
        let infer_us = sum(|r| r.fleet.inference_nanos) / served / 1e3;
        let mean_us = median(&traced.iter().map(|r| r.mean_us).collect::<Vec<_>>());
        let gemm_batch = sum(|r| r.fleet.packed_requests) / sum(|r| r.fleet.gemm_groups).max(1.0);
        let sub_batch = sum(|r| r.fleet.packed_requests) / sum(|r| r.fleet.sub_batches).max(1.0);
        let cpu_us = traced.iter().map(|r| r.cpu_secs).sum::<f64>() * 1e6 / served;
        let p99 = Summary::of(
            &traced.iter().map(|r| r.p99_us).collect::<Vec<_>>(),
            Better::Lower,
        );

        let point_p50 = self.in_process_p50(1, 1);
        // Network cost: the same shards and clients without the network.
        let net_overhead = if self.spec.tcp {
            p50_front - self.in_process_p50(self.spec.shards, self.spec.clients)
        } else {
            0.0
        };
        let (enc_ns, dec_ns, bytes) = sut::codec_cost(&self.fx.built.serve_q.feats[0], 20_000);
        let net = |f: fn(&sut::NetCounters) -> u64| {
            traced
                .iter()
                .filter_map(|r| r.net.as_ref())
                .map(f)
                .sum::<u64>() as f64
        };

        let r = &mut self.result;
        r.push_value("serve.fleet.point_p50_us", point_p50);
        r.push_value("serve.fleet.wait_us", mean_us - infer_us);
        r.push_value("serve.fleet.cpu_us_per_req", cpu_us);
        r.push("serve.p99_us", p99);
        r.push_value("serve.fleet.gemm_batch", gemm_batch);
        r.push_value("serve.fleet.sub_batch", sub_batch);
        r.push_value(
            "serve.fleet.pack_efficiency",
            gemm_batch / sub_batch.max(1e-9),
        );
        r.push_value(
            "serve.fleet.packs_per_kreq",
            sum(|r| r.fleet.packs) * 1e3 / served,
        );
        r.push_value("serve.fleet.shed", sum(|r| r.fleet.shed));
        r.push_value("serve.fleet.shed_deadline", sum(|r| r.fleet.shed_deadline));
        r.push_value("serve.net.overhead_us", net_overhead);
        r.push_value("serve.net.codec.encode_ns", enc_ns);
        r.push_value("serve.net.codec.decode_ns", dec_ns);
        r.push_value(
            "serve.net.bytes_per_req",
            if self.spec.tcp { bytes } else { 0.0 },
        );
        r.push_value("serve.net.reconnects", sum(|r| r.reconnects));
        r.push_value(
            "serve.net.errors",
            sum(|r| r.net_errors) + net(|n| n.decode_errors + n.cut_connections),
        );
        r.push_value("serve.net.deadline_trips", net(|n| n.deadline_trips));
        println!(
            "info plain qps {plain_qps:.1} traced qps {traced_qps:.1}; front-door p50 {p50_front:.1} us"
        );
        let overhead = 100.0 * (plain_qps - traced_qps) / plain_qps.max(1e-9);
        let inference = Inference {
            us_per_req: infer_us,
            call_us: infer_us * gemm_batch,
            cpu_share_pct: 100.0 * infer_us / cpu_us.max(1e-9),
        };
        (inference, overhead)
    }

    /// ce / linalg: direct calls on the served snapshot.
    fn model_layers(&mut self, inference: Inference) {
        let fx = self.fx;
        let feats = &fx.built.serve_q.feats;
        let t0 = Instant::now();
        let (mut n, mut acc) = (0usize, 0.0);
        while t0.elapsed().as_secs_f64() < self.unit_secs / 4.0 {
            let _s = self.tracer.span("ce.estimate", 0, n as u64);
            acc += fx.built.snapshot.estimate(&feats[n % feats.len()]);
            n += 1;
        }
        std::hint::black_box(acc);
        let b1_ns = t0.elapsed().as_nanos() as f64 / n.max(1) as f64;
        let bulk: Vec<f64> = (0..3)
            .map(|i| {
                let b = bulk_rep(fx, self.unit_secs / 4.0, &self.tracer, i);
                self.result.tally.add(
                    "bulk: estimates differ from generation 0",
                    b.calls * BULK_BATCH as u64,
                    b.mismatched,
                );
                b.est_per_s
            })
            .collect();
        let bulk_rate = Summary::of(&bulk, Better::Higher).value;
        let flops = fx.built.prep.flops_per_estimate(self.spec.hidden);
        let r = &mut self.result;
        r.push_value("ce.estimate_b1_ns", b1_ns);
        r.push_value("ce.estimate_b256_ns_per_est", 1e9 / bulk_rate);
        r.push_value("ce.infer_us_per_req", inference.us_per_req);
        r.push_value("ce.infer_call_us", inference.call_us);
        r.push_value("ce.infer_cpu_share_pct", inference.cpu_share_pct);
        r.push_value("linalg.gemm32.flops_per_est", flops);
        r.push_value("linalg.gemm32.gflops", flops * bulk_rate / 1e9);
    }

    /// The hand-driven episode: K rounds, each call into a layer its own
    /// span, and the served model's accuracy after every round.
    fn round_layers(&mut self) -> Rounds {
        self.calibrate();
        let (spec, fx) = (self.spec, self.fx);
        let dir = fx.state_dir("hand");
        let store = StoreH::open_fresh(&dir, spec.checkpoint_every, &fx.built.ctl, &fx.model);
        let mut reports: Vec<RoundReport> = Vec::with_capacity(spec.rounds);
        let mut gmq_by_round = Vec::with_capacity(spec.rounds);
        let mut round_ms = Vec::with_capacity(spec.rounds);
        let (probe_counts, rs) = self.spans_of(|t| {
            let mut driver = fx.hand_driver(Some(&store), Arc::clone(&t.tracer));
            for (k, batch) in fx.drift.arrivals.chunks(PER_ROUND).enumerate() {
                let t0 = Instant::now();
                reports.push(driver.round(batch, k as u64 + 1));
                round_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                gmq_by_round.push(fx.gmq_served(&driver.served()));
            }
            driver.probe_counts()
        });
        let counters = store.counters();
        let ckpt_bytes = dir.largest_checkpoint();
        dir.remove();

        let rounds = spec.rounds as f64;
        let total = |f: fn(&RoundReport) -> usize| reports.iter().map(f).sum::<usize>() as f64;
        let labels_logged = total(|r| r.labels_logged);
        let annotated = total(|r| r.annotated);
        let rows_scanned: u64 = reports.iter().map(|r| r.rows_scanned).sum();
        let round_total_ms: f64 = round_ms.iter().sum();
        let attributed: f64 = ROUND_CHILDREN.iter().map(|n| total_self_ms(&rs, n)).sum();
        let annotate_ms = total_ms(&rs, "query.annotate");
        let wal_ms = total_ms(&rs, "durable.wal_append");
        let mean_trained = total(|r| r.trained_on) / rounds;
        // The model update inside `invoke`, measured apart: one `update` of a
        // copy of the model on as many examples as a round trained on.
        let update_ms = {
            let mut model = fx.model.fork();
            let labels: Vec<f64> = fx.drift.arrival_counts.iter().map(|&c| c as f64).collect();
            let t0 = Instant::now();
            model.update_on(
                &fx.drift.arrived.feats,
                &labels,
                mean_trained.round() as usize,
            );
            t0.elapsed().as_secs_f64() * 1e3
        };
        // Accuracy context: is Warper beating the frozen model at all.
        let gmq_pre = fx.gmq_pre_drift();
        let gmq_frozen = fx.gmq_served(&fx.built.snapshot);
        let gmq_post = *gmq_by_round.last().expect("K >= 1");
        let target = gmq_frozen - 0.5 * (gmq_frozen - gmq_pre);
        let to_target = gmq_by_round
            .iter()
            .position(|g| *g <= target)
            .map_or(spec.rounds + 1, |k| k + 1);
        // `note_commit` runs at every commit and cuts a checkpoint at every
        // `checkpoint_every`-th: the spans' total is the checkpoints' cost.
        let checkpoints = counters.checkpoints.saturating_sub(1).max(1) as f64;

        let r = &mut self.result;
        r.push_value("warper.probe.fast_neg", probe_counts.0 as f64);
        r.push_value("warper.probe.fast_pos", probe_counts.1 as f64);
        r.push_value("warper.probe.rescans", probe_counts.2 as f64);
        r.push_value(
            "warper.invoke_self_ms",
            total_self_ms(&rs, "warper.invoke") / rounds,
        );
        r.push_value("warper.first_round_ms", round_ms[0]);
        r.push_value("warper.round_ms", round_total_ms / rounds);
        r.push_value(
            "warper.round_attributed_pct",
            100.0 * attributed / total_ms(&rs, "warper.round").max(1e-9),
        );
        r.push_value("warper.probe_us", mean_ms(&rs, "warper.probe") * 1e3);
        r.push_value("warper.labels_per_round", annotated / rounds);
        r.push_value(
            "warper.generated_per_round",
            total(|r| r.generated) / rounds,
        );
        r.push_value("warper.trained_on_per_round", mean_trained);
        r.push_value("warper.gan_retries", total(|r| r.gan_retries));
        r.push_value("warper.rollbacks", total(|r| usize::from(!r.committed)));
        r.push_value(
            "warper.drift_rounds",
            total(|r| usize::from(r.mode_bits != 0)),
        );
        r.push_value("ce.update_ms", update_ms);
        r.push_value("serve.quant.gate_ms", mean_ms(&rs, "serve.quant.gate"));
        r.push_value(
            "serve.quant.refusals",
            total(|r| usize::from(r.quant_refused)),
        );
        r.push_value(
            "serve.snapshot.publish_us",
            mean_ms(&rs, "serve.snapshot.publish") * 1e3,
        );
        r.push_value("query.annotate_ms_per_round", annotate_ms / rounds);
        r.push_value(
            "query.labels_per_s",
            annotated / (annotate_ms / 1e3).max(1e-9),
        );
        r.push_value(
            "query.rows_scanned_per_label",
            rows_scanned as f64 / annotated.max(1.0),
        );
        r.push_value("query.count_batch_ms", mean_ms(&rs, "query.annotate"));
        r.push_value(
            "durable.wal_append_us",
            wal_ms * 1e3 / labels_logged.max(1.0),
        );
        r.push_value("durable.wal_ms_per_round", wal_ms / rounds);
        r.push_value(
            "durable.ckpt_ms",
            total_ms(&rs, "durable.checkpoint") / checkpoints,
        );
        r.push_value("durable.ckpt_bytes", ckpt_bytes as f64);
        r.push_value(
            "durable.bytes_per_label",
            counters.wal_bytes as f64 / counters.wal_appends.max(1) as f64,
        );
        r.push_value("warper.gmq_pre", gmq_pre);
        r.push_value("warper.gmq_frozen", gmq_frozen);
        r.push_value("warper.gmq_round1", gmq_by_round[0]);
        r.push_value("warper.gmq_post", gmq_post);
        r.push_value("warper.rounds_to_target", to_target as f64);
        r.tally.add(
            "durable: WAL appends or checkpoints failed",
            counters.wal_appends + counters.checkpoints,
            counters.wal_append_failures + counters.checkpoint_failures,
        );
        r.exact.push(("labels_annotated", annotated.to_string()));
        r.exact.push(("rows_scanned", rows_scanned.to_string()));
        r.exact
            .push(("wal_appends", counters.wal_appends.to_string()));
        r.exact
            .push(("adapt_gmq_bits", format!("{:016x}", gmq_post.to_bits())));
        let modes: Vec<String> = reports.iter().map(|r| r.mode_bits.to_string()).collect();
        r.exact.push(("round_modes", modes.join(",")));
        println!(
            "info gmq by round {gmq_by_round:?}; round ms {round_ms:?}; delta_m {:?}",
            reports.iter().map(|r| r.delta_m).collect::<Vec<_>>()
        );
        Rounds {
            annotated: annotated as usize,
            total_ms: round_total_ms,
            gmq_post,
        }
    }

    /// The same episode through the real driver, then restarts on its state.
    fn episode_layers(&mut self, rounds: &Rounds) {
        self.calibrate();
        let fx = self.fx;
        let ep = adapt_episode(fx, "traced");
        let (checked, wrong) = audit_labels(fx, &ep);
        let (held, held_wrong) = fx.audit_heldout(HELDOUT_AUDIT);
        self.result
            .tally
            .add(LABEL_CHECK, checked + held, wrong + held_wrong);
        tally_episode(&mut self.result.tally, fx, &ep);
        // The hand-driven rounds did the driver's work: same labels, same model.
        self.result.tally.add(
            "adapt: hand-driven rounds and the real driver disagree",
            2,
            u64::from(rounds.gmq_post.to_bits() != ep.gmq.to_bits())
                + u64::from(ep.adapt.annotated as usize != rounds.annotated),
        );
        self.result.push_value(
            "warper.rounds_over_adapt_pct",
            100.0 * rounds.total_ms / (ep.secs * 1e3).max(1e-9),
        );
        let (replayed, rec) = self.spans_of(|t| {
            let mut replayed = 0;
            for i in 0..3 {
                let r = recover_rep(fx, &ep, &t.tracer, i);
                tally_recovery(&mut t.result.tally, &ep, &r);
                replayed = r.replayed;
            }
            replayed
        });
        ep.dir.remove();
        let r = &mut self.result;
        r.push_value(
            "durable.recover_open_ms",
            mean_ms(&rec, "durable.recover_open"),
        );
        r.push_value(
            "durable.recover_restore_ms",
            mean_ms(&rec, "durable.recover_restore"),
        );
        r.push_value("durable.recover_replayed", replayed as f64);
    }

    /// Ingest with spans; a reader beside the writes for the last repetition.
    fn ingest_layers(&mut self) {
        let (fx, reader) = (self.fx, self.spec.count_beside_writes);
        let (beside, ing) = self.spans_of(|t| {
            for i in 0..2 {
                ingest_rep(fx, reader, &t.tracer, i);
            }
            ingest_rep(fx, true, &t.tracer, 2)
        });
        let r = &mut self.result;
        r.push_value("storage.append_ms", mean_ms(&ing, "storage.append"));
        r.push_value("storage.update_ms", mean_ms(&ing, "storage.update"));
        r.push_value(
            "storage.zone_refresh_ms",
            mean_ms(&ing, "storage.zone_refresh"),
        );
        r.push_value(
            "storage.sketch_refresh_ms",
            mean_ms(&ing, "storage.sketch_refresh"),
        );
        r.push_value("query.count_ms_beside_writes", beside.reader_ms_per_batch);
        r.tally.add(
            "ingest: reader made no progress",
            1,
            u64::from(beside.reader_batches == 0),
        );
    }

    /// Serving while shard 0 adapts in the background.
    fn busy_layers(&mut self) {
        self.calibrate();
        let shape = ServeShape {
            beside_adapt: true,
            ..ServeShape::of(self.spec, self.unit_secs)
        };
        let busy = self.serve(shape, false, 200);
        let adapt = busy.adapt.unwrap_or_default();
        let r = &mut self.result;
        r.push_value("serve.adapt.commits", adapt.commits as f64);
        r.push_value(
            "serve.adapt.dropped_observations",
            adapt.dropped_observations as f64,
        );
        r.push_value("serve.snapshot.staleness_max", busy.staleness_max as f64);
        r.push_value("serve.p50_us_while_adapting", busy.p50_us);
    }

    /// Open loop: latency at fixed rates, timed from each request's due time.
    fn open_loop_layers(&mut self) {
        let (mut max_ok, mut late) = (0.0, 0.0);
        for (rate, metric) in OPEN_LOOP {
            let r = open_loop_rep(self.fx, rate, self.unit_secs);
            self.result.tally.add(
                "open loop: replies wrong, shed or errored",
                r.sent + r.failed,
                r.failed,
            );
            if r.failed == 0 && r.p99_us <= OPEN_LOOP_P99_LIMIT_US {
                max_ok = rate;
            }
            late = r.late_p99_us;
            self.result.push_value(metric, r.p99_us);
        }
        self.result.push_value("loadgen.max_rate_ok", max_ok);
        self.result.push_value("loadgen.late_p99_us", late);
    }
}

pub fn run(spec: &Spec, seed: u64, seconds: f64, out: &Path) -> RunResult {
    // On one CPU, like every pass of the end-to-end run.
    host::pin_to_one_cpu(seed as usize);
    let tracer = Arc::new(Tracer::new(true));
    let mut result = RunResult::new(spec.name, seed, true);
    result.why = spec.why;
    let scratch = out.join(format!("tmp-{}-{}-{}", spec.name, seed, std::process::id()));
    let ticks0 = host::cpu_ticks();
    let calib = vec![host::calib_mops()];

    // One scenario of the set, cycled by the seed; set-up once, with spans.
    let scenario = (seed % SCENARIOS.len() as u64) as usize;
    let (built, _) = setup(spec, seed, &tracer);
    let fx = Fixture::build(spec, scenario, seed, built, &scratch);
    let setup_spans = tracer.snapshot();
    for (metric, span) in [
        ("storage.generate_ms", "storage.generate"),
        ("storage.index_build_ms", "storage.index_build"),
        ("workload.gen_ms", "workload.gen"),
        ("ce.fit_ms", "ce.fit"),
        ("warper.build_ms", "warper.build"),
    ] {
        result.push_value(metric, total_ms(&setup_spans, span));
    }

    let mut t = Traced {
        spec,
        fx: &fx,
        tracer,
        off: Tracer::new(false),
        unit_secs: seconds / UNITS,
        calib,
        result,
    };
    let (inference, trace_overhead) = t.serve_layers();
    t.model_layers(inference);
    let rounds = t.round_layers();
    t.episode_layers(&rounds);
    t.ingest_layers();
    t.busy_layers();
    t.open_loop_layers();
    t.calibrate();

    let Traced {
        tracer,
        calib,
        mut result,
        ..
    } = t;
    result.push_value("loadgen.trace_overhead_pct", trace_overhead);
    result.push_value("host.steal_pct", host::steal_pct(ticks0, host::cpu_ticks()));
    result.push_value("host.calib_mops", median(&calib));
    result.info.push(("host.calib_mops", median(&calib)));
    result.info.push((
        "host.cpus_per_pass",
        std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64),
    ));
    result.exact.push((
        "arrival_rows_scanned",
        fx.drift.arrival_rows_scanned.to_string(),
    ));

    let _ = std::fs::remove_dir_all(&scratch);
    result.print_human();
    if std::fs::create_dir_all(out).is_ok() {
        let path = out.join(format!("trace-{}-{}.jsonl", spec.name, seed));
        let _ = std::fs::write(path, tracer.to_jsonl());
    }
    result.write_file(out);
    result
}
