//! The lifecycle's phases. Every function here runs one *repetition* on a
//! fresh instance of whatever it measures, does seed-determined work, and
//! verifies what came back. The run loops in `run.rs` and `layers.rs`
//! decide how many repetitions to take and what to report.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use crate::gen::{stream, sub_seed, work_list, WorkItem, BASE, SCENARIOS};
use crate::host;
use crate::stats::percentile_sorted;
use crate::sut::{
    self, AckedLabel, AdaptCounters, AdaptPlan, CtlState, DriftRng, FleetCounters, ModelH,
    NetCounters, Prepared, QuerySet, Running, SharedTable, SketchH, Snapshot, StateDir,
    StoreCounters, StoreH, TableH,
};
use crate::trace::Tracer;
use crate::workloads::{Spec, BULK_BATCH, HELDOUT, PER_ROUND, SERVE_QUERIES, ZIPF_S};

/// What set-up builds: the pre-drift table with its indexes, the trained
/// model and its serving copy, the controller, and the serve-query stream.
pub struct Built {
    pub table: TableH,
    pub prep: Prepared,
    pub ctl: CtlState,
    pub snapshot: Snapshot,
    pub serve_q: QuerySet,
}

/// One full set-up, timed: table generate, zone/sketch index build, the
/// offline phase (`prepare_single_table` + fit), query-stream generation
/// (from `seed`), `WarperController::new` pre-training, and the first fleet
/// (and server) start up to its first answered estimate.
pub fn setup(spec: &Spec, seed: u64, tracer: &Tracer) -> (Built, f64) {
    let t0 = Instant::now();
    let root = tracer.span("setup", 0, 0);
    let table = {
        let _s = tracer.span("storage.generate", root.id(), 0);
        TableH::generate(spec.dataset, spec.rows, sub_seed(BASE, stream::TABLE))
    };
    {
        let _s = tracer.span("storage.index_build", root.id(), 0);
        table.zone_index();
        table.table_sketch();
    }
    let prep = sut::prepare(
        &table,
        spec,
        sub_seed(BASE, stream::PREPARE),
        tracer,
        root.id(),
    );
    let serve_q = {
        let _s = tracer.span("workload.gen", root.id(), 0);
        QuerySet::generate(
            &table,
            spec.train_mix,
            SERVE_QUERIES,
            sub_seed(seed, stream::SERVE_QUERIES),
            &prep,
        )
    };
    let ctl = {
        let _s = tracer.span("warper.build", root.id(), 0);
        sut::build_controller(&prep, spec, sub_seed(BASE, stream::PREPARE))
    };
    let (snapshot, running) = {
        let _s = tracer.span("serve.start", root.id(), 0);
        let snapshot = prep.serving_snapshot();
        let running = Running::start(spec.shards, &snapshot, None, spec.tcp);
        let first = running
            .client(sub_seed(seed, stream::NET))
            .estimate(0, &serve_q.feats[0]);
        assert!(first.is_some(), "the first estimate was not answered");
        (snapshot, running)
    };
    let secs = t0.elapsed().as_secs_f64();
    drop(root);
    running.shutdown();
    let built = Built {
        table,
        prep,
        ctl,
        snapshot,
        serve_q,
    };
    (built, secs)
}

/// What one drift scenario adds to a set-up: the drifted table, the arrivals
/// after the drift and the held-out queries the adapted model is scored on.
pub struct Drifted {
    /// Index of the scenario in `SCENARIOS`.
    pub scenario: usize,
    /// The table adaptation runs against: the base table after the data
    /// drift landed, or a copy of the base table under a workload drift.
    pub adapt_table: TableH,
    /// Sketch of the pre-drift table when the table drifted.
    pub baseline: Option<SketchH>,
    /// K × n post-drift arrivals, labelled when the workload says so.
    pub arrivals: Vec<(Vec<f64>, Option<f64>)>,
    pub heldout: QuerySet,
    /// The held-out queries' counts on `adapt_table`, by the annotation
    /// engine ([`Fixture::audit_heldout`] re-counts some row by row).
    pub heldout_truth: Vec<f64>,
    /// The arrivals as predicates, with the annotation engine's counts and
    /// the rows it evaluated for them (an exact, seed-determined count).
    pub arrived: QuerySet,
    pub arrival_counts: Vec<u64>,
    pub arrival_rows_scanned: u64,
}

impl Drifted {
    fn build(spec: &Spec, scenario: usize, built: &Built) -> Self {
        let seed = SCENARIOS[scenario];
        let mut adapt_table = built.table.fork();
        let baseline = spec.data_drift.map(|d| {
            let base = built.table.sketch();
            let mut rng = DriftRng::new(sub_seed(seed, stream::DRIFT));
            adapt_table.update(d.update_frac, &mut rng);
            let extra = (built.table.rows() as f64 * d.append_frac).round() as usize;
            adapt_table.append(extra, &mut rng);
            adapt_table.zone_index();
            adapt_table.table_sketch();
            base
        });

        let arrived = QuerySet::generate(
            &adapt_table,
            spec.drift_mix,
            spec.rounds * PER_ROUND,
            sub_seed(seed, stream::ARRIVALS),
            &built.prep,
        );
        let counts = sut::count_fast(&adapt_table, &arrived);
        let arrivals = arrived
            .feats
            .iter()
            .zip(&counts)
            .map(|(f, &(c, _))| (f.clone(), spec.labelled_arrivals.then_some(c as f64)))
            .collect();
        let heldout = QuerySet::generate(
            &adapt_table,
            spec.drift_mix,
            HELDOUT,
            sub_seed(seed, stream::HELDOUT),
            &built.prep,
        );
        let heldout_truth = sut::count_fast(&adapt_table, &heldout)
            .into_iter()
            .map(|(c, _)| c as f64)
            .collect();
        Self {
            scenario,
            adapt_table,
            baseline,
            arrivals,
            heldout,
            heldout_truth,
            arrival_rows_scanned: counts.iter().map(|&(_, r)| r as u64).sum(),
            arrival_counts: counts.iter().map(|&(c, _)| c).collect(),
            arrived,
        }
    }
}

/// Everything the repetitions of one pass share: the set-up, the traffic
/// `seed` draws, and the drift scenario the pass is on at the moment.
pub struct Fixture {
    pub spec: Spec,
    pub seed: u64,
    pub built: Built,
    pub model: ModelH,
    /// Generation-0 answer bits of every serve query.
    pub expected: Vec<u64>,
    /// One cyclic work list per client.
    pub work: Vec<Vec<WorkItem>>,
    /// Held-out queries of the training mix on the pre-drift table, with
    /// their counts: the model's accuracy before anything drifted.
    pub pre_heldout: QuerySet,
    pub pre_heldout_truth: Vec<f64>,
    pub drift: Drifted,
    pub scratch: PathBuf,
}

const WORK_LIST_LEN: usize = 8192;

impl Fixture {
    /// `scenario` indexes `SCENARIOS`.
    pub fn build(spec: &Spec, scenario: usize, seed: u64, built: Built, scratch: &Path) -> Self {
        let refs = built.serve_q.refs();
        let expected: Vec<u64> = built
            .snapshot
            .estimate_many(&refs)
            .into_iter()
            .map(f64::to_bits)
            .collect();
        drop(refs);
        let work = (0..spec.clients.max(16))
            .map(|c| work_list(seed, c, WORK_LIST_LEN, spec.shards, ZIPF_S, SERVE_QUERIES))
            .collect();
        let pre_heldout = QuerySet::generate(
            &built.table,
            spec.train_mix,
            HELDOUT,
            sub_seed(BASE, stream::HELDOUT) ^ 1,
            &built.prep,
        );
        let pre_heldout_truth = sut::count_fast(&built.table, &pre_heldout)
            .into_iter()
            .map(|(c, _)| c as f64)
            .collect();
        let model = built.prep.model_copy();
        let drift = Drifted::build(spec, scenario, &built);
        Self {
            spec: spec.clone(),
            seed,
            built,
            model,
            expected,
            work,
            pre_heldout,
            pre_heldout_truth,
            drift,
            scratch: scratch.to_path_buf(),
        }
    }

    /// Moves the fixture on to another scenario of the same set-up.
    pub fn redrift(&mut self, scenario: usize) {
        self.drift = Drifted::build(&self.spec, scenario, &self.built);
    }

    fn adapt_plan<'a>(
        &'a self,
        table: SharedTable,
        store: Option<&'a StoreH>,
        inbox: usize,
    ) -> AdaptPlan<'a> {
        AdaptPlan {
            prep: &self.built.prep,
            ctl: &self.built.ctl,
            model: &self.model,
            table,
            baseline: self.drift.baseline.as_ref(),
            store,
            invoke_every: PER_ROUND,
            inbox,
            seed: sub_seed(SCENARIOS[self.drift.scenario], stream::ADAPT),
        }
    }

    /// A fresh state directory for one episode.
    pub fn state_dir(&self, tag: &str) -> StateDir {
        if self.spec.disk_state {
            let path = self.scratch.join(format!("state-{tag}"));
            let _ = std::fs::remove_dir_all(&path);
            StateDir::disk(&path)
        } else {
            StateDir::memory()
        }
    }

    /// Re-counts `n` of the arrivals' labels with the row-at-a-time oracle.
    /// Returns `(checked, wrong)`.
    pub fn audit_arrivals(&self, n: usize) -> (u64, u64) {
        let d = &self.drift;
        let counts: Vec<f64> = d.arrival_counts.iter().map(|&c| c as f64).collect();
        audit(&d.adapt_table, &d.arrived, &counts, n)
    }

    /// Re-counts `n` of the held-out queries' labels the same way.
    pub fn audit_heldout(&self, n: usize) -> (u64, u64) {
        let d = &self.drift;
        audit(&d.adapt_table, &d.heldout, &d.heldout_truth, n)
    }

    /// GMQ of `snapshot` on the post-drift held-out queries.
    pub fn gmq_served(&self, snapshot: &Snapshot) -> f64 {
        let est = snapshot.estimate_many(&self.drift.heldout.refs());
        sut::gmq_of(&est, &self.drift.heldout_truth)
    }

    /// GMQ of the generation-0 model on the pre-drift held-out queries.
    pub fn gmq_pre_drift(&self) -> f64 {
        let est = self.built.snapshot.estimate_many(&self.pre_heldout.refs());
        sut::gmq_of(&est, &self.pre_heldout_truth)
    }

    /// A hand driver over a fresh copy of the adaptation state.
    pub fn hand_driver<'a>(
        &'a self,
        store: Option<&'a StoreH>,
        tracer: Arc<Tracer>,
    ) -> sut::HandDriver<'a> {
        let table = self.drift.adapt_table.fork().share();
        let plan = self.adapt_plan(table, store, self.drift.arrivals.len());
        sut::HandDriver::new(plan, &self.built.snapshot, tracer)
    }
}

/// Holds `n` evenly spaced engine counts of `queries` against the
/// row-at-a-time oracle. Returns `(checked, wrong)`.
fn audit(table: &TableH, queries: &QuerySet, counts: &[f64], n: usize) -> (u64, u64) {
    let stride = (queries.len() / n.max(1)).max(1);
    let (mut checked, mut wrong) = (0u64, 0u64);
    for i in (0..queries.len()).step_by(stride).take(n) {
        checked += 1;
        wrong += u64::from(sut::count_oracle(table, queries, i) as f64 != counts[i]);
    }
    (checked, wrong)
}

// ------------------------------------------------------------------ serve

/// The shape of one serve repetition.
#[derive(Debug, Clone, Copy)]
pub struct ServeShape {
    pub shards: usize,
    pub clients: usize,
    pub tcp: bool,
    pub secs: f64,
    /// Shard 0 adapts in the background, fed by one writer thread.
    pub beside_adapt: bool,
    /// Record one span per request.
    pub spans: bool,
}

impl ServeShape {
    pub fn of(spec: &Spec, secs: f64) -> Self {
        Self {
            shards: spec.shards,
            clients: spec.clients,
            tcp: spec.tcp,
            secs,
            beside_adapt: false,
            spans: false,
        }
    }
}

#[derive(Debug, Clone, Default)]
pub struct ServeRep {
    pub qps: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub mean_us: f64,
    pub verified: u64,
    pub failed: u64,
    pub attempted: u64,
    pub fleet: FleetCounters,
    pub net: Option<NetCounters>,
    pub adapt: Option<AdaptCounters>,
    pub reconnects: u64,
    pub net_errors: u64,
    pub cpu_secs: f64,
    pub staleness_max: u64,
}

struct ClientLog {
    lat_ns: Vec<u32>,
    /// `(query, generation, bits)`.
    replies: Vec<(u32, u64, u64)>,
    failed: u64,
    intervals: Vec<(u64, u64)>,
    seen: Vec<(u64, Snapshot)>,
    staleness_max: u64,
    end: Instant,
    net: (u64, u64),
}

/// One closed-loop serve repetition on a fresh fleet (and server, and
/// connections, and client threads).
pub fn serve_rep(fx: &Fixture, shape: ServeShape, tracer: &Tracer, unit: u64) -> ServeRep {
    let table = shape
        .beside_adapt
        .then(|| fx.drift.adapt_table.fork().share());
    let plan = table.clone().map(|t| fx.adapt_plan(t, None, PER_ROUND));
    let running = Running::start(shape.shards, &fx.built.snapshot, plan, shape.tcp);
    let feats = &fx.built.serve_q.feats;
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(shape.clients + 1);
    let cpu0 = host::process_cpu_secs();
    let origin = tracer.origin();

    let (logs, start) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..shape.clients)
            .map(|c| {
                let (running, stop, barrier) = (&running, &stop, &barrier);
                let work = &fx.work[c];
                let mut client = running.client(sub_seed(sub_seed(fx.seed, stream::NET), c as u64));
                s.spawn(move || {
                    let mut log = ClientLog {
                        lat_ns: Vec::with_capacity(1 << 16),
                        replies: Vec::with_capacity(1 << 16),
                        failed: 0,
                        intervals: Vec::new(),
                        seen: Vec::new(),
                        staleness_max: 0,
                        end: Instant::now(),
                        net: (0, 0),
                    };
                    // A probe shape may have fewer shards than the work list
                    // was drawn for.
                    let shard_of = |item: &WorkItem| item.shard % shape.shards as u32;
                    // Connect and warm the path before the clock starts.
                    let warm = client.estimate(shard_of(&work[0]), &feats[work[0].query as usize]);
                    log.failed += u64::from(warm.is_none());
                    barrier.wait();
                    let mut pos = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        let item = work[pos % work.len()];
                        let shard = shard_of(&item);
                        let t0 = Instant::now();
                        let reply = client.estimate(shard, &feats[item.query as usize]);
                        let t1 = Instant::now();
                        match reply {
                            Some(r) => {
                                log.lat_ns
                                    .push((t1 - t0).as_nanos().min(u32::MAX as u128) as u32);
                                log.replies.push((item.query, r.generation, r.bits));
                                // Keep each generation met, to verify its
                                // replies against afterwards.
                                if r.generation > 0
                                    && !log.seen.iter().any(|(g, _)| *g == r.generation)
                                {
                                    let snap = running.current(shard);
                                    if snap.generation() == r.generation {
                                        log.seen.push((r.generation, snap));
                                    }
                                }
                                if shape.beside_adapt {
                                    let behind =
                                        running.version(shard).saturating_sub(r.generation);
                                    log.staleness_max = log.staleness_max.max(behind);
                                }
                                if shape.spans {
                                    log.intervals.push((
                                        (t0 - origin).as_nanos() as u64,
                                        (t1 - origin).as_nanos() as u64,
                                    ));
                                }
                            }
                            None => log.failed += 1,
                        }
                        pos += 1;
                    }
                    log.end = Instant::now();
                    log.net = client.net_stats();
                    log
                })
            })
            .collect();
        // The one writer: keeps shard 0's adaptation inbox fed for as long
        // as the repetition lasts (a full inbox drops, never blocks). One
        // observation per 5 ms fills a round's batch about as fast as a
        // round runs, so the worker stays busy and `Fleet::shutdown` has at
        // most the round in flight to wait for.
        let writer = shape.beside_adapt.then(|| {
            let (running, stop) = (&running, &stop);
            let arrivals = &fx.drift.arrivals;
            s.spawn(move || {
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let (f, gt) = &arrivals[i % arrivals.len()];
                    running.observe(0, f.clone(), *gt);
                    i += 1;
                    std::thread::sleep(Duration::from_millis(5));
                }
            })
        });
        barrier.wait();
        let start = Instant::now();
        std::thread::sleep(Duration::from_secs_f64(shape.secs));
        stop.store(true, Ordering::Relaxed);
        if let Some(w) = writer {
            w.join().expect("writer thread");
        }
        let logs: Vec<ClientLog> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (logs, start)
    });
    let wall_secs = logs
        .iter()
        .map(|l| (l.end - start).as_secs_f64())
        .fold(0.0, f64::max);
    let cpu_secs = host::process_cpu_secs() - cpu0;
    let stopped = running.shutdown();

    // Verify every reply bit-for-bit against `estimate_many` of the
    // generation that served it.
    let mut rep = ServeRep {
        cpu_secs,
        fleet: stopped.fleet,
        net: stopped.net,
        adapt: stopped.adapt,
        ..ServeRep::default()
    };
    let mut seen: HashMap<u64, Snapshot> = HashMap::new();
    for log in &logs {
        for (g, snap) in &log.seen {
            seen.entry(*g).or_insert_with(|| snap.clone());
        }
    }
    let mut lat: Vec<u64> = Vec::new();
    let mut later: HashMap<u64, Vec<(u32, u64)>> = HashMap::new();
    for (c, log) in logs.iter().enumerate() {
        rep.failed += log.failed;
        rep.attempted += log.failed + log.replies.len() as u64;
        rep.reconnects += log.net.0;
        rep.net_errors += log.net.1;
        rep.staleness_max = rep.staleness_max.max(log.staleness_max);
        lat.extend(log.lat_ns.iter().map(|&n| u64::from(n)));
        for &(query, generation, bits) in &log.replies {
            if generation == 0 {
                if fx.expected[query as usize] == bits {
                    rep.verified += 1;
                } else {
                    rep.failed += 1;
                }
            } else {
                later.entry(generation).or_default().push((query, bits));
            }
        }
        tracer.extend(
            "serve.request",
            unit << 32 | (c as u64) << 24,
            &log.intervals,
        );
    }
    for (generation, replies) in later {
        let Some(snap) = seen.get(&generation) else {
            rep.failed += replies.len() as u64;
            continue;
        };
        let mut queries: Vec<u32> = replies.iter().map(|r| r.0).collect();
        queries.sort_unstable();
        queries.dedup();
        let refs: Vec<&[f64]> = queries
            .iter()
            .map(|&q| feats[q as usize].as_slice())
            .collect();
        let truth: HashMap<u32, u64> = queries
            .iter()
            .copied()
            .zip(snap.estimate_many(&refs).into_iter().map(f64::to_bits))
            .collect();
        for (q, bits) in replies {
            if truth[&q] == bits {
                rep.verified += 1;
            } else {
                rep.failed += 1;
            }
        }
    }
    lat.sort_unstable();
    rep.qps = rep.verified as f64 / wall_secs.max(1e-9);
    rep.p50_us = percentile_sorted(&lat, 50.0) as f64 / 1e3;
    rep.p99_us = percentile_sorted(&lat, 99.0) as f64 / 1e3;
    rep.mean_us = lat.iter().sum::<u64>() as f64 / lat.len().max(1) as f64 / 1e3;
    rep
}

// ------------------------------------------------------------------- bulk

#[derive(Debug, Clone, Copy, Default)]
pub struct BulkRep {
    pub est_per_s: f64,
    pub calls: u64,
    pub mismatched: u64,
}

/// Direct `estimate_many` on the served snapshot, batches of 256, for
/// `secs`: an optimizer costing a plan space in process.
pub fn bulk_rep(fx: &Fixture, secs: f64, tracer: &Tracer, unit: u64) -> BulkRep {
    let refs = fx.built.serve_q.refs();
    let batches: Vec<&[&[f64]]> = refs.chunks(BULK_BATCH).collect();
    let root = tracer.span("ce.bulk", 0, unit);
    let t0 = Instant::now();
    let (mut calls, mut mismatched) = (0u64, 0u64);
    while t0.elapsed().as_secs_f64() < secs {
        let b = calls as usize % batches.len();
        let out = {
            let _s = tracer.span("ce.estimate_many", root.id(), unit);
            fx.built.snapshot.estimate_many(batches[b])
        };
        let want = &fx.expected[b * BULK_BATCH..b * BULK_BATCH + out.len()];
        mismatched += out
            .iter()
            .zip(want)
            .filter(|(o, w)| o.to_bits() != **w)
            .count() as u64;
        calls += 1;
    }
    let wall = t0.elapsed().as_secs_f64();
    BulkRep {
        est_per_s: (calls as usize * BULK_BATCH) as f64 / wall,
        calls,
        mismatched,
    }
}

// ----------------------------------------------------------------- ingest

#[derive(Debug, Clone, Copy, Default)]
pub struct IngestRep {
    pub rows_per_s: f64,
    pub reader_batches: u64,
    pub reader_ms_per_batch: f64,
    pub rows_after: usize,
}

const READER_BATCH: usize = 16;

/// Appends and updates fixed batches on a fresh copy of the base table;
/// every batch ends with `zone_index()` + `table_sketch()`, so the table is
/// annotatable and probe-able again. With `reader`, a second thread counts
/// predicates on the same table for as long as the writes last.
pub fn ingest_rep(fx: &Fixture, reader: bool, tracer: &Tracer, unit: u64) -> IngestRep {
    let spec = &fx.spec;
    let table = fx.built.table.fork().share();
    let mut rng = DriftRng::new(sub_seed(fx.seed, stream::INGEST));
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(1 + usize::from(reader));
    std::thread::scope(|s| {
        let counting = reader.then(|| {
            let (table, stop, barrier) = (&table, &stop, &barrier);
            let queries = &fx.built.serve_q;
            s.spawn(move || {
                barrier.wait();
                let (mut batches, mut secs, mut sum) = (0u64, 0.0f64, 0u64);
                while !stop.load(Ordering::Relaxed) {
                    let from = (batches as usize * READER_BATCH) % (queries.len() - READER_BATCH);
                    let t0 = Instant::now();
                    let _s = tracer.span("query.count_beside_writes", 0, unit);
                    sum += table.count_batch(queries, from, from + READER_BATCH);
                    secs += t0.elapsed().as_secs_f64();
                    batches += 1;
                }
                std::hint::black_box(sum);
                (batches, secs)
            })
        });
        barrier.wait();
        let root = tracer.span("ingest", 0, unit);
        let t0 = Instant::now();
        let mut rows = 0u64;
        for _ in 0..spec.ingest_batches {
            rows += table.write_batch(
                spec.ingest_append,
                spec.ingest_update_frac,
                &mut rng,
                tracer,
                root.id(),
                unit,
            ) as u64;
        }
        let wall = t0.elapsed().as_secs_f64();
        drop(root);
        stop.store(true, Ordering::Relaxed);
        let (reader_batches, reader_secs) = counting
            .map(|h| h.join().expect("reader thread"))
            .unwrap_or((0, 0.0));
        IngestRep {
            rows_per_s: rows as f64 / wall.max(1e-9),
            reader_batches,
            reader_ms_per_batch: reader_secs * 1e3 / reader_batches.max(1) as f64,
            rows_after: table.rows(),
        }
    })
}

// ------------------------------------------------------------------ adapt

pub struct Episode {
    pub secs: f64,
    pub gmq: f64,
    pub adapt: AdaptCounters,
    pub store: StoreCounters,
    pub acked: Vec<AckedLabel>,
    /// What a restart must serve: the generation published at the last
    /// commit that was checkpointed (generation 0 when none was).
    pub checkpointed: Snapshot,
    /// False when a publication between two polls went unseen (it cannot
    /// with rounds of tens of milliseconds, and is counted as a failure).
    pub checkpointed_seen: bool,
    pub dir: StateDir,
    pub state_bytes: u64,
}

/// One adaptation episode through the real driver: a fresh fleet whose
/// shard 0 adapts from the pre-drift controller, model and (post-drift)
/// table; feed K × n observations, stop the clock when `Fleet::shutdown`
/// has drained them — detect, pick, annotate, WAL, train, validate,
/// quantize-gate, publish, checkpoint, K times.
pub fn adapt_episode(fx: &Fixture, tag: &str) -> Episode {
    let dir = fx.state_dir(tag);
    let store = StoreH::open_fresh(&dir, fx.spec.checkpoint_every, &fx.built.ctl, &fx.model);
    let table = fx.drift.adapt_table.fork().share();
    let plan = fx.adapt_plan(table, Some(&store), fx.drift.arrivals.len());
    let running = Running::start(fx.spec.shards, &fx.built.snapshot, Some(plan), false);
    let cell = running.cell(0);
    let done = AtomicBool::new(false);
    let (secs, stopped, published) = std::thread::scope(|s| {
        // Keeps every generation the episode publishes, so that recovery can
        // be held against the one that was checkpointed.
        let watcher = s.spawn(|| {
            let mut seen: Vec<(u64, Snapshot)> = Vec::new();
            loop {
                let finished = done.load(Ordering::Acquire);
                let (v, snap) = cell.load();
                if v > 0 && seen.last().is_none_or(|(g, _)| *g != v) {
                    seen.push((v, snap));
                }
                if finished {
                    return seen;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        let t0 = Instant::now();
        for (f, gt) in &fx.drift.arrivals {
            running.observe(0, f.clone(), *gt);
        }
        let stopped = running.shutdown();
        let secs = t0.elapsed().as_secs_f64();
        done.store(true, Ordering::Release);
        (secs, stopped, watcher.join().expect("watcher thread"))
    });
    let adapt = stopped.adapt.expect("shard 0 adapts");
    let served = cell.load().1;
    let gmq = fx.gmq_served(&served);
    let every = fx.spec.checkpoint_every.max(1) as u64;
    let last_checkpointed = adapt.commits / every * every;
    let (checkpointed, checkpointed_seen) = if last_checkpointed == 0 {
        (fx.built.snapshot.clone(), true)
    } else {
        match published.iter().find(|(g, _)| *g == last_checkpointed) {
            Some((_, snap)) => (snap.clone(), true),
            None => (served, false),
        }
    };
    Episode {
        secs,
        gmq,
        adapt,
        store: store.counters(),
        acked: store.acked(),
        checkpointed,
        checkpointed_seen,
        state_bytes: dir.bytes(),
        dir,
    }
}

// ---------------------------------------------------------------- recover

#[derive(Debug, Clone, Copy, Default)]
pub struct RecoverRep {
    pub ms: f64,
    pub replayed: usize,
    pub lost_labels: usize,
    /// Probes (of 256) on which the recovered serving model differs from
    /// the generation the episode last checkpointed, plus a wrong first
    /// estimate.
    pub model_mismatches: usize,
}

/// Restart on an episode's state directory.
pub fn recover_rep(fx: &Fixture, ep: &Episode, tracer: &Tracer, unit: u64) -> RecoverRep {
    let first = &fx.built.serve_q.feats[0];
    let r = sut::recover(&ep.dir, &fx.built.prep, &ep.acked, first, tracer, unit);
    let refs = fx.built.serve_q.refs();
    let probes = &refs[..256];
    let want = ep.checkpointed.estimate_many(probes);
    let got = r.snapshot.estimate_many(probes);
    let mut model_mismatches = want
        .iter()
        .zip(&got)
        .filter(|(a, b)| a.to_bits() != b.to_bits())
        .count();
    model_mismatches += usize::from(r.first_estimate.to_bits() != want[0].to_bits());
    model_mismatches += usize::from(!ep.checkpointed_seen);
    RecoverRep {
        ms: r.open_ms + r.restore_ms,
        replayed: r.replayed,
        lost_labels: r.lost_labels,
        model_mismatches,
    }
}

// -------------------------------------------------------------- open loop

#[derive(Debug, Clone, Copy, Default)]
pub struct OpenLoopRep {
    /// 99th-percentile latency timed from each request's *due* time, so a
    /// stall charges every request it delayed.
    pub p99_us: f64,
    /// How late the generator sent, 99th percentile.
    pub late_p99_us: f64,
    pub sent: u64,
    pub failed: u64,
}

/// Senders of the open-loop pool: enough that a request due now finds a
/// free sender unless the system is more than this many requests behind.
const OPEN_LOOP_SENDERS: usize = 8;

/// One open-loop repetition: requests are due every `1/rate` seconds
/// whatever the system does. The schedule is one global sequence; a pool of
/// sender threads takes the next due request each, waits for its due time,
/// and sends. Nothing gates the schedule on replies.
pub fn open_loop_rep(fx: &Fixture, rate: f64, secs: f64) -> OpenLoopRep {
    use std::sync::atomic::AtomicU64;
    let spec = &fx.spec;
    let running = Running::start(spec.shards, &fx.built.snapshot, None, spec.tcp);
    let feats = &fx.built.serve_q.feats;
    let next = AtomicU64::new(0);
    let total = (rate * secs) as u64;
    let barrier = Barrier::new(OPEN_LOOP_SENDERS + 1);
    let logs: Vec<(Vec<u64>, Vec<u64>, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..OPEN_LOOP_SENDERS)
            .map(|c| {
                let (running, next, barrier) = (&running, &next, &barrier);
                let work = &fx.work[0];
                let mut client =
                    running.client(sub_seed(sub_seed(fx.seed, stream::NET), 100 + c as u64));
                s.spawn(move || {
                    let warm = client.estimate(work[0].shard, &feats[work[0].query as usize]);
                    let mut failed = u64::from(warm.is_none());
                    let (mut lat, mut late) = (Vec::new(), Vec::new());
                    barrier.wait();
                    let start = Instant::now();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            break;
                        }
                        let due = start + Duration::from_secs_f64(i as f64 / rate);
                        // Sleep most of the wait, spin the last stretch.
                        loop {
                            let now = Instant::now();
                            if now >= due {
                                break;
                            }
                            let left = due - now;
                            if left > Duration::from_micros(300) {
                                std::thread::sleep(left - Duration::from_micros(200));
                            } else {
                                std::hint::spin_loop();
                            }
                        }
                        let item = work[i as usize % work.len()];
                        let sent = Instant::now();
                        let reply = client.estimate(item.shard, &feats[item.query as usize]);
                        let done = Instant::now();
                        let ok = reply.is_some_and(|r| r.bits == fx.expected[item.query as usize]);
                        if ok {
                            lat.push((done - due).as_nanos() as u64);
                            late.push((sent - due).as_nanos() as u64);
                        } else {
                            failed += 1;
                        }
                    }
                    (lat, late, failed)
                })
            })
            .collect();
        barrier.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("sender thread"))
            .collect()
    });
    running.shutdown();
    let mut lat: Vec<u64> = logs.iter().flat_map(|l| l.0.iter().copied()).collect();
    let mut late: Vec<u64> = logs.iter().flat_map(|l| l.1.iter().copied()).collect();
    lat.sort_unstable();
    late.sort_unstable();
    OpenLoopRep {
        p99_us: percentile_sorted(&lat, 99.0) as f64 / 1e3,
        late_p99_us: percentile_sorted(&late, 99.0) as f64 / 1e3,
        sent: lat.len() as u64,
        failed: logs.iter().map(|l| l.2).sum(),
    }
}
