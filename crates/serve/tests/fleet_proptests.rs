//! Fleet-level properties: packing soundness, shed accounting, and
//! per-shard durable resume.
//!
//! The headline property is **packing bit-identity**: a cross-shard packed
//! batch must answer every request with exactly the bits that shard's
//! snapshot would produce serving its own batch alone. The packer groups by
//! snapshot `Arc` identity and PR 6 guarantees batch-invariant kernels, so
//! this must hold on every backend — the CI portable job re-runs this file
//! with SIMD disabled (`RUSTFLAGS="" CARGO_TARGET_DIR=target/portable`) to
//! cover the scalar kernels with the same properties.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use warper_ce::{CardinalityEstimator, LabeledExample, UpdateKind};
use warper_core::runner::ModelKind;
use warper_core::{prepare_single_table, WarperConfig};
use warper_durable::{DurabilityConfig, MemVfs, ScopedVfs, Vfs};
use warper_serve::{
    prepare_serving_model, run_replay, AdaptConfig, AdaptMode, DurableReplay, Fleet, FleetConfig,
    ModelSnapshot, Precision, ReplaySpec, ServeError, ShardKey, ShardSpec,
};
use warper_storage::{generate, DatasetKind};
use warper_workload::QueryGenerator;

// ---------------------------------------------------------------------------
// Fixture: one real quantized LmMlp, one diverged sibling, a feature pool
// ---------------------------------------------------------------------------

struct Fixture {
    /// Pool of featurized queries the proptest draws from.
    feats: Vec<Vec<f64>>,
    /// The shared base snapshot (quantized when the gate admits it) — what
    /// every base shard serves through one `Arc`.
    base: Arc<ModelSnapshot>,
    /// A *diverged* snapshot: different training seed, different weights,
    /// different `Arc`. A shard serving this must pack alone.
    alt: Arc<ModelSnapshot>,
}

fn fixture() -> &'static Fixture {
    static FX: OnceLock<Fixture> = OnceLock::new();
    FX.get_or_init(|| {
        let table = generate(DatasetKind::Prsa, 1_000, 4);
        let prepared = prepare_single_table(&table, "w1", ModelKind::LmMlp, 150, 11)
            .expect("fixture training");
        let mut rng = StdRng::seed_from_u64(5);
        let mut qgen = QueryGenerator::try_from_notation(&table, "w1").expect("fixture workload");
        let feats: Vec<Vec<f64>> = qgen
            .generate_many(64, &mut rng)
            .iter()
            .map(|p| prepared.fmap.featurize(p))
            .collect();
        let probes: Vec<&[f64]> = prepared
            .training_set
            .iter()
            .map(|(f, _)| f.as_slice())
            .collect();
        let serving = prepared.model.snapshot().expect("LmMlp snapshots");
        // Infinite tolerance: always admit the quantized copy, so the
        // packed path runs the int8 kernels wherever they are compiled in.
        let (serving, precision, _) = prepare_serving_model(
            prepared.model.as_ref(),
            serving,
            Precision::Int8,
            &probes,
            f64::INFINITY,
        );
        let base = Arc::new(ModelSnapshot::initial(serving).with_precision(precision));
        let alt_prep = prepare_single_table(&table, "w1", ModelKind::LmMlp, 150, 23)
            .expect("fixture alt training");
        let alt = Arc::new(ModelSnapshot::initial(
            alt_prep.model.snapshot().expect("LmMlp snapshots"),
        ));
        Fixture { feats, base, alt }
    })
}

// ---------------------------------------------------------------------------
// Packing bit-identity
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 10 })]

    /// Arbitrary shard counts, per-shard batches, and one optionally
    /// diverged shard: every fleet answer is bitwise the answer the shard's
    /// own snapshot gives its batch in isolation.
    #[test]
    fn cross_shard_packs_are_bit_identical_to_isolated_serving(
        picks in prop::collection::vec(prop::collection::vec(0usize..64, 0..8), 2..6),
        diverge_flag in 0u8..2,
    ) {
        let diverge_last = diverge_flag == 1;
        let fx = fixture();
        let n_shards = picks.len();
        let snap_of = |shard: usize| -> &Arc<ModelSnapshot> {
            if diverge_last && shard == n_shards - 1 { &fx.alt } else { &fx.base }
        };
        let specs = (0..n_shards)
            .map(|i| ShardSpec {
                key: ShardKey::new(format!("tenant-{i}"), "main"),
                snapshot: Arc::clone(snap_of(i)),
                adapt: None,
            })
            .collect();
        let fleet = Fleet::start(specs, FleetConfig {
            workers: 2,
            pack_linger: Duration::from_millis(2),
            ..FleetConfig::default()
        });
        let handle = fleet.handle();

        // One thread per request so shards queue and may pack. A worker
        // lingers only as long as one (cheap) call, so packing is not
        // certain here; `shards_queued_behind_a_busy_worker_share_one_call`
        // makes it certain.
        let answers: Vec<(usize, usize, u64)> = std::thread::scope(|s| {
            let mut joins = Vec::new();
            for (shard, idxs) in picks.iter().enumerate() {
                for &q in idxs {
                    let handle = handle.clone();
                    joins.push(s.spawn(move || {
                        let est = handle
                            .estimate(shard as u32, fx.feats[q].clone())
                            .expect("base fleet never sheds here");
                        (shard, q, est.value.to_bits())
                    }));
                }
            }
            joins.into_iter().map(|j| j.join().expect("client")).collect()
        });

        // Oracle: each shard's batch served alone by its own snapshot.
        for shard in 0..n_shards {
            let mine: Vec<&(usize, usize, u64)> =
                answers.iter().filter(|(s, _, _)| *s == shard).collect();
            let batch: Vec<&[f64]> =
                mine.iter().map(|(_, q, _)| fx.feats[*q].as_slice()).collect();
            let alone = snap_of(shard).model.estimate_many(&batch);
            for ((_, q, bits), expect) in mine.iter().zip(alone) {
                prop_assert_eq!(
                    *bits,
                    expect.to_bits(),
                    "shard {} query {} diverged from isolated serving",
                    shard,
                    q
                );
            }
        }

        let total: u64 = picks.iter().map(|v| v.len() as u64).sum();
        let stats = fleet.stats();
        prop_assert_eq!(stats.served, total);
        prop_assert_eq!(stats.packed_requests, total);
        prop_assert_eq!(stats.shed + stats.shed_deadline + stats.rejected, 0);
        drop(fleet);
    }
}

// ---------------------------------------------------------------------------
// Admission vs deadline shed accounting
// ---------------------------------------------------------------------------

/// A deliberately slow toy model: holds each estimate long enough that a
/// tiny admission queue must overflow under concurrent offered load.
struct SlowModel {
    delay: Duration,
    base: f64,
}

impl CardinalityEstimator for SlowModel {
    fn feature_dim(&self) -> usize {
        2
    }
    fn estimate(&self, f: &[f64]) -> f64 {
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        self.base + f[0]
    }
    fn fit(&mut self, _e: &[LabeledExample]) {}
    fn update(&mut self, _e: &[LabeledExample]) {}
    fn update_kind(&self) -> UpdateKind {
        UpdateKind::FineTune
    }
    fn name(&self) -> &'static str {
        "slow-toy"
    }
}

fn slow_snapshot(delay: Duration) -> Arc<ModelSnapshot> {
    let base = 100.0;
    Arc::new(ModelSnapshot::initial(Box::new(SlowModel { delay, base })))
}

/// A fleet whose shards serve `snapshots[i]`.
fn fleet_of(snapshots: impl IntoIterator<Item = Arc<ModelSnapshot>>, cfg: FleetConfig) -> Fleet {
    let specs = snapshots
        .into_iter()
        .enumerate()
        .map(|(i, snapshot)| ShardSpec {
            key: ShardKey::new(format!("toy-{i}"), "main"),
            snapshot,
            adapt: None,
        })
        .collect();
    Fleet::start(specs, cfg)
}

/// `n_shards` shards, each with its own `SlowModel` snapshot `Arc`.
fn toy_fleet(n_shards: usize, delay: Duration, cfg: FleetConfig) -> Fleet {
    fleet_of((0..n_shards).map(|_| slow_snapshot(delay)), cfg)
}

// The linger rule: after its first ready shard a worker waits at most
// `min(pack_linger, mean estimate_many call so far)`, and not at all before
// a call has been measured.

#[test]
fn cheap_calls_do_not_wait_out_the_linger_cap() {
    let cfg = FleetConfig {
        pack_linger: Duration::from_millis(50),
        ..FleetConfig::default()
    };
    let fleet = toy_fleet(1, Duration::ZERO, cfg);
    let handle = fleet.handle();
    let t0 = Instant::now();
    // One warm-up request, then twenty: waiting out the cap each time would
    // take 21 × 50 ms.
    for i in 0..21 {
        assert_eq!(
            handle.estimate(0, vec![i as f64, 0.0]).unwrap().batch_size,
            1
        );
    }
    let took = t0.elapsed();
    assert!(
        took < Duration::from_millis(500),
        "21 requests took {took:?}"
    );
}

#[test]
fn first_pack_of_a_fresh_fleet_does_not_linger() {
    let cfg = FleetConfig {
        pack_linger: Duration::from_secs(2),
        ..FleetConfig::default()
    };
    let fleet = toy_fleet(1, Duration::ZERO, cfg);
    let t0 = Instant::now();
    fleet.handle().estimate(0, vec![0.0, 0.0]).unwrap();
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(1), "first request took {took:?}");
}

#[test]
fn expensive_calls_still_glue_requests_within_the_cap() {
    // One worker, so the second request's ring entry can only reach the
    // worker lingering over the first.
    let cfg = FleetConfig {
        workers: 1,
        pack_linger: Duration::from_millis(15),
        ..FleetConfig::default()
    };
    let fleet = toy_fleet(1, Duration::from_millis(20), cfg);
    let handle = fleet.handle();
    // Warm-up: measures one 20 ms call, so the linger is the full 15 ms cap.
    handle.estimate(0, vec![0.0, 0.0]).unwrap();
    let before = fleet.stats().gemm_groups;
    let sizes = std::thread::scope(|s| {
        let first = s.spawn(|| handle.estimate(0, vec![1.0, 0.0]));
        std::thread::sleep(Duration::from_millis(1));
        let second = s.spawn(|| handle.estimate(0, vec![2.0, 0.0]));
        [first, second].map(|j| j.join().unwrap().unwrap().batch_size)
    });
    assert_eq!(sizes, [2, 2], "requests 1 ms apart must share one call");
    assert_eq!(fleet.stats().gemm_groups, before + 1);
}

/// The deterministic companion of the packing proptest above: shards that
/// share one snapshot `Arc` and queue behind a worker busy in a 50 ms call
/// are answered by one `estimate_many`, however cheap their own model is.
#[test]
fn shards_queued_behind_a_busy_worker_share_one_call() {
    const QUEUED: usize = 4;
    let busy = slow_snapshot(Duration::from_millis(50));
    let shared = slow_snapshot(Duration::ZERO);
    let snapshots = std::iter::once(busy).chain(std::iter::repeat_n(shared, QUEUED));
    let cfg = FleetConfig {
        workers: 1,
        ..FleetConfig::default()
    };
    let fleet = fleet_of(snapshots, cfg);
    let handle = fleet.handle();
    std::thread::scope(|s| {
        s.spawn(|| handle.estimate(0, vec![0.0, 0.0]).unwrap());
        // `packs` counts a pack before its call runs: from here the one
        // worker is inside the 50 ms call.
        while fleet.stats().packs == 0 {
            std::thread::yield_now();
        }
        let queued: Vec<_> = (1..=QUEUED as u32)
            .map(|shard| {
                let handle = handle.clone();
                s.spawn(move || handle.estimate(shard, vec![shard as f64, 0.0]).unwrap())
            })
            .collect();
        for j in queued {
            assert_eq!(j.join().unwrap().batch_size, QUEUED);
        }
    });
    let stats = fleet.stats();
    assert_eq!(stats.gemm_groups, 1 + 1, "the busy warm-up call, then one");
    assert!(stats.pack_efficiency() > 1.0, "{stats:?}");
}

// The single-service core's unit tests, on the one-shard fleet that replaced it.

#[test]
fn serves_correct_estimates_from_many_threads() {
    let fleet = toy_fleet(1, Duration::ZERO, FleetConfig::default());
    let handle = fleet.handle();
    std::thread::scope(|s| {
        for c in 0..4 {
            let h = handle.clone();
            s.spawn(move || {
                for i in 0..200 {
                    let x = (c * 200 + i) as f64;
                    let est = h.estimate(0, vec![x, 1.0]).unwrap();
                    assert_eq!(est.value, 100.0 + x);
                    assert_eq!(est.generation, 0);
                    assert!(est.batch_size >= 1);
                }
            });
        }
    });
    let (stats, _, _) = fleet.shutdown();
    assert_eq!(stats.served, 800);
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.packed_requests, 800);
}

#[test]
fn feature_dim_mismatch_is_rejected_per_request() {
    let fleet = toy_fleet(1, Duration::ZERO, FleetConfig::default());
    let handle = fleet.handle();
    let (expected, got) = (2, 5);
    assert_eq!(
        handle.estimate(0, vec![0.0; 5]),
        Err(ServeError::FeatureDim { expected, got })
    );
    assert!(handle.estimate(0, vec![0.0; 2]).is_ok());
    let (stats, _, _) = fleet.shutdown();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.served, 1);
}

#[test]
fn requests_after_shutdown_are_closed_not_hung() {
    let fleet = toy_fleet(1, Duration::ZERO, FleetConfig::default());
    let handle = fleet.handle();
    drop(fleet);
    assert_eq!(handle.estimate(0, vec![0.0; 2]), Err(ServeError::Closed));
}

#[test]
fn published_snapshot_takes_over_new_requests() {
    let fleet = toy_fleet(1, Duration::ZERO, FleetConfig::default());
    let handle = fleet.handle();
    assert_eq!(handle.estimate(0, vec![0.0; 2]).unwrap().value, 100.0);
    let (delay, base) = (Duration::ZERO, 5.0);
    fleet.cell(0).unwrap().publish(ModelSnapshot {
        generation: 1,
        model: Box::new(SlowModel { delay, base }),
        precision: Precision::F64,
    });
    let est = handle.estimate(0, vec![0.0; 2]).unwrap();
    assert_eq!(est.value, 5.0);
    assert_eq!(est.generation, 1);
}

#[test]
fn unknown_shard_is_rejected_not_shed() {
    let fleet = toy_fleet(2, Duration::ZERO, FleetConfig::default());
    let handle = fleet.handle();
    match handle.estimate(7, vec![0.1, 0.2]) {
        Err(ServeError::UnknownShard { shard: 7 }) => {}
        other => panic!("expected UnknownShard, got {other:?}"),
    }
    let stats = fleet.stats();
    assert_eq!(stats.shed + stats.shed_deadline + stats.served, 0);
}

#[test]
fn zero_queue_deadline_counts_every_request_as_deadline_shed() {
    let fleet = toy_fleet(
        1,
        Duration::ZERO,
        FleetConfig {
            workers: 1,
            queue_deadline: Some(Duration::ZERO),
            ..FleetConfig::default()
        },
    );
    let handle = fleet.handle();
    for _ in 0..20 {
        match handle.estimate(0, vec![0.3, 0.4]) {
            Err(ServeError::ShedDeadline) => {}
            other => panic!("expected ShedDeadline, got {other:?}"),
        }
    }
    let (stats, per_shard, _) = fleet.shutdown();
    assert_eq!(stats.served, 0);
    assert_eq!(stats.shed, 0, "deadline sheds must not leak into admission");
    assert_eq!(stats.shed_deadline, 20);
    assert_eq!(per_shard[0].shed_deadline, 20);
}

#[test]
fn queue_overflow_counts_as_admission_shed_only() {
    // Each estimate holds the single worker 20ms; 6 producers hammer a
    // capacity-1 queue, so most pushes find it full and shed at admission.
    let fleet = toy_fleet(
        1,
        Duration::from_millis(20),
        FleetConfig {
            workers: 1,
            per_shard_queue: 1,
            max_packed_batch: 1,
            quantum: 1,
            pack_linger: Duration::ZERO,
            ..FleetConfig::default()
        },
    );
    let handle = fleet.handle();
    let outcomes = Arc::new(Mutex::new((0u64, 0u64))); // (served, shed)
    std::thread::scope(|s| {
        for _ in 0..6 {
            let handle = handle.clone();
            let outcomes = Arc::clone(&outcomes);
            s.spawn(move || {
                for _ in 0..5 {
                    match handle.estimate(0, vec![0.5, 0.6]) {
                        Ok(_) => outcomes.lock().unwrap().0 += 1,
                        Err(ServeError::Shed) => outcomes.lock().unwrap().1 += 1,
                        Err(e) => panic!("unexpected error: {e:?}"),
                    }
                }
            });
        }
    });
    let (served, shed) = *outcomes.lock().unwrap();
    let (stats, per_shard, _) = fleet.shutdown();
    assert_eq!(served + shed, 30);
    assert_eq!(stats.served, served);
    assert_eq!(stats.shed, shed, "client-visible sheds must match counters");
    assert!(shed > 0, "capacity-1 queue under 6 producers must overflow");
    assert_eq!(
        stats.shed_deadline, 0,
        "admission sheds must not leak into the deadline counter"
    );
    assert_eq!(per_shard[0].shed, shed);
}

// ---------------------------------------------------------------------------
// Per-shard durable resume through the replay harness
// ---------------------------------------------------------------------------

fn durable_fleet_spec(mem: &MemVfs, seed: u64) -> ReplaySpec {
    let mem = mem.clone();
    ReplaySpec {
        shards: 4,
        adapt: AdaptMode::Background(AdaptConfig::default()),
        adapt_shards: 2,
        n_train: 150,
        n_queries: 160,
        clients: 2,
        warper: WarperConfig {
            embed_dim: 6,
            hidden: 16,
            n_i: 5,
            pretrain_epochs: 2,
            gamma: 80,
            n_p: 40,
            ..Default::default()
        },
        seed,
        durable: Some(DurableReplay {
            cfg: DurabilityConfig {
                checkpoint_every: 1,
            },
            vfs_for: Box::new(move |key: &ShardKey| {
                Ok(
                    Arc::new(ScopedVfs::new(Arc::new(mem.clone()), &key.dir_name())?)
                        as Arc<dyn Vfs>,
                )
            }),
        }),
        ..Default::default()
    }
}

#[test]
fn fleet_replay_resumes_every_adapting_shard_from_its_own_lineage() {
    let table = generate(DatasetKind::Poker, 1_200, 4);
    let mem = MemVfs::new();

    let first = run_replay(&table, &durable_fleet_spec(&mem, 41)).expect("first fleet run");
    assert_eq!(first.durability.len(), 2, "both adapting shards own stores");
    for (id, d) in &first.durability {
        assert!(
            d.recovery.is_none(),
            "shard {id}: first run starts a fresh lineage"
        );
        assert!(
            d.stats.checkpoints > 0,
            "shard {id}: base checkpoint must land"
        );
    }
    mem.power_cut();

    let second = run_replay(&table, &durable_fleet_spec(&mem, 43)).expect("second fleet run");
    assert_eq!(second.served + second.shed, 160);
    assert_eq!(second.durability.len(), 2);
    for (id, d) in &second.durability {
        let rec = d.recovery.as_ref();
        assert!(
            rec.is_some_and(|r| r.pool_len > 0),
            "shard {id}: second run must resume its lineage with a non-empty pool"
        );
    }

    // The two lineages stayed disjoint in the shared directory.
    let names = mem.list().expect("list");
    let k0 = ShardKey::new("tenant-0000", "main").dir_name();
    let k1 = ShardKey::new("tenant-0001", "main").dir_name();
    assert!(names.iter().any(|n| n.starts_with(&format!("{k0}#"))));
    assert!(names.iter().any(|n| n.starts_with(&format!("{k1}#"))));
    for n in &names {
        assert!(
            n.starts_with(&format!("{k0}#")) || n.starts_with(&format!("{k1}#")),
            "unscoped file {n:?} in the fleet state directory"
        );
    }
}
