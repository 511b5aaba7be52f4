//! Serve-level durability: a replay with a state directory resumes across
//! restarts — and across a mid-run power cut — with zero committed-label
//! loss at the restart boundary.
//!
//! The instruction-level guarantee (acked ⇒ durable at every schedulable
//! crash point) is proven by `warper-durable`'s kill-at-every-failpoint
//! suite; these tests check the *wiring*: `run_replay` opens the store,
//! write-ahead logs annotation labels, checkpoints on supervisor commits,
//! and a second replay over the same directory restores exactly the durable
//! image. (Labels may later be legitimately superseded — re-annotation
//! after drift rewrites a stale record's ground truth, generated records
//! rotate — so the invariant is checked at resume time, not forever after.)

use std::collections::HashSet;
use std::sync::Arc;

use warper_core::runner::DataDriftKind;
use warper_core::{SupervisorConfig, WarperConfig};
use warper_durable::{
    DurabilityConfig, DurableStore, FailKind, FailPlan, FailpointVfs, MemVfs, Vfs,
};
use warper_serve::replay::{
    run_replay, AdaptMode, DriftEvent, DriftKind, DurabilityReport, DurableReplay, ReplayReport,
    ReplaySpec,
};
use warper_storage::{generate, DatasetKind};

fn small_warper() -> WarperConfig {
    WarperConfig {
        embed_dim: 6,
        hidden: 24,
        n_i: 5,
        pretrain_epochs: 2,
        gamma: 80,
        n_p: 40,
        ..Default::default()
    }
}

fn durable_spec(mem: &MemVfs, seed: u64) -> ReplaySpec {
    ReplaySpec {
        n_train: 200,
        n_queries: 240,
        clients: 2,
        drift: Some(DriftEvent {
            at_query: 120,
            kind: DriftKind::Data(DataDriftKind::SortTruncate { col: 1 }),
        }),
        adapt: AdaptMode::Synchronous {
            supervisor: SupervisorConfig::default(),
            invoke_every: 80,
        },
        warper: small_warper(),
        seed,
        durable: Some(durable(Arc::new(mem.clone()))),
        ..Default::default()
    }
}

fn durable(vfs: Arc<dyn Vfs>) -> DurableReplay {
    let checkpoint_every = 1;
    DurableReplay::single(vfs, DurabilityConfig { checkpoint_every })
}

/// The durability report of the replay's one adapting shard.
fn durability(rep: &ReplayReport) -> Option<&DurabilityReport> {
    rep.durability.first().map(|(_, d)| d)
}

/// What the state directory durably holds right now, read through an
/// independent recovery pass: pool size, usable labels, and every labeled
/// `(features, gt)` bit-pattern.
struct DurableImage {
    pool_len: usize,
    labeled: usize,
    keys: HashSet<(Vec<u64>, u64)>,
}

fn durable_image(mem: &MemVfs) -> DurableImage {
    let (_, rec) = DurableStore::open(Arc::new(mem.clone()), DurabilityConfig::default())
        .expect("directory opens");
    let rec = rec.expect("directory holds a durable image");
    let keys: HashSet<(Vec<u64>, u64)> = rec
        .state
        .pool
        .records()
        .iter()
        .filter_map(|r| {
            r.gt.map(|gt| {
                (
                    r.features.iter().map(|v| v.to_bits()).collect::<Vec<u64>>(),
                    gt.to_bits(),
                )
            })
        })
        .collect();
    DurableImage {
        pool_len: rec.state.pool.len(),
        labeled: rec
            .state
            .pool
            .records()
            .iter()
            .filter(|r| r.labeled())
            .count(),
        keys,
    }
}

#[test]
fn replay_resumes_from_state_dir_without_losing_committed_labels() {
    let table = generate(DatasetKind::Prsa, 1_500, 7);
    let mem = MemVfs::new();

    let rep1 = run_replay(&table, &durable_spec(&mem, 23)).unwrap();
    assert_eq!(rep1.errors, 0);
    let d1 = durability(&rep1).expect("durable report");
    assert!(d1.recovery.is_none(), "first run starts a fresh directory");
    assert!(d1.stats.checkpoints >= 1, "{d1:?}");
    assert!(
        d1.stats.wal_appends > 0,
        "annotation labels must be logged: {d1:?}"
    );
    assert_eq!(d1.stats.checkpoint_failures, 0, "{d1:?}");
    assert_eq!(d1.stats.wal_append_failures, 0, "{d1:?}");
    let before = durable_image(&mem);
    assert!(!before.keys.is_empty());

    // Zero committed-label loss at the restart boundary: the second run
    // must restore *exactly* the durable image — same pool, same number of
    // usable labels — before it continues adapting.
    let rep2 = run_replay(&table, &durable_spec(&mem, 24)).unwrap();
    assert_eq!(rep2.errors, 0);
    let d2 = durability(&rep2).expect("durable report");
    let r2 = d2.recovery.as_ref().expect("second run resumes");
    assert!(r2.snapshot_seq >= 1, "{d2:?}");
    assert_eq!(r2.pool_len, before.pool_len, "{d2:?}");
    assert_eq!(r2.pool_labeled, before.labeled, "{d2:?}");
    assert!(r2.recovery_secs >= 0.0);
    // And the second run keeps the directory live.
    assert!(d2.stats.checkpoints >= 1, "{d2:?}");
    let after = durable_image(&mem);
    assert!(!after.keys.is_empty());
}

#[test]
fn power_cut_mid_replay_resumes_from_last_durable_image() {
    let table = generate(DatasetKind::Prsa, 1_500, 7);
    let mem = MemVfs::new();

    // Establish a durable base.
    let rep1 = run_replay(&table, &durable_spec(&mem, 23)).unwrap();
    assert_eq!(
        durability(&rep1).map(|d| d.stats.wal_append_failures),
        Some(0)
    );

    // A run whose state directory dies mid-flight: every VFS operation from
    // the 60th on fails as a power cut. Depending on where the cut lands,
    // either recovery itself fails (a typed error, never a silent fresh
    // start) or the replay finishes serving with durability failures
    // counted but zero serving errors.
    let fp = FailpointVfs::with_plan(
        mem.clone(),
        FailPlan {
            at_op: 60,
            kind: FailKind::PowerCut,
        },
    );
    let mut crashed = durable_spec(&mem, 31);
    crashed.durable = Some(durable(Arc::new(fp)));
    if let Ok(rep) = run_replay(&table, &crashed) {
        assert_eq!(rep.errors, 0, "durability faults must not fail serving");
    }

    // The machine is lost: every unsynced byte vanishes.
    mem.power_cut();
    let image = durable_image(&mem);
    assert!(!image.keys.is_empty(), "the pre-crash base must survive");

    // A fresh replay over the cut directory restores exactly that image.
    let rep3 = run_replay(&table, &durable_spec(&mem, 32)).unwrap();
    assert_eq!(rep3.errors, 0);
    let d3 = durability(&rep3).expect("durable report");
    let r3 = d3.recovery.as_ref().expect("third run resumes");
    assert_eq!(r3.pool_len, image.pool_len, "{d3:?}");
    assert_eq!(r3.pool_labeled, image.labeled, "{d3:?}");
}
