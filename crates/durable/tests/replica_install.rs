//! Disk-fault sweep for the replica-directory protocol.
//!
//! A standby installs what the primary's tap shipped through
//! [`ReplicaDir::install`]; it acknowledges a ship index only after the
//! install returned `Ok`. The invariant: whatever disk fault hits the
//! replica, at whatever operation, [`DurableStore::open`] over its directory
//! recovers every label shipped at or below the acknowledged watermark, and
//! never surfaces an image that fails `WarperState::validate`.
//!
//! The ship sequence is recorded once from a real primary store: a base
//! checkpoint, WAL appends, a checkpoint that leaves two acked labels
//! unabsorbed (a non-empty carry-forward), more appends, a checkpoint that
//! triggers retention, and a last append. The clean-run tests always run;
//! the kill-at-every-op sweep is behind `--features faults`.

use std::collections::HashSet;
use std::sync::{Arc, Mutex, OnceLock};

use warper_core::{WarperConfig, WarperController, WarperState};
use warper_durable::{
    validate_wal_frame, DurabilityConfig, DurableEvent, DurableStore, MemVfs, ReplicaDir, Vfs,
    WalRecord,
};

type Label = (Vec<f64>, f64);

fn label_for(step: usize) -> Label {
    (
        vec![0.30 + 0.002 * step as f64, 0.40, 0.50, 0.60],
        1_000.0 + step as f64,
    )
}

fn label_key(features: &[f64], gt: f64) -> (Vec<u64>, u64) {
    (features.iter().map(|v| v.to_bits()).collect(), gt.to_bits())
}

fn base_state() -> WarperState {
    let cfg = WarperConfig {
        embed_dim: 6,
        hidden: 16,
        n_i: 8,
        pretrain_epochs: 2,
        gamma: 100,
        ..Default::default()
    };
    let train: Vec<(Vec<f64>, f64)> = (0..40)
        .map(|i| (vec![0.2 + 0.001 * (i % 7) as f64; 4], 300.0))
        .collect();
    WarperController::new(4, &train, 1.5, cfg, 42).to_state()
}

/// What the primary shipped, in ship order (index = position + 1), and the
/// files its own directory ended with.
struct Shipped {
    events: Vec<DurableEvent>,
    primary_files: Vec<(String, Vec<u8>)>,
}

fn files(mem: &MemVfs) -> Vec<(String, Vec<u8>)> {
    let mut names = mem.list().expect("list");
    names.sort();
    names
        .into_iter()
        .map(|n| {
            let bytes = mem.read(&n).expect("read");
            (n, bytes)
        })
        .collect()
}

fn shipped() -> &'static Shipped {
    static SHIPPED: OnceLock<Shipped> = OnceLock::new();
    SHIPPED.get_or_init(|| {
        let mem = MemVfs::new();
        let (mut store, _) =
            DurableStore::open(Arc::new(mem.clone()), DurabilityConfig::default()).expect("open");
        let log = Arc::new(Mutex::new(Vec::new()));
        let tap_log = Arc::clone(&log);
        store.set_tap(Box::new(move |ev| {
            tap_log.lock().expect("tap log").push(ev.clone());
        }));
        let mut state = base_state();
        let append = |store: &mut DurableStore, step: usize| {
            let (f, gt) = label_for(step);
            store.append_label(&f, gt, false).expect("append");
        };
        let absorb = |state: &mut WarperState, steps: std::ops::Range<usize>| {
            for step in steps {
                let (f, gt) = label_for(step);
                state.pool.append_new(&[(f, Some(gt))]);
            }
        };
        store.checkpoint(&state, None).expect("base checkpoint");
        (0..5).for_each(|s| append(&mut store, s));
        // Labels 3 and 4 are acked but not in the pool: they must ride the
        // rotated WAL as carry-forward.
        absorb(&mut state, 0..3);
        store.checkpoint(&state, None).expect("checkpoint 2");
        assert_eq!(store.stats().carried_forward, 2);
        (5..9).for_each(|s| append(&mut store, s));
        absorb(&mut state, 3..9);
        store.checkpoint(&state, None).expect("checkpoint 3");
        append(&mut store, 9);
        drop(store);
        let events = log.lock().expect("tap log").clone();
        assert_eq!(events.len(), 3 + 10);
        Shipped {
            events,
            primary_files: files(&mem),
        }
    })
}

/// The standby's loop over one replica directory: install in ship order,
/// advance the watermark on `Ok`, and on an error the process survives
/// resubscribe from the watermark — which re-sends the same mutation. Stops
/// when the disk is dead. Returns the acknowledged watermark.
fn replicate(crashed: impl Fn() -> bool, mut install: impl FnMut(&DurableEvent) -> bool) -> usize {
    let mut watermark = 0;
    let mut retries = 0;
    while watermark < shipped().events.len() && !crashed() && retries < 3 {
        if install(&shipped().events[watermark]) {
            watermark += 1;
        } else {
            retries += 1;
        }
    }
    watermark
}

/// Recover the replica directory after a power cut and check the invariant
/// for everything shipped at or below `watermark`.
fn recover_and_check(mem: &MemVfs, watermark: usize, context: &str) {
    mem.power_cut();
    let (_, recovered) = DurableStore::open(Arc::new(mem.clone()), DurabilityConfig::default())
        .unwrap_or_else(|e| panic!("{context}: replica recovery failed: {e}"));
    let acked: Vec<Label> = shipped().events[..watermark]
        .iter()
        .filter_map(|ev| match ev {
            DurableEvent::WalAppend { frame, .. } => {
                let WalRecord::Label { features, gt, .. } =
                    validate_wal_frame(frame).expect("shipped frame decodes");
                Some((features, gt))
            }
            DurableEvent::Checkpoint { .. } => None,
        })
        .collect();
    let Some(rec) = recovered else {
        assert_eq!(watermark, 0, "{context}: acked ships but no image");
        return;
    };
    rec.state
        .validate()
        .unwrap_or_else(|e| panic!("{context}: recovered state invalid: {e}"));
    let have: HashSet<(Vec<u64>, u64)> = rec
        .state
        .pool
        .records()
        .iter()
        .filter_map(|r| r.gt.map(|g| label_key(&r.features, g)))
        .collect();
    for (features, gt) in &acked {
        assert!(
            have.contains(&label_key(features, *gt)),
            "{context}: label gt={gt} shipped below watermark {watermark} lost \
             (recovered from snap {}, {} wal records)",
            rec.report.snapshot_seq,
            rec.report.wal_records_replayed
        );
    }
}

#[test]
fn clean_install_mirrors_the_primary_byte_for_byte() {
    let mem = MemVfs::new();
    let mut dir = ReplicaDir::new(Arc::new(mem.clone()));
    let watermark = replicate(
        || false,
        |ev| {
            let image = dir.install(ev).expect("clean install");
            assert_eq!(
                image.is_some(),
                matches!(ev, DurableEvent::Checkpoint { .. })
            );
            true
        },
    );
    assert_eq!(watermark, shipped().events.len());
    assert_eq!(files(&mem), shipped().primary_files);
    recover_and_check(&mem, watermark, "clean run");
}

#[test]
fn corrupt_ships_are_refused_before_a_byte_lands() {
    let mem = MemVfs::new();
    let mut dir = ReplicaDir::new(Arc::new(mem.clone()));
    let flip = |bytes: &[u8]| {
        let mut b = bytes.to_vec();
        let mid = b.len() / 2;
        b[mid] ^= 0xFF;
        b
    };
    for ev in &shipped().events[..3] {
        let bad = match ev {
            DurableEvent::Checkpoint {
                seq,
                snapshot,
                carry,
            } => DurableEvent::Checkpoint {
                seq: *seq,
                snapshot: flip(snapshot),
                carry: carry.clone(),
            },
            DurableEvent::WalAppend { wal_seq, frame } => DurableEvent::WalAppend {
                wal_seq: *wal_seq,
                frame: flip(frame),
            },
        };
        let before = files(&mem);
        assert!(dir.install(&bad).is_err());
        assert_eq!(files(&mem), before, "a refused ship leaves no trace");
        dir.install(ev).expect("the intact ship installs");
    }
}

#[cfg(feature = "faults")]
#[test]
fn kill_at_every_op_for_every_fault_kind_keeps_every_acked_ship() {
    use warper_durable::{FailKind, FailPlan, FailpointVfs};

    let run = |plan: Option<FailPlan>| -> (MemVfs, usize, u64) {
        let mem = MemVfs::new();
        let fp = Arc::new(match plan {
            Some(plan) => FailpointVfs::with_plan(mem.clone(), plan),
            None => FailpointVfs::new(mem.clone()),
        });
        let mut dir = ReplicaDir::new(fp.clone());
        let watermark = replicate(|| fp.crashed(), |ev| dir.install(ev).is_ok());
        (mem, watermark, fp.ops())
    };
    let (_, clean, total_ops) = run(None);
    assert_eq!(clean, shipped().events.len());
    assert!(total_ops > 40, "probe too small: {total_ops} ops");

    for kind in [
        FailKind::PowerCut,
        FailKind::TornWrite,
        FailKind::ShortWrite,
        FailKind::OpError,
    ] {
        for at_op in 0..total_ops {
            let (mem, watermark, _) = run(Some(FailPlan { at_op, kind }));
            if matches!(kind, FailKind::ShortWrite | FailKind::OpError) {
                assert_eq!(
                    watermark,
                    shipped().events.len(),
                    "{kind:?}@{at_op}: a surviving replica catches up after one retry"
                );
            }
            recover_and_check(&mem, watermark, &format!("{kind:?}@{at_op}"));
        }
    }
}
