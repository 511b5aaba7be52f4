//! Golden fixtures for the fleet's per-shard state-directory layout
//! (`tests/fixtures/fleet_layout_v1/` and `tests/fixtures/fleet_layout_v2/`).
//!
//! A fleet lays its durable state out as one subdirectory per shard, named
//! [`ShardKey::dir_name`] (`shard-{tenant}-{table}`, non `[A-Za-z0-9_-]`
//! chars mapped to `_`), each holding an independent WAL/checkpoint lineage
//! in `warper-durable`'s on-disk format. The fixtures pin both layers:
//! the directory naming (including sanitization) and the byte format, by
//! committing a tiny two-shard state directory and asserting a current
//! build recovers every shard from those exact bytes.
//!
//! * `fleet_layout_v1` — snapshots in the `WARPSNP1` format (both frames one
//!   JSON text), as every build before the binary image wrote them. Never
//!   regenerated: it is what an existing deployment's disk holds.
//! * `fleet_layout_v2` — the same lineages as the current build writes them:
//!   `WARPSNP4` snapshots (frames are `linalg::bulk` images), WAL unchanged.
//!
//! Migration notes, v1 → v2. Nothing to run: the reader loads both snapshot
//! formats and the WAL format is shared, so a v1 directory opens as it is
//! and becomes v2 at its next checkpoint (the older snapshot stays as
//! last-known-good until the one after). There is no way back: a build from
//! before the change refuses `WARPSNP4` files as corrupt, so roll a fleet
//! forward shard by shard, not back. A standby must be upgraded before its
//! primary, since it vets each shipped checkpoint with its own reader.
//!
//! Any further change to the naming scheme or the durable byte format breaks
//! the load tests below and requires a `fleet_layout_v3` fixture plus
//! migration notes — that is the point.
//!
//! Regenerate the newest layout (after a deliberate format bump only):
//! `cargo test -p warper-serve --test fleet_layout_fixture -- --ignored`

use std::collections::HashSet;
use std::sync::Arc;

use warper_core::{WarperConfig, WarperController, WarperState};
use warper_durable::{DurabilityConfig, DurableStore, MemVfs, Vfs};
use warper_serve::ShardKey;

/// Where the regenerator writes: the layout the current build produces.
const FIXTURE_DIR: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/fleet_layout_v2"
);

/// The two pinned shards; the second exercises name sanitization.
fn shard_keys() -> [ShardKey; 2] {
    [
        ShardKey::new("acme", "orders"),
        ShardKey::new("beta corp", "events!"),
    ]
}

type Labels = Vec<(Vec<f64>, f64)>;

/// Labels shard `i` logs: `features[0]` = shard tag, gt in the shard's own
/// thousand-block. `(pre, post)` = labels before / after the mid-run
/// checkpoint (post lives only in the live WAL).
fn shard_labels(i: usize) -> (Labels, Labels) {
    let tag = (i + 1) as f64;
    let label = |j: usize| {
        (
            vec![tag, 0.1 * (j + 1) as f64, 0.5, 0.7],
            1_000.0 * tag + j as f64,
        )
    };
    match i {
        0 => ((0..3).map(label).collect(), (3..5).map(label).collect()),
        _ => ((0..2).map(label).collect(), (2..3).map(label).collect()),
    }
}

/// One tiny deterministic controller state every shard starts from.
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

/// Drives one shard's lineage over `vfs` to the pinned shape: base
/// checkpoint (seq 1) → `pre` labels → checkpoint (seq 2) → `post` labels
/// in the live WAL.
fn drive_shard(vfs: Arc<dyn Vfs>, i: usize) {
    let (mut store, recovered) =
        DurableStore::open(vfs, DurabilityConfig::default()).expect("fresh shard directory opens");
    assert!(recovered.is_none(), "generator expects a fresh directory");
    let mut state = base_state();
    store.checkpoint(&state, None).expect("base checkpoint");
    let (pre, post) = shard_labels(i);
    for (f, gt) in &pre {
        store.append_label(f, *gt, false).expect("pre label");
        state.pool.append_new(&[(f.clone(), Some(*gt))]);
    }
    store.checkpoint(&state, None).expect("mid checkpoint");
    for (f, gt) in &post {
        store.append_label(f, *gt, false).expect("post label");
    }
}

/// The exact per-shard file set the layout produces (also what the load
/// test includes): two snapshots (last-known-good + newest) and their WALs.
const SHARD_FILES: [&str; 4] = [
    "snap-00000001.ckpt",
    "snap-00000002.ckpt",
    "wal-00000001.log",
    "wal-00000002.log",
];

/// Regenerates the committed fixture. `#[ignore]`d: run only after a
/// deliberate format change, into a new `fleet_layout_v<n>`.
#[test]
#[ignore = "regenerates the committed fixture; run by hand after a format bump"]
fn regenerate_fleet_layout_fixture() {
    let mut manifest = String::new();
    for (i, key) in shard_keys().iter().enumerate() {
        let mem = MemVfs::new();
        drive_shard(Arc::new(mem.clone()), i);
        let mut names = mem.list().expect("list");
        names.sort();
        assert_eq!(
            names, SHARD_FILES,
            "shard {key}: layout drifted from the pinned file set"
        );
        let dir = format!("{FIXTURE_DIR}/{}", key.dir_name());
        std::fs::create_dir_all(&dir).expect("fixture dir");
        for name in &names {
            let bytes = mem.read(name).expect("read");
            std::fs::write(format!("{dir}/{name}"), &bytes).expect("write fixture file");
            manifest.push_str(&format!("{}/{name}\n", key.dir_name()));
        }
    }
    std::fs::write(format!("{FIXTURE_DIR}/MANIFEST.txt"), manifest).expect("manifest");
}

/// The committed fixture bytes for one shard of one layout, keyed by file
/// name.
fn pinned_shard(layout: &str, i: usize) -> [(&'static str, &'static [u8]); 4] {
    macro_rules! file {
        ($layout:literal, $dir:literal, $name:literal) => {
            include_bytes!(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/tests/fixtures/",
                $layout,
                "/",
                $dir,
                "/",
                $name
            )) as &[u8]
        };
    }
    macro_rules! shard_dir {
        ($layout:literal, $dir:literal) => {
            [
                (SHARD_FILES[0], file!($layout, $dir, "snap-00000001.ckpt")),
                (SHARD_FILES[1], file!($layout, $dir, "snap-00000002.ckpt")),
                (SHARD_FILES[2], file!($layout, $dir, "wal-00000001.log")),
                (SHARD_FILES[3], file!($layout, $dir, "wal-00000002.log")),
            ]
        };
    }
    match (layout, i) {
        ("fleet_layout_v1", 0) => shard_dir!("fleet_layout_v1", "shard-acme-orders"),
        ("fleet_layout_v1", _) => shard_dir!("fleet_layout_v1", "shard-beta_corp-events_"),
        (_, 0) => shard_dir!("fleet_layout_v2", "shard-acme-orders"),
        (_, _) => shard_dir!("fleet_layout_v2", "shard-beta_corp-events_"),
    }
}

/// A fresh in-memory directory holding `files`.
fn mem_dir(files: &[(&str, &[u8])]) -> MemVfs {
    let mem = MemVfs::new();
    for (name, bytes) in files {
        mem.create(name).expect("create");
        mem.append(name, bytes).expect("append");
        mem.fsync(name).expect("fsync");
    }
    mem
}

/// Post-sketch lineages round-trip: a shard whose checkpoint carries a
/// populated sketch baseline recovers it bit-exactly through the same
/// WAL/checkpoint machinery the pinned pre-sketch shards use.
#[test]
fn sketch_sidecar_rides_a_shard_lineage() {
    use warper_storage::{generate, DatasetKind};

    let table = generate(DatasetKind::Prsa, 800, 21);
    let baseline = table.table_sketch().as_ref().clone();
    let mem = MemVfs::new();
    {
        let (mut store, recovered) =
            DurableStore::open(Arc::new(mem.clone()), DurabilityConfig::default())
                .expect("fresh dir opens");
        assert!(recovered.is_none());
        let mut state = base_state();
        state.sketch_baseline = Some(baseline.clone());
        store.checkpoint(&state, None).expect("checkpoint");
    }
    let (_store, recovered) =
        DurableStore::open(Arc::new(mem), DurabilityConfig::default()).expect("reopen");
    let rec = recovered.expect("image recovered");
    let got = rec
        .state
        .sketch_baseline
        .as_ref()
        .expect("baseline survived the lineage");
    assert_eq!(got.rows, baseline.rows);
    assert_eq!(got.rows_changed, baseline.rows_changed);
    assert_eq!(got.cols.len(), baseline.cols.len());
    for c in 0..baseline.cols.len() {
        assert_eq!(got.distinct(c).to_bits(), baseline.distinct(c).to_bits());
    }
    let ctl = WarperController::from_state(rec.state).expect("controller rebuilds");
    assert!(ctl.sketch_baseline().is_some());
}

/// The naming layer of the pin: sanitized directory names must never drift
/// (they are the on-disk contract the fixture directories are named by).
#[test]
fn shard_dir_names_are_pinned() {
    let [a, b] = shard_keys();
    assert_eq!(a.dir_name(), "shard-acme-orders");
    assert_eq!(b.dir_name(), "shard-beta_corp-events_");
}

#[test]
fn fleet_layout_v1_fixture_recovers_every_shard() {
    let manifest = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/fleet_layout_v1/MANIFEST.txt"
    ));
    fixture_recovers_every_shard("fleet_layout_v1", manifest, b"WARPSNP1");
}

#[test]
fn fleet_layout_v2_fixture_recovers_every_shard() {
    let manifest = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/fleet_layout_v2/MANIFEST.txt"
    ));
    fixture_recovers_every_shard("fleet_layout_v2", manifest, b"WARPSNP4");
}

/// What the current build writes is the newest committed layout, byte for
/// byte: the encoding is deterministic, and a format change cannot land
/// without a new fixture.
#[test]
fn current_build_writes_fleet_layout_v2() {
    for i in 0..shard_keys().len() {
        let mem = MemVfs::new();
        drive_shard(Arc::new(mem.clone()), i);
        for (name, bytes) in pinned_shard("fleet_layout_v2", i) {
            assert!(
                mem.read(name).expect("read") == bytes,
                "shard {i}: {name} differs from the committed fleet_layout_v2 bytes"
            );
        }
    }
}

/// Mixed lineage: a directory whose last-known-good snapshot is still in the
/// v1 format while the newest one — already written by the current build —
/// is damaged. Recovery falls back across the format boundary, replays both
/// WALs, and the lineage resumes in the current format.
#[test]
fn v1_last_known_good_under_a_corrupt_v4_newest_falls_back_and_resumes() {
    let [_, lkg_snap, _, lkg_wal] = pinned_shard("fleet_layout_v1", 0);
    let [_, newest, _, newest_wal] = pinned_shard("fleet_layout_v2", 0);
    let mut damaged = newest.1.to_vec();
    let mid = damaged.len() / 2;
    damaged[mid] ^= 0x40;
    let mem = mem_dir(&[
        (lkg_snap.0, lkg_snap.1),
        (lkg_wal.0, lkg_wal.1),
        ("snap-00000003.ckpt", &damaged),
        ("wal-00000003.log", newest_wal.1),
    ]);

    let (mut store, recovered) =
        DurableStore::open(Arc::new(mem.clone()), DurabilityConfig::default())
            .expect("falls back to the v1 snapshot");
    let rec = recovered.expect("durable image");
    assert_eq!(rec.report.snapshot_seq, 2);
    assert_eq!(rec.report.corrupt_snapshots, 1);
    assert!(lkg_snap.1.starts_with(b"WARPSNP1") && newest.1.starts_with(b"WARPSNP4"));
    let (pre, post) = shard_labels(0);
    let labels: HashSet<u64> = rec
        .state
        .pool
        .records()
        .iter()
        .filter_map(|r| r.gt.map(f64::to_bits))
        .collect();
    for (_, gt) in pre.iter().chain(&post) {
        assert!(labels.contains(&gt.to_bits()), "label gt={gt} lost");
    }

    // The lineage resumes: the next checkpoint replaces the damaged file
    // with a good one in the current format, and a restart comes up from it.
    store
        .checkpoint(&rec.state, None)
        .expect("checkpoint over the damaged file");
    assert_eq!(store.seq(), 3);
    assert!(mem
        .read("snap-00000003.ckpt")
        .expect("read")
        .starts_with(b"WARPSNP4"));
    drop(store);
    let (_, again) =
        DurableStore::open(Arc::new(mem), DurabilityConfig::default()).expect("reopen");
    let again = again.expect("durable image");
    assert_eq!(again.report.snapshot_seq, 3);
    assert_eq!(again.report.corrupt_snapshots, 0);
    assert_eq!(again.state.pool.len(), rec.state.pool.len());
}

/// The byte-format layer: a current build recovers every shard from the
/// committed bytes — right sequence, every label, no cross-shard content.
fn fixture_recovers_every_shard(layout: &str, manifest: &str, magic: &[u8; 8]) {
    let listed: Vec<&str> = manifest.lines().filter(|l| !l.is_empty()).collect();
    assert_eq!(listed.len(), 8, "manifest lists 4 files per shard");

    for (i, key) in shard_keys().iter().enumerate() {
        for name in SHARD_FILES {
            let line = format!("{}/{name}", key.dir_name());
            assert!(
                listed.contains(&line.as_str()),
                "manifest is missing {line}"
            );
        }

        // Replay the pinned bytes into a fresh VFS and recover.
        let mem = mem_dir(&pinned_shard(layout, i));
        let (store, recovered) = DurableStore::open(Arc::new(mem), DurabilityConfig::default())
            .unwrap_or_else(|e| panic!("shard {key}: pinned bytes no longer open: {e}"));
        let rec = recovered.unwrap_or_else(|| panic!("shard {key}: no durable image"));
        assert_eq!(store.seq(), 2, "shard {key}: lineage resumes at seq 2");
        assert_eq!(rec.report.snapshot_seq, 2);
        assert_eq!(rec.report.corrupt_snapshots, 0);
        let (pre, post) = shard_labels(i);
        assert_eq!(
            rec.report.wal_records_replayed,
            post.len(),
            "shard {key}: live WAL holds exactly the post-checkpoint labels"
        );
        rec.state
            .validate()
            .unwrap_or_else(|e| panic!("shard {key}: invalid state: {e}"));
        for (name, bytes) in pinned_shard(layout, i) {
            if name.starts_with("snap-") {
                assert!(bytes.starts_with(magic), "shard {key}: {name} magic");
                // The v1 lineage predates the sketch sidecar: its bytes must
                // not mention it. Either way recovery comes up with no
                // baseline (the sketch index rebuilds lazily from the table).
                let mentions_sketch = bytes
                    .windows(b"sketch_baseline".len())
                    .any(|w| w == b"sketch_baseline");
                assert_eq!(
                    mentions_sketch,
                    layout != "fleet_layout_v1",
                    "shard {key}: {name}"
                );
            }
        }
        assert!(
            rec.state.sketch_baseline.is_none(),
            "shard {key}: an image without a baseline must recover without one"
        );

        let have: HashSet<(Vec<u64>, u64)> = rec
            .state
            .pool
            .records()
            .iter()
            .filter_map(|r| {
                r.gt.map(|g| {
                    (
                        r.features.iter().map(|v| v.to_bits()).collect(),
                        g.to_bits(),
                    )
                })
            })
            .collect();
        for (f, gt) in pre.iter().chain(&post) {
            let key_bits = (
                f.iter().map(|v| v.to_bits()).collect::<Vec<u64>>(),
                gt.to_bits(),
            );
            assert!(
                have.contains(&key_bits),
                "shard {key}: pinned label gt={gt} lost"
            );
        }
        // No cross-shard content: any label in a shard's thousand-block
        // belongs to this shard.
        let tag = (i + 1) as f64;
        for r in rec.state.pool.records() {
            if let Some(g) = r.gt {
                let block = (g / 1_000.0).floor();
                if (1.0..=2.0).contains(&block) {
                    assert_eq!(
                        block, tag,
                        "shard {key}: recovered another shard's label gt={g}"
                    );
                }
            }
        }
        assert!(
            WarperController::from_state(rec.state).is_ok(),
            "shard {key}: pinned state no longer rebuilds a controller"
        );
    }
}
