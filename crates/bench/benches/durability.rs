//! Durability-layer benchmark: checkpoint write, WAL append, and cold
//! recovery latency against the real filesystem (`StdVfs`).
//!
//! Three costs bound how cheaply the serving layer can be made crash-safe:
//!
//! 1. **Checkpoint write** — serialize state + model, frame with CRC32,
//!    write to a temp file, fsync, atomically rename, fsync the directory,
//!    rotate the WAL. This is the per-commit cost `note_commit` amortizes
//!    over `checkpoint_every` supervisor commits.
//! 2. **WAL append** — frame one label record, append, fsync. This is the
//!    per-label acknowledgement cost on the annotation path.
//! 3. **Cold recovery** — scan the directory, load the newest valid
//!    snapshot, validate it, replay the WAL tail. This is the restart
//!    latency a `serve --state-dir` resume pays before serving.
//!
//! Run with `cargo bench --bench durability` (release profile). Writes
//! `BENCH_durability.json` at the workspace root in addition to printing.

use std::sync::Arc;
use std::time::Instant;

use warper_ce::lm::{LmMlp, LmMlpParams};
use warper_core::{WarperConfig, WarperController};
use warper_durable::{DurabilityConfig, DurableStore, StdVfs};

/// The serving models the costs are taken at: the shape this bench has
/// always measured, and the lifecycle benchmark's `trickle_big` LM-MLP
/// (1.6 M parameters), where the image is nearly all weights.
const SHAPES: [(&str, usize, [usize; 2]); 2] = [
    ("8x512x256", 8, [512, 256]),
    ("18x1792x896", 18, [1792, 896]),
];
const POOL_RECORDS: usize = 5_000;
const CHECKPOINTS: usize = 20;
const WAL_APPENDS: usize = 2_000;
const RECOVERIES: usize = 5;

fn mean_ms(total_secs: f64, n: usize) -> f64 {
    total_secs * 1e3 / n.max(1) as f64
}

/// The three costs for one model shape, as a JSON section.
fn measure(name: &str, dim: usize, hidden: [usize; 2]) -> serde_json::Value {
    // A realistically sized state: a trained controller whose pool is grown
    // to POOL_RECORDS labeled rows, plus a production-shaped serving model.
    let cfg = WarperConfig {
        embed_dim: 8,
        hidden: 32,
        n_i: 8,
        pretrain_epochs: 2,
        ..Default::default()
    };
    let training: Vec<(Vec<f64>, f64)> = (0..200)
        .map(|i| {
            let row: Vec<f64> = (0..dim)
                .map(|d| 0.1 + 0.003 * ((i + d) % 11) as f64)
                .collect();
            (row, 100.0 + (i % 13) as f64)
        })
        .collect();
    let ctl = WarperController::new(dim, &training, 1.5, cfg, 97);
    let mut state = ctl.to_state();
    let extra: Vec<(Vec<f64>, Option<f64>)> = (0..POOL_RECORDS)
        .map(|i| {
            let row: Vec<f64> = (0..dim)
                .map(|d| 0.05 + 0.001 * ((i * 7 + d) % 97) as f64)
                .collect();
            (row, Some(50.0 + (i % 29) as f64))
        })
        .collect();
    state.pool.append_new(&extra);
    let model = LmMlp::new(
        dim,
        LmMlpParams {
            hidden,
            ..Default::default()
        },
        97,
    );
    let model_name = format!("lm-mlp {dim}->{}->{}->1", hidden[0], hidden[1]);

    let dir = std::env::temp_dir().join(format!(
        "warper-durability-bench-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let vfs = Arc::new(StdVfs::open(&dir).expect("state dir opens"));
    let cfg = DurabilityConfig::default();
    let (mut store, recovered) =
        DurableStore::open(Arc::clone(&vfs) as Arc<_>, cfg).expect("fresh directory opens");
    assert!(recovered.is_none(), "temp directory must start empty");

    // -----------------------------------------------------------------
    // 1. Checkpoint write: state + model, full fsync/rename protocol.
    // -----------------------------------------------------------------
    let t0 = Instant::now();
    for _ in 0..CHECKPOINTS {
        store.checkpoint(&state, Some(&model)).expect("checkpoint");
    }
    let checkpoint_ms = mean_ms(t0.elapsed().as_secs_f64(), CHECKPOINTS);
    let snap_bytes = std::fs::metadata(dir.join(format!("snap-{:08}.ckpt", store.seq())))
        .expect("snapshot exists")
        .len();
    println!(
        "{name}: checkpoint {checkpoint_ms:.2} ms/write ({CHECKPOINTS} writes, {snap_bytes} \
         bytes, pool={POOL_RECORDS} + {model_name})"
    );

    // -----------------------------------------------------------------
    // 2. WAL append: one framed label + fsync per acknowledgement.
    // -----------------------------------------------------------------
    let t0 = Instant::now();
    for i in 0..WAL_APPENDS {
        let row: Vec<f64> = (0..dim)
            .map(|d| 0.2 + 1e-7 * i as f64 + 0.002 * ((i + d) % 53) as f64)
            .collect();
        store
            .append_label(&row, 75.0 + (i % 17) as f64, i % 2 == 0)
            .expect("append");
    }
    let wal_us = t0.elapsed().as_secs_f64() * 1e6 / WAL_APPENDS as f64;
    println!("{name}: wal append {wal_us:.1} us/label ({WAL_APPENDS} appends, fsync each)");
    assert_eq!(store.tail_len(), WAL_APPENDS);
    let stats = store.stats();
    assert_eq!(stats.checkpoint_failures, 0);
    assert_eq!(stats.wal_append_failures, 0);
    drop(store);

    // -----------------------------------------------------------------
    // 3. Cold recovery: snapshot load + validate + WAL-tail replay.
    // -----------------------------------------------------------------
    let mut recovery_secs = 0.0;
    let mut report = None;
    for _ in 0..RECOVERIES {
        let t0 = Instant::now();
        let (_store, rec) =
            DurableStore::open(Arc::clone(&vfs) as Arc<_>, cfg).expect("recovery succeeds");
        recovery_secs += t0.elapsed().as_secs_f64();
        let rec = rec.expect("directory holds a checkpoint");
        assert_eq!(rec.report.wal_records_replayed, WAL_APPENDS);
        assert!(!rec.report.wal_truncated, "clean shutdown has no torn tail");
        assert!(rec.model.is_some(), "serving model restores from its blob");
        report = Some(rec.report);
    }
    let recovery_ms = mean_ms(recovery_secs, RECOVERIES);
    let report = report.expect("at least one recovery ran");
    println!(
        "{name}: cold recovery {recovery_ms:.2} ms (snapshot seq {} + {} WAL labels -> pool={})",
        report.snapshot_seq, report.wal_records_replayed, report.pool_len
    );
    let _ = std::fs::remove_dir_all(&dir);

    serde_json::json!({
        "config": serde_json::json!({
            "feature_dim": dim,
            "pool_records": POOL_RECORDS,
            "model": model_name,
            "wal_appends": WAL_APPENDS,
        }),
        "checkpoint_write": serde_json::json!({
            "iterations": CHECKPOINTS,
            "mean_ms": checkpoint_ms,
            "snapshot_bytes": snap_bytes,
        }),
        "wal_append": serde_json::json!({
            "iterations": WAL_APPENDS,
            "mean_us": wal_us,
        }),
        "cold_recovery": serde_json::json!({
            "iterations": RECOVERIES,
            "mean_ms": recovery_ms,
            "snapshot_seq": report.snapshot_seq,
            "wal_records_replayed": report.wal_records_replayed,
            "recovered_pool_len": report.pool_len,
            "recovered_pool_labeled": report.pool_labeled,
        }),
    })
}

fn main() {
    let mut out = serde_json::Map::new();
    out.insert(
        "bench".into(),
        serde_json::Value::String("crates/bench/benches/durability.rs".into()),
    );
    for (name, dim, hidden) in SHAPES {
        out.insert(name.into(), measure(name, dim, hidden));
    }
    warper_bench::publish_bench("durability", serde_json::Value::Object(out));
}
