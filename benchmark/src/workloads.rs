//! The four workloads: one lifecycle, four shapes. Each `why` says which
//! layer does the work, so a change to one layer has a workload that
//! exercises it and one that bypasses it.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// PRSA-like: 9 columns (1 date, 6 real, 2 categorical), 18 features.
    Prsa,
    /// Higgs-like: 10 numeric columns, 20 features.
    Higgs,
}

/// A data drift: update `update_frac` of the rows in place, then append
/// `append_frac` more.
#[derive(Debug, Clone, Copy)]
pub struct DataDrift {
    pub update_frac: f64,
    pub append_frac: f64,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub dataset: Dataset,
    pub rows: usize,
    /// Workload mix the model is trained on and serves.
    pub train_mix: &'static str,
    /// Mix of the arrivals after the drift (equal to `train_mix` under a
    /// pure data drift).
    pub drift_mix: &'static str,
    pub data_drift: Option<DataDrift>,
    /// Whether arrivals carry execution-feedback labels.
    pub labelled_arrivals: bool,
    /// LM-MLP hidden widths (`features → h0 → h1 → 1`), served at f32.
    pub hidden: [usize; 2],
    pub fit_epochs: usize,
    pub update_epochs: usize,
    pub shards: usize,
    /// Closed-loop clients (threads; one connection each under TCP).
    pub clients: usize,
    pub tcp: bool,
    /// The traced run keeps its state directory on disk (`StdVfs`, real
    /// fsync) instead of `MemVfs`. End-to-end passes never do: a shared
    /// disk's fsync time is the host's, not the program's.
    pub disk_state: bool,
    /// Commits between checkpoints (the store's default is 4).
    pub checkpoint_every: usize,
    /// Adaptation rounds per episode (K), of [`PER_ROUND`] observations each.
    pub rounds: usize,
    pub n_p: usize,
    /// Ingest: write batches per repetition, rows appended and share of
    /// rows updated per batch.
    pub ingest_batches: usize,
    pub ingest_append: usize,
    pub ingest_update_frac: f64,
    /// Ingest while a reader counts predicates on the same table.
    pub count_beside_writes: bool,
}

/// Offline training-set size of every workload's model.
pub const N_TRAIN: usize = 400;
/// Zipf exponent of shard popularity (one shard: everything lands on it).
pub const ZIPF_S: f64 = 1.1;
/// Observations per adaptation round (n).
pub const PER_ROUND: usize = 40;
/// Warper settings scaled to these tables: γ, GAN iterations per
/// invocation, auto-encoder pre-training epochs.
pub const GAMMA: usize = 200;
pub const GAN_ITERS: usize = 20;
pub const PRETRAIN_EPOCHS: usize = 10;
/// Serve-query set size: large against every cache of the program (there is
/// none keyed by query today), small enough to verify bit-for-bit.
pub const SERVE_QUERIES: usize = 2048;
/// Held-out post-drift queries `adapt_gmq` is scored on.
pub const HELDOUT: usize = 200;
/// Batch of the bulk `estimate_many` phase.
pub const BULK_BATCH: usize = 256;

pub fn all() -> Vec<Spec> {
    let base = Spec {
        name: "",
        why: "",
        dataset: Dataset::Prsa,
        rows: 20_000,
        train_mix: "w1",
        drift_mix: "w4",
        data_drift: None,
        labelled_arrivals: true,
        hidden: [512, 256],
        fit_epochs: 16,
        update_epochs: 4,
        shards: 1,
        clients: 2,
        tcp: false,
        disk_state: false,
        checkpoint_every: 4,
        rounds: 8,
        n_p: 40,
        ingest_batches: 8,
        ingest_append: 1024,
        ingest_update_frac: 0.01,
        count_beside_writes: false,
    };
    vec![
        Spec {
            name: "point_tcp",
            why: "one shard behind NetServer on loopback, 4 connections, workload drift w1->w4: serve.net framing and serve.fleet queue/linger/wake per request, warper GAN/picker and nn training per episode",
            tcp: true,
            clients: 4,
            ..base.clone()
        },
        Spec {
            name: "fleet_backlog",
            why: "64 Zipf(1.1) shards sharing one snapshot, in process, 16 blocked clients: ready ring, DRR quantum and cross-shard packing do the work, serve.net none",
            shards: 64,
            clients: 16,
            ..base.clone()
        },
        Spec {
            name: "drift_heavy",
            why: "Higgs-like 200k x 10 under data drift, small LM-MLP, unlabelled arrivals, WAL record per label, checkpoint per commit (on disk with fsync in the traced run): query, storage and durable dominate adapt",
            dataset: Dataset::Higgs,
            rows: 200_000,
            train_mix: "w12",
            drift_mix: "w12",
            data_drift: Some(DataDrift {
                update_frac: 0.3,
                append_frac: 0.2,
            }),
            labelled_arrivals: false,
            hidden: [64, 32],
            fit_epochs: 40,
            clients: 4,
            disk_state: true,
            checkpoint_every: 1,
            rounds: 6,
            n_p: 128,
            ingest_batches: 1,
            ingest_append: 4096,
            ingest_update_frac: 0.001,
            ..base.clone()
        },
        Spec {
            name: "trickle_big",
            why: "PRSA-like 100k rows, LM-MLP 1792x896, one shard, 8 blocked clients keep its worker inside GEMM calls: where linalg::gemm32 moves serve_qps; drift w12->w345; ingest beside a counting reader; most RSS",
            rows: 100_000,
            train_mix: "w12",
            drift_mix: "w345",
            hidden: [1792, 896],
            fit_epochs: 2,
            update_epochs: 1,
            clients: 8,
            rounds: 1,
            ingest_batches: 2,
            ingest_append: 256,
            ingest_update_frac: 0.001,
            count_beside_writes: true,
            ..base
        },
    ]
}

pub fn by_name(name: &str) -> Option<Spec> {
    all().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_distinct_workloads_with_one_line_reasons() {
        let specs = all();
        assert_eq!(specs.len(), 4);
        for (i, s) in specs.iter().enumerate() {
            assert!(!s.name.is_empty() && s.why.len() <= 200 && !s.why.contains('\n'));
            assert!(specs[i + 1..].iter().all(|o| o.name != s.name));
            assert_eq!(by_name(s.name).map(|f| f.rows), Some(s.rows));
        }
        assert!(by_name("nope").is_none());
    }
}
