//! Pins the equivalence the one-core refactor rests on: the unified
//! `run_replay` serves, at `Precision::F64`, exactly the estimate streams
//! the two harnesses it replaced served — the single-service replay and the
//! fleet replay of commit 6159eb5, where these constants were recorded. A
//! change to the LOADGEN / SHARD / DRIFT / ADAPT stream discipline of the
//! merged harness shows up here as a different checksum.

use rand::rngs::StdRng;
use rand::SeedableRng;
use warper_core::runner::{DataDriftKind, ModelKind};
use warper_core::{derive_seed, prepare_single_table, seed_stream, SupervisorConfig, WarperConfig};
use warper_serve::{
    run_replay, AdaptMode, DriftEvent, DriftKind, FleetConfig, Precision, ReplaySpec,
};
use warper_storage::{generate, DatasetKind, Table};
use warper_workload::QueryGenerator;

fn checksum(table: &Table, spec: ReplaySpec) -> u64 {
    let precision = Precision::F64;
    let rep = run_replay(table, &ReplaySpec { precision, ..spec }).expect("replay runs");
    assert_eq!(
        (rep.served, rep.shed, rep.errors),
        (rep.latency.count() as usize, 0, 0)
    );
    rep.estimates_checksum
}

#[test]
fn unified_replay_reproduces_both_parent_harnesses() {
    let table = generate(DatasetKind::Prsa, 1_500, 7);

    // One shard, synchronous adaptation across a data drift.
    let sync = |clients| ReplaySpec {
        n_train: 200,
        n_queries: 240,
        clients,
        drift: Some(DriftEvent {
            at_query: 120,
            kind: DriftKind::Data(DataDriftKind::SortTruncate { col: 1 }),
        }),
        adapt: AdaptMode::Synchronous {
            supervisor: SupervisorConfig::default(),
            invoke_every: 80,
        },
        warper: WarperConfig {
            embed_dim: 6,
            hidden: 24,
            n_i: 5,
            pretrain_epochs: 2,
            gamma: 80,
            n_p: 40,
            ..Default::default()
        },
        seed: 23,
        ..Default::default()
    };
    assert_eq!(checksum(&table, sync(1)), 0x8767_e74c_c0e7_49c0);
    assert_eq!(checksum(&table, sync(3)), 0x8767_e74c_c0e7_49c0);

    // One shard, no adaptation: the parent's two harnesses agreed on it, and
    // it is the generation-0 model's `estimate_many` over the LOADGEN stream.
    let (n_train, n_queries, seed) = (200, 300, 13);
    let plain = ReplaySpec {
        n_train,
        n_queries,
        clients: 3,
        seed,
        ..Default::default()
    };
    assert_eq!(checksum(&table, plain), 0x41fb_38bd_f25b_16b9);
    let prepared = prepare_single_table(&table, "w1", ModelKind::LmMlp, n_train, seed).unwrap();
    let mut loadgen = StdRng::seed_from_u64(derive_seed(seed, seed_stream::LOADGEN));
    let mut stream = QueryGenerator::try_from_notation(&table, "w1").unwrap();
    let feats: Vec<Vec<f64>> = stream
        .generate_many(n_queries, &mut loadgen)
        .iter()
        .map(|p| prepared.fmap.featurize(p))
        .collect();
    let refs: Vec<&[f64]> = feats.iter().map(Vec::as_slice).collect();
    let mut direct = 0xcbf2_9ce4_8422_2325u64;
    for (idx, value) in prepared.model.estimate_many(&refs).into_iter().enumerate() {
        for b in (idx as u64)
            .to_le_bytes()
            .into_iter()
            .chain(value.to_bits().to_le_bytes())
        {
            direct = (direct ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    assert_eq!(direct, 0x41fb_38bd_f25b_16b9);

    // Twelve Zipf-skewed shards, packed and unpacked.
    let zipf = |packing| ReplaySpec {
        shards: 12,
        n_train: 150,
        n_queries: 300,
        clients: 3,
        zipf_s: 1.3,
        fleet: FleetConfig {
            packing,
            ..FleetConfig::default()
        },
        seed: 29,
        ..Default::default()
    };
    assert_eq!(checksum(&table, zipf(true)), 0x3930_94fa_1a33_dec6);
    assert_eq!(checksum(&table, zipf(false)), 0x3930_94fa_1a33_dec6);
}
