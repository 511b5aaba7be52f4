//! Bit pins for the offline phase (train set → annotate → featurize → build
//! → fit → held-out baseline) that `prepare_single_table` and step 1 of
//! `run_single_table` share.
//!
//! `identical_seeds_reproduce_curves` compares a run with itself, so it
//! cannot see an RNG draw that moved for *both* runs. These constants were
//! recorded before the two copies of the sequence were folded into one
//! function: every curve point downstream of the offline phase (one FT run,
//! one supervised Warper run through the fault ladder) and the offline
//! output itself for an LM and for MSCN. Training is f64 on the scalar GEMM,
//! so the bits do not depend on the host's SIMD tier.

use warper_core::runner::{
    run_single_table, DataDriftKind, DriftSetup, ModelKind, RunnerConfig, StrategyKind,
};
use warper_core::{prepare_single_table, SupervisorConfig, WarperConfig};
use warper_query::FaultConfig;
use warper_storage::{generate, DatasetKind};
use warper_workload::ArrivalProcess;

fn cfg() -> RunnerConfig {
    RunnerConfig {
        n_train: 240,
        n_test: 60,
        checkpoints: 3,
        arrival: ArrivalProcess {
            rate_per_sec: 0.2,
            period_secs: 600.0,
        },
        seed: 11,
        warper: WarperConfig {
            embed_dim: 6,
            hidden: 24,
            n_i: 5,
            pretrain_epochs: 2,
            gamma: 80,
            n_p: 40,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn curve_bits(
    setup: &DriftSetup,
    strategy: StrategyKind,
    cfg: &RunnerConfig,
) -> (u64, Vec<(u64, u64)>) {
    let table = generate(DatasetKind::Prsa, 2_000, 5);
    let res = run_single_table(&table, setup, ModelKind::LmMlp, strategy, cfg).expect("run");
    let points = res.curve.points();
    (
        res.baseline_gmq.to_bits(),
        points
            .iter()
            .map(|&(q, g)| (q.to_bits(), g.to_bits()))
            .collect(),
    )
}

#[test]
fn ft_curve_is_pinned() {
    let setup = DriftSetup::Workload {
        train: "w1".into(),
        new: "w4".into(),
    };
    let got = curve_bits(&setup, StrategyKind::Ft, &cfg());
    let want: (u64, Vec<(u64, u64)>) = (FT_BASELINE, FT_CURVE.to_vec());
    assert_eq!(got, want, "got {got:#x?}");
}

#[test]
fn supervised_warper_curve_through_the_fault_ladder_is_pinned() {
    let setup = DriftSetup::Combined {
        train: "w1".into(),
        new: "w4".into(),
        kind: DataDriftKind::SortTruncate { col: 1 },
    };
    let cfg = RunnerConfig {
        arrivals_labeled: false,
        faults: Some(FaultConfig {
            failure_rate: 0.2,
            seed: 21,
            ..Default::default()
        }),
        annotate_budget_rows: Some(60_000),
        supervisor: Some(SupervisorConfig::default()),
        ..cfg()
    };
    let got = curve_bits(&setup, StrategyKind::Warper, &cfg);
    let want: (u64, Vec<(u64, u64)>) = (WARPER_BASELINE, WARPER_CURVE.to_vec());
    assert_eq!(got, want, "got {got:#x?}");
}

/// `[baseline GMQ, first training row, last training row]` of one
/// `prepare_single_table` call, each row as an FNV-1a fold over the bits of
/// its features then its cardinality.
fn prepared_bits(kind: ModelKind) -> [u64; 3] {
    let table = generate(DatasetKind::Prsa, 2_000, 5);
    let p = prepare_single_table(&table, "w12", kind, 240, 11).expect("prepare");
    let row = |(f, c): &(Vec<f64>, f64)| -> u64 {
        f.iter().chain([c]).fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
            (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
        })
    };
    let (first, last) = (
        p.training_set.first().expect("rows"),
        p.training_set.last().expect("rows"),
    );
    assert_eq!(p.training_set.len(), 240);
    [p.baseline_gmq.to_bits(), row(first), row(last)]
}

#[test]
fn prepared_lm_mlp_is_pinned() {
    let got = prepared_bits(ModelKind::LmMlp);
    assert_eq!(got, LM_MLP, "got {got:#x?}");
}

#[test]
fn prepared_mscn_is_pinned() {
    let got = prepared_bits(ModelKind::Mscn);
    assert_eq!(got, MSCN, "got {got:#x?}");
}

// Recorded at the commit before the fold (PR 21, `2d15b47`).
const FT_BASELINE: u64 = 0x4003d9af22618234;
const FT_CURVE: [(u64, u64); 4] = [
    (0x0, 0x402bcdd548a0d41c),
    (0x4044000000000000, 0x4000a3a15d0a95e8),
    (0x4054000000000000, 0x400b0277a0c2a1e6),
    (0x405e000000000000, 0x3ff8a48d4086b8f4),
];
const WARPER_BASELINE: u64 = 0x4003d9af22618234;
const WARPER_CURVE: [(u64, u64); 4] = [
    (0x0, 0x4031f7a2b7094293),
    (0x4044000000000000, 0x4031f7a2b7094293),
    (0x4054000000000000, 0x4030f0389b35584a),
    (0x405e000000000000, 0x401aaabacd87564b),
];
const LM_MLP: [u64; 3] = [0x4005186aab1abea9, 0x75fd8ae420b38e7c, 0x44884c3336a98d06];
const MSCN: [u64; 3] = [0x4006690be79c45df, 0x2fed714f3b762a14, 0xfc79344f104c85ce];
