//! # warper-repro
//!
//! A from-scratch Rust reproduction of **"Warper: Efficiently Adapting
//! Learned Cardinality Estimators to Data and Workload Drifts"** (Li, Lu,
//! Kandula; SIGMOD 2022).
//!
//! This umbrella crate re-exports the workspace's public surface:
//!
//! * [`warper`] — the Warper system itself: query pool, encoder, GAN,
//!   picker, drift detection, the Algorithm-1 controller, the FT/MIX/AUG/HEM
//!   baselines, and the shared experiment runner;
//! * [`ce`] — the black-box cardinality-estimation models Warper adapts
//!   (LM-mlp/gbt/ply/rbf, MSCN);
//! * [`query`] — range predicates, featurization, the exact annotator and
//!   join cardinalities;
//! * [`storage`] — columnar tables, synthetic datasets, data-drift mutators;
//! * [`workload`] — the Table-5 workload generators w1–w5 and drift
//!   scenarios;
//! * [`metrics`] — q-error/GMQ, Δ-speedups, δ_js, latency histograms;
//! * [`serve`] — the concurrent estimation service: hot-swappable model
//!   snapshots, micro-batched inference, background adaptation, and the
//!   replay/load-generation harness;
//! * [`nn`] and [`linalg`] — the ML and numerics substrates.
//!
//! ## Quickstart
//!
//! ```no_run
//! use warper_repro::prelude::*;
//!
//! // A PRSA-like table whose workload drifts from w1-style to w3-style.
//! let table = storage::generate(storage::DatasetKind::Prsa, 20_000, 7);
//! let setup = DriftSetup::Workload { train: "w12".into(), new: "w345".into() };
//! let cfg = RunnerConfig::default();
//! let result = warper::runner::run_single_table(
//!     &table,
//!     &setup,
//!     ModelKind::LmMlp,
//!     StrategyKind::Warper,
//!     &cfg,
//! )
//! .expect("valid workload notation");
//! println!("GMQ curve: {:?}", result.curve.points());
//! ```

pub use warper_ce as ce;
pub use warper_core as warper;
pub use warper_durable as durable;
pub use warper_linalg as linalg;
pub use warper_metrics as metrics;
pub use warper_nn as nn;
pub use warper_query as query;
pub use warper_serve as serve;
pub use warper_storage as storage;
pub use warper_workload as workload;

/// Convenient glob imports for examples and downstream users.
pub mod prelude {
    pub use crate::{ce, durable, linalg, metrics, nn, query, serve, storage, warper, workload};
    pub use warper_ce::{CardinalityEstimator, LabeledExample, UpdateKind};
    pub use warper_core::runner::{
        run_single_table, DataDriftKind, DriftSetup, ModelKind, RunResult, RunnerConfig,
        StrategyKind,
    };
    pub use warper_core::{AdaptStrategy, ArrivedQuery, WarperConfig, WarperController};
    pub use warper_metrics::{gmq, q_error, speedups_vs_ft, AdaptationCurve, PAPER_THETA};
    pub use warper_query::{Annotator, Featurizer, JoinQuery, RangePredicate};
    pub use warper_storage::{generate, DatasetKind, Table};
    pub use warper_workload::{ArrivalProcess, Mix, QueryGenerator};
}
