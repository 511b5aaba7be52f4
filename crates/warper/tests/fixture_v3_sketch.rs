//! Golden-fixture compatibility test for version-3 snapshots carrying a
//! sketch baseline.
//!
//! `tests/fixtures/snapshot_v3_sketch.json` pins the exact bytes of a v3
//! image whose `sketch_baseline` section is populated (HLL registers, heavy
//! hitters, per-column rollups). Together with `fixture_v1.rs` — which pins
//! that *pre*-sketch images still load with `sketch_baseline: None` — this
//! closes both directions of the format change: old images recover
//! unchanged, new images round-trip byte-for-byte.

use warper_core::{WarperConfig, WarperController, WarperState};
use warper_storage::{generate, DatasetKind};

const FIXTURE: &str = include_str!("fixtures/snapshot_v3_sketch.json");

/// The fixture's table shape (kept tiny so the committed sketch stays
/// readable in review).
const FIXTURE_ROWS: usize = 600;

fn fixture_state() -> WarperState {
    let cfg = WarperConfig {
        embed_dim: 6,
        hidden: 24,
        n_i: 8,
        pretrain_epochs: 3,
        ..Default::default()
    };
    let training: Vec<(Vec<f64>, f64)> = (0..50)
        .map(|i| (vec![0.2 + 0.001 * (i % 7) as f64; 4], 300.0))
        .collect();
    let mut ctl = WarperController::new(4, &training, 1.5, cfg, 42);
    let table = generate(DatasetKind::Prsa, FIXTURE_ROWS, 9);
    ctl.set_sketch_baseline(Some(table.table_sketch().as_ref().clone()));
    // The file pins a version-3 image. A current controller stamps 4 — the
    // same fields, marking the states the durable store writes as binary
    // images — so the v3 bytes are those of this state stamped 3.
    WarperState {
        version: 3,
        ..ctl.to_state()
    }
}

#[test]
fn golden_v3_sketch_snapshot_roundtrips() {
    assert!(
        FIXTURE.contains("\"sketch_baseline\":{"),
        "fixture must carry a populated sketch baseline"
    );

    let state: WarperState = serde_json::from_str(FIXTURE).expect("fixture parses");
    assert_eq!(state.version, 3, "sketch baselines shipped in v3");
    state.validate().expect("fixture passes validation");

    let sketch = state
        .sketch_baseline
        .as_ref()
        .expect("fixture carries a baseline");
    assert_eq!(sketch.rows, FIXTURE_ROWS as u64);
    assert!(!sketch.cols.is_empty());
    for c in 0..sketch.cols.len() {
        assert!(sketch.distinct(c) >= 1.0, "column {c} sketch is empty");
    }

    // Byte-for-byte round trip: re-serializing the parsed state reproduces
    // the committed bytes exactly — no lossy re-encoding of registers or
    // heavy-hitter counters.
    let reserialized = serde_json::to_string(&state).expect("state serializes");
    assert_eq!(reserialized, FIXTURE.trim_end());

    // And the controller restored from it carries the baseline forward.
    let ctl = WarperController::from_state(state).expect("v3 snapshot loads");
    let carried = ctl.sketch_baseline().expect("baseline restored");
    assert_eq!(carried.rows, FIXTURE_ROWS as u64);
}

#[test]
fn regenerated_bytes_match_committed_fixture() {
    // The fixture builder is deterministic; if this fails after an
    // intentional format change, run the ignored regeneration test below.
    let json = serde_json::to_string(&fixture_state()).expect("state serializes");
    assert_eq!(
        json,
        FIXTURE.trim_end(),
        "fixture is stale; regenerate with `cargo test -p warper-core fixture_v3 -- --ignored`"
    );
}

/// Regenerates the committed fixture after an intentional format change:
/// `cargo test -p warper-core fixture_v3 -- --ignored`
#[test]
#[ignore]
fn regenerate_golden_v3_fixture() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/snapshot_v3_sketch.json"
    );
    let json = serde_json::to_string(&fixture_state()).expect("state serializes");
    std::fs::write(path, json).expect("write fixture");
}
