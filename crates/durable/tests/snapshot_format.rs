//! The snapshot file format the store writes (`WARPSNP4`): a golden fixture,
//! bit-exactness, and totality of the reader.
//!
//! `tests/fixtures/snapshot_v4.bin` pins the exact bytes: a state with a
//! populated pool, runtime window and dense sketch registers, plus an LM-MLP
//! model frame. The encoding is deterministic — the same state and model
//! give the same bytes — which replication relies on when it ships a
//! checkpoint image and the standby vets it with its own reader.
//!
//! Regenerate (after a deliberate format change only, next to a new file):
//! `cargo test -p warper-durable --test snapshot_format -- --ignored`

use proptest::prelude::*;
use warper_ce::lm::{LmMlp, LmMlpParams};
use warper_ce::{CardinalityEstimator, LabeledExample};
use warper_core::{WarperConfig, WarperController, WarperState};
use warper_durable::frame::encode_frame;
use warper_durable::{decode_snapshot, encode_snapshot, validate_wal_frame};
use warper_storage::{generate, DatasetKind};

const FIXTURE: &[u8] = include_bytes!("fixtures/snapshot_v4.bin");

fn fixture_state() -> WarperState {
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
    let mut ctl = WarperController::new(4, &train, 1.5, cfg, 42);
    // 800 PRSA rows put several columns past the dense-register threshold.
    let table = generate(DatasetKind::Prsa, 800, 21);
    ctl.set_sketch_baseline(Some(table.table_sketch().as_ref().clone()));
    let mut state = ctl.to_state();
    state.pool.append_new(&[(vec![0.1, 0.2, 0.3, 0.4], None)]);
    let runtime = state
        .runtime
        .as_mut()
        .expect("to_state carries the runtime");
    runtime.recent_eval = vec![(vec![0.5, -0.0, 1e-310, 0.25], 120.0)];
    state
}

fn fixture_model() -> LmMlp {
    let examples: Vec<LabeledExample> = (0..60)
        .map(|i| {
            LabeledExample::new(
                (0..4).map(|c| ((i + c) % 7) as f64 / 7.0).collect(),
                50.0 + (i % 20) as f64 * 10.0,
            )
        })
        .collect();
    let params = LmMlpParams {
        hidden: [8, 4],
        fit_epochs: 3,
        ..Default::default()
    };
    let mut model = LmMlp::new(4, params, 11);
    model.fit(&examples);
    model
}

fn fixture_bytes() -> Vec<u8> {
    encode_snapshot(&fixture_state(), Some(&fixture_model())).expect("encodes")
}

/// Every `f64` bit pattern a state holds outside its JSON skeleton.
fn run_bits(state: &WarperState) -> Vec<u64> {
    let mut bits = Vec::new();
    for r in state.pool.records() {
        bits.extend(r.features.iter().map(|v| v.to_bits()));
        bits.extend(r.z.iter().flatten().map(|v| v.to_bits()));
    }
    for (f, _) in &state.runtime.as_ref().expect("runtime").recent_eval {
        bits.extend(f.iter().map(|v| v.to_bits()));
    }
    bits
}

#[test]
fn golden_v4_snapshot_roundtrips_byte_for_byte() {
    assert!(FIXTURE.starts_with(b"WARPSNP4"));
    let (state, model) = decode_snapshot(FIXTURE).expect("fixture decodes");
    assert_eq!(state.version, 4);
    let sketch = state.sketch_baseline.as_ref().expect("baseline");
    assert_eq!(sketch.rows, 800);
    let model = model.expect("fixture carries a model");
    assert_eq!(model.name(), "LM-mlp");
    let q = [0.3; 4];
    assert_eq!(
        model.estimate(&q).to_bits(),
        fixture_model().estimate(&q).to_bits()
    );
    assert_eq!(run_bits(&state), run_bits(&fixture_state()));

    // Decode → encode reproduces the committed bytes, and so does encoding
    // the fixture's source: nothing is lost and nothing depends on the run.
    let again = encode_snapshot(&state, Some(model.as_ref())).expect("re-encodes");
    assert!(again == FIXTURE, "decode → encode changed the bytes");
    assert!(
        fixture_bytes() == FIXTURE,
        "fixture is stale; regenerate with `cargo test -p warper-durable --test snapshot_format -- --ignored`"
    );
}

#[test]
#[ignore = "regenerates the committed fixture; run by hand after a format bump"]
fn regenerate_golden_v4_fixture() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/snapshot_v4.bin"
    );
    std::fs::write(path, fixture_bytes()).expect("write fixture");
}

/// A finite `f64` with the awkward ones over-represented: both zeros,
/// subnormals, the extremes, and arbitrary bit patterns.
fn awkward_f64((kind, bits): (u8, u64)) -> f64 {
    const MANTISSA: u64 = 0x000F_FFFF_FFFF_FFFF;
    match kind {
        0 => -0.0,
        1 => 0.0,
        2 => f64::from_bits(bits & MANTISSA), // positive subnormal
        3 => f64::from_bits(bits & MANTISSA | (1 << 63)), // negative subnormal
        4 => f64::MAX,
        5 => f64::MIN_POSITIVE,
        _ => Some(f64::from_bits(bits))
            .filter(|v| v.is_finite())
            .unwrap_or(-0.0),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Encode → decode is bit-exact for every run, `-0.0` and subnormals
    /// included (JSON text would keep them too, but through a decimal
    /// detour; here they are the stored bytes).
    #[test]
    fn encode_decode_is_bit_exact(
        raw in prop::collection::vec((0u8..8, 0u64..=u64::MAX), 8..64usize),
    ) {
        let values: Vec<f64> = raw.into_iter().map(awkward_f64).collect();
        let mut state = fixture_state();
        for (i, chunk) in values.chunks_exact(4).enumerate() {
            state.pool.append_new(&[(chunk.to_vec(), Some(i as f64))]);
            let runtime = state.runtime.as_mut().expect("runtime");
            runtime.recent_eval.push((chunk.to_vec(), 1.0 + i as f64));
        }
        let bytes = encode_snapshot(&state, None).expect("encodes");
        prop_assert!(bytes == encode_snapshot(&state, None).expect("encodes"), "deterministic");
        let (back, model) = decode_snapshot(&bytes).expect("decodes");
        prop_assert!(model.is_none());
        prop_assert_eq!(run_bits(&back), run_bits(&state));
        prop_assert!(encode_snapshot(&back, None).expect("re-encodes") == bytes);
    }

    /// Truncated, bit-flipped and overwritten images under the new magic are
    /// refused or (where the damage misses every checked byte) decoded —
    /// never a panic.
    #[test]
    fn damaged_images_never_panic(
        cut in 0usize..20_000,
        flip in 0usize..20_000,
        bit in 0u8..8,
        garbage in prop::collection::vec(0u8..=255, 0..64usize),
    ) {
        let good = FIXTURE;
        let _ = decode_snapshot(&good[..cut.min(good.len())]);
        let mut flipped = good.to_vec();
        let at = flip % flipped.len();
        flipped[at] ^= 1 << bit;
        let _ = decode_snapshot(&flipped);
        let mut random = b"WARPSNP4".to_vec();
        random.extend_from_slice(&garbage);
        prop_assert!(decode_snapshot(&random).is_err());
        // The same garbage as a checksum-valid frame reaches the payload
        // decoder itself.
        let mut framed = b"WARPSNP4".to_vec();
        framed.extend_from_slice(&encode_frame(&garbage));
        prop_assert!(decode_snapshot(&framed).is_err());
    }
}

/// An unknown key whose value nests deeper than any real record must be an
/// error, not a stack overflow: a shipped WAL frame is outside input.
#[test]
fn deeply_nested_unknown_value_is_an_error_not_a_stack_overflow() {
    let mut json = String::from("{\"Label\":{\"features\":[],\"gt\":1,\"arrival\":true,\"x\":");
    json.push_str(&"[".repeat(200_000));
    json.push_str(&"]".repeat(200_000));
    json.push_str("}}");
    assert!(validate_wal_frame(&encode_frame(json.as_bytes())).is_err());
}
