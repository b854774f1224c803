//! Golden-fixture tests for the ensemble-detector checkpoint format.
//!
//! `tests/fixtures/ensemble_detector_v2.ckpt` holds committed bytes
//! written when detector payload v2 was introduced; these tests prove
//! today's code still loads them, resumes onto the same bit-identical
//! report, and re-encodes them byte for byte. A failure means the
//! on-disk format changed without a version bump: bump the payload
//! version and add a new fixture instead of regenerating this one.
//! `ensemble_v3.ckpt` was written with detector payload v1, which held
//! the removed `parallel` configuration flag; it pins that such
//! checkpoints fail with a typed error.
//!
//! Regenerate `ensemble_detector_v2.ckpt` after an intentional format
//! change with:
//!
//! ```text
//! cargo test -p egi-core --test golden_checkpoints -- --ignored
//! ```

use egi_core::streaming::{Checkpoint, CheckpointError};
use egi_core::{EnsembleConfig, EnsembleDetector, StreamingEnsembleDetector};
use egi_testkit::PointGen;
use std::path::PathBuf;

const SEED: u64 = 17;
const FIXTURE: &str = "ensemble_detector_v2.ckpt";

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn canonical_config() -> EnsembleConfig {
    EnsembleConfig {
        window: 12,
        ensemble_size: 4,
        ..EnsembleConfig::default()
    }
}

/// The canonical mid-stream session: 120 points in uneven chunks,
/// 15 evicted, partial incremental progress.
fn canonical_detector() -> StreamingEnsembleDetector {
    let gen = PointGen::ensemble();
    let mut detector = StreamingEnsembleDetector::new(canonical_config(), SEED);
    detector.append(&gen.slice(0..50));
    detector.run_for(2);
    detector.append(&gen.slice(50..75));
    detector.evict(15).unwrap();
    detector.run_for(3);
    detector.append(&gen.slice(75..120));
    detector
}

fn committed() -> Vec<u8> {
    std::fs::read(fixture_path(FIXTURE))
        .expect("fixture missing — run the ignored regen test and commit the file")
}

#[test]
fn golden_ensemble_checkpoint_still_loads() {
    let gen = PointGen::ensemble();
    let mut restored = StreamingEnsembleDetector::from_checkpoint_bytes(&committed())
        .expect("golden ensemble checkpoint no longer loads: format broke without a version bump");
    assert_eq!(restored.series_len(), 105);
    assert_eq!(restored.stream_offset(), 15);
    let report = restored.finish(3);
    // Same as the session it was saved from, and transitively the
    // batch report over the surviving suffix 15..120.
    assert_eq!(report, canonical_detector().finish(3));
    let batch = EnsembleDetector::new(canonical_config()).detect(&gen.slice(15..120), 3, SEED);
    assert_eq!(report, batch);
}

/// Loading keeps every field of the detector and of each member:
/// saving the restored golden session reproduces the committed bytes.
#[test]
fn golden_ensemble_checkpoint_reencodes_byte_for_byte() {
    let committed = committed();
    let restored = StreamingEnsembleDetector::from_checkpoint_bytes(&committed).unwrap();
    assert_eq!(
        restored.checkpoint_bytes().unwrap(),
        committed,
        "load then save changed the bytes"
    );
}

/// The writer side is still byte-deterministic: saving the canonical
/// session today reproduces the committed fixture exactly.
#[test]
fn canonical_checkpoint_bytes_are_stable() {
    let fresh = canonical_detector().checkpoint_bytes().unwrap();
    assert_eq!(
        fresh,
        committed(),
        "today's encoder no longer reproduces the committed bytes"
    );
}

/// A detector payload v1 checkpoint fails with a typed error instead
/// of misreading its `parallel` flag as the seed's first byte.
#[test]
fn golden_v1_detector_checkpoint_is_rejected() {
    let bytes = std::fs::read(fixture_path("ensemble_v3.ckpt"))
        .expect("fixture missing: it is committed and never regenerated");
    match StreamingEnsembleDetector::from_checkpoint_bytes(&bytes) {
        Err(CheckpointError::UnsupportedSection {
            tag,
            found,
            supported,
        }) => {
            assert_eq!(tag, u32::from_le_bytes(*b"ENS1"));
            assert_eq!((found, supported), (1, 2));
        }
        Err(other) => panic!("expected UnsupportedSection, got {other:?}"),
        Ok(_) => panic!("a detector payload v1 checkpoint must not restore"),
    }
}

#[test]
#[ignore = "regenerates the committed fixture; run only after an intentional format change"]
fn regenerate_golden_fixtures() {
    std::fs::create_dir_all(fixture_path("")).unwrap();
    let bytes = canonical_detector().checkpoint_bytes().unwrap();
    std::fs::write(fixture_path(FIXTURE), &bytes).unwrap();
}
