//! Golden-fixture test for the ensemble-detector checkpoint format.
//!
//! `tests/fixtures/ensemble_v3.ckpt` holds committed bytes written
//! when the format was introduced; this proves today's code still
//! loads them and resumes onto the same bit-identical report. A
//! failure means the on-disk format changed without a version bump.
//!
//! Regenerate after an intentional format change with:
//!
//! ```text
//! cargo test -p egi-core --test golden_checkpoints -- --ignored
//! ```

use egi_core::streaming::Checkpoint;
use egi_core::{EnsembleConfig, EnsembleDetector, StreamingEnsembleDetector};
use egi_testkit::PointGen;
use std::path::PathBuf;

const SEED: u64 = 17;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn canonical_config() -> EnsembleConfig {
    EnsembleConfig {
        window: 12,
        ensemble_size: 4,
        parallel: false,
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

#[test]
fn golden_ensemble_checkpoint_still_loads() {
    let gen = PointGen::ensemble();
    let bytes = std::fs::read(fixture_path("ensemble_v3.ckpt"))
        .expect("fixture missing — run the ignored regen test and commit the file");
    let mut restored = StreamingEnsembleDetector::from_checkpoint_bytes(&bytes)
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

/// The writer side is still byte-deterministic: saving the canonical
/// session today reproduces the committed fixture exactly.
#[test]
fn canonical_checkpoint_bytes_are_stable() {
    let committed = std::fs::read(fixture_path("ensemble_v3.ckpt"))
        .expect("fixture missing — run the ignored regen test and commit the file");
    let fresh = canonical_detector().checkpoint_bytes().unwrap();
    assert_eq!(
        fresh, committed,
        "today's encoder no longer reproduces the committed bytes"
    );
}

#[test]
#[ignore = "regenerates the committed fixture; run only after an intentional format change"]
fn regenerate_golden_fixtures() {
    std::fs::create_dir_all(fixture_path("")).unwrap();
    let bytes = canonical_detector().checkpoint_bytes().unwrap();
    std::fs::write(fixture_path("ensemble_v3.ckpt"), &bytes).unwrap();
}
