//! Golden-fixture tests for the monitor checkpoint format.
//!
//! The files under `tests/fixtures/` are checkpoints written by the
//! code as it was when the format was introduced (or last versioned).
//! They are **committed bytes**: these tests prove that today's code
//! still loads yesterday's checkpoints and resumes them onto the same
//! bit-identical finish. A failure here means the on-disk format
//! changed without a version bump — bump the payload version and add a
//! new fixture instead of regenerating the old one.
//! `monitor_exact_v1.ckpt` holds the canonical session as the MASS
//! engine wrote it (payload version 1); it pins that such checkpoints
//! fail with a typed error.
//!
//! To (re)generate `monitor_exact_v2.ckpt` after an intentional format
//! change:
//!
//! ```text
//! cargo test -p egi-discord --test golden_checkpoints -- --ignored
//! ```

use egi_discord::stomp::stomp_with_exclusion;
use egi_discord::streaming::{Checkpoint, CheckpointError, StreamingDiscordMonitor};
use egi_testkit::PointGen;
use std::path::PathBuf;

const M: usize = 6;
const EXC: usize = 3;
const SEED: u64 = 41;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// The canonical mid-stream session the fixtures were saved from:
/// 80 points appended in uneven chunks, 12 evicted, partial progress.
/// Returns the monitor exactly at the checkpoint cut.
fn canonical_monitor() -> StreamingDiscordMonitor {
    let gen = PointGen::discord();
    let mut monitor = StreamingDiscordMonitor::with_seed(M, EXC, SEED);
    monitor.append(&gen.slice(0..30));
    monitor.run_for(9);
    monitor.append(&gen.slice(30..47));
    monitor.evict(12).unwrap();
    monitor.run_for(4);
    monitor.append(&gen.slice(47..80));
    monitor
}

#[test]
fn golden_exact_checkpoint_still_loads() {
    let bytes = std::fs::read(fixture_path("monitor_exact_v2.ckpt"))
        .expect("fixture missing — run the ignored regen test and commit the file");
    let mut restored = StreamingDiscordMonitor::from_checkpoint_bytes(&bytes)
        .expect("golden exact checkpoint no longer loads: format broke without a version bump");
    assert_eq!(restored.series_len(), 68);
    assert_eq!(restored.stream_offset(), 12);
    // The remaining schedule is empty, so any restore of the canonical
    // session finishes on the batch profile of the surviving suffix
    // `12..80`, as the uninterrupted session does.
    let finished = restored.finish();
    let expected = canonical_monitor().finish();
    assert_eq!(finished.profile, expected.profile);
    assert_eq!(finished.index, expected.index);
    let reference = stomp_with_exclusion(&PointGen::discord().slice(12..80), M, EXC);
    assert_eq!(finished.profile, reference.profile);
    assert_eq!(finished.index, reference.index);
}

/// The loader keeps every field it reads: saving the restored golden
/// session reproduces the committed bytes exactly.
#[test]
fn golden_exact_checkpoint_reencodes_byte_for_byte() {
    let committed = std::fs::read(fixture_path("monitor_exact_v2.ckpt"))
        .expect("fixture missing — run the ignored regen test and commit the file");
    let restored = StreamingDiscordMonitor::from_checkpoint_bytes(&committed).unwrap();
    assert_eq!(
        restored.checkpoint_bytes().unwrap(),
        committed,
        "monitor_exact_v2.ckpt: load then save changed the bytes"
    );
}

/// The canonical session as the MASS engine wrote it (monitor payload
/// version 1) fails with the typed version error instead of restoring
/// onto a kernel whose state it does not describe.
#[test]
fn golden_v1_checkpoint_is_rejected_by_its_version() {
    let bytes = std::fs::read(fixture_path("monitor_exact_v1.ckpt"))
        .expect("fixture missing: it is committed and never regenerated");
    match StreamingDiscordMonitor::from_checkpoint_bytes(&bytes) {
        Err(CheckpointError::UnsupportedSection {
            found: 1,
            supported: 2,
            ..
        }) => {}
        Err(other) => panic!("expected UnsupportedSection, got {other:?}"),
        Ok(_) => panic!("a version 1 checkpoint must not restore"),
    }
}

/// The writer side is still byte-deterministic: saving the canonical
/// session today produces exactly the committed fixture. This is a
/// stronger pin than load-compatibility — it will flag *any* encoding
/// change, which is the early warning to bump a payload version.
#[test]
fn canonical_checkpoint_bytes_are_stable() {
    let committed = std::fs::read(fixture_path("monitor_exact_v2.ckpt"))
        .expect("fixture missing — run the ignored regen test and commit the file");
    let fresh = canonical_monitor().checkpoint_bytes().unwrap();
    assert_eq!(
        fresh, committed,
        "monitor_exact_v2.ckpt: today's encoder no longer reproduces the committed bytes"
    );
}

#[test]
#[ignore = "regenerates the committed fixture; run only after an intentional format change"]
fn regenerate_golden_fixtures() {
    std::fs::create_dir_all(fixture_path("")).unwrap();
    let bytes = canonical_monitor().checkpoint_bytes().unwrap();
    std::fs::write(fixture_path("monitor_exact_v2.ckpt"), &bytes).unwrap();
}
