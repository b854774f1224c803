//! Golden-fixture test for the fleet checkpoint format.
//!
//! `tests/fixtures/fleet_v1.ckpt` holds committed bytes — a
//! three-stream fleet with staggered progress, an undrained inbox, and
//! a rotated fair-share queue — written when the nested monitor
//! payload went to version 2. This proves today's code still loads them
//! and resumes onto the same bit-identical per-stream profiles. A
//! failure means the on-disk format (outer framing or the nested
//! per-session containers) changed without a version bump.
//! `tests/fixtures/fleet_v1_monitor_v1.ckpt` is the same canonical
//! fleet as written when its monitors held payload version 1; it pins
//! that such a fleet fails to load with a typed error.
//!
//! Regenerate after an intentional format change with:
//!
//! ```text
//! cargo test -p egi-serve --test golden_checkpoints -- --ignored
//! ```

use egi_discord::streaming::StreamingDiscordMonitor;
use egi_serve::fleet::{Checkpoint, CheckpointError};
use egi_serve::Fleet;
use egi_testkit::PointGen;
use egi_tskit::Deadline;
use std::path::PathBuf;

const M: usize = 5;
const EXC: usize = 2;
const SEED: u64 = 7;
const STREAMS: u64 = 3;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// The canonical mid-schedule fleet: three streams with different
/// lengths, one partial refresh (so the rotation is mid-cycle), one
/// eviction, and one stream holding an undrained inbox.
fn canonical_fleet() -> Fleet<StreamingDiscordMonitor> {
    let mut fleet: Fleet<StreamingDiscordMonitor> = Fleet::new();
    for id in 0..STREAMS {
        fleet
            .create(id, StreamingDiscordMonitor::with_seed(M, EXC, SEED))
            .unwrap();
        let gen = PointGen::fleet(id);
        fleet
            .append_to(id, &gen.slice(0..30 + 5 * id as usize))
            .unwrap();
    }
    fleet.refresh(Deadline::queries(7));
    fleet.evict_from(1, 9).unwrap();
    fleet.ingest(2, &PointGen::fleet(2).slice(40..46)).unwrap();
    fleet
}

#[test]
fn golden_fleet_checkpoint_still_loads() {
    let bytes = std::fs::read(fixture_path("fleet_v1.ckpt"))
        .expect("fixture missing — run the ignored regen test and commit the file");
    let mut restored = Fleet::<StreamingDiscordMonitor>::from_checkpoint_bytes(&bytes)
        .expect("golden fleet checkpoint no longer loads: format broke without a version bump");
    assert_eq!(restored.len(), STREAMS as usize);
    assert_eq!(restored.buffered_for(2).unwrap(), 6);
    let reports = restored.finish_all();
    let expected = canonical_fleet().finish_all();
    assert_eq!(reports.len(), expected.len());
    for ((id_a, fin_a), (id_b, fin_b)) in reports.iter().zip(&expected) {
        assert_eq!(id_a, id_b);
        assert_eq!(fin_a.profile, fin_b.profile, "stream {id_a} profile");
        assert_eq!(fin_a.index, fin_b.index, "stream {id_a} index");
    }
}

/// A fleet whose monitors were saved at payload version 1 fails with
/// the nested monitor's typed version error, not a panic.
#[test]
fn golden_fleet_with_version_1_monitors_is_rejected() {
    let bytes = std::fs::read(fixture_path("fleet_v1_monitor_v1.ckpt"))
        .expect("fixture missing: it is committed and never regenerated");
    match Fleet::<StreamingDiscordMonitor>::from_checkpoint_bytes(&bytes) {
        Err(CheckpointError::UnsupportedSection {
            found: 1,
            supported: 2,
            ..
        }) => {}
        Err(other) => panic!("expected UnsupportedSection, got {other:?}"),
        Ok(_) => panic!("a fleet of version 1 monitors must not restore"),
    }
}

/// Loading keeps every field of the fleet and of each nested monitor:
/// saving the restored golden fleet reproduces the committed bytes.
#[test]
fn golden_fleet_checkpoint_reencodes_byte_for_byte() {
    let committed = std::fs::read(fixture_path("fleet_v1.ckpt"))
        .expect("fixture missing — run the ignored regen test and commit the file");
    let restored = Fleet::<StreamingDiscordMonitor>::from_checkpoint_bytes(&committed).unwrap();
    assert_eq!(
        restored.checkpoint_bytes().unwrap(),
        committed,
        "load then save changed the bytes"
    );
}

/// The writer side is still byte-deterministic: saving the canonical
/// fleet today reproduces the committed fixture exactly.
#[test]
fn canonical_checkpoint_bytes_are_stable() {
    let committed = std::fs::read(fixture_path("fleet_v1.ckpt"))
        .expect("fixture missing — run the ignored regen test and commit the file");
    let fresh = canonical_fleet().checkpoint_bytes().unwrap();
    assert_eq!(
        fresh, committed,
        "today's encoder no longer reproduces the committed bytes"
    );
}

#[test]
#[ignore = "regenerates the committed fixture; run only after an intentional format change"]
fn regenerate_golden_fixtures() {
    std::fs::create_dir_all(fixture_path("")).unwrap();
    let bytes = canonical_fleet().checkpoint_bytes().unwrap();
    std::fs::write(fixture_path("fleet_v1.ckpt"), &bytes).unwrap();
}
