//! Property harness for checkpoint/restore on the streaming ensemble
//! detector (the PR 8 persistence contract).
//!
//! * **Round-trip at every prefix.** For random append/evict/step
//!   schedules, seeds, and member counts, a checkpoint taken after
//!   every prefix of the schedule, restored, and driven through the
//!   remaining ops must `finish()` **bit-identical** to the
//!   uninterrupted run — which the eviction harness already pins to
//!   batch detect over the surviving suffix.
//!
//! * **Corruption is loud.** Truncation at every section boundary is a
//!   typed [`CheckpointError`]; a bit flip is a typed error or an
//!   observationally-identical session — never a panic, never a
//!   silently-wrong detector.

use egi_core::streaming::{Checkpoint, CheckpointError};
use egi_core::{EnsembleConfig, StreamingEnsembleDetector};
use egi_testkit::{choose_evict, decode_op, PointGen, ScheduleOp, ShadowSuffix};
use egi_tskit::checkpoint::list_sections;
use proptest::prelude::*;

fn config(window: usize, members: usize) -> EnsembleConfig {
    EnsembleConfig {
        window,
        ensemble_size: members,
        ..EnsembleConfig::default()
    }
}

/// Applies one decoded schedule step (the grammar pipeline steps in
/// member-sized budget units, so `Run` is taken modulo `members + 1`
/// exactly as in the eviction harness).
fn drive(
    detector: &mut StreamingEnsembleDetector,
    shadow: &mut ShadowSuffix,
    gen: &PointGen,
    window: usize,
    members: usize,
    op: ScheduleOp,
) {
    match op {
        ScheduleOp::Append(n) => {
            let chunk = shadow.next_chunk(gen, n);
            detector.append(&chunk);
        }
        ScheduleOp::Evict(amount) => {
            let c = choose_evict(detector.series_len(), window, amount);
            detector.evict(c).unwrap();
            shadow.evict(c);
        }
        ScheduleOp::Run(budget) => {
            detector.run_for(budget % (members + 1));
        }
    }
}

/// Drives a fresh detector through `ops[..upto]`.
fn replay_prefix(
    window: usize,
    members: usize,
    seed: u64,
    gen: &PointGen,
    ops: &[ScheduleOp],
    upto: usize,
) -> (StreamingEnsembleDetector, ShadowSuffix) {
    let mut detector = StreamingEnsembleDetector::new(config(window, members), seed);
    let mut shadow = ShadowSuffix::new();
    for &op in &ops[..upto] {
        drive(&mut detector, &mut shadow, gen, window, members, op);
    }
    (detector, shadow)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Checkpoint-at-any-point: for every prefix of a random schedule,
    /// save → restore → replay the rest finishes bit-identical to the
    /// uninterrupted run.
    #[test]
    fn checkpoint_at_every_prefix_finishes_bit_identical(
        window in 8usize..16,
        members in 3usize..7,
        seed in 0u64..1_000_000_000,
        raw_ops in prop::collection::vec((0usize..10, 1usize..40), 2..7),
    ) {
        let gen = PointGen::ensemble();
        let ops: Vec<ScheduleOp> =
            raw_ops.iter().map(|&(k, a)| decode_op(k, a)).collect();

        let (mut oracle, _) =
            replay_prefix(window, members, seed, &gen, &ops, ops.len());
        let expected = oracle.finish(3);

        for cut in 0..=ops.len() {
            let (prefix_detector, prefix_shadow) =
                replay_prefix(window, members, seed, &gen, &ops, cut);
            let bytes = prefix_detector.checkpoint_bytes().unwrap();
            let mut restored =
                StreamingEnsembleDetector::from_checkpoint_bytes(&bytes).unwrap();
            prop_assert_eq!(restored.series_len(), prefix_detector.series_len());
            prop_assert_eq!(restored.stream_offset(), prefix_detector.stream_offset());
            let mut resumed = prefix_shadow;
            for &op in &ops[cut..] {
                drive(&mut restored, &mut resumed, &gen, window, members, op);
            }
            let finished = restored.finish(3);
            prop_assert_eq!(&finished, &expected,
                "report diverged after restore at prefix {}", cut);
        }
    }

    /// Restore rebuilds the session rather than decoding it, yet lands
    /// on the saved state: at every prefix the restored detector serves
    /// the same snapshot, queues the same members, and checkpoints back
    /// to the very bytes it was loaded from.
    #[test]
    fn restore_is_a_fixed_point_of_checkpointing(
        window in 8usize..16,
        members in 3usize..7,
        seed in 0u64..1_000_000_000,
        raw_ops in prop::collection::vec((0usize..10, 1usize..40), 2..7),
    ) {
        let gen = PointGen::ensemble();
        let ops: Vec<ScheduleOp> =
            raw_ops.iter().map(|&(k, a)| decode_op(k, a)).collect();
        let mut detector = StreamingEnsembleDetector::new(config(window, members), seed);
        let mut shadow = ShadowSuffix::new();
        for (cut, &op) in ops.iter().enumerate() {
            drive(&mut detector, &mut shadow, &gen, window, members, op);
            let bytes = detector.checkpoint_bytes().unwrap();
            let restored = StreamingEnsembleDetector::from_checkpoint_bytes(&bytes).unwrap();
            prop_assert_eq!(restored.pending_members(), detector.pending_members(),
                "queue differs after op {}", cut);
            prop_assert_eq!(restored.snapshot(), detector.snapshot(),
                "snapshot differs after op {}", cut);
            prop_assert!(restored.checkpoint_bytes().unwrap() == bytes,
                "restored session re-saved different bytes after op {}", cut);
        }
    }

    /// Truncation at every section boundary is a typed error; a bit
    /// flip is a typed error or an identical session — never a panic.
    #[test]
    fn corrupted_checkpoints_fail_loud_never_wrong(
        window in 8usize..16,
        members in 3usize..7,
        seed in 0u64..1_000_000_000,
        raw_ops in prop::collection::vec((0usize..10, 1usize..40), 2..6),
        flip_picks in prop::collection::vec((0usize..1 << 20, 0u8..8), 1..10),
    ) {
        let gen = PointGen::ensemble();
        let ops: Vec<ScheduleOp> =
            raw_ops.iter().map(|&(k, a)| decode_op(k, a)).collect();
        let (detector, _) =
            replay_prefix(window, members, seed, &gen, &ops, ops.len());
        let bytes = detector.checkpoint_bytes().unwrap();
        let expected = StreamingEnsembleDetector::from_checkpoint_bytes(&bytes)
            .unwrap()
            .finish(3);

        let sections = list_sections(&bytes).unwrap();
        let mut cuts: Vec<usize> = (0..=16).collect();
        for s in &sections {
            for at in [s.start, s.payload_start, s.end] {
                cuts.extend([at.saturating_sub(1), at, at + 1]);
            }
        }
        for cut in cuts {
            if cut >= bytes.len() {
                continue;
            }
            prop_assert!(
                StreamingEnsembleDetector::from_checkpoint_bytes(&bytes[..cut]).is_err(),
                "truncation to {} of {} bytes loaded successfully", cut, bytes.len()
            );
        }

        for &(pos, bit) in &flip_picks {
            let pos = pos % bytes.len();
            let mut bad = bytes.clone();
            bad[pos] ^= 1 << bit;
            match StreamingEnsembleDetector::from_checkpoint_bytes(&bad) {
                Err(_) => {}
                Ok(mut restored) => {
                    let finished = restored.finish(3);
                    prop_assert_eq!(&finished, &expected,
                        "flip at byte {} bit {} restored a different session", pos, bit);
                }
            }
        }

        let mut bad_magic = bytes.clone();
        bad_magic[3] ^= 0x20;
        prop_assert!(matches!(
            StreamingEnsembleDetector::from_checkpoint_bytes(&bad_magic),
            Err(CheckpointError::BadMagic)
        ));
        let mut bad_version = bytes.clone();
        bad_version[8..12].copy_from_slice(&7u32.to_le_bytes());
        prop_assert!(matches!(
            StreamingEnsembleDetector::from_checkpoint_bytes(&bad_version),
            Err(CheckpointError::UnsupportedFormat { found: 7, .. })
        ));
    }

    /// v1 and v2 member payloads encode the pipeline state (token
    /// sequence, interning table, grammar slab) that v3 replays from
    /// the series instead, and cannot be reinterpreted; downgrading any
    /// member section's version to either must be a typed
    /// [`CheckpointError::UnsupportedSection`], never a misparse.
    #[test]
    fn v1_member_sections_are_rejected_with_a_typed_error(
        window in 8usize..16,
        members in 3usize..7,
        seed in 0u64..1_000_000_000,
        raw_ops in prop::collection::vec((0usize..10, 1usize..40), 2..6),
    ) {
        const MEMBER_TAG: u32 = u32::from_le_bytes(*b"MEM1");
        let gen = PointGen::ensemble();
        let ops: Vec<ScheduleOp> =
            raw_ops.iter().map(|&(k, a)| decode_op(k, a)).collect();
        let (detector, _) =
            replay_prefix(window, members, seed, &gen, &ops, ops.len());
        let bytes = detector.checkpoint_bytes().unwrap();
        let member_sections: Vec<_> = list_sections(&bytes)
            .unwrap()
            .into_iter()
            .filter(|s| s.tag == MEMBER_TAG)
            .collect();
        prop_assert_eq!(member_sections.len(), members);
        for s in &member_sections {
            prop_assert_eq!(s.payload_version, 3);
            for old in [1u32, 2] {
                // The payload version lives right after the 4-byte tag;
                // the checksum covers only the payload, so this is a
                // clean format downgrade, not corruption.
                let mut downgraded = bytes.clone();
                downgraded[s.start + 4..s.start + 8].copy_from_slice(&old.to_le_bytes());
                match StreamingEnsembleDetector::from_checkpoint_bytes(&downgraded) {
                    Err(CheckpointError::UnsupportedSection { tag, found, supported }) => {
                        prop_assert_eq!(tag, MEMBER_TAG);
                        prop_assert_eq!(found, old);
                        prop_assert_eq!(supported, 3);
                    }
                    other => prop_assert!(false,
                        "v{} member section produced {:?} instead of UnsupportedSection",
                        old, other.map(|_| "a loaded detector")),
                }
            }
        }
    }
}
