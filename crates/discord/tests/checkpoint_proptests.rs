//! Property harness for checkpoint/restore on the streaming discord
//! monitor (the PR 8 persistence contract).
//!
//! Two families of properties:
//!
//! * **Round-trip at every prefix.** For random append/evict/step
//!   schedules, a checkpoint taken after every prefix of the schedule,
//!   restored, and driven through the remaining ops must `finish()`
//!   **bit-identical** to the uninterrupted run — persistence is
//!   observationally invisible at any cut point.
//!
//! * **Corruption is loud.** Truncating the checkpoint at (and around)
//!   every section boundary must return a typed [`CheckpointError`],
//!   and flipping any bit must either return a typed error or restore a
//!   session whose `finish()` is still bit-identical — never a panic,
//!   never a silently-wrong session.
//!
//! A third family edits checkpoints field by field through
//! [`MonitorFields`], an outside decoder of the MON1 v2 layout:
//! re-encoding what it decodes reproduces the bytes, any order of the
//! pending diagonals finishes bit-identical, and a checksum-valid
//! payload that no monitor writes (a non-finite point, progress past a
//! diagonal's length, a queue that misses, repeats or adds a diagonal)
//! loads as [`CheckpointError::Corrupt`].

use egi_discord::stomp::stomp_with_exclusion;
use egi_discord::streaming::{
    pseudo_random_order, Checkpoint, CheckpointError, StreamingDiscordMonitor,
};
use egi_testkit::{choose_evict, decode_op, PointGen, ScheduleOp, ShadowSuffix};
use egi_tskit::checkpoint::{
    list_sections, CheckpointReader, CheckpointWriter, FieldReader, FieldWriter,
};
use proptest::prelude::*;

/// Applies one decoded schedule step to a monitor, advancing the shadow
/// cursor. Eviction amounts are narrowed to valid cuts from the live
/// length, so replaying the same ops against equal state is
/// deterministic.
fn drive(
    monitor: &mut StreamingDiscordMonitor,
    shadow: &mut ShadowSuffix,
    gen: &PointGen,
    m: usize,
    op: ScheduleOp,
) {
    match op {
        ScheduleOp::Append(n) => {
            let chunk = shadow.next_chunk(gen, n);
            monitor.append(&chunk);
        }
        ScheduleOp::Evict(amount) => {
            let c = choose_evict(monitor.series_len(), m, amount);
            monitor.evict(c).unwrap();
            shadow.evict(c);
        }
        ScheduleOp::Run(budget) => {
            monitor.run_for(budget);
        }
    }
}

/// Drives a fresh monitor through `ops[..upto]` and returns it with its
/// shadow cursor.
fn replay_prefix(
    m: usize,
    seed: u64,
    gen: &PointGen,
    ops: &[ScheduleOp],
    upto: usize,
) -> (StreamingDiscordMonitor, ShadowSuffix) {
    let exc = m / 2;
    let mut monitor = StreamingDiscordMonitor::with_seed(m, exc, seed);
    let mut shadow = ShadowSuffix::new();
    for &op in &ops[..upto] {
        drive(&mut monitor, &mut shadow, gen, m, op);
    }
    (monitor, shadow)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The tentpole acceptance property: checkpoint-at-any-point. For
    /// every prefix of a random schedule, save → restore → replay the
    /// rest must finish bit-identical to the uninterrupted run.
    #[test]
    fn checkpoint_at_every_prefix_finishes_bit_identical(
        m in 4usize..10,
        seed in 0u64..1_000_000_000,
        raw_ops in prop::collection::vec((0usize..10, 1usize..33), 2..8),
    ) {
        let gen = PointGen::discord();
        let ops: Vec<ScheduleOp> =
            raw_ops.iter().map(|&(k, a)| decode_op(k, a)).collect();

        // The uninterrupted run is the oracle.
        let (mut oracle, shadow) =
            replay_prefix(m, seed, &gen, &ops, ops.len());
        let expected = oracle.finish();
        prop_assert_eq!(oracle.series_len(), shadow.live());

        for cut in 0..=ops.len() {
            let (prefix_monitor, _) =
                replay_prefix(m, seed, &gen, &ops, cut);
            let bytes = prefix_monitor.checkpoint_bytes().unwrap();
            let mut restored =
                StreamingDiscordMonitor::from_checkpoint_bytes(&bytes).unwrap();
            // The restored session is indistinguishable from the one it
            // was saved from…
            prop_assert_eq!(restored.series_len(), prefix_monitor.series_len());
            prop_assert_eq!(restored.stream_offset(), prefix_monitor.stream_offset());
            prop_assert_eq!(restored.processed(), prefix_monitor.processed());
            // …and replaying the remaining schedule lands on the
            // uninterrupted finish, bit for bit.
            let mut resumed = shadow_at(&gen, &restored);
            for &op in &ops[cut..] {
                drive(&mut restored, &mut resumed, &gen, m, op);
            }
            let finished = restored.finish();
            prop_assert_eq!(&finished.profile, &expected.profile,
                "profile diverged after restore at prefix {}", cut);
            prop_assert_eq!(&finished.index, &expected.index,
                "index diverged after restore at prefix {}", cut);
        }
    }

    /// Truncation at and around every section boundary is a typed
    /// error; any single bit flip is a typed error or an
    /// observationally-identical session — never a panic.
    #[test]
    fn corrupted_checkpoints_fail_loud_never_wrong(
        m in 4usize..10,
        seed in 0u64..1_000_000_000,
        raw_ops in prop::collection::vec((0usize..10, 1usize..33), 2..7),
        flip_picks in prop::collection::vec((0usize..4096, 0u8..8), 1..12),
    ) {
        let gen = PointGen::discord();
        let ops: Vec<ScheduleOp> =
            raw_ops.iter().map(|&(k, a)| decode_op(k, a)).collect();
        let (monitor, _) =
            replay_prefix(m, seed, &gen, &ops, ops.len());
        let bytes = monitor.checkpoint_bytes().unwrap();
        let expected = {
            let mut twin =
                StreamingDiscordMonitor::from_checkpoint_bytes(&bytes).unwrap();
            twin.finish()
        };

        // Truncation at every structural boundary (plus one byte to
        // either side) must surface as a typed error.
        let sections = list_sections(&bytes).unwrap();
        let mut cuts: Vec<usize> = (0..=16).collect(); // inside the header
        for s in &sections {
            for at in [s.start, s.payload_start, s.end] {
                cuts.extend([at.saturating_sub(1), at, at + 1]);
            }
        }
        for cut in cuts {
            if cut >= bytes.len() {
                continue;
            }
            let err = StreamingDiscordMonitor::from_checkpoint_bytes(&bytes[..cut]);
            prop_assert!(
                err.is_err(),
                "truncation to {} of {} bytes loaded successfully", cut, bytes.len()
            );
        }

        // Bit flips: typed error, or a session whose finish is still
        // bit-identical (flips in ignored framing slack may load).
        for &(pos, bit) in &flip_picks {
            let pos = pos % bytes.len();
            let mut bad = bytes.clone();
            bad[pos] ^= 1 << bit;
            match StreamingDiscordMonitor::from_checkpoint_bytes(&bad) {
                Err(_) => {}
                Ok(mut restored) => {
                    let finished = restored.finish();
                    prop_assert_eq!(&finished.profile, &expected.profile,
                        "flip at byte {} bit {} restored a different session", pos, bit);
                    prop_assert_eq!(&finished.index, &expected.index);
                }
            }
        }

        // Wrong magic and wrong container version are the dedicated
        // error variants, not Corrupt.
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        prop_assert!(matches!(
            StreamingDiscordMonitor::from_checkpoint_bytes(&bad_magic),
            Err(CheckpointError::BadMagic)
        ));
        let mut bad_version = bytes.clone();
        bad_version[8..12].copy_from_slice(&99u32.to_le_bytes());
        prop_assert!(matches!(
            StreamingDiscordMonitor::from_checkpoint_bytes(&bad_version),
            Err(CheckpointError::UnsupportedFormat { found: 99, .. })
        ));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The contract end to end: a random append/evict/step schedule
    /// with a save and restore after any step finishes, at any worker
    /// count from 1 to 8, bit-identical to the batch kernel over the
    /// surviving suffix.
    #[test]
    fn restored_schedules_finish_on_the_kernel_at_every_worker_count(
        m in 4usize..10,
        seed in 0u64..1_000_000_000,
        raw_ops in prop::collection::vec((0usize..10, 1usize..33, 0usize..3), 2..10),
        threads in 1usize..9,
    ) {
        let gen = PointGen::discord();
        let mut monitor = StreamingDiscordMonitor::with_seed(m, m / 2, seed);
        let mut shadow = ShadowSuffix::new();
        for &(kind, amount, restore) in &raw_ops {
            drive(&mut monitor, &mut shadow, &gen, m, decode_op(kind, amount));
            if restore == 0 {
                let bytes = monitor.checkpoint_bytes().unwrap();
                monitor = StreamingDiscordMonitor::from_checkpoint_bytes(&bytes).unwrap();
            }
        }
        let finished = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| monitor.finish());
        let suffix = shadow.suffix(&gen);
        if suffix.len() >= m {
            let reference = stomp_with_exclusion(&suffix, m, m / 2);
            prop_assert_eq!(&finished.profile, &reference.profile);
            prop_assert_eq!(&finished.index, &reference.index);
        } else {
            prop_assert!(finished.is_empty());
        }
    }
}

/// A shadow cursor consistent with a restored monitor: the restored
/// session knows its global offset and live length, which is all the
/// replay needs to keep generating the same stream.
fn shadow_at(_gen: &PointGen, monitor: &StreamingDiscordMonitor) -> ShadowSuffix {
    ShadowSuffix {
        appended: monitor.stream_offset() + monitor.series_len(),
        offset: monitor.stream_offset(),
    }
}

const MON1: u32 = u32::from_le_bytes(*b"MON1");

/// A monitor checkpoint decoded field by field through the public
/// container API: the one MON1 v2 section.
#[derive(Debug, Clone, PartialEq)]
struct MonitorFields {
    m: usize,
    exclusion: usize,
    seed: u64,
    epochs: u64,
    offset: usize,
    retention: Option<usize>,
    series: Vec<f64>,
    progress: Vec<usize>,
    pending: Vec<usize>,
    processed: usize,
}

impl MonitorFields {
    fn decode(bytes: &[u8]) -> Self {
        let mut input = bytes;
        let mut reader = CheckpointReader::begin(&mut input).unwrap();
        let (version, payload) = reader.section(MON1, 2).unwrap();
        assert_eq!((version, reader.sections_remaining()), (2, 0));
        let mut f = FieldReader::new(&payload);
        let fields = Self {
            m: f.usize().unwrap(),
            exclusion: f.usize().unwrap(),
            seed: f.u64().unwrap(),
            epochs: f.u64().unwrap(),
            offset: f.usize().unwrap(),
            retention: f.opt_usize().unwrap(),
            series: f.f64_vec().unwrap(),
            progress: f.usize_vec().unwrap(),
            pending: f.usize_vec().unwrap(),
            processed: f.usize().unwrap(),
        };
        f.finish().unwrap();
        fields
    }

    fn encode(&self) -> Vec<u8> {
        let mut bytes = Vec::new();
        let mut out = CheckpointWriter::begin(&mut bytes, 1).unwrap();
        let mut f = FieldWriter::new();
        f.usize(self.m);
        f.usize(self.exclusion);
        f.u64(self.seed);
        f.u64(self.epochs);
        f.usize(self.offset);
        f.opt_usize(self.retention);
        f.f64_slice(&self.series);
        f.usize_slice(&self.progress);
        f.usize_slice(&self.pending);
        f.usize(self.processed);
        out.section(MON1, 2, &f.into_bytes()).unwrap();
        bytes
    }

    /// The diagonal offset `k` of progress slot `d`.
    fn diagonal(&self, d: usize) -> usize {
        self.exclusion + 1 + d
    }

    /// The cells of the diagonal at progress slot `d`.
    fn cells(&self, d: usize) -> usize {
        self.series.len() + 1 - self.m - self.diagonal(d)
    }

    fn loads_as_corrupt(&self) -> bool {
        matches!(
            StreamingDiscordMonitor::from_checkpoint_bytes(&self.encode()),
            Err(CheckpointError::Corrupt(_))
        )
    }
}

/// Replays a random schedule, then tops the stream up to at least
/// `2m` live points so the saved state always holds diagonals.
fn monitor_with_windows(
    m: usize,
    seed: u64,
    raw_ops: &[(usize, usize)],
) -> StreamingDiscordMonitor {
    let gen = PointGen::discord();
    let ops: Vec<ScheduleOp> = raw_ops.iter().map(|&(k, a)| decode_op(k, a)).collect();
    let (mut monitor, mut shadow) = replay_prefix(m, seed, &gen, &ops, ops.len());
    if shadow.live() < 2 * m {
        let chunk = shadow.next_chunk(&gen, 2 * m - shadow.live());
        monitor.append(&chunk);
    }
    monitor
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The outside decoder reads exactly what the monitor holds, and
    /// writing it back reproduces the checkpoint byte for byte.
    #[test]
    fn decoded_fields_reencode_to_the_same_bytes(
        m in 4usize..10,
        seed in 0u64..1_000_000_000,
        raw_ops in prop::collection::vec((0usize..10, 1usize..33), 1..8),
    ) {
        let gen = PointGen::discord();
        let ops: Vec<ScheduleOp> =
            raw_ops.iter().map(|&(k, a)| decode_op(k, a)).collect();
        let (monitor, _) = replay_prefix(m, seed, &gen, &ops, ops.len());
        let bytes = monitor.checkpoint_bytes().unwrap();
        let fields = MonitorFields::decode(&bytes);
        prop_assert_eq!(fields.encode(), bytes);
        prop_assert_eq!((fields.m, fields.exclusion, fields.seed), (m, m / 2, seed));
        prop_assert_eq!(fields.epochs, monitor.epochs());
        prop_assert_eq!(fields.offset, monitor.stream_offset());
        prop_assert_eq!(fields.series.as_slice(), monitor.series());
        prop_assert_eq!(
            fields.progress.len(),
            monitor.window_count().saturating_sub(m / 2 + 1)
        );
        prop_assert!(fields.pending.len() >= monitor.pending());
        prop_assert_eq!(fields.pending.is_empty(), monitor.is_current());
        prop_assert_eq!(fields.processed, monitor.processed());
    }

    /// The queue's order steers only which diagonals are walked next:
    /// any permutation of the saved pending diagonals loads and
    /// finishes bit-identical to the monitor it was saved from.
    #[test]
    fn any_queue_order_finishes_bit_identical(
        m in 4usize..10,
        seed in 0u64..1_000_000_000,
        shuffle in 0u64..1_000_000_000,
        raw_ops in prop::collection::vec((0usize..10, 1usize..33), 1..8),
    ) {
        let mut monitor = monitor_with_windows(m, seed, &raw_ops);
        let mut fields = MonitorFields::decode(&monitor.checkpoint_bytes().unwrap());
        let order = pseudo_random_order(fields.pending.len(), shuffle);
        fields.pending = order.iter().map(|&i| fields.pending[i]).collect();
        let mut restored =
            StreamingDiscordMonitor::from_checkpoint_bytes(&fields.encode()).unwrap();
        prop_assert_eq!(restored.snapshot(), monitor.snapshot());
        let (a, b) = (restored.finish(), monitor.finish());
        prop_assert_eq!(&a.profile, &b.profile);
        prop_assert_eq!(&a.index, &b.index);
    }

    /// A non-finite point never loads: `finish` would report wrong
    /// discords from it.
    #[test]
    fn non_finite_points_are_corrupt(
        m in 4usize..10,
        seed in 0u64..1_000_000_000,
        raw_ops in prop::collection::vec((0usize..10, 1usize..33), 1..8),
        at in 0usize..10_000,
        pick in 0usize..3,
    ) {
        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][pick];
        let monitor = monitor_with_windows(m, seed, &raw_ops);
        let mut fields = MonitorFields::decode(&monitor.checkpoint_bytes().unwrap());
        let i = at % fields.series.len();
        fields.series[i] = bad;
        prop_assert!(fields.loads_as_corrupt(), "series point {} set to {}", i, bad);
    }

    /// The pending queue must hold each diagonal with cells left
    /// exactly once and no other: a dropped diagonal would never reach
    /// the fold, and a repeated or complete one means the queue was not
    /// written by a monitor. Progress past a diagonal's last cell is
    /// corrupt too.
    #[test]
    fn queues_that_miss_or_repeat_a_diagonal_are_corrupt(
        m in 4usize..10,
        seed in 0u64..1_000_000_000,
        raw_ops in prop::collection::vec((0usize..10, 1usize..33), 1..8),
        at in 0usize..10_000,
        other in 0usize..10_000,
    ) {
        let monitor = monitor_with_windows(m, seed, &raw_ops);
        let fields = MonitorFields::decode(&monitor.checkpoint_bytes().unwrap());
        let slots = fields.progress.len();
        prop_assume!(slots > 0);
        let d = at % slots;
        let mut past = fields.clone();
        past.progress[d] = fields.cells(d) + 1 + other % 3;
        prop_assert!(past.loads_as_corrupt(), "progress of slot {} past its cells", d);
        let k = fields.diagonal(d);
        if fields.pending.contains(&k) {
            let mut dropped = fields.clone();
            dropped.pending.retain(|&p| p != k);
            prop_assert!(dropped.loads_as_corrupt(), "diagonal {} dropped", k);
            let mut repeated = fields.clone();
            let slot = other % (repeated.pending.len() + 1);
            repeated.pending.insert(slot, k);
            prop_assert!(repeated.loads_as_corrupt(), "diagonal {} listed twice", k);
        } else {
            let mut complete = fields.clone();
            let slot = other % (complete.pending.len() + 1);
            complete.pending.insert(slot, k);
            prop_assert!(complete.loads_as_corrupt(), "complete diagonal {} pending", k);
        }
    }
}
