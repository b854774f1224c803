//! Property harness for the fleet runtime (the PR 7 parity-one-level-up
//! contract).
//!
//! Random multi-stream schedules — create / ingest / append / evict /
//! budgeted refresh interleavings — are driven against per-stream
//! *shadow monitors* fed the same logical schedule standalone. For
//! every seed, chunk size, stream count, and worker count:
//!
//! * each stream's [`Fleet::finish`] is **bit-identical** to its shadow
//!   (and, transitively, to the batch kernel [`stomp_with_exclusion`] /
//!   [`EnsembleDetector::detect`] over the surviving suffix);
//! * the fair-share scheduler's starvation bound is observed — every
//!   dirty stream receives ⌊U/d⌋..⌈U/d⌉ units from a `U`-unit budget
//!   over `d` equally-loaded dirty streams;
//! * invalid evictions are rejected atomically, naming the stream,
//!   without poisoning the fleet or perturbing any other stream;
//! * a chunk holding a NaN or an infinity is rejected at the front
//!   door, for both session kinds, and never reaches a session or a
//!   restored inbox.

use egi_core::{EnsembleConfig, EnsembleDetector, StreamingEnsembleDetector};
use egi_discord::stomp::stomp_with_exclusion;
use egi_discord::streaming::{StreamSession, StreamingDiscordMonitor};
use egi_serve::fleet::{Checkpoint, CheckpointError};
use egi_serve::{Fleet, FleetError, StreamId};
use egi_testkit::{choose_evict, PointGen};
use egi_tskit::checkpoint::{CheckpointReader, CheckpointWriter, FieldReader, FieldWriter};
use egi_tskit::evict::EvictError;
use egi_tskit::Deadline;
use proptest::prelude::*;

/// Deterministic unbounded per-stream source: the value of stream `id`
/// at its global position `i` (the shared [`PointGen::fleet`] wave).
/// Distinct phase and drift per stream so cross-stream state leaks
/// would break parity immediately.
fn point(id: StreamId, i: usize) -> f64 {
    PointGen::fleet(id).at(i)
}

/// Per-stream shadow bookkeeping: the standalone monitor fed the same
/// logical schedule, plus the global cursor / offset that name the
/// surviving suffix.
struct Shadow {
    monitor: StreamingDiscordMonitor,
    appended: usize,
    offset: usize,
    /// Points handed to `Fleet::ingest` but not yet flushed — the
    /// shadow defers them the same way the fleet's inbox does.
    inbox: Vec<f64>,
}

impl Shadow {
    fn flush(&mut self) {
        if !self.inbox.is_empty() {
            self.monitor.append(&self.inbox);
            self.inbox.clear();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole acceptance property: random multi-stream schedules
    /// of buffered ingest, direct appends, evictions, and budgeted
    /// refreshes leave every stream's `finish` bit-identical to a
    /// standalone monitor fed the same schedule, and to batch STOMP
    /// over the surviving suffix.
    #[test]
    fn multi_stream_schedules_match_shadow_monitors(
        streams in 2u64..5,
        m in 4usize..10,
        seed in 0u64..1_000_000_000,
        ops in prop::collection::vec(
            (0u64..4, 0usize..10, 1usize..33),
            4..20,
        ),
    ) {
        let exc = m / 2;
        let mut fleet: Fleet<StreamingDiscordMonitor> = Fleet::new();
        let mut shadows: Vec<Shadow> = Vec::new();
        for id in 0..streams {
            fleet
                .create(id, StreamingDiscordMonitor::with_seed(m, exc, seed))
                .unwrap();
            shadows.push(Shadow {
                monitor: StreamingDiscordMonitor::with_seed(m, exc, seed),
                appended: 0,
                offset: 0,
                inbox: Vec::new(),
            });
        }
        for &(who, kind, amount) in &ops {
            let id = who % streams;
            // A full tick flushes every stream's inbox on both sides.
            if kind == 9 {
                for s in shadows.iter_mut() {
                    s.flush();
                }
                fleet.tick(Deadline::queries(amount));
            }
            let shadow = &mut shadows[id as usize];
            match kind {
                // Buffered dribbles through the front door: the fleet
                // coalesces them, the shadow holds them in its own
                // inbox until the same flush point.
                0..=2 => {
                    for j in 0..amount {
                        let x = point(id, shadow.appended + j);
                        fleet.ingest(id, &[x]).unwrap();
                        shadow.inbox.push(x);
                    }
                    shadow.appended += amount;
                }
                // Direct append: flushes the inbox first on both sides.
                3..=4 => {
                    let chunk: Vec<f64> = (0..amount)
                        .map(|j| point(id, shadow.appended + j))
                        .collect();
                    fleet.append_to(id, &chunk).unwrap();
                    shadow.flush();
                    shadow.monitor.append(&chunk);
                    shadow.appended += amount;
                }
                // Eviction: call-order semantics flush the inbox first,
                // so the valid cut is chosen from the flushed length.
                5..=6 => {
                    shadow.flush();
                    let c = choose_evict(shadow.monitor.series_len(), m, amount);
                    fleet.evict_from(id, c).unwrap();
                    shadow.monitor.evict(c).unwrap();
                    shadow.offset += c;
                }
                // Budgeted refresh across every dirty stream. The
                // shadows don't step — `finish` parity can't depend on
                // how much incremental work already happened.
                7..=8 => {
                    fleet.refresh(Deadline::queries(amount));
                }
                // Full tick: handled above, before borrowing one shadow.
                _ => {}
            }
            // The fleet's flushed view agrees with the shadow's.
            let session = fleet.session(id).unwrap();
            let flushed = shadow.appended - shadow.offset - shadow.inbox.len();
            prop_assert_eq!(session.series_len(), flushed);
            prop_assert_eq!(session.stream_offset(), shadow.offset);
            prop_assert_eq!(fleet.buffered_for(id).unwrap(), shadow.inbox.len());
        }
        // Every stream finishes bit-identical to its shadow AND to the
        // batch profile of the surviving suffix.
        for (id, shadow) in shadows.iter_mut().enumerate() {
            let id = id as StreamId;
            let finished = fleet.finish(id).unwrap();
            shadow.flush();
            let reference = shadow.monitor.finish();
            prop_assert_eq!(&finished.profile, &reference.profile);
            prop_assert_eq!(&finished.index, &reference.index);
            let suffix: Vec<f64> =
                (shadow.offset..shadow.appended).map(|i| point(id, i)).collect();
            if suffix.len() >= m {
                let batch = stomp_with_exclusion(&suffix, m, exc);
                prop_assert_eq!(&finished.profile, &batch.profile);
                prop_assert_eq!(&finished.index, &batch.index);
            } else {
                prop_assert!(finished.is_empty());
            }
        }
    }

    /// The starvation bound, observed: over `d` equally-loaded dirty
    /// streams, a `U`-unit refresh gives every stream ⌊U/d⌋..⌈U/d⌉
    /// units — in particular ≥ 1 whenever U ≥ d.
    #[test]
    fn fair_share_starvation_bound_is_observed(
        streams in 2u64..9,
        m in 4usize..9,
        extra in 8usize..40,
        budget_per in 1usize..12,
    ) {
        let len = m + extra;
        let mut fleet: Fleet<StreamingDiscordMonitor> = Fleet::new();
        let mut pending_each = 0;
        for id in 0..streams {
            let series: Vec<f64> = (0..len).map(|i| point(id, i)).collect();
            let mut monitor = StreamingDiscordMonitor::new(m);
            monitor.append(&series);
            // Same length, window and seed: the same units per stream.
            pending_each = monitor.pending();
            fleet.create(id, monitor).unwrap();
        }
        let d = streams as usize;
        prop_assert_eq!(fleet.dirty_count(), d);
        let budget = (budget_per * d).min(pending_each * d);
        let ran = fleet.refresh(Deadline::queries(budget));
        prop_assert_eq!(ran, budget);
        let served: Vec<usize> = (0..streams)
            .map(|id| pending_each - fleet.session(id).unwrap().pending_units())
            .collect();
        let floor = budget / d;
        let ceil = budget.div_ceil(d);
        for (id, &s) in served.iter().enumerate() {
            prop_assert!(
                (floor..=ceil).contains(&s),
                "stream {} served {} units, bound is {}..={}",
                id, s, floor, ceil
            );
        }
        prop_assert_eq!(served.iter().sum::<usize>(), budget);
    }

    /// Invalid evictions are rejected atomically with the stream id
    /// attached: the target stream is untouched, every other stream is
    /// oblivious, and the whole fleet still finishes on parity.
    #[test]
    fn invalid_evictions_do_not_poison_the_fleet(
        streams in 2u64..5,
        m in 4usize..9,
        len in 12usize..60,
        over in 1usize..25,
        budget in 0usize..40,
    ) {
        let mut fleet: Fleet<StreamingDiscordMonitor> = Fleet::new();
        for id in 0..streams {
            let series: Vec<f64> = (0..len).map(|i| point(id, i)).collect();
            let mut monitor = StreamingDiscordMonitor::new(m);
            monitor.append(&series);
            fleet.create(id, monitor).unwrap();
        }
        fleet.refresh(Deadline::queries(budget));
        let victim = streams - 1;
        let before: Vec<usize> = (0..streams)
            .map(|id| fleet.session(id).unwrap().pending_units())
            .collect();

        // Past the end of the victim stream.
        prop_assert_eq!(
            fleet.evict_from(victim, len + over),
            Err(FleetError::Evict {
                id: victim,
                error: EvictError::PastEnd { requested: len + over, available: len },
            })
        );
        // Leaving a non-empty suffix shorter than m.
        if len > m {
            let c = len - (m - 1).max(1);
            prop_assert_eq!(
                fleet.evict_from(victim, c),
                Err(FleetError::Evict {
                    id: victim,
                    error: EvictError::BelowMinimum {
                        remaining: len - c,
                        minimum: m,
                    },
                })
            );
        }
        // Unknown stream: the fleet itself rejects before any session
        // is touched.
        prop_assert_eq!(
            fleet.evict_from(streams, 1),
            Err(FleetError::UnknownStream { id: streams })
        );

        // Nothing moved, nothing was poisoned: pending work, lengths,
        // and final profiles are exactly the no-error outcome.
        for id in 0..streams {
            let session = fleet.session(id).unwrap();
            prop_assert_eq!(session.series_len(), len);
            prop_assert_eq!(session.stream_offset(), 0);
            prop_assert_eq!(session.pending_units(), before[id as usize]);
        }
        for id in 0..streams {
            let finished = fleet.finish(id).unwrap();
            let series: Vec<f64> = (0..len).map(|i| point(id, i)).collect();
            if len >= m {
                let batch = stomp_with_exclusion(&series, m, m / 2);
                prop_assert_eq!(&finished.profile, &batch.profile);
                prop_assert_eq!(&finished.index, &batch.index);
            }
        }
    }

    /// `finish_all` catch-up parity across rayon worker counts, with
    /// the ensemble detector as the session type: per-stream reports
    /// stay bit-identical to standalone shadows for every thread count.
    #[test]
    fn finish_all_is_bit_identical_across_worker_counts(
        streams in 2u64..5,
        window in 8usize..16,
        members in 3usize..6,
        seed in 0u64..1_000_000_000,
        chunk in 1usize..30,
        threads in 2usize..9,
    ) {
        let cfg = EnsembleConfig {
            window,
            ensemble_size: members,
            ..EnsembleConfig::default()
        };
        let total = window * 6;
        let mut fleet: Fleet<StreamingEnsembleDetector> = Fleet::new();
        for id in 0..streams {
            fleet
                .create(id, StreamingEnsembleDetector::new(cfg, seed))
                .unwrap();
            let series: Vec<f64> = (0..total).map(|i| point(id, i)).collect();
            for part in series.chunks(chunk) {
                fleet.ingest(id, part).unwrap();
            }
        }
        // Partial progress under a shared budget, then parallel
        // catch-up inside a pool of the given size.
        fleet.tick(Deadline::queries(streams as usize * 2));
        let reports = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| fleet.finish_all());
        prop_assert_eq!(reports.len(), streams as usize);
        for (id, report) in reports {
            let series: Vec<f64> = (0..total).map(|i| point(id, i)).collect();
            let mut shadow = StreamingEnsembleDetector::new(cfg, seed);
            shadow.append(&series);
            let reference = StreamSession::finish(&mut shadow);
            prop_assert_eq!(&report, &reference);
            // And transitively: the trait-level finish reports every
            // non-overlapping candidate, same as batch detect at the
            // same k.
            let k = reference.anomalies.len();
            let batch = EnsembleDetector::new(cfg).detect(&series, k, seed);
            prop_assert_eq!(&report.anomalies, &batch.anomalies);
        }
    }
}

/// The served matrix-profile baseline in miniature: monitors under a
/// retention budget take a chunk past the budget every tick, each tick
/// drains every unit, and each stream still finishes bit for bit on
/// batch STOMP over the points it retains.
#[test]
fn retained_monitor_streams_finish_on_their_suffix() {
    let (streams, m, retain, chunk) = (3, 12, 160, 24);
    let mut fleet: Fleet<StreamingDiscordMonitor> = Fleet::new();
    for id in 0..streams {
        fleet.create(id, StreamingDiscordMonitor::new(m)).unwrap();
        fleet.retain_last(id, retain).unwrap();
    }
    let mut fed = 0;
    for _ in 0..12 {
        for id in 0..streams {
            let part: Vec<f64> = (fed..fed + chunk).map(|i| point(id, i)).collect();
            fleet.ingest(id, &part).unwrap();
        }
        fed += chunk;
        fleet.tick(Deadline::unbounded());
        for id in 0..streams {
            let session = fleet.session(id).unwrap();
            assert_eq!(session.series_len(), fed.min(retain));
            assert_eq!(session.stream_offset(), fed.saturating_sub(retain));
            assert!(session.is_current(), "stream {id} after {fed} points");
        }
    }
    for id in 0..streams {
        let suffix: Vec<f64> = (fed - retain..fed).map(|i| point(id, i)).collect();
        let finished = fleet.finish(id).unwrap();
        let batch = stomp_with_exclusion(&suffix, m, m / 2);
        assert_eq!(finished.profile, batch.profile, "stream {id}");
        assert_eq!(finished.index, batch.index, "stream {id}");
    }
}

/// The starvation bound at scale: one global deadline spread across
/// **1,000 dirty streams** — every stream receives ⌊U/1000⌋..⌈U/1000⌉
/// units, none starves — then a deadline of exactly the units left
/// drains every stream, and per-stream finish still lands bit-identical
/// to batch STOMP.
#[test]
fn fair_share_spreads_one_deadline_across_1000_dirty_streams() {
    let m = 8usize;
    let len = 48usize;
    let streams = 1_000u64;
    let mut fleet: Fleet<StreamingDiscordMonitor> = Fleet::new();
    let mut pending_each = 0;
    for id in 0..streams {
        let series: Vec<f64> = (0..len).map(|i| point(id, i)).collect();
        let mut monitor = StreamingDiscordMonitor::new(m);
        monitor.append(&series);
        // Same length, window and seed: the same units per stream.
        pending_each = monitor.pending();
        fleet.create(id, monitor).unwrap();
    }
    assert!(pending_each > 3, "{pending_each} units per stream");
    assert_eq!(fleet.dirty_count(), 1_000);
    assert_eq!(fleet.pending_units(), 1_000 * pending_each);

    // A budget that doesn't divide evenly: 2,500 units over 1,000
    // streams ⇒ exactly 500 streams get 3 units and 500 get 2.
    let budget = 2_500usize;
    let ran = fleet.refresh(Deadline::queries(budget));
    assert_eq!(ran, budget);
    let mut floor_count = 0usize;
    let mut ceil_count = 0usize;
    for id in 0..streams {
        let served = pending_each - fleet.session(id).unwrap().pending_units();
        assert!(served >= 1, "stream {id} starved");
        match served {
            2 => floor_count += 1,
            3 => ceil_count += 1,
            s => panic!("stream {id} served {s} units, bound is 2..=3"),
        }
    }
    assert_eq!((floor_count, ceil_count), (500, 500));
    assert_eq!(fleet.dirty_count(), 1_000, "all streams still have work");

    // A budget of exactly the units left (all but 2 or 3 per stream)
    // drains every stream.
    let rest = fleet.pending_units();
    assert_eq!(fleet.refresh(Deadline::queries(rest)), rest);
    assert_eq!(fleet.dirty_count(), 0, "a stream kept pending units");

    // Finish, then spot-check parity across the fleet.
    let reports = fleet.finish_all();
    assert_eq!(reports.len(), 1_000);
    assert_eq!(fleet.pending_units(), 0);
    for (id, profile) in reports.into_iter().step_by(97) {
        let series: Vec<f64> = (0..len).map(|i| point(id, i)).collect();
        let reference = stomp_with_exclusion(&series, m, m / 2);
        assert_eq!(profile.profile, reference.profile, "stream {id}");
        assert_eq!(profile.index, reference.index, "stream {id}");
    }
}

/// Writes `value` over the first buffered point of stream `target`'s
/// inbox in a fleet checkpoint, re-framing every section so each
/// checksum stays valid.
fn with_inbox_point(bytes: &[u8], target: StreamId, value: f64) -> Vec<u8> {
    let fleet_tag = u32::from_le_bytes(*b"FLT1");
    let stream_tag = u32::from_le_bytes(*b"STR1");
    let mut cursor = bytes;
    let mut input = CheckpointReader::begin(&mut cursor).unwrap();
    let mut sections = vec![(fleet_tag, input.section(fleet_tag, 1).unwrap().1)];
    while input.sections_remaining() > 0 {
        let (_, payload) = input.section(stream_tag, 1).unwrap();
        let mut f = FieldReader::new(&payload);
        let id = f.u64().unwrap();
        let mut inbox = f.f64_vec().unwrap();
        let session = f.bytes().unwrap();
        if id == target {
            inbox[0] = value;
        }
        let mut w = FieldWriter::new();
        w.u64(id);
        w.f64_slice(&inbox);
        w.bytes(session);
        sections.push((stream_tag, w.into_bytes()));
    }
    let mut out = Vec::new();
    let mut writer = CheckpointWriter::begin(&mut out, sections.len() as u32).unwrap();
    for (tag, payload) in &sections {
        writer.section(*tag, 1, payload).unwrap();
    }
    out
}

/// Feeds streams 0 and 1 the first 160 points of their waves through
/// `ingest`, offering stream 1 non-finite chunks on the way, and checks
/// that each rejection is typed and atomic, that ticks keep running,
/// and that a checkpoint whose inbox holds a NaN fails to load. The
/// caller compares each stream's finish with batch over its 160 points.
fn reject_non_finite_chunks<S: StreamSession + Checkpoint>(fleet: &mut Fleet<S>) {
    let chunk = |id: StreamId, from: usize, to: usize| -> Vec<f64> {
        (from..to).map(|i| point(id, i)).collect()
    };
    for id in 0..2 {
        fleet.ingest(id, &chunk(id, 0, 80)).unwrap();
    }
    fleet.tick(Deadline::queries(3));
    fleet.ingest(1, &chunk(1, 80, 90)).unwrap();
    let buffered = fleet.buffered();
    for (bad, index) in [(f64::NAN, 3), (f64::INFINITY, 0), (f64::NEG_INFINITY, 9)] {
        let mut poisoned = chunk(1, 90, 100);
        poisoned[index] = bad;
        let rejected = Err(FleetError::NonFinite { id: 1, index });
        assert_eq!(fleet.ingest(1, &poisoned), rejected);
        assert_eq!(fleet.append_to(1, &poisoned), rejected);
        assert_eq!(fleet.buffered(), buffered, "a rejected chunk was buffered");
    }

    let bytes = fleet.checkpoint_bytes().unwrap();
    assert!(Fleet::<S>::from_checkpoint_bytes(&with_inbox_point(&bytes, 1, point(1, 80))).is_ok());
    assert!(matches!(
        Fleet::<S>::from_checkpoint_bytes(&with_inbox_point(&bytes, 1, f64::NAN)),
        Err(CheckpointError::Corrupt(_))
    ));

    // The next tick runs, and the streams go on as if nothing had been
    // offered.
    let tick = fleet.tick(Deadline::queries(4));
    assert_eq!(tick.flushed_points, 10);
    fleet.ingest(0, &chunk(0, 80, 160)).unwrap();
    fleet.ingest(1, &chunk(1, 90, 160)).unwrap();
    fleet.tick(Deadline::queries(4));
}

#[test]
fn non_finite_chunks_never_reach_a_discord_session() {
    let m = 8;
    let mut fleet: Fleet<StreamingDiscordMonitor> = Fleet::new();
    for id in 0..2 {
        fleet.create(id, StreamingDiscordMonitor::new(m)).unwrap();
    }
    reject_non_finite_chunks(&mut fleet);
    for id in 0..2 {
        let series: Vec<f64> = (0..160).map(|i| point(id, i)).collect();
        let finished = fleet.finish(id).unwrap();
        let reference = stomp_with_exclusion(&series, m, m / 2);
        assert_eq!(finished.profile, reference.profile, "stream {id}");
        assert_eq!(finished.index, reference.index, "stream {id}");
    }
}

#[test]
fn non_finite_chunks_never_reach_an_ensemble_session() {
    let cfg = EnsembleConfig {
        window: 12,
        ensemble_size: 5,
        ..EnsembleConfig::default()
    };
    let mut fleet: Fleet<StreamingEnsembleDetector> = Fleet::new();
    for id in 0..2 {
        fleet
            .create(id, StreamingEnsembleDetector::new(cfg, 5))
            .unwrap();
    }
    reject_non_finite_chunks(&mut fleet);
    for id in 0..2 {
        let series: Vec<f64> = (0..160).map(|i| point(id, i)).collect();
        let finished = fleet.finish(id).unwrap();
        let batch = EnsembleDetector::new(cfg).detect(&series, finished.anomalies.len(), 5);
        assert_eq!(finished, batch, "stream {id}");
    }
}

/// A fleet checkpoint nests each ensemble session's checkpoint, whose
/// members restore by replaying the series. Taken mid-refresh, with one
/// stream just evicted and another's inbox still buffered, the restored
/// fleet re-saves the same bytes, serves the same snapshots, and
/// finishes every stream on batch over its surviving points.
#[test]
fn ensemble_fleet_restores_mid_refresh_by_replay() {
    let cfg = EnsembleConfig {
        window: 12,
        ensemble_size: 5,
        ..EnsembleConfig::default()
    };
    let chunk = |id: StreamId, from: usize, to: usize| -> Vec<f64> {
        (from..to).map(|i| point(id, i)).collect()
    };
    let mut fleet: Fleet<StreamingEnsembleDetector> = Fleet::new();
    for id in 0..3 {
        fleet
            .create(id, StreamingEnsembleDetector::new(cfg, 7 + id))
            .unwrap();
        fleet.ingest(id, &chunk(id, 0, 150)).unwrap();
    }
    fleet.tick(Deadline::queries(6));
    fleet.evict_from(1, 30).unwrap();
    fleet.tick(Deadline::queries(2));
    fleet.ingest(2, &chunk(2, 150, 190)).unwrap();
    assert!(fleet.pending_units() > 0, "expected members left stale");
    assert_eq!(fleet.buffered(), 40);

    let bytes = fleet.checkpoint_bytes().unwrap();
    let mut restored = Fleet::<StreamingEnsembleDetector>::from_checkpoint_bytes(&bytes).unwrap();
    assert_eq!(restored.checkpoint_bytes().unwrap(), bytes);
    assert_eq!(restored.pending_units(), fleet.pending_units());
    assert_eq!(restored.buffered(), fleet.buffered());
    for id in 0..3 {
        assert_eq!(
            restored.query(id).unwrap(),
            fleet.query(id).unwrap(),
            "stream {id}"
        );
    }
    let finished = restored.finish_all();
    assert_eq!(finished, fleet.finish_all());
    for (id, report) in finished {
        let series = match id {
            1 => chunk(1, 30, 150),
            2 => chunk(2, 0, 190),
            _ => chunk(id, 0, 150),
        };
        let batch = EnsembleDetector::new(cfg).detect(&series, report.anomalies.len(), 7 + id);
        assert_eq!(report, batch, "stream {id}");
    }
}
