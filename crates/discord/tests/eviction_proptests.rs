//! Property harness for sliding-window eviction on the streaming
//! discord monitor (the PR 5 suffix-parity contract).
//!
//! Random interleavings of `append` / `evict` / `step` schedules are
//! driven against a shadow model of the surviving suffix; at every
//! point the monitor must report only indices inside the live window,
//! and `finish()` must land **bit-identical** to the batch kernel
//! ([`stomp_with_exclusion`]) over exactly the suffix the shadow model
//! says survived — for every seed, chunk size, eviction schedule, and
//! worker count.

use egi_discord::stomp::stomp_with_exclusion;
use egi_discord::streaming::{EvictError, StreamingDiscordMonitor};
use egi_testkit::{choose_evict, PointGen};
use proptest::prelude::*;

/// Deterministic unbounded stream: the value at global position `i`
/// (the shared [`PointGen::discord`] wave). Generating points from
/// their global index keeps append chunks reproducible without
/// materializing the whole stream up front.
fn point(i: usize) -> f64 {
    PointGen::discord().at(i)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The tentpole acceptance property: for random append/evict/step
    /// interleavings, seeds, and chunk sizes, the finished profile is
    /// bit-identical to the batch kernel over the surviving suffix, and no
    /// snapshot ever reports an index outside the live window.
    #[test]
    fn interleaved_append_evict_step_converges_to_suffix_batch(
        m in 4usize..12,
        seed in 0u64..1_000_000_000,
        ops in prop::collection::vec((0usize..10, 1usize..33), 3..14),
    ) {
        let exc = m / 2;
        let mut monitor = StreamingDiscordMonitor::with_seed(m, exc, seed);
        let mut appended = 0usize; // points ever appended (global cursor)
        let mut offset = 0usize;   // points evicted (shadow model)
        for &(kind, amount) in &ops {
            match kind {
                // Bias toward appends so streams actually grow.
                0..=4 => {
                    let chunk: Vec<f64> =
                        (0..amount).map(|j| point(appended + j)).collect();
                    monitor.append(&chunk);
                    appended += amount;
                }
                5..=7 => {
                    let c = choose_evict(monitor.series_len(), m, amount);
                    monitor.evict(c).unwrap();
                    offset += c;
                }
                _ => {
                    monitor.run_for(amount);
                }
            }
            prop_assert_eq!(monitor.stream_offset(), offset);
            prop_assert_eq!(monitor.series_len(), appended - offset);
            // Snapshot evidence never escapes the live window.
            let snap = monitor.snapshot();
            let windows = monitor.window_count();
            prop_assert_eq!(snap.len(), windows);
            for &idx in &snap.index {
                prop_assert!(
                    idx == usize::MAX || idx < windows,
                    "index {} outside the {} live windows", idx, windows
                );
            }
            for d in monitor.discords(2) {
                prop_assert!(d.start < windows);
            }
        }
        let suffix: Vec<f64> = (offset..appended).map(point).collect();
        let finished = monitor.finish();
        prop_assert!(monitor.is_current());
        if suffix.len() >= m {
            let reference = stomp_with_exclusion(&suffix, m, exc);
            prop_assert_eq!(&finished.profile, &reference.profile);
            prop_assert_eq!(&finished.index, &reference.index);
        } else {
            prop_assert!(finished.is_empty());
        }
    }

    /// The snapshot contract under random append/evict/step schedules:
    /// every entry is an upper bound on the batch profile of the live
    /// suffix, and between evictions no entry ever rises (an append
    /// keeps every entry and opens the new windows at `+∞`).
    #[test]
    fn snapshots_are_upper_bounds_and_never_loosen_between_evictions(
        m in 4usize..10,
        seed in 0u64..1_000_000_000,
        ops in prop::collection::vec((0usize..10, 1usize..33), 3..14),
    ) {
        let exc = m / 2;
        let mut monitor = StreamingDiscordMonitor::with_seed(m, exc, seed);
        let (mut appended, mut offset) = (0usize, 0usize);
        let mut previous = monitor.snapshot();
        for &(kind, amount) in &ops {
            let mut evicted = false;
            match kind {
                0..=4 => {
                    let chunk: Vec<f64> =
                        (0..amount).map(|j| point(appended + j)).collect();
                    monitor.append(&chunk);
                    appended += amount;
                }
                5..=6 => {
                    let c = choose_evict(monitor.series_len(), m, amount);
                    monitor.evict(c).unwrap();
                    offset += c;
                    evicted = c > 0;
                }
                _ => {
                    monitor.run_for(amount);
                }
            }
            let snap = monitor.snapshot();
            if monitor.series_len() >= m {
                let suffix: Vec<f64> = (offset..appended).map(point).collect();
                let batch = stomp_with_exclusion(&suffix, m, exc);
                for i in 0..snap.len() {
                    prop_assert!(
                        snap.profile[i] >= batch.profile[i],
                        "entry {} undershot the batch profile", i
                    );
                }
            }
            // Retention trims happen only on explicit evictions here.
            if !evicted {
                for i in 0..previous.len() {
                    prop_assert!(
                        snap.profile[i] <= previous.profile[i],
                        "entry {} rose without an eviction", i
                    );
                }
            }
            previous = snap;
        }
    }

    /// Invalid evictions — past the end, or leaving a non-empty suffix
    /// shorter than `m` — are rejected atomically: the error names the
    /// violation and the monitor state is untouched.
    #[test]
    fn invalid_evictions_are_rejected_atomically(
        m in 4usize..12,
        len in 1usize..70,
        over in 1usize..20,
        budget in 0usize..30,
    ) {
        let mut monitor = StreamingDiscordMonitor::new(m);
        let chunk: Vec<f64> = (0..len).map(point).collect();
        monitor.append(&chunk);
        monitor.run_for(budget);
        let processed = monitor.processed();
        let snap = monitor.snapshot();

        prop_assert_eq!(
            monitor.evict(len + over),
            Err(EvictError::PastEnd { requested: len + over, available: len })
        );
        // Every cut leaving 0 < remaining < m must fail.
        for remaining in 1..m.min(len + 1) {
            let c = len - remaining;
            if c == 0 {
                continue;
            }
            prop_assert_eq!(
                monitor.evict(c),
                Err(EvictError::BelowMinimum { remaining, minimum: m })
            );
        }
        prop_assert_eq!(monitor.series_len(), len);
        prop_assert_eq!(monitor.stream_offset(), 0);
        prop_assert_eq!(monitor.processed(), processed);
        let after = monitor.snapshot();
        prop_assert_eq!(&after.profile, &snap.profile);
        prop_assert_eq!(&after.index, &snap.index);
    }

    /// The parallel finish stays bit-identical to the suffix batch for
    /// every worker count, with an eviction landing mid-stream.
    #[test]
    fn parallel_finish_after_eviction_matches_suffix_batch(
        m in 4usize..10,
        seed in 0u64..1_000_000_000,
        chunk in 1usize..40,
        cut_pct in 0usize..100,
        threads in 2usize..9,
    ) {
        let exc = m / 2;
        let total = 120usize;
        let series: Vec<f64> = (0..total).map(point).collect();
        let mut monitor = StreamingDiscordMonitor::with_seed(m, exc, seed);
        for part in series.chunks(chunk) {
            monitor.append(part);
            monitor.run_for(chunk / 2);
        }
        // A valid cut: leave at least m points.
        let cut = ((total - m) * cut_pct / 100).min(total - m);
        monitor.evict(cut).unwrap();
        let finished = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| monitor.finish());
        let reference = stomp_with_exclusion(&series[cut..], m, exc);
        prop_assert_eq!(&finished.profile, &reference.profile);
        prop_assert_eq!(&finished.index, &reference.index);
    }

    /// A retention policy is just a pre-scheduled eviction: streaming
    /// any series under `retain_last(n)` finishes bit-identical to the
    /// batch profile of the last `n` points.
    #[test]
    fn retention_policy_matches_suffix_batch(
        m in 4usize..10,
        extra in 0usize..200,
        chunk in 1usize..50,
        n_mult in 1usize..6,
    ) {
        let n = m * n_mult + m; // retention >= 2m keeps windows meaningful
        let total = n + extra;
        let exc = m / 2;
        let series: Vec<f64> = (0..total).map(point).collect();
        let mut monitor = StreamingDiscordMonitor::with_exclusion(m, exc);
        monitor.retain_last(n).unwrap();
        for part in series.chunks(chunk) {
            monitor.append(part);
            monitor.run_for(3);
            prop_assert!(monitor.series_len() <= n);
        }
        let survived = total.min(n);
        prop_assert_eq!(monitor.series_len(), survived);
        prop_assert_eq!(monitor.stream_offset(), total - survived);
        let finished = monitor.finish();
        let reference = stomp_with_exclusion(&series[total - survived..], m, exc);
        prop_assert_eq!(&finished.profile, &reference.profile);
        prop_assert_eq!(&finished.index, &reference.index);
    }

    /// An append that overflows `retain_last(n)` trims at once, and
    /// lands exactly where an unbounded twin
    /// does by appending and then evicting the excess itself: the same
    /// series, queue, epochs, snapshot and counters after every op of
    /// any schedule.
    #[test]
    fn retention_trim_matches_an_explicit_eviction(
        m in 4usize..10,
        slack in 0usize..60,
        seed in 0u64..1_000_000_000,
        ops in prop::collection::vec((0usize..10, 1usize..50), 3..16),
    ) {
        let n = m + slack;
        let mut trimmed = StreamingDiscordMonitor::with_seed(m, m / 2, seed);
        trimmed.retain_last(n).unwrap();
        let mut twin = StreamingDiscordMonitor::with_seed(m, m / 2, seed);
        let mut appended = 0usize;
        for &(kind, amount) in &ops {
            match kind {
                0..=5 => {
                    let chunk: Vec<f64> =
                        (0..amount).map(|j| point(appended + j)).collect();
                    appended += amount;
                    trimmed.append(&chunk);
                    twin.append(&chunk);
                    twin.evict(twin.series_len().saturating_sub(n)).unwrap();
                }
                6 => {
                    let c = choose_evict(trimmed.series_len(), m, amount);
                    trimmed.evict(c).unwrap();
                    twin.evict(c).unwrap();
                }
                _ => {
                    prop_assert_eq!(trimmed.run_for(amount), twin.run_for(amount));
                }
            }
            prop_assert_eq!(trimmed.series(), twin.series());
            prop_assert_eq!(trimmed.pending(), twin.pending());
            prop_assert_eq!(trimmed.processed(), twin.processed());
            prop_assert_eq!(trimmed.epochs(), twin.epochs());
            prop_assert_eq!(trimmed.stream_offset(), twin.stream_offset());
            prop_assert_eq!(trimmed.snapshot(), twin.snapshot());
            prop_assert_eq!(trimmed.metrics(), twin.metrics());
        }
    }
}

/// Memory-bound regression: a long run under `retain_last(n)` keeps
/// the live series buffer at `O(n + chunk)`, independent of how many
/// points were streamed, and still finishes on the exact suffix
/// profile.
#[test]
fn memory_stays_bounded_under_retention() {
    let m = 16usize;
    let n = 384usize;
    let chunk = 128usize;
    let total = 8_000usize;
    let mut monitor = StreamingDiscordMonitor::new(m);
    monitor.retain_last(n).unwrap();
    let mut fed = 0usize;
    while fed < total {
        let part: Vec<f64> = (0..chunk).map(|j| point(fed + j)).collect();
        monitor.append(&part);
        fed += chunk;
        monitor.run_for(32);
        assert!(monitor.series_len() <= n);
        assert!(
            monitor.series_capacity() <= 2 * (n + chunk),
            "series capacity {} exceeds {}",
            monitor.series_capacity(),
            2 * (n + chunk)
        );
    }
    assert_eq!(monitor.stream_offset(), fed - n);
    let finished = monitor.finish();
    let suffix: Vec<f64> = ((fed - n)..fed).map(point).collect();
    let reference = stomp_with_exclusion(&suffix, m, m / 2);
    assert_eq!(finished.profile, reference.profile);
    assert_eq!(finished.index, reference.index);
}

/// Eviction truncates the series but keeps its allocation, so after a
/// heavy one-off eviction the appends that follow reuse it: appending
/// as many points as were evicted reallocates nothing, and the finish
/// contract holds on the new suffix.
#[test]
fn evict_keeps_the_series_allocation() {
    let m = 8;
    let exc = m / 2;
    let keep = 128usize;
    let series: Vec<f64> = (0..6144).map(point).collect();
    let mut monitor = StreamingDiscordMonitor::with_exclusion(m, exc);
    for part in series[..4096].chunks(256) {
        monitor.append(part);
        monitor.run_for(16);
    }
    let capacity = monitor.series_capacity();
    assert!(capacity >= 4096, "capacity {capacity}");
    monitor.evict(4096 - keep).unwrap();
    assert_eq!(monitor.series_capacity(), capacity);
    for part in series[4096..].chunks(256) {
        monitor.append(part);
        monitor.run_for(16);
        assert_eq!(monitor.series_capacity(), capacity);
    }
    let finished = monitor.finish();
    let reference = stomp_with_exclusion(&series[4096 - keep..], m, exc);
    assert_eq!(finished.profile, reference.profile);
    assert_eq!(finished.index, reference.index);
}
