//! Property harness for sliding-window eviction on the streaming
//! ensemble detector (the PR 5 suffix-parity contract).
//!
//! Random interleavings of `append` / `evict` / `step` schedules are
//! driven against a shadow model of the surviving suffix; at every
//! point the detector must report only candidates inside the live
//! window, and `finish()` must land **bit-identical** to a fresh batch
//! [`EnsembleDetector::detect`] over exactly the suffix the shadow
//! model says survived — for every seed, chunk size, eviction schedule,
//! and rayon worker count.

use egi_core::{EnsembleConfig, EnsembleDetector, EvictError, StreamingEnsembleDetector};
use egi_testkit::{choose_evict, PointGen};
use proptest::prelude::*;

/// Deterministic unbounded stream: the value at global position `i`
/// (the shared [`PointGen::ensemble`] wave).
fn point(i: usize) -> f64 {
    PointGen::ensemble().at(i)
}

fn config(window: usize, members: usize) -> EnsembleConfig {
    EnsembleConfig {
        window,
        ensemble_size: members,
        ..EnsembleConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole acceptance property: for random append/evict/step
    /// interleavings, seeds, member counts, and chunk sizes, the
    /// finished report is bit-identical to batch detect over the
    /// surviving suffix, and no snapshot reports a candidate outside
    /// the live window.
    #[test]
    fn interleaved_append_evict_step_converges_to_suffix_batch(
        window in 8usize..20,
        members in 3usize..8,
        seed in 0u64..1_000_000_000,
        ops in prop::collection::vec((0usize..10, 1usize..40), 3..12),
    ) {
        let cfg = config(window, members);
        let mut streaming = StreamingEnsembleDetector::new(cfg, seed);
        let mut appended = 0usize;
        let mut offset = 0usize;
        for &(kind, amount) in &ops {
            match kind {
                0..=4 => {
                    let chunk: Vec<f64> =
                        (0..amount).map(|j| point(appended + j)).collect();
                    streaming.append(&chunk);
                    appended += amount;
                }
                5..=7 => {
                    let c = choose_evict(streaming.series_len(), window, amount);
                    streaming.evict(c).unwrap();
                    offset += c;
                }
                _ => {
                    streaming.run_for(amount % (members + 1));
                }
            }
            prop_assert_eq!(streaming.stream_offset(), offset);
            prop_assert_eq!(streaming.series_len(), appended - offset);
            // Live answers never escape the live window.
            let snap = streaming.snapshot();
            prop_assert_eq!(snap.len(), streaming.series_len());
            for c in streaming.anomalies(2) {
                prop_assert!(
                    c.start + c.len <= streaming.series_len(),
                    "candidate [{}, {}) outside {} live points",
                    c.start, c.start + c.len, streaming.series_len()
                );
            }
        }
        let suffix: Vec<f64> = (offset..appended).map(point).collect();
        let report = streaming.finish(3);
        prop_assert!(streaming.is_current());
        let batch = EnsembleDetector::new(cfg).detect(&suffix, 3, seed);
        prop_assert_eq!(report, batch);
    }

    /// Invalid evictions are rejected atomically with the shared error
    /// type; valid state is untouched.
    #[test]
    fn invalid_evictions_are_rejected_atomically(
        window in 8usize..24,
        len in 1usize..80,
        over in 1usize..20,
    ) {
        let cfg = config(window, 4);
        let mut streaming = StreamingEnsembleDetector::new(cfg, 1);
        let chunk: Vec<f64> = (0..len).map(point).collect();
        streaming.append(&chunk);
        streaming.run_for(2);
        let snap = streaming.snapshot();
        prop_assert_eq!(
            streaming.evict(len + over),
            Err(EvictError::PastEnd { requested: len + over, available: len })
        );
        for remaining in 1..window.min(len + 1) {
            let c = len - remaining;
            if c == 0 {
                continue;
            }
            prop_assert_eq!(
                streaming.evict(c),
                Err(EvictError::BelowMinimum { remaining, minimum: window })
            );
        }
        prop_assert_eq!(streaming.series_len(), len);
        prop_assert_eq!(streaming.stream_offset(), 0);
        prop_assert_eq!(streaming.snapshot(), snap);
    }

    /// The parallel catch-up stays bit-identical to the suffix batch
    /// for every worker count, with an eviction landing mid-stream.
    #[test]
    fn parallel_finish_after_eviction_matches_suffix_batch(
        window in 8usize..18,
        members in 3usize..8,
        seed in 0u64..1_000_000_000,
        chunk in 1usize..50,
        cut_pct in 0usize..100,
        threads in 2usize..9,
    ) {
        let total = 160usize;
        let series: Vec<f64> = (0..total).map(point).collect();
        let cfg = config(window, members);
        let mut streaming = StreamingEnsembleDetector::new(cfg, seed);
        for part in series.chunks(chunk) {
            streaming.append(part);
            streaming.run_for(1);
        }
        let cut = ((total - window) * cut_pct / 100).min(total - window);
        streaming.evict(cut).unwrap();
        streaming.run_for(1);
        let report = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| streaming.finish(2));
        let batch = EnsembleDetector::new(cfg).detect(&series[cut..], 2, seed);
        prop_assert_eq!(report, batch);
    }

    /// A retention policy is just a pre-scheduled eviction: streaming
    /// any series under `retain_last(n)` finishes bit-identical to the
    /// batch report over the last `n` points.
    #[test]
    fn retention_policy_matches_suffix_batch(
        window in 8usize..16,
        extra in 0usize..250,
        chunk in 1usize..60,
        n_mult in 2usize..6,
        seed in 0u64..1_000_000_000,
    ) {
        let n = window * n_mult;
        let total = n + extra;
        let series: Vec<f64> = (0..total).map(point).collect();
        let cfg = config(window, 5);
        let mut streaming = StreamingEnsembleDetector::new(cfg, seed);
        streaming.retain_last(n).unwrap();
        for part in series.chunks(chunk) {
            streaming.append(part);
            streaming.run_for(2);
            prop_assert!(streaming.series_len() <= n);
        }
        let survived = total.min(n);
        prop_assert_eq!(streaming.series_len(), survived);
        prop_assert_eq!(streaming.stream_offset(), total - survived);
        let report = streaming.finish(2);
        let batch = EnsembleDetector::new(cfg).detect(&series[total - survived..], 2, seed);
        prop_assert_eq!(report, batch);
    }
}

/// Memory-bound regression: a long run under `retain_last(n)` keeps the
/// live series, the shared PAA cell streams, and the Sequitur
/// slabs at `O(n + chunk)` — independent of how many points were
/// streamed — and still finishes on the exact suffix report. The bound
/// is asserted relative to a steady-state sample so it tracks the real
/// allocation footprint instead of a guessed constant.
#[test]
fn memory_stays_bounded_under_retention() {
    let window = 32;
    let members = 5;
    let n = 384;
    let chunk = 128;
    let total = 6_016; // 47 chunks
    let seed = 21;
    let cfg = config(window, members);
    let mut streaming = StreamingEnsembleDetector::new(cfg, seed);
    streaming.retain_last(n).unwrap();
    let mut fed = 0usize;
    let mut sample: Option<(usize, usize, usize)> = None;
    while fed < total {
        let part: Vec<f64> = (0..chunk).map(|j| point(fed + j)).collect();
        streaming.append(&part);
        fed += chunk;
        streaming.run_for(usize::MAX);
        assert!(streaming.series_len() <= n);
        let footprint = (
            streaming.series_capacity(),
            streaming.paa_capacity(),
            streaming.slab_len(),
        );
        match sample {
            // Let allocations settle over the first few steady-state
            // cycles, then pin them.
            None if fed >= 5 * chunk => sample = Some(footprint),
            Some((series_cap, paa_cap, slab)) => {
                assert!(
                    footprint.0 <= series_cap * 2,
                    "series capacity grew {} -> {}",
                    series_cap,
                    footprint.0
                );
                assert!(
                    footprint.1 <= paa_cap * 2,
                    "PAA stream capacity grew {} -> {}",
                    paa_cap,
                    footprint.1
                );
                assert!(
                    footprint.2 <= slab * 2 + 64,
                    "Sequitur slabs grew {} -> {}",
                    slab,
                    footprint.2
                );
            }
            None => {}
        }
    }
    assert_eq!(streaming.stream_offset(), total - n);
    let report = streaming.finish(3);
    let suffix: Vec<f64> = ((total - n)..total).map(point).collect();
    let batch = EnsembleDetector::new(cfg).detect(&suffix, 3, seed);
    assert_eq!(report, batch);
}
