//! Property-based cross-checks of the matrix profile implementations.
//!
//! STOMP and STAMP take completely different routes to the same numbers
//! (incremental dot products vs FFT convolutions); agreement with each
//! other and with the brute-force oracle over random inputs is the
//! strongest correctness evidence available without external fixtures.

use egi_discord::brute::brute_force;
use egi_discord::dist::WindowStats;
use egi_discord::mass::{mass_self, MassPrecomputed};
use egi_discord::stamp::{stamp_per_query_fft, stamp_with_exclusion};
use egi_discord::stomp::stomp_with_exclusion;
use egi_discord::streaming::StreamingDiscordMonitor;
use proptest::prelude::*;

fn series_strategy() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-100.0f64..100.0, 40..120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// STOMP ≡ brute force over random series and window lengths.
    #[test]
    fn stomp_matches_brute(series in series_strategy(), m in 4usize..16) {
        prop_assume!(series.len() >= 2 * m);
        let exc = m - 1;
        let fast = stomp_with_exclusion(&series, m, exc);
        let slow = brute_force(&series, m, exc);
        for i in 0..fast.len() {
            let (f, s) = (fast.profile[i], slow.profile[i]);
            // Windows with no admissible neighbor stay at +inf on both
            // sides; inf − inf is NaN, so equality is checked explicitly.
            let equal = (f.is_infinite() && s.is_infinite()) || (f - s).abs() < 1e-5;
            prop_assert!(equal, "i={}: {} vs {}", i, f, s);
        }
    }

    /// STAMP ≡ STOMP (FFT route vs incremental route).
    #[test]
    fn stamp_matches_stomp(series in series_strategy(), m in 4usize..16) {
        prop_assume!(series.len() >= 2 * m);
        let a = stamp_with_exclusion(&series, m, m / 2);
        let b = stomp_with_exclusion(&series, m, m / 2);
        for i in 0..a.len() {
            let (x, y) = (a.profile[i], b.profile[i]);
            let equal = (x.is_infinite() && y.is_infinite()) || (x - y).abs() < 1e-5;
            prop_assert!(equal, "i={}: {} vs {}", i, x, y);
        }
    }

    /// Matrix profile values are symmetric evidence: profile[i] is the
    /// distance to index[i], and that distance is achievable from the
    /// other side too (profile[index[i]] ≤ profile[i]).
    #[test]
    fn neighbor_distance_is_mutual_upper_bound(series in series_strategy(), m in 4usize..12) {
        prop_assume!(series.len() >= 2 * m);
        let mp = stomp_with_exclusion(&series, m, m - 1);
        for i in 0..mp.len() {
            let j = mp.index[i];
            if j != usize::MAX {
                prop_assert!(
                    mp.profile[j] <= mp.profile[i] + 1e-6,
                    "profile[{}]={} > profile[{}]={}",
                    j, mp.profile[j], i, mp.profile[i]
                );
            }
        }
    }

    /// Shared-spectrum MASS ([`MassPrecomputed`]) equals the per-query
    /// FFT path to 1e-9 on random inputs — the parity contract of the
    /// fast path.
    #[test]
    fn mass_precomputed_matches_mass_self(series in series_strategy(), m in 4usize..16) {
        prop_assume!(series.len() >= 2 * m);
        let ws = WindowStats::new(&series, m);
        let pre = MassPrecomputed::new(&series, m);
        let count = ws.count();
        for q in [0, count / 3, count - 1] {
            let naive = mass_self(&series, q, &ws);
            let fast = pre.distance_profile(q);
            prop_assert_eq!(naive.len(), fast.len());
            for j in 0..naive.len() {
                prop_assert!(
                    (naive[j] - fast[j]).abs() < 1e-9,
                    "q={} j={}: {} vs {}", q, j, naive[j], fast[j]
                );
            }
        }
    }

    /// Shared-spectrum STAMP equals the per-query-FFT STAMP to 1e-9.
    #[test]
    fn stamp_fast_path_matches_naive_path(series in series_strategy(), m in 4usize..16) {
        prop_assume!(series.len() >= 2 * m);
        let fast = stamp_with_exclusion(&series, m, m / 2);
        let naive = stamp_per_query_fft(&series, m, m / 2);
        for i in 0..fast.len() {
            let (f, s) = (fast.profile[i], naive.profile[i]);
            let equal = (f.is_infinite() && s.is_infinite()) || (f - s).abs() < 1e-9;
            prop_assert!(equal, "i={}: {} vs {}", i, f, s);
        }
    }

    /// Diagonal-parallel STOMP returns bit-identical profiles and
    /// indices for every worker count.
    #[test]
    fn stomp_deterministic_across_threads(
        series in series_strategy(),
        m in 4usize..12,
        threads in 2usize..9,
    ) {
        prop_assume!(series.len() >= 2 * m);
        let single = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(|| stomp_with_exclusion(&series, m, m / 2));
        let multi = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| stomp_with_exclusion(&series, m, m / 2));
        prop_assert_eq!(&single.profile, &multi.profile);
        prop_assert_eq!(&single.index, &multi.index);
    }

    /// Anytime STAMP (a monitor fed one series), for *every* query
    /// permutation (seed), finishes on a profile and index vector
    /// bit-identical to sequential STAMP — and within 1e-5 of STOMP: the
    /// whole point of the shared `(distance, index)` fold.
    #[test]
    fn anytime_any_permutation_matches_stamp_and_stomp(
        series in series_strategy(),
        m in 4usize..16,
        seed in 0u64..1_000_000_000,
    ) {
        prop_assume!(series.len() >= 2 * m);
        let exc = m / 2;
        let reference = stamp_with_exclusion(&series, m, exc);
        let mut monitor = StreamingDiscordMonitor::with_seed(m, exc, seed);
        monitor.append(&series);
        let finished = monitor.finish();
        prop_assert_eq!(&finished.profile, &reference.profile);
        prop_assert_eq!(&finished.index, &reference.index);
        let stomp = stomp_with_exclusion(&series, m, exc);
        for i in 0..finished.len() {
            let (x, y) = (finished.profile[i], stomp.profile[i]);
            let equal = (x.is_infinite() && y.is_infinite()) || (x - y).abs() < 1e-5;
            prop_assert!(equal, "i={}: {} vs {}", i, x, y);
        }
    }

    /// Parallel STAMP is bit-identical to sequential STAMP for every
    /// worker count, seed, and partial sequential prefix (mixing
    /// `run_for` stepping with a parallel finish).
    #[test]
    fn anytime_parallel_finish_deterministic(
        series in series_strategy(),
        m in 4usize..12,
        seed in 0u64..1_000_000_000,
        threads in 2usize..9,
        prefix_pct in 0usize..100,
    ) {
        prop_assume!(series.len() >= 2 * m);
        let exc = m / 2;
        let reference = stamp_with_exclusion(&series, m, exc);
        let mut driver = StreamingDiscordMonitor::with_seed(m, exc, seed);
        driver.append(&series);
        driver.run_for(driver.window_count() * prefix_pct / 100);
        let finished = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| driver.finish());
        prop_assert_eq!(&finished.profile, &reference.profile);
        prop_assert_eq!(&finished.index, &reference.index);
    }

    /// Partial anytime profiles converge monotonically: pointwise
    /// non-increasing in the number of processed queries, and always an
    /// upper bound on the finished profile.
    #[test]
    fn anytime_snapshots_monotone_and_upper_bound(
        series in series_strategy(),
        m in 4usize..12,
        seed in 0u64..1_000_000_000,
        chunk in 1usize..30,
    ) {
        prop_assume!(series.len() >= 2 * m);
        let exc = m / 2;
        let reference = stamp_with_exclusion(&series, m, exc);
        let mut driver = StreamingDiscordMonitor::with_seed(m, exc, seed);
        driver.append(&series);
        let mut previous = driver.snapshot();
        while driver.run_for(chunk) > 0 {
            let current = driver.snapshot();
            for i in 0..current.len() {
                prop_assert!(
                    current.profile[i] <= previous.profile[i],
                    "entry {} rose after {} queries", i, driver.processed()
                );
                prop_assert!(
                    current.profile[i] >= reference.profile[i],
                    "entry {} undershot the final profile", i
                );
            }
            previous = current;
        }
        prop_assert_eq!(&previous.profile, &reference.profile);
        prop_assert_eq!(&previous.index, &reference.index);
    }

    /// The streaming monitor converges to the batch profile, bitwise,
    /// for every seed, chunk size, and interleaving of
    /// `append`/`step`/`snapshot` — the tentpole acceptance contract.
    #[test]
    fn streaming_interleaved_converges_to_batch(
        series in series_strategy(),
        m in 4usize..16,
        seed in 0u64..1_000_000_000,
        chunk in 1usize..40,
        budget in 0usize..25,
    ) {
        prop_assume!(series.len() >= 2 * m);
        let exc = m / 2;
        let reference = stamp_with_exclusion(&series, m, exc);
        let mut monitor = StreamingDiscordMonitor::with_seed(m, exc, seed);
        for part in series.chunks(chunk) {
            monitor.append(part);
            monitor.run_for(budget);
            let snap = monitor.snapshot();
            prop_assert_eq!(snap.len(), monitor.window_count());
            // Every snapshot entry is an upper bound on the batch
            // profile (up to FFT round-off on carry-over evidence).
            for i in 0..snap.len() {
                prop_assert!(
                    snap.profile[i] >= reference.profile[i] - 1e-9 * (1.0 + reference.profile[i]),
                    "entry {} undershot the batch profile", i
                );
            }
        }
        let finished = monitor.finish();
        prop_assert!(monitor.is_current());
        prop_assert_eq!(&finished.profile, &reference.profile);
        prop_assert_eq!(&finished.index, &reference.index);
    }

    /// The streaming monitor's parallel finish is bit-identical to the
    /// batch profile for every worker count and append schedule.
    #[test]
    fn streaming_parallel_finish_deterministic(
        series in series_strategy(),
        m in 4usize..12,
        seed in 0u64..1_000_000_000,
        chunk in 1usize..40,
        threads in 2usize..9,
    ) {
        prop_assume!(series.len() >= 2 * m);
        let exc = m / 2;
        let reference = stamp_with_exclusion(&series, m, exc);
        let mut monitor = StreamingDiscordMonitor::with_seed(m, exc, seed);
        for part in series.chunks(chunk) {
            monitor.append(part);
            monitor.run_for(chunk / 2);
        }
        let finished = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| monitor.finish());
        prop_assert_eq!(&finished.profile, &reference.profile);
        prop_assert_eq!(&finished.index, &reference.index);
    }

    /// Scaling and shifting the series leaves the (z-normalized) matrix
    /// profile unchanged.
    #[test]
    fn profile_is_scale_shift_invariant(
        series in series_strategy(),
        scale in 0.5f64..10.0,
        shift in -50.0f64..50.0,
    ) {
        prop_assume!(series.len() >= 24);
        let m = 8;
        let transformed: Vec<f64> = series.iter().map(|v| v * scale + shift).collect();
        let a = stomp_with_exclusion(&series, m, m - 1);
        let b = stomp_with_exclusion(&transformed, m, m - 1);
        for i in 0..a.len() {
            prop_assert!(
                (a.profile[i] - b.profile[i]).abs() < 1e-4,
                "i={}: {} vs {}", i, a.profile[i], b.profile[i]
            );
        }
    }
}
