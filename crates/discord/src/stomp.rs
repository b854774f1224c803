//! STOMP — the `O(N²)` matrix profile with incremental dot products
//! (Zhu et al., "Matrix Profile II", the paper's reference \[23\] and the
//! Discord baseline implementation used throughout its evaluation).
//!
//! This implementation traverses the distance matrix by **diagonals**
//! rather than rows. Along diagonal `k` (all pairs `(i, i + k)`), the dot
//! product updates in O(1):
//!
//! ```text
//! QT(i, i+k) = QT(i−1, i−1+k) − t[i−1]·t[i−1+k] + t[i+m−1]·t[i+k+m−1]
//! ```
//!
//! so each diagonal is an independent O(1)-update chain seeded from the
//! first QT row — which is computed with one FFT pass
//! ([`sliding_dot_products`], `O(N log N)`) instead of the `O(N·m)`
//! direct loop. Independence makes diagonals embarrassingly parallel,
//! so they are chunked and fanned out with rayon, each chunk folding into a
//! thread-local profile, and chunk results merge under the total order
//! *(distance, neighbor index)*. Because that merge is commutative and
//! associative, the output is **bit-identical for every thread count**
//! (pinned by a property test).
//!
//! Compared to the row-sweep formulation the diagonal kernel also
//! evaluates each unordered pair once — updating both ends — instead of
//! twice, and walks memory sequentially along both window-stat arrays.

use crate::dist::WindowStats;
use crate::fft::sliding_dot_products;
use crate::profile::{improves, MatrixProfile};
use rayon::prelude::*;

/// Default exclusion half-width: `m/2`, the usual matrix profile
/// convention (trivial matches share more than half their points).
pub fn default_exclusion(m: usize) -> usize {
    (m / 2).max(1)
}

/// One chunk of diagonals folded into a local profile.
fn process_diagonals(
    series: &[f64],
    ws: &WindowStats,
    qt_first: &[f64],
    diagonals: std::ops::Range<usize>,
    profile: &mut [f64],
    index: &mut [usize],
) {
    let count = ws.count();
    let m = ws.m;
    for k in diagonals {
        let mut qt = qt_first[k];
        for i in 0..count - k {
            let j = i + k;
            if i > 0 {
                qt += series[i + m - 1] * series[j + m - 1] - series[i - 1] * series[j - 1];
            }
            let d = ws.dist(i, j, qt);
            if improves(d, j, profile[i], index[i]) {
                profile[i] = d;
                index[i] = j;
            }
            if improves(d, i, profile[j], index[j]) {
                profile[j] = d;
                index[j] = i;
            }
        }
    }
}

/// Computes the matrix profile of `series` for window length `m` using
/// diagonal-parallel STOMP with exclusion half-width `exclusion`.
///
/// The worker count follows rayon's current configuration
/// (`ThreadPoolBuilder::install` / `RAYON_NUM_THREADS`); results are
/// identical for every worker count.
///
/// # Panics
///
/// Panics if `m == 0` or `m > series.len()`.
pub fn stomp_with_exclusion(series: &[f64], m: usize, exclusion: usize) -> MatrixProfile {
    let ws = WindowStats::new(series, m);
    let count = ws.count();
    let mut profile = vec![f64::INFINITY; count];
    let mut index = vec![usize::MAX; count];

    // Diagonals 0..=exclusion hold only self-matches; the first
    // admissible one is exclusion + 1.
    let first_diag = exclusion + 1;
    if first_diag < count {
        // Seed row: QT(0, j) for every j, by FFT instead of O(N·m)
        // direct dot products.
        let qt_first = sliding_dot_products(&series[0..m], series);

        let threads = rayon::current_num_threads();
        if threads <= 1 {
            process_diagonals(
                series,
                &ws,
                &qt_first,
                first_diag..count,
                &mut profile,
                &mut index,
            );
        } else {
            // One chunk per worker, cut so each holds ~equal *work*
            // (diagonal k has count − k cells, so equal-length chunks
            // would be badly imbalanced). Bounds the transient partial
            // profiles at O(threads · count) and keeps workers busy.
            let total_work: usize = (first_diag..count).map(|k| count - k).sum();
            let per_chunk = total_work.div_ceil(threads).max(1);
            let mut chunks: Vec<std::ops::Range<usize>> = Vec::with_capacity(threads);
            let mut start = first_diag;
            let mut acc = 0usize;
            for k in first_diag..count {
                acc += count - k;
                if acc >= per_chunk || k + 1 == count {
                    chunks.push(start..k + 1);
                    start = k + 1;
                    acc = 0;
                }
            }
            let partials: Vec<(Vec<f64>, Vec<usize>)> = chunks
                .into_par_iter()
                .map(|range| {
                    let mut local_profile = vec![f64::INFINITY; count];
                    let mut local_index = vec![usize::MAX; count];
                    process_diagonals(
                        series,
                        &ws,
                        &qt_first,
                        range,
                        &mut local_profile,
                        &mut local_index,
                    );
                    (local_profile, local_index)
                })
                .collect();
            // (distance, index)-lexicographic merge: commutative and
            // associative, hence thread-count independent.
            for (local_profile, local_index) in partials {
                for i in 0..count {
                    if improves(local_profile[i], local_index[i], profile[i], index[i]) {
                        profile[i] = local_profile[i];
                        index[i] = local_index[i];
                    }
                }
            }
        }
    }

    MatrixProfile {
        m,
        exclusion,
        profile,
        index,
    }
}

/// STOMP with the default `m/2` exclusion zone.
pub fn stomp(series: &[f64], m: usize) -> MatrixProfile {
    stomp_with_exclusion(series, m, default_exclusion(m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force;

    fn test_series(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                (t * 0.31).sin() * 2.0 + (t * 0.057).cos() + ((i * 7919) % 13) as f64 * 0.05
            })
            .collect()
    }

    #[test]
    fn matches_brute_force_exactly_enough() {
        let series = test_series(150);
        for &m in &[5usize, 8, 16] {
            let exc = m - 1;
            let fast = stomp_with_exclusion(&series, m, exc);
            let slow = brute_force(&series, m, exc);
            assert_eq!(fast.len(), slow.len());
            for i in 0..fast.len() {
                assert!(
                    (fast.profile[i] - slow.profile[i]).abs() < 1e-6,
                    "m={m} i={i}: {} vs {}",
                    fast.profile[i],
                    slow.profile[i]
                );
            }
        }
    }

    #[test]
    fn discord_found_on_planted_anomaly() {
        let mut series: Vec<f64> = (0..300)
            .map(|i| (i as f64 * std::f64::consts::TAU / 30.0).sin())
            .collect();
        // Corrupt one period.
        for v in series[150..180].iter_mut() {
            *v = 0.2;
        }
        let mp = stomp(&series, 30);
        let top = mp.discords(1)[0];
        assert!((120..=180).contains(&top.start), "discord at {}", top.start);
    }

    #[test]
    fn default_exclusion_sane() {
        assert_eq!(default_exclusion(10), 5);
        assert_eq!(default_exclusion(1), 1);
    }

    #[test]
    fn profile_of_pure_period_is_near_zero() {
        let series: Vec<f64> = (0..240)
            .map(|i| (i as f64 * std::f64::consts::TAU / 24.0).sin())
            .collect();
        let mp = stomp(&series, 24);
        // Every window repeats exactly one period away.
        let max = mp.profile.iter().cloned().fold(0.0, f64::max);
        assert!(max < 1e-4, "max profile {max}");
    }

    #[test]
    fn single_window_series() {
        let series = vec![1.0, 2.0, 3.0];
        let mp = stomp(&series, 3);
        assert_eq!(mp.len(), 1);
        assert!(mp.profile[0].is_infinite());
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let series = test_series(400);
        let m = 12;
        let reference = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(|| stomp_with_exclusion(&series, m, m / 2));
        for threads in [2usize, 3, 8] {
            let run = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| stomp_with_exclusion(&series, m, m / 2));
            assert_eq!(reference.profile, run.profile, "{threads} threads: profile");
            assert_eq!(reference.index, run.index, "{threads} threads: index");
        }
    }

    #[test]
    fn exclusion_wider_than_series_yields_all_infinite() {
        let series = test_series(40);
        let mp = stomp_with_exclusion(&series, 5, 100);
        assert!(mp.profile.iter().all(|d| d.is_infinite()));
        assert!(mp.index.iter().all(|&i| i == usize::MAX));
    }
}
