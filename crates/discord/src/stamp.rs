//! STAMP — the anytime matrix profile (Yeh et al., the paper's reference
//! \[21\]): one MASS distance profile per query window, `O(N² log N)` total.
//!
//! Slower asymptotically than STOMP but embarrassingly simple and anytime
//! (profiles converge monotonically as more queries are processed); we use
//! it as a cross-check of STOMP and in the matrix profile ablation bench.
//!
//! The production path runs on [`MassPrecomputed`]: the series spectrum
//! is transformed once and every query is answered against it with two
//! half-size real transforms, instead of re-transforming the series per
//! query. [`stamp_per_query_fft`] preserves the naive
//! one-`sliding_dot_products`-call-per-query path as the executable
//! specification, a test oracle only; the two are pinned to agree to
//! 1e-9 by the property tests.

use crate::dist::WindowStats;
use crate::mass::{mass_self, MassPrecomputed, MassScratch};
use crate::profile::{improves, MatrixProfile};
use crate::stomp::default_exclusion;

/// Computes the matrix profile via STAMP with exclusion half-width
/// `exclusion`, on the shared-spectrum MASS path.
pub fn stamp_with_exclusion(series: &[f64], m: usize, exclusion: usize) -> MatrixProfile {
    let mass = MassPrecomputed::new(series, m);
    let count = mass.window_count();
    let mut profile = vec![f64::INFINITY; count];
    let mut index = vec![usize::MAX; count];
    let mut scratch = MassScratch::default();
    let mut dp = Vec::new();
    for q in 0..count {
        mass.distance_profile_into(q, &mut scratch, &mut dp);
        update_from_profile(q, &dp, exclusion, &mut profile, &mut index);
    }
    MatrixProfile {
        m,
        exclusion,
        profile,
        index,
    }
}

/// STAMP with the default `m/2` exclusion zone.
pub fn stamp(series: &[f64], m: usize) -> MatrixProfile {
    stamp_with_exclusion(series, m, default_exclusion(m))
}

/// The pre-shared-spectrum STAMP: every query re-transforms the full
/// series (three full-size FFTs per query via
/// [`crate::fft::sliding_dot_products`]). Kept as the executable
/// specification the property tests check the shared-spectrum path
/// against.
pub fn stamp_per_query_fft(series: &[f64], m: usize, exclusion: usize) -> MatrixProfile {
    let ws = WindowStats::new(series, m);
    let count = ws.count();
    let mut profile = vec![f64::INFINITY; count];
    let mut index = vec![usize::MAX; count];
    for q in 0..count {
        let dp = mass_self(series, q, &ws);
        update_from_profile(q, &dp, exclusion, &mut profile, &mut index);
    }
    MatrixProfile {
        m,
        exclusion,
        profile,
        index,
    }
}

/// Folds one query's distance profile into the running matrix profile,
/// updating both ends of every admissible pair under the shared
/// [`improves`] rule.
///
/// The `(distance, index)` tie-break matters here: with a strict `<`
/// fold, the index vector would depend on the order queries are
/// processed in (ties keep whichever query arrived first) — breaking
/// the anytime/parallel STAMP contract and disagreeing with STOMP on
/// exact ties. The lexicographic fold is order-independent, so STAMP,
/// anytime STAMP in any permutation, and parallel STAMP at any thread
/// count all land on the same index vector. Shared with the streaming
/// monitor, which runs anytime and parallel STAMP
/// ([`crate::streaming`]).
pub(crate) fn update_from_profile(
    q: usize,
    dp: &[f64],
    exclusion: usize,
    profile: &mut [f64],
    index: &mut [usize],
) {
    for (j, &d) in dp.iter().enumerate() {
        if q.abs_diff(j) <= exclusion {
            continue;
        }
        // Update both ends: d(q, j) bounds profile[q] and profile[j].
        if improves(d, j, profile[q], index[q]) {
            profile[q] = d;
            index[q] = j;
        }
        if improves(d, q, profile[j], index[j]) {
            profile[j] = d;
            index[j] = q;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force;
    use crate::stomp::stomp_with_exclusion;

    fn test_series(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                (t * 0.21).sin() + 0.5 * (t * 0.07).cos() + ((i * 31) % 7) as f64 * 0.1
            })
            .collect()
    }

    #[test]
    fn stamp_matches_brute_force() {
        let series = test_series(120);
        let m = 10;
        let exc = m - 1;
        let fast = stamp_with_exclusion(&series, m, exc);
        let slow = brute_force(&series, m, exc);
        for i in 0..fast.len() {
            assert!(
                (fast.profile[i] - slow.profile[i]).abs() < 1e-6,
                "i={i}: {} vs {}",
                fast.profile[i],
                slow.profile[i]
            );
        }
    }

    #[test]
    fn stamp_matches_stomp() {
        let series = test_series(200);
        for &m in &[6usize, 12] {
            let a = stamp_with_exclusion(&series, m, m / 2);
            let b = stomp_with_exclusion(&series, m, m / 2);
            for i in 0..a.len() {
                assert!(
                    (a.profile[i] - b.profile[i]).abs() < 1e-6,
                    "m={m} i={i}: {} vs {}",
                    a.profile[i],
                    b.profile[i]
                );
            }
        }
    }

    #[test]
    fn shared_spectrum_matches_per_query_fft() {
        let series = test_series(250);
        for &m in &[5usize, 16] {
            let fast = stamp_with_exclusion(&series, m, m / 2);
            let naive = stamp_per_query_fft(&series, m, m / 2);
            assert_eq!(fast.index, naive.index);
            for i in 0..fast.len() {
                assert!(
                    (fast.profile[i] - naive.profile[i]).abs() < 1e-9,
                    "m={m} i={i}: {} vs {}",
                    fast.profile[i],
                    naive.profile[i]
                );
            }
        }
    }

    /// Exact distance ties (flat windows pair at exactly 0.0) must
    /// resolve to the same neighbor index in STAMP and STOMP: the
    /// smallest admissible index, per the shared `improves` rule. The
    /// old strict-`<` fold kept whichever query was processed first,
    /// so STAMP's index vector silently depended on query order.
    #[test]
    fn exact_ties_resolve_to_smallest_index() {
        // Three flat plateaus separated by wavy filler: every pair of
        // fully-flat windows is at distance exactly 0.0.
        let mut series = Vec::new();
        series.extend(std::iter::repeat_n(1.0, 8));
        series.extend((0..8).map(|i| (i as f64 * 0.9).sin()));
        series.extend(std::iter::repeat_n(5.0, 8));
        series.extend((0..8).map(|i| (i as f64 * 1.3).cos()));
        series.extend(std::iter::repeat_n(2.0, 8));
        let m = 4;
        let exc = m / 2;
        let a = stamp_with_exclusion(&series, m, exc);
        let b = stomp_with_exclusion(&series, m, exc);
        let tied: Vec<usize> = (0..a.len()).filter(|&i| b.profile[i] == 0.0).collect();
        assert!(tied.len() > 3, "expected several exact ties, got {tied:?}");
        let ws = WindowStats::new(&series, m);
        for &i in &tied {
            assert_eq!(a.profile[i], 0.0, "window {i}");
            assert_eq!(
                a.index[i], b.index[i],
                "window {i}: STAMP picked {} but STOMP picked {}",
                a.index[i], b.index[i]
            );
            // The winner is the *smallest* admissible index at distance 0.
            for j in 0..a.len() {
                if i.abs_diff(j) > exc && j < a.index[i] {
                    let flat_pair = ws.sigma[i] == 0.0 && ws.sigma[j] == 0.0;
                    assert!(
                        !flat_pair,
                        "window {i}: {j} ties at 0.0 but lost to {}",
                        a.index[i]
                    );
                }
            }
        }
    }

    #[test]
    fn stamp_default_wrapper() {
        let series = test_series(60);
        let mp = stamp(&series, 8);
        assert_eq!(mp.len(), 53);
        assert_eq!(mp.exclusion, 4);
    }
}
