//! Brute-force matrix profile — the `O(N²·m)` oracle the kernel is
//! validated against.
//!
//! It shares no arithmetic with the kernel: every pair's distance is
//! computed from the definition, by z-normalizing both windows and
//! taking the Euclidean norm of their difference.

use crate::profile::MatrixProfile;
use egi_tskit::stats::is_flat;

/// The z-normalized Euclidean distance of two equal-length windows,
/// straight from the definition: each window is centered on its mean
/// and divided by its population standard deviation, then the
/// differences are summed. Flat windows (by
/// [`egi_tskit::stats::is_flat`]) follow the kernel's conventions: two
/// flat windows are at 0, a flat and a non-flat one at `√(2m)`.
///
/// # Panics
///
/// Panics if the windows differ in length.
pub fn znormalized_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    let m = a.len() as f64;
    let moments = |w: &[f64]| {
        let mean = w.iter().sum::<f64>() / m;
        let var = w.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / m;
        (mean, var.sqrt(), is_flat(mean, var))
    };
    let ((ma, sa, flat_a), (mb, sb, flat_b)) = (moments(a), moments(b));
    match (flat_a, flat_b) {
        (true, true) => 0.0,
        (true, false) | (false, true) => (2.0 * m).sqrt(),
        (false, false) => a
            .iter()
            .zip(b)
            .map(|(x, y)| {
                let d = (x - ma) / sa - (y - mb) / sb;
                d * d
            })
            .sum::<f64>()
            .sqrt(),
    }
}

/// Computes the exact matrix profile pair by pair with
/// [`znormalized_distance`].
///
/// `exclusion` is the self-match half-width: windows `j` with
/// `|i − j| ≤ exclusion` are not considered neighbors of `i`. The discord
/// literature's "non-self match" corresponds to `exclusion = m − 1`
/// (no overlap); matrix profile implementations conventionally use `m/2`
/// or `m/4`. Ties go to the smallest neighbor index.
pub fn brute_force(series: &[f64], m: usize, exclusion: usize) -> MatrixProfile {
    assert!(m > 0, "window must be positive");
    assert!(m <= series.len(), "window longer than series");
    let count = series.len() + 1 - m;
    let mut profile = vec![f64::INFINITY; count];
    let mut index = vec![usize::MAX; count];
    for i in 0..count {
        for j in 0..count {
            if i.abs_diff(j) <= exclusion {
                continue;
            }
            let d = znormalized_distance(&series[i..i + m], &series[j..j + m]);
            if d < profile[i] {
                profile[i] = d;
                index[i] = j;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_series_has_zero_profile() {
        // Two exact copies of a motif: every window has an exact match.
        let motif: Vec<f64> = (0..20).map(|i| (i as f64 * 0.8).sin()).collect();
        let mut series = motif.clone();
        series.extend(&motif);
        let mp = brute_force(&series, 8, 7);
        // Windows in the first copy match the corresponding window in the
        // second copy exactly.
        for i in 0..10 {
            assert!(mp.profile[i] < 1e-6, "window {i}: {}", mp.profile[i]);
            assert_eq!(mp.index[i], i + 20);
        }
    }

    #[test]
    fn profile_is_symmetric_in_distance() {
        let series: Vec<f64> = (0..40).map(|i| ((i * i) as f64 * 0.1).sin()).collect();
        let mp = brute_force(&series, 6, 5);
        // d(i, index[i]) must equal profile[i]; and profile[index[i]] ≤
        // profile[i] is NOT required, but index must respect exclusion.
        for i in 0..mp.len() {
            if mp.index[i] != usize::MAX {
                assert!(i.abs_diff(mp.index[i]) > 5);
            }
        }
    }

    #[test]
    fn planted_outlier_has_max_profile() {
        // Repeating sine with one corrupted window.
        let mut series: Vec<f64> = (0..120)
            .map(|i| (i as f64 * std::f64::consts::TAU / 12.0).sin())
            .collect();
        for (off, v) in series[60..72].iter_mut().enumerate() {
            *v = if off % 2 == 0 { 2.5 } else { -2.5 };
        }
        let m = 12;
        let mp = brute_force(&series, m, m - 1);
        let top = mp.discords(1)[0];
        assert!(
            (48..=72).contains(&top.start),
            "discord at {} not at planted outlier",
            top.start
        );
    }

    #[test]
    fn znormalized_distance_follows_the_flat_conventions() {
        let (flat_a, flat_b) = ([3.0; 5], [-7.5; 5]);
        let wavy = [1.0, 4.0, 2.0, 0.0, 3.0];
        assert_eq!(znormalized_distance(&flat_a, &flat_b), 0.0);
        assert_eq!(znormalized_distance(&flat_a, &wavy), 10f64.sqrt());
        assert_eq!(znormalized_distance(&wavy, &flat_b), 10f64.sqrt());
    }

    /// Symmetric, zero against itself or a rescaled copy, and `2√m`
    /// against its own negation (correlation −1).
    #[test]
    fn znormalized_distance_is_a_shape_distance() {
        let a = [1.0, 4.0, 2.0, 0.0, 3.0, 5.0];
        let b = [2.0, 2.5, 0.0, 1.0, 7.0, 3.0];
        assert_eq!(znormalized_distance(&a, &b), znormalized_distance(&b, &a));
        assert_eq!(znormalized_distance(&a, &a), 0.0);
        let rescaled: Vec<f64> = a.iter().map(|v| v * 3.0 - 11.0).collect();
        assert!(znormalized_distance(&a, &rescaled) < 1e-12);
        let negated: Vec<f64> = a.iter().map(|v| -v).collect();
        let d = znormalized_distance(&a, &negated);
        assert!((d - 2.0 * 6f64.sqrt()).abs() < 1e-12, "{d}");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn znormalized_distance_rejects_unequal_lengths() {
        znormalized_distance(&[1.0, 2.0, 3.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "window longer than series")]
    fn brute_force_rejects_a_window_longer_than_the_series() {
        brute_force(&[1.0, 2.0, 3.0], 4, 1);
    }

    #[test]
    fn exclusion_equal_everything_gives_infinite_profile() {
        let series = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mp = brute_force(&series, 2, 10);
        assert!(mp.profile.iter().all(|d| d.is_infinite()));
        assert!(mp.discords(1).is_empty());
    }
}
