//! Z-normalized Euclidean distance machinery.
//!
//! Everything distance-based in this crate reduces to the identity
//! `d²(i, j) = 2m·(1 − (QT_{i,j} − m·μ_i·μ_j) / (m·σ_i·σ_j))` where `QT`
//! is the raw dot product of the two windows and `μ/σ` are their means and
//! *population* standard deviations. [`WindowStats`] precomputes `μ`, `σ`
//! for every window in O(N) via prefix sums.

use egi_tskit::stats::PrefixStats;
use egi_tskit::window::window_count;

/// Per-window mean and population standard deviation for a fixed window
/// length.
#[derive(Debug, Clone)]
pub struct WindowStats {
    /// Window length `m`.
    pub m: usize,
    /// `mu[i]` — mean of window starting at `i`.
    pub mu: Vec<f64>,
    /// `sigma[i]` — population stddev of window starting at `i`
    /// (0.0 for flat windows).
    pub sigma: Vec<f64>,
}

impl WindowStats {
    /// Computes stats for all windows of length `m` over `series`: one
    /// prefix-sum pass, then `O(1)` per window.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `m > series.len()`.
    ///
    /// # Examples
    ///
    /// ```
    /// use egi_discord::dist::WindowStats;
    ///
    /// let stats = WindowStats::new(&[1.0, 3.0, 3.0, 3.0, 5.0], 2);
    /// assert_eq!(stats.count(), 4);
    /// assert_eq!(stats.mu, [2.0, 3.0, 3.0, 4.0]);
    /// // Population standard deviations; the flat window [3, 3] is 0.
    /// assert_eq!(stats.sigma, [1.0, 0.0, 0.0, 1.0]);
    /// ```
    pub fn new(series: &[f64], m: usize) -> Self {
        assert!(m > 0, "window must be positive");
        assert!(m <= series.len(), "window longer than series");
        let prefix = PrefixStats::new(series);
        let (mu, sigma) = (0..window_count(series.len(), m))
            .map(|i| {
                let mean = prefix.range_mean(i, i + m);
                let var = prefix.range_variance_population(i, i + m);
                let sigma = if egi_tskit::stats::is_flat(mean, var) {
                    0.0
                } else {
                    var.sqrt()
                };
                (mean, sigma)
            })
            .unzip();
        Self { m, mu, sigma }
    }

    /// Number of windows.
    pub fn count(&self) -> usize {
        self.mu.len()
    }

    /// Z-normalized Euclidean distance between windows `i` and `j` given
    /// their raw dot product `qt`.
    ///
    /// Flat-window convention: two flat windows z-normalize to the same
    /// all-zeros vector (distance 0), while a flat vs. non-flat pair gets
    /// `√(2m)` — the distance of two *uncorrelated* windows, the neutral
    /// midpoint of the valid range `[0, 2√m]`. This keeps flat regions
    /// from ranking as either perfect matches or extreme discords.
    #[inline]
    pub fn dist(&self, i: usize, j: usize, qt: f64) -> f64 {
        let (si, sj) = (self.sigma[i], self.sigma[j]);
        if si == 0.0 && sj == 0.0 {
            return 0.0;
        }
        if si == 0.0 || sj == 0.0 {
            return (2.0 * self.m as f64).sqrt();
        }
        let m = self.m as f64;
        let corr = (qt - m * self.mu[i] * self.mu[j]) / (m * si * sj);
        // Clamp: |corr| can exceed 1 by float error.
        (2.0 * m * (1.0 - corr.clamp(-1.0, 1.0))).sqrt()
    }
}

/// Direct z-normalized Euclidean distance between two equal-length slices
/// (the test oracle; `O(m)` with explicit normalization).
pub fn znorm_euclidean(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    let mut za = a.to_vec();
    let mut zb = b.to_vec();
    egi_tskit::stats::znormalize(&mut za);
    egi_tskit::stats::znormalize(&mut zb);
    za.iter()
        .zip(&zb)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    /// The z-normalization inside `znorm_euclidean` uses the *sample*
    /// stddev while the dot-product identity uses the *population* stddev;
    /// distances therefore differ by the constant factor
    /// `√((m−1)/m)`, which cancels in all comparisons. The oracle test
    /// accounts for it explicitly.
    #[test]
    fn identity_matches_direct_distance() {
        let series: Vec<f64> = (0..60)
            .map(|i| (i as f64 * 0.9).sin() * 3.0 + i as f64 * 0.01)
            .collect();
        let m = 12;
        let ws = WindowStats::new(&series, m);
        for &(i, j) in &[(0usize, 30usize), (5, 17), (20, 40)] {
            let qt = dot(&series[i..i + m], &series[j..j + m]);
            let fast = ws.dist(i, j, qt);
            let direct = znorm_euclidean(&series[i..i + m], &series[j..j + m]);
            // direct normalizes by the sample stddev (larger by
            // √(m/(m−1))), so its distances are smaller by the inverse
            // factor; rescale up to the population convention.
            let rescaled = direct * (m as f64 / (m as f64 - 1.0)).sqrt();
            assert!(
                (fast - rescaled).abs() < 1e-6,
                "({i},{j}): fast {fast} vs direct {rescaled}"
            );
        }
    }

    #[test]
    fn self_distance_is_zero() {
        let series: Vec<f64> = (0..40).map(|i| ((i * i) as f64).sin()).collect();
        let m = 8;
        let ws = WindowStats::new(&series, m);
        for i in [0usize, 10, 32] {
            let qt = dot(&series[i..i + m], &series[i..i + m]);
            assert!(ws.dist(i, i, qt).abs() < 1e-6);
        }
    }

    #[test]
    fn identical_shape_at_different_scale_is_zero() {
        // Window j = 2 × window i + 5: identical after z-normalization.
        let base: Vec<f64> = (0..10).map(|i| (i as f64).sin()).collect();
        let mut series = base.clone();
        series.extend(base.iter().map(|v| v * 2.0 + 5.0));
        let ws = WindowStats::new(&series, 10);
        let qt = dot(&series[0..10], &series[10..20]);
        assert!(ws.dist(0, 10, qt) < 1e-6);
    }

    #[test]
    fn flat_window_conventions() {
        let mut series = vec![1.0; 10];
        series.extend((0..10).map(|i| (i as f64).sin()));
        series.extend(vec![7.0; 10]);
        let ws = WindowStats::new(&series, 10);
        // flat vs flat → 0.
        assert_eq!(ws.dist(0, 20, dot(&series[0..10], &series[20..30])), 0.0);
        // flat vs wavy → sqrt(2m).
        let d = ws.dist(0, 10, dot(&series[0..10], &series[10..20]));
        assert!((d - 20.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn stats_count() {
        let series = vec![0.0; 100];
        let ws = WindowStats::new(&series, 10);
        assert_eq!(ws.count(), 91);
        assert!(ws.sigma.iter().all(|&s| s == 0.0));
    }

    /// Every window's mean and population standard deviation, against
    /// a direct two-pass computation over the window, from the shortest
    /// non-trivial window up to one spanning the whole series.
    #[test]
    fn stats_match_direct_window_moments() {
        let series: Vec<f64> = (0..70)
            .map(|i| (i as f64 * 0.7).sin() * 2.5 + ((i * 13) % 5) as f64 * 0.3 - 4.0)
            .collect();
        for m in [2usize, 9, 70] {
            let ws = WindowStats::new(&series, m);
            assert_eq!(ws.count(), series.len() - m + 1);
            for (i, window) in series.windows(m).enumerate() {
                let mean = window.iter().sum::<f64>() / m as f64;
                let var = window.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / m as f64;
                assert!((ws.mu[i] - mean).abs() < 1e-12, "m={m} i={i} mean");
                assert!((ws.sigma[i] - var.sqrt()).abs() < 1e-9, "m={m} i={i} sigma");
            }
        }
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        WindowStats::new(&[1.0, 2.0], 0);
    }

    #[test]
    #[should_panic(expected = "window longer")]
    fn oversized_window_panics() {
        WindowStats::new(&[1.0, 2.0], 3);
    }
}
