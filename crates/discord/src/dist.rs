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
    /// Computes stats for all windows of length `m` over `series`.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `m > series.len()`.
    pub fn new(series: &[f64], m: usize) -> Self {
        assert!(m > 0, "window must be positive");
        assert!(m <= series.len(), "window longer than series");
        let ps = PrefixStats::new(series);
        Self::from_prefix(&ps, m)
    }

    /// Computes stats for all windows of length `m` from already-built
    /// prefix sums (the append path of the online monitor keeps one
    /// [`PrefixStats`] alive and rebuilds nothing).
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `m > prefix.len()`.
    pub fn from_prefix(prefix: &PrefixStats, m: usize) -> Self {
        assert!(m > 0, "window must be positive");
        assert!(m <= prefix.len(), "window longer than series");
        let mut stats = Self {
            m,
            mu: Vec::new(),
            sigma: Vec::new(),
        };
        stats.push_windows(prefix);
        stats
    }

    /// Appends statistics for the windows the series gained since these
    /// stats were built. `prefix` must be the (extended) prefix sums of
    /// the same series.
    ///
    /// Existing entries are untouched and new entries run through the
    /// identical per-window arithmetic, so the result is **bit-identical**
    /// to [`WindowStats::new`] over the full series — the parity the
    /// online monitor's finished-profile contract rests on.
    ///
    /// # Panics
    ///
    /// Panics if `prefix` covers fewer windows than already present.
    pub fn extend_from_prefix(&mut self, prefix: &PrefixStats) {
        assert!(
            window_count(prefix.len(), self.m) >= self.count(),
            "prefix sums shorter than existing stats"
        );
        self.push_windows(prefix);
    }

    /// Recomputes every window's statistics from the **rebased** prefix
    /// sums of a front-evicted series (see
    /// [`PrefixStats::rebase`](egi_tskit::stats::PrefixStats::rebase)),
    /// reusing the existing allocations.
    ///
    /// Surviving windows cover the same raw points as before the
    /// eviction, but their mean/variance are derived from prefix-sum
    /// *differences*, and the rebased sums accumulate from a different
    /// origin — so the stored values are not bitwise reusable and the
    /// whole table is recomputed (`O(window count)`). The result is
    /// **bit-identical** to [`WindowStats::new`] over the suffix, which
    /// is what the eviction paths' suffix-parity contract needs.
    ///
    /// # Panics
    ///
    /// Panics if `prefix` covers fewer points than one window.
    pub fn rebase_from_prefix(&mut self, prefix: &PrefixStats) {
        assert!(self.m <= prefix.len(), "window longer than series");
        self.mu.clear();
        self.sigma.clear();
        self.push_windows(prefix);
    }

    /// Pushes stats for windows `self.count()..window_count(prefix)`.
    fn push_windows(&mut self, prefix: &PrefixStats) {
        let m = self.m;
        let count = window_count(prefix.len(), m);
        self.mu.reserve(count - self.mu.len());
        self.sigma.reserve(count - self.sigma.len());
        for i in self.mu.len()..count {
            let mean = prefix.range_mean(i, i + m);
            let var = prefix.range_variance_population(i, i + m);
            self.mu.push(mean);
            self.sigma.push(if egi_tskit::stats::is_flat(mean, var) {
                0.0
            } else {
                var.sqrt()
            });
        }
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

    #[test]
    #[should_panic(expected = "window longer")]
    fn oversized_window_panics() {
        WindowStats::new(&[1.0, 2.0], 3);
    }

    #[test]
    fn rebase_from_prefix_is_bit_identical_to_fresh_suffix_build() {
        let full: Vec<f64> = (0..120)
            .map(|i| (i as f64 * 0.53).sin() * 3.0 + ((i * 11) % 9) as f64 * 0.07)
            .collect();
        let m = 8;
        for cut in [0usize, 1, 40, 112] {
            let mut prefix = PrefixStats::new(&full);
            let mut stats = WindowStats::from_prefix(&prefix, m);
            prefix.rebase(&full[cut..]);
            stats.rebase_from_prefix(&prefix);
            let fresh = WindowStats::new(&full[cut..], m);
            assert_eq!(stats.mu, fresh.mu, "cut {cut}");
            assert_eq!(stats.sigma, fresh.sigma, "cut {cut}");
        }
    }

    #[test]
    #[should_panic(expected = "window longer")]
    fn rebase_below_one_window_panics() {
        let full = vec![0.5; 20];
        let mut prefix = PrefixStats::new(&full);
        let mut stats = WindowStats::from_prefix(&prefix, 6);
        prefix.rebase(&full[16..]);
        stats.rebase_from_prefix(&prefix);
    }

    #[test]
    fn extend_from_prefix_is_bit_identical_to_batch() {
        let full: Vec<f64> = (0..150)
            .map(|i| (i as f64 * 0.31).sin() * 4.0 + ((i * 7) % 13) as f64 * 0.05)
            .collect();
        let m = 9;
        for split in [m, m + 1, 75, 149] {
            let mut prefix = PrefixStats::new(&full[..split]);
            let mut inc = WindowStats::from_prefix(&prefix, m);
            for chunk in full[split..].chunks(11) {
                prefix.extend(chunk);
                inc.extend_from_prefix(&prefix);
            }
            let batch = WindowStats::new(&full, m);
            assert_eq!(inc.mu, batch.mu, "split {split}");
            assert_eq!(inc.sigma, batch.sigma, "split {split}");
        }
    }
}
