//! Z-normalized Euclidean distance on centered window statistics.
//!
//! The matrix-profile kernel ([`mod@crate::stomp`]) works on *centered*
//! quantities, as MPX does (Zimmerman et al., "Matrix Profile XIV",
//! SoCC 2019). Window `i` has its mean `μ_i` and its inverse centered
//! norm `1/‖x_i − μ_i‖`; a pair's correlation is its centered covariance
//! `c(i, j) = Σ (x_i − μ_i)(x_j − μ_j)` times both inverse norms, and its
//! distance is `d = √(2m·(1 − corr))`.
//!
//! [`WindowStats`] computes every entry directly over the points it
//! describes, so an entry depends on those points alone and never on
//! the rest of the series. Appending points extends the stats and
//! evicting points drains their front, and either way the result is bit
//! for bit what a fresh [`WindowStats::new`] over the live series
//! computes.

use egi_tskit::stats::is_flat;

/// Per-window centered statistics for a fixed window length `m`, plus
/// MPX's per-slide terms that walk a covariance down a diagonal.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowStats {
    /// Window length `m`.
    pub m: usize,
    /// `mu[i]` — mean of the window starting at `i`.
    pub mu: Vec<f64>,
    /// `inv_norm[i]` — `1/‖x_i − μ_i‖`, or 0.0 for a flat window.
    pub inv_norm: Vec<f64>,
    /// `flat[i]` — the window is numerically constant
    /// ([`egi_tskit::stats::is_flat`] on its mean and population
    /// variance).
    pub flat: Vec<bool>,
    /// `df[t] = (x[t+m] − x[t]) / 2`: half the change of the point
    /// entering and the point leaving as the window slides from `t` to
    /// `t + 1`. One entry fewer than there are windows.
    pub df: Vec<f64>,
    /// `dg[t] = (x[t+m] − μ[t+1]) + (x[t] − μ[t])`, the other factor of
    /// that slide: `c(i+1, j+1) = c(i, j) + df[i]·dg[j] + df[j]·dg[i]`.
    pub dg: Vec<f64>,
}

impl WindowStats {
    /// Computes the stats of every window of length `m` over `series`,
    /// each directly over its own points: `O(N·m)`.
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
    /// // ‖[1, 3] − 2‖ = √2; the constant window [3, 3] is flat.
    /// assert_eq!(stats.flat, [false, true, true, false]);
    /// assert_eq!(stats.inv_norm[1], 0.0);
    /// assert!((stats.inv_norm[0] - 0.5f64.sqrt()).abs() < 1e-15);
    /// ```
    pub fn new(series: &[f64], m: usize) -> Self {
        assert!(m > 0, "window must be positive");
        assert!(m <= series.len(), "window longer than series");
        let mut stats = Self::empty(m);
        stats.extend(series);
        stats
    }

    /// Stats of no window yet, for window length `m`.
    pub(crate) fn empty(m: usize) -> Self {
        Self {
            m,
            mu: Vec::new(),
            inv_norm: Vec::new(),
            flat: Vec::new(),
            df: Vec::new(),
            dg: Vec::new(),
        }
    }

    /// Number of windows.
    pub fn count(&self) -> usize {
        self.mu.len()
    }

    /// Extends the stats to every window of `series`, whose first
    /// points are the ones the existing entries were computed over:
    /// `O(m)` per new window.
    pub(crate) fn extend(&mut self, series: &[f64]) {
        let m = self.m;
        for window in series[self.count()..].windows(m) {
            let mean = window.iter().sum::<f64>() / m as f64;
            let ss = window.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>();
            let flat = is_flat(mean, ss / m as f64);
            self.mu.push(mean);
            self.flat.push(flat);
            self.inv_norm.push(if flat { 0.0 } else { 1.0 / ss.sqrt() });
        }
        for t in self.df.len()..self.count().saturating_sub(1) {
            let (leaving, entering) = (series[t], series[t + m]);
            self.df.push((entering - leaving) / 2.0);
            self.dg
                .push((entering - self.mu[t + 1]) + (leaving - self.mu[t]));
        }
    }

    /// Drops the entries of the windows that start among the first
    /// `points` points, after those points left the front of the
    /// series.
    pub(crate) fn evict_front(&mut self, points: usize) {
        let windows = points.min(self.count());
        self.mu.drain(..windows);
        self.inv_norm.drain(..windows);
        self.flat.drain(..windows);
        let slides = points.min(self.df.len());
        self.df.drain(..slides);
        self.dg.drain(..slides);
    }

    /// The centered covariance `c(i, j)` of windows `i` and `j` of
    /// `series`, computed directly over their points: the seed of the
    /// diagonal through `(i, j)`.
    pub fn centered_dot(&self, series: &[f64], i: usize, j: usize) -> f64 {
        let (mi, mj) = (self.mu[i], self.mu[j]);
        series[i..i + self.m]
            .iter()
            .zip(&series[j..j + self.m])
            .map(|(x, y)| (x - mi) * (y - mj))
            .sum()
    }

    /// Z-normalized Euclidean distance between windows `i` and `j`
    /// given their centered covariance `cov`.
    ///
    /// Flat-window convention: two flat windows z-normalize to the same
    /// all-zeros vector (distance 0), while a flat vs. non-flat pair gets
    /// `√(2m)` — the distance of two *uncorrelated* windows, the neutral
    /// midpoint of the valid range `[0, 2√m]`. This keeps flat regions
    /// from ranking as either perfect matches or extreme discords.
    #[inline]
    pub fn dist(&self, i: usize, j: usize, cov: f64) -> f64 {
        let two_m = 2.0 * self.m as f64;
        match (self.flat[i], self.flat[j]) {
            (true, true) => 0.0,
            (true, false) | (false, true) => two_m.sqrt(),
            (false, false) => {
                let corr = cov * self.inv_norm[i] * self.inv_norm[j];
                // Clamp: |corr| can exceed 1 by float error.
                (two_m * (1.0 - corr.clamp(-1.0, 1.0))).sqrt()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The distance of two windows computed straight from the
    /// definition: z-normalize both with their population standard
    /// deviation, then take the Euclidean norm of the difference.
    fn direct(a: &[f64], b: &[f64]) -> f64 {
        let z = |w: &[f64]| {
            let mean = w.iter().sum::<f64>() / w.len() as f64;
            let sd =
                (w.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / w.len() as f64).sqrt();
            w.iter().map(|x| (x - mean) / sd).collect::<Vec<_>>()
        };
        z(a).iter()
            .zip(&z(b))
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt()
    }

    #[test]
    fn identity_matches_direct_distance() {
        let series: Vec<f64> = (0..60)
            .map(|i| (i as f64 * 0.9).sin() * 3.0 + i as f64 * 0.01)
            .collect();
        let m = 12;
        let ws = WindowStats::new(&series, m);
        for &(i, j) in &[(0usize, 30usize), (5, 17), (20, 40)] {
            let fast = ws.dist(i, j, ws.centered_dot(&series, i, j));
            let slow = direct(&series[i..i + m], &series[j..j + m]);
            assert!((fast - slow).abs() < 1e-9, "({i},{j}): {fast} vs {slow}");
        }
    }

    /// One slide of MPX's update carries the covariance of `(i, j)` to
    /// `(i + 1, j + 1)`: it matches the direct centered dot product.
    #[test]
    fn slide_update_matches_the_direct_covariance() {
        let series: Vec<f64> = (0..80)
            .map(|i| (i as f64 * 0.37).sin() * 4.0 + ((i * 11) % 7) as f64 * 0.2 + 50.0)
            .collect();
        let m = 9;
        let ws = WindowStats::new(&series, m);
        for (i, j) in [(0usize, 20usize), (13, 40), (30, 70)] {
            let stepped =
                ws.centered_dot(&series, i, j) + ws.df[i] * ws.dg[j] + ws.df[j] * ws.dg[i];
            let direct = ws.centered_dot(&series, i + 1, j + 1);
            assert!(
                (stepped - direct).abs() < 1e-9,
                "({i},{j}): {stepped} vs {direct}"
            );
        }
    }

    #[test]
    fn self_distance_is_zero() {
        let series: Vec<f64> = (0..40).map(|i| ((i * i) as f64).sin()).collect();
        let ws = WindowStats::new(&series, 8);
        for i in [0usize, 10, 32] {
            assert!(ws.dist(i, i, ws.centered_dot(&series, i, i)).abs() < 1e-6);
        }
    }

    #[test]
    fn identical_shape_at_different_scale_is_zero() {
        // Window j = 2 × window i + 5: identical after z-normalization.
        let base: Vec<f64> = (0..10).map(|i| (i as f64).sin()).collect();
        let mut series = base.clone();
        series.extend(base.iter().map(|v| v * 2.0 + 5.0));
        let ws = WindowStats::new(&series, 10);
        assert!(ws.dist(0, 10, ws.centered_dot(&series, 0, 10)) < 1e-6);
    }

    #[test]
    fn flat_window_conventions() {
        let mut series = vec![1.0; 10];
        series.extend((0..10).map(|i| (i as f64).sin()));
        series.extend(vec![7.0; 10]);
        let ws = WindowStats::new(&series, 10);
        // flat vs flat → 0.
        assert_eq!(ws.dist(0, 20, ws.centered_dot(&series, 0, 20)), 0.0);
        // flat vs wavy → sqrt(2m).
        let d = ws.dist(0, 10, ws.centered_dot(&series, 0, 10));
        assert!((d - 20.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn stats_count() {
        let series = vec![0.0; 100];
        let ws = WindowStats::new(&series, 10);
        assert_eq!(ws.count(), 91);
        assert_eq!((ws.df.len(), ws.dg.len()), (90, 90));
        assert!(ws.flat.iter().all(|&f| f));
        assert!(ws.inv_norm.iter().all(|&s| s == 0.0));
    }

    /// Every window's mean and inverse centered norm, against a direct
    /// two-pass computation over the window, from the shortest
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
                let ss = window.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>();
                assert!((ws.mu[i] - mean).abs() < 1e-12, "m={m} i={i} mean");
                assert!(
                    (ws.inv_norm[i] * ss.sqrt() - 1.0).abs() < 1e-12,
                    "m={m} i={i}"
                );
            }
        }
    }

    /// Extending over appended points and draining evicted ones lands,
    /// bit for bit, on the stats of the live series computed afresh.
    #[test]
    fn extend_and_evict_front_match_a_fresh_computation() {
        let series: Vec<f64> = (0..120)
            .map(|i| (i as f64 * 0.41).cos() * 7.0 + ((i * 5) % 9) as f64 - 3e3)
            .collect();
        let m = 7;
        let mut live = WindowStats::empty(m);
        let (mut start, mut end) = (0, 0);
        for (append, evict) in [(3, 0), (20, 0), (1, 5), (40, 0), (0, 30), (56, 50), (0, 15)] {
            end += append;
            live.extend(&series[start..end]);
            start += evict;
            live.evict_front(evict);
            live.extend(&series[start..end]);
            let mut fresh = WindowStats::empty(m);
            fresh.extend(&series[start..end]);
            assert_eq!(live, fresh, "live points {start}..{end}");
        }
        assert_eq!((start, end), (100, 120));
    }

    #[test]
    fn evict_front_past_every_window_empties_the_stats() {
        let series = [1.0, 4.0, 2.0, 8.0, 5.0, 7.0];
        let mut ws = WindowStats::new(&series, 3);
        ws.evict_front(5);
        assert_eq!(ws, WindowStats::empty(3));
        ws.extend(&[]);
        assert_eq!(ws.count(), 0);
    }

    /// Until a full window has arrived there is nothing to compute;
    /// the window that completes it then gets its stats.
    #[test]
    fn extend_before_a_full_window_adds_nothing() {
        let mut ws = WindowStats::empty(4);
        ws.extend(&[1.0, 2.0, 3.0]);
        assert_eq!(ws, WindowStats::empty(4));
        ws.extend(&[1.0, 2.0, 3.0, 6.0]);
        assert_eq!(ws, WindowStats::new(&[1.0, 2.0, 3.0, 6.0], 4));
        assert_eq!((ws.count(), ws.df.len()), (1, 0));
    }

    /// A covariance past the product of the norms (rounding can put it
    /// there) clamps to the nearest valid distance instead of a NaN.
    #[test]
    fn dist_clamps_a_correlation_past_one() {
        let series = [1.0, 3.0, 2.0, 5.0, 4.0, 0.0, 2.0, 6.0];
        let ws = WindowStats::new(&series, 4);
        let bound = 1.0 / (ws.inv_norm[0] * ws.inv_norm[4]);
        assert_eq!(ws.dist(0, 4, bound * (1.0 + 1e-12)), 0.0);
        // Correlation −1: 2√m at m = 4.
        assert_eq!(ws.dist(0, 4, -bound * (1.0 + 1e-12)), 2.0 * 4f64.sqrt());
    }

    #[test]
    fn dist_is_symmetric() {
        let series: Vec<f64> = (0..50)
            .map(|i| (i as f64 * 0.61).cos() * 2.0 + 1.0)
            .collect();
        let ws = WindowStats::new(&series, 7);
        for (i, j) in [(0, 9), (3, 40), (12, 25)] {
            let (a, b) = (
                ws.centered_dot(&series, i, j),
                ws.centered_dot(&series, j, i),
            );
            assert_eq!(a, b);
            assert_eq!(ws.dist(i, j, a), ws.dist(j, i, b));
        }
    }

    /// The inverse norm normalizes a window's covariance with itself to
    /// a correlation of 1.
    #[test]
    fn inverse_norm_normalizes_the_self_covariance() {
        let series: Vec<f64> = (0..40)
            .map(|i| (i as f64 * 0.9).sin() * 5.0 - 20.0)
            .collect();
        let ws = WindowStats::new(&series, 9);
        for i in [0, 11, 31] {
            let corr = ws.centered_dot(&series, i, i) * ws.inv_norm[i] * ws.inv_norm[i];
            assert!((corr - 1.0).abs() < 1e-12, "window {i}: {corr}");
        }
    }

    /// Flatness is [`is_flat`] on the window's own mean and population
    /// variance: the same small wiggle is flat far from zero and not
    /// near it.
    #[test]
    fn flatness_is_relative_to_the_window_mean() {
        let wiggle = [0.0, 1e-4, 0.0, -1e-4];
        let near_zero: Vec<f64> = wiggle.to_vec();
        let far: Vec<f64> = wiggle.iter().map(|v| v + 1e5).collect();
        assert_eq!(WindowStats::new(&near_zero, 4).flat, [false]);
        assert_eq!(WindowStats::new(&far, 4).flat, [true]);
        assert_eq!(WindowStats::new(&far, 4).inv_norm, [0.0]);
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
