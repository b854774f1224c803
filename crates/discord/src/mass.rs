//! MASS — Mueen's Algorithm for Similarity Search.
//!
//! Computes the full distance profile of one query window against every
//! window of a series in `O(N log N)`: sliding dot products via FFT, then
//! the z-normalized distance identity per window.
//!
//! Two paths are provided:
//!
//! * [`mass_self`] — the straightforward per-call path: every invocation
//!   transforms the full series again. Kept as the executable
//!   specification, a test oracle only.
//! * [`MassPrecomputed`] — the shared-spectrum path: the series is padded
//!   and transformed **once** at construction; each query then costs one
//!   forward and one inverse *half-size real* transform against the
//!   cached spectrum, instead of the three full transforms the naive
//!   path pays. STAMP, STOMP's seed row and the streaming monitor run
//!   through this. An engine is immutable: a caller whose series
//!   changes builds a new one over it.

use std::sync::Arc;

use crate::dist::WindowStats;
use crate::fft::{
    c_conj, c_mul, cached_real_plan, next_pow2, sliding_dot_products, Complex, RealFftPlan,
};

/// Distance profile of `series[q..q+m]` against all windows of `series`.
///
/// `stats` must have been built for the same series and window length.
/// No exclusion is applied; callers mask self-matches.
pub fn mass_self(series: &[f64], q: usize, stats: &WindowStats) -> Vec<f64> {
    let m = stats.m;
    let query = &series[q..q + m];
    let qts = sliding_dot_products(query, series);
    qts.iter()
        .enumerate()
        .map(|(j, &qt)| stats.dist(q, j, qt))
        .collect()
}

/// Reusable per-query buffers for [`MassPrecomputed`], so a query loop
/// (STAMP) allocates nothing after warm-up.
#[derive(Debug, Default, Clone)]
pub struct MassScratch {
    padded: Vec<f64>,
    spec: Vec<Complex>,
    fft: Vec<Complex>,
    corr: Vec<f64>,
}

/// Shared-spectrum MASS: one series transform amortized over all
/// queries.
///
/// Construction pads the series to the next power of two, runs a single
/// packed-real forward FFT (on the process-wide plan from
/// [`cached_real_plan`], shared with every other caller at that size),
/// and caches the spectrum plus the per-window statistics. [`MassPrecomputed::distance_profile_into`] then answers
/// each self-join query with one half-size forward transform of the
/// padded query, a pointwise conjugate multiply against the cached
/// spectrum, and one half-size inverse transform — the cross-correlation
/// theorem — followed by the `O(1)`-per-window distance identity.
///
/// An FFT's rounding depends on its transform length and on the whole
/// buffer, so a query's answer is a function of the series the engine
/// was built over. [`crate::streaming::StreamingDiscordMonitor`] keeps
/// that contract by building a fresh engine over its live series after
/// every append and eviction.
///
/// # Examples
///
/// ```
/// use egi_discord::mass::MassPrecomputed;
///
/// let series: Vec<f64> = (0..64).map(|i| (i as f64 * 0.4).sin()).collect();
/// let mass = MassPrecomputed::new(&series, 8);
/// let profile = mass.distance_profile(10);
/// assert_eq!(profile.len(), mass.window_count());
/// assert!(profile[10].abs() < 1e-6); // self-distance is ~0
/// ```
#[derive(Debug, Clone)]
pub struct MassPrecomputed {
    series: Vec<f64>,
    m: usize,
    size: usize,
    plan: Arc<RealFftPlan>,
    series_spec: Vec<Complex>,
    stats: WindowStats,
}

impl MassPrecomputed {
    /// Builds the cached spectrum and window statistics for self-join
    /// queries of length `m`: one `O(N)` statistics pass and one
    /// `O(S log S)` forward transform at the padded size `S`.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `m > series.len()`.
    pub fn new(series: &[f64], m: usize) -> Self {
        let stats = WindowStats::new(series, m);
        let size = next_pow2(series.len()).max(2);
        let plan = cached_real_plan(size);
        let mut padded = vec![0.0; size];
        padded[..series.len()].copy_from_slice(series);
        let mut series_spec = Vec::new();
        plan.forward_into(&padded, &mut series_spec, &mut Vec::new());
        Self {
            series: series.to_vec(),
            m,
            size,
            plan,
            series_spec,
            stats,
        }
    }

    /// Window length `m`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Number of sliding windows (profile length).
    pub fn window_count(&self) -> usize {
        self.stats.count()
    }

    /// Padded transform size `S`: the series length's next power of
    /// two (at least 2). The per-query cost scales with it.
    pub fn padded_size(&self) -> usize {
        self.size
    }

    /// The cached per-window statistics.
    pub fn stats(&self) -> &WindowStats {
        &self.stats
    }

    /// The underlying series.
    pub fn series(&self) -> &[f64] {
        &self.series
    }

    /// Sliding dot products of window `q` against every window, written
    /// into `out` (cleared and filled to [`window_count`] values).
    ///
    /// [`window_count`]: MassPrecomputed::window_count
    ///
    /// # Panics
    ///
    /// Panics if `q` is not a valid window start.
    pub fn sliding_dots_into(&self, q: usize, scratch: &mut MassScratch, out: &mut Vec<f64>) {
        let count = self.window_count();
        assert!(q < count, "query start {q} out of range ({count} windows)");
        let query = &self.series[q..q + self.m];
        scratch.padded.clear();
        scratch.padded.resize(self.size, 0.0);
        scratch.padded[..self.m].copy_from_slice(query);
        self.plan
            .forward_into(&scratch.padded, &mut scratch.spec, &mut scratch.fft);
        // Cross-correlation: IDFT(conj(Q) · S); lags 0 ..= n − m are
        // untouched by the circular wrap. Same c_mul/c_conj as
        // `sliding_dot_products`, so the two paths stay bit-identical.
        for (qs, ss) in scratch.spec.iter_mut().zip(&self.series_spec) {
            *qs = c_mul(c_conj(*qs), *ss);
        }
        self.plan
            .inverse_into(&scratch.spec, &mut scratch.corr, &mut scratch.fft);
        out.clear();
        out.extend_from_slice(&scratch.corr[..count]);
    }

    /// Distance profile of window `q` against every window, written into
    /// `out`. Matches [`mass_self`] to ~1e-9 (the property tests pin the
    /// two paths together). No exclusion is applied.
    pub fn distance_profile_into(&self, q: usize, scratch: &mut MassScratch, out: &mut Vec<f64>) {
        egi_obs::counter!("egi_mass_exact_queries_total").inc();
        self.sliding_dots_into(q, scratch, out);
        for (j, qt) in out.iter_mut().enumerate() {
            *qt = self.stats.dist(q, j, *qt);
        }
    }

    /// Allocating convenience wrapper over
    /// [`MassPrecomputed::distance_profile_into`].
    pub fn distance_profile(&self, q: usize) -> Vec<f64> {
        let mut scratch = MassScratch::default();
        let mut out = Vec::new();
        self.distance_profile_into(q, &mut scratch, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::znorm_euclidean;

    #[test]
    fn self_profile_has_zero_at_query() {
        let series: Vec<f64> = (0..100)
            .map(|i| (i as f64 * 0.37).sin() + 0.1 * (i as f64 * 1.7).cos())
            .collect();
        let m = 10;
        let stats = WindowStats::new(&series, m);
        let dp = mass_self(&series, 25, &stats);
        assert_eq!(dp.len(), 91);
        assert!(dp[25].abs() < 1e-6, "self distance {}", dp[25]);
    }

    #[test]
    fn profile_matches_direct_distances() {
        let series: Vec<f64> = (0..80)
            .map(|i| ((i as f64) * 0.9).sin() * 2.0 + (i as f64 * 0.05))
            .collect();
        let m = 12;
        let stats = WindowStats::new(&series, m);
        let q = 30;
        let dp = mass_self(&series, q, &stats);
        let rescale = (m as f64 / (m as f64 - 1.0)).sqrt();
        for j in (0..dp.len()).step_by(7) {
            let direct = znorm_euclidean(&series[q..q + m], &series[j..j + m]) * rescale;
            assert!(
                (dp[j] - direct).abs() < 1e-6,
                "j={j}: {} vs {}",
                dp[j],
                direct
            );
        }
    }

    #[test]
    fn precomputed_matches_mass_self() {
        let series: Vec<f64> = (0..200)
            .map(|i| (i as f64 * 0.23).sin() * 1.5 + ((i * 17) % 5) as f64 * 0.2)
            .collect();
        for &m in &[3usize, 8, 25] {
            let stats = WindowStats::new(&series, m);
            let pre = MassPrecomputed::new(&series, m);
            assert_eq!(pre.window_count(), stats.count());
            for q in [0, 7, 100, stats.count() - 1] {
                let naive = mass_self(&series, q, &stats);
                let fast = pre.distance_profile(q);
                assert_eq!(naive.len(), fast.len());
                for (j, (a, b)) in naive.iter().zip(&fast).enumerate() {
                    assert!((a - b).abs() < 1e-9, "m={m} q={q} j={j}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn precomputed_sliding_dots_match_direct() {
        let series: Vec<f64> = (0..73).map(|i| ((i * i) as f64 * 0.01).sin()).collect();
        let m = 9;
        let pre = MassPrecomputed::new(&series, m);
        let mut scratch = MassScratch::default();
        let mut dots = Vec::new();
        for q in [0usize, 31, 64] {
            pre.sliding_dots_into(q, &mut scratch, &mut dots);
            for j in 0..dots.len() {
                let direct: f64 = series[q..q + m]
                    .iter()
                    .zip(&series[j..j + m])
                    .map(|(x, y)| x * y)
                    .sum();
                assert!((dots[j] - direct).abs() < 1e-8, "q={q} j={j}");
            }
        }
    }

    #[test]
    fn precomputed_handles_tiny_series() {
        let series = [1.0, 2.0, 0.5];
        let pre = MassPrecomputed::new(&series, 3);
        let dp = pre.distance_profile(0);
        assert_eq!(dp.len(), 1);
        assert!(dp[0].abs() < 1e-9);
    }

    #[test]
    fn scratch_reuse_is_clean() {
        // A scratch used for a long query loop must not leak state
        // between queries.
        let series: Vec<f64> = (0..120).map(|i| (i as f64 * 0.61).cos()).collect();
        let pre = MassPrecomputed::new(&series, 11);
        let mut scratch = MassScratch::default();
        let mut out = Vec::new();
        pre.distance_profile_into(5, &mut scratch, &mut out);
        let first = out.clone();
        pre.distance_profile_into(90, &mut scratch, &mut out);
        pre.distance_profile_into(5, &mut scratch, &mut out);
        assert_eq!(first, out);
    }

    /// The streaming monitor keeps one scratch while its engine is
    /// rebuilt at other transform sizes: a scratch last used at another
    /// size must leave no trace in the next query.
    #[test]
    fn scratch_reuse_across_engine_sizes_is_clean() {
        let series: Vec<f64> = (0..300).map(|i| (i as f64 * 0.47).sin()).collect();
        let engines = [
            MassPrecomputed::new(&series[..100], 12),
            MassPrecomputed::new(&series, 12),
            MassPrecomputed::new(&series[..20], 12),
            MassPrecomputed::new(&series[40..140], 12),
        ];
        let mut scratch = MassScratch::default();
        let mut out = Vec::new();
        for _ in 0..2 {
            for mass in &engines {
                mass.distance_profile_into(3, &mut scratch, &mut out);
                assert_eq!(out, mass.distance_profile(3), "size {}", mass.padded_size());
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn query_out_of_range_panics() {
        let series = vec![0.0, 1.0, 2.0, 3.0];
        let pre = MassPrecomputed::new(&series, 2);
        pre.distance_profile(3);
    }

    /// `new` pads to the series length's next power of two (at least
    /// 2), keeps its own copy of the series, and answers a query with
    /// one distance per window.
    #[test]
    fn new_pads_to_the_next_power_of_two() {
        let full: Vec<f64> = (0..130).map(|i| (i as f64 * 0.53).cos()).collect();
        for (len, size) in [(1, 2), (2, 2), (3, 4), (64, 64), (65, 128), (130, 256)] {
            let m = len.min(4);
            let mass = MassPrecomputed::new(&full[..len], m);
            assert_eq!(mass.padded_size(), size, "{len} points");
            assert_eq!(mass.series(), &full[..len]);
            assert_eq!(mass.m(), m);
            assert_eq!(mass.window_count(), len - m + 1);
            assert_eq!(mass.distance_profile(0).len(), len - m + 1);
        }
    }

    /// The kernel applies the flat-window conventions of
    /// [`WindowStats::dist`] exactly: flat against flat is 0, flat
    /// against a non-flat window is `√(2m)`.
    #[test]
    fn flat_windows_follow_the_distance_conventions() {
        let m = 6;
        let mut series = vec![2.0; 8];
        series.extend((0..12).map(|i| (i as f64 * 0.9).sin()));
        series.extend(vec![-3.0; 8]);
        let mass = MassPrecomputed::new(&series, m);
        let last = mass.window_count() - 1;
        let dp = mass.distance_profile(0);
        assert_eq!(dp[1], 0.0);
        assert_eq!(dp[last], 0.0);
        assert_eq!(dp[10], (2.0 * m as f64).sqrt());
        let dp = mass.distance_profile(10);
        assert_eq!(dp[0], (2.0 * m as f64).sqrt());
        assert_eq!(dp[last], (2.0 * m as f64).sqrt());
    }
}
