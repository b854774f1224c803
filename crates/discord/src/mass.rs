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
//!   specification (and the bench baseline).
//! * [`MassPrecomputed`] — the shared-spectrum path: the series is padded
//!   and transformed **once** at construction; each query then costs one
//!   forward and one inverse *half-size real* transform against the
//!   cached spectrum, instead of the three full transforms the naive
//!   path pays. STAMP and STOMP's seed row run through this.

use std::sync::Arc;

use egi_tskit::stats::PrefixStats;

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
/// # Appending points
///
/// [`MassPrecomputed::append`] grows the series in place and refreshes
/// the cached spectrum, leaving the value **bit-identical** to a fresh
/// [`MassPrecomputed::new`] over the concatenated series (see the method
/// docs for the amortization story). This is the substrate of
/// [`crate::streaming::StreamingDiscordMonitor`].
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
    /// Prefix sums of the series; appends continue them and evictions
    /// rebase them, and the window statistics are read off them.
    prefix: PrefixStats,
    /// The series zero-padded to `size`, so an append at a fixed size
    /// writes only its tail before re-transforming.
    padded: Vec<f64>,
    fft_scratch: Vec<Complex>,
}

impl MassPrecomputed {
    /// Builds the cached spectrum and window statistics for self-join
    /// queries of length `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `m > series.len()`.
    pub fn new(series: &[f64], m: usize) -> Self {
        let prefix = PrefixStats::new(series);
        let stats = WindowStats::from_prefix(&prefix, m);
        let size = next_pow2(series.len()).max(2);
        let plan = cached_real_plan(size);
        let mut padded = vec![0.0; size];
        padded[..series.len()].copy_from_slice(series);
        let mut series_spec = Vec::new();
        let mut fft_scratch = Vec::new();
        plan.forward_into(&padded, &mut series_spec, &mut fft_scratch);
        Self {
            series: series.to_vec(),
            m,
            size,
            plan,
            series_spec,
            stats,
            prefix,
            padded,
            fft_scratch,
        }
    }

    /// Appends points to the series and refreshes the cached spectrum
    /// and window statistics in place.
    ///
    /// The result is **bit-identical** to `MassPrecomputed::new` over the
    /// concatenated series (pinned by unit and property tests): the
    /// prefix-sum statistics continue their running totals, the padded
    /// buffer gains exactly the appended tail, and the forward transform
    /// reruns on the same process-wide cached plan. Cost per append:
    ///
    /// * **no power-of-two growth** — only the appended tail is copied
    ///   (`O(points)`) before the `O(S log S)` re-transform at the
    ///   current padded size `S`;
    /// * **power-of-two growth** — the padded buffer is re-laid-out at
    ///   the doubled size and the plan swaps to the (globally cached)
    ///   next-size plan; since the size doubles, this slow path runs
    ///   `O(log N)` times over any append schedule, so its copy cost
    ///   amortizes to `O(1)` per appended point.
    ///
    /// The spectrum re-transform dominates, so callers should batch
    /// appends into chunks; each appended chunk of `c` points costs
    /// `O(S log S)` total, i.e. `O((S log S)/c)` per point.
    ///
    /// Existing window statistics and already-computed distance profiles
    /// over old windows keep their meaning — appending adds
    /// `points.len()` new windows and never mutates old series values.
    pub fn append(&mut self, points: &[f64]) {
        if points.is_empty() {
            return;
        }
        egi_obs::counter!("egi_mass_exact_retransforms_total").inc();
        let old_len = self.series.len();
        self.series.extend_from_slice(points);
        self.prefix.extend(points);
        self.stats.extend_from_prefix(&self.prefix);
        let size = next_pow2(self.series.len()).max(2);
        if size != self.size {
            // Power-of-two growth: re-plan (a cache hit after the first
            // time any caller reaches this size) and lay the padded
            // buffer out at the new size.
            self.size = size;
            self.plan = cached_real_plan(size);
            self.padded.clear();
            self.padded.resize(size, 0.0);
            self.padded[..self.series.len()].copy_from_slice(&self.series);
        } else {
            // Same padded size: only the appended tail needs writing.
            self.padded[old_len..self.series.len()].copy_from_slice(points);
        }
        self.plan
            .forward_into(&self.padded, &mut self.series_spec, &mut self.fft_scratch);
    }

    /// Retires the oldest `count` points and refreshes every cached
    /// structure in place, leaving the value **bit-identical** to a
    /// fresh [`MassPrecomputed::new`] over the surviving suffix (pinned
    /// by unit and property tests) — the substrate of the streaming
    /// monitor's sliding-window eviction.
    ///
    /// # Cost model (why eviction is a clean re-transform)
    ///
    /// An FFT's rounding depends on its transform length *and* on the
    /// buffer contents from index 0, so no part of the cached spectrum
    /// survives a front truncation — unlike
    /// [`append`](MassPrecomputed::append), which at a fixed padded
    /// size only rewrites the tail. Likewise the prefix-sum window
    /// statistics accumulate from the series origin, so they are
    /// re-accumulated from the suffix
    /// ([`PrefixStats::rebase`](egi_tskit::stats::PrefixStats::rebase) +
    /// [`WindowStats::rebase_from_prefix`](crate::dist::WindowStats::rebase_from_prefix)).
    /// Per eviction of `c` points from a series of `N` the cost is
    /// therefore `O(N − c)` re-accumulation plus one `O(S log S)`
    /// forward transform at the (possibly shrunken) padded size `S` —
    /// i.e. `O((S log S)/c)` per retired point, the exact mirror of the
    /// append amortization: **callers should batch evictions into
    /// chunks**, just as they batch appends. Buffer allocations are
    /// reused, so a steady append-evict loop with retention `n` keeps
    /// every buffer at `O(n + chunk)` capacity (see
    /// [`padded_capacity`](MassPrecomputed::padded_capacity)).
    ///
    /// # Panics
    ///
    /// Panics if fewer than `m` points would survive — callers (the
    /// streaming monitor) enforce the non-panicking
    /// [`EvictError`](egi_tskit::EvictError) contract *before* touching
    /// this layer.
    ///
    /// # Examples
    ///
    /// ```
    /// use egi_discord::mass::MassPrecomputed;
    ///
    /// let series: Vec<f64> = (0..300).map(|i| (i as f64 * 0.3).sin()).collect();
    /// let mut live = MassPrecomputed::new(&series[..200], 16);
    /// live.append(&series[200..]);
    /// live.evict_front(120);
    ///
    /// // Bit for bit the engine a fresh build over the survivors gives.
    /// let fresh = MassPrecomputed::new(&series[120..], 16);
    /// assert_eq!(live.series(), fresh.series());
    /// assert_eq!(live.distance_profile(7), fresh.distance_profile(7));
    /// ```
    pub fn evict_front(&mut self, count: usize) {
        if count == 0 {
            return;
        }
        egi_obs::counter!("egi_mass_exact_retransforms_total").inc();
        assert!(
            count <= self.series.len() && self.series.len() - count >= self.m,
            "eviction of {count} points would leave fewer than m = {} of {}",
            self.m,
            self.series.len()
        );
        self.series.drain(..count);
        self.prefix.rebase(&self.series);
        self.stats.rebase_from_prefix(&self.prefix);
        let size = next_pow2(self.series.len()).max(2);
        self.size = size;
        self.plan = cached_real_plan(size);
        self.padded.clear();
        self.padded.resize(size, 0.0);
        self.padded[..self.series.len()].copy_from_slice(&self.series);
        self.plan
            .forward_into(&self.padded, &mut self.series_spec, &mut self.fft_scratch);
    }

    /// Releases slack capacity the append/evict path accumulated:
    /// shrinks the series buffer, the cached spectrum, the retained
    /// padded buffer, the FFT scratch, and the prefix/window statistics
    /// down to their live lengths. Purely an allocation-level operation
    /// — every cached *value* is untouched, so results stay
    /// bit-identical. Useful after a heavy one-off eviction (a steady
    /// append/evict cycle should *not* compact; it would just
    /// reallocate).
    pub fn compact(&mut self) {
        self.series.shrink_to_fit();
        self.series_spec.shrink_to_fit();
        self.stats.mu.shrink_to_fit();
        self.stats.sigma.shrink_to_fit();
        self.prefix.shrink_to_fit();
        self.padded.shrink_to_fit();
        self.fft_scratch.shrink_to_fit();
    }

    /// Window length `m`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Number of sliding windows (profile length).
    pub fn window_count(&self) -> usize {
        self.stats.count()
    }

    /// Current padded transform size `S` (a power of two ≥ the series
    /// length). Shrinks on eviction and grows on append; the per-query
    /// and per-append/evict costs scale with it.
    pub fn padded_size(&self) -> usize {
        self.size
    }

    /// Capacity (in `f64`s) retained by the series buffer — cheap
    /// accessor for memory-bound assertions on eviction workloads.
    pub fn series_capacity(&self) -> usize {
        self.series.capacity()
    }

    /// Capacity (in `f64`s) retained by the padded series buffer —
    /// cheap accessor for memory-bound assertions.
    pub fn padded_capacity(&self) -> usize {
        self.padded.capacity()
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

    #[test]
    #[should_panic(expected = "out of range")]
    fn query_out_of_range_panics() {
        let series = vec![0.0, 1.0, 2.0, 3.0];
        let pre = MassPrecomputed::new(&series, 2);
        pre.distance_profile(3);
    }

    /// The append path must leave the struct bit-identical to a fresh
    /// construction over the full series: same spectrum, same stats,
    /// same distance profiles — the foundation of the streaming
    /// monitor's finished-profile parity.
    #[test]
    fn append_is_bit_identical_to_fresh_build() {
        let full: Vec<f64> = (0..300)
            .map(|i| (i as f64 * 0.19).sin() * 2.0 + ((i * 13) % 7) as f64 * 0.1)
            .collect();
        let m = 12;
        // Splits exercise both the same-size path and pow2 growth
        // (next_pow2(140)=256 < next_pow2(300)=512).
        for split in [m, 140, 255, 256, 299] {
            let mut inc = MassPrecomputed::new(&full[..split], m);
            for chunk in full[split..].chunks(37) {
                inc.append(chunk);
            }
            let fresh = MassPrecomputed::new(&full, m);
            assert_eq!(inc.series_spec, fresh.series_spec, "split {split}");
            assert_eq!(inc.stats.mu, fresh.stats.mu, "split {split}");
            assert_eq!(inc.stats.sigma, fresh.stats.sigma, "split {split}");
            assert_eq!(inc.size, fresh.size, "split {split}");
            assert_eq!(inc.window_count(), fresh.window_count());
            let mut scratch = MassScratch::default();
            let (mut a, mut b) = (Vec::new(), Vec::new());
            for q in [0, split - m, inc.window_count() - 1] {
                inc.distance_profile_into(q, &mut scratch, &mut a);
                fresh.distance_profile_into(q, &mut scratch, &mut b);
                assert_eq!(a, b, "split {split} q {q}");
            }
        }
    }

    /// The eviction path must leave the struct bit-identical to a fresh
    /// construction over the surviving suffix: same spectrum, same
    /// stats, same distance profiles — the foundation of the streaming
    /// monitor's suffix-parity contract.
    #[test]
    fn evict_front_is_bit_identical_to_fresh_suffix_build() {
        let full: Vec<f64> = (0..300)
            .map(|i| (i as f64 * 0.21).sin() * 1.8 + ((i * 11) % 6) as f64 * 0.15)
            .collect();
        let m = 10;
        // Cuts exercise pow2 shrink (next_pow2(300)=512 → 256/128) and
        // the same-size path, down to the single-window boundary.
        for cut in [1usize, 37, 44, 172, 300 - m] {
            let mut inc = MassPrecomputed::new(&full, m);
            inc.evict_front(cut);
            let fresh = MassPrecomputed::new(&full[cut..], m);
            assert_eq!(inc.series(), fresh.series(), "cut {cut}");
            assert_eq!(inc.series_spec, fresh.series_spec, "cut {cut}");
            assert_eq!(inc.stats.mu, fresh.stats.mu, "cut {cut}");
            assert_eq!(inc.stats.sigma, fresh.stats.sigma, "cut {cut}");
            assert_eq!(inc.size, fresh.size, "cut {cut}");
            assert_eq!(inc.window_count(), fresh.window_count());
            let mut scratch = MassScratch::default();
            let (mut a, mut b) = (Vec::new(), Vec::new());
            for q in [0, inc.window_count() / 2, inc.window_count() - 1] {
                inc.distance_profile_into(q, &mut scratch, &mut a);
                fresh.distance_profile_into(q, &mut scratch, &mut b);
                assert_eq!(a, b, "cut {cut} q {q}");
            }
        }
    }

    /// Interleaved appends and evictions must stay on the bitwise batch
    /// path over whatever suffix survives.
    #[test]
    fn evict_then_append_matches_fresh_build_over_suffix() {
        let full: Vec<f64> = (0..260)
            .map(|i| (i as f64 * 0.33).cos() * 2.2 + (i % 7) as f64 * 0.09)
            .collect();
        let m = 9;
        let mut inc = MassPrecomputed::new(&full[..140], m);
        inc.evict_front(60); // suffix = full[60..140]
        for chunk in full[140..].chunks(31) {
            inc.append(chunk);
        }
        inc.evict_front(25); // suffix = full[85..]
        let fresh = MassPrecomputed::new(&full[85..], m);
        assert_eq!(inc.series(), fresh.series());
        assert_eq!(inc.series_spec, fresh.series_spec);
        assert_eq!(inc.stats.mu, fresh.stats.mu);
        assert_eq!(inc.stats.sigma, fresh.stats.sigma);
        for q in [0usize, 50, inc.window_count() - 1] {
            assert_eq!(inc.distance_profile(q), fresh.distance_profile(q), "q {q}");
        }
    }

    #[test]
    fn evict_zero_is_a_no_op() {
        let series: Vec<f64> = (0..50).map(|i| (i as f64 * 0.4).sin()).collect();
        let mut inc = MassPrecomputed::new(&series, 6);
        let spec_before = inc.series_spec.clone();
        inc.evict_front(0);
        assert_eq!(inc.series_spec, spec_before);
        assert_eq!(inc.window_count(), 45);
    }

    /// `new` lays the padded series out, so appends that stay within
    /// the padded size write their tails into that one buffer.
    #[test]
    fn new_lays_out_the_padded_series() {
        let series: Vec<f64> = (0..120).map(|i| (i as f64 * 0.29).sin()).collect();
        let mut inc = MassPrecomputed::new(&series[..100], 8);
        assert_eq!(inc.padded_size(), 128);
        assert_eq!(inc.padded_capacity(), 128);
        inc.append(&series[100..]);
        assert_eq!(inc.padded_size(), 128);
        assert_eq!(inc.padded_capacity(), 128);
    }

    #[test]
    #[should_panic(expected = "would leave fewer than m")]
    fn evict_below_one_window_panics() {
        let series: Vec<f64> = (0..40).map(|i| i as f64 * 0.1).collect();
        let mut inc = MassPrecomputed::new(&series, 8);
        inc.evict_front(35);
    }

    #[test]
    fn append_empty_is_a_no_op() {
        let series: Vec<f64> = (0..40).map(|i| (i as f64 * 0.3).cos()).collect();
        let mut inc = MassPrecomputed::new(&series, 5);
        let spec_before = inc.series_spec.clone();
        inc.append(&[]);
        assert_eq!(inc.series_spec, spec_before);
        assert_eq!(inc.window_count(), 36);
    }

    #[test]
    #[should_panic(expected = "would leave fewer than m")]
    fn evict_past_the_end_panics() {
        let mut inc = MassPrecomputed::new(&[0.0, 1.0, 0.5, 2.0], 2);
        inc.evict_front(5);
    }

    /// The transform size is the live series' next power of two in both
    /// directions: appends grow it and evictions shrink it back, so the
    /// per-query cost follows the live window, not the stream.
    #[test]
    fn padded_size_tracks_the_live_series_both_ways() {
        let series: Vec<f64> = (0..600).map(|i| (i as f64 * 0.31).cos()).collect();
        let mut inc = MassPrecomputed::new(&series[..100], 8);
        assert_eq!(inc.padded_size(), 128);
        inc.append(&series[100..129]);
        assert_eq!(inc.padded_size(), 256);
        inc.append(&series[129..]);
        assert_eq!(inc.padded_size(), 1024);
        inc.evict_front(88); // 512 points left
        assert_eq!(inc.padded_size(), 512);
        inc.evict_front(500); // 12 points left
        assert_eq!(inc.padded_size(), 16);
        assert_eq!(inc.window_count(), 5);
        assert_eq!(
            inc.padded_size(),
            MassPrecomputed::new(&series[588..], 8).padded_size()
        );
    }

    /// A steady append/evict cycle with retention `n` keeps every buffer
    /// at `O(n + chunk)` however long it runs, and stays on the bitwise
    /// batch path throughout.
    #[test]
    fn append_evict_cycles_keep_buffers_bounded() {
        let point = |i: usize| (i as f64 * 0.13).sin() * 1.5 + ((i * 7) % 9) as f64 * 0.05;
        let points = |range: std::ops::Range<usize>| range.map(point).collect::<Vec<f64>>();
        let (m, n, chunk) = (16usize, 300usize, 50usize);
        let bound = (n + chunk).next_power_of_two();
        let mut inc = MassPrecomputed::new(&points(0..n), m);
        let mut fed = n;
        for _ in 0..200 {
            inc.append(&points(fed..fed + chunk));
            fed += chunk;
            inc.evict_front(chunk);
            assert_eq!(inc.series().len(), n);
            assert!(
                inc.padded_size() <= bound,
                "transform {}",
                inc.padded_size()
            );
            assert!(
                inc.padded_capacity() <= bound,
                "padded {}",
                inc.padded_capacity()
            );
            assert!(
                inc.series_capacity() <= 2 * (n + chunk),
                "series {}",
                inc.series_capacity()
            );
        }
        let fresh = MassPrecomputed::new(&points(fed - n..fed), m);
        assert_eq!(inc.series_spec, fresh.series_spec);
        assert_eq!(inc.stats.mu, fresh.stats.mu);
        assert_eq!(inc.stats.sigma, fresh.stats.sigma);
    }

    /// `compact` is allocation-only: after a heavy eviction it returns
    /// the buffers to the live working set, every cached value stays
    /// bit-identical, and later appends stay on the batch path.
    #[test]
    fn compact_sheds_slack_and_keeps_every_profile() {
        let full: Vec<f64> = (0..1024)
            .map(|i| (i as f64 * 0.27).sin() + (i % 5) as f64 * 0.1)
            .collect();
        let m = 8;
        let keep = 100;
        let mut inc = MassPrecomputed::new(&full[..512], m);
        inc.append(&full[512..]);
        inc.evict_front(full.len() - keep);
        assert!(inc.series_capacity() >= 1024, "eviction keeps capacity");
        let before = inc.clone();
        inc.compact();
        assert!(inc.series_capacity() <= keep);
        assert!(inc.padded_capacity() <= inc.padded_size());
        assert_eq!(inc.series_spec, before.series_spec);
        assert_eq!(inc.stats.mu, before.stats.mu);
        assert_eq!(inc.stats.sigma, before.stats.sigma);
        for q in [0, 50, inc.window_count() - 1] {
            assert_eq!(inc.distance_profile(q), before.distance_profile(q), "q {q}");
        }
        inc.append(&full[..40]);
        let mut grown = full[full.len() - keep..].to_vec();
        grown.extend_from_slice(&full[..40]);
        let fresh = MassPrecomputed::new(&grown, m);
        assert_eq!(inc.series_spec, fresh.series_spec);
        assert_eq!(inc.distance_profile(10), fresh.distance_profile(10));
    }

    /// End to end against the per-pair definition: an engine grown and
    /// trimmed several times answers every query like the direct
    /// z-normalized distance over its live series.
    #[test]
    fn evolved_engine_matches_the_znorm_spec() {
        let full: Vec<f64> = (0..240)
            .map(|i| (i as f64 * 0.41).sin() * 1.7 + ((i * 19) % 7) as f64 * 0.12)
            .collect();
        let m = 10;
        let mut inc = MassPrecomputed::new(&full[..90], m);
        inc.append(&full[90..170]);
        inc.evict_front(35);
        inc.append(&full[170..]);
        inc.evict_front(20);
        let live = &full[55..];
        assert_eq!(inc.series(), live);
        let rescale = (m as f64 / (m as f64 - 1.0)).sqrt();
        for q in (0..inc.window_count()).step_by(17) {
            let dp = inc.distance_profile(q);
            for (j, d) in dp.iter().enumerate() {
                let direct = znorm_euclidean(&live[q..q + m], &live[j..j + m]) * rescale;
                assert!((d - direct).abs() < 1e-6, "q={q} j={j}: {d} vs {direct}");
            }
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

    #[test]
    fn append_single_points_grow_window_count() {
        let mut inc = MassPrecomputed::new(&[1.0, 2.0, 0.5], 3);
        assert_eq!(inc.window_count(), 1);
        inc.append(&[4.0]);
        inc.append(&[-1.0]);
        assert_eq!(inc.window_count(), 3);
        let fresh = MassPrecomputed::new(&[1.0, 2.0, 0.5, 4.0, -1.0], 3);
        for q in 0..3 {
            assert_eq!(inc.distance_profile(q), fresh.distance_profile(q));
        }
    }
}
