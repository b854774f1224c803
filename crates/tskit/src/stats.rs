//! Statistics primitives: prefix sums, z-normalization.
//!
//! [`PrefixStats`] implements the two pre-computed vectors of the paper's
//! Algorithm 2 (FastPAA): `ESum_x(x) = Σ_{i<=x} t_i` and
//! `ESum_xx(x) = Σ_{i<=x} t_i²`. With those, the mean and standard deviation
//! of any subsequence come out in O(1), which is what makes the
//! multi-resolution discretization of Section 6.2 linear in the series
//! length instead of quadratic.

/// Relative variance tolerance for flatness detection.
///
/// A window is *flat* when its sample variance is below
/// `FLAT_VAR_RTOL × (mean² + 1)`. The mean-relative form matters because
/// the fast prefix-sum path computes variance as `Σx² − (Σx)²/n`, whose
/// cancellation error scales with the magnitude of the data; an absolute
/// threshold would classify the same window differently in the naive and
/// fast paths.
pub const FLAT_VAR_RTOL: f64 = 1e-12;

/// Shared flatness criterion: `variance` is not finite, or below
/// [`FLAT_VAR_RTOL`]` × (mean² + 1)`.
///
/// Subsequences that are (numerically) constant carry no shape information;
/// z-normalizing them would divide by ~0 and amplify floating-point noise
/// into arbitrary shapes. Every consumer in the workspace (SAX and the
/// matrix profile) applies this one rule, so that flat regions are handled
/// consistently.
#[inline]
pub fn is_flat(mean: f64, variance: f64) -> bool {
    !variance.is_finite() || variance < FLAT_VAR_RTOL * (mean * mean + 1.0)
}

/// Arithmetic mean of a slice; `NaN` when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Sample standard deviation (n−1 denominator); `NaN` when `len < 2`.
pub fn stddev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return f64::NAN;
    }
    let m = mean(values);
    let ss: f64 = values.iter().map(|&v| (v - m) * (v - m)).sum();
    (ss / (values.len() - 1) as f64).sqrt()
}

/// Population standard deviation (n denominator); `NaN` when empty.
pub fn stddev_population(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let m = mean(values);
    let ss: f64 = values.iter().map(|&v| (v - m) * (v - m)).sum();
    (ss / values.len() as f64).sqrt()
}

/// Z-normalizes `values` in place (mean 0, sample stddev 1).
///
/// Flat inputs, whose mean and sample variance satisfy [`is_flat`]
/// (variance below [`FLAT_VAR_RTOL`]` × (mean² + 1)`), become all-zeros.
pub fn znormalize(values: &mut [f64]) {
    let n = values.len();
    if n == 0 {
        return;
    }
    let m = mean(values);
    let var = if n < 2 {
        0.0
    } else {
        let ss: f64 = values.iter().map(|&v| (v - m) * (v - m)).sum();
        ss / (n - 1) as f64
    };
    if is_flat(m, var) {
        values.iter_mut().for_each(|v| *v = 0.0);
        return;
    }
    let s = var.sqrt();
    for v in values.iter_mut() {
        *v = (*v - m) / s;
    }
}

/// Writes the z-normalized form of `src` into `dst` (lengths must match).
///
/// # Panics
///
/// Panics if `src.len() != dst.len()`.
pub fn znormalize_into(src: &[f64], dst: &mut [f64]) {
    assert_eq!(src.len(), dst.len(), "znormalize_into: length mismatch");
    dst.copy_from_slice(src);
    znormalize(dst);
}

/// Prefix-sum statistics over a time series (paper Algorithm 2 inputs).
///
/// Construction is O(N); afterwards the mean, variance, and standard
/// deviation of any half-open range `[start, end)` are O(1).
///
/// # Examples
///
/// ```
/// use egi_tskit::PrefixStats;
///
/// let data = [1.0, 2.0, 3.0, 4.0, 5.0];
/// let ps = PrefixStats::new(&data);
/// assert_eq!(ps.range_sum(1, 4), 9.0);          // 2+3+4
/// assert!((ps.range_mean(0, 5) - 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct PrefixStats {
    /// `sum[x] = Σ_{i < x} t_i`, with `sum[0] = 0`. Length `N + 1`.
    sum: Vec<f64>,
    /// `sum_sq[x] = Σ_{i < x} t_i²`, with `sum_sq[0] = 0`. Length `N + 1`.
    sum_sq: Vec<f64>,
}

impl PrefixStats {
    /// Builds the prefix sums for `values` in a single pass.
    pub fn new(values: &[f64]) -> Self {
        let mut sum = Vec::with_capacity(values.len() + 1);
        let mut sum_sq = Vec::with_capacity(values.len() + 1);
        let (mut s, mut ss) = (0.0f64, 0.0f64);
        sum.push(0.0);
        sum_sq.push(0.0);
        for &v in values {
            s += v;
            ss += v * v;
            sum.push(s);
            sum_sq.push(ss);
        }
        Self { sum, sum_sq }
    }

    /// Extends the prefix sums with further series points.
    ///
    /// The accumulation continues from the stored running totals, so the
    /// result is **bit-identical** to rebuilding from scratch over the
    /// concatenated series: `PrefixStats::new(&[a, b].concat())` and
    /// `{ let mut p = PrefixStats::new(&a); p.extend(&b); p }` hold the
    /// same values in every slot. The streaming ensemble detector
    /// relies on this to grow its PAA streams exactly.
    ///
    /// # Examples
    ///
    /// ```
    /// use egi_tskit::PrefixStats;
    ///
    /// let mut incremental = PrefixStats::new(&[1.0, 2.0]);
    /// incremental.extend(&[3.0, 4.0]);
    /// let batch = PrefixStats::new(&[1.0, 2.0, 3.0, 4.0]);
    /// assert_eq!(incremental.range_sum(0, 4), batch.range_sum(0, 4));
    /// assert_eq!(incremental.len(), 4);
    /// ```
    pub fn extend(&mut self, values: &[f64]) {
        let (mut s, mut ss) = (
            *self.sum.last().expect("sum always has the zero sentinel"),
            *self
                .sum_sq
                .last()
                .expect("sum_sq always has the zero sentinel"),
        );
        self.sum.reserve(values.len());
        self.sum_sq.reserve(values.len());
        for &v in values {
            s += v;
            ss += v * v;
            self.sum.push(s);
            self.sum_sq.push(ss);
        }
    }

    /// Empties the prefix sums down to their zero sentinel, keeping the
    /// allocation: a following [`extend`](Self::extend) holds the same
    /// bits as [`new`](Self::new) over the same points, without
    /// allocating for as many points as were cleared.
    pub fn clear(&mut self) {
        self.sum.truncate(1);
        self.sum_sq.truncate(1);
    }

    /// Points each running sum can hold, sentinel included, before it
    /// reallocates.
    pub fn capacity(&self) -> usize {
        self.sum.capacity().min(self.sum_sq.capacity())
    }

    /// Length of the underlying series.
    pub fn len(&self) -> usize {
        self.sum.len() - 1
    }

    /// `true` when built over an empty series.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sum of `values[start..end)`.
    #[inline]
    pub fn range_sum(&self, start: usize, end: usize) -> f64 {
        debug_assert!(start <= end && end < self.sum.len());
        self.sum[end] - self.sum[start]
    }

    /// Sum of squares of `values[start..end)`.
    #[inline]
    pub fn range_sum_sq(&self, start: usize, end: usize) -> f64 {
        debug_assert!(start <= end && end < self.sum_sq.len());
        self.sum_sq[end] - self.sum_sq[start]
    }

    /// Mean of `values[start..end)`; `NaN` for an empty range.
    #[inline]
    pub fn range_mean(&self, start: usize, end: usize) -> f64 {
        let n = end - start;
        if n == 0 {
            return f64::NAN;
        }
        self.range_sum(start, end) / n as f64
    }

    /// Sample variance (n−1) of `values[start..end)`; `NaN` when `n < 2`.
    ///
    /// Computed as `(Σx² − (Σx)²/n) / (n−1)`, clamped at zero to absorb
    /// floating-point cancellation on near-constant data.
    #[inline]
    pub fn range_variance(&self, start: usize, end: usize) -> f64 {
        let n = end - start;
        if n < 2 {
            return f64::NAN;
        }
        let ex = self.range_sum(start, end);
        let exx = self.range_sum_sq(start, end);
        let var = (exx - ex * ex / n as f64) / (n - 1) as f64;
        var.max(0.0)
    }

    /// Sample standard deviation of `values[start..end)`; `NaN` when `n < 2`.
    #[inline]
    pub fn range_stddev(&self, start: usize, end: usize) -> f64 {
        self.range_variance(start, end).sqrt()
    }

    /// Population variance (n denominator) of `values[start..end)`.
    #[inline]
    pub fn range_variance_population(&self, start: usize, end: usize) -> f64 {
        let n = end - start;
        if n == 0 {
            return f64::NAN;
        }
        let ex = self.range_sum(start, end);
        let exx = self.range_sum_sq(start, end);
        let m = ex / n as f64;
        (exx / n as f64 - m * m).max(0.0)
    }

    /// Population standard deviation of `values[start..end)`.
    #[inline]
    pub fn range_stddev_population(&self, start: usize, end: usize) -> f64 {
        self.range_variance_population(start, end).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_empty_is_nan() {
        assert!(mean(&[]).is_nan());
    }

    #[test]
    fn stddev_short_is_nan() {
        assert!(stddev(&[]).is_nan());
        assert!(stddev(&[1.0]).is_nan());
    }

    #[test]
    fn stddev_matches_textbook() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((stddev_population(&xs) - 2.0).abs() < 1e-12);
        assert!((stddev(&xs) - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn znormalize_basic() {
        let mut xs = vec![1.0, 2.0, 3.0];
        znormalize(&mut xs);
        assert!(mean(&xs).abs() < 1e-12);
        assert!((stddev(&xs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn znormalize_flat_to_zero() {
        let mut xs = vec![5.0; 10];
        znormalize(&mut xs);
        assert!(xs.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn znormalize_single_point_to_zero() {
        let mut xs = vec![42.0];
        znormalize(&mut xs);
        assert_eq!(xs, vec![0.0]);
    }

    #[test]
    fn znormalize_into_matches_in_place() {
        let src = [3.0, 1.0, 4.0, 1.0, 5.0];
        let mut dst = [0.0; 5];
        znormalize_into(&src, &mut dst);
        let mut expected = src;
        znormalize(&mut expected);
        assert_eq!(dst, expected);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn znormalize_into_length_mismatch_panics() {
        let src = [1.0, 2.0];
        let mut dst = [0.0; 3];
        znormalize_into(&src, &mut dst);
    }

    #[test]
    fn prefix_sums_match_direct() {
        let xs: Vec<f64> = (0..100)
            .map(|i| (i as f64 * 0.7).sin() * 3.0 + 1.0)
            .collect();
        let ps = PrefixStats::new(&xs);
        assert_eq!(ps.len(), 100);
        for &(s, e) in &[(0usize, 100usize), (3, 17), (50, 51), (10, 10), (98, 100)] {
            let direct_sum: f64 = xs[s..e].iter().sum();
            assert!(
                (ps.range_sum(s, e) - direct_sum).abs() < 1e-9,
                "sum range {s}..{e}"
            );
            if e - s >= 1 {
                assert!(
                    (ps.range_mean(s, e) - mean(&xs[s..e])).abs() < 1e-9,
                    "mean range {s}..{e}"
                );
            }
            if e - s >= 2 {
                assert!(
                    (ps.range_stddev(s, e) - stddev(&xs[s..e])).abs() < 1e-9,
                    "stddev range {s}..{e}"
                );
            }
        }
    }

    #[test]
    fn prefix_empty_range_behaviour() {
        let ps = PrefixStats::new(&[1.0, 2.0, 3.0]);
        assert_eq!(ps.range_sum(1, 1), 0.0);
        assert!(ps.range_mean(2, 2).is_nan());
        assert!(ps.range_variance(0, 1).is_nan());
    }

    #[test]
    fn prefix_variance_nonnegative_on_constant() {
        let ps = PrefixStats::new(&[1e9; 64]);
        for s in 0..60 {
            assert!(ps.range_variance(s, s + 4) >= 0.0);
            assert!(ps.range_stddev_population(s, s + 4) >= 0.0);
        }
    }

    #[test]
    fn prefix_extend_is_bit_identical_to_batch() {
        let full: Vec<f64> = (0..200)
            .map(|i| (i as f64 * 0.83).sin() * 7.0 - 2.5)
            .collect();
        for split in [0usize, 1, 63, 199, 200] {
            let mut inc = PrefixStats::new(&full[..split]);
            inc.extend(&full[split..]);
            let batch = PrefixStats::new(&full);
            assert_eq!(inc.len(), batch.len());
            for e in 0..=full.len() {
                assert_eq!(
                    inc.range_sum(0, e),
                    batch.range_sum(0, e),
                    "split {split} end {e}"
                );
                assert_eq!(
                    inc.range_sum_sq(0, e),
                    batch.range_sum_sq(0, e),
                    "split {split} end {e}"
                );
            }
        }
    }

    #[test]
    fn prefix_extend_in_many_chunks() {
        let full: Vec<f64> = (0..97).map(|i| ((i * i) as f64 * 0.01).cos()).collect();
        let mut inc = PrefixStats::new(&[]);
        for chunk in full.chunks(7) {
            inc.extend(chunk);
        }
        let batch = PrefixStats::new(&full);
        for e in 0..=full.len() {
            assert_eq!(inc.range_sum(0, e), batch.range_sum(0, e));
            assert_eq!(inc.range_sum_sq(0, e), batch.range_sum_sq(0, e));
        }
    }

    #[test]
    fn prefix_on_empty_series() {
        let ps = PrefixStats::new(&[]);
        assert!(ps.is_empty());
        assert_eq!(ps.range_sum(0, 0), 0.0);
    }
}
