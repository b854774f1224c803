//! The [`TimeSeries`] container.
//!
//! A time series `T = t1, ..., tN` is an ordered set of real-valued
//! observations (paper, Section 3.1). The container is a thin wrapper over
//! `Vec<f64>` that adds domain constructors and summary statistics while
//! dereferencing to a slice so that algorithmic code can stay slice-based.

use std::ops::{Deref, Index, Range};

/// An owned univariate time series.
///
/// Derefs to `&[f64]`, so all slice methods are available. Algorithms in the
/// workspace accept `&[f64]`; `TimeSeries` exists to give construction,
/// labeling, and statistics a home.
///
/// # Examples
///
/// ```
/// use egi_tskit::TimeSeries;
///
/// let ts = TimeSeries::from(vec![1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(ts.len(), 4);
/// assert_eq!(ts.mean(), 2.5);
/// assert_eq!(&ts[1..3], &[2.0, 3.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimeSeries {
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self { values: Vec::new() }
    }

    /// Creates an empty series with room for `capacity` observations.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            values: Vec::with_capacity(capacity),
        }
    }

    /// Wraps an existing vector of observations.
    pub fn from_vec(values: Vec<f64>) -> Self {
        Self { values }
    }

    /// Builds a series of length `n` from a function of the time index.
    ///
    /// ```
    /// use egi_tskit::TimeSeries;
    /// let ramp = TimeSeries::from_fn(5, |i| i as f64);
    /// assert_eq!(ramp.as_slice(), &[0.0, 1.0, 2.0, 3.0, 4.0]);
    /// ```
    pub fn from_fn(n: usize, f: impl FnMut(usize) -> f64) -> Self {
        Self {
            values: (0..n).map(f).collect(),
        }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when the series holds no observations.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Borrows the observations as a slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Mutably borrows the observations.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Consumes the series, returning the underlying vector.
    pub fn into_vec(self) -> Vec<f64> {
        self.values
    }

    /// Appends an observation.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    /// Appends all observations from `other`.
    pub fn extend_from_slice(&mut self, other: &[f64]) {
        self.values.extend_from_slice(other);
    }

    /// The subsequence `T[p..p+n]` as an owned series.
    ///
    /// This is the paper's `T_{p,q}` with `q = p + n - 1` (0-based here).
    ///
    /// # Panics
    ///
    /// Panics if `p + n > self.len()`.
    pub fn subsequence(&self, p: usize, n: usize) -> TimeSeries {
        TimeSeries::from_vec(self.values[p..p + n].to_vec())
    }

    /// Arithmetic mean; `NaN` for an empty series.
    pub fn mean(&self) -> f64 {
        crate::stats::mean(&self.values)
    }

    /// Sample standard deviation (n-1 denominator); `NaN` if `len() < 2`.
    pub fn stddev(&self) -> f64 {
        crate::stats::stddev(&self.values)
    }

    /// Minimum value; `NaN` for an empty series.
    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(
            f64::NAN,
            |acc, v| if v < acc || acc.is_nan() { v } else { acc },
        )
    }

    /// Maximum value; `NaN` for an empty series.
    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(
            f64::NAN,
            |acc, v| if v > acc || acc.is_nan() { v } else { acc },
        )
    }

    /// Returns a z-normalized copy (mean 0, stddev 1).
    ///
    /// Flat series — mean and sample variance satisfying
    /// [`crate::stats::is_flat`], i.e. variance below
    /// [`FLAT_VAR_RTOL`](crate::stats::FLAT_VAR_RTOL)` × (mean² + 1)` —
    /// are mapped to all-zeros rather than amplifying noise, matching the
    /// convention used by SAX implementations.
    pub fn znormalized(&self) -> TimeSeries {
        let mut out = self.values.clone();
        crate::stats::znormalize(&mut out);
        TimeSeries::from_vec(out)
    }
}

impl From<Vec<f64>> for TimeSeries {
    fn from(values: Vec<f64>) -> Self {
        Self::from_vec(values)
    }
}

impl From<&[f64]> for TimeSeries {
    fn from(values: &[f64]) -> Self {
        Self::from_vec(values.to_vec())
    }
}

impl FromIterator<f64> for TimeSeries {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Self {
            values: iter.into_iter().collect(),
        }
    }
}

impl Deref for TimeSeries {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        &self.values
    }
}

impl Index<usize> for TimeSeries {
    type Output = f64;

    fn index(&self, index: usize) -> &f64 {
        &self.values[index]
    }
}

impl Index<Range<usize>> for TimeSeries {
    type Output = [f64];

    fn index(&self, index: Range<usize>) -> &[f64] {
        &self.values[index]
    }
}

impl IntoIterator for TimeSeries {
    type Item = f64;
    type IntoIter = std::vec::IntoIter<f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.values.into_iter()
    }
}

impl<'a> IntoIterator for &'a TimeSeries {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.values.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_empty() {
        let ts = TimeSeries::new();
        assert!(ts.is_empty());
        assert_eq!(ts.len(), 0);
    }

    #[test]
    fn from_fn_builds_expected_values() {
        let ts = TimeSeries::from_fn(4, |i| (i * i) as f64);
        assert_eq!(ts.as_slice(), &[0.0, 1.0, 4.0, 9.0]);
    }

    #[test]
    fn mean_and_stddev() {
        let ts = TimeSeries::from(vec![2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((ts.mean() - 5.0).abs() < 1e-12);
        // Sample stddev of this classic example is sqrt(32/7).
        assert!((ts.stddev() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn min_max() {
        let ts = TimeSeries::from(vec![3.0, -1.0, 2.0]);
        assert_eq!(ts.min(), -1.0);
        assert_eq!(ts.max(), 3.0);
    }

    #[test]
    fn min_max_empty_is_nan() {
        let ts = TimeSeries::new();
        assert!(ts.min().is_nan());
        assert!(ts.max().is_nan());
    }

    #[test]
    fn subsequence_matches_slice() {
        let ts = TimeSeries::from_fn(10, |i| i as f64);
        let sub = ts.subsequence(3, 4);
        assert_eq!(sub.as_slice(), &[3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn znormalized_has_zero_mean_unit_std() {
        let ts = TimeSeries::from(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let z = ts.znormalized();
        assert!(z.mean().abs() < 1e-12);
        assert!((z.stddev() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn znormalized_flat_series_is_zeros() {
        let ts = TimeSeries::from(vec![7.0; 8]);
        let z = ts.znormalized();
        assert!(z.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn deref_and_index() {
        let ts = TimeSeries::from(vec![1.0, 2.0, 3.0]);
        assert_eq!(ts[1], 2.0);
        assert_eq!(&ts[0..2], &[1.0, 2.0]);
        assert_eq!(ts.iter().sum::<f64>(), 6.0);
    }

    #[test]
    fn collect_from_iterator() {
        let ts: TimeSeries = (0..3).map(|i| i as f64).collect();
        assert_eq!(ts.as_slice(), &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn push_and_extend() {
        let mut ts = TimeSeries::with_capacity(4);
        ts.push(1.0);
        ts.extend_from_slice(&[2.0, 3.0]);
        assert_eq!(ts.as_slice(), &[1.0, 2.0, 3.0]);
    }
}
