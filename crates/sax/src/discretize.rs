//! Whole-series discretization.
//!
//! [`FastSax`] is the production path: prefix-sum statistics make each
//! window's z-normalized PAA cost `O(w)` instead of `O(n)` (paper
//! Algorithm 2), and [`discretize_series`] runs the shared stream kernel
//! ([`PaaStream::reduce_into`]), whose cells resolve symbols for any
//! alphabet without a search. [`discretize_series_naive`] is the
//! executable specification the fast path is tested against.

use egi_tskit::stats::{is_flat, PrefixStats};
use egi_tskit::window::window_count;

use crate::breakpoints::BreakpointTable;
use crate::multires::MultiResBreakpoints;
use crate::numerosity::{numerosity_reduce, NumerosityReduced};
use crate::paa::segment_bound;
use crate::stream::{discretize_from_stream, PaaStream};
use crate::word::{sax_word, SaxConfig};

/// Prefix-sum-accelerated SAX over one series (paper Algorithm 2).
///
/// Construction is `O(N)`; each window's z-normalized PAA is then
/// `O(w)`, independent of the window length `n`.
#[derive(Debug, Clone)]
pub struct FastSax<'a> {
    data: &'a [f64],
    stats: PrefixStats,
}

impl<'a> FastSax<'a> {
    /// Precomputes `ESum_x` / `ESum_xx` over `data`.
    pub fn new(data: &'a [f64]) -> Self {
        Self {
            data,
            stats: PrefixStats::new(data),
        }
    }

    /// The precomputed prefix-sum statistics (`ESum_x` / `ESum_xx`).
    ///
    /// Exposed so append-driven consumers ([`crate::stream`]'s growable
    /// stream, the streaming ensemble detector) can run the same
    /// [`paa_znorm_from_stats`] kernel on statistics they own and
    /// extend incrementally.
    pub fn stats(&self) -> &PrefixStats {
        &self.stats
    }

    /// Series length.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the series is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// PAA coefficients of the z-normalized window `[start, start + n)`,
    /// written into `out` (whose length is the PAA size `w`).
    ///
    /// This is Algorithm 2 verbatim: window mean and stddev from the
    /// prefix sums in O(1), then one prefix-sum subtraction per segment.
    /// Flat windows (per [`egi_tskit::stats::is_flat`]) produce all-zero
    /// coefficients, mirroring [`egi_tskit::stats::znormalize`].
    ///
    /// # Panics
    ///
    /// Panics if the window is out of bounds or `out.len() > n`.
    pub fn paa_znorm_into(&self, start: usize, n: usize, out: &mut [f64]) {
        paa_znorm_from_stats(&self.stats, start, n, out);
    }
}

/// The FastPAA kernel (paper Algorithm 2) expressed directly over
/// prefix-sum statistics: PAA coefficients of the z-normalized window
/// `[start, start + n)`, written into `out` (whose length is the PAA
/// size `w`).
///
/// This is the *one* code path every PAA consumer runs — batch
/// ([`FastSax::paa_znorm_into`] delegates here) and streaming (the
/// detectors extend their own [`PrefixStats`] per append and call this
/// for each fresh window). A window's coefficients read only the prefix
/// sums in `[start, start + n]`, and [`PrefixStats::extend`] is
/// bit-identical to a batch rebuild, so coefficients computed before an
/// append equal those computed after it — the keystone of the
/// streaming/batch SAX parity contract.
///
/// Flat windows (per [`egi_tskit::stats::is_flat`]) produce all-zero
/// coefficients, mirroring [`egi_tskit::stats::znormalize`].
///
/// # Panics
///
/// Panics if the window is out of range of the statistics or
/// `out.len() > n`.
pub fn paa_znorm_from_stats(stats: &PrefixStats, start: usize, n: usize, out: &mut [f64]) {
    let w = out.len();
    assert!(w > 0 && w <= n, "PAA size {w} invalid for window {n}");
    assert!(start + n <= stats.len(), "window out of bounds");
    let end = start + n;
    let mu = stats.range_mean(start, end);
    let var = if n < 2 {
        0.0
    } else {
        stats.range_variance(start, end)
    };
    if is_flat(mu, var) {
        out.iter_mut().for_each(|v| *v = 0.0);
        return;
    }
    let sigma = var.sqrt();
    for (i, coeff) in out.iter_mut().enumerate() {
        let s = start + segment_bound(i, n, w);
        let e = start + segment_bound(i + 1, n, w);
        let seg_mean = stats.range_sum(s, e) / (e - s) as f64;
        *coeff = (seg_mean - mu) / sigma;
    }
}

/// Discretizes the whole series with the fast path and numerosity-reduces:
/// [`discretize_from_stream`] over the series' [`PaaStream`].
///
/// `n` is the sliding-window length. Returns an empty token sequence when
/// the series is shorter than the window.
///
/// # Panics
///
/// Panics if `cfg.w > n` or `cfg.a > multi.amax()`.
pub fn discretize_series(
    fast: &FastSax<'_>,
    n: usize,
    cfg: SaxConfig,
    multi: &MultiResBreakpoints,
) -> NumerosityReduced {
    discretize_from_stream(&PaaStream::new(fast, n, cfg.w), cfg, multi)
}

/// Reference implementation: per-window copy, z-normalize, PAA, per-`a`
/// breakpoint table. `O(N·n)` — for tests and `discord-perf`'s FastPAA
/// ablation row.
pub fn discretize_series_naive(data: &[f64], n: usize, cfg: SaxConfig) -> NumerosityReduced {
    let table = BreakpointTable::new(cfg.a);
    let count = window_count(data.len(), n);
    let mut words = Vec::with_capacity(count);
    for start in 0..count {
        words.push(sax_word(&data[start..start + n], cfg, &table));
    }
    numerosity_reduce(words, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave(len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| (i as f64 / 7.0).sin() * 2.0 + (i as f64 / 23.0).cos())
            .collect()
    }

    #[test]
    fn fast_paa_matches_naive_paa() {
        let data = wave(300);
        let fast = FastSax::new(&data);
        let mut out = vec![0.0; 6];
        for start in [0usize, 13, 140, 268] {
            let n = 32;
            fast.paa_znorm_into(start, n, &mut out);
            let mut z = data[start..start + n].to_vec();
            egi_tskit::stats::znormalize(&mut z);
            let naive = crate::paa::paa(&z, 6);
            for (f, nv) in out.iter().zip(&naive) {
                assert!((f - nv).abs() < 1e-9, "start {start}: {f} vs {nv}");
            }
        }
    }

    #[test]
    fn fast_paa_flat_window_is_zero() {
        let mut data = wave(100);
        for v in data[40..60].iter_mut() {
            *v = 3.25;
        }
        let fast = FastSax::new(&data);
        let mut out = vec![0.0; 4];
        fast.paa_znorm_into(42, 16, &mut out);
        assert!(out.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn fast_and_naive_discretization_agree() {
        let data = wave(500);
        let n = 48;
        let multi = MultiResBreakpoints::new(10);
        let fast = FastSax::new(&data);
        for &(w, a) in &[(4usize, 4usize), (7, 3), (10, 10), (2, 2)] {
            let cfg = SaxConfig::new(w, a);
            let fast_nr = discretize_series(&fast, n, cfg, &multi);
            let naive_nr = discretize_series_naive(&data, n, cfg);
            assert_eq!(fast_nr, naive_nr, "divergence at w={w} a={a}");
        }
    }

    #[test]
    fn short_series_yields_empty() {
        let data = [1.0, 2.0];
        let fast = FastSax::new(&data);
        let multi = MultiResBreakpoints::new(4);
        let nr = discretize_series(&fast, 10, SaxConfig::new(2, 3), &multi);
        assert!(nr.is_empty());
        assert_eq!(nr.end_offset, 0);
    }

    #[test]
    fn token_count_never_exceeds_window_count() {
        let data = wave(256);
        let fast = FastSax::new(&data);
        let multi = MultiResBreakpoints::new(6);
        let nr = discretize_series(&fast, 32, SaxConfig::new(4, 4), &multi);
        assert!(nr.len() <= window_count(256, 32));
        assert!(!nr.is_empty());
    }

    #[test]
    fn offsets_strictly_increase() {
        let data = wave(400);
        let fast = FastSax::new(&data);
        let multi = MultiResBreakpoints::new(8);
        let nr = discretize_series(&fast, 25, SaxConfig::new(5, 5), &multi);
        for pair in nr.tokens.windows(2) {
            assert!(pair[0].offset < pair[1].offset);
        }
    }

    #[test]
    #[should_panic(expected = "window out of bounds")]
    fn out_of_bounds_window_panics() {
        let data = wave(50);
        let fast = FastSax::new(&data);
        let mut out = vec![0.0; 4];
        fast.paa_znorm_into(45, 10, &mut out);
    }
}
