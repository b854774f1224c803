//! Ensemble grammar induction (paper Section 6, Algorithm 1).
//!
//! Instead of betting on one `(w, a)` discretization, run `N` members with
//! random distinct parameter pairs, score each member's rule density curve
//! by its standard deviation, keep the top `τ·N` curves, normalize each to
//! `[0, 1]` by its maximum, and combine point-wise with the median. Members
//! share the prefix-sum statistics *and* the PAA cell streams (members
//! differing only in alphabet `a` reuse the same stream), so the
//! whole ensemble stays linear in the series length. Each member runs the
//! streaming detector's member refresh from an empty engine
//! ([`crate::streaming`]), on rayon workers since members are fully
//! independent.

use egi_sax::breakpoints::{MAX_ALPHABET, MIN_ALPHABET};
use egi_sax::stream::PaaStream;
use egi_sax::{FastSax, SaxConfig, MAX_WORD_LEN};
use egi_tskit::ConfigError;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;

use crate::density::RuleDensityCurve;
use crate::detector::{rank_anomalies, AnomalyReport};
use crate::streaming::{distinct_ws, member_curve};

/// How the kept, normalized curves are merged into one.
///
/// The paper uses the median; mean, min and max are ablations of that
/// choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Combiner {
    /// Point-wise median (the paper's choice, robust to outlier members):
    /// the middle value, or the mean of the middle pair for an even
    /// member count. A Batcher odd–even sorting network orders the
    /// members' values at 8 points at once; the multi-window extension's
    /// median is the same code.
    #[default]
    Median,
    /// Point-wise arithmetic mean.
    Mean,
    /// Point-wise minimum (aggressively favors anomaly agreement: one
    /// member voting "uncovered" zeroes the point).
    Min,
    /// Point-wise maximum (conservative: any member covering a point
    /// counts it as covered).
    Max,
}

/// Points the combine reads and merges at once: each comparator of the
/// median's sorting network orders this many columns.
const BLOCK: usize = 8;

/// Members whose σ passes run together, so that their addition chains
/// overlap instead of each waiting on its own.
const LANES: usize = 4;

/// A member curve as the combine reads it: its first `len` points
/// (zero past its end, as `values.resize(len, 0.0)` would leave it),
/// each divided by `max` when that is positive — Algorithm 1 line 11's
/// [`RuleDensityCurve::normalize_by_max`], applied as the points are
/// read instead of to a copy.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScaledCurve<'a> {
    values: &'a [f64],
    max: f64,
}

impl<'a> ScaledCurve<'a> {
    /// `values` divided by `max` when `max` is positive.
    pub(crate) fn new(values: &'a [f64], max: f64) -> Self {
        Self { values, max }
    }

    /// Writes points `start..start + BLOCK` to `out`: zero past the
    /// curve's end, and divided by the maximum when that is positive.
    fn read_block(&self, start: usize, out: &mut [f64; BLOCK]) {
        let src = self.values.get(start..).unwrap_or_default();
        let n = src.len().min(BLOCK);
        out[..n].copy_from_slice(&src[..n]);
        out[n..].fill(0.0);
        if self.max > 0.0 {
            for v in out.iter_mut() {
                *v /= self.max;
            }
        }
    }
}

impl Combiner {
    /// Merges `members` point-wise into `len` values, [`BLOCK`] points at
    /// a time. Mean, min and max fold each point's values in member
    /// order; the median sorts each block's columns with
    /// [`sorting_network`] and takes the middle value, or the mean of the
    /// middle pair. Both read exactly the values a per-point gather of
    /// normalized copies would, so every output bit is the one such a
    /// gather gives.
    pub(crate) fn combine(self, members: &[ScaledCurve<'_>], len: usize) -> Vec<f64> {
        let k = members.len();
        debug_assert!(k > 0);
        let network = match self {
            Combiner::Median => sorting_network(k),
            _ => Vec::new(),
        };
        // `rows[j][l]`: member `j` at the block's point `l`.
        let mut rows = vec![[0.0f64; BLOCK]; k];
        let mut values = Vec::with_capacity(len);
        for start in (0..len).step_by(BLOCK) {
            for (row, member) in rows.iter_mut().zip(members) {
                member.read_block(start, row);
            }
            let points = 0..BLOCK.min(len - start);
            let column = |l: usize| rows.iter().map(move |row| row[l]);
            match self {
                Combiner::Median => {
                    // Comparisons rather than `f64::min`/`max`: they
                    // vectorize to one instruction per lane pair, and
                    // differ only on a NaN, which the ranking rejects
                    // before two members get here.
                    for &(a, b) in &network {
                        let (x, y) = (rows[a], rows[b]);
                        rows[a] = std::array::from_fn(|l| if x[l] < y[l] { x[l] } else { y[l] });
                        rows[b] = std::array::from_fn(|l| if x[l] < y[l] { y[l] } else { x[l] });
                    }
                    let mid = k / 2;
                    values.extend(points.map(|l| {
                        let hi = rows[mid][l];
                        if k % 2 == 1 {
                            hi
                        } else {
                            0.5 * (rows[mid - 1][l] + hi)
                        }
                    }));
                }
                Combiner::Mean => {
                    values.extend(points.map(|l| column(l).sum::<f64>() / k as f64));
                }
                Combiner::Min => {
                    values.extend(points.map(|l| column(l).fold(f64::INFINITY, f64::min)));
                }
                Combiner::Max => {
                    values.extend(points.map(|l| column(l).fold(f64::NEG_INFINITY, f64::max)));
                }
            }
        }
        values
    }
}

/// Batcher's odd–even merge sort network for `k` values: comparators
/// `(a, b)` with `a < b`, in order, that leave any `k` values ascending
/// when each puts the smaller of its two at `a`. Built for the next
/// power of two, dropping every comparator that reaches past `k` (as if
/// the missing values were +∞, which such a comparator leaves in place).
fn sorting_network(k: usize) -> Vec<(usize, usize)> {
    let n = k.next_power_of_two();
    let mut network = Vec::new();
    let mut p = 1;
    while p < n {
        let mut q = p;
        while q >= 1 {
            let mut j = q % p;
            while j + q < n {
                for i in 0..q.min(n - j - q) {
                    let (a, b) = (i + j, i + j + q);
                    if a / (2 * p) == b / (2 * p) && b < k {
                        network.push((a, b));
                    }
                }
                j += 2 * q;
            }
            q /= 2;
        }
        p *= 2;
    }
    network
}

/// One member curve's quality score and normalizer, read at the
/// combined length: its population standard deviation (Algorithm 1
/// line 7) and its maximum (line 11).
#[derive(Debug, Clone, Copy)]
struct MemberStats {
    std: f64,
    max: f64,
}

/// [`MemberStats`] of each curve read at `len` points as
/// `values.resize(len, 0.0)` would leave it, in curve order, [`LANES`]
/// curves per pass.
fn member_stats(curves: &[&[f64]], len: usize) -> Vec<MemberStats> {
    let mut stats = Vec::with_capacity(curves.len());
    let mut groups = curves.chunks_exact(LANES);
    for group in groups.by_ref() {
        stats.extend(lane_stats::<LANES>(
            group.try_into().expect("chunks_exact yields LANES curves"),
            len,
        ));
    }
    for &curve in groups.remainder() {
        stats.extend(lane_stats([curve], len));
    }
    stats
}

/// [`member_stats`] of `L` curves at once. Each curve's sum, maximum and
/// sum of squared deviations run over its points in order, with the
/// arithmetic of `egi_tskit::stats::stddev_population` and
/// [`RuleDensityCurve::normalize_by_max`], so every bit is the one a
/// zero-padded copy of the curve would give; only the chains of
/// different curves interleave. A read of no points scores 0.
fn lane_stats<const L: usize>(curves: [&[f64]; L], len: usize) -> [MemberStats; L] {
    if len == 0 {
        return [MemberStats { std: 0.0, max: 0.0 }; L];
    }
    // `Iterator::sum` folds from -0.0.
    let mut sum = [-0.0f64; L];
    let mut max = [0.0f64; L];
    for_each_point(&curves, len, |l, v| {
        sum[l] += v;
        // `f64::max` but for the sign of a zero maximum, which divides
        // nothing either way.
        max[l] = if v > max[l] { v } else { max[l] };
    });
    let mean = sum.map(|s| s / len as f64);
    let mut squares = [-0.0f64; L];
    for_each_point(&curves, len, |l, v| {
        let d = v - mean[l];
        squares[l] += d * d;
    });
    std::array::from_fn(|l| MemberStats {
        std: (squares[l] / len as f64).sqrt(),
        max: max[l],
    })
}

/// Calls `f(l, v)` with every point `v` of every curve `l` read at `len`
/// points (cut, or zero past its end), point by point, all curves at
/// each point.
fn for_each_point<const L: usize>(curves: &[&[f64]; L], len: usize, mut f: impl FnMut(usize, f64)) {
    let common = curves.iter().map(|c| c.len()).min().unwrap_or(0).min(len);
    let heads = curves.map(|c| &c[..common]);
    for t in 0..common {
        for (l, head) in heads.iter().enumerate() {
            f(l, head[t]);
        }
    }
    for t in common..len {
        for (l, curve) in curves.iter().enumerate() {
            f(l, curve.get(t).copied().unwrap_or(0.0));
        }
    }
}

/// Configuration of the ensemble detector (paper defaults in
/// [`Default`]: `N = 50`, `wmax = amax = 10`, `τ = 40%`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnsembleConfig {
    /// Sliding-window length `n`.
    pub window: usize,
    /// Ensemble size `N`: how many `(w, a)` pairs are drawn.
    pub ensemble_size: usize,
    /// Maximum PAA size; members draw `w ∈ [2, wmax]`.
    pub wmax: usize,
    /// Maximum alphabet size; members draw `a ∈ [2, amax]`.
    pub amax: usize,
    /// Ensemble selectivity `τ ∈ (0, 1]`: fraction of curves kept.
    pub selectivity: f64,
    /// Curve combination operator.
    pub combiner: Combiner,
}

impl Default for EnsembleConfig {
    fn default() -> Self {
        Self {
            window: 128,
            ensemble_size: 50,
            wmax: 10,
            amax: 10,
            selectivity: 0.4,
            combiner: Combiner::Median,
        }
    }
}

/// The ensemble grammar-induction anomaly detector (Algorithm 1).
#[derive(Debug, Clone)]
pub struct EnsembleDetector {
    config: EnsembleConfig,
}

/// Per-member ensemble diagnostics (see [`EnsembleDetector::diagnostics`]).
#[derive(Debug, Clone)]
pub struct MemberDiagnostics {
    /// The drawn `(w, a)` pairs, in member order.
    pub params: Vec<SaxConfig>,
    /// Raw (unnormalized) rule density curves, in member order.
    pub curves: Vec<RuleDensityCurve>,
    /// Standard deviation of each curve (the quality score).
    pub stds: Vec<f64>,
    /// Indices of the members kept by the τ filter, best first.
    pub kept: Vec<usize>,
}

impl EnsembleConfig {
    /// Checks every field against its range: `window ≥ 2`,
    /// `ensemble_size ≥ 1`, `wmax ∈ [2, 25]` (the longest packed SAX
    /// word, [`MAX_WORD_LEN`]), `amax` within the SAX alphabet range
    /// `[2, 26]`, and `selectivity ∈ (0, 1]`. The one place these
    /// rules live: [`EnsembleDetector::new`] panics on the error, the
    /// streaming checkpoint loader and the `egi` CLI report it.
    pub fn validate(&self) -> Result<(), ConfigError> {
        ConfigError::check(self.window >= 2, "window", "at least 2", self.window)?;
        ConfigError::check(
            self.ensemble_size >= 1,
            "ensemble_size",
            "at least 1",
            self.ensemble_size,
        )?;
        ConfigError::check(
            (2..=MAX_WORD_LEN).contains(&self.wmax),
            "wmax",
            format_args!("in [2, {MAX_WORD_LEN}]"),
            self.wmax,
        )?;
        ConfigError::check(
            (MIN_ALPHABET..=MAX_ALPHABET).contains(&self.amax),
            "amax",
            format_args!("in [{MIN_ALPHABET}, {MAX_ALPHABET}]"),
            self.amax,
        )?;
        ConfigError::check(
            self.selectivity > 0.0 && self.selectivity <= 1.0,
            "selectivity",
            "in (0, 1]",
            self.selectivity,
        )
    }
}

impl EnsembleDetector {
    /// Creates a detector, validating the configuration.
    ///
    /// # Panics
    ///
    /// Panics when [`EnsembleConfig::validate`] rejects the
    /// configuration: a window shorter than 2 points,
    /// `ensemble_size == 0`, `wmax` outside `[2, 25]`, an alphabet
    /// `amax` outside `[2, 26]`, or a selectivity outside `(0, 1]`.
    pub fn new(config: EnsembleConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid ensemble configuration: {e}");
        }
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> EnsembleConfig {
        self.config
    }

    /// Draws the member parameter pairs for `seed`: up to `N` distinct
    /// `(w, a)` with `w ∈ [2, min(wmax, window)]`, `a ∈ [2, amax]`
    /// (Algorithm 1 lines 4–5; "any w, a combination is used only once").
    pub fn member_params(&self, seed: u64) -> Vec<SaxConfig> {
        let w_hi = self.config.wmax.min(self.config.window);
        let mut pairs: Vec<SaxConfig> = (2..=w_hi)
            .flat_map(|w| (2..=self.config.amax).map(move |a| SaxConfig::new(w, a)))
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        pairs.shuffle(&mut rng);
        pairs.truncate(self.config.ensemble_size);
        pairs
    }

    /// Computes one rule density curve per member parameter pair.
    ///
    /// Members sharing a PAA size `w` share one PAA cell stream, and
    /// each member runs the streaming detector's member refresh from an
    /// empty engine on a rayon worker. Curves come back in `params`
    /// order, bit-identical for every worker count.
    pub fn member_curves(&self, series: &[f64], params: &[SaxConfig]) -> Vec<RuleDensityCurve> {
        let fast = FastSax::new(series);
        let ws = distinct_ws(params);
        let streams: Vec<PaaStream> = ws
            .par_iter()
            .map(|&w| PaaStream::new(&fast, self.config.window, w))
            .collect();
        params
            .par_iter()
            .map(|&sax| {
                let stream = &streams[ws.binary_search(&sax.w).expect("w collected above")];
                member_curve(sax, stream, series.len())
            })
            .collect()
    }

    /// Algorithm 1: builds the ensemble rule density curve.
    pub fn ensemble_curve(&self, series: &[f64], seed: u64) -> RuleDensityCurve {
        let params = self.member_params(seed);
        let curves = self.member_curves(series, &params);
        self.combine_curves(curves)
    }

    /// Filtering + normalization + combination (Algorithm 1 lines 7–14),
    /// exposed separately so tests and ablations can inject curves: the
    /// owned-curve form of [`combine_members`](Self::combine_members) at
    /// the first curve's length.
    ///
    /// # Panics
    ///
    /// Panics when `curves` is empty.
    pub fn combine_curves(&self, curves: Vec<RuleDensityCurve>) -> RuleDensityCurve {
        let members: Vec<&[f64]> = curves.iter().map(|c| c.values.as_slice()).collect();
        self.combine_members(&members, curves.first().map_or(0, RuleDensityCurve::len))
    }

    /// Algorithm 1 lines 7–14 over borrowed member curves, `len` points
    /// long: rank the members by standard deviation, keep the top
    /// `round(τ·N)`, divide each kept curve by its maximum, and merge them
    /// point-wise with the configured [`Combiner`].
    ///
    /// Each curve is read as `values.resize(len, 0.0)` would leave it —
    /// cut at `len`, zero past its end — and nothing is copied: the
    /// standard deviations take two passes over every member, four
    /// members at a time, and the kept members are normalized as the
    /// merge reads them, 8 points at a time. The result is bit
    /// for bit that of zero-padded, normalized copies combined point by
    /// point (property-tested against that reference), for curves holding
    /// no negative zero; coverage counts never do.
    ///
    /// # Panics
    ///
    /// Panics when `curves` is empty, or when a member read holds a NaN
    /// and there are at least two members: the ranking cannot order it.
    pub fn combine_members(&self, curves: &[&[f64]], len: usize) -> RuleDensityCurve {
        assert!(!curves.is_empty(), "no ensemble members");
        let stats = member_stats(curves, len);
        let stds: Vec<f64> = stats.iter().map(|s| s.std).collect();
        let kept: Vec<ScaledCurve<'_>> = self
            .kept_members(&stds)
            .into_iter()
            .map(|i| ScaledCurve::new(&curves[i][..curves[i].len().min(len)], stats[i].max))
            .collect();
        RuleDensityCurve {
            values: self.config.combiner.combine(&kept, len),
        }
    }

    /// Per-member diagnostics: parameters, raw curves, standard
    /// deviations, and which members survived the τ filter — everything
    /// needed to reproduce the paper's Figure 5 (top-2 vs bottom-2 curves
    /// by std ranking).
    pub fn diagnostics(&self, series: &[f64], seed: u64) -> MemberDiagnostics {
        let params = self.member_params(seed);
        let curves = self.member_curves(series, &params);
        let members: Vec<&[f64]> = curves.iter().map(|c| c.values.as_slice()).collect();
        let stds: Vec<f64> = member_stats(&members, series.len())
            .iter()
            .map(|s| s.std)
            .collect();
        let kept = self.kept_members(&stds);
        MemberDiagnostics {
            params,
            curves,
            stds,
            kept,
        }
    }

    /// The members the τ filter keeps (Algorithm 1 lines 9–10), best
    /// first: ranked by standard deviation, descending, with an index
    /// tie-break that keeps the procedure deterministic, then cut to
    /// `round(τ·N)` members, at least one.
    fn kept_members(&self, stds: &[f64]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..stds.len()).collect();
        order.sort_by(|&x, &y| {
            stds[y]
                .partial_cmp(&stds[x])
                .expect("stddev is finite")
                .then(x.cmp(&y))
        });
        let keep =
            ((self.config.selectivity * stds.len() as f64).round() as usize).clamp(1, stds.len());
        order.truncate(keep);
        order
    }

    /// Full detection: ensemble curve → top-`k` non-overlapping minima.
    ///
    /// # Panics
    ///
    /// Panics if `series` contains non-finite values (NaN/±∞ would poison
    /// the shared prefix sums silently).
    pub fn detect(&self, series: &[f64], k: usize, seed: u64) -> AnomalyReport {
        assert!(
            series.iter().all(|v| v.is_finite()),
            "series contains non-finite values"
        );
        let curve = self.ensemble_curve(series, seed);
        let anomalies = rank_anomalies(&curve.values, self.config.window, k);
        AnomalyReport {
            anomalies,
            curve: curve.values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egi_tskit::gen::ecg::{ecg_beat, EcgParams};

    fn beat_train(beats: usize, beat_len: usize, anomaly_at: usize) -> (Vec<f64>, usize) {
        let normal = ecg_beat(beat_len, &EcgParams::default());
        let weird = ecg_beat(beat_len, &EcgParams::ectopic());
        let mut series = Vec::new();
        let mut gt = 0;
        for b in 0..beats {
            if b == anomaly_at {
                gt = series.len();
                series.extend_from_slice(&weird);
            } else {
                series.extend_from_slice(&normal);
            }
        }
        (series, gt)
    }

    fn config(window: usize) -> EnsembleConfig {
        EnsembleConfig {
            window,
            ensemble_size: 20,
            ..EnsembleConfig::default()
        }
    }

    #[test]
    fn member_params_are_distinct_and_in_range() {
        let det = EnsembleDetector::new(config(64));
        let params = det.member_params(1);
        assert_eq!(params.len(), 20);
        let mut seen = std::collections::HashSet::new();
        for p in &params {
            assert!((2..=10).contains(&p.w));
            assert!((2..=10).contains(&p.a));
            assert!(seen.insert((p.w, p.a)), "duplicate pair {p}");
        }
    }

    #[test]
    fn member_params_respect_small_window() {
        let det = EnsembleDetector::new(EnsembleConfig {
            window: 4,
            ..config(4)
        });
        for p in det.member_params(3) {
            assert!(p.w <= 4, "w={} exceeds window 4", p.w);
        }
    }

    #[test]
    fn ensemble_size_larger_than_space_uses_all_pairs() {
        let det = EnsembleDetector::new(EnsembleConfig {
            ensemble_size: 500,
            ..config(64)
        });
        // 9 × 9 = 81 pairs available.
        assert_eq!(det.member_params(0).len(), 81);
    }

    #[test]
    fn params_are_deterministic_per_seed() {
        let det = EnsembleDetector::new(config(64));
        assert_eq!(det.member_params(7), det.member_params(7));
        assert_ne!(det.member_params(7), det.member_params(8));
    }

    #[test]
    fn detects_planted_anomaly() {
        let beat_len = 100;
        let (series, gt) = beat_train(20, beat_len, 12);
        let det = EnsembleDetector::new(config(beat_len));
        let report = det.detect(&series, 1, 42);
        let found = report.top_location().expect("one candidate");
        assert!(
            (found as i64 - gt as i64).unsigned_abs() as usize <= beat_len,
            "found {found}, gt {gt}"
        );
    }

    /// Members run on rayon workers and come back in member order, so
    /// the report is bit-identical for every worker count.
    #[test]
    fn detect_is_bit_identical_across_worker_counts() {
        let (series, _) = beat_train(12, 64, 6);
        let det = EnsembleDetector::new(config(64));
        let bits = |r: &AnomalyReport| -> Vec<u64> {
            let scores = r.anomalies.iter().map(|c| c.score.to_bits());
            r.curve.iter().map(|v| v.to_bits()).chain(scores).collect()
        };
        let threads = [1usize, 2, 4];
        let reports = threads.map(|n| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .unwrap()
                .install(|| det.detect(&series, 3, 5))
        });
        assert_eq!(reports[0].anomalies.len(), 3);
        for (n, report) in threads.iter().zip(&reports) {
            assert_eq!(report, &reports[0], "{n} threads");
            assert_eq!(bits(report), bits(&reports[0]), "{n} threads");
        }
    }

    /// Each member curve is the paper's pipeline over the member's own
    /// discretization (intern, induce a `Grammar`, build its curve), bit
    /// for bit, for members sharing a PAA stream, in draw order.
    #[test]
    fn member_curves_equal_the_grammar_pipeline() {
        let (series, _) = beat_train(10, 64, 4);
        let det = EnsembleDetector::new(config(64));
        let params = [(4, 3), (6, 5), (4, 9), (6, 2), (4, 4)].map(|(w, a)| SaxConfig::new(w, a));
        let fast = FastSax::new(&series);
        let multi = egi_sax::MultiResBreakpoints::new(10);
        let bits =
            |c: &RuleDensityCurve| -> Vec<u64> { c.values.iter().map(|v| v.to_bits()).collect() };
        let curves = det.member_curves(&series, &params);
        assert_eq!(curves.len(), params.len());
        for (sax, curve) in params.iter().zip(&curves) {
            let nr = egi_sax::discretize_series(&fast, 64, *sax, &multi);
            let grammar = egi_sequitur::induce(crate::intern::intern_tokens(&nr));
            let built = RuleDensityCurve::build(&grammar, &nr, series.len());
            assert!(built.values.iter().any(|&v| v > 0.0), "{sax}");
            assert_eq!(bits(curve), bits(&built), "{sax}");
        }
    }

    /// A series shorter than the window has no window to discretize:
    /// every member's curve is all zeros, one value per series point.
    #[test]
    fn members_over_a_series_shorter_than_the_window_are_flat_zero() {
        let det = EnsembleDetector::new(config(64));
        let params = det.member_params(3);
        for len in [0usize, 1, 9, 63] {
            let series: Vec<f64> = (0..len).map(|i| (i as f64 * 0.7).sin()).collect();
            let curves = det.member_curves(&series, &params);
            assert_eq!(curves.len(), params.len());
            for curve in curves {
                assert_eq!(curve.values, vec![0.0; len], "len {len}");
            }
        }
    }

    #[test]
    fn combine_keeps_zero_regions_zero_under_median() {
        let det = EnsembleDetector::new(EnsembleConfig {
            selectivity: 1.0,
            ..config(8)
        });
        // Three curves that all vanish at point 2.
        let curves = vec![
            RuleDensityCurve {
                values: vec![2.0, 4.0, 0.0, 2.0],
            },
            RuleDensityCurve {
                values: vec![1.0, 2.0, 0.0, 1.0],
            },
            RuleDensityCurve {
                values: vec![3.0, 3.0, 0.0, 3.0],
            },
        ];
        let combined = det.combine_curves(curves);
        assert_eq!(combined.values[2], 0.0);
        assert!(combined.values[0] > 0.0);
    }

    #[test]
    fn selectivity_drops_low_std_curves() {
        let det = EnsembleDetector::new(EnsembleConfig {
            selectivity: 0.5,
            combiner: Combiner::Mean,
            ..config(8)
        });
        // One informative curve (high std) and one flat curve. τ = 50%
        // keeps only the informative one.
        let curves = vec![
            RuleDensityCurve {
                values: vec![4.0, 4.0, 4.0, 4.0],
            }, // flat
            RuleDensityCurve {
                values: vec![4.0, 0.0, 4.0, 4.0],
            }, // dip
        ];
        let combined = det.combine_curves(curves);
        // The kept curve normalized: [1, 0, 1, 1].
        assert_eq!(combined.values, vec![1.0, 0.0, 1.0, 1.0]);
    }

    /// Combines one point whose values across members are `column`.
    fn combine_point(combiner: Combiner, column: &[f64]) -> f64 {
        let members: Vec<ScaledCurve<'_>> = column
            .iter()
            .map(|v| ScaledCurve::new(std::slice::from_ref(v), 0.0))
            .collect();
        combiner.combine(&members, 1)[0]
    }

    #[test]
    fn median_of_even_count_averages_middle_pair() {
        assert_eq!(combine_point(Combiner::Median, &[1.0, 3.0]), 2.0);
        assert_eq!(combine_point(Combiner::Median, &[1.0, 2.0, 4.0, 8.0]), 3.0);
        assert_eq!(combine_point(Combiner::Median, &[5.0, 1.0, 9.0]), 5.0);
    }

    #[test]
    fn mean_min_max_combiners() {
        assert_eq!(combine_point(Combiner::Mean, &[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(combine_point(Combiner::Min, &[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(combine_point(Combiner::Max, &[3.0, 1.0, 2.0]), 3.0);
    }

    /// Applies `network` to `values`, one comparator at a time.
    fn run_network(network: &[(usize, usize)], values: &mut [f64]) {
        for &(a, b) in network {
            assert!(a < b && b < values.len(), "comparator ({a}, {b})");
            if values[b] < values[a] {
                values.swap(a, b);
            }
        }
    }

    /// The 0–1 principle: a comparator network that sorts every 0/1
    /// input sorts every input. Checked exhaustively up to 12 values.
    #[test]
    fn sorting_network_sorts_every_zero_one_input() {
        for k in 1..=12usize {
            let network = sorting_network(k);
            for bits in 0u32..1 << k {
                let mut values: Vec<f64> = (0..k).map(|i| f64::from((bits >> i) & 1)).collect();
                run_network(&network, &mut values);
                let ones = bits.count_ones() as usize;
                assert!(
                    values[..k - ones].iter().all(|&v| v == 0.0)
                        && values[k - ones..].iter().all(|&v| v == 1.0),
                    "k={k} input {bits:b}: {values:?}"
                );
            }
        }
    }

    #[test]
    fn sorting_network_sorts_random_inputs_up_to_64_values() {
        let mut rng = StdRng::seed_from_u64(11);
        for k in 1..=64usize {
            let network = sorting_network(k);
            for _ in 0..20 {
                let mut values: Vec<f64> = (0..k)
                    .map(|_| rand::Rng::gen_range(&mut rng, 0u32..9) as f64 / 4.0)
                    .collect();
                let mut sorted = values.clone();
                sorted.sort_by(f64::total_cmp);
                run_network(&network, &mut values);
                assert_eq!(values, sorted, "k={k}");
            }
        }
    }

    /// σ is the population standard deviation of the curve zero-padded
    /// or cut to the read length, bit for bit, and the maximum is the
    /// curve's; an empty read scores 0, as does a flat one.
    #[test]
    fn member_stats_read_curves_as_resized() {
        let curves: [&[f64]; 6] = [
            &[0.0, 1.0, 3.0, 1.0, 0.0],
            &[2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 9.0],
            &[0.5, 4.25],
            &[],
            &[1.0, 0.0, 7.0, 7.0, 3.5, 1.0],
            &[3.0; 5],
        ];
        for len in [0usize, 1, 3, 5, 6, 9] {
            let stats = member_stats(&curves, len);
            for (c, s) in curves.iter().zip(&stats) {
                let mut padded = c.to_vec();
                padded.resize(len, 0.0);
                let std = if len == 0 {
                    0.0
                } else {
                    egi_tskit::stats::stddev_population(&padded)
                };
                let max = padded.iter().cloned().fold(0.0f64, f64::max);
                assert_eq!(s.std.to_bits(), std.to_bits(), "{c:?} at {len}");
                assert_eq!(s.max, max, "{c:?} at {len}");
            }
        }
        assert_eq!(member_stats(&curves, 5)[5].std, 0.0);
        assert!(member_stats(&curves, 5)[0].std > 0.0);
    }

    #[test]
    fn kept_members_rank_by_std_then_index() {
        let stds = [0.5, 2.0, 1.0, 2.0, 0.0];
        let all = EnsembleDetector::new(EnsembleConfig {
            selectivity: 1.0,
            ..config(8)
        });
        // Members 1 and 3 tie on σ: the lower index ranks first.
        assert_eq!(all.kept_members(&stds), vec![1, 3, 2, 0, 4]);
        let top = EnsembleDetector::new(EnsembleConfig {
            selectivity: 0.4,
            ..config(8)
        });
        assert_eq!(top.kept_members(&stds), vec![1, 3]);
    }

    #[test]
    fn keep_count_rounds_tau_n_and_keeps_at_least_one() {
        // (τ, N, kept): halves round away from zero.
        for (tau, n, keep) in [
            (0.4, 50, 20),
            (0.25, 10, 3),
            (0.375, 4, 2),
            (0.125, 4, 1),
            (0.01, 10, 1),
            (1.0, 7, 7),
        ] {
            let det = EnsembleDetector::new(EnsembleConfig {
                selectivity: tau,
                ..config(8)
            });
            let kept = det.kept_members(&vec![1.0; n]);
            assert_eq!(kept, (0..keep).collect::<Vec<_>>(), "τ={tau} N={n}");
        }
    }

    /// `diagnostics` reports the very members the ensemble curve
    /// combines: combining just those, unfiltered, reproduces it.
    #[test]
    fn diagnostics_kept_set_reproduces_the_ensemble_curve() {
        let (series, _) = beat_train(10, 64, 4);
        let det = EnsembleDetector::new(config(64));
        let diag = det.diagnostics(&series, 9);
        assert_eq!(diag.params, det.member_params(9));
        assert_eq!(diag.kept.len(), 8);
        assert!(diag
            .kept
            .windows(2)
            .all(|w| diag.stds[w[0]] >= diag.stds[w[1]]));
        let kept: Vec<RuleDensityCurve> =
            diag.kept.iter().map(|&i| diag.curves[i].clone()).collect();
        let unfiltered = EnsembleDetector::new(EnsembleConfig {
            selectivity: 1.0,
            ..config(64)
        });
        assert_eq!(
            unfiltered.combine_curves(kept).values,
            det.ensemble_curve(&series, 9).values
        );
    }

    #[test]
    fn wmax_stops_at_the_longest_packed_word() {
        let with_wmax = |wmax| EnsembleConfig {
            wmax,
            ..EnsembleConfig::default()
        };
        assert_eq!(with_wmax(MAX_WORD_LEN).validate(), Ok(()));
        let err = with_wmax(MAX_WORD_LEN + 1).validate().unwrap_err();
        assert_eq!(err.field, "wmax");
        assert_eq!(err.reason, "must be in [2, 25], got 26");
        assert_eq!(with_wmax(1).validate().unwrap_err().field, "wmax");
    }

    #[test]
    #[should_panic(expected = "selectivity")]
    fn zero_selectivity_rejected() {
        EnsembleDetector::new(EnsembleConfig {
            selectivity: 0.0,
            ..EnsembleConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "no ensemble members")]
    fn combine_empty_panics() {
        let det = EnsembleDetector::new(EnsembleConfig::default());
        det.combine_curves(Vec::new());
    }
}
