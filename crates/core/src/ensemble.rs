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
use egi_sax::{FastSax, SaxConfig};
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
/// choice, which egi-bench's `ablation_combiner` bench compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Combiner {
    /// Point-wise median (the paper's choice, robust to outlier members).
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

impl Combiner {
    /// Merges one point's values across curves. Reorders `column`.
    pub(crate) fn combine(self, column: &mut [f64]) -> f64 {
        debug_assert!(!column.is_empty());
        match self {
            Combiner::Median => {
                let mid = column.len() / 2;
                column
                    .select_nth_unstable_by(mid, |x, y| x.partial_cmp(y).expect("finite density"));
                let hi = column[mid];
                if column.len() % 2 == 1 {
                    hi
                } else {
                    let lo = column[..mid]
                        .iter()
                        .cloned()
                        .fold(f64::NEG_INFINITY, f64::max);
                    0.5 * (lo + hi)
                }
            }
            Combiner::Mean => column.iter().sum::<f64>() / column.len() as f64,
            Combiner::Min => column.iter().cloned().fold(f64::INFINITY, f64::min),
            Combiner::Max => column.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
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
    /// `ensemble_size ≥ 1`, `wmax ≥ 2`, `amax` within the SAX alphabet
    /// range `[2, 26]`, and `selectivity ∈ (0, 1]`. The one place these
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
        ConfigError::check(self.wmax >= 2, "wmax", "at least 2", self.wmax)?;
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
    /// `ensemble_size == 0`, `wmax < 2`, an alphabet `amax` outside
    /// `[2, 26]`, or a selectivity outside `(0, 1]`.
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
    /// exposed separately so tests and ablations can inject curves.
    pub fn combine_curves(&self, curves: Vec<RuleDensityCurve>) -> RuleDensityCurve {
        assert!(!curves.is_empty(), "no ensemble members");
        let len = curves[0].len();
        debug_assert!(curves.iter().all(|c| c.len() == len));

        // Keep the top τ·N members by standard deviation (lines 9–10)
        // and normalize them (line 11).
        let stds: Vec<f64> = curves.iter().map(RuleDensityCurve::stddev).collect();
        let mut kept: Vec<RuleDensityCurve> = self
            .kept_members(&stds)
            .into_iter()
            .map(|i| curves[i].clone())
            .collect();
        for c in kept.iter_mut() {
            c.normalize_by_max();
        }

        // Point-wise combination (line 14).
        let mut values = Vec::with_capacity(len);
        let mut column = vec![0.0f64; kept.len()];
        for t in 0..len {
            for (slot, c) in column.iter_mut().zip(&kept) {
                *slot = c.values[t];
            }
            values.push(self.config.combiner.combine(&mut column));
        }
        RuleDensityCurve { values }
    }

    /// Per-member diagnostics: parameters, raw curves, standard
    /// deviations, and which members survived the τ filter — everything
    /// needed to reproduce the paper's Figure 5 (top-2 vs bottom-2 curves
    /// by std ranking).
    pub fn diagnostics(&self, series: &[f64], seed: u64) -> MemberDiagnostics {
        let params = self.member_params(seed);
        let curves = self.member_curves(series, &params);
        let stds: Vec<f64> = curves.iter().map(RuleDensityCurve::stddev).collect();
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

    #[test]
    fn median_of_even_count_averages_middle_pair() {
        assert_eq!(Combiner::Median.combine(&mut [1.0, 3.0]), 2.0);
        assert_eq!(Combiner::Median.combine(&mut [1.0, 2.0, 4.0, 8.0]), 3.0);
        assert_eq!(Combiner::Median.combine(&mut [5.0, 1.0, 9.0]), 5.0);
    }

    #[test]
    fn mean_min_max_combiners() {
        assert_eq!(Combiner::Mean.combine(&mut [1.0, 2.0, 3.0]), 2.0);
        assert_eq!(Combiner::Min.combine(&mut [3.0, 1.0, 2.0]), 1.0);
        assert_eq!(Combiner::Max.combine(&mut [3.0, 1.0, 2.0]), 3.0);
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
