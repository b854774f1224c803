//! Multi-window ensemble: extending Algorithm 1 over the third parameter.
//!
//! The paper's opening motivation is that anomalies of *different lengths*
//! may co-exist, yet its Algorithm 1 still fixes the sliding-window length
//! `n` and randomizes only `(w, a)`. Its own Table 13 shows the method is
//! robust to moderately wrong `n` — which suggests the obvious extension
//! the conclusion leaves open: ensemble over several window lengths too.
//!
//! [`MultiWindowEnsemble`] runs one full Algorithm 1 ensemble per window
//! length, normalizes each ensemble curve to `[0, 1]` (zeros preserved,
//! same rationale as Section 6.1.2), and combines the per-window curves
//! point-wise by median. Candidates are then extracted per window length
//! and merged non-overlappingly by ascending combined-curve score, so the
//! report can contain candidates of different lengths — matching the
//! Figure 9 case study where the two real anomalies have different
//! durations.

use crate::density::RuleDensityCurve;
use crate::detector::{rank_anomalies, AnomalyReport, Candidate};
use crate::ensemble::{Combiner, EnsembleConfig, EnsembleDetector, ScaledCurve};
use egi_tskit::window::intervals_overlap;

/// Configuration of the multi-window extension.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiWindowConfig {
    /// The window lengths to ensemble over (each gets a full Algorithm 1
    /// run). Must be non-empty, each ≥ 2.
    pub windows: Vec<usize>,
    /// Per-window ensemble settings (the `window` field is overridden).
    pub base: EnsembleConfig,
    /// Minimum gap (points) between reported candidates. A deep, long
    /// anomaly forms a wide basin in the combined curve into which several
    /// short windows fit; without a gap the top-k would all describe that
    /// one event. `None` defaults to half the longest window.
    pub suppression_margin: Option<usize>,
}

/// Ensemble-of-ensembles detector over several window lengths.
#[derive(Debug, Clone)]
pub struct MultiWindowEnsemble {
    config: MultiWindowConfig,
}

impl MultiWindowEnsemble {
    /// Creates the detector.
    ///
    /// # Panics
    ///
    /// Panics when `windows` is empty or contains a length < 2.
    pub fn new(config: MultiWindowConfig) -> Self {
        assert!(
            !config.windows.is_empty(),
            "need at least one window length"
        );
        assert!(
            config.windows.iter().all(|&w| w >= 2),
            "window lengths must be ≥ 2"
        );
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MultiWindowConfig {
        &self.config
    }

    /// One normalized ensemble curve per window length, in input order:
    /// each window length runs one Algorithm 1 ensemble
    /// ([`EnsembleDetector::ensemble_curve`], whose members run on rayon
    /// workers) with its own member draw.
    pub fn window_curves(&self, series: &[f64], seed: u64) -> Vec<RuleDensityCurve> {
        self.config
            .windows
            .iter()
            .enumerate()
            .map(|(i, &window)| {
                let det = EnsembleDetector::new(EnsembleConfig {
                    window,
                    ..self.config.base
                });
                // Decorrelate member draws across window lengths.
                let mut curve = det.ensemble_curve(series, seed ^ ((i as u64 + 1) << 48));
                // Level the series edges before normalizing: boundary
                // points are covered by fewer windows and would otherwise
                // masquerade as anomalies in the global ranking.
                curve.correct_edge_coverage(window);
                curve.normalize_by_max();
                curve
            })
            .collect()
    }

    /// The combined (point-wise median) curve across window lengths: the
    /// ensemble's own [`Combiner::Median`].
    pub fn combined_curve(&self, series: &[f64], seed: u64) -> RuleDensityCurve {
        let curves = self.window_curves(series, seed);
        // Normalized already, so each is read as is (a maximum of 0
        // divides nothing).
        let members: Vec<ScaledCurve<'_>> = curves
            .iter()
            .map(|c| ScaledCurve::new(&c.values, 0.0))
            .collect();
        RuleDensityCurve {
            values: Combiner::Median.combine(&members, curves[0].len()),
        }
    }

    /// Detection with *variable-length* candidates: for each window
    /// length, candidate windows are scored on the combined curve; all
    /// candidates are merged by ascending score under a global
    /// non-overlap constraint, so a short and a long anomaly can both be
    /// reported.
    ///
    /// # Panics
    ///
    /// Panics if `series` contains non-finite values.
    pub fn detect(&self, series: &[f64], k: usize, seed: u64) -> AnomalyReport {
        assert!(
            series.iter().all(|v| v.is_finite()),
            "series contains non-finite values"
        );
        let combined = self.combined_curve(series, seed);
        // Generous per-window candidate pool, merged globally below.
        let mut pool: Vec<Candidate> = Vec::new();
        for &w in &self.config.windows {
            pool.extend(rank_anomalies(&combined.values, w, k.saturating_mul(2)));
        }
        pool.sort_by(|a, b| {
            a.score
                .partial_cmp(&b.score)
                .expect("scores are finite")
                .then(a.start.cmp(&b.start))
                .then(a.len.cmp(&b.len))
        });
        let margin = self
            .config
            .suppression_margin
            .unwrap_or_else(|| self.config.windows.iter().copied().max().unwrap_or(2) / 2);
        let mut picked: Vec<Candidate> = Vec::with_capacity(k);
        for c in pool {
            if picked.len() == k {
                break;
            }
            // Conflict = overlapping after inflating by the margin: the
            // gap between two reported events must exceed `margin`.
            let conflicts = |p: &Candidate| {
                intervals_overlap(p.start, p.len + margin, c.start, c.len + margin)
                    || intervals_overlap(
                        p.start.saturating_sub(margin),
                        p.len + margin,
                        c.start,
                        c.len,
                    )
            };
            if !picked.iter().any(conflicts) {
                picked.push(c);
            }
        }
        AnomalyReport {
            anomalies: picked,
            curve: combined.values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ensemble::EnsembleConfig;
    use egi_tskit::gen::ecg::{ecg_beat, EcgParams};

    /// Beat train with a short anomaly (one odd beat) and a long anomaly
    /// (three consecutive odd beats) — different lengths by construction.
    fn two_length_series(beat_len: usize) -> (Vec<f64>, (usize, usize), (usize, usize)) {
        let normal = ecg_beat(beat_len, &EcgParams::default());
        let weird = ecg_beat(beat_len, &EcgParams::ectopic());
        let mut series = Vec::new();
        let mut short = (0, beat_len);
        let mut long = (0, 3 * beat_len);
        for b in 0..40 {
            if b == 10 {
                short.0 = series.len();
                series.extend_from_slice(&weird);
            } else if b == 25 {
                long.0 = series.len();
                for _ in 0..3 {
                    series.extend_from_slice(&weird);
                }
            } else {
                series.extend_from_slice(&normal);
            }
        }
        (series, short, long)
    }

    fn config(windows: Vec<usize>) -> MultiWindowConfig {
        MultiWindowConfig {
            windows,
            base: EnsembleConfig {
                ensemble_size: 12,
                ..EnsembleConfig::default()
            },
            suppression_margin: None,
        }
    }

    #[test]
    fn finds_anomalies_of_both_lengths() {
        let beat = 80;
        let (series, short, long) = two_length_series(beat);
        let det = MultiWindowEnsemble::new(config(vec![beat, 3 * beat]));
        let report = det.detect(&series, 2, 3);
        assert_eq!(report.anomalies.len(), 2);
        let hit = |gt: (usize, usize)| {
            report
                .anomalies
                .iter()
                .any(|c| intervals_overlap(c.start, c.len, gt.0, gt.1))
        };
        assert!(hit(short), "short anomaly missed: {:?}", report.anomalies);
        assert!(hit(long), "long anomaly missed: {:?}", report.anomalies);
    }

    #[test]
    fn candidates_never_overlap_across_lengths() {
        let (series, _, _) = two_length_series(60);
        let det = MultiWindowEnsemble::new(config(vec![60, 120, 180]));
        let report = det.detect(&series, 4, 1);
        for i in 0..report.anomalies.len() {
            for j in i + 1..report.anomalies.len() {
                let (a, b) = (&report.anomalies[i], &report.anomalies[j]);
                assert!(!intervals_overlap(a.start, a.len, b.start, b.len));
            }
        }
    }

    #[test]
    fn combined_curve_is_normalized() {
        let (series, _, _) = two_length_series(60);
        let det = MultiWindowEnsemble::new(config(vec![60, 120]));
        let curve = det.combined_curve(&series, 1);
        assert_eq!(curve.len(), series.len());
        assert!(curve.values.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn single_window_degenerates_to_plain_ensemble_ranking() {
        let (series, _, _) = two_length_series(60);
        let det = MultiWindowEnsemble::new(config(vec![60]));
        let report = det.detect(&series, 2, 7);
        assert!(report.anomalies.iter().all(|c| c.len == 60));
    }

    /// The combined curve against an independent median: at each point,
    /// sort the per-window values and take the middle one (odd count)
    /// or the mean of the middle pair (even count).
    fn assert_pointwise_sorted_median(windows: Vec<usize>) {
        let (series, _, _) = two_length_series(40);
        let det = MultiWindowEnsemble::new(config(windows));
        let curves = det.window_curves(&series, 5);
        let combined = det.combined_curve(&series, 5);
        assert_eq!(combined.len(), series.len());
        for t in 0..series.len() {
            let mut column: Vec<f64> = curves.iter().map(|c| c.values[t]).collect();
            column.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mid = column.len() / 2;
            let median = if column.len() % 2 == 1 {
                column[mid]
            } else {
                0.5 * (column[mid - 1] + column[mid])
            };
            assert_eq!(combined.values[t], median, "t={t}");
        }
    }

    #[test]
    fn combined_curve_takes_the_middle_window_curve_for_an_odd_count() {
        assert_pointwise_sorted_median(vec![40, 80, 120]);
    }

    #[test]
    fn combined_curve_averages_the_middle_pair_for_an_even_count() {
        assert_pointwise_sorted_median(vec![40, 120]);
    }

    /// Each window length's curve is that window's own Algorithm 1
    /// ensemble under its decorrelated member draw, edge-corrected and
    /// max-normalized.
    #[test]
    fn window_curves_are_the_per_window_ensembles() {
        let (series, _, _) = two_length_series(40);
        let det = MultiWindowEnsemble::new(config(vec![40, 80, 120]));
        let curves = det.window_curves(&series, 5);
        assert_eq!(curves.len(), 3);
        for (i, (&window, curve)) in det.config().windows.iter().zip(&curves).enumerate() {
            let single = EnsembleDetector::new(EnsembleConfig {
                window,
                ..det.config().base
            });
            let params = single.member_params(5 ^ ((i as u64 + 1) << 48));
            let mut expected = single.combine_curves(single.member_curves(&series, &params));
            expected.correct_edge_coverage(window);
            expected.normalize_by_max();
            assert_eq!(curve, &expected, "window {window}");
        }
    }

    #[test]
    fn detect_is_bit_identical_across_worker_counts() {
        let (series, _, _) = two_length_series(40);
        let det = MultiWindowEnsemble::new(config(vec![40, 80, 120]));
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
                .install(|| det.detect(&series, 3, 11))
        });
        assert_eq!(reports[0].anomalies.len(), 3);
        for (n, report) in threads.iter().zip(&reports) {
            assert_eq!(report, &reports[0], "{n} threads");
            assert_eq!(bits(report), bits(&reports[0]), "{n} threads");
        }
    }

    #[test]
    #[should_panic(expected = "at least one window")]
    fn empty_windows_panics() {
        MultiWindowEnsemble::new(MultiWindowConfig {
            windows: vec![],
            base: EnsembleConfig::default(),
            suppression_margin: None,
        });
    }
}
