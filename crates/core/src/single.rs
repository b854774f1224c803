//! Single-run grammar-induction detector (the GrammarViz baseline engine).
//!
//! Pipeline per Sections 4–5: sliding-window SAX discretization with one
//! `(w, a)` choice → numerosity reduction → Sequitur → rule density curve →
//! top-k minima. The ensemble of Section 6 runs many of these and combines
//! the curves; the single-run detector is also used directly by the
//! GI-Fix / GI-Random / GI-Select baselines.

use egi_sax::stream::PaaStream;
use egi_sax::{FastSax, SaxConfig};

use crate::density::RuleDensityCurve;
use crate::detector::{rank_anomalies, AnomalyReport};
use crate::streaming::member_curve;

/// Configuration of a single grammar-induction run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GiConfig {
    /// Sliding-window length `n`.
    pub window: usize,
    /// Discretization parameters `(w, a)`.
    pub sax: SaxConfig,
}

impl GiConfig {
    /// The paper's "generic" fixed configuration (GI-Fix): `w = 4, a = 4`.
    pub fn fixed(window: usize) -> Self {
        Self {
            window,
            sax: SaxConfig::new(4, 4),
        }
    }
}

/// Single-configuration grammar-induction anomaly detector.
#[derive(Debug, Clone)]
pub struct SingleGiDetector {
    config: GiConfig,
}

impl SingleGiDetector {
    /// Creates a detector for `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config.sax.w > config.window` (a PAA size larger than
    /// the window is meaningless).
    pub fn new(config: GiConfig) -> Self {
        assert!(
            config.sax.w <= config.window,
            "PAA size {} exceeds window {}",
            config.sax.w,
            config.window
        );
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> GiConfig {
        self.config
    }

    /// Computes the raw rule density curve of the series behind `fast`:
    /// one ensemble member's run, bit-identical to the curve
    /// [`EnsembleDetector::member_curves`](crate::EnsembleDetector::member_curves)
    /// computes for the same `(window, w, a)`.
    pub fn density_curve(&self, fast: &FastSax<'_>) -> RuleDensityCurve {
        let stream = PaaStream::new(fast, self.config.window, self.config.sax.w);
        member_curve(self.config.sax, &stream, fast.len())
    }

    /// Full detection: density curve → top-`k` non-overlapping minima.
    ///
    /// # Panics
    ///
    /// Panics if `series` contains non-finite values (NaN/±∞ would poison
    /// the prefix sums silently; failing loudly at the boundary is safer).
    pub fn detect(&self, series: &[f64], k: usize) -> AnomalyReport {
        assert!(
            series.iter().all(|v| v.is_finite()),
            "series contains non-finite values"
        );
        let fast = FastSax::new(series);
        let curve = self.density_curve(&fast);
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

    /// A repetitive beat train with one ectopic beat in the middle.
    fn beat_train_with_anomaly(
        beats: usize,
        beat_len: usize,
        anomaly_at: usize,
    ) -> (Vec<f64>, usize) {
        let normal = ecg_beat(beat_len, &EcgParams::default());
        let weird = ecg_beat(beat_len, &EcgParams::ectopic());
        let mut series = Vec::with_capacity(beats * beat_len);
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

    #[test]
    fn detects_planted_ectopic_beat() {
        let beat_len = 100;
        let (series, gt) = beat_train_with_anomaly(20, beat_len, 11);
        let det = SingleGiDetector::new(GiConfig {
            window: beat_len,
            sax: SaxConfig::new(4, 4),
        });
        let report = det.detect(&series, 1);
        assert_eq!(report.anomalies.len(), 1);
        let found = report.anomalies[0].start;
        assert!(
            (found as i64 - gt as i64).unsigned_abs() as usize <= beat_len,
            "found {found}, ground truth {gt}"
        );
    }

    #[test]
    fn curve_minimum_sits_at_anomaly() {
        let beat_len = 80;
        let (series, gt) = beat_train_with_anomaly(16, beat_len, 8);
        let det = SingleGiDetector::new(GiConfig {
            window: beat_len,
            sax: SaxConfig::new(5, 5),
        });
        let report = det.detect(&series, 1);
        // Mean density inside the ground-truth interval must be below the
        // overall mean (anomaly = low coverage).
        let inside: f64 = report.curve[gt..gt + beat_len].iter().sum::<f64>() / beat_len as f64;
        let overall: f64 = report.curve.iter().sum::<f64>() / report.curve.len() as f64;
        assert!(
            inside < overall,
            "inside density {inside} not below overall {overall}"
        );
    }

    #[test]
    fn short_series_yields_empty_report() {
        let det = SingleGiDetector::new(GiConfig::fixed(50));
        let report = det.detect(&[1.0, 2.0, 3.0], 3);
        assert!(report.anomalies.is_empty());
        assert_eq!(report.curve.len(), 3);
    }

    #[test]
    fn curve_has_series_length() {
        let (series, _) = beat_train_with_anomaly(10, 60, 5);
        let det = SingleGiDetector::new(GiConfig::fixed(60));
        let report = det.detect(&series, 2);
        assert_eq!(report.curve.len(), series.len());
    }

    #[test]
    fn reported_candidates_have_window_length() {
        let (series, _) = beat_train_with_anomaly(12, 64, 6);
        let det = SingleGiDetector::new(GiConfig::fixed(64));
        for c in det.detect(&series, 3).anomalies {
            assert_eq!(c.len, 64);
            assert!(c.start + c.len <= series.len());
        }
    }

    #[test]
    fn density_curve_is_the_ensemble_member_curve() {
        let (series, _) = beat_train_with_anomaly(12, 50, 7);
        let fast = FastSax::new(&series);
        let ensemble = crate::EnsembleDetector::new(crate::EnsembleConfig {
            window: 50,
            ..crate::EnsembleConfig::default()
        });
        let bits =
            |c: &RuleDensityCurve| -> Vec<u64> { c.values.iter().map(|v| v.to_bits()).collect() };
        for (w, a) in [(2usize, 2usize), (4, 4), (5, 9), (10, 26)] {
            let sax = SaxConfig::new(w, a);
            let curve = SingleGiDetector::new(GiConfig { window: 50, sax }).density_curve(&fast);
            let member = ensemble.member_curves(&series, &[sax]).remove(0);
            assert!(curve.values.iter().any(|&v| v > 0.0), "w={w} a={a}");
            assert_eq!(bits(&curve), bits(&member), "w={w} a={a}");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds window")]
    fn paa_larger_than_window_panics() {
        SingleGiDetector::new(GiConfig {
            window: 4,
            sax: SaxConfig::new(8, 3),
        });
    }
}
