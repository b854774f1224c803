//! Figure 8: computation time vs. time series length, ensemble grammar
//! induction vs. STOMP (plus a 10%-budget anytime column showing what a
//! deadline-bounded partial matrix profile costs: the streaming monitor
//! fed the series once, run for a tenth of its units), on random-walk /
//! ECG-like / EEG-like data.

use std::time::Instant;

use egi_core::EnsembleDetector;
use egi_discord::stomp;
use egi_discord::streaming::StreamingDiscordMonitor;
use egi_tskit::gen::{ecg_series, eeg_series, random_walk};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::Json;
use crate::runner::EnsembleParams;

/// The three Figure 8 workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Gaussian random walk (Figure 8a).
    RandomWalk,
    /// Synthetic ECG (Figure 8b).
    Ecg,
    /// Synthetic EEG (Figure 8c).
    Eeg,
}

impl SeriesKind {
    /// All three workloads in figure order.
    pub const ALL: [SeriesKind; 3] = [SeriesKind::RandomWalk, SeriesKind::Ecg, SeriesKind::Eeg];

    /// Figure label.
    pub fn name(&self) -> &'static str {
        match self {
            SeriesKind::RandomWalk => "RW",
            SeriesKind::Ecg => "ECG",
            SeriesKind::Eeg => "EEG",
        }
    }

    /// Generates `len` points of this workload.
    pub fn generate(&self, len: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        match self {
            SeriesKind::RandomWalk => random_walk(len, 1.0, &mut rng),
            SeriesKind::Ecg => ecg_series(len, 256, 0.02, &mut rng),
            SeriesKind::Eeg => eeg_series(len, 128.0, 0.2, &mut rng),
        }
    }
}

/// One measured point of Figure 8.
#[derive(Debug, Clone)]
pub struct ScalabilityPoint {
    /// Workload.
    pub kind: &'static str,
    /// Series length.
    pub len: usize,
    /// Wall-clock seconds for the ensemble method.
    pub ensemble_secs: f64,
    /// Wall-clock seconds for STOMP.
    pub stomp_secs: f64,
    /// Wall-clock seconds for the anytime matrix profile over a 10%
    /// unit budget (partial profile snapshot; subject to the same skip
    /// cap as STOMP).
    pub anytime10_secs: f64,
}

impl ScalabilityPoint {
    /// The point as written to `fig8.json`.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("kind", Json::Str(self.kind.to_string())),
            ("len", Json::UInt(self.len as u64)),
            ("ensemble_secs", Json::Float(self.ensemble_secs)),
            ("stomp_secs", Json::Float(self.stomp_secs)),
            ("anytime10_secs", Json::Float(self.anytime10_secs)),
        ])
    }
}

/// Measures both methods over `lengths` for one workload.
///
/// `window` is the sliding-window length (the paper finds run time roughly
/// independent of it). `skip_stomp_above` bounds the quadratic baseline in
/// quick runs (`None` = always run).
pub fn run_scalability(
    kind: SeriesKind,
    lengths: &[usize],
    window: usize,
    params: &EnsembleParams,
    seed: u64,
    skip_stomp_above: Option<usize>,
) -> Vec<ScalabilityPoint> {
    let mut out = Vec::with_capacity(lengths.len());
    for &len in lengths {
        let series = kind.generate(len, seed);

        let t0 = Instant::now();
        let det = EnsembleDetector::new(params.config(window));
        let report = det.detect(&series, 3, seed);
        let ensemble_secs = t0.elapsed().as_secs_f64();
        std::hint::black_box(&report);

        let skip_quadratic = skip_stomp_above.map(|cap| len > cap).unwrap_or(false);
        let stomp_secs = if skip_quadratic {
            f64::NAN
        } else {
            let t0 = Instant::now();
            let mp = stomp(&series, window);
            let secs = t0.elapsed().as_secs_f64();
            std::hint::black_box(&mp);
            secs
        };
        let anytime10_secs = if skip_quadratic {
            f64::NAN
        } else {
            let t0 = Instant::now();
            let mut driver = StreamingDiscordMonitor::new(window);
            driver.append(&series);
            driver.run_for(driver.pending().div_ceil(10));
            let secs = t0.elapsed().as_secs_f64();
            std::hint::black_box(&driver.snapshot());
            secs
        };
        out.push(ScalabilityPoint {
            kind: kind.name(),
            len,
            ensemble_secs,
            stomp_secs,
            anytime10_secs,
        });
    }
    out
}

/// Renders Figure 8 data as a markdown table.
pub fn render_fig8(points: &[ScalabilityPoint]) -> String {
    let mut out = String::from(
        "| Workload | Length | Ensemble (s) | STOMP (s) | Anytime STAMP 10% (s) | Speedup |\n|---|---|---|---|---|---|\n",
    );
    for p in points {
        let speedup = if p.stomp_secs.is_finite() && p.ensemble_secs > 0.0 {
            format!("{:.1}×", p.stomp_secs / p.ensemble_secs)
        } else {
            "—".to_string()
        };
        let stomp = if p.stomp_secs.is_finite() {
            format!("{:.3}", p.stomp_secs)
        } else {
            "skipped".to_string()
        };
        let anytime = if p.anytime10_secs.is_finite() {
            format!("{:.3}", p.anytime10_secs)
        } else {
            "skipped".to_string()
        };
        out.push_str(&format!(
            "| {} | {} | {:.3} | {} | {} | {} |\n",
            p.kind, p.len, p.ensemble_secs, stomp, anytime, speedup
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_all_kinds() {
        for k in SeriesKind::ALL {
            let s = k.generate(2000, 3);
            assert_eq!(s.len(), 2000, "{:?}", k);
            assert!(s.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn measures_both_methods_on_small_input() {
        let params = EnsembleParams {
            n: 5,
            ..EnsembleParams::default()
        };
        let pts = run_scalability(SeriesKind::RandomWalk, &[1500], 100, &params, 1, None);
        assert_eq!(pts.len(), 1);
        assert!(pts[0].ensemble_secs > 0.0);
        assert!(pts[0].stomp_secs > 0.0);
        assert!(pts[0].anytime10_secs > 0.0);
    }

    #[test]
    fn stomp_cap_skips_large_lengths() {
        let params = EnsembleParams {
            n: 4,
            ..EnsembleParams::default()
        };
        let pts = run_scalability(SeriesKind::Eeg, &[1200, 2400], 64, &params, 2, Some(1500));
        assert!(pts[0].stomp_secs.is_finite());
        assert!(pts[1].stomp_secs.is_nan());
        assert!(pts[0].anytime10_secs.is_finite());
        assert!(pts[1].anytime10_secs.is_nan());
        let rendered = render_fig8(&pts);
        assert!(rendered.contains("skipped"));
        assert!(rendered.contains("Anytime STAMP 10%"));
    }

    #[test]
    fn fig8_reports_a_speedup_only_where_stomp_ran() {
        let point = |ensemble_secs, stomp_secs, anytime10_secs| ScalabilityPoint {
            kind: "ECG",
            len: 1000,
            ensemble_secs,
            stomp_secs,
            anytime10_secs,
        };
        let rendered = render_fig8(&[
            point(0.5, 2.0, 0.25),
            point(0.5, f64::NAN, f64::NAN),
            point(0.0, 2.0, 0.25),
        ]);
        let rows: Vec<&str> = rendered.lines().skip(2).collect();
        assert_eq!(
            rows,
            [
                "| ECG | 1000 | 0.500 | 2.000 | 0.250 | 4.0× |",
                "| ECG | 1000 | 0.500 | skipped | skipped | — |",
                "| ECG | 1000 | 0.000 | 2.000 | 0.250 | — |",
            ]
        );
    }

    /// A timing the STOMP cap skipped (NaN) is written as `null`.
    #[test]
    fn json_writes_a_skipped_timing_as_null() {
        let p = ScalabilityPoint {
            kind: "EEG",
            len: 2400,
            ensemble_secs: 0.5,
            stomp_secs: f64::NAN,
            anytime10_secs: f64::NAN,
        };
        assert_eq!(
            p.to_json().pretty(),
            "{\n  \"kind\": \"EEG\",\n  \"len\": 2400,\n  \"ensemble_secs\": 0.5,\n  \"stomp_secs\": null,\n  \"anytime10_secs\": null\n}"
        );
    }
}
