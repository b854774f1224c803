//! Section 7.5: detecting multiple anomalies.
//!
//! Ten StarLightCurve-style series of length 43008 (42 instances) with two
//! planted anomalies each; a ground-truth anomaly counts as detected when
//! it overlaps at least one of the top-3 ranked candidates. The paper
//! reports 9/10 series with both anomalies found and 1/10 with one.

use egi_tskit::corpus::generate_multi_anomaly;
use egi_tskit::gen::UcrFamily;
use egi_tskit::window::intervals_overlap;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::Json;
use crate::runner::{run_proposed, subseed, EnsembleParams};

/// Result of the multi-anomaly experiment.
#[derive(Debug, Clone)]
pub struct MultiAnomalyResult {
    /// Per-series count of ground-truth anomalies detected (0..=2).
    pub detected_per_series: Vec<usize>,
    /// Number of anomalies planted per series.
    pub planted: usize,
}

impl MultiAnomalyResult {
    /// The result as written to `multi_anomaly.json`.
    pub fn to_json(&self) -> Json {
        let detected = self
            .detected_per_series
            .iter()
            .map(|&d| Json::UInt(d as u64))
            .collect();
        Json::Obj(vec![
            ("detected_per_series", detected),
            ("planted", Json::UInt(self.planted as u64)),
        ])
    }

    /// Series where every planted anomaly was found.
    pub fn fully_detected(&self) -> usize {
        self.detected_per_series
            .iter()
            .filter(|&&d| d == self.planted)
            .count()
    }

    /// Total detected across series.
    pub fn total_detected(&self) -> usize {
        self.detected_per_series.iter().sum()
    }
}

/// Runs the experiment: `series_count` series × `anomaly_count` anomalies.
pub fn run_multi_anomaly(
    series_count: usize,
    anomaly_count: usize,
    params: &EnsembleParams,
    top_k: usize,
    seed: u64,
) -> MultiAnomalyResult {
    let family = UcrFamily::StarLightCurve;
    let window = family.instance_length();
    let mut detected_per_series = Vec::with_capacity(series_count);
    for s in 0..series_count {
        let mut rng = StdRng::seed_from_u64(subseed(seed, s as u64));
        let m = generate_multi_anomaly(family, 42, anomaly_count, &mut rng);
        let cands = run_proposed(
            &m.series,
            window,
            params,
            top_k,
            subseed(seed, 777 + s as u64),
        );
        let detected = m
            .ground_truth
            .iter()
            .filter(|&&(gs, gl)| cands.iter().any(|&c| intervals_overlap(c, window, gs, gl)))
            .count();
        detected_per_series.push(detected);
    }
    MultiAnomalyResult {
        detected_per_series,
        planted: anomaly_count,
    }
}

/// Renders the Section 7.5 summary sentence plus a per-series table.
pub fn render_multi(result: &MultiAnomalyResult) -> String {
    let mut out = format!(
        "Detected both anomalies in {} of {} series; total {}/{} ground-truth anomalies found.\n\n| Series | Detected |\n|---|---|\n",
        result.fully_detected(),
        result.detected_per_series.len(),
        result.total_detected(),
        result.planted * result.detected_per_series.len(),
    );
    for (i, d) in result.detected_per_series.iter().enumerate() {
        out.push_str(&format!("| {} | {}/{} |\n", i + 1, d, result.planted));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_detects_most_anomalies() {
        let params = EnsembleParams {
            n: 10,
            ..EnsembleParams::default()
        };
        let r = run_multi_anomaly(2, 2, &params, 3, 9);
        assert_eq!(r.detected_per_series.len(), 2);
        assert!(r.detected_per_series.iter().all(|&d| d <= 2));
        // On StarLightCurve the anomaly is blatant; expect at least one
        // detection per series even with a small ensemble.
        assert!(
            r.total_detected() >= 2,
            "detected {:?}",
            r.detected_per_series
        );
    }

    #[test]
    fn render_summarizes() {
        let r = MultiAnomalyResult {
            detected_per_series: vec![2, 1, 2],
            planted: 2,
        };
        assert_eq!(r.fully_detected(), 2);
        assert_eq!(r.total_detected(), 5);
        let md = render_multi(&r);
        assert!(md.contains("2 of 3"));
        assert!(md.contains("5/6"));
    }

    #[test]
    fn json_lists_the_detections_per_series_then_the_planted_count() {
        let r = MultiAnomalyResult {
            detected_per_series: vec![2, 0],
            planted: 2,
        };
        assert_eq!(
            r.to_json().pretty(),
            "{\n  \"detected_per_series\": [\n    2,\n    0\n  ],\n  \"planted\": 2\n}"
        );
    }
}
