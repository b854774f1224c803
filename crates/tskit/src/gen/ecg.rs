//! Synthetic electrocardiogram generator.
//!
//! Each heart beat is modeled as a sum of five Gaussian deflections — the
//! P, Q, R, S, and T waves — a standard lightweight ECG phantom (the same
//! structure the dynamical ECGSYN model linearizes to). Beats start and end
//! at the isoelectric baseline, so concatenation is continuous.
//!
//! The generator serves two roles in the reproduction:
//! * scalability workload "ECG" for Figure 8;
//! * basis of the ECG-flavored UCR family stand-ins (TwoLeadECG,
//!   ECGFiveDays), where the anomalous class perturbs beat morphology the
//!   way a premature/ectopic beat does in the paper's Figure 4 example.

use rand::Rng;

use super::noise::gaussian;

/// Morphology of one synthetic beat: relative positions (fraction of the
/// beat), widths (fraction of the beat), and amplitudes of the five waves.
#[derive(Debug, Clone, Copy)]
pub struct EcgParams {
    /// Wave centers as fractions of the beat length (P, Q, R, S, T).
    pub centers: [f64; 5],
    /// Wave widths as fractions of the beat length.
    pub widths: [f64; 5],
    /// Wave amplitudes in arbitrary millivolt-like units.
    pub amplitudes: [f64; 5],
}

impl Default for EcgParams {
    /// A textbook-looking sinus beat.
    fn default() -> Self {
        Self {
            centers: [0.18, 0.36, 0.42, 0.48, 0.72],
            widths: [0.035, 0.012, 0.018, 0.012, 0.05],
            amplitudes: [0.18, -0.20, 1.2, -0.35, 0.32],
        }
    }
}

impl EcgParams {
    /// A premature-ventricular-like beat: wide, inverted, early R complex
    /// and missing P wave. Structurally distinct from the sinus beat while
    /// keeping the same amplitude envelope.
    pub fn ectopic() -> Self {
        Self {
            centers: [0.18, 0.30, 0.36, 0.44, 0.66],
            widths: [0.001, 0.03, 0.05, 0.03, 0.06],
            amplitudes: [0.0, 0.45, -1.1, 0.5, -0.25],
        }
    }
}

/// Samples one beat of `len` points from `params`, without noise.
pub fn ecg_beat(len: usize, params: &EcgParams) -> Vec<f64> {
    let mut beat = vec![0.0; len];
    for w in 0..5 {
        let c = params.centers[w] * len as f64;
        let s = (params.widths[w] * len as f64).max(0.5);
        let a = params.amplitudes[w];
        if a == 0.0 {
            continue;
        }
        for (i, v) in beat.iter_mut().enumerate() {
            let d = (i as f64 - c) / s;
            *v += a * (-0.5 * d * d).exp();
        }
    }
    beat
}

/// Generates a continuous ECG-like series of `n` samples.
///
/// Beats of nominal length `beat_len` are concatenated with ±5% random
/// beat-to-beat length jitter (respiratory sinus arrhythmia) and additive
/// measurement noise of standard deviation `noise_sigma`.
pub fn ecg_series(n: usize, beat_len: usize, noise_sigma: f64, rng: &mut impl Rng) -> Vec<f64> {
    assert!(beat_len >= 8, "beat_len must be at least 8 samples");
    let params = EcgParams::default();
    let mut out = Vec::with_capacity(n + beat_len);
    while out.len() < n {
        let jitter = 1.0 + 0.05 * (rng.gen::<f64>() * 2.0 - 1.0);
        let len = ((beat_len as f64 * jitter).round() as usize).max(8);
        out.extend(ecg_beat(len, &params));
    }
    out.truncate(n);
    if noise_sigma > 0.0 {
        for v in out.iter_mut() {
            *v += gaussian(rng) * noise_sigma;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn beat_peaks_at_r_wave() {
        let p = EcgParams::default();
        let beat = ecg_beat(200, &p);
        let (argmax, &max) = beat
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        // R wave sits at 42% of the beat and dominates.
        assert!((argmax as f64 / 200.0 - 0.42).abs() < 0.03);
        assert!(max > 1.0);
    }

    #[test]
    fn beat_starts_and_ends_near_baseline() {
        let beat = ecg_beat(200, &EcgParams::default());
        assert!(beat[0].abs() < 0.01, "start {}", beat[0]);
        assert!(beat[199].abs() < 0.02, "end {}", beat[199]);
    }

    #[test]
    fn ectopic_beat_differs_from_sinus() {
        let sinus = ecg_beat(128, &EcgParams::default());
        let ectopic = ecg_beat(128, &EcgParams::ectopic());
        let dist: f64 = sinus
            .iter()
            .zip(&ectopic)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(dist > 1.0, "beats too similar: {dist}");
        // Ectopic beats are predominantly negative at the QRS complex.
        let min = ectopic.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(min < -0.8);
    }

    #[test]
    fn series_has_requested_length() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = ecg_series(10_000, 96, 0.02, &mut rng);
        assert_eq!(s.len(), 10_000);
        assert!(s.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn series_is_periodic_in_r_waves() {
        let mut rng = StdRng::seed_from_u64(4);
        let s = ecg_series(96 * 20, 96, 0.0, &mut rng);
        // Count samples above 0.8 (R waves): expect roughly one run per beat.
        let mut runs = 0;
        let mut in_run = false;
        for &v in &s {
            if v > 0.8 && !in_run {
                runs += 1;
                in_run = true;
            } else if v <= 0.8 {
                in_run = false;
            }
        }
        assert!(
            (15..=25).contains(&runs),
            "found {runs} R waves, expected ~20"
        );
    }

    #[test]
    fn seeded_series_is_deterministic() {
        let bits = |seed| {
            let s = ecg_series(1_000, 256, 0.02, &mut StdRng::seed_from_u64(seed));
            s.into_iter().map(f64::to_bits).collect::<Vec<_>>()
        };
        assert_eq!(bits(2), bits(2));
        assert_ne!(bits(2), bits(3));
    }

    #[test]
    #[should_panic(expected = "beat_len")]
    fn tiny_beat_len_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        ecg_series(100, 4, 0.0, &mut rng);
    }
}
