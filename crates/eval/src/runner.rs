//! The five compared methods, runnable on one labeled series.
//!
//! Seeding discipline: every stochastic choice (corpus generation, the
//! ensemble's parameter draws, GI-Random's single draw) derives from an
//! explicit seed, so whole experiments replay bit-identically.

use egi_core::{select_parameters, EnsembleConfig, EnsembleDetector, GiConfig, SingleGiDetector};
use egi_discord::{DiscordConfig, DiscordDetector};
use egi_sax::SaxConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Ensemble hyper-parameters as the experiments vary them
/// (paper defaults: `N = 50`, `wmax = amax = 10`, `τ = 0.4`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnsembleParams {
    /// Ensemble size `N`.
    pub n: usize,
    /// Maximum PAA size.
    pub wmax: usize,
    /// Maximum alphabet size.
    pub amax: usize,
    /// Selectivity `τ`.
    pub tau: f64,
}

impl Default for EnsembleParams {
    fn default() -> Self {
        Self {
            n: 50,
            wmax: 10,
            amax: 10,
            tau: 0.4,
        }
    }
}

impl EnsembleParams {
    /// Materializes an [`EnsembleConfig`] for sliding window `window`.
    pub fn config(&self, window: usize) -> EnsembleConfig {
        EnsembleConfig {
            window,
            ensemble_size: self.n,
            wmax: self.wmax,
            amax: self.amax,
            selectivity: self.tau,
            ..EnsembleConfig::default()
        }
    }
}

/// The four baselines of Section 7.1.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Baseline {
    /// Grammar induction with one random `(w, a)` draw.
    GiRandom,
    /// Grammar induction with the generic fixed `w = 4, a = 4`.
    GiFix,
    /// Grammar induction with parameters selected on a normal prefix.
    GiSelect,
    /// Matrix-profile discord discovery (STOMP).
    Discord,
}

impl Baseline {
    /// All four baselines in table order.
    pub const ALL: [Baseline; 4] = [
        Baseline::GiRandom,
        Baseline::GiFix,
        Baseline::GiSelect,
        Baseline::Discord,
    ];

    /// Column header used in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Baseline::GiRandom => "GI-Random",
            Baseline::GiFix => "GI-Fix",
            Baseline::GiSelect => "GI-Select",
            Baseline::Discord => "Discord",
        }
    }
}

impl std::fmt::Display for Baseline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Whole-experiment knobs shared by the table runners.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentParams {
    /// Series generated per dataset (paper: 25).
    pub series_per_dataset: usize,
    /// Candidates requested per method (paper: top-3).
    pub top_k: usize,
    /// Ensemble hyper-parameters.
    pub ensemble: EnsembleParams,
    /// Master seed; everything else derives from it.
    pub seed: u64,
}

impl Default for ExperimentParams {
    fn default() -> Self {
        Self {
            series_per_dataset: 25,
            top_k: 3,
            ensemble: EnsembleParams::default(),
            seed: 0xE61_2020,
        }
    }
}

impl ExperimentParams {
    /// A scaled-down configuration for smoke tests and CI
    /// (5 series per dataset, `N = 15`).
    pub fn quick() -> Self {
        Self {
            series_per_dataset: 5,
            ensemble: EnsembleParams {
                n: 15,
                ..EnsembleParams::default()
            },
            ..Self::default()
        }
    }
}

/// Derives a sub-seed; a tiny SplitMix64 keeps experiment arms independent.
pub fn subseed(master: u64, stream: u64) -> u64 {
    let mut z = master ^ stream.wrapping_mul(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Runs the proposed ensemble method; returns top-k candidate starts.
pub fn run_proposed(
    series: &[f64],
    window: usize,
    params: &EnsembleParams,
    k: usize,
    seed: u64,
) -> Vec<usize> {
    let det = EnsembleDetector::new(params.config(window));
    det.detect(series, k, seed)
        .anomalies
        .iter()
        .map(|c| c.start)
        .collect()
}

/// Runs one baseline; returns top-k candidate starts.
pub fn run_baseline(
    baseline: Baseline,
    series: &[f64],
    window: usize,
    params: &EnsembleParams,
    k: usize,
    seed: u64,
) -> Vec<usize> {
    match baseline {
        Baseline::GiRandom => {
            let mut rng = StdRng::seed_from_u64(seed);
            let w_hi = params.wmax.min(window).max(2);
            let w = rng.gen_range(2..=w_hi);
            let a = rng.gen_range(2..=params.amax.max(2));
            run_single_gi(series, window, SaxConfig::new(w, a), k)
        }
        Baseline::GiFix => run_single_gi(series, window, SaxConfig::new(4, 4), k),
        Baseline::GiSelect => {
            let cfg = select_parameters(series, window, params.wmax, params.amax, 0.1);
            run_single_gi(series, window, cfg, k)
        }
        Baseline::Discord => DiscordDetector::new(DiscordConfig::new(window))
            .detect(series, k)
            .iter()
            .map(|d| d.start)
            .collect(),
    }
}

fn run_single_gi(series: &[f64], window: usize, sax: SaxConfig, k: usize) -> Vec<usize> {
    let sax = if sax.w > window {
        SaxConfig::new(window.max(1), sax.a)
    } else {
        sax
    };
    SingleGiDetector::new(GiConfig { window, sax })
        .detect(series, k)
        .anomalies
        .iter()
        .map(|c| c.start)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use egi_tskit::corpus::CorpusSpec;
    use egi_tskit::gen::UcrFamily;

    fn small_series() -> (Vec<f64>, usize, usize) {
        let mut rng = StdRng::seed_from_u64(9);
        let spec = CorpusSpec {
            normal_instances: 10,
            series_count: 1,
            ..CorpusSpec::paper(UcrFamily::GunPoint)
        };
        let ls = spec.generate_one(&mut rng);
        (ls.series.into_vec(), ls.gt_start, ls.gt_len)
    }

    #[test]
    fn all_methods_return_k_candidates() {
        let (series, _, gt_len) = small_series();
        let params = EnsembleParams {
            n: 10,
            ..EnsembleParams::default()
        };
        let prop = run_proposed(&series, gt_len, &params, 3, 1);
        assert_eq!(prop.len(), 3);
        for b in Baseline::ALL {
            let cands = run_baseline(b, &series, gt_len, &params, 3, 2);
            assert!(
                !cands.is_empty() && cands.len() <= 3,
                "{b} returned {} candidates",
                cands.len()
            );
            for &c in &cands {
                assert!(c + gt_len <= series.len(), "{b} candidate out of range");
            }
        }
    }

    #[test]
    fn proposed_beats_chance_on_easy_series() {
        let (series, gt_start, gt_len) = small_series();
        let params = EnsembleParams {
            n: 15,
            ..EnsembleParams::default()
        };
        let cands = run_proposed(&series, gt_len, &params, 3, 7);
        let s = crate::metrics::best_score(&cands, gt_start, gt_len);
        assert!(s > 0.0, "ensemble missed an easy planted anomaly entirely");
    }

    #[test]
    fn subseed_streams_differ() {
        assert_ne!(subseed(1, 0), subseed(1, 1));
        assert_ne!(subseed(1, 0), subseed(2, 0));
        assert_eq!(subseed(5, 3), subseed(5, 3));
    }

    #[test]
    fn gi_random_is_seed_deterministic() {
        let (series, _, gt_len) = small_series();
        let params = EnsembleParams::default();
        let a = run_baseline(Baseline::GiRandom, &series, gt_len, &params, 3, 11);
        let b = run_baseline(Baseline::GiRandom, &series, gt_len, &params, 3, 11);
        assert_eq!(a, b);
    }

    #[test]
    fn baseline_names() {
        assert_eq!(Baseline::GiFix.to_string(), "GI-Fix");
        assert_eq!(Baseline::Discord.name(), "Discord");
    }
}
