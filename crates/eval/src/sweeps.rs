//! Hyper-parameter sweeps: Tables 7–14.
//!
//! All sweeps reuse the Table 4/5 corpus generation (same seeds) so that
//! "vs. best GI baseline" comparisons pair the same series.

use egi_tskit::corpus::{CorpusSpec, LabeledSeries};
use egi_tskit::gen::UcrFamily;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::metrics::{best_score, mean_or_zero, Wtl};
use crate::report::Json;
use crate::runner::{
    run_baseline, run_proposed, subseed, Baseline, EnsembleParams, ExperimentParams,
};

/// Generates the evaluation corpus for `family` with the same seeding as
/// the main experiment, so sweep comparisons are paired.
pub fn corpus_for(family: UcrFamily, params: &ExperimentParams) -> Vec<LabeledSeries> {
    let spec = CorpusSpec {
        series_count: params.series_per_dataset,
        ..CorpusSpec::paper(family)
    };
    let corpus_seed = subseed(params.seed, family as u64 + 1);
    let mut rng = StdRng::seed_from_u64(corpus_seed);
    spec.generate(&mut rng)
}

/// Per-series scores of the best GI baseline for one dataset.
///
/// Paper Section 7.2: "we use the best of the GI-Random, GI-Fix, and
/// GI-Select methods for each dataset" — the single GI method with the
/// highest average Score on that dataset; its per-series scores are the
/// reference for the sweep's wins/ties/losses.
pub fn best_gi_baseline(
    family: UcrFamily,
    corpus: &[LabeledSeries],
    params: &ExperimentParams,
) -> Vec<f64> {
    let corpus_seed = subseed(params.seed, family as u64 + 1);
    let gi = [Baseline::GiRandom, Baseline::GiFix, Baseline::GiSelect];
    let mut per_method: Vec<Vec<f64>> = Vec::with_capacity(gi.len());
    for (bi, b) in gi.into_iter().enumerate() {
        let mut scores = Vec::with_capacity(corpus.len());
        for (i, ls) in corpus.iter().enumerate() {
            let run_seed = subseed(corpus_seed, 1000 + i as u64);
            let cands = run_baseline(
                b,
                &ls.series,
                ls.gt_len,
                &params.ensemble,
                params.top_k,
                subseed(run_seed, bi as u64 + 7),
            );
            scores.push(best_score(&cands, ls.gt_start, ls.gt_len));
        }
        per_method.push(scores);
    }
    let best = (0..per_method.len())
        .max_by(|&x, &y| {
            mean_or_zero(&per_method[x])
                .partial_cmp(&mean_or_zero(&per_method[y]))
                .expect("finite scores")
        })
        .expect("three methods");
    per_method.swap_remove(best)
}

/// Result of one sweep arm on one dataset.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Dataset name.
    pub dataset: String,
    /// Average Score of the proposed method under this arm.
    pub avg_score: f64,
    /// HitRate of the proposed method under this arm.
    pub hit_rate: f64,
    /// Wins/ties/losses vs. the best GI baseline.
    pub wtl: Wtl,
}

/// One sweep arm (a row in Tables 7–9 / a column in Tables 10–14).
#[derive(Debug, Clone)]
pub struct SweepArm {
    /// Human-readable arm label (e.g. `"amax=10, wmax=15"`).
    pub label: String,
    /// One cell per dataset family.
    pub cells: Vec<SweepCell>,
}

impl SweepArm {
    /// The arm as written to a sweep's JSON file.
    pub fn to_json(&self) -> Json {
        let cells = self
            .cells
            .iter()
            .map(|c| {
                let wtl = Json::Obj(vec![
                    ("wins", Json::UInt(c.wtl.wins as u64)),
                    ("ties", Json::UInt(c.wtl.ties as u64)),
                    ("losses", Json::UInt(c.wtl.losses as u64)),
                ]);
                Json::Obj(vec![
                    ("dataset", Json::Str(c.dataset.clone())),
                    ("avg_score", Json::Float(c.avg_score)),
                    ("hit_rate", Json::Float(c.hit_rate)),
                    ("wtl", wtl),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("label", Json::Str(self.label.clone())),
            ("cells", cells),
        ])
    }
}

/// Runs the proposed method with per-arm overrides and tallies cells.
///
/// `arms` supplies `(label, ensemble-params, window-fraction)` triples;
/// window-fraction scales the sliding window relative to the anomaly
/// length `na` (1.0 everywhere except the Table 13/14 sweep).
pub fn run_sweep(
    arms: &[(String, EnsembleParams, f64)],
    params: &ExperimentParams,
) -> Vec<SweepArm> {
    let mut out: Vec<SweepArm> = arms
        .iter()
        .map(|(label, _, _)| SweepArm {
            label: label.clone(),
            cells: Vec::new(),
        })
        .collect();
    for family in UcrFamily::ALL {
        let corpus = corpus_for(family, params);
        let reference = best_gi_baseline(family, &corpus, params);
        let corpus_seed = subseed(params.seed, family as u64 + 1);
        for (arm_idx, (_, ep, frac)) in arms.iter().enumerate() {
            let mut scores = Vec::with_capacity(corpus.len());
            for (i, ls) in corpus.iter().enumerate() {
                let window = ((ls.gt_len as f64 * frac).round() as usize).max(4);
                let run_seed = subseed(corpus_seed, 1000 + i as u64);
                let cands = run_proposed(&ls.series, window, ep, params.top_k, run_seed);
                scores.push(best_score(&cands, ls.gt_start, ls.gt_len));
            }
            let hits = scores.iter().filter(|&&s| s > 0.0).count();
            out[arm_idx].cells.push(SweepCell {
                dataset: family.name().to_string(),
                avg_score: mean_or_zero(&scores),
                hit_rate: hits as f64 / scores.len().max(1) as f64,
                wtl: Wtl::from_pairs(scores.iter().copied().zip(reference.iter().copied())),
            });
        }
    }
    out
}

/// Table 7: `wmax = amax ∈ {5, 10, 15, 20}` (w/t/l vs best GI baseline).
pub fn table7_arms(base: EnsembleParams) -> Vec<(String, EnsembleParams, f64)> {
    [5usize, 10, 15, 20]
        .into_iter()
        .map(|r| {
            (
                format!("amax={r}, wmax={r}"),
                EnsembleParams {
                    wmax: r,
                    amax: r,
                    ..base
                },
                1.0,
            )
        })
        .collect()
}

/// Table 8: `wmax ∈ {5, 10, 15, 20}`, `amax = 10`.
pub fn table8_arms(base: EnsembleParams) -> Vec<(String, EnsembleParams, f64)> {
    [5usize, 10, 15, 20]
        .into_iter()
        .map(|w| {
            (
                format!("amax=10, wmax={w}"),
                EnsembleParams {
                    wmax: w,
                    amax: 10,
                    ..base
                },
                1.0,
            )
        })
        .collect()
}

/// Table 9: `amax ∈ {5, 10, 15, 20}`, `wmax = 10`.
pub fn table9_arms(base: EnsembleParams) -> Vec<(String, EnsembleParams, f64)> {
    [5usize, 10, 15, 20]
        .into_iter()
        .map(|a| {
            (
                format!("amax={a}, wmax=10"),
                EnsembleParams {
                    wmax: 10,
                    amax: a,
                    ..base
                },
                1.0,
            )
        })
        .collect()
}

/// Tables 10/11: ensemble size `N ∈ {5, 10, 25, 50}`.
pub fn table10_arms(base: EnsembleParams) -> Vec<(String, EnsembleParams, f64)> {
    [5usize, 10, 25, 50]
        .into_iter()
        .map(|n| (format!("N={n}"), EnsembleParams { n, ..base }, 1.0))
        .collect()
}

/// Tables 13/14: sliding window `n ∈ {0.6, 0.7, 0.8, 0.9, 1.0}·na`.
pub fn table13_arms(base: EnsembleParams) -> Vec<(String, EnsembleParams, f64)> {
    [0.6f64, 0.7, 0.8, 0.9, 1.0]
        .into_iter()
        .map(|f| (format!("n={f:.1}·na"), base, f))
        .collect()
}

/// Table 12: τ sweep with repetitions — per dataset and τ, the mean and
/// standard deviation of `repeats` average-Score evaluations (each with a
/// different ensemble seed).
#[derive(Debug, Clone)]
pub struct TauCell {
    /// Dataset name.
    pub dataset: String,
    /// τ value.
    pub tau: f64,
    /// Mean of the repeated average Scores.
    pub mean: f64,
    /// Standard deviation of the repeated average Scores.
    pub std: f64,
}

impl TauCell {
    /// The cell as written to `table12.json`.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("dataset", Json::Str(self.dataset.clone())),
            ("tau", Json::Float(self.tau)),
            ("mean", Json::Float(self.mean)),
            ("std", Json::Float(self.std)),
        ])
    }
}

/// Runs the Table 12 τ sweep.
pub fn run_tau_sweep(taus: &[f64], repeats: usize, params: &ExperimentParams) -> Vec<TauCell> {
    let mut out = Vec::new();
    for family in UcrFamily::ALL {
        let corpus = corpus_for(family, params);
        let corpus_seed = subseed(params.seed, family as u64 + 1);
        for &tau in taus {
            let ep = EnsembleParams {
                tau,
                ..params.ensemble
            };
            let mut avg_scores = Vec::with_capacity(repeats);
            for rep in 0..repeats {
                let mut scores = Vec::with_capacity(corpus.len());
                for (i, ls) in corpus.iter().enumerate() {
                    // Vary the ensemble seed per repetition (the paper
                    // repeats the evaluation 20 times).
                    let run_seed = subseed(corpus_seed, (rep as u64) << 32 | (1000 + i as u64));
                    let cands = run_proposed(&ls.series, ls.gt_len, &ep, params.top_k, run_seed);
                    scores.push(best_score(&cands, ls.gt_start, ls.gt_len));
                }
                avg_scores.push(mean_or_zero(&scores));
            }
            let mean = mean_or_zero(&avg_scores);
            let std = if avg_scores.len() < 2 {
                0.0
            } else {
                egi_tskit::stats::stddev(&avg_scores)
            };
            out.push(TauCell {
                dataset: family.name().to_string(),
                tau,
                mean,
                std,
            });
        }
    }
    out
}

/// Renders a W/T/L sweep (Tables 7–9 layout).
pub fn render_wtl_sweep(arms: &[SweepArm]) -> String {
    let mut out = String::from("| Approach |");
    if let Some(first) = arms.first() {
        for c in &first.cells {
            out.push_str(&format!(" {} |", c.dataset));
        }
    }
    out.push_str("\n|---|");
    if let Some(first) = arms.first() {
        for _ in &first.cells {
            out.push_str("---|");
        }
    }
    out.push('\n');
    for arm in arms {
        out.push_str(&format!("| {} |", arm.label));
        for c in &arm.cells {
            out.push_str(&format!(" {} |", c.wtl));
        }
        out.push('\n');
    }
    out
}

/// Renders a Score/HitRate sweep (Tables 10/11 and 13/14 layout);
/// `metric` selects which number is shown.
pub fn render_metric_sweep(arms: &[SweepArm], metric: SweepMetric) -> String {
    let mut out = String::from("| Dataset |");
    for arm in arms {
        out.push_str(&format!(" {} |", arm.label));
    }
    out.push_str("\n|---|");
    for _ in arms {
        out.push_str("---|");
    }
    out.push('\n');
    if let Some(first) = arms.first() {
        for (di, cell) in first.cells.iter().enumerate() {
            out.push_str(&format!("| {} |", cell.dataset));
            for arm in arms {
                let c = &arm.cells[di];
                match metric {
                    SweepMetric::Score => out.push_str(&format!(" {:.4} |", c.avg_score)),
                    SweepMetric::HitRate => out.push_str(&format!(" {:.2} |", c.hit_rate)),
                }
            }
            out.push('\n');
        }
    }
    out
}

/// Metric selector for [`render_metric_sweep`].
#[derive(Debug, Clone, Copy)]
pub enum SweepMetric {
    /// Average Eq. (5) Score.
    Score,
    /// HitRate.
    HitRate,
}

/// Renders the Table 12 layout (mean with std underneath).
pub fn render_tau_table(cells: &[TauCell], taus: &[f64]) -> String {
    let mut out = String::from("| Dataset |");
    for t in taus {
        out.push_str(&format!(" τ={:.0}% |", t * 100.0));
    }
    out.push_str("\n|---|");
    for _ in taus {
        out.push_str("---|");
    }
    out.push('\n');
    let mut datasets: Vec<&str> = Vec::new();
    for c in cells {
        if !datasets.contains(&c.dataset.as_str()) {
            datasets.push(&c.dataset);
        }
    }
    for d in datasets {
        out.push_str(&format!("| {d} |"));
        for &t in taus {
            let c = cells
                .iter()
                .find(|c| c.dataset == d && (c.tau - t).abs() < 1e-9)
                .expect("cell exists");
            out.push_str(&format!(" {:.4} ({:.3}) |", c.mean, c.std));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentParams {
        ExperimentParams {
            series_per_dataset: 2,
            ensemble: EnsembleParams {
                n: 6,
                ..EnsembleParams::default()
            },
            ..ExperimentParams::default()
        }
    }

    #[test]
    fn arm_builders_have_expected_shapes() {
        let base = EnsembleParams::default();
        assert_eq!(table7_arms(base).len(), 4);
        assert_eq!(table8_arms(base).len(), 4);
        assert_eq!(table9_arms(base).len(), 4);
        assert_eq!(table10_arms(base).len(), 4);
        assert_eq!(table13_arms(base).len(), 5);
        assert_eq!(table7_arms(base)[2].1.wmax, 15);
        assert_eq!(table9_arms(base)[3].1.amax, 20);
        assert!((table13_arms(base)[0].2 - 0.6).abs() < 1e-12);
    }

    #[test]
    fn sweep_on_one_small_arm_runs() {
        let params = tiny();
        let arms = vec![("N=6".to_string(), params.ensemble, 1.0)];
        let result = run_sweep(&arms, &params);
        assert_eq!(result.len(), 1);
        assert_eq!(result[0].cells.len(), 6); // six datasets
        for c in &result[0].cells {
            assert_eq!(c.wtl.wins + c.wtl.ties + c.wtl.losses, 2);
            assert!((0.0..=1.0).contains(&c.avg_score));
        }
    }

    #[test]
    fn tau_sweep_produces_cells_per_dataset_and_tau() {
        let params = tiny();
        let cells = run_tau_sweep(&[0.4, 1.0], 2, &params);
        assert_eq!(cells.len(), 6 * 2);
        for c in &cells {
            assert!(c.std >= 0.0);
            assert!((0.0..=1.0).contains(&c.mean));
        }
        let table = render_tau_table(&cells, &[0.4, 1.0]);
        assert!(table.contains("τ=40%"));
        assert!(table.contains("StarLightCurve"));
    }

    #[test]
    fn renderers_are_well_formed() {
        let params = tiny();
        let arms = vec![("arm".to_string(), params.ensemble, 1.0)];
        let result = run_sweep(&arms, &params);
        let wtl = render_wtl_sweep(&result);
        assert!(wtl.contains("arm"));
        let sc = render_metric_sweep(&result, SweepMetric::Score);
        assert!(sc.lines().count() >= 8);
        let hr = render_metric_sweep(&result, SweepMetric::HitRate);
        assert!(hr.contains("GunPoint"));
    }

    #[test]
    fn arm_json_nests_each_cell_and_its_wtl() {
        let arm = SweepArm {
            label: "N=6".to_string(),
            cells: vec![SweepCell {
                dataset: "GunPoint".to_string(),
                avg_score: 0.75,
                hit_rate: 1.0,
                wtl: Wtl {
                    wins: 2,
                    ties: 0,
                    losses: 1,
                },
            }],
        };
        assert_eq!(
            arm.to_json().pretty(),
            "{\n  \"label\": \"N=6\",\n  \"cells\": [\n    {\n      \"dataset\": \"GunPoint\",\n      \"avg_score\": 0.75,\n      \"hit_rate\": 1.0,\n      \"wtl\": {\n        \"wins\": 2,\n        \"ties\": 0,\n        \"losses\": 1\n      }\n    }\n  ]\n}"
        );
    }

    #[test]
    fn tau_cell_json_names_its_four_fields_in_order() {
        let cell = TauCell {
            dataset: "Wafer".to_string(),
            tau: 0.05,
            mean: 0.5,
            std: 0.0,
        };
        assert_eq!(
            cell.to_json().pretty(),
            "{\n  \"dataset\": \"Wafer\",\n  \"tau\": 0.05,\n  \"mean\": 0.5,\n  \"std\": 0.0\n}"
        );
    }
}
