//! Main accuracy experiment: Tables 4 (average Score), 5 (HitRate),
//! 6 (wins/ties/losses) and the Figure 10 scatter data.
//!
//! Protocol (Section 7.1): per dataset family, generate
//! `series_per_dataset` labeled series (20 normal instances + 1 planted
//! anomalous instance); run the proposed ensemble and all four baselines
//! with sliding window = instance length; each method reports its top-3
//! non-overlapping candidates; per series keep the best Eq. (5) Score.

use egi_tskit::corpus::CorpusSpec;
use egi_tskit::gen::UcrFamily;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::metrics::{best_score, mean_or_zero, Wtl};
use crate::report::Json;
use crate::runner::{run_baseline, run_proposed, subseed, Baseline, ExperimentParams};

/// Per-series scores of every method (one Figure 10 scatter point per
/// baseline).
#[derive(Debug, Clone)]
pub struct SeriesScores {
    /// Eq. (5) Score of the proposed ensemble.
    pub proposed: f64,
    /// Scores of the four baselines, in [`Baseline::ALL`] order.
    pub baselines: [f64; 4],
}

/// All scores for one dataset family.
#[derive(Debug, Clone)]
pub struct DatasetResult {
    /// Dataset name as in the paper's tables.
    pub dataset: String,
    /// One entry per generated series.
    pub per_series: Vec<SeriesScores>,
}

impl DatasetResult {
    /// The result as written to `table4_5_6.json`, one per dataset.
    pub fn to_json(&self) -> Json {
        let per_series = self
            .per_series
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("proposed", Json::Float(s.proposed)),
                    (
                        "baselines",
                        s.baselines.map(Json::Float).into_iter().collect(),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("dataset", Json::Str(self.dataset.clone())),
            ("per_series", per_series),
        ])
    }

    /// Table 4 row: average Score of the proposed method.
    pub fn avg_score_proposed(&self) -> f64 {
        mean_or_zero(
            &self
                .per_series
                .iter()
                .map(|s| s.proposed)
                .collect::<Vec<_>>(),
        )
    }

    /// Table 4 row: average Score of baseline `b`.
    pub fn avg_score_baseline(&self, b: Baseline) -> f64 {
        let idx = baseline_index(b);
        mean_or_zero(
            &self
                .per_series
                .iter()
                .map(|s| s.baselines[idx])
                .collect::<Vec<_>>(),
        )
    }

    /// Table 5 row: HitRate (fraction of series with Score > 0) of the
    /// proposed method.
    pub fn hit_rate_proposed(&self) -> f64 {
        let hits = self.per_series.iter().filter(|s| s.proposed > 0.0).count();
        hits as f64 / self.per_series.len().max(1) as f64
    }

    /// Table 5 row: HitRate of baseline `b`.
    pub fn hit_rate_baseline(&self, b: Baseline) -> f64 {
        let idx = baseline_index(b);
        let hits = self
            .per_series
            .iter()
            .filter(|s| s.baselines[idx] > 0.0)
            .count();
        hits as f64 / self.per_series.len().max(1) as f64
    }

    /// Table 6 cell: wins/ties/losses of the proposed method vs `b`.
    pub fn wtl(&self, b: Baseline) -> Wtl {
        let idx = baseline_index(b);
        Wtl::from_pairs(
            self.per_series
                .iter()
                .map(|s| (s.proposed, s.baselines[idx])),
        )
    }

    /// Best score across GI-Random / GI-Fix / GI-Select per series — the
    /// "best GI baseline" reference used by Tables 7–9.
    pub fn best_gi_baseline_scores(&self) -> Vec<f64> {
        self.per_series
            .iter()
            .map(|s| s.baselines[0].max(s.baselines[1]).max(s.baselines[2]))
            .collect()
    }
}

fn baseline_index(b: Baseline) -> usize {
    Baseline::ALL
        .iter()
        .position(|x| *x == b)
        .expect("baseline is in ALL")
}

/// Runs the main experiment for one dataset family.
pub fn run_dataset(family: UcrFamily, params: &ExperimentParams) -> DatasetResult {
    let spec = CorpusSpec {
        series_count: params.series_per_dataset,
        ..CorpusSpec::paper(family)
    };
    let corpus_seed = subseed(params.seed, family as u64 + 1);
    let mut rng = StdRng::seed_from_u64(corpus_seed);
    let corpus = spec.generate(&mut rng);

    let mut per_series = Vec::with_capacity(corpus.len());
    for (i, ls) in corpus.iter().enumerate() {
        let window = ls.gt_len;
        let run_seed = subseed(corpus_seed, 1000 + i as u64);
        let prop = run_proposed(&ls.series, window, &params.ensemble, params.top_k, run_seed);
        let mut baselines = [0.0f64; 4];
        for (bi, b) in Baseline::ALL.into_iter().enumerate() {
            let cands = run_baseline(
                b,
                &ls.series,
                window,
                &params.ensemble,
                params.top_k,
                subseed(run_seed, bi as u64 + 7),
            );
            baselines[bi] = best_score(&cands, ls.gt_start, ls.gt_len);
        }
        per_series.push(SeriesScores {
            proposed: best_score(&prop, ls.gt_start, ls.gt_len),
            baselines,
        });
    }
    DatasetResult {
        dataset: family.name().to_string(),
        per_series,
    }
}

/// Runs all six dataset families (Tables 4–6 and Figure 10 in one pass).
pub fn run_all(params: &ExperimentParams) -> Vec<DatasetResult> {
    UcrFamily::ALL
        .iter()
        .map(|&f| run_dataset(f, params))
        .collect()
}

/// Renders the Table 4 (average Score) markdown.
pub fn render_table4(results: &[DatasetResult]) -> String {
    let mut out = String::from(
        "| Dataset | Proposed | GI-Random | GI-Fix | GI-Select | Discord |\n|---|---|---|---|---|---|\n",
    );
    for r in results {
        out.push_str(&format!(
            "| {} | {:.4} | {:.4} | {:.4} | {:.4} | {:.4} |\n",
            r.dataset,
            r.avg_score_proposed(),
            r.avg_score_baseline(Baseline::GiRandom),
            r.avg_score_baseline(Baseline::GiFix),
            r.avg_score_baseline(Baseline::GiSelect),
            r.avg_score_baseline(Baseline::Discord),
        ));
    }
    out
}

/// Renders the Table 5 (HitRate) markdown.
pub fn render_table5(results: &[DatasetResult]) -> String {
    let mut out = String::from(
        "| Dataset | Proposed | GI-Random | GI-Fix | GI-Select | Discord |\n|---|---|---|---|---|---|\n",
    );
    for r in results {
        out.push_str(&format!(
            "| {} | {:.2} | {:.2} | {:.2} | {:.2} | {:.2} |\n",
            r.dataset,
            r.hit_rate_proposed(),
            r.hit_rate_baseline(Baseline::GiRandom),
            r.hit_rate_baseline(Baseline::GiFix),
            r.hit_rate_baseline(Baseline::GiSelect),
            r.hit_rate_baseline(Baseline::Discord),
        ));
    }
    out
}

/// Renders the Table 6 (wins/ties/losses) markdown.
pub fn render_table6(results: &[DatasetResult]) -> String {
    let mut out = String::from("| Approach |");
    for r in results {
        out.push_str(&format!(" {} |", r.dataset));
    }
    out.push('\n');
    out.push_str("|---|");
    for _ in results {
        out.push_str("---|");
    }
    out.push('\n');
    for b in Baseline::ALL {
        out.push_str(&format!("| {} |", b.name()));
        for r in results {
            out.push_str(&format!(" {} |", r.wtl(b)));
        }
        out.push('\n');
    }
    out
}

/// Figure 10 scatter data as CSV: one `(dataset, baseline, proposed,
/// baseline_score)` row per series × baseline.
pub fn fig10_csv(results: &[DatasetResult]) -> String {
    let mut out = String::from("dataset,baseline,proposed_score,baseline_score\n");
    for r in results {
        for s in &r.per_series {
            for (bi, b) in Baseline::ALL.into_iter().enumerate() {
                out.push_str(&format!(
                    "{},{},{:.6},{:.6}\n",
                    r.dataset,
                    b.name(),
                    s.proposed,
                    s.baselines[bi]
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::EnsembleParams;

    fn tiny_params() -> ExperimentParams {
        ExperimentParams {
            series_per_dataset: 2,
            ensemble: EnsembleParams {
                n: 8,
                ..EnsembleParams::default()
            },
            ..ExperimentParams::default()
        }
    }

    #[test]
    fn run_dataset_produces_scores_in_range() {
        let r = run_dataset(UcrFamily::GunPoint, &tiny_params());
        assert_eq!(r.per_series.len(), 2);
        for s in &r.per_series {
            assert!((0.0..=1.0).contains(&s.proposed));
            for &b in &s.baselines {
                assert!((0.0..=1.0).contains(&b));
            }
        }
    }

    #[test]
    fn aggregates_are_consistent() {
        let r = run_dataset(UcrFamily::Wafer, &tiny_params());
        let wtl = r.wtl(Baseline::GiFix);
        assert_eq!(wtl.wins + wtl.ties + wtl.losses, r.per_series.len());
        assert!((0.0..=1.0).contains(&r.hit_rate_proposed()));
        assert!((0.0..=1.0).contains(&r.avg_score_proposed()));
    }

    #[test]
    fn renderers_emit_all_rows() {
        let r = vec![run_dataset(UcrFamily::TwoLeadEcg, &tiny_params())];
        let t4 = render_table4(&r);
        assert!(t4.contains("TwoLeadECG"));
        let t5 = render_table5(&r);
        assert_eq!(t5.lines().count(), 3);
        let t6 = render_table6(&r);
        assert!(t6.contains("GI-Random") && t6.contains("Discord"));
        let csv = fig10_csv(&r);
        // header + 2 series × 4 baselines.
        assert_eq!(csv.lines().count(), 1 + 8);
    }

    #[test]
    fn experiment_is_reproducible() {
        let a = run_dataset(UcrFamily::Trace, &tiny_params());
        let b = run_dataset(UcrFamily::Trace, &tiny_params());
        for (x, y) in a.per_series.iter().zip(&b.per_series) {
            assert_eq!(x.proposed, y.proposed);
            assert_eq!(x.baselines, y.baselines);
        }
    }

    /// Each series' four baseline scores are written as an array, in
    /// the order of [`Baseline::ALL`].
    #[test]
    fn json_writes_each_series_baselines_as_an_array() {
        let r = DatasetResult {
            dataset: "Trace".to_string(),
            per_series: vec![SeriesScores {
                proposed: 0.5,
                baselines: [0.25, 1.0, 0.0, 0.125],
            }],
        };
        assert_eq!(
            r.to_json().pretty(),
            "{\n  \"dataset\": \"Trace\",\n  \"per_series\": [\n    {\n      \"proposed\": 0.5,\n      \"baselines\": [\n        0.25,\n        1.0,\n        0.0,\n        0.125\n      ]\n    }\n  ]\n}"
        );
    }
}
