//! Figure 1: the parameter-sensitivity motivation.
//!
//! A dishwasher-style power trace with one short-heating anomalous cycle
//! is scored by the single-run GI detector under every `(w, a)` pair in
//! `[2, wmax] × [2, amax]`. The paper's point — reproduced here — is that
//! the Score landscape is jagged: the best pair sits far from the second
//! best and neighbors of the optimum can be terrible.

use egi_core::{GiConfig, SingleGiDetector};
use egi_sax::SaxConfig;
use egi_tskit::gen::power::dishwasher_series;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::metrics::best_score;
use crate::report::Json;

/// Score of one `(w, a)` cell.
#[derive(Debug, Clone, Copy)]
pub struct GridCell {
    /// PAA size.
    pub w: usize,
    /// Alphabet size.
    pub a: usize,
    /// Best Eq. (5) Score of the top-3 candidates under this pair.
    pub score: f64,
}

/// Result of the Figure 1 experiment.
#[derive(Debug, Clone)]
pub struct Fig1Result {
    /// All grid cells, row-major in `w` then `a`.
    pub grid: Vec<GridCell>,
    /// Length of the generated trace.
    pub series_len: usize,
    /// Ground-truth anomaly interval.
    pub gt: (usize, usize),
}

impl Fig1Result {
    /// The result as written to `fig1.json`.
    pub fn to_json(&self) -> Json {
        let grid = self.grid.iter().map(|c| {
            Json::Obj(vec![
                ("w", Json::UInt(c.w as u64)),
                ("a", Json::UInt(c.a as u64)),
                ("score", Json::Float(c.score)),
            ])
        });
        let (gt_start, gt_len) = self.gt;
        Json::Obj(vec![
            ("grid", grid.collect()),
            ("series_len", Json::UInt(self.series_len as u64)),
            (
                "gt",
                Json::Arr(vec![Json::UInt(gt_start as u64), Json::UInt(gt_len as u64)]),
            ),
        ])
    }

    /// Cells sorted by descending score.
    pub fn ranked(&self) -> Vec<GridCell> {
        let mut cells = self.grid.clone();
        cells.sort_by(|x, y| {
            y.score
                .partial_cmp(&x.score)
                .expect("scores are finite")
                .then((x.w, x.a).cmp(&(y.w, y.a)))
        });
        cells
    }

    /// The paper's observation quantified: the L∞ parameter distance from
    /// the best pair to the second-best pair.
    pub fn best_to_second_distance(&self) -> usize {
        let ranked = self.ranked();
        if ranked.len() < 2 {
            return 0;
        }
        let (b, s) = (ranked[0], ranked[1]);
        b.w.abs_diff(s.w).max(b.a.abs_diff(s.a))
    }
}

/// Runs the parameter grid on a generated dishwasher trace.
pub fn run_fig1(wmax: usize, amax: usize, seed: u64) -> Fig1Result {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_cycles = 14;
    let profile = dishwasher_series(n_cycles, Some(n_cycles / 2), &mut rng);
    let (gt_start, gt_len) = profile.anomalies[0];
    let window = profile.values.len() / n_cycles; // ≈ one cycle

    let mut grid = Vec::new();
    for w in 2..=wmax {
        for a in 2..=amax {
            let det = SingleGiDetector::new(GiConfig {
                window,
                sax: SaxConfig::new(w.min(window), a),
            });
            let report = det.detect(&profile.values, 3);
            let cands: Vec<usize> = report.anomalies.iter().map(|c| c.start).collect();
            grid.push(GridCell {
                w,
                a,
                score: best_score(&cands, gt_start, gt_len),
            });
        }
    }
    Fig1Result {
        grid,
        series_len: profile.values.len(),
        gt: (gt_start, gt_len),
    }
}

/// Renders the grid as a `w × a` markdown matrix of scores.
pub fn render_fig1(result: &Fig1Result, wmax: usize, amax: usize) -> String {
    let mut out = String::from("| w \\ a |");
    for a in 2..=amax {
        out.push_str(&format!(" {a} |"));
    }
    out.push_str("\n|---|");
    for _ in 2..=amax {
        out.push_str("---|");
    }
    out.push('\n');
    for w in 2..=wmax {
        out.push_str(&format!("| {w} |"));
        for a in 2..=amax {
            let cell = result
                .grid
                .iter()
                .find(|c| c.w == w && c.a == a)
                .expect("cell exists");
            out.push_str(&format!(" {:.2} |", cell.score));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_all_pairs() {
        let r = run_fig1(6, 6, 5);
        assert_eq!(r.grid.len(), 25);
        for c in &r.grid {
            assert!((0.0..=1.0).contains(&c.score));
        }
    }

    #[test]
    fn some_parameter_pair_finds_the_anomaly() {
        let r = run_fig1(10, 10, 5);
        let best = r.ranked()[0];
        assert!(
            best.score > 0.3,
            "no parameter pair found the dishwasher anomaly (best {:?})",
            best
        );
    }

    #[test]
    fn scores_vary_across_the_grid() {
        // The motivation: quality depends strongly on (w, a).
        let r = run_fig1(10, 10, 5);
        let scores: Vec<f64> = r.grid.iter().map(|c| c.score).collect();
        let min = scores.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = scores.iter().cloned().fold(0.0f64, f64::max);
        assert!(max - min > 0.2, "grid too flat: [{min}, {max}]");
    }

    #[test]
    fn render_contains_all_rows() {
        let r = run_fig1(4, 5, 1);
        let md = render_fig1(&r, 4, 5);
        assert_eq!(md.lines().count(), 2 + 3); // header+sep + w∈{2,3,4}
    }

    /// `fig1.json` names the fields in declaration order and writes the
    /// ground truth as a `[start, len]` pair.
    #[test]
    fn json_writes_the_grid_then_the_ground_truth_pair() {
        let r = Fig1Result {
            grid: vec![GridCell {
                w: 3,
                a: 4,
                score: 0.25,
            }],
            series_len: 700,
            gt: (350, 40),
        };
        assert_eq!(
            r.to_json().pretty(),
            "{\n  \"grid\": [\n    {\n      \"w\": 3,\n      \"a\": 4,\n      \"score\": 0.25\n    }\n  ],\n  \"series_len\": 700,\n  \"gt\": [\n    350,\n    40\n  ]\n}"
        );
    }
}
