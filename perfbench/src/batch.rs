//! `batch-corpus`: the paper's own evaluation through the `egi detect`
//! path. One op parses one labeled series from CSV text and runs
//! `EnsembleDetector::detect` with the paper's defaults, keeping the
//! top 3 candidates.

use egi_core::{
    intern_tokens, rank_anomalies, AnomalyReport, EnsembleConfig, EnsembleDetector,
    RuleDensityCurve,
};
use egi_eval::best_score;
use egi_sax::stream::{discretize_from_stream, PaaStream};
use egi_sax::{FastSax, MultiResBreakpoints};
use egi_tskit::gen::ucr::UcrFamily;
use egi_tskit::io::parse_series;
use egi_tskit::CorpusSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::inputs::{csv_text, report_fingerprint};
use crate::measure::{metric, Layers, Metric, Rounds, Workload};

/// The member-draw seed `egi detect` uses by default.
const DETECT_SEED: u64 = 42;
/// Candidates kept per series (the paper scores the best of the top 3).
const TOP_K: usize = 3;

struct Labeled {
    family: UcrFamily,
    csv: String,
    len: usize,
    gt_start: usize,
    gt_len: usize,
}

/// The paper corpus: six families × 25 labeled series.
pub struct BatchCorpus {
    series: Vec<Labeled>,
}

/// Paper defaults (N = 50, wmax = amax = 10, τ = 0.4) with the window
/// set to the family's instance length.
fn detector(family: UcrFamily) -> EnsembleDetector {
    EnsembleDetector::new(EnsembleConfig {
        window: family.instance_length(),
        ..EnsembleConfig::default()
    })
}

impl BatchCorpus {
    pub fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let series = UcrFamily::ALL
            .iter()
            .flat_map(|&family| CorpusSpec::paper(family).generate(&mut rng))
            .map(|ls| Labeled {
                family: ls.family,
                csv: csv_text(ls.series.as_slice()),
                len: ls.series.len(),
                gt_start: ls.gt_start,
                gt_len: ls.gt_len,
            })
            .collect();
        Self { series }
    }

    /// `parse_series` → `detect` → top 3: the op as a user runs it.
    fn detect(&self, s: &Labeled) -> Result<AnomalyReport, String> {
        let ts = parse_series(&s.csv).map_err(|e| e.to_string())?;
        Ok(detector(s.family).detect(ts.as_slice(), TOP_K, DETECT_SEED))
    }

    /// The same op through the per-crate functions `detect` is built
    /// from, each call timed into its layer. Must equal
    /// [`detect`](Self::detect) bit for bit.
    fn detect_by_layers(&self, s: &Labeled, layers: &mut Layers) -> Result<AnomalyReport, String> {
        let det = detector(s.family);
        let cfg = det.config();
        let ts = layers
            .time("tskit.parse_s", || parse_series(&s.csv))
            .map_err(|e| e.to_string())?;
        let series = ts.as_slice();
        let params = det.member_params(DETECT_SEED);
        let fast = layers.time("tskit.stats_s", || FastSax::new(series));
        let multi = layers.time("sax.discretize_s", || MultiResBreakpoints::new(cfg.amax));
        let mut ws: Vec<usize> = params.iter().map(|p| p.w).collect();
        ws.sort_unstable();
        ws.dedup();
        let streams: Vec<PaaStream> = ws
            .iter()
            .map(|&w| layers.time("sax.paa_s", || PaaStream::new(&fast, cfg.window, w)))
            .collect();
        let mut curves = Vec::with_capacity(params.len());
        for &sax in &params {
            let stream = &streams[ws.binary_search(&sax.w).expect("w collected above")];
            let nr = layers.time("sax.discretize_s", || {
                discretize_from_stream(stream, sax, &multi)
            });
            layers.count("sax.words", stream.count as u64);
            layers.count("sax.tokens", nr.len() as u64);
            if nr.is_empty() {
                curves.push(RuleDensityCurve {
                    values: vec![0.0; series.len()],
                });
                continue;
            }
            let tokens = layers.time("core.intern_s", || intern_tokens(&nr));
            let grammar = layers.time("sequitur.induce_s", || egi_sequitur::induce(tokens));
            let occurrences = layers.time("core.density_s", || grammar.occurrences());
            layers.count("sequitur.occurrences", occurrences.len() as u64);
            curves.push(layers.time("core.density_s", || {
                RuleDensityCurve::from_occurrences(&occurrences, &nr, series.len())
            }));
        }
        let curve = layers.time("core.combine_s", || det.combine_curves(curves));
        let anomalies = layers.time("core.rank_s", || {
            rank_anomalies(&curve.values, cfg.window, TOP_K)
        });
        Ok(AnomalyReport {
            anomalies,
            curve: curve.values,
        })
    }

    /// Index of the first series of each family.
    fn firsts(&self) -> Vec<usize> {
        UcrFamily::ALL
            .iter()
            .filter_map(|&f| self.series.iter().position(|s| s.family == f))
            .collect()
    }
}

impl Workload for BatchCorpus {
    /// Each op's report, kept for its answer and the score.
    type State = Vec<Option<AnomalyReport>>;

    fn ops(&self) -> usize {
        self.series.len()
    }

    fn round_seconds(&self) -> f64 {
        10.0
    }

    fn points(&self) -> usize {
        self.series.iter().map(|s| s.len).sum()
    }

    /// One detect per family: the work before the first timed op.
    fn setup(&self) -> Result<Self::State, String> {
        for i in self.firsts() {
            std::hint::black_box(self.detect(&self.series[i])?);
        }
        Ok(vec![None; self.series.len()])
    }

    fn op(&self, state: &mut Self::State, i: usize, layers: &mut Layers) -> Result<(), String> {
        let s = &self.series[i];
        let report = if layers.on() {
            self.detect_by_layers(s, layers)?
        } else {
            self.detect(s)?
        };
        state[i] = Some(report);
        Ok(())
    }

    fn answer(&self, state: &Self::State, i: usize) -> u64 {
        state[i].as_ref().map_or(0, report_fingerprint)
    }

    /// The per-layer decomposition of one series per family equals the
    /// report `detect` gave for it. (Traced rounds decompose every op;
    /// the round loop compares those answers with the untraced rounds'.)
    fn check(&self, _state: &mut Self::State, answers: &[Option<u64>]) -> (u64, u64) {
        let mut failures = 0;
        let firsts = self.firsts();
        for &i in &firsts {
            let same = self
                .detect_by_layers(&self.series[i], &mut Layers::new(false))
                .is_ok_and(|r| Some(report_fingerprint(&r)) == answers[i]);
            if !same {
                eprintln!("batch-corpus: series {i}: layered detect differs from detect");
                failures += 1;
            }
        }
        (firsts.len() as u64, failures)
    }

    fn score(&self, state: &Self::State) -> f64 {
        let total: f64 = self
            .series
            .iter()
            .zip(state)
            .map(|(s, report)| {
                let starts: Vec<usize> = report
                    .iter()
                    .flat_map(|r| r.anomalies.iter().map(|c| c.start))
                    .collect();
                best_score(&starts, s.gt_start, s.gt_len)
            })
            .sum();
        total / self.series.len() as f64
    }

    /// In pipeline order.
    const LAYERS: &'static [&'static str] = &[
        "tskit.parse_s",
        "tskit.stats_s",
        "sax.paa_s",
        "sax.discretize_s",
        "core.intern_s",
        "sequitur.induce_s",
        "core.density_s",
        "core.combine_s",
        "core.rank_s",
    ];

    fn layer_metrics(&self, r: &Rounds) -> Vec<Metric> {
        let count = |name: &str| r.traced_counts.get(name).copied().unwrap_or(0) as f64;
        vec![metric(
            "sax.kept_frac",
            count("sax.tokens") / count("sax.words"),
            "frac",
        )]
    }
}
