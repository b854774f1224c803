//! Property-based tests for the detection core.

use egi_core::{
    rank_anomalies, Candidate, Combiner, EnsembleConfig, EnsembleDetector, RuleDensityCurve,
    StreamingEnsembleDetector,
};
use egi_tskit::window::intervals_overlap;
use proptest::prelude::*;

/// Deterministic pseudo-series: smooth enough for SAX structure,
/// parameterized so every case sees different data.
fn pseudo_series(len: usize, phase: f64) -> Vec<f64> {
    (0..len)
        .map(|i| {
            let t = i as f64;
            (t * 0.13 + phase).sin() * 1.5
                + 0.5 * (t * 0.029 + 2.0 * phase).cos()
                + ((i * 37) % 19) as f64 * 0.04
        })
        .collect()
}

/// The ranking oracle: score every window, sort all of them by (score,
/// start), and greedily take non-overlapping windows.
fn rank_by_full_sort(curve: &[f64], n: usize, k: usize) -> Vec<Candidate> {
    if n == 0 || curve.len() < n {
        return Vec::new();
    }
    let ps = egi_tskit::PrefixStats::new(curve);
    let scores: Vec<f64> = (0..=curve.len() - n)
        .map(|s| ps.range_sum(s, s + n) / n as f64)
        .collect();
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&x, &y| scores[x].partial_cmp(&scores[y]).unwrap().then(x.cmp(&y)));
    let mut picked: Vec<Candidate> = Vec::new();
    for s in order {
        if picked.len() == k {
            break;
        }
        if picked
            .iter()
            .all(|c| !intervals_overlap(c.start, c.len, s, n))
        {
            picked.push(Candidate {
                start: s,
                len: n,
                score: scores[s],
            });
        }
    }
    picked
}

/// The combine done the direct way, as the oracle: clone and zero-pad
/// every member, score each with
/// `stddev_population`, rank and cut as `kept_members` does, clone and
/// `normalize_by_max` the kept ones, then merge each point's gathered
/// column with `select_nth_unstable_by` or a fold.
fn reference_combine(config: &EnsembleConfig, curves: &[&[f64]], len: usize) -> Vec<f64> {
    let padded: Vec<RuleDensityCurve> = curves
        .iter()
        .map(|c| {
            let mut values = c.to_vec();
            values.resize(len, 0.0);
            RuleDensityCurve { values }
        })
        .collect();
    let stds: Vec<f64> = padded
        .iter()
        .map(|c| {
            if c.is_empty() {
                0.0
            } else {
                egi_tskit::stats::stddev_population(&c.values)
            }
        })
        .collect();
    let mut order: Vec<usize> = (0..stds.len()).collect();
    order.sort_by(|&x, &y| stds[y].partial_cmp(&stds[x]).unwrap().then(x.cmp(&y)));
    let keep = ((config.selectivity * stds.len() as f64).round() as usize).clamp(1, stds.len());
    let kept: Vec<RuleDensityCurve> = order[..keep]
        .iter()
        .map(|&i| {
            let mut c = padded[i].clone();
            c.normalize_by_max();
            c
        })
        .collect();
    let mut column = vec![0.0f64; kept.len()];
    (0..len)
        .map(|t| {
            for (slot, c) in column.iter_mut().zip(&kept) {
                *slot = c.values[t];
            }
            match config.combiner {
                Combiner::Median => {
                    let mid = column.len() / 2;
                    column.select_nth_unstable_by(mid, |x, y| x.partial_cmp(y).unwrap());
                    let hi = column[mid];
                    if column.len() % 2 == 1 {
                        hi
                    } else {
                        let lo = column[..mid]
                            .iter()
                            .cloned()
                            .fold(f64::NEG_INFINITY, f64::max);
                        0.5 * (lo + hi)
                    }
                }
                Combiner::Mean => column.iter().sum::<f64>() / column.len() as f64,
                Combiner::Min => column.iter().cloned().fold(f64::INFINITY, f64::min),
                Combiner::Max => column.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The borrowed combine is bit for bit the reference combine, for
    /// every combiner: random member counts (odd and even kept counts
    /// through τ), read lengths including 0, members shorter and longer
    /// than the read length, all-zero members, duplicated members (σ
    /// ties), and integer or non-integer values with tied points.
    #[test]
    fn combine_members_matches_the_cloning_reference(
        levels in prop::collection::vec(prop::collection::vec(0u32..6, 0..90), 1..40),
        len in 0usize..90,
        scale_pick in 0usize..4,
        zeroed in 0usize..5,
        duplicated in 0usize..40,
        tau_pick in 0usize..8,
    ) {
        let scale = [1.0, 0.25, 1.0 / 3.0, 1.7][scale_pick];
        let mut rows: Vec<Vec<f64>> = levels
            .iter()
            .enumerate()
            .map(|(m, row)| {
                if zeroed > 0 && m % zeroed == 0 {
                    vec![0.0; row.len()]
                } else {
                    row.iter().map(|&v| f64::from(v) * scale).collect()
                }
            })
            .collect();
        let copy = rows[duplicated % rows.len()].clone();
        rows.push(copy);
        let curves: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let tau = [0.05, 0.2, 0.25, 0.4, 0.5, 0.6, 0.75, 1.0][tau_pick];
        for combiner in [Combiner::Median, Combiner::Mean, Combiner::Min, Combiner::Max] {
            let config = EnsembleConfig {
                window: 4,
                selectivity: tau,
                combiner,
                ..EnsembleConfig::default()
            };
            let got = EnsembleDetector::new(config).combine_members(&curves, len);
            let want = reference_combine(&config, &curves, len);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            prop_assert_eq!(bits(&got.values), bits(&want), "{:?}", combiner);
        }
    }

    /// Ranked candidates never overlap, have nondecreasing scores, each
    /// score equals the window's mean density, and the whole answer is
    /// the full-sort oracle's. Curves are quantized to a few integer
    /// levels so window scores tie often, and `n` may exceed the curve.
    #[test]
    fn rank_anomalies_invariants(
        raw in prop::collection::vec(0.0f64..50.0, 1..300),
        levels in 1u32..6,
        n in 1usize..60,
        k in 1usize..6,
    ) {
        let curve: Vec<f64> = raw
            .iter()
            .map(|v| (v * levels as f64 / 50.0).floor())
            .collect();
        let cands = rank_anomalies(&curve, n, k);
        prop_assert_eq!(&cands, &rank_by_full_sort(&curve, n, k));
        prop_assert!(cands.len() <= k);
        for (i, c) in cands.iter().enumerate() {
            prop_assert!(c.start + c.len <= curve.len());
            let mean: f64 = curve[c.start..c.start + n].iter().sum::<f64>() / n as f64;
            prop_assert!((c.score - mean).abs() < 1e-9);
            for other in &cands[i + 1..] {
                prop_assert!(!intervals_overlap(c.start, c.len, other.start, other.len));
            }
        }
        for pair in cands.windows(2) {
            prop_assert!(pair[0].score <= pair[1].score + 1e-12);
        }
    }

    /// The top-1 candidate is globally optimal: no window of length n has
    /// a strictly lower mean density.
    #[test]
    fn top_candidate_is_global_minimum(
        curve in prop::collection::vec(0.0f64..10.0, 5..150),
        n in 1usize..20,
    ) {
        prop_assume!(n <= curve.len());
        let cands = rank_anomalies(&curve, n, 1);
        prop_assert_eq!(cands.len(), 1);
        let best = cands[0].score;
        for s in 0..=curve.len() - n {
            let mean: f64 = curve[s..s + n].iter().sum::<f64>() / n as f64;
            prop_assert!(best <= mean + 1e-9, "window {} beats reported best", s);
        }
    }

    /// Median combination is bounded by min and max combinations
    /// point-wise, and all combiners preserve the [0, 1] range of
    /// normalized curves.
    #[test]
    fn combiners_are_bounded(
        rows in prop::collection::vec(
            prop::collection::vec(0.0f64..1.0, 20),
            1..9,
        ),
    ) {
        let det = |comb| EnsembleDetector::new(EnsembleConfig {
            window: 4,
            selectivity: 1.0,
            combiner: comb,
            ..EnsembleConfig::default()
        });
        let as_curves = |rows: &Vec<Vec<f64>>|

            rows.iter()
                .map(|r| RuleDensityCurve { values: r.clone() })
                .collect::<Vec<_>>();
        let med = det(Combiner::Median).combine_curves(as_curves(&rows));
        let min = det(Combiner::Min).combine_curves(as_curves(&rows));
        let max = det(Combiner::Max).combine_curves(as_curves(&rows));
        for t in 0..20 {
            prop_assert!(min.values[t] <= med.values[t] + 1e-9);
            prop_assert!(med.values[t] <= max.values[t] + 1e-9);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&med.values[t]));
        }
    }

    /// Streaming/batch parity, full pipeline (PR 4):
    /// `StreamingEnsembleDetector::finish` is bit-identical to batch
    /// `EnsembleDetector::detect` — scores, ranked anomaly indices,
    /// tie-breaks, and the ensemble curve — across randomized append
    /// schedules (including 1-point appends), member counts, window
    /// lengths, and seeds.
    #[test]
    fn streaming_finish_is_bit_identical_to_batch_detect(
        len in 80usize..320,
        phase in 0.0f64..6.0,
        cuts in prop::collection::vec(1usize..60, 1..5),
        members in 1usize..14,
        window in 8usize..40,
        seed in 0u64..1000,
        interleave in 0usize..4,
    ) {
        let series = pseudo_series(len, phase);
        let config = EnsembleConfig {
            window,
            ensemble_size: members,
            ..EnsembleConfig::default()
        };
        let batch = EnsembleDetector::new(config).detect(&series, 3, seed);

        let mut streaming = StreamingEnsembleDetector::new(config, seed);
        let mut at = 0;
        let mut i = 0;
        while at < series.len() {
            let c = cuts[i % cuts.len()].min(series.len() - at);
            streaming.append(&series[at..at + c]);
            at += c;
            // Interleave partial refreshes and live reads; neither may
            // perturb the finished result.
            streaming.run_for(i % (interleave + 1));
            if i % 3 == 0 {
                let _ = streaming.anomalies(2);
            }
            i += 1;
        }
        let report = streaming.finish(3);
        prop_assert_eq!(report, batch);
        prop_assert!(streaming.is_current());
    }

    /// Worker-count invariance (PR 4): the parallel catch-up lands on
    /// the same bits as serial for every thread count.
    #[test]
    fn streaming_finish_deterministic_across_worker_counts(
        len in 100usize..260,
        phase in 0.0f64..6.0,
        members in 2usize..10,
        seed in 0u64..100,
        threads in 1usize..5,
    ) {
        let series = pseudo_series(len, phase);
        let config = EnsembleConfig {
            window: 16,
            ensemble_size: members,
            ..EnsembleConfig::default()
        };
        let reference = EnsembleDetector::new(config).detect(&series, 2, seed);
        let mut streaming = StreamingEnsembleDetector::new(config, seed);
        for part in series.chunks(33) {
            streaming.append(part);
        }
        let report = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| streaming.finish(2));
        prop_assert_eq!(report, reference);
    }

    /// Selectivity never changes the curve length, and τ = 1.0 keeps all
    /// members (order-invariant median): permuting the input curves gives
    /// the same combined curve.
    #[test]
    fn median_is_permutation_invariant(
        rows in prop::collection::vec(prop::collection::vec(0.0f64..5.0, 10), 2..7),
        swap_a in 0usize..7,
        swap_b in 0usize..7,
    ) {
        let det = EnsembleDetector::new(EnsembleConfig {
            window: 4,
            selectivity: 1.0,
            ..EnsembleConfig::default()
        });
        let curves: Vec<RuleDensityCurve> = rows
            .iter()
            .map(|r| RuleDensityCurve { values: r.clone() })
            .collect();
        let mut permuted = curves.clone();
        let (a, b) = (swap_a % permuted.len(), swap_b % permuted.len());
        permuted.swap(a, b);
        let c1 = det.combine_curves(curves);
        let c2 = det.combine_curves(permuted);
        for (x, y) in c1.values.iter().zip(&c2.values) {
            prop_assert!((x - y).abs() < 1e-12);
        }
    }
}
