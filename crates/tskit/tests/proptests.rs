//! Property-based tests for the time series substrate.

use egi_tskit::corpus::CorpusSpec;
use egi_tskit::gen::UcrFamily;
use egi_tskit::stats::{mean, stddev, PrefixStats};
use egi_tskit::window::{intervals_overlap, sliding_windows, window_count};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Prefix-sum statistics agree with direct computation on every
    /// subrange.
    #[test]
    fn prefix_stats_match_direct(
        xs in prop::collection::vec(-1e4f64..1e4, 2..200),
        a in 0usize..200,
        b in 0usize..200,
    ) {
        let (mut s, mut e) = (a % xs.len(), b % xs.len());
        if s > e {
            std::mem::swap(&mut s, &mut e);
        }
        e += 1;
        let ps = PrefixStats::new(&xs);
        let direct_sum: f64 = xs[s..e].iter().sum();
        // Tolerance scales with magnitude: prefix sums accumulate error.
        let tol = 1e-7 * (1.0 + direct_sum.abs() + xs.len() as f64);
        prop_assert!((ps.range_sum(s, e) - direct_sum).abs() < tol);
        prop_assert!((ps.range_mean(s, e) - mean(&xs[s..e])).abs() < tol);
        if e - s >= 2 {
            let d = stddev(&xs[s..e]);
            prop_assert!((ps.range_stddev(s, e) - d).abs() < 1e-5 * (1.0 + d));
        }
    }

    /// Clearing prefix sums and extending them over a series holds the
    /// same bits as building them over it, on every `range_*` value of
    /// every range, and keeps the allocation of the cleared points.
    #[test]
    fn cleared_then_extended_prefix_stats_equal_new(
        old in prop::collection::vec(-1e4f64..1e4, 0..120),
        xs in prop::collection::vec(-1e4f64..1e4, 0..120),
    ) {
        let mut reused = PrefixStats::new(&old);
        let capacity = reused.capacity();
        reused.clear();
        prop_assert!(reused.is_empty());
        prop_assert_eq!(reused.capacity(), capacity);
        reused.extend(&xs);
        if xs.len() <= old.len() {
            prop_assert_eq!(reused.capacity(), capacity);
        }
        let fresh = PrefixStats::new(&xs);
        prop_assert_eq!(reused.len(), fresh.len());
        for s in 0..=xs.len() {
            for e in s..=xs.len() {
                let ranges = |p: &PrefixStats| {
                    [
                        p.range_sum(s, e),
                        p.range_sum_sq(s, e),
                        p.range_mean(s, e),
                        p.range_variance(s, e),
                        p.range_stddev(s, e),
                        p.range_variance_population(s, e),
                        p.range_stddev_population(s, e),
                    ]
                    .map(f64::to_bits)
                };
                prop_assert_eq!(ranges(&reused), ranges(&fresh), "{}..{}", s, e);
            }
        }
    }

    /// z-normalization: output has mean ≈ 0 and stddev ≈ 1 (or is all
    /// zeros for flat input), and is idempotent.
    #[test]
    fn znormalize_properties(xs in prop::collection::vec(-1e3f64..1e3, 2..100)) {
        let mut z = xs.clone();
        egi_tskit::stats::znormalize(&mut z);
        let flat = z.iter().all(|&v| v == 0.0);
        if !flat {
            prop_assert!(mean(&z).abs() < 1e-8);
            prop_assert!((stddev(&z) - 1.0).abs() < 1e-8);
            let mut zz = z.clone();
            egi_tskit::stats::znormalize(&mut zz);
            for (a, b) in z.iter().zip(&zz) {
                prop_assert!((a - b).abs() < 1e-9);
            }
        }
    }

    /// Window iteration yields exactly window_count windows, each the
    /// right slice.
    #[test]
    fn sliding_windows_consistency(len in 0usize..80, n in 0usize..20) {
        let xs: Vec<f64> = (0..len).map(|i| i as f64).collect();
        let ws: Vec<_> = sliding_windows(&xs, n).collect();
        prop_assert_eq!(ws.len(), window_count(len, n));
        for (start, w) in ws {
            prop_assert_eq!(w, &xs[start..start + n]);
        }
    }

    /// Interval overlap is symmetric and consistent with arithmetic.
    #[test]
    fn overlap_symmetry(a in 0usize..100, la in 1usize..20, b in 0usize..100, lb in 1usize..20) {
        let o1 = intervals_overlap(a, la, b, lb);
        let o2 = intervals_overlap(b, lb, a, la);
        prop_assert_eq!(o1, o2);
        let expected = a < b + lb && b < a + la;
        prop_assert_eq!(o1, expected);
    }

    /// Corpus generation invariants across families and seeds: length,
    /// boundary alignment, plant band, and ground-truth distinctness.
    #[test]
    fn corpus_invariants(seed in 0u64..500, fam_idx in 0usize..6) {
        let family = UcrFamily::ALL[fam_idx];
        let spec = CorpusSpec::paper(family);
        let mut rng = StdRng::seed_from_u64(seed);
        let ls = spec.generate_one(&mut rng);
        let ilen = family.instance_length();
        prop_assert_eq!(ls.series.len(), 21 * ilen);
        prop_assert_eq!(ls.gt_len, ilen);
        prop_assert_eq!(ls.gt_start % ilen, 0);
        let frac = ls.gt_start as f64 / ls.series.len() as f64;
        let slack = ilen as f64 / ls.series.len() as f64;
        prop_assert!(frac >= 0.4 - slack && frac <= 0.8 + slack);
        prop_assert!(ls.series.iter().all(|v| v.is_finite()));
    }
}
