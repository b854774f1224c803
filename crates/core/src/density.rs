//! The rule density curve (paper Section 5.2).
//!
//! Every grammar-rule occurrence covers a span of the token sequence;
//! through the numerosity-reduction offsets each token run maps back to an
//! interval of the original series. The density curve counts, per series
//! point, how many rule occurrences cover it. Subsequences never covered by
//! a rule are incompressible — the anomaly candidates.

use egi_sax::NumerosityReduced;
use egi_sequitur::{Grammar, OccDelta, RuleOccurrence};

/// A rule density curve over a time series.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleDensityCurve {
    /// Coverage count (or normalized coverage) per series point.
    pub values: Vec<f64>,
}

impl RuleDensityCurve {
    /// Builds the curve for `series_len` points from a grammar and the
    /// token/offset map that produced it.
    ///
    /// A rule occurrence covering tokens `[s, s+len)` maps to the series
    /// interval from the first covered window's start to the last covered
    /// window's end:
    /// `[offset(s), offset(s + len − 1) + window)` — the GrammarViz
    /// convention. Interval additions use a difference array, so the build
    /// is `O(occurrences + series_len)`.
    pub fn build(grammar: &Grammar, nr: &NumerosityReduced, series_len: usize) -> Self {
        Self::from_occurrences(&grammar.occurrences(), nr, series_len)
    }

    /// Builds the curve directly from an occurrence list: a member
    /// refresh that starts from an empty engine — every batch ensemble
    /// member, and a streaming member's first fill or replay — feeds
    /// the live engine's [`Sequitur::occurrences`] here, skipping
    /// grammar extraction entirely, and later streaming refreshes fold
    /// deltas onto the result ([`fold_deltas`](Self::fold_deltas)).
    ///
    /// Only the `(start, len)` spans are read (rule ids — dense or
    /// engine — are irrelevant), and the difference-array accumulation
    /// adds exact small integers, so the result is **bit-identical**
    /// for any enumeration order of the same occurrence multiset; in
    /// particular [`build`](Self::build) over an extracted grammar and
    /// this function over the live engine agree exactly.
    ///
    /// [`Sequitur::occurrences`]: egi_sequitur::Sequitur::occurrences
    pub fn from_occurrences(
        occurrences: &[RuleOccurrence],
        nr: &NumerosityReduced,
        series_len: usize,
    ) -> Self {
        // The difference array becomes the curve in place: one buffer,
        // the ±1 marks, a running sum, and the end mark cut off.
        let mut values = vec![0.0f64; series_len + 1];
        for occ in occurrences {
            if let Some((lo, hi)) = series_interval(occ.start, occ.len, nr, series_len) {
                values[lo] += 1.0;
                values[hi] -= 1.0;
            }
        }
        let mut acc = 0.0;
        for v in &mut values {
            acc += *v;
            *v = acc;
        }
        values.truncate(series_len);
        Self { values }
    }

    /// Folds one batch of occurrence-span deltas from
    /// [`Sequitur::take_deltas`] into the live curve — the incremental
    /// counterpart of a [`from_occurrences`](Self::from_occurrences)
    /// rebuild. Returns the number of curve points written (the
    /// "changed coverage" an observability layer can compare against
    /// the series length): 0 for a batch that covers nothing.
    ///
    /// Each delta costs `O(1)`: its `±1` lands at the two ends of its
    /// series interval in a difference array spanning only the hull of
    /// the batch's intervals, and one running-sum pass adds that array
    /// into the curve. Each span maps to the identical series interval
    /// the rebuild uses (`[offset(start), offset(start + len − 1) +
    /// window)`, clamped to the curve length), and every point gains
    /// the exact integer net of its deltas — floating-point addition on
    /// exact small integers is exact and order-independent, so a curve
    /// maintained by deltas is **bit-identical** to one rebuilt from
    /// the full occurrence set at any drain boundary. The curve must
    /// already span the current series length (resize with zeros after
    /// appends, before folding).
    ///
    /// [`Sequitur::take_deltas`]: egi_sequitur::Sequitur::take_deltas
    pub fn fold_deltas(&mut self, deltas: &[OccDelta], nr: &NumerosityReduced) -> usize {
        let series_len = self.values.len();
        let interval = |d: &OccDelta| series_interval(d.start, d.len, nr, series_len);
        let (mut first, mut end) = (usize::MAX, 0);
        for (lo, hi) in deltas.iter().filter_map(interval) {
            first = first.min(lo);
            end = end.max(hi);
        }
        if first >= end {
            return 0;
        }
        let mut diff = vec![0.0f64; end - first + 1];
        for d in deltas {
            if let Some((lo, hi)) = interval(d) {
                let add = if d.created { 1.0 } else { -1.0 };
                diff[lo - first] += add;
                diff[hi - first] -= add;
            }
        }
        let mut acc = 0.0;
        for (v, d) in self.values[first..end].iter_mut().zip(&diff) {
            acc += d;
            *v += acc;
        }
        end - first
    }

    /// Curve length (= series length).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` for an empty curve.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Divides by the maximum so values land in `[0, 1]` (Algorithm 1,
    /// line 11). Deliberately *not* min–max normalization: zeros — the
    /// never-covered points — must stay exactly zero (Section 6.1.2).
    /// A flat-zero curve is left untouched.
    pub fn normalize_by_max(&mut self) {
        let max = self.values.iter().cloned().fold(0.0f64, f64::max);
        if max > 0.0 {
            for v in self.values.iter_mut() {
                *v /= max;
            }
        }
    }

    /// Corrects the boundary attenuation of the raw curve.
    ///
    /// A point near the series edge lies inside fewer sliding windows, so
    /// even perfectly regular data shows lower rule density there — an
    /// artifact that competes with real anomalies once candidates are
    /// ranked globally. Dividing each point by the number of windows that
    /// *can* cover it (`min(t+1, n, N−t, N−n+1)`) levels the playing
    /// field. The paper does not apply this (its anomalies are planted at
    /// 40–80% of the series, where the artifact is invisible); the
    /// multi-window extension does.
    pub fn correct_edge_coverage(&mut self, window: usize) {
        let n = self.values.len();
        if window == 0 || n == 0 {
            return;
        }
        let max_windows = n.saturating_sub(window) + 1;
        for (t, v) in self.values.iter_mut().enumerate() {
            let covering = (t + 1).min(window).min(n - t).min(max_windows);
            if covering > 0 {
                *v *= max_windows.min(window) as f64 / covering as f64;
            }
        }
    }
}

/// The series interval `[lo, hi)` covered by the token span `[start,
/// start + len)`: from the first covered window's start to the last
/// covered window's end, `[offset(start), offset(start + len − 1) +
/// window)` clamped to `series_len` — the GrammarViz convention shared
/// by the rebuild and the delta fold. `None` for an empty interval.
fn series_interval(
    start: usize,
    len: usize,
    nr: &NumerosityReduced,
    series_len: usize,
) -> Option<(usize, usize)> {
    debug_assert!(len >= 1);
    let last_tok = start + len - 1;
    if last_tok >= nr.len() {
        debug_assert!(false, "span beyond token sequence");
        return None;
    }
    let lo = nr.tokens[start].offset;
    let hi = (nr.tokens[last_tok].offset + nr.window).min(series_len);
    (lo < hi).then_some((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use egi_sax::{numerosity_reduce, SaxWord};
    use egi_sequitur::induce;

    /// Builds an NR sequence where token i sits at offset i (no runs).
    fn identity_nr(words: &[u32], window: usize) -> NumerosityReduced {
        numerosity_reduce(
            words
                .iter()
                .map(|&w| SaxWord::from(vec![w as u8, (w >> 8) as u8]))
                .collect(),
            window,
        )
    }

    #[test]
    fn incompressible_gap_has_zero_density() {
        // Section 3.2 pattern with a wide gap: a repeated motif 0,1,2
        // around four unique tokens 9,8,7,6. The rule occurrences cover
        // [offset(0), offset(2)+2) = [0, 4) and [offset(7), offset(9)+2) =
        // [7, 11); the gap interior [4, 7) is covered by no rule.
        let tokens = [0u32, 1, 2, 9, 8, 7, 6, 0, 1, 2];
        let nr = identity_nr(&tokens, 2);
        let g = induce(tokens.iter().copied());
        let curve = RuleDensityCurve::build(&g, &nr, 11);
        assert_eq!(curve.len(), 11);
        for t in 4..7 {
            assert_eq!(curve.values[t], 0.0, "gap point {t}: {:?}", curve.values);
        }
        assert!(curve.values[0] > 0.0);
        assert!(curve.values[10] > 0.0);
    }

    #[test]
    fn fully_repetitive_sequence_is_fully_covered() {
        let tokens: Vec<u32> = std::iter::repeat_n([0u32, 1], 10).flatten().collect();
        let nr = identity_nr(&tokens, 3);
        let g = induce(tokens.iter().copied());
        let curve = RuleDensityCurve::build(&g, &nr, tokens.len() + 2);
        // Every point inside the covered range has positive density.
        let interior = &curve.values[1..curve.len() - 1];
        assert!(
            interior.iter().all(|&v| v > 0.0),
            "gaps in repetitive coverage: {:?}",
            curve.values
        );
    }

    #[test]
    fn no_rules_means_flat_zero_curve() {
        let tokens = [0u32, 1, 2, 3, 4];
        let nr = identity_nr(&tokens, 2);
        let g = induce(tokens.iter().copied());
        let curve = RuleDensityCurve::build(&g, &nr, 6);
        assert!(curve.values.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn normalize_by_max_keeps_zeros() {
        let mut curve = RuleDensityCurve {
            values: vec![0.0, 2.0, 4.0, 0.0],
        };
        curve.normalize_by_max();
        assert_eq!(curve.values, vec![0.0, 0.5, 1.0, 0.0]);
    }

    #[test]
    fn normalize_flat_zero_is_noop() {
        let mut curve = RuleDensityCurve {
            values: vec![0.0; 4],
        };
        curve.normalize_by_max();
        assert_eq!(curve.values, vec![0.0; 4]);
    }

    #[test]
    fn offsets_shift_coverage() {
        // Two tokens with a run: ba,ba,ba,dc → NR ba@0, dc@3. Rules: none
        // (no repeats), so zero curve; but with repeats the offsets matter.
        let words = vec![
            SaxWord::from(vec![9]),
            SaxWord::from(vec![9]),
            SaxWord::from(vec![9]),
            SaxWord::from(vec![7]),
            SaxWord::from(vec![9]),
            SaxWord::from(vec![9]),
            SaxWord::from(vec![7]),
        ];
        let nr = numerosity_reduce(words, 2);
        // NR tokens: 9@0, 7@3, 9@4, 7@6 → interned 0,1,0,1.
        let tokens = crate::intern::intern_tokens(&nr);
        assert_eq!(tokens, vec![0, 1, 0, 1]);
        let g = induce(tokens);
        let curve = RuleDensityCurve::build(&g, &nr, 8);
        // Rule (0,1) occurs at token spans [0,2) → series [0, 3+2=5) and
        // [2,4) → series [4, 6+2=8).
        assert!(curve.values[0] > 0.0);
        assert!(curve.values[7] > 0.0);
    }

    #[test]
    fn edge_correction_flattens_uniform_coverage() {
        // A single rule covering every window of a length-10 series with
        // window 3 produces the classic ramp 1,2,3,3,...,3,2,1 (scaled).
        // After correction the curve must be flat.
        let n = 10;
        let window = 3;
        let mut values = vec![0.0; n];
        for (t, v) in values.iter_mut().enumerate() {
            let covering = (t + 1).min(window).min(n - t).min(n - window + 1);
            *v = covering as f64;
        }
        let mut curve = RuleDensityCurve { values };
        curve.correct_edge_coverage(window);
        let first = curve.values[0];
        assert!(
            curve.values.iter().all(|&v| (v - first).abs() < 1e-9),
            "not flat: {:?}",
            curve.values
        );
    }

    #[test]
    fn edge_correction_keeps_zeros_zero() {
        let mut curve = RuleDensityCurve {
            values: vec![0.0, 2.0, 0.0, 2.0, 0.0],
        };
        curve.correct_edge_coverage(2);
        assert_eq!(curve.values[0], 0.0);
        assert_eq!(curve.values[2], 0.0);
        assert_eq!(curve.values[4], 0.0);
    }

    #[test]
    fn edge_correction_degenerate_inputs() {
        let mut empty = RuleDensityCurve { values: vec![] };
        empty.correct_edge_coverage(4);
        assert!(empty.is_empty());
        let mut c = RuleDensityCurve {
            values: vec![1.0, 1.0],
        };
        c.correct_edge_coverage(0);
        assert_eq!(c.values, vec![1.0, 1.0]);
    }

    // ------------------------------------------------------------------
    // Boundary-handling regression tests: first/last window, no
    // occurrences, and the short-series regimes of the edge correction.
    // ------------------------------------------------------------------

    #[test]
    fn from_occurrences_with_no_occurrences_is_flat_zero() {
        let nr = identity_nr(&[0, 1, 2], 2);
        let curve = RuleDensityCurve::from_occurrences(&[], &nr, 4);
        assert_eq!(curve.values, vec![0.0; 4]);
    }

    /// The curve is built in its own difference array: one buffer of
    /// `series_len + 1` entries, the end mark cut off.
    #[test]
    fn from_occurrences_builds_the_curve_in_its_difference_array() {
        let nr = identity_nr(&[7, 8, 7, 8, 7, 8], 3);
        let occ = [
            egi_sequitur::RuleOccurrence {
                rule: 1,
                start: 0,
                len: 2,
            },
            egi_sequitur::RuleOccurrence {
                rule: 1,
                start: 4,
                len: 2,
            },
        ];
        // [0, 4) and [4, 8): the second reaches the series' end.
        let curve = RuleDensityCurve::from_occurrences(&occ, &nr, 8);
        assert_eq!(curve.values, vec![1.0; 8]);
        assert_eq!(curve.values.capacity(), 9);
    }

    #[test]
    fn build_clamps_last_window_to_series_len() {
        // A trailing occurrence whose last window extends past the end
        // of the series (offset + window > series_len) must be clipped,
        // not written out of bounds or wrapped.
        let nr = identity_nr(&[4, 5, 4, 5], 4); // offsets 0..=3, window 4
        let occ = [egi_sequitur::RuleOccurrence {
            rule: 1,
            start: 2,
            len: 2,
        }];
        // Token 3 sits at offset 3; its window would cover [3, 7) but
        // the series has only 5 points.
        let curve = RuleDensityCurve::from_occurrences(&occ, &nr, 5);
        assert_eq!(curve.values, vec![0.0, 0.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn build_covers_first_window_from_point_zero() {
        let nr = identity_nr(&[7, 8, 7, 8], 3);
        let occ = [egi_sequitur::RuleOccurrence {
            rule: 1,
            start: 0,
            len: 2,
        }];
        // Covers [offset(0), offset(1) + 3) = [0, 4).
        let curve = RuleDensityCurve::from_occurrences(&occ, &nr, 6);
        assert_eq!(curve.values, vec![1.0, 1.0, 1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn edge_correction_single_window_series_is_noop() {
        // n == window: exactly one window exists, every point is
        // covered by it, so there is no attenuation to correct.
        let mut curve = RuleDensityCurve {
            values: vec![2.0; 5],
        };
        curve.correct_edge_coverage(5);
        assert_eq!(curve.values, vec![2.0; 5]);
    }

    #[test]
    fn edge_correction_window_longer_than_series_is_noop() {
        // window > n: no sliding window fits, so the curve (all zeros
        // in practice) must pass through unchanged — in particular no
        // division blow-up from the max_windows = 1 clamp.
        let mut curve = RuleDensityCurve {
            values: vec![3.0, 1.0, 2.0],
        };
        curve.correct_edge_coverage(7);
        assert_eq!(curve.values, vec![3.0, 1.0, 2.0]);
    }

    #[test]
    fn edge_correction_window_one_is_noop() {
        // window == 1: every point lies in exactly one window; the
        // ramp is already flat.
        let mut curve = RuleDensityCurve {
            values: vec![1.0, 4.0, 2.0],
        };
        curve.correct_edge_coverage(1);
        assert_eq!(curve.values, vec![1.0, 4.0, 2.0]);
    }

    #[test]
    fn edge_correction_flattens_short_series_regime() {
        // window ≤ n < 2·window − 1: the interior plateau is capped by
        // max_windows = n − window + 1 rather than by window, the case
        // the `.min(max_windows)` terms exist for. Uniform coverage
        // must still flatten exactly.
        let n = 6;
        let window = 4; // max_windows = 3 < window
        let mut values = vec![0.0; n];
        for (t, v) in values.iter_mut().enumerate() {
            *v = (t + 1).min(window).min(n - t).min(n - window + 1) as f64;
        }
        assert_eq!(values, vec![1.0, 2.0, 3.0, 3.0, 2.0, 1.0]);
        let mut curve = RuleDensityCurve { values };
        curve.correct_edge_coverage(window);
        let first = curve.values[0];
        assert!(
            curve.values.iter().all(|&v| (v - first).abs() < 1e-9),
            "not flat: {:?}",
            curve.values
        );
    }

    // ------------------------------------------------------------------
    // fold_deltas: the incremental counterpart of from_occurrences.
    // The cross-layer differential (deltas from a live engine vs
    // rebuilds, under full schedules) lives in
    // tests/density_delta_proptests.rs; these pin the interval mapping
    // edges bit-for-bit.
    // ------------------------------------------------------------------

    fn span(start: usize, len: usize, created: bool) -> egi_sequitur::OccDelta {
        egi_sequitur::OccDelta {
            start,
            len,
            created,
        }
    }

    /// Bit patterns of a curve, so equality means bit-identical.
    fn bits(curve: &RuleDensityCurve) -> Vec<u64> {
        curve.values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn fold_deltas_matches_from_occurrences_per_push() {
        // Drive a delta-tracking engine over an interned token stream;
        // after every push the delta-maintained curve must equal the
        // from-scratch rebuild bit-for-bit.
        let tokens: Vec<u32> = (0..160).map(|i| ((i * 13) % 9) as u32).collect();
        let nr = identity_nr(&tokens, 3);
        let series_len = tokens.len() + 2;
        let ids = crate::intern::intern_tokens(&nr);
        let mut seq = egi_sequitur::Sequitur::new();
        seq.set_delta_tracking(true);
        let mut curve = RuleDensityCurve {
            values: vec![0.0; series_len],
        };
        for (i, &id) in ids.iter().enumerate() {
            seq.push(id);
            curve.fold_deltas(&seq.take_deltas(), &nr);
            let rebuilt = RuleDensityCurve::from_occurrences(&seq.occurrences(), &nr, series_len);
            assert_eq!(bits(&curve), bits(&rebuilt), "after push {i}");
        }
    }

    #[test]
    fn fold_deltas_clamps_last_window_to_series_len() {
        // Mirror of build_clamps_last_window_to_series_len: a span whose
        // last window extends past the series end is clipped.
        let nr = identity_nr(&[4, 5, 4, 5], 4); // offsets 0..=3, window 4
        let mut curve = RuleDensityCurve {
            values: vec![0.0; 5],
        };
        assert_eq!(curve.fold_deltas(&[span(2, 2, true)], &nr), 3);
        assert_eq!(curve.values, vec![0.0, 0.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn fold_deltas_covers_first_window_from_point_zero() {
        let nr = identity_nr(&[7, 8, 7, 8], 3);
        let mut curve = RuleDensityCurve {
            values: vec![0.0; 6],
        };
        assert_eq!(curve.fold_deltas(&[span(0, 2, true)], &nr), 4);
        assert_eq!(curve.values, vec![1.0, 1.0, 1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn fold_deltas_destroy_cancels_create_exactly() {
        // A created span later destroyed must restore the previous
        // curve bit-for-bit (exact integer adds commute and cancel).
        let nr = identity_nr(&[1, 2, 1, 2, 3], 2);
        let mut curve = RuleDensityCurve {
            values: vec![0.0, 1.0, 2.0, 1.0, 0.0, 1.0],
        };
        let before = curve.clone();
        curve.fold_deltas(&[span(1, 3, true)], &nr);
        assert_ne!(curve, before);
        curve.fold_deltas(&[span(1, 3, false)], &nr);
        assert_eq!(bits(&curve), bits(&before));
    }

    #[test]
    fn fold_deltas_create_and_destroy_in_one_batch_cancel() {
        // The same span created and destroyed inside one batch nets to
        // zero in the difference array; the pass over its hull adds
        // exact zeros, leaving every bit as it was.
        let nr = identity_nr(&[1, 2, 1, 2, 3], 2);
        let mut curve = RuleDensityCurve {
            values: vec![0.0, 1.0, 2.0, 1.0, 0.0, 1.0],
        };
        let before = bits(&curve);
        let written = curve.fold_deltas(&[span(1, 3, true), span(1, 3, false)], &nr);
        assert_eq!(written, 4, "the hull [1, 5) is passed over once");
        assert_eq!(bits(&curve), before);
    }

    #[test]
    fn fold_deltas_empty_batch_writes_nothing() {
        let nr = identity_nr(&[1, 2, 1, 2], 2);
        let mut curve = RuleDensityCurve {
            values: vec![3.0, 1.0, 2.0, 0.0, 1.0],
        };
        let before = bits(&curve);
        assert_eq!(curve.fold_deltas(&[], &nr), 0);
        assert_eq!(bits(&curve), before);
    }

    #[test]
    fn fold_deltas_reach_the_first_and_last_curve_points() {
        // Offsets 0..=5 with window 2 over a 7-point series: token 0
        // covers [0, 2) and token 5 covers [5, 7), so one batch holding
        // a span at each end writes the hull [0, 7) and moves exactly
        // the end points — the difference array's last slot (at the
        // curve length) absorbs the closing -1 of the right span.
        let nr = identity_nr(&[1, 2, 3, 4, 5, 6], 2);
        let mut curve = RuleDensityCurve {
            values: vec![1.0; 7],
        };
        let written = curve.fold_deltas(&[span(0, 1, false), span(5, 1, true)], &nr);
        assert_eq!(written, 7);
        assert_eq!(curve.values, vec![0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 2.0]);
    }
}
