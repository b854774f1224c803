//! HOTSAX — heuristic discord discovery (Keogh et al. 2005, the paper's
//! reference \[9\]).
//!
//! Finds the top-1 discord without computing the full matrix profile:
//! candidate windows are visited in ascending SAX-bucket frequency (rare
//! words first — likely discords), and each candidate's nearest-neighbor
//! search visits same-bucket windows first (likely close — early abandon
//! fast). The search is exact: pruning only skips pairs that provably
//! cannot change the result.

use egi_sax::{BreakpointTable, SaxConfig, SaxWord};
use rustc_hash::FxHashMap;

use crate::dist::WindowStats;
use crate::profile::Discord;
use crate::streaming::pseudo_random_order;

/// Early-abandoning z-normalized distance between windows `i` and `j`.
/// Returns `None` as soon as the distance provably reaches `best` —
/// uniformly across all three branches: a flat-flat pair (exact 0.0), a
/// flat/non-flat pair (exact `√(2m)`), and the general accumulation
/// loop all honor the same `d < best ⇔ Some` contract.
fn znorm_dist_early_abandon(
    series: &[f64],
    ws: &WindowStats,
    i: usize,
    j: usize,
    best: f64,
) -> Option<f64> {
    let m = ws.m;
    if ws.flat[i] && ws.flat[j] {
        return if 0.0 < best { Some(0.0) } else { None };
    }
    if ws.flat[i] || ws.flat[j] {
        let d = (2.0 * m as f64).sqrt();
        return if d < best { Some(d) } else { None };
    }
    // z = (x − μ)/σ with σ = ‖x − μ‖/√m, the population deviation.
    let root_m = (m as f64).sqrt();
    let (mi, si) = (ws.mu[i], ws.inv_norm[i] * root_m);
    let (mj, sj) = (ws.mu[j], ws.inv_norm[j] * root_m);
    let limit = best * best;
    let mut acc = 0.0;
    for k in 0..m {
        let x = (series[i + k] - mi) * si;
        let y = (series[j + k] - mj) * sj;
        let d = x - y;
        acc += d * d;
        if acc >= limit {
            return None;
        }
    }
    Some(acc.sqrt())
}

/// Finds the top-1 discord of `series` for window length `m` using the
/// HOTSAX heuristic. `sax` controls the bucketing resolution (the classic
/// choice is `w = 3, a = 3`). Returns `None` when fewer than two
/// non-overlapping windows exist.
///
/// The non-self-match convention follows the discord definition:
/// neighbors must satisfy `|i − j| ≥ m`.
pub fn hotsax_discord(series: &[f64], m: usize, sax: SaxConfig) -> Option<Discord> {
    hotsax_discord_masked(series, m, sax, &[])
}

/// Finds the top-`k` non-overlapping discords by repeated masked search.
///
/// After each discovery the found interval is masked (its windows can no
/// longer be *candidates*, though they remain valid as neighbors), and the
/// search reruns. `O(k)` HOTSAX passes — still far below the quadratic
/// matrix profile when `k` is small and the data is well-bucketed.
pub fn hotsax_discords(series: &[f64], m: usize, sax: SaxConfig, k: usize) -> Vec<Discord> {
    let mut found: Vec<Discord> = Vec::with_capacity(k);
    for _ in 0..k {
        let best = hotsax_discord_masked(series, m, sax, &found);
        match best {
            Some(d) => found.push(d),
            None => break,
        }
    }
    found
}

/// One HOTSAX pass skipping candidates that overlap `masked` intervals
/// (the shared search body; [`hotsax_discord`] is the empty-mask case).
fn hotsax_discord_masked(
    series: &[f64],
    m: usize,
    sax: SaxConfig,
    masked: &[Discord],
) -> Option<Discord> {
    let n = series.len();
    if m == 0 || n < 2 * m {
        return None;
    }
    let ws = WindowStats::new(series, m);
    let count = ws.count();
    let is_masked = |i: usize| {
        masked
            .iter()
            .any(|d| egi_tskit::window::intervals_overlap(d.start, d.len, i, m))
    };

    // SAX-bucket every window (direct PAA per window is fine here: this
    // runs once, and HOTSAX's value is the search-order heuristic).
    let table = BreakpointTable::new(sax.a);
    let words: Vec<SaxWord> = (0..count)
        .map(|i| egi_sax::sax_word(&series[i..i + m], sax, &table))
        .collect();
    let mut buckets: FxHashMap<SaxWord, Vec<usize>> = FxHashMap::default();
    for (i, &word) in words.iter().enumerate() {
        buckets.entry(word).or_default().push(i);
    }

    // Outer order: ascending bucket frequency, then position.
    let mut outer: Vec<usize> = (0..count).filter(|&i| !is_masked(i)).collect();
    outer.sort_by_key(|&i| (buckets[&words[i]].len(), i));
    let random_order = pseudo_random_order(count, 0xD15C0BD);

    let mut best = Discord {
        start: 0,
        len: m,
        distance: -1.0,
    };
    let mut any = false;
    for &i in &outer {
        let mut nn = f64::INFINITY;
        let mut abandoned = false;
        // Same-bucket neighbors first (likely close — early abandon
        // fast), then everything else in pseudo-random order. The
        // second pass must *skip* same-bucket windows: they were
        // already visited, and re-measuring every one of them doubled
        // the inner-loop work on series dominated by one bucket.
        let same = buckets[&words[i]].iter().copied();
        let rest = random_order
            .iter()
            .copied()
            .filter(|&j| words[j] != words[i]);
        for j in same.chain(rest) {
            if i.abs_diff(j) < m {
                continue;
            }
            if let Some(d) = znorm_dist_early_abandon(series, &ws, i, j, nn) {
                if d < nn {
                    nn = d;
                }
            }
            // If the nearest neighbor is already closer than the best
            // discord distance, i cannot be the discord.
            if nn <= best.distance {
                abandoned = true;
                break;
            }
        }
        if !abandoned && nn.is_finite() && nn > best.distance {
            best = Discord {
                start: i,
                len: m,
                distance: nn,
            };
            any = true;
        }
    }
    if any {
        Some(best)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stomp::stomp_with_exclusion;

    fn periodic_with_outlier(n: usize, period: usize) -> Vec<f64> {
        let mut s: Vec<f64> = (0..n)
            .map(|i| (i as f64 * std::f64::consts::TAU / period as f64).sin())
            .collect();
        let at = n / 2;
        for v in s[at..at + period].iter_mut() {
            *v = v.abs() * 0.3 + 0.4;
        }
        s
    }

    #[test]
    fn finds_planted_discord() {
        let period = 25;
        let series = periodic_with_outlier(500, period);
        let d = hotsax_discord(&series, period, SaxConfig::new(3, 3)).expect("discord");
        assert!(
            (250 - period..=250 + period).contains(&d.start),
            "discord at {}",
            d.start
        );
    }

    /// The SAX configuration steers only the search order. `(14, 26)`
    /// and `(16, 26)` have more words than a `u64` can number, so their
    /// buckets must be keyed by the word itself.
    #[test]
    fn agrees_with_matrix_profile_discord() {
        let series = periodic_with_outlier(400, 20);
        let m = 20;
        let mp = stomp_with_exclusion(&series, m, m - 1);
        let top = mp.discords(1)[0];
        for (w, a) in [(3, 3), (14, 26), (16, 26)] {
            let hs = hotsax_discord(&series, m, SaxConfig::new(w, a)).unwrap();
            assert!(
                (hs.distance - top.distance).abs() < 1e-6,
                "(w={w}, a={a}): HOTSAX {} vs STOMP {}",
                hs.distance,
                top.distance
            );
        }
        // Positions may differ among ties; distances must match.
    }

    #[test]
    fn too_short_series_returns_none() {
        assert!(hotsax_discord(&[1.0; 30], 20, SaxConfig::new(3, 3)).is_none());
        assert!(hotsax_discord(&[], 4, SaxConfig::new(3, 3)).is_none());
    }

    #[test]
    fn top_k_discords_are_non_overlapping_and_descending() {
        let mut series = periodic_with_outlier(600, 30);
        // Add a second, milder outlier in the first half.
        for (off, v) in series[120..150].iter_mut().enumerate() {
            *v += 0.3 * ((off as f64) / 30.0);
        }
        let ds = crate::hotsax::hotsax_discords(&series, 30, SaxConfig::new(3, 3), 3);
        assert!(ds.len() >= 2, "found {}", ds.len());
        for pair in ds.windows(2) {
            assert!(pair[0].distance >= pair[1].distance - 1e-9);
        }
        for i in 0..ds.len() {
            for j in i + 1..ds.len() {
                assert!(
                    !egi_tskit::window::intervals_overlap(
                        ds[i].start,
                        ds[i].len,
                        ds[j].start,
                        ds[j].len
                    ),
                    "{:?} overlaps {:?}",
                    ds[i],
                    ds[j]
                );
            }
        }
        // Top discord matches the single-discord search.
        let top = hotsax_discord(&series, 30, SaxConfig::new(3, 3)).unwrap();
        assert!((ds[0].distance - top.distance).abs() < 1e-9);
    }

    /// Top-`k` HOTSAX reports the distances of the matrix profile's
    /// top-`k` non-overlapping discords, at a coarse SAX resolution and
    /// at one whose words outnumber a `u64`.
    #[test]
    fn top_k_agrees_with_matrix_profile_discords() {
        let mut series = periodic_with_outlier(600, 30);
        for (off, v) in series[120..150].iter_mut().enumerate() {
            *v += 0.3 * ((off as f64) / 30.0);
        }
        let m = 30;
        let top = stomp_with_exclusion(&series, m, m - 1).discords(3);
        for (w, a) in [(3, 3), (16, 26)] {
            let ds = crate::hotsax::hotsax_discords(&series, m, SaxConfig::new(w, a), 3);
            assert_eq!(ds.len(), top.len());
            for (h, t) in ds.iter().zip(&top) {
                assert!(
                    (h.distance - t.distance).abs() < 1e-6,
                    "(w={w}, a={a}): HOTSAX {h:?} vs STOMP {t:?}"
                );
            }
        }
    }

    /// Masking found discords leaves candidates to search only while
    /// some window does not overlap them; then the top-`k` search stops
    /// short of `k`.
    #[test]
    fn top_k_stops_when_no_candidate_remains() {
        let series = periodic_with_outlier(100, 20);
        let sax = SaxConfig::new(3, 3);
        let ds = crate::hotsax::hotsax_discords(&series, 20, sax, 10);
        assert!(!ds.is_empty() && ds.len() < 10, "found {}", ds.len());
        assert_eq!(super::hotsax_discord_masked(&series, 20, sax, &ds), None);
    }

    #[test]
    fn top_k_with_k_zero_is_empty() {
        let series = periodic_with_outlier(300, 20);
        assert!(crate::hotsax::hotsax_discords(&series, 20, SaxConfig::new(3, 3), 0).is_empty());
    }

    /// The second (random-order) pass must skip same-bucket windows —
    /// already visited in the first pass — without changing the result.
    #[test]
    fn masked_delegate_and_skip_preserve_results() {
        let series = periodic_with_outlier(400, 20);
        let hs = hotsax_discord(&series, 20, SaxConfig::new(3, 3)).unwrap();
        let masked_empty = super::hotsax_discord_masked(&series, 20, SaxConfig::new(3, 3), &[]);
        assert_eq!(Some(hs), masked_empty);
    }

    /// All three early-abandon branches honor the `d < best ⇔ Some`
    /// contract, including the flat-flat branch that used to return
    /// `Some(0.0)` even when `best` was already 0.
    #[test]
    fn early_abandon_honors_threshold_in_flat_branches() {
        let mut series = vec![2.0; 10];
        series.extend((0..10).map(|i| (i as f64 * 0.8).sin()));
        series.extend(vec![5.0; 10]);
        let ws = WindowStats::new(&series, 10);
        // Windows 0 and 20 are both flat: distance exactly 0.0.
        assert_eq!(
            znorm_dist_early_abandon(&series, &ws, 0, 20, 1.0),
            Some(0.0)
        );
        assert_eq!(znorm_dist_early_abandon(&series, &ws, 0, 20, 0.0), None);
        // Flat vs wavy: exactly √(2m).
        let d = (2.0f64 * 10.0).sqrt();
        assert_eq!(
            znorm_dist_early_abandon(&series, &ws, 0, 10, d + 1e-9),
            Some(d)
        );
        assert_eq!(znorm_dist_early_abandon(&series, &ws, 0, 10, d), None);
        // General branch (windows 10 and 11 are both non-flat):
        // abandons once the accumulated sum reaches best².
        let full = znorm_dist_early_abandon(&series, &ws, 10, 11, f64::INFINITY).unwrap();
        assert!(full > 0.0);
        assert_eq!(
            znorm_dist_early_abandon(&series, &ws, 10, 11, full * 0.5),
            None
        );
        assert_eq!(
            znorm_dist_early_abandon(&series, &ws, 10, 11, full + 1e-9),
            Some(full)
        );
    }
}
