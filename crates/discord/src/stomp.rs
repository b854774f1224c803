//! The matrix-profile kernel, and STOMP — its diagonal-parallel batch
//! form (Zhu et al., "Matrix Profile II", the paper's reference \[23\]
//! and the Discord baseline used throughout its evaluation).
//!
//! The kernel walks the distance matrix by **diagonals**. Along
//! diagonal `k` (all cells `(i, i + k)`) it carries the *centered*
//! covariance `c(i, j) = Σ (x_i − μ_i)(x_j − μ_j)` from one cell to the
//! next with MPX's update (Zimmerman et al., "Matrix Profile XIV",
//! SoCC 2019):
//!
//! ```text
//! c(i+1, j+1) = c(i, j) + df[i]·dg[j] + df[j]·dg[i]
//! ```
//!
//! where `df` and `dg` are per-slide terms of [`WindowStats`]. Each
//! diagonal is seeded with a direct centered dot product at its first
//! row, and the window statistics are computed directly over each
//! window's own points. Every cell is therefore a function of the
//! points it spans and of the diagonal's first window — never of the
//! series length or a worker count. Centering also
//! keeps the arithmetic on the scale of the signal rather than of its
//! offset, so a series shifted by a large constant keeps its profile.
//!
//! Each cell folds into both of its ends under the shared
//! `(distance, index)` rule ([`improves`]). Because that fold is
//! commutative and associative, any split of the diagonals — chunks on
//! rayon workers here, seeded runs of diagonals in the streaming monitor
//! ([`crate::streaming`]), one append's new cells at a time — lands on
//! the same profile and index vectors, **bit for bit**.

use crate::dist::{distance, WindowStats};
use crate::profile::{improves, merge_min_into, MatrixProfile};
use rayon::prelude::*;

/// Default exclusion half-width: `m/2`, the usual matrix profile
/// convention (trivial matches share more than half their points).
pub fn default_exclusion(m: usize) -> usize {
    (m / 2).max(1)
}

/// How far the kernel has walked one diagonal: the row of its next
/// cell, and the centered covariance of the cell before it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Diagonal {
    /// Row of the next cell to compute; 0 before the seed.
    pub(crate) next: usize,
    /// Centered covariance of cell `next − 1`.
    pub(crate) cov: f64,
}

/// Computes the cells of diagonal `k` from row `diagonal.next` up to
/// (not including) row `end`, folding each into `profile` and `index`,
/// and advances `diagonal` past them. Returns how many cells it
/// computed; every one is counted in `egi_discord_cells_total`.
pub(crate) fn walk(
    series: &[f64],
    ws: &WindowStats,
    k: usize,
    diagonal: &mut Diagonal,
    end: usize,
    profile: &mut [f64],
    index: &mut [usize],
) -> usize {
    let start = diagonal.next;
    if start >= end {
        return 0;
    }
    let mut cov = diagonal.cov;
    let mut row = start;
    if row == 0 {
        cov = ws.centered_dot(series, 0, k);
        fold(ws.dist(0, k, cov), 0, k, profile, index);
        row = 1;
    }
    // Both ends' window stats and the slides into them, sliced once
    // so the loop indexes without bounds checks.
    let (rows, cols) = (row..end, row + k..end + k);
    let (flat_i, flat_j) = (&ws.flat[rows.clone()], &ws.flat[cols.clone()]);
    let (inv_i, inv_j) = (&ws.inv_norm[rows.clone()], &ws.inv_norm[cols.clone()]);
    let (df_i, dg_i) = (&ws.df[row - 1..end - 1], &ws.dg[row - 1..end - 1]);
    let (df_j, dg_j) = (
        &ws.df[cols.start - 1..cols.end - 1],
        &ws.dg[cols.start - 1..cols.end - 1],
    );
    for (t, i) in rows.enumerate() {
        cov += df_i[t] * dg_j[t] + df_j[t] * dg_i[t];
        let d = distance(ws.m, (flat_i[t], flat_j[t]), (inv_i[t], inv_j[t]), cov);
        fold(d, i, i + k, profile, index);
    }
    *diagonal = Diagonal { next: end, cov };
    egi_obs::counter!("egi_discord_cells_total").add((end - start) as u64);
    end - start
}

/// Folds cell `(i, j)` at distance `d` into both of its ends.
#[inline]
fn fold(d: f64, i: usize, j: usize, profile: &mut [f64], index: &mut [usize]) {
    if improves(d, j, profile[i], index[i]) {
        profile[i] = d;
        index[i] = j;
    }
    if improves(d, i, profile[j], index[j]) {
        profile[j] = d;
        index[j] = i;
    }
}

/// Walks every listed diagonal `(k, progress)` to its last row, folding
/// the cells into `profile` and `index`, and returns the diagonals with
/// their progress advanced.
///
/// With more than one rayon worker and more than one diagonal, the
/// diagonals are cut into one chunk per worker holding about equal
/// numbers of cells. Each worker folds its chunk into a partial profile,
/// and the partials merge under [`merge_min_into`], so the result is
/// bit-identical for every worker count.
pub(crate) fn walk_all(
    series: &[f64],
    ws: &WindowStats,
    mut diagonals: Vec<(usize, Diagonal)>,
    profile: &mut [f64],
    index: &mut [usize],
) -> Vec<(usize, Diagonal)> {
    let count = ws.count();
    let threads = rayon::current_num_threads();
    if threads <= 1 || diagonals.len() <= 1 {
        for (k, diagonal) in &mut diagonals {
            walk(series, ws, *k, diagonal, count - *k, profile, index);
        }
        return diagonals;
    }
    let cells = |(k, d): &(usize, Diagonal)| count - k - d.next;
    let per_chunk = diagonals.iter().map(cells).sum::<usize>().div_ceil(threads);
    let mut chunks: Vec<Vec<(usize, Diagonal)>> = vec![Vec::new()];
    let mut acc = 0;
    for diagonal in diagonals {
        if acc >= per_chunk {
            chunks.push(Vec::new());
            acc = 0;
        }
        acc += cells(&diagonal);
        chunks
            .last_mut()
            .expect("one chunk at least")
            .push(diagonal);
    }
    let partials: Vec<_> = chunks
        .into_par_iter()
        .map(|mut chunk| {
            let mut local_profile = vec![f64::INFINITY; count];
            let mut local_index = vec![usize::MAX; count];
            for (k, diagonal) in &mut chunk {
                walk(
                    series,
                    ws,
                    *k,
                    diagonal,
                    count - *k,
                    &mut local_profile,
                    &mut local_index,
                );
            }
            (local_profile, local_index, chunk)
        })
        .collect();
    let mut walked = Vec::new();
    for (local_profile, local_index, chunk) in partials {
        merge_min_into(profile, index, &local_profile, &local_index);
        walked.extend(chunk);
    }
    walked
}

/// Computes the matrix profile of `series` for window length `m` with
/// exclusion half-width `exclusion`: every admissible diagonal walked
/// from its seed to its end by the kernel, across rayon workers.
///
/// The worker count follows rayon's current configuration
/// (`ThreadPoolBuilder::install` / `RAYON_NUM_THREADS`); results are
/// identical for every worker count, and identical to what a
/// [`StreamingDiscordMonitor`](crate::StreamingDiscordMonitor) holding
/// the same series finishes on.
///
/// # Panics
///
/// Panics if `m == 0` or `m > series.len()`.
pub fn stomp_with_exclusion(series: &[f64], m: usize, exclusion: usize) -> MatrixProfile {
    let ws = WindowStats::new(series, m);
    let count = ws.count();
    let mut profile = vec![f64::INFINITY; count];
    let mut index = vec![usize::MAX; count];
    // Diagonals 0..=exclusion hold only self-matches.
    let diagonals = (exclusion.saturating_add(1)..count)
        .map(|k| (k, Diagonal::default()))
        .collect();
    walk_all(series, &ws, diagonals, &mut profile, &mut index);
    MatrixProfile {
        m,
        exclusion,
        profile,
        index,
    }
}

/// STOMP with the default `m/2` exclusion zone.
pub fn stomp(series: &[f64], m: usize) -> MatrixProfile {
    stomp_with_exclusion(series, m, default_exclusion(m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force;

    fn test_series(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                (t * 0.31).sin() * 2.0 + (t * 0.057).cos() + ((i * 7919) % 13) as f64 * 0.05
            })
            .collect()
    }

    #[test]
    fn matches_brute_force_exactly_enough() {
        let series = test_series(150);
        for &m in &[5usize, 8, 16] {
            let exc = m - 1;
            let fast = stomp_with_exclusion(&series, m, exc);
            let slow = brute_force(&series, m, exc);
            assert_eq!(fast.len(), slow.len());
            for i in 0..fast.len() {
                assert!(
                    (fast.profile[i] - slow.profile[i]).abs() < 1e-9,
                    "m={m} i={i}: {} vs {}",
                    fast.profile[i],
                    slow.profile[i]
                );
            }
        }
    }

    #[test]
    fn discord_found_on_planted_anomaly() {
        let mut series: Vec<f64> = (0..300)
            .map(|i| (i as f64 * std::f64::consts::TAU / 30.0).sin())
            .collect();
        // Corrupt one period.
        for v in series[150..180].iter_mut() {
            *v = 0.2;
        }
        let mp = stomp(&series, 30);
        let top = mp.discords(1)[0];
        assert!((120..=180).contains(&top.start), "discord at {}", top.start);
    }

    #[test]
    fn default_exclusion_sane() {
        assert_eq!(default_exclusion(10), 5);
        assert_eq!(default_exclusion(1), 1);
    }

    #[test]
    fn profile_of_pure_period_is_near_zero() {
        let series: Vec<f64> = (0..240)
            .map(|i| (i as f64 * std::f64::consts::TAU / 24.0).sin())
            .collect();
        let mp = stomp(&series, 24);
        // Every window repeats exactly one period away.
        let max = mp.profile.iter().cloned().fold(0.0, f64::max);
        assert!(max < 1e-4, "max profile {max}");
    }

    #[test]
    fn single_window_series() {
        let series = vec![1.0, 2.0, 3.0];
        let mp = stomp(&series, 3);
        assert_eq!(mp.len(), 1);
        assert!(mp.profile[0].is_infinite());
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let series = test_series(400);
        let m = 12;
        let reference = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(|| stomp_with_exclusion(&series, m, m / 2));
        for threads in [2usize, 3, 8] {
            let run = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| stomp_with_exclusion(&series, m, m / 2));
            assert_eq!(reference.profile, run.profile, "{threads} threads: profile");
            assert_eq!(reference.index, run.index, "{threads} threads: index");
        }
    }

    #[test]
    fn exclusion_wider_than_series_yields_all_infinite() {
        let series = test_series(40);
        for exclusion in [100, usize::MAX] {
            let mp = stomp_with_exclusion(&series, 5, exclusion);
            assert!(mp.profile.iter().all(|d| d.is_infinite()));
            assert!(mp.index.iter().all(|&i| i == usize::MAX));
        }
    }

    /// A diagonal walked in several pieces — as appends extend it —
    /// computes the same cells as one walk from its seed, bit for bit.
    #[test]
    fn a_walk_in_pieces_equals_one_walk() {
        let series = test_series(90);
        let ws = WindowStats::new(&series, 8);
        let (count, k) = (ws.count(), 11);
        let run = |cuts: &[usize]| {
            let mut profile = vec![f64::INFINITY; count];
            let mut index = vec![usize::MAX; count];
            let mut diagonal = Diagonal::default();
            let mut cells = 0;
            for &end in cuts {
                cells += walk(
                    &series,
                    &ws,
                    k,
                    &mut diagonal,
                    end,
                    &mut profile,
                    &mut index,
                );
            }
            (profile, index, diagonal, cells)
        };
        let whole = run(&[count - k]);
        assert_eq!(whole.3, count - k);
        assert_eq!(run(&[1, 2, 30, 30, count - k]), whole);
    }

    #[test]
    fn walk_past_the_end_computes_nothing() {
        let series = test_series(60);
        let ws = WindowStats::new(&series, 6);
        let count = ws.count();
        let mut profile = vec![f64::INFINITY; count];
        let mut index = vec![usize::MAX; count];
        let mut diagonal = Diagonal { next: 5, cov: 1.5 };
        assert_eq!(
            walk(&series, &ws, 9, &mut diagonal, 5, &mut profile, &mut index),
            0
        );
        assert_eq!(
            walk(&series, &ws, 9, &mut diagonal, 3, &mut profile, &mut index),
            0
        );
        assert_eq!(diagonal, Diagonal { next: 5, cov: 1.5 });
        assert!(profile.iter().all(|d| d.is_infinite()));
    }

    /// A diagonal's first cell is seeded with the direct centered dot
    /// product, bit for bit, and every later cell's covariance stays
    /// within rounding of the direct one.
    #[test]
    fn walked_covariance_tracks_the_direct_centered_dot() {
        let series: Vec<f64> = test_series(120).iter().map(|v| v * 30.0 + 500.0).collect();
        let ws = WindowStats::new(&series, 10);
        let count = ws.count();
        let mut profile = vec![f64::INFINITY; count];
        let mut index = vec![usize::MAX; count];
        for k in [6, 40, count - 2] {
            let mut diagonal = Diagonal::default();
            walk(&series, &ws, k, &mut diagonal, 1, &mut profile, &mut index);
            assert_eq!(diagonal.cov, ws.centered_dot(&series, 0, k), "seed of {k}");
            for row in 1..count - k {
                walk(
                    &series,
                    &ws,
                    k,
                    &mut diagonal,
                    row + 1,
                    &mut profile,
                    &mut index,
                );
                let direct = ws.centered_dot(&series, row, row + k);
                assert!(
                    (diagonal.cov - direct).abs() < 1e-9 * (1.0 + direct.abs()),
                    "diagonal {k} row {row}: {} vs {direct}",
                    diagonal.cov
                );
            }
        }
    }

    /// `walk_all` at any worker count folds the same profile, and
    /// leaves every diagonal at its last row with the covariance a
    /// sequential walk reaches, from any partial progress.
    #[test]
    fn walk_all_matches_sequential_walks_at_every_worker_count() {
        let series = test_series(160);
        let ws = WindowStats::new(&series, 9);
        let count = ws.count();
        let mut seeded = vec![f64::INFINITY; count];
        let mut seeded_index = vec![usize::MAX; count];
        let started: Vec<(usize, Diagonal)> = (5..count)
            .map(|k| {
                let mut diagonal = Diagonal::default();
                let part = (k * 7) % (count - k + 1);
                walk(
                    &series,
                    &ws,
                    k,
                    &mut diagonal,
                    part,
                    &mut seeded,
                    &mut seeded_index,
                );
                (k, diagonal)
            })
            .collect();
        let mut expected = (seeded.clone(), seeded_index.clone());
        let mut sequential = started.clone();
        for (k, diagonal) in &mut sequential {
            walk(
                &series,
                &ws,
                *k,
                diagonal,
                count - *k,
                &mut expected.0,
                &mut expected.1,
            );
        }
        for threads in [1usize, 2, 3, 8] {
            let (mut profile, mut index) = (seeded.clone(), seeded_index.clone());
            let mut walked = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| walk_all(&series, &ws, started.clone(), &mut profile, &mut index));
            walked.sort_by_key(|&(k, _)| k);
            assert_eq!(walked, sequential, "{threads} workers: diagonal state");
            assert!(walked.iter().all(|&(k, d)| d.next == count - k));
            assert_eq!((profile, index), expected, "{threads} workers: profile");
        }
    }

    /// Every profile entry cites a neighbor outside the exclusion zone,
    /// at the distance the definition gives that pair.
    #[test]
    fn profile_entries_cite_admissible_neighbors_at_their_distance() {
        let series = test_series(200);
        for (m, exc) in [(7usize, 3usize), (12, 11)] {
            let mp = stomp_with_exclusion(&series, m, exc);
            for (i, (&d, &j)) in mp.profile.iter().zip(&mp.index).enumerate() {
                assert!(i.abs_diff(j) > exc, "m={m} entry {i} cites {j}");
                let direct =
                    crate::brute::znormalized_distance(&series[i..i + m], &series[j..j + m]);
                assert!(
                    (d - direct).abs() < 1e-9,
                    "m={m} entry {i}: {d} vs {direct}"
                );
            }
        }
    }

    /// A constant series is flat everywhere: every window's nearest
    /// neighbor is its first admissible one, at exactly 0.
    #[test]
    fn constant_series_pairs_each_window_with_its_first_admissible_neighbor() {
        let series = vec![4.25; 40];
        let (m, exc) = (6, 3);
        let mp = stomp_with_exclusion(&series, m, exc);
        for i in 0..mp.len() {
            assert_eq!(mp.profile[i], 0.0, "entry {i}");
            let first = if i > exc { 0 } else { i + exc + 1 };
            assert_eq!(mp.index[i], first, "entry {i}");
        }
    }

    /// A flat window's only neighbors are wavy windows here, so its
    /// profile entry is the flat-vs-wavy convention, `√(2m)`.
    #[test]
    fn flat_windows_sit_at_root_2m_from_wavy_windows() {
        let mut series: Vec<f64> = test_series(60);
        series.extend(std::iter::repeat_n(2.0, 8));
        let m = 8;
        let mp = stomp_with_exclusion(&series, m, m / 2);
        let last = mp.len() - 1;
        assert_eq!(mp.profile[last], (2.0 * m as f64).sqrt());
        assert_eq!(mp.index[last], 0, "all wavy neighbors tie; the first wins");
    }

    /// Exact distance ties (flat windows pair at exactly 0.0) resolve
    /// to the smallest admissible neighbor index, per the shared
    /// `improves` rule.
    #[test]
    fn exact_ties_resolve_to_smallest_index() {
        let mut series = Vec::new();
        series.extend(std::iter::repeat_n(1.0, 8));
        series.extend((0..8).map(|i| (i as f64 * 0.9).sin()));
        series.extend(std::iter::repeat_n(5.0, 8));
        series.extend((0..8).map(|i| (i as f64 * 1.3).cos()));
        series.extend(std::iter::repeat_n(2.0, 8));
        let (m, exc) = (4, 2);
        let mp = stomp_with_exclusion(&series, m, exc);
        let ws = WindowStats::new(&series, m);
        let tied: Vec<usize> = (0..mp.len()).filter(|&i| mp.profile[i] == 0.0).collect();
        assert!(tied.len() > 3, "expected several exact ties, got {tied:?}");
        for &i in &tied {
            // No admissible flat partner below the winner ties at 0.0.
            for j in 0..mp.index[i] {
                assert!(
                    i.abs_diff(j) <= exc || !(ws.flat[i] && ws.flat[j]),
                    "window {i}: {j} ties at 0.0 but lost to {}",
                    mp.index[i]
                );
            }
        }
    }
}
