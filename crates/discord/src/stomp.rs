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
//!
//! # Cost model: every cell walked, few cells folded
//!
//! Every cell is *walked*: its covariance is carried one step, which
//! every later cell of its diagonal needs, and its correlation
//! `c = cov·inv_norm[i]·inv_norm[j]` is formed. Only *admitted* cells
//! then pay the square root of the distance and the two
//! compare-and-store folds. The fold stores, next to each entry's
//! `(distance, index)`, the lowest correlation a cell needs to change
//! it:
//!
//! ```text
//! limit(i) = 1 − p_i²/(2m) − δ      (−∞ if window i is flat or p_i = +∞)
//! ```
//!
//! and cell `(i, j)` is admitted iff `max(c, −1) ≥ min(limit(i), limit(j))`.
//! Once the profile has settled, most cells fall below both limits: the
//! streaming fleet benchmark admits about 1.4% of the cells it walks,
//! and batch STOMP over a 20,000-point ECG at `m = 256` about 0.3%.
//!
//! The bound is exact — the admitted cells change the profile exactly as
//! folding every cell would, bit for bit:
//!
//! * the distance `√(2m·(1 − clamp(c, −1, 1)))` never grows with `c`, so
//!   a cell can win entry `i` (`d < p_i`, or `d = p_i` with a smaller
//!   index) only if `clamp(c, −1, 1) ≥ 1 − p_i²/(2m)`, up to that
//!   formula's rounding, which is below 1e-15 in correlation; the margin
//!   `δ` ([`LIMIT_MARGIN`], 1e-9) exceeds it by six orders of magnitude;
//! * `max(c, −1)` admits a correlation rounded below −1, which clamps to
//!   the largest distance, `2√m`;
//! * a flat window's distances ignore `c`, so its limit is −∞ and every
//!   cell it ends is admitted;
//! * `max` maps a NaN correlation to −1; a non-flat pair with a NaN
//!   correlation has a NaN distance, which improves no entry.
//!
//! The limit is derived state: a function of the entry's distance and
//! the window's flatness, rebuilt with the fold and never stored in a
//! checkpoint.

use std::cell::Cell;

use crate::dist::WindowStats;
use crate::profile::{improves, merge_min_into, MatrixProfile};
use rayon::prelude::*;

/// Default exclusion half-width: `m/2`, the usual matrix profile
/// convention (trivial matches share more than half their points).
pub fn default_exclusion(m: usize) -> usize {
    (m / 2).max(1)
}

/// How far below the exact correlation threshold a fold entry's
/// limit sits. The distance formula's rounding moves the threshold by
/// less than 1e-15, so every cell that changes an entry still reaches
/// the limit.
pub const LIMIT_MARGIN: f64 = 1e-9;

/// The lowest correlation a cell needs to change an entry at distance
/// `d`, for window length `m = two_m / 2`: −∞ for a flat window, whose
/// distances ignore the correlation, and for an entry still at `+∞`.
#[inline]
fn limit(two_m: f64, flat: bool, d: f64) -> f64 {
    if flat {
        f64::NEG_INFINITY
    } else {
        1.0 - d * d / two_m - LIMIT_MARGIN
    }
}

/// The fold of computed cells: per window, its best `(distance, index)`
/// so far, and the correlation limit a cell must reach to change it
/// (see the [module docs](self)).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Fold {
    pub(crate) profile: Vec<f64>,
    pub(crate) index: Vec<usize>,
    limit: Vec<f64>,
}

impl Fold {
    /// A fold of `count` windows that no cell has reached.
    pub(crate) fn new(count: usize) -> Self {
        let mut fold = Self::default();
        fold.resize(count);
        fold
    }

    /// Grows or cuts the fold to `count` windows; new windows are
    /// unreached (`+∞`, `usize::MAX`).
    pub(crate) fn resize(&mut self, count: usize) {
        self.profile.resize(count, f64::INFINITY);
        self.index.resize(count, usize::MAX);
        self.limit.resize(count, f64::NEG_INFINITY);
    }

    /// Merges `partials` into the fold under [`merge_min_into`], then
    /// recomputes every limit from the merged distances.
    fn merge(&mut self, ws: &WindowStats, partials: impl IntoIterator<Item = Fold>) {
        for partial in partials {
            merge_min_into(
                &mut self.profile,
                &mut self.index,
                &partial.profile,
                &partial.index,
            );
        }
        let two_m = 2.0 * ws.m as f64;
        for ((limit_i, &d), &flat) in self.limit.iter_mut().zip(&self.profile).zip(&ws.flat) {
            *limit_i = limit(two_m, flat, d);
        }
    }
}

/// Whether a cell at correlation `corr` reaches the lower of its ends'
/// limits `a` and `b`: only such a cell can change either entry.
#[inline]
fn admits(corr: f64, a: f64, b: f64) -> bool {
    // No limit is NaN, so this select is their minimum.
    corr.max(-1.0) >= if a < b { a } else { b }
}

/// Folds cell `(i, j)` with centered covariance `cov` into both of its
/// ends, and recomputes the limit of each end it improves. Kept out of
/// line: the walk calls it only for admitted cells.
#[inline(never)]
fn fold_cell(
    ws: &WindowStats,
    (i, j): (usize, usize),
    cov: f64,
    profile: &mut [f64],
    index: &mut [usize],
    limits: &[Cell<f64>],
) {
    let d = ws.dist(i, j, cov);
    let two_m = 2.0 * ws.m as f64;
    for (end, neighbor) in [(i, j), (j, i)] {
        if improves(d, neighbor, profile[end], index[end]) {
            profile[end] = d;
            index[end] = neighbor;
            limits[end].set(limit(two_m, ws.flat[end], d));
        }
    }
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

/// Walks the cells of diagonal `k` from row `diagonal.next` up to (not
/// including) row `end`, folds each admitted one into `fold`, and
/// advances `diagonal` past them. Returns how many cells it walked.
///
/// Every walked cell costs one covariance update, one correlation and
/// one compare against its ends' limits; only an admitted cell (one
/// whose correlation reaches the lower limit) pays the distance and the
/// fold, and the result is bit-identical to folding every cell (see the
/// [module docs](self)). Each call adds its walked cells to
/// `egi_discord_cells_total` and its admitted cells to
/// `egi_discord_cells_admitted_total`.
pub(crate) fn walk(
    series: &[f64],
    ws: &WindowStats,
    k: usize,
    diagonal: &mut Diagonal,
    end: usize,
    fold: &mut Fold,
) -> usize {
    let start = diagonal.next;
    if start >= end {
        return 0;
    }
    let mut cov = diagonal.cov;
    let mut row = start;
    let mut admitted = 0u64;
    // The limits as cells: the loop reads them pre-sliced while the
    // rare fold writes them.
    let Fold {
        profile,
        index,
        limit,
    } = fold;
    let limits = Cell::from_mut(limit.as_mut_slice()).as_slice_of_cells();
    if row == 0 {
        cov = ws.centered_dot(series, 0, k);
        let corr = cov * ws.inv_norm[0] * ws.inv_norm[k];
        if admits(corr, limits[0].get(), limits[k].get()) {
            fold_cell(ws, (0, k), cov, profile, index, limits);
            admitted += 1;
        }
        row = 1;
    }
    // Both ends' inverse norms, limits and the slides into them, sliced
    // once so the loop indexes without bounds checks.
    let (rows, cols) = (row..end, row + k..end + k);
    let (inv_i, inv_j) = (&ws.inv_norm[rows.clone()], &ws.inv_norm[cols.clone()]);
    let (limit_i, limit_j) = (&limits[rows.clone()], &limits[cols.clone()]);
    let (df_i, dg_i) = (&ws.df[row - 1..end - 1], &ws.dg[row - 1..end - 1]);
    let (df_j, dg_j) = (
        &ws.df[cols.start - 1..cols.end - 1],
        &ws.dg[cols.start - 1..cols.end - 1],
    );
    for (t, i) in rows.enumerate() {
        cov += df_i[t] * dg_j[t] + df_j[t] * dg_i[t];
        let corr = cov * inv_i[t] * inv_j[t];
        if admits(corr, limit_i[t].get(), limit_j[t].get()) {
            fold_cell(ws, (i, i + k), cov, profile, index, limits);
            admitted += 1;
        }
    }
    *diagonal = Diagonal { next: end, cov };
    egi_obs::counter!("egi_discord_cells_total").add((end - start) as u64);
    egi_obs::counter!("egi_discord_cells_admitted_total").add(admitted);
    end - start
}

/// Walks every listed diagonal `(k, progress)` to its last row, folding
/// the cells into `fold`, and returns the diagonals with their progress
/// advanced.
///
/// With more than one rayon worker and more than one diagonal, the
/// diagonals are cut into one chunk per worker holding about equal
/// numbers of cells. Each worker folds its chunk into a copy of `fold`,
/// and the copies merge back under [`merge_min_into`], so the result is
/// bit-identical for every worker count.
pub(crate) fn walk_all(
    series: &[f64],
    ws: &WindowStats,
    mut diagonals: Vec<(usize, Diagonal)>,
    fold: &mut Fold,
) -> Vec<(usize, Diagonal)> {
    let count = ws.count();
    let threads = rayon::current_num_threads();
    if threads <= 1 || diagonals.len() <= 1 {
        for (k, diagonal) in &mut diagonals {
            walk(series, ws, *k, diagonal, count - *k, fold);
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
    // Each worker starts from the fold so far, so its limits prune as
    // the fold's do; merging the fold back into itself changes nothing.
    let start = &*fold;
    let partials: Vec<_> = chunks
        .into_par_iter()
        .map(|mut chunk| {
            let mut partial = start.clone();
            for (k, diagonal) in &mut chunk {
                walk(series, ws, *k, diagonal, count - *k, &mut partial);
            }
            (partial, chunk)
        })
        .collect();
    let (partials, chunks): (Vec<_>, Vec<_>) = partials.into_iter().unzip();
    fold.merge(ws, partials);
    chunks.into_iter().flatten().collect()
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
    let mut fold = Fold::new(count);
    // Diagonals 0..=exclusion hold only self-matches.
    let diagonals = (exclusion.saturating_add(1)..count)
        .map(|k| (k, Diagonal::default()))
        .collect();
    walk_all(series, &ws, diagonals, &mut fold);
    let Fold { profile, index, .. } = fold;
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
    use crate::streaming::pseudo_random_order;

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
            let mut fold = Fold::new(count);
            let mut diagonal = Diagonal::default();
            let mut cells = 0;
            for &end in cuts {
                cells += walk(&series, &ws, k, &mut diagonal, end, &mut fold);
            }
            (fold, diagonal, cells)
        };
        let whole = run(&[count - k]);
        assert_eq!(whole.2, count - k);
        assert_eq!(run(&[1, 2, 30, 30, count - k]), whole);
    }

    #[test]
    fn walk_past_the_end_computes_nothing() {
        let series = test_series(60);
        let ws = WindowStats::new(&series, 6);
        let mut fold = Fold::new(ws.count());
        let mut diagonal = Diagonal { next: 5, cov: 1.5 };
        assert_eq!(walk(&series, &ws, 9, &mut diagonal, 5, &mut fold), 0);
        assert_eq!(walk(&series, &ws, 9, &mut diagonal, 3, &mut fold), 0);
        assert_eq!(diagonal, Diagonal { next: 5, cov: 1.5 });
        assert_eq!(fold, Fold::new(ws.count()));
    }

    /// A diagonal's first cell is seeded with the direct centered dot
    /// product, bit for bit, and every later cell's covariance stays
    /// within rounding of the direct one.
    #[test]
    fn walked_covariance_tracks_the_direct_centered_dot() {
        let series: Vec<f64> = test_series(120).iter().map(|v| v * 30.0 + 500.0).collect();
        let ws = WindowStats::new(&series, 10);
        let count = ws.count();
        let mut fold = Fold::new(count);
        for k in [6, 40, count - 2] {
            let mut diagonal = Diagonal::default();
            walk(&series, &ws, k, &mut diagonal, 1, &mut fold);
            assert_eq!(diagonal.cov, ws.centered_dot(&series, 0, k), "seed of {k}");
            for row in 1..count - k {
                walk(&series, &ws, k, &mut diagonal, row + 1, &mut fold);
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
        let mut seeded = Fold::new(count);
        let started: Vec<(usize, Diagonal)> = (5..count)
            .map(|k| {
                let mut diagonal = Diagonal::default();
                let part = (k * 7) % (count - k + 1);
                walk(&series, &ws, k, &mut diagonal, part, &mut seeded);
                (k, diagonal)
            })
            .collect();
        let mut expected = seeded.clone();
        let mut sequential = started.clone();
        for (k, diagonal) in &mut sequential {
            walk(&series, &ws, *k, diagonal, count - *k, &mut expected);
        }
        for threads in [1usize, 2, 3, 8] {
            let mut fold = seeded.clone();
            let mut walked = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| walk_all(&series, &ws, started.clone(), &mut fold));
            walked.sort_by_key(|&(k, _)| k);
            assert_eq!(walked, sequential, "{threads} workers: diagonal state");
            assert!(walked.iter().all(|&(k, d)| d.next == count - k));
            assert_eq!(fold, expected, "{threads} workers: fold");
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

    /// The walk without the correlation bound: every cell pays the
    /// distance and the fold. The bounded walk must match it bit for
    /// bit.
    fn walk_every_cell(
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
        for i in start..end {
            let j = i + k;
            cov = if i == 0 {
                ws.centered_dot(series, 0, k)
            } else {
                cov + (ws.df[i - 1] * ws.dg[j - 1] + ws.df[j - 1] * ws.dg[i - 1])
            };
            let d = ws.dist(i, j, cov);
            for (end, neighbor) in [(i, j), (j, i)] {
                if improves(d, neighbor, profile[end], index[end]) {
                    profile[end] = d;
                    index[end] = neighbor;
                }
            }
        }
        *diagonal = Diagonal { next: end, cov };
        end - start
    }

    /// Any sequence of walks — a random subset of the diagonals, each
    /// walked in random pieces, the pieces of different diagonals
    /// interleaved — leaves the bounded fold bit-identical to folding
    /// every cell, after every call. The inputs hit the bound's edges:
    /// flat runs, a constant series (exact ties at 0, every limit −∞),
    /// windows next to their own negation (correlation −1), a large
    /// offset and a tiny scale.
    #[test]
    fn the_bounded_fold_equals_folding_every_cell() {
        let wavy = test_series(150);
        let mut flat_runs = wavy.clone();
        flat_runs[10..32].fill(2.0);
        flat_runs[60..67].fill(-1.5);
        flat_runs[120..150].fill(2.0);
        let w: Vec<f64> = test_series(9);
        let negated: Vec<f64> = w.iter().map(|v| -v).collect();
        let mirror = [w.clone(), negated.clone()].concat();
        let mirrors = [w.clone(), negated.clone(), w.clone(), negated, w].concat();
        let cases = [
            ("flat runs", flat_runs, 8),
            ("constant", vec![4.25; 70], 6),
            ("window and negation", mirror, 9),
            ("alternating negations", mirrors, 9),
            ("offset 1e6", wavy.iter().map(|v| v + 1e6).collect(), 10),
            (
                "scale 2^-20",
                wavy.iter().map(|v| v * 2f64.powi(-20)).collect(),
                7,
            ),
        ];
        for (name, series, m) in cases {
            let ws = WindowStats::new(&series, m);
            let count = ws.count();
            for seed in 0..6u64 {
                // SplitMix64: the subset, the interleaving and the cuts.
                let mut state = seed;
                let mut next = |bound: usize| {
                    state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    let mut z = state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    ((z ^ (z >> 31)) % bound as u64) as usize
                };
                let mut live: Vec<usize> = pseudo_random_order(count - 1, seed)
                    .into_iter()
                    .map(|d| d + 1)
                    .filter(|_| seed == 0 || next(4) != 0)
                    .collect();
                let mut bounded = Fold::new(count);
                let mut every = (vec![f64::INFINITY; count], vec![usize::MAX; count]);
                let mut progress = vec![(Diagonal::default(), Diagonal::default()); count];
                while !live.is_empty() {
                    let at = next(live.len());
                    let k = live[at];
                    let (a, b) = &mut progress[k];
                    let end = (a.next + 1 + next(count - k)).min(count - k);
                    let walked = walk(&series, &ws, k, a, end, &mut bounded);
                    let (profile, index) = (&mut every.0, &mut every.1);
                    let reference = walk_every_cell(&series, &ws, k, b, end, profile, index);
                    assert_eq!(walked, reference, "{name} seed {seed} diagonal {k}");
                    assert_eq!(a.cov.to_bits(), b.cov.to_bits(), "{name}: diagonal {k}");
                    let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        (bits(&bounded.profile), &bounded.index),
                        (bits(&every.0), &every.1),
                        "{name} seed {seed}: after walking diagonal {k} to row {end}"
                    );
                    if end == count - k {
                        live.swap_remove(at);
                    }
                }
            }
        }
    }

    /// The limit admits every correlation a winning cell can have: the
    /// distance of a correlation just above the limit of an entry is
    /// already past the entry, and a flat window or an unreached entry
    /// admits everything.
    #[test]
    fn the_limit_sits_just_below_the_winning_correlations() {
        let two_m = 2.0 * 16.0;
        for d in [0.0, 1e-8, 0.3, 2.0, 4.0, 5.5, 8.0] {
            let lim = limit(two_m, false, d);
            let exact = 1.0 - d * d / two_m;
            assert!(exact - lim > 0.5 * LIMIT_MARGIN, "entry at {d}");
            assert!(admits(exact, lim, lim) && admits(exact.clamp(-1.0, 1.0), lim, 1.0));
        }
        assert_eq!(limit(two_m, false, f64::INFINITY), f64::NEG_INFINITY);
        assert_eq!(limit(two_m, true, 0.0), f64::NEG_INFINITY);
        // A correlation rounded below −1, and a NaN, count as −1.
        assert!(admits(-1.0 - 1e-12, limit(two_m, false, 8.0), 1.0));
        assert!(admits(f64::NAN, f64::NEG_INFINITY, 1.0));
        assert!(!admits(f64::NAN, limit(two_m, false, 7.9), 1.0));
    }
}
