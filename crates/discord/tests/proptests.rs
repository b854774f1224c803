//! Property-based checks of the matrix-profile kernel.
//!
//! STOMP, the `stamp` aliases and the streaming monitor all run one
//! kernel, so agreement among them is a contract, checked bit for bit.
//! The kernel folds only the cells its correlation bound admits; the
//! fold of every cell, written here from public API, is the bit-for-bit
//! reference for that bound. The independent evidence is
//! [`brute_force`], which computes every pair's z-normalized distance
//! from the definition and shares no arithmetic with the kernel.

use egi_discord::brute::{brute_force, znormalized_distance};
use egi_discord::dist::WindowStats;
use egi_discord::profile::improves;
use egi_discord::stomp::stomp_with_exclusion;
use egi_discord::streaming::StreamingDiscordMonitor;
use egi_discord::{Discord, MatrixProfile};
use egi_tskit::window::intervals_overlap;
use proptest::prelude::*;

fn series_strategy() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-100.0f64..100.0, 40..120)
}

/// Overwrites, for each `(at, len, value)`, up to `len` points from
/// position `at % series.len()` on with `value`: flat runs whose
/// windows exercise the flat-window conventions.
fn with_flat_runs(mut series: Vec<f64>, runs: &[(usize, usize, f64)]) -> Vec<f64> {
    for &(at, len, value) in runs {
        let at = at % series.len();
        let end = (at + len).min(series.len());
        series[at..end].fill(value);
    }
    series
}

/// The kernel-vs-definition tolerance, in distance or in squared
/// distance: near zero, the square root amplifies a rounding error of
/// the squared distance.
const TOL: f64 = 1e-9;

/// `a` and `b` agree within `tol` in distance or squared distance
/// (both `+∞` — no admissible neighbor — also agree).
fn close(a: f64, b: f64, tol: f64) -> bool {
    (a.is_infinite() && b.is_infinite()) || (a - b).abs() <= tol || (a * a - b * b).abs() <= tol
}

/// `b` exceeds `a` by more than `gap` in distance and in squared
/// distance: a margin no rounding within tolerance can close.
fn clearly_above(b: f64, a: f64, gap: f64) -> bool {
    b - a > gap && b * b - a * a > gap
}

/// The kernel's fold without the correlation bound, from public API:
/// every diagonal seeded with [`WindowStats::centered_dot`] and walked
/// with the `df`/`dg` slide, every cell's [`WindowStats::dist`] folded
/// into both ends under [`improves`].
fn fold_every_cell(series: &[f64], m: usize, exclusion: usize) -> MatrixProfile {
    let ws = WindowStats::new(series, m);
    let count = ws.count();
    let mut profile = vec![f64::INFINITY; count];
    let mut index = vec![usize::MAX; count];
    for k in exclusion.saturating_add(1)..count {
        let mut cov = ws.centered_dot(series, 0, k);
        for i in 0..count - k {
            let j = i + k;
            if i > 0 {
                cov += ws.df[i - 1] * ws.dg[j - 1] + ws.df[j - 1] * ws.dg[i - 1];
            }
            let d = ws.dist(i, j, cov);
            for (end, neighbor) in [(i, j), (j, i)] {
                if improves(d, neighbor, profile[end], index[end]) {
                    profile[end] = d;
                    index[end] = neighbor;
                }
            }
        }
    }
    MatrixProfile {
        m,
        exclusion,
        profile,
        index,
    }
}

/// Top-`k` discords the way they were first extracted: sort every
/// finite entry by distance descending, then start ascending, and take
/// each that overlaps no earlier pick.
fn sorted_discords(mp: &MatrixProfile, k: usize) -> Vec<Discord> {
    let mut order: Vec<usize> = (0..mp.len())
        .filter(|&i| mp.profile[i].is_finite())
        .collect();
    order.sort_by(|&x, &y| {
        mp.profile[y]
            .partial_cmp(&mp.profile[x])
            .unwrap()
            .then(x.cmp(&y))
    });
    let mut picked: Vec<Discord> = Vec::new();
    for i in order {
        if picked.len() == k {
            break;
        }
        if picked
            .iter()
            .all(|d| !intervals_overlap(d.start, d.len, i, mp.m))
        {
            picked.push(Discord {
                start: i,
                len: mp.m,
                distance: mp.profile[i],
            });
        }
    }
    picked
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The kernel against the definition, on random series with flat
    /// runs: every profile entry within [`TOL`] of brute force, and the
    /// same neighbor wherever brute force's best neighbor beats its
    /// runner-up by more than `2·TOL`.
    #[test]
    fn kernel_matches_brute_force_on_series_with_flat_runs(
        series in series_strategy(),
        runs in prop::collection::vec((0usize..1_000, 1usize..24, -100.0f64..100.0), 0..4),
        m in 4usize..16,
        strict in 0usize..2,
    ) {
        let series = with_flat_runs(series, &runs);
        prop_assume!(series.len() >= 2 * m);
        let exc = if strict == 1 { m - 1 } else { m / 2 };
        let kernel = stomp_with_exclusion(&series, m, exc);
        let brute = brute_force(&series, m, exc);
        prop_assert_eq!(kernel.len(), brute.len());
        let window = |i: usize| &series[i..i + m];
        for i in 0..kernel.len() {
            let (k, b) = (kernel.profile[i], brute.profile[i]);
            prop_assert!(close(k, b, TOL), "entry {}: kernel {} vs brute {}", i, k, b);
            let runner_up = (0..brute.len())
                .filter(|&j| i.abs_diff(j) > exc && j != brute.index[i])
                .map(|j| znormalized_distance(window(i), window(j)))
                .fold(f64::INFINITY, f64::min);
            if b.is_finite() && clearly_above(runner_up, b, 2.0 * TOL) {
                prop_assert_eq!(
                    kernel.index[i], brute.index[i],
                    "entry {}: best {} runner-up {}", i, b, runner_up
                );
            }
        }
    }

    /// Every neighbor the kernel cites is admissible and sits at the
    /// profile distance by the definition, within [`TOL`] — also where
    /// near-ties let the kernel and brute force pick different
    /// neighbors.
    #[test]
    fn kernel_cites_each_neighbor_at_its_distance(
        series in series_strategy(),
        runs in prop::collection::vec((0usize..1_000, 1usize..24, -100.0f64..100.0), 0..4),
        m in 4usize..16,
    ) {
        let series = with_flat_runs(series, &runs);
        prop_assume!(series.len() >= 2 * m);
        let exc = m / 2;
        let kernel = stomp_with_exclusion(&series, m, exc);
        for (i, (&d, &j)) in kernel.profile.iter().zip(&kernel.index).enumerate() {
            prop_assert!(i.abs_diff(j) > exc, "entry {} cites {}", i, j);
            let direct = znormalized_distance(&series[i..i + m], &series[j..j + m]);
            prop_assert!(close(d, direct, TOL), "entry {}: {} vs {}", i, d, direct);
        }
    }

    /// Centered arithmetic keeps the kernel on the scale of the signal:
    /// shifting a series by up to `1e4·σ` moves no profile entry by more
    /// than 1e-6 (in distance or squared distance), and keeps the top
    /// discord wherever it leads the next non-overlapping window by more
    /// than twice that.
    #[test]
    fn shifting_the_series_keeps_the_profile_and_the_top_discord(
        series in series_strategy(),
        m in 4usize..16,
        sigmas in -1e4f64..1e4,
    ) {
        prop_assume!(series.len() >= 2 * m);
        let tol = 1e-6;
        let n = series.len() as f64;
        let mean = series.iter().sum::<f64>() / n;
        let sigma = (series.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n).sqrt();
        let shifted: Vec<f64> = series.iter().map(|x| x + sigmas * sigma).collect();
        let a = stomp_with_exclusion(&series, m, m / 2);
        let b = stomp_with_exclusion(&shifted, m, m / 2);
        for i in 0..a.len() {
            prop_assert!(
                close(a.profile[i], b.profile[i], tol),
                "entry {}: {} vs {} shifted by {}σ", i, a.profile[i], b.profile[i], sigmas
            );
        }
        let top = a.discords(1)[0];
        let runner_up = (0..a.len())
            .filter(|&j| !intervals_overlap(top.start, m, j, m))
            .map(|j| a.profile[j])
            .filter(|d| d.is_finite())
            .fold(f64::NEG_INFINITY, f64::max);
        if clearly_above(top.distance, runner_up, 2.0 * tol) {
            prop_assert_eq!(b.discords(1)[0].start, top.start);
        }
    }

    /// Matrix profile values are symmetric evidence: profile[i] is the
    /// distance to index[i], and that distance is achievable from the
    /// other side too (profile[index[i]] ≤ profile[i]).
    #[test]
    fn neighbor_distance_is_mutual_upper_bound(series in series_strategy(), m in 4usize..12) {
        prop_assume!(series.len() >= 2 * m);
        let mp = stomp_with_exclusion(&series, m, m - 1);
        for i in 0..mp.len() {
            let j = mp.index[i];
            if j != usize::MAX {
                prop_assert!(
                    mp.profile[j] <= mp.profile[i] + 1e-6,
                    "profile[{}]={} > profile[{}]={}",
                    j, mp.profile[j], i, mp.profile[i]
                );
            }
        }
    }

    /// Diagonal-parallel STOMP returns bit-identical profiles and
    /// indices for every worker count.
    #[test]
    fn stomp_deterministic_across_threads(
        series in series_strategy(),
        m in 4usize..12,
        threads in 2usize..9,
    ) {
        prop_assume!(series.len() >= 2 * m);
        let single = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(|| stomp_with_exclusion(&series, m, m / 2));
        let multi = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| stomp_with_exclusion(&series, m, m / 2));
        prop_assert_eq!(&single.profile, &multi.profile);
        prop_assert_eq!(&single.index, &multi.index);
    }

    /// The anytime matrix profile (a monitor fed one series), for
    /// *every* diagonal order (seed), finishes on a profile and index
    /// vector bit-identical to the batch kernel: the whole point of the
    /// shared `(distance, index)` fold.
    #[test]
    fn anytime_any_permutation_matches_the_batch_kernel(
        series in series_strategy(),
        m in 4usize..16,
        seed in 0u64..1_000_000_000,
    ) {
        prop_assume!(series.len() >= 2 * m);
        let exc = m / 2;
        let reference = stomp_with_exclusion(&series, m, exc);
        let mut monitor = StreamingDiscordMonitor::with_seed(m, exc, seed);
        monitor.append(&series);
        let finished = monitor.finish();
        prop_assert_eq!(&finished.profile, &reference.profile);
        prop_assert_eq!(&finished.index, &reference.index);
    }

    /// The parallel finish is bit-identical to the batch kernel for
    /// every worker count, seed, and partial sequential prefix (mixing
    /// `run_for` stepping with a parallel finish).
    #[test]
    fn anytime_parallel_finish_deterministic(
        series in series_strategy(),
        m in 4usize..12,
        seed in 0u64..1_000_000_000,
        threads in 2usize..9,
        prefix_pct in 0usize..100,
    ) {
        prop_assume!(series.len() >= 2 * m);
        let exc = m / 2;
        let reference = stomp_with_exclusion(&series, m, exc);
        let mut driver = StreamingDiscordMonitor::with_seed(m, exc, seed);
        driver.append(&series);
        driver.run_for(driver.pending() * prefix_pct / 100);
        let finished = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| driver.finish());
        prop_assert_eq!(&finished.profile, &reference.profile);
        prop_assert_eq!(&finished.index, &reference.index);
    }

    /// Partial anytime profiles converge monotonically: pointwise
    /// non-increasing in the number of units run, and always an upper
    /// bound on the finished profile.
    #[test]
    fn anytime_snapshots_monotone_and_upper_bound(
        series in series_strategy(),
        m in 4usize..12,
        seed in 0u64..1_000_000_000,
        chunk in 1usize..30,
    ) {
        prop_assume!(series.len() >= 2 * m);
        let exc = m / 2;
        let reference = stomp_with_exclusion(&series, m, exc);
        let mut driver = StreamingDiscordMonitor::with_seed(m, exc, seed);
        driver.append(&series);
        let mut previous = driver.snapshot();
        while driver.run_for(chunk) > 0 {
            let current = driver.snapshot();
            for i in 0..current.len() {
                prop_assert!(
                    current.profile[i] <= previous.profile[i],
                    "entry {} rose after {} units", i, driver.processed()
                );
                prop_assert!(
                    current.profile[i] >= reference.profile[i],
                    "entry {} undershot the final profile", i
                );
            }
            previous = current;
        }
        prop_assert_eq!(&previous.profile, &reference.profile);
        prop_assert_eq!(&previous.index, &reference.index);
    }

    /// The streaming monitor converges to the batch profile, bitwise,
    /// for every seed, chunk size, and interleaving of
    /// `append`/`step`/`snapshot`, and every snapshot on the way is an
    /// upper bound on it.
    #[test]
    fn streaming_interleaved_converges_to_batch(
        series in series_strategy(),
        m in 4usize..16,
        seed in 0u64..1_000_000_000,
        chunk in 1usize..40,
        budget in 0usize..25,
    ) {
        prop_assume!(series.len() >= 2 * m);
        let exc = m / 2;
        let reference = stomp_with_exclusion(&series, m, exc);
        let mut monitor = StreamingDiscordMonitor::with_seed(m, exc, seed);
        let mut fed = 0;
        for part in series.chunks(chunk) {
            let previous = monitor.snapshot();
            monitor.append(part);
            fed += part.len();
            monitor.run_for(budget);
            let snap = monitor.snapshot();
            prop_assert_eq!(snap.len(), monitor.window_count());
            if fed < m {
                continue;
            }
            let live = stomp_with_exclusion(&series[..fed], m, exc);
            for i in 0..snap.len() {
                prop_assert!(
                    snap.profile[i] >= live.profile[i],
                    "entry {} undershot the batch profile", i
                );
                // No eviction here, so no entry ever loosens.
                if i < previous.len() {
                    prop_assert!(snap.profile[i] <= previous.profile[i], "entry {} rose", i);
                }
            }
        }
        let finished = monitor.finish();
        prop_assert!(monitor.is_current());
        prop_assert_eq!(&finished.profile, &reference.profile);
        prop_assert_eq!(&finished.index, &reference.index);
    }

    /// The streaming monitor's parallel finish is bit-identical to the
    /// batch profile for every worker count and append schedule.
    #[test]
    fn streaming_parallel_finish_deterministic(
        series in series_strategy(),
        m in 4usize..12,
        seed in 0u64..1_000_000_000,
        chunk in 1usize..40,
        threads in 2usize..9,
    ) {
        prop_assume!(series.len() >= 2 * m);
        let exc = m / 2;
        let reference = stomp_with_exclusion(&series, m, exc);
        let mut monitor = StreamingDiscordMonitor::with_seed(m, exc, seed);
        for part in series.chunks(chunk) {
            monitor.append(part);
            monitor.run_for(chunk / 8);
        }
        let finished = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| monitor.finish());
        prop_assert_eq!(&finished.profile, &reference.profile);
        prop_assert_eq!(&finished.index, &reference.index);
    }

    /// Scaling and shifting the series leaves the (z-normalized) matrix
    /// profile unchanged.
    #[test]
    fn profile_is_scale_shift_invariant(
        series in series_strategy(),
        scale in 0.5f64..10.0,
        shift in -50.0f64..50.0,
    ) {
        prop_assume!(series.len() >= 24);
        let m = 8;
        let transformed: Vec<f64> = series.iter().map(|v| v * scale + shift).collect();
        let a = stomp_with_exclusion(&series, m, m - 1);
        let b = stomp_with_exclusion(&transformed, m, m - 1);
        for i in 0..a.len() {
            prop_assert!(
                (a.profile[i] - b.profile[i]).abs() < 1e-4,
                "i={}: {} vs {}", i, a.profile[i], b.profile[i]
            );
        }
    }

    /// The correlation bound skips cells without changing a bit: STOMP
    /// at 1, 2 and 3 workers equals the fold of every cell, profile and
    /// index, on series with flat runs.
    #[test]
    fn stomp_equals_the_fold_of_every_cell_bit_for_bit(
        series in series_strategy(),
        runs in prop::collection::vec((0usize..1_000, 1usize..24, -100.0f64..100.0), 0..4),
        m in 4usize..16,
        strict in 0usize..2,
    ) {
        let series = with_flat_runs(series, &runs);
        prop_assume!(series.len() >= 2 * m);
        let exc = if strict == 1 { m - 1 } else { m / 2 };
        let reference = fold_every_cell(&series, m, exc);
        let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        for threads in 1..=3 {
            let kernel = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| stomp_with_exclusion(&series, m, exc));
            prop_assert_eq!(bits(&kernel.profile), bits(&reference.profile), "{} workers", threads);
            prop_assert_eq!(&kernel.index, &reference.index, "{} workers", threads);
        }
    }

    /// The heap-based top-`k` picks exactly what sorting every entry
    /// picks, in the same order, on profiles drawn from a few values
    /// (so ties are common) with some `+∞` entries.
    #[test]
    fn discords_match_the_sort_then_greedy_reference(
        picks in prop::collection::vec(0usize..5, 0..60),
        m in 1usize..6,
    ) {
        let values = [0.5, 1.0, 1.0 + 1e-12, 2.5, f64::INFINITY];
        let profile: Vec<f64> = picks.iter().map(|&v| values[v]).collect();
        let mp = MatrixProfile {
            m,
            exclusion: m,
            index: vec![0; profile.len()],
            profile,
        };
        for k in [0, 1, 3, mp.len(), mp.len() + 5] {
            prop_assert_eq!(mp.discords(k), sorted_discords(&mp, k), "k = {}", k);
        }
    }
}
