//! Anytime and parallel STAMP on the shared-spectrum MASS path.
//!
//! STAMP's defining property — the reason it survives next to the
//! asymptotically faster STOMP — is that it is an *anytime* algorithm:
//! every processed query tightens the matrix profile monotonically, so
//! the computation can be interrupted at any point and still hand back a
//! valid over-approximation. [`AnytimeStamp`] makes that property a
//! first-class API instead of an implementation footnote:
//!
//! * queries are processed in a **seeded pseudo-random order**, so the
//!   partial profile converges uniformly across the series instead of
//!   front-to-back (the classic STAMP recommendation);
//! * [`AnytimeStamp::run_for`] / [`AnytimeStamp::step`] give
//!   deadline-style stepping — process a budget of queries, look at the
//!   [`AnytimeStamp::snapshot`], decide whether to keep going;
//! * [`AnytimeStamp::run_until`] accepts a wall-clock [`Deadline`]
//!   (an [`Instant`](std::time::Instant), a [`Duration`] budget, or a
//!   query cap): the
//!   clock is checked **before** each query, so a deadline is never
//!   overshot by more than one query's work;
//! * [`AnytimeStamp::finish_parallel`] fans the remaining queries out
//!   across rayon workers, each folding into a thread-local partial
//!   profile, merged under the shared `(distance, index)`
//!   lexicographic rule.
//!
//! # Determinism and convergence guarantees
//!
//! The profile fold ([`mod@crate::stamp`]'s `update_from_profile`) is a
//! min-fold under the total order *(distance, neighbor index)* — see
//! [`improves`](crate::profile::improves). Min-folds under a total
//! order are commutative and
//! associative, so the finished profile **and index vector** are
//! bit-identical to sequential [`stamp()`](crate::stamp::stamp) for
//! *every* seed, every query permutation, every interleaving of `step` /
//! `run_for` / `finish_parallel`, and every rayon worker count (pinned
//! by the property tests). Partial snapshots are pointwise
//! non-increasing in the number of processed queries, and after `k`
//! queries every snapshot entry `i` already accounts for all admissible
//! pairs involving any processed query — the partial profile is always
//! an upper bound on the final one.
//!
//! Per-query cost rides on [`MassPrecomputed`] (two half-size real
//! transforms against the cached series spectrum), which is what makes
//! an anytime loop cheap enough to be useful — and the entry point for
//! online discord monitoring later.

use std::time::Duration;

use rayon::prelude::*;

use crate::mass::{MassPrecomputed, MassScratch};
use crate::profile::{merge_min_into, MatrixProfile};
use crate::stamp::update_from_profile;
use crate::stomp::default_exclusion;

/// Seed used by [`AnytimeStamp::new`] when the caller does not pick one.
pub const DEFAULT_ORDER_SEED: u64 = 0x57A4_9A17;

/// The shared stopping condition for budgeted refresh loops, hoisted
/// into the substrate crate (PR 4) so both streaming subsystems — this
/// crate's discord monitor and `egi-core`'s streaming ensemble detector
/// — speak one deadline type. Re-exported here so existing
/// `egi_discord::anytime::Deadline` users keep compiling unchanged.
///
/// For [`AnytimeStamp`] and the streaming monitor, one "unit of work"
/// is one MASS query: the condition is checked before each query, so a
/// wall-clock deadline is overshot by at most one query's work.
pub use egi_tskit::deadline::Deadline;

/// Deterministic pseudo-random permutation of `0..n` (SplitMix64-keyed
/// Fisher–Yates).
///
/// Used for the anytime query order and for HOTSAX's inner-loop visit
/// order, where the literature prescribes "random" but reproducibility
/// demands a seeded generator.
pub fn pseudo_random_order(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed.wrapping_add(0x9e3779b97f4a7c15);
    let mut next = || {
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    };
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// An interruptible STAMP run: a converging matrix profile that can be
/// stepped, snapshotted, and finished — sequentially or in parallel.
///
/// See the [module docs](self) for the determinism and convergence
/// contract.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use egi_discord::anytime::{AnytimeStamp, Deadline};
///
/// let series: Vec<f64> = (0..200).map(|i| (i as f64 * 0.2).sin()).collect();
/// let mut driver = AnytimeStamp::new(&series, 16);
///
/// // Spend at most 2 ms (or 50 queries) tightening the profile…
/// driver.run_until(Deadline::after(Duration::from_millis(2)).with_query_cap(50));
/// let partial = driver.snapshot(); // valid upper bound at any point
///
/// // …then run to completion: bit-identical to batch `stamp()`.
/// let finished = driver.finish();
/// assert_eq!(finished.profile, egi_discord::stamp(&series, 16).profile);
/// assert!(partial.profile.iter().zip(&finished.profile).all(|(p, f)| p >= f));
/// ```
#[derive(Debug, Clone)]
pub struct AnytimeStamp {
    mass: MassPrecomputed,
    exclusion: usize,
    order: Vec<usize>,
    next: usize,
    profile: Vec<f64>,
    index: Vec<usize>,
    scratch: MassScratch,
    dp: Vec<f64>,
}

impl AnytimeStamp {
    /// Builds a driver with the default `m/2` exclusion zone and
    /// [`DEFAULT_ORDER_SEED`].
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `m > series.len()`.
    pub fn new(series: &[f64], m: usize) -> Self {
        Self::with_seed(series, m, default_exclusion(m), DEFAULT_ORDER_SEED)
    }

    /// Builds a driver with an explicit exclusion half-width.
    pub fn with_exclusion(series: &[f64], m: usize, exclusion: usize) -> Self {
        Self::with_seed(series, m, exclusion, DEFAULT_ORDER_SEED)
    }

    /// Builds a driver with an explicit exclusion half-width and query
    /// order seed. The seed affects only the *order* of convergence,
    /// never the finished profile.
    pub fn with_seed(series: &[f64], m: usize, exclusion: usize, seed: u64) -> Self {
        Self::from_mass(MassPrecomputed::new(series, m), exclusion, seed)
    }

    /// Builds a driver on an already-constructed [`MassPrecomputed`]
    /// (reuses the series spectrum — the expensive part).
    pub fn from_mass(mass: MassPrecomputed, exclusion: usize, seed: u64) -> Self {
        let count = mass.window_count();
        Self {
            mass,
            exclusion,
            order: pseudo_random_order(count, seed),
            next: 0,
            profile: vec![f64::INFINITY; count],
            index: vec![usize::MAX; count],
            scratch: MassScratch::default(),
            dp: Vec::new(),
        }
    }

    /// Window length `m`.
    pub fn m(&self) -> usize {
        self.mass.m()
    }

    /// Exclusion half-width.
    pub fn exclusion(&self) -> usize {
        self.exclusion
    }

    /// Number of sliding windows (= total queries = profile length).
    pub fn window_count(&self) -> usize {
        self.mass.window_count()
    }

    /// Queries processed so far.
    pub fn processed(&self) -> usize {
        self.next
    }

    /// Queries still to process.
    pub fn remaining(&self) -> usize {
        self.order.len() - self.next
    }

    /// `true` once every query has been folded in.
    pub fn is_done(&self) -> bool {
        self.next == self.order.len()
    }

    /// Processes the next query in the seeded order. Returns `false`
    /// when all queries are already done.
    pub fn step(&mut self) -> bool {
        if self.is_done() {
            return false;
        }
        let q = self.order[self.next];
        self.mass
            .distance_profile_into(q, &mut self.scratch, &mut self.dp);
        update_from_profile(
            q,
            &self.dp,
            self.exclusion,
            &mut self.profile,
            &mut self.index,
        );
        self.next += 1;
        true
    }

    /// Processes up to `n` further queries; returns how many actually
    /// ran (less than `n` only when the run completed).
    pub fn run_for(&mut self, n: usize) -> usize {
        self.run_until(Deadline::queries(n))
    }

    /// Processes queries until `deadline` expires or the run completes;
    /// returns how many ran.
    ///
    /// The deadline is checked **before** each query, so a wall-clock
    /// deadline is overshot by at most one query's work (one pair of
    /// half-size real transforms plus the fold) and an already-expired
    /// deadline runs zero queries — the regression tests pin both.
    pub fn run_until(&mut self, deadline: Deadline) -> usize {
        let mut ran = 0;
        while !deadline.expired(ran) && self.step() {
            ran += 1;
        }
        ran
    }

    /// Processes queries for (at most) `budget` of wall-clock time —
    /// [`AnytimeStamp::run_until`] with [`Deadline::after`].
    pub fn run_for_duration(&mut self, budget: Duration) -> usize {
        self.run_until(Deadline::after(budget))
    }

    /// The current partial matrix profile. Entries not yet reached by
    /// any processed query are `+∞` / `usize::MAX`; every entry is an
    /// upper bound on (and converges monotonically to) the final value.
    pub fn snapshot(&self) -> MatrixProfile {
        MatrixProfile {
            m: self.m(),
            exclusion: self.exclusion,
            profile: self.profile.clone(),
            index: self.index.clone(),
        }
    }

    /// Runs all remaining queries sequentially and returns the finished
    /// profile — bit-identical to [`stamp()`](crate::stamp::stamp) with
    /// the same exclusion.
    pub fn finish(&mut self) -> MatrixProfile {
        while self.step() {}
        self.snapshot()
    }

    /// Runs all remaining queries on rayon workers and returns the
    /// finished profile.
    ///
    /// Remaining queries are split into per-worker chunks; each worker
    /// folds its chunk into a thread-local partial profile with its own
    /// [`MassScratch`], and the partials merge under
    /// [`merge_min_into`] —
    /// commutative and associative, hence bit-identical to the
    /// sequential result for every worker count and chunking (pinned by
    /// the property tests). The worker count follows rayon's current
    /// configuration, as in [`mod@crate::stomp`].
    pub fn finish_parallel(&mut self) -> MatrixProfile {
        let remaining = &self.order[self.next..];
        let threads = rayon::current_num_threads();
        if threads <= 1 || remaining.len() <= 1 {
            return self.finish();
        }
        let mass = &self.mass;
        let count = mass.window_count();
        let chunk_len = remaining.len().div_ceil(threads);
        let chunks: Vec<Vec<usize>> = remaining.chunks(chunk_len).map(<[usize]>::to_vec).collect();
        let exclusion = self.exclusion;
        let partials: Vec<(Vec<f64>, Vec<usize>)> = chunks
            .into_par_iter()
            .map(|chunk| {
                let mut scratch = MassScratch::default();
                let mut dp = Vec::new();
                let mut profile = vec![f64::INFINITY; count];
                let mut index = vec![usize::MAX; count];
                for q in chunk {
                    mass.distance_profile_into(q, &mut scratch, &mut dp);
                    update_from_profile(q, &dp, exclusion, &mut profile, &mut index);
                }
                (profile, index)
            })
            .collect();
        for (local_profile, local_index) in partials {
            merge_min_into(
                &mut self.profile,
                &mut self.index,
                &local_profile,
                &local_index,
            );
        }
        self.next = self.order.len();
        self.snapshot()
    }
}

/// Parallel STAMP: the full matrix profile with queries fanned out
/// across rayon workers — bit-identical to [`stamp_with_exclusion`]
/// (and therefore deterministic for every worker count).
///
/// [`stamp_with_exclusion`]: crate::stamp::stamp_with_exclusion
pub fn stamp_parallel_with_exclusion(series: &[f64], m: usize, exclusion: usize) -> MatrixProfile {
    AnytimeStamp::with_exclusion(series, m, exclusion).finish_parallel()
}

/// Parallel STAMP with the default `m/2` exclusion zone.
pub fn stamp_parallel(series: &[f64], m: usize) -> MatrixProfile {
    stamp_parallel_with_exclusion(series, m, default_exclusion(m))
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use super::*;
    use crate::stamp::stamp_with_exclusion;

    fn test_series(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                (t * 0.17).sin() * 1.3 + 0.4 * (t * 0.05).cos() + ((i * 53) % 11) as f64 * 0.07
            })
            .collect()
    }

    #[test]
    fn pseudo_random_order_is_a_permutation() {
        let order = pseudo_random_order(100, 42);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(order, (0..100).collect::<Vec<_>>());
        // Seeded: same seed, same order; different seed, different order.
        assert_eq!(order, pseudo_random_order(100, 42));
        assert_ne!(order, pseudo_random_order(100, 43));
    }

    #[test]
    fn finished_run_is_bit_identical_to_stamp() {
        let series = test_series(180);
        let m = 9;
        let exc = m / 2;
        let reference = stamp_with_exclusion(&series, m, exc);
        for seed in [0u64, 1, 0xDEADBEEF] {
            let mut driver = AnytimeStamp::with_seed(&series, m, exc, seed);
            let finished = driver.finish();
            assert_eq!(finished.profile, reference.profile, "seed {seed}");
            assert_eq!(finished.index, reference.index, "seed {seed}");
        }
    }

    #[test]
    fn interleaved_stepping_reaches_the_same_profile() {
        let series = test_series(150);
        let m = 8;
        let exc = m / 2;
        let reference = stamp_with_exclusion(&series, m, exc);
        let mut driver = AnytimeStamp::with_seed(&series, m, exc, 7);
        assert!(driver.step());
        assert_eq!(driver.processed(), 1);
        driver.run_for(10);
        assert_eq!(driver.processed(), 11);
        let finished = driver.finish_parallel();
        assert!(driver.is_done());
        assert!(!driver.step());
        assert_eq!(finished.profile, reference.profile);
        assert_eq!(finished.index, reference.index);
    }

    #[test]
    fn parallel_finish_deterministic_across_thread_counts() {
        let series = test_series(220);
        let m = 10;
        let exc = m / 2;
        let reference = stamp_with_exclusion(&series, m, exc);
        for threads in [1usize, 2, 3, 8] {
            let run = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| AnytimeStamp::with_exclusion(&series, m, exc).finish_parallel());
            assert_eq!(run.profile, reference.profile, "{threads} threads");
            assert_eq!(run.index, reference.index, "{threads} threads");
        }
    }

    /// The acceptance contract against STOMP: on deterministic
    /// fixtures the finished anytime profile agrees with STOMP to 1e-6
    /// (the permutation proptest uses 1e-5 because adversarial random
    /// series amplify FFT-vs-incremental error through the sqrt near
    /// zero distances).
    #[test]
    fn finished_profile_matches_stomp_to_1e6() {
        let series = test_series(250);
        for &m in &[6usize, 12] {
            let anytime = AnytimeStamp::with_exclusion(&series, m, m / 2).finish_parallel();
            let stomp = crate::stomp::stomp_with_exclusion(&series, m, m / 2);
            for i in 0..anytime.len() {
                assert!(
                    (anytime.profile[i] - stomp.profile[i]).abs() < 1e-6,
                    "m={m} i={i}: {} vs {}",
                    anytime.profile[i],
                    stomp.profile[i]
                );
            }
        }
    }

    #[test]
    fn snapshots_converge_monotonically() {
        let series = test_series(160);
        let mut driver = AnytimeStamp::new(&series, 8);
        let mut previous = driver.snapshot();
        while driver.run_for(17) > 0 {
            let current = driver.snapshot();
            for i in 0..current.len() {
                assert!(
                    current.profile[i] <= previous.profile[i],
                    "entry {i} rose: {} -> {}",
                    previous.profile[i],
                    current.profile[i]
                );
            }
            previous = current;
        }
        assert!(driver.is_done());
    }

    #[test]
    fn partial_profile_is_upper_bound_on_final() {
        let series = test_series(140);
        let m = 7;
        let exc = m / 2;
        let reference = stamp_with_exclusion(&series, m, exc);
        let mut driver = AnytimeStamp::with_seed(&series, m, exc, 3);
        driver.run_for(driver.window_count() / 4);
        let partial = driver.snapshot();
        for i in 0..partial.len() {
            assert!(
                partial.profile[i] >= reference.profile[i] - 1e-12,
                "entry {i}"
            );
        }
    }

    #[test]
    fn exact_ties_are_seed_independent() {
        // Flat plateaus tie at exactly 0.0; the index vector must not
        // depend on which query reached them first.
        let mut series = Vec::new();
        series.extend(std::iter::repeat_n(1.0, 8));
        series.extend((0..8).map(|i| (i as f64 * 0.9).sin()));
        series.extend(std::iter::repeat_n(5.0, 8));
        series.extend((0..8).map(|i| (i as f64 * 1.3).cos()));
        series.extend(std::iter::repeat_n(2.0, 8));
        let m = 4;
        let exc = m / 2;
        let reference = stamp_with_exclusion(&series, m, exc);
        for seed in 0..6u64 {
            let finished = AnytimeStamp::with_seed(&series, m, exc, seed).finish();
            assert_eq!(finished.index, reference.index, "seed {seed}");
            assert_eq!(finished.profile, reference.profile, "seed {seed}");
        }
    }

    #[test]
    fn from_mass_reuses_the_spectrum() {
        let series = test_series(100);
        let m = 6;
        let mass = MassPrecomputed::new(&series, m);
        let reference = stamp_with_exclusion(&series, m, 3);
        let finished = AnytimeStamp::from_mass(mass, 3, 99).finish();
        assert_eq!(finished.profile, reference.profile);
    }

    /// `from_mass` accepts an engine in any state the streaming path
    /// leaves it in: grown and trimmed, it still finishes on batch STAMP
    /// over the live series.
    #[test]
    fn from_mass_on_a_grown_and_trimmed_engine_matches_stamp() {
        let series = test_series(260);
        let m = 8;
        let mut mass = MassPrecomputed::new(&series[..120], m);
        mass.append(&series[120..]);
        mass.evict_front(45);
        let reference = stamp_with_exclusion(&series[45..], m, 4);
        let mut driver = AnytimeStamp::from_mass(mass, 4, 11);
        assert_eq!(driver.window_count(), reference.len());
        driver.run_for(30);
        let finished = driver.finish_parallel();
        assert_eq!(finished.profile, reference.profile);
        assert_eq!(finished.index, reference.index);
    }

    #[test]
    fn single_window_series_is_immediately_done_after_one_step() {
        let series = vec![1.0, 2.0, 3.0];
        let mut driver = AnytimeStamp::with_exclusion(&series, 3, 1);
        assert_eq!(driver.window_count(), 1);
        let mp = driver.finish_parallel();
        assert!(mp.profile[0].is_infinite());
        assert_eq!(mp.index[0], usize::MAX);
    }

    /// `run_until` checks the clock *before* each query, so an
    /// already-expired deadline runs zero queries — the structural half
    /// of the "never overshoots by more than one query's work"
    /// guarantee.
    #[test]
    fn expired_deadline_runs_nothing() {
        let series = test_series(150);
        let mut driver = AnytimeStamp::new(&series, 8);
        assert_eq!(driver.run_until(Deadline::at(Instant::now())), 0);
        assert_eq!(driver.processed(), 0);
        let past = Instant::now() - Duration::from_secs(1);
        assert_eq!(driver.run_until(Deadline::at(past)), 0);
        assert_eq!(driver.run_for_duration(Duration::ZERO), 0);
    }

    /// The wall-clock half: overshoot beyond the deadline is bounded by
    /// one query's work. The load-bearing asserts are structural (some
    /// progress was made; the run stopped on the clock, far short of
    /// completion — thousands of queries short, so no scheduler stall
    /// can fake it). The elapsed-time bound uses a very generous
    /// absolute slack: it exists to catch "run_until ignores the clock
    /// entirely" regressions (which would run ~seconds), not to measure
    /// scheduling jitter, so CI noise cannot flake it.
    #[test]
    fn run_until_overshoot_is_bounded_by_one_query() {
        let series: Vec<f64> = (0..6000)
            .map(|i| (i as f64 * 0.11).sin() + 0.3 * (i as f64 * 0.013).cos())
            .collect();
        let mut driver = AnytimeStamp::new(&series, 64);
        // Warm up caches/allocations so the timed region is steady-state.
        assert_eq!(driver.run_for(32), 32);
        let budget = Duration::from_millis(10);
        let start = Instant::now();
        let ran = driver.run_until(Deadline::after(budget));
        let elapsed = start.elapsed();
        assert!(ran > 0, "a 10ms budget must admit at least one query");
        assert!(
            !driver.is_done(),
            "the run must have been stopped by the clock, not completion \
             ({} of {} queries processed)",
            driver.processed(),
            driver.window_count()
        );
        let slack = Duration::from_millis(250);
        assert!(
            elapsed <= budget + slack,
            "overshoot: ran {ran} queries in {elapsed:?} against a {budget:?} budget"
        );
    }

    #[test]
    fn deadline_query_budget_matches_run_for() {
        let series = test_series(160);
        let mut a = AnytimeStamp::with_seed(&series, 8, 4, 5);
        let mut b = AnytimeStamp::with_seed(&series, 8, 4, 5);
        a.run_for(23);
        b.run_until(Deadline::queries(23));
        assert_eq!(a.processed(), b.processed());
        assert_eq!(a.snapshot().profile, b.snapshot().profile);
        // Unbounded deadline = run to completion.
        b.run_until(Deadline::unbounded());
        assert!(b.is_done());
        // Query cap composes with (not yet expired) wall-clock bounds.
        let far = Deadline::at(Instant::now() + Duration::from_secs(3600)).with_query_cap(7);
        let ran = a.run_until(far);
        assert_eq!(ran, 7);
    }

    #[test]
    fn stamp_parallel_wrappers() {
        let series = test_series(120);
        let a = stamp_parallel(&series, 8);
        let b = stamp_with_exclusion(&series, 8, 4);
        assert_eq!(a.profile, b.profile);
        assert_eq!(a.index, b.index);
        assert_eq!(a.exclusion, 4);
    }
}
