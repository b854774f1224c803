//! Online (append-to-series) discord monitoring.
//!
//! [`StreamingDiscordMonitor`] owns a growing time series and keeps its
//! matrix profile — and therefore its discord set — current as points
//! are appended, under hard wall-clock latency budgets between appends.
//! It is the online driver the ROADMAP's production north-star asks for:
//! ingest a chunk of live traffic, spend a bounded slice of time
//! tightening the profile, answer "best discords so far", repeat.
//!
//! # Architecture
//!
//! Three layers cooperate:
//!
//! * The monitor owns the **live series**, and its
//!   [`MassPrecomputed`] engine is derived state: once the series holds
//!   a window, the engine is rebuilt over it after every append and
//!   every eviction — one `O(N)` window-statistics pass and one
//!   `O(S log S)` forward transform at the padded size `S`, on the
//!   process-wide cached FFT plan. Under a
//!   [`retain_last`](StreamingDiscordMonitor::retain_last) policy an
//!   append trims first, so it transforms once, at the retained size.
//!   Every query therefore runs against exactly the engine batch STAMP
//!   builds over the same series.
//! * The monitor maintains an **exact fold**: the partial matrix
//!   profile folded from distance profiles computed against the
//!   *current* spectrum, under the shared `(distance, index)` rule of
//!   [`crate::profile::improves`]. Once every window has been processed
//!   as a query in the current epoch, the fold is bit-identical to a
//!   from-scratch [`stamp()`](crate::stamp::stamp) on the full series.
//! * A **carry-over** layer keeps the evidence accumulated before the
//!   latest append. Those folds were computed against a shorter
//!   series' spectrum; they are numerically within FFT round-off
//!   (~1e-9) of the current-spectrum values but not bitwise equal, so
//!   they serve [`StreamingDiscordMonitor::snapshot`] (live monitoring
//!   wants the tightest available bound *now*) and never contaminate
//!   the exact fold.
//!
//! # Why appends re-enqueue old queries
//!
//! An FFT's rounding depends on its transform length, so the same
//! mathematical distance computed against the grown series' spectrum
//! differs in the last bits from the value computed before the append.
//! A finished profile that mixed pre- and post-append folds would
//! therefore disagree with batch STAMP at the ulp level — and the
//! crate's contract (PR 1/2 standard) is *bit*-identity. The monitor
//! resolves the tension by priority, not by discarding work:
//!
//! 1. **fresh queries** (the windows the append created) run first —
//!    they are the only ones that carry genuinely new information, so
//!    snapshot quality after an append needs exactly `chunk` queries;
//! 2. never-processed older queries run next;
//! 3. queries already processed in an earlier epoch re-run last — pure
//!    numerical refresh, deferred until the stream goes quiet.
//!
//! Between appends the carry-over keeps every pair ever examined in the
//! live view, so *new points only add candidate queries* as far as
//! monitoring is concerned; the re-runs exist solely to restore
//! bit-exactness once the monitor catches up.
//!
//! # Sliding-window eviction
//!
//! [`StreamingDiscordMonitor::evict`] retires the oldest points, and
//! [`StreamingDiscordMonitor::retain_last`] installs a retention policy
//! that trims automatically after every append — together they bound
//! the monitor's memory for indefinitely-running streams. The contract
//! mirrors the append side one level up: **after any interleaving of
//! appends and evictions, [`finish`](StreamingDiscordMonitor::finish)
//! is bit-identical to a fresh batch [`stamp()`](crate::stamp::stamp)
//! over the surviving suffix** (property-tested). All indices are
//! *local to the live window*; the global position of local index `i`
//! is `stream_offset() + i` via
//! [`StreamingDiscordMonitor::stream_offset`].
//!
//! ## Eviction cost model (and why evidence is discarded)
//!
//! Appending only *adds* candidate neighbors, so pre-append evidence
//! keeps its meaning and is preserved (the carry-over). Eviction is the
//! opposite: it *removes* candidates, so a pre-eviction profile entry
//! may cite a neighbor that no longer exists — and since the suffix
//! profile's nearest-neighbor distances can only be **larger** than the
//! full-series ones, stale entries would under-report discord distances
//! and point outside the live window. The monitor therefore drops the
//! exact fold *and* the carry on eviction and re-enqueues every
//! surviving window; snapshots restart from `+∞` and re-tighten as
//! queries run. Per eviction of `c` points from a series of `N` the
//! immediate cost is the engine rebuild over the suffix (`O(N − c)`
//! statistics and one `O(S log S)` transform at the shrunken padded
//! size `S`: an FFT's rounding depends on the whole buffer, so no
//! cached state survives a front truncation), and restoring full
//! snapshot coverage costs one query per surviving window, paid
//! through the usual [`step`](StreamingDiscordMonitor::step) budget.
//! As with appends, **callers should batch evictions**: the rebuild
//! amortizes to `O((S log S)/c)` per retired point.
//!
//! # Anytime and parallel STAMP
//!
//! A monitor fed one series is STAMP run as an anytime algorithm (Yeh
//! et al., "Matrix Profile I", ICDM 2016): every processed query
//! tightens the profile, so the run can stop at any point and still
//! hand back an upper bound on the final profile.
//!
//! * Each epoch's queries run in a seeded pseudo-random order
//!   ([`pseudo_random_order`], salted with the epoch count), so the
//!   partial profile converges evenly across the series instead of
//!   front to back.
//! * [`run_for`](StreamingDiscordMonitor::run_for) spends a query
//!   budget and [`run_until`](StreamingDiscordMonitor::run_until) a
//!   [`Deadline`](egi_tskit::Deadline). The deadline is checked before
//!   each query, so it is overshot by at most one query's work.
//! * [`finish`](StreamingDiscordMonitor::finish) fans the remaining
//!   queries out across rayon workers, and steps them when one worker
//!   or one query is left.
//!
//! # Convergence contract
//!
//! * Within an epoch (between appends), snapshots tighten
//!   monotonically.
//! * Across an append, the snapshot is unchanged (new entries start at
//!   `+∞`) and then resumes tightening.
//! * When the monitor catches up ([`StreamingDiscordMonitor::is_current`]),
//!   the stale carry is dropped and the snapshot equals the exact fold;
//!   entries may move by FFT round-off (≤ ~1e-9) at that transition,
//!   which is the only departure from bitwise monotonicity.
//! * [`StreamingDiscordMonitor::finish`], for every rayon worker
//!   count, returns a profile bit-identical to
//!   [`stamp_with_exclusion`](crate::stamp::stamp_with_exclusion) on
//!   the full series — property-tested across append schedules, seeds,
//!   chunk sizes, and thread counts — because every query of an epoch
//!   runs against the engine built over exactly that series.

use std::collections::VecDeque;
use std::io::{Read, Write};

/// The shared per-session telemetry snapshot, re-exported from
/// [`egi_obs`] for callers of [`StreamingDiscordMonitor::metrics`].
pub use egi_obs::SessionStats;
/// The persistence contract implemented by the monitor, re-exported
/// from [`egi_tskit::checkpoint`]: save at any point of an
/// append/evict/step schedule, restore, replay the rest — the finished
/// profile is bit-identical to the uninterrupted run.
pub use egi_tskit::checkpoint::{Checkpoint, CheckpointError};
use egi_tskit::checkpoint::{CheckpointReader, CheckpointWriter, FieldReader, FieldWriter};
use egi_tskit::evict::validate_evict;
/// The shared eviction error of both streaming subsystems, re-exported
/// from [`egi_tskit::evict`] for callers of
/// [`StreamingDiscordMonitor::evict`] /
/// [`StreamingDiscordMonitor::retain_last`].
pub use egi_tskit::evict::EvictError;
use egi_tskit::session::StreamClock;
/// The shared session contract (and its budgeted drivers), re-exported
/// from [`egi_tskit::session`]: import it to drive the monitor
/// generically (e.g. from an `egi-serve` fleet).
pub use egi_tskit::session::StreamSession;
use rayon::prelude::*;

use crate::mass::{MassPrecomputed, MassScratch};
use crate::profile::{merge_min_into, Discord, MatrixProfile};
use crate::stamp::update_from_profile;
use crate::stomp::default_exclusion;

/// Seed used by [`StreamingDiscordMonitor::new`] when the caller does
/// not pick one.
pub const DEFAULT_MONITOR_SEED: u64 = 0x5EED_CAFE;

/// Deterministic pseudo-random permutation of `0..n` (SplitMix64-keyed
/// Fisher–Yates).
///
/// Used for the monitor's per-epoch query order and for HOTSAX's
/// inner-loop visit order, where the literature prescribes "random" but
/// reproducibility demands a seeded generator.
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

/// An online discord monitor over an append-only time series.
///
/// See the [module docs](self) for the architecture, the exact-fold /
/// carry-over split, and the convergence contract.
///
/// # Examples
///
/// ```
/// use egi_discord::streaming::StreamingDiscordMonitor;
///
/// // A clean sine with one corrupted beat in the second half.
/// let mut series: Vec<f64> = (0..256).map(|i| (i as f64 * 0.4).sin()).collect();
/// for (k, v) in series[180..190].iter_mut().enumerate() {
///     *v += (k as f64 * 1.7).cos() * 2.0;
/// }
///
/// let m = 16;
/// let mut monitor = StreamingDiscordMonitor::new(m);
/// monitor.append(&series[..128]);          // warm-up batch
/// monitor.run_for(usize::MAX);             // catch up completely
/// for chunk in series[128..].chunks(32) {
///     monitor.append(chunk);               // live traffic arrives…
///     monitor.run_for(chunk.len());        // …refresh the new windows
/// }
/// let top = monitor.discords(1);           // best discord so far
/// assert!((170..=190).contains(&top[0].start), "found {}", top[0].start);
///
/// // Once caught up, the profile is bit-identical to batch STAMP.
/// let finished = monitor.finish();
/// let batch = egi_discord::stamp(&series, m);
/// assert_eq!(finished.profile, batch.profile);
/// assert_eq!(finished.index, batch.index);
/// ```
#[derive(Debug, Clone)]
pub struct StreamingDiscordMonitor {
    m: usize,
    exclusion: usize,
    seed: u64,
    /// Epoch (salts the per-epoch query order), stream offset, and
    /// retention bookkeeping — the [`StreamClock`] shared by every
    /// [`StreamSession`] implementor.
    clock: StreamClock,
    /// The live series: every point appended and not yet evicted.
    series: Vec<f64>,
    /// The MASS engine over `series`, rebuilt after every append and
    /// eviction; `None` while the series is shorter than one window.
    mass: Option<MassPrecomputed>,
    /// Queries to process in the current epoch: fresh windows first,
    /// then never-processed older windows, then numerical re-runs.
    pending: VecDeque<usize>,
    /// Queries already folded in the current epoch, in processing order.
    done: Vec<usize>,
    /// The exact fold: evidence computed against the current spectrum.
    fold_profile: Vec<f64>,
    fold_index: Vec<usize>,
    /// Pre-append evidence (within FFT round-off of exact); dropped the
    /// moment the exact fold reaches full coverage.
    carry: Option<(Vec<f64>, Vec<usize>)>,
    scratch: MassScratch,
    dp: Vec<f64>,
    /// Lifetime telemetry (appends, queries served, staleness) — pure
    /// `u64` bookkeeping, deliberately outside the checkpoint payload
    /// and every parity contract.
    stats: SessionStats,
}

impl StreamingDiscordMonitor {
    /// Builds an empty monitor for window length `m` with the default
    /// `m/2` exclusion zone and [`DEFAULT_MONITOR_SEED`].
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn new(m: usize) -> Self {
        Self::with_seed(m, default_exclusion(m), DEFAULT_MONITOR_SEED)
    }

    /// Builds an empty monitor with an explicit exclusion half-width.
    pub fn with_exclusion(m: usize, exclusion: usize) -> Self {
        Self::with_seed(m, exclusion, DEFAULT_MONITOR_SEED)
    }

    /// Builds an empty monitor with an explicit exclusion half-width
    /// and query-order seed. The seed affects only the order pending
    /// queries are processed in, never any finished profile.
    pub fn with_seed(m: usize, exclusion: usize, seed: u64) -> Self {
        assert!(m > 0, "window must be positive");
        Self {
            m,
            exclusion,
            seed,
            clock: StreamClock::new(),
            series: Vec::new(),
            mass: None,
            pending: VecDeque::new(),
            done: Vec::new(),
            fold_profile: Vec::new(),
            fold_index: Vec::new(),
            carry: None,
            scratch: MassScratch::default(),
            dp: Vec::new(),
            stats: SessionStats::default(),
        }
    }

    /// Window length `m`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Exclusion half-width.
    pub fn exclusion(&self) -> usize {
        self.exclusion
    }

    /// Points ingested so far.
    pub fn series_len(&self) -> usize {
        self.series.len()
    }

    /// The full series ingested so far.
    pub fn series(&self) -> &[f64] {
        &self.series
    }

    /// Number of sliding windows (profile length); zero until `m`
    /// points have arrived.
    pub fn window_count(&self) -> usize {
        self.mass.as_ref().map_or(0, MassPrecomputed::window_count)
    }

    /// Queries awaiting processing in the current epoch (fresh windows
    /// plus numerical re-runs scheduled by appends).
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Queries folded since the last append.
    pub fn processed(&self) -> usize {
        self.done.len()
    }

    /// Ingest events (appends and evictions) seen so far.
    pub fn epochs(&self) -> u64 {
        self.clock.epochs()
    }

    /// Points retired from the front of the stream so far. Every index
    /// the monitor reports (profile indices, discord starts) is local
    /// to the live window; its global stream position is
    /// `stream_offset() + index`.
    pub fn stream_offset(&self) -> usize {
        self.clock.offset()
    }

    /// The retention policy installed by
    /// [`StreamingDiscordMonitor::retain_last`], if any.
    pub fn retention(&self) -> Option<usize> {
        self.clock.retention()
    }

    /// Capacity (in `f64`s) retained by the live series buffer — cheap
    /// accessor for memory-bound assertions on eviction workloads.
    pub fn series_capacity(&self) -> usize {
        self.series.capacity()
    }

    /// Current FFT transform size: the live series length's next power
    /// of two, or 0 before the first window materializes — bounded by
    /// `O(retention)` under a
    /// [`retain_last`](StreamingDiscordMonitor::retain_last) policy.
    pub fn padded_size(&self) -> usize {
        self.mass.as_ref().map_or(0, MassPrecomputed::padded_size)
    }

    /// `true` once the exact fold covers every window of the current
    /// series — from here, [`StreamingDiscordMonitor::snapshot`] is
    /// bit-identical to batch STAMP on the ingested series.
    pub fn is_current(&self) -> bool {
        self.pending.is_empty()
    }

    /// Lifetime telemetry for this monitor: appends, evictions,
    /// queries served, and staleness (points appended since the fold
    /// last caught up). Pure `u64` counters — reading or keeping them
    /// never touches the numeric path — and deliberately not part of
    /// checkpoints (a restored monitor starts from zero).
    pub fn metrics(&self) -> SessionStats {
        self.stats
    }

    /// Deterministic processing order for `fresh` new queries of the
    /// current epoch: a seeded shuffle, so anytime coverage spreads
    /// evenly.
    fn epoch_order(&self, offset: usize, fresh: usize) -> Vec<usize> {
        let salt = self
            .seed
            .wrapping_add(self.clock.epochs().wrapping_mul(0x9E37_79B9_7F4A_7C15));
        pseudo_random_order(fresh, salt)
            .into_iter()
            .map(|i| i + offset)
            .collect()
    }

    /// Ingests new points. Never blocks on profile work: the append
    /// cost is one engine build over the live series (see the
    /// [module docs](self)) plus `O(1)` bookkeeping per
    /// already-processed query, and all query processing is deferred to
    /// [`step`](Self::step) / [`run_until`](Self::run_until) so the
    /// caller controls the latency budget.
    ///
    /// New windows are enqueued ahead of everything else; queries
    /// processed in earlier epochs are re-enqueued last (see the
    /// [module docs](self) for why bit-exactness requires that). Under
    /// a [`retain_last`](Self::retain_last) policy the trim runs before
    /// the build, so an append that overflows the retention builds the
    /// engine once, over the retained suffix.
    pub fn append(&mut self, points: &[f64]) {
        if points.is_empty() {
            return;
        }
        let span = egi_obs::SpanTimer::start();
        self.clock.record_append();
        let old_count = self.window_count();
        self.series.extend_from_slice(points);
        let excess = self.clock.excess(self.series.len());
        if excess > 0 {
            // The eviction restarts the epoch, so the queue this append
            // would have built is never needed.
            self.evict(excess)
                .expect("retention >= m leaves a viable suffix");
        } else {
            self.ingest(old_count);
        }
        self.stats
            .record_append(points.len() as u64, self.pending.is_empty());
        span.record(egi_obs::histogram!("egi_monitor_append_nanos"));
    }

    /// Rebuilds the engine over the grown series and queues the epoch:
    /// the windows past `old_count` first, then the old backlog, then
    /// the old epoch's processed queries as numerical re-runs.
    fn ingest(&mut self, old_count: usize) {
        self.mass = engine(&self.series, self.m);
        let new_count = self.window_count();
        if new_count == 0 {
            return;
        }
        if old_count > 0 {
            // Preserve pre-append evidence for live snapshots…
            let (cp, ci) = self.carry.get_or_insert_with(|| {
                (vec![f64::INFINITY; old_count], vec![usize::MAX; old_count])
            });
            cp.resize(new_count, f64::INFINITY);
            ci.resize(new_count, usize::MAX);
            merge_min_into(cp, ci, &self.fold_profile, &self.fold_index);
        }
        // …and restart the exact fold against the new spectrum.
        self.reset_fold(new_count);
        let mut pending = VecDeque::from(self.epoch_order(old_count, new_count - old_count));
        pending.append(&mut self.pending);
        pending.extend(self.done.drain(..));
        self.pending = pending;
    }

    /// Sets the exact fold to `count` entries no query has reached.
    fn reset_fold(&mut self, count: usize) {
        self.fold_profile.clear();
        self.fold_profile.resize(count, f64::INFINITY);
        self.fold_index.clear();
        self.fold_index.resize(count, usize::MAX);
    }

    /// Retires the oldest `count` points from the live window. After
    /// the eviction the monitor behaves — bit for bit, for every future
    /// operation — like a fresh monitor that ingested only the
    /// surviving suffix (plus the [`stream_offset`] bookkeeping), so
    /// [`finish`](Self::finish) lands on batch
    /// [`stamp_with_exclusion`](crate::stamp::stamp_with_exclusion)
    /// over that suffix.
    ///
    /// All accumulated evidence (exact fold and carry-over) is
    /// discarded and every surviving window re-enqueued — eviction
    /// shrinks the candidate-pair set, so pre-eviction profile entries
    /// are no longer upper bounds and may cite retired neighbors (see
    /// the [module docs](self) for the full cost model).
    ///
    /// # Errors
    ///
    /// Rejected atomically (state untouched) when `count` exceeds the
    /// live point count ([`EvictError::PastEnd`]) or a non-empty suffix
    /// shorter than `m` would survive ([`EvictError::BelowMinimum`]).
    /// Evicting *everything* is allowed: the monitor resets and the
    /// next append starts a fresh warm-up.
    ///
    /// # Examples
    ///
    /// ```
    /// use egi_discord::streaming::{EvictError, StreamingDiscordMonitor};
    ///
    /// let series: Vec<f64> = (0..300).map(|i| (i as f64 * 0.21).sin()).collect();
    /// let mut monitor = StreamingDiscordMonitor::new(16);
    /// monitor.append(&series);
    /// monitor.run_for(100);
    /// monitor.evict(100).unwrap();
    /// assert_eq!(monitor.stream_offset(), 100);
    /// assert_eq!(
    ///     monitor.evict(190),
    ///     Err(EvictError::BelowMinimum { remaining: 10, minimum: 16 })
    /// );
    ///
    /// // The finish is batch STAMP over the surviving suffix, in local
    /// // indices.
    /// let finished = monitor.finish();
    /// let batch = egi_discord::stamp(&series[100..], 16);
    /// assert_eq!(finished.profile, batch.profile);
    /// assert_eq!(finished.index, batch.index);
    /// ```
    ///
    /// [`stream_offset`]: Self::stream_offset
    pub fn evict(&mut self, count: usize) -> Result<(), EvictError> {
        validate_evict(self.series.len(), count, self.m)?;
        if count == 0 {
            return Ok(());
        }
        let span = egi_obs::SpanTimer::start();
        self.clock.record_evict(count);
        self.series.drain(..count);
        self.mass = engine(&self.series, self.m);
        let windows = self.window_count();
        self.done.clear();
        self.carry = None;
        self.reset_fold(windows);
        self.pending = self.epoch_order(0, windows).into();
        self.stats
            .record_evict(count as u64, self.pending.is_empty());
        span.record(egi_obs::histogram!("egi_monitor_evict_nanos"));
        Ok(())
    }

    /// Installs a sliding-window retention policy and trims the live
    /// window to at most `n` points now and after every future append —
    /// the bounded-memory mode for unbounded streams. Returns how many
    /// points the immediate trim retired.
    ///
    /// # Errors
    ///
    /// [`EvictError::BelowMinimum`] when `n < m` (the policy could
    /// never keep a viable window); the state is untouched.
    ///
    /// # Examples
    ///
    /// ```
    /// use egi_discord::streaming::StreamingDiscordMonitor;
    ///
    /// let series: Vec<f64> = (0..600)
    ///     .map(|i| (i as f64 * 0.3).sin() + ((i * 13) % 7) as f64 * 0.05)
    ///     .collect();
    /// let m = 16;
    /// let mut monitor = StreamingDiscordMonitor::new(m);
    /// monitor.retain_last(256).unwrap();
    /// for chunk in series.chunks(64) {
    ///     monitor.append(chunk); // auto-trims to the last 256 points
    /// }
    /// assert_eq!(monitor.series_len(), 256);
    /// assert_eq!(monitor.stream_offset(), 600 - 256);
    ///
    /// // The finished profile is bit-identical to batch STAMP over the
    /// // surviving suffix.
    /// let finished = monitor.finish();
    /// let batch = egi_discord::stamp(&series[600 - 256..], m);
    /// assert_eq!(finished.profile, batch.profile);
    /// assert_eq!(finished.index, batch.index);
    /// ```
    pub fn retain_last(&mut self, n: usize) -> Result<usize, EvictError> {
        if n < self.m {
            return Err(EvictError::BelowMinimum {
                remaining: n,
                minimum: self.m,
            });
        }
        self.clock.set_retention(n);
        let excess = self.clock.excess(self.series_len());
        if excess > 0 {
            self.evict(excess)?;
        }
        Ok(excess)
    }

    /// Processes the next pending query into the exact fold. Returns
    /// `false` when the monitor is already current (or has no windows).
    pub fn step(&mut self) -> bool {
        let Some(mass) = &self.mass else {
            return false;
        };
        let Some(q) = self.pending.pop_front() else {
            return false;
        };
        mass.distance_profile_into(q, &mut self.scratch, &mut self.dp);
        update_from_profile(
            q,
            &self.dp,
            self.exclusion,
            &mut self.fold_profile,
            &mut self.fold_index,
        );
        self.done.push(q);
        if self.pending.is_empty() {
            // Full coverage on the current spectrum: the stale carry can
            // only differ in the last bits, so drop it and let snapshots
            // return the exact (batch-bit-identical) profile.
            self.carry = None;
        }
        self.stats.record_step(self.pending.is_empty());
        true
    }

    /// Releases the slack capacity the streaming buffers accumulated —
    /// the memory-reclamation counterpart of
    /// [`retain_last`](Self::retain_last), mirroring
    /// `StreamingEnsembleDetector::compact` for API symmetry.
    ///
    /// Eviction truncates *lengths* but deliberately keeps *capacity*
    /// (the steady-state append/evict cycle reuses it); after a heavy
    /// one-off eviction that capacity is dead weight. `compact` shrinks
    /// the series buffer, the query queue, the fold, and the per-query
    /// scratch down to the live working set; the engine holds none,
    /// since every append and eviction builds it at the live size.
    /// Purely an allocation-level operation: no observable state
    /// changes, and every parity contract is untouched.
    pub fn compact(&mut self) {
        self.series.shrink_to_fit();
        self.pending.shrink_to_fit();
        self.done.shrink_to_fit();
        self.fold_profile.shrink_to_fit();
        self.fold_index.shrink_to_fit();
        self.dp.shrink_to_fit();
        self.scratch = MassScratch::default();
    }

    /// The current best-known matrix profile: the exact fold min-merged
    /// with the pre-append carry-over. Entries no processed query has
    /// reached are `+∞` / `usize::MAX`; every entry is an upper bound
    /// on the batch profile of the ingested series, up to FFT round-off
    /// (carry-over evidence was computed against a shorter series'
    /// spectrum and may sit ~1e-9 below the batch value — see the
    /// [module docs](self); once
    /// [`is_current`](StreamingDiscordMonitor::is_current) the bound is
    /// exact and bitwise).
    pub fn snapshot(&self) -> MatrixProfile {
        let mut profile = self.fold_profile.clone();
        let mut index = self.fold_index.clone();
        if let Some((cp, ci)) = &self.carry {
            merge_min_into(&mut profile, &mut index, cp, ci);
        }
        MatrixProfile {
            m: self.m,
            exclusion: self.exclusion,
            profile,
            index,
        }
    }

    /// Top-`k` non-overlapping discords of the current snapshot — the
    /// "best discords so far" answer.
    pub fn discords(&self, k: usize) -> Vec<Discord> {
        self.snapshot().discords(k)
    }

    /// Processes every pending query and returns the finished profile —
    /// bit-identical to
    /// [`stamp_with_exclusion`](crate::stamp::stamp_with_exclusion) on
    /// the full ingested series. On a monitor fed one series this is
    /// parallel STAMP.
    ///
    /// When more than one query is pending and rayon has more than one
    /// worker, the pending queries are split into one chunk per worker.
    /// Each worker folds its chunk into a thread-local partial profile
    /// with its own [`MassScratch`], and the partials merge under
    /// [`merge_min_into`]. That merge is commutative and associative,
    /// so the result, the queue state and the metrics are bit-identical
    /// to stepping every query in turn, which is what `finish` does
    /// otherwise. The worker count follows rayon's current
    /// configuration.
    ///
    /// # Examples
    ///
    /// ```
    /// use egi_discord::streaming::StreamingDiscordMonitor;
    ///
    /// let series: Vec<f64> = (0..300).map(|i| (i as f64 * 0.37).sin()).collect();
    /// let mut monitor = StreamingDiscordMonitor::with_seed(16, 8, 7);
    /// monitor.append(&series);
    /// let finished = monitor.finish();
    /// let batch = egi_discord::stamp(&series, 16);
    /// assert_eq!(finished.profile, batch.profile);
    /// assert_eq!(finished.index, batch.index);
    /// ```
    pub fn finish(&mut self) -> MatrixProfile {
        let threads = rayon::current_num_threads();
        let mass = match &self.mass {
            Some(mass) if threads > 1 && self.pending.len() > 1 => mass,
            _ => {
                while self.step() {}
                return self.snapshot();
            }
        };
        let remaining: Vec<usize> = self.pending.drain(..).collect();
        let count = mass.window_count();
        let exclusion = self.exclusion;
        let chunk_len = remaining.len().div_ceil(threads);
        let partials: Vec<(Vec<f64>, Vec<usize>)> = remaining
            .chunks(chunk_len)
            .map(<[usize]>::to_vec)
            .collect::<Vec<_>>()
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
        for (profile, index) in partials {
            merge_min_into(
                &mut self.fold_profile,
                &mut self.fold_index,
                &profile,
                &index,
            );
        }
        self.stats.steps += remaining.len() as u64;
        self.stats.caught_up += 1;
        self.stats.staleness_points = 0;
        self.done.extend(remaining);
        self.carry = None;
        self.snapshot()
    }
}

/// The MASS engine over `series` for window `m`, or `None` while the
/// series is shorter than one window. Every build is counted in
/// `egi_mass_exact_retransforms_total`.
fn engine(series: &[f64], m: usize) -> Option<MassPrecomputed> {
    (series.len() >= m).then(|| {
        egi_obs::counter!("egi_mass_exact_retransforms_total").inc();
        MassPrecomputed::new(series, m)
    })
}

/// Section tag of the monitor-state section (`b"MON1"` little-endian).
const CKPT_SECTION_MONITOR: u32 = u32::from_le_bytes(*b"MON1");
/// Section tag of the engine-state section (`b"ENG1"`), present only
/// once the monitor has left warm-up.
const CKPT_SECTION_ENGINE: u32 = u32::from_le_bytes(*b"ENG1");
const CKPT_MONITOR_VERSION: u32 = 1;
const CKPT_ENGINE_VERSION: u32 = 1;
/// The kernel tag the monitor section carries. Only this value loads:
/// checkpoints of the removed segmented kernel carry tag 1 and are
/// rejected as `Corrupt`.
const CKPT_BACKEND_TAG: u32 = 0;

fn corrupt(what: impl Into<String>) -> CheckpointError {
    CheckpointError::Corrupt(what.into())
}

/// Persistence for the monitor (see [`Checkpoint`] for the container
/// format). The checkpoint holds the series plus the fold/queue
/// bookkeeping. The engine is derived state — the monitor itself
/// rebuilds it from the series after every append and eviction — so
/// the loader builds it the same way, and checkpoints stay
/// `O(series)` small. Until the series holds a window it is stored in
/// the monitor section's warm-up field; after that, in the engine
/// section.
///
/// The loader rejects, as [`CheckpointError::Corrupt`], every
/// checksum-valid payload that no monitor could have written and that
/// would finish with a wrong answer: non-finite points, negative or NaN
/// fold and carry entries, a queue that does not hold each window
/// exactly once, and a carry on a monitor with nothing pending.
///
/// # Examples
///
/// ```
/// use egi_discord::streaming::{Checkpoint, StreamingDiscordMonitor};
///
/// let series: Vec<f64> = (0..200).map(|i| (i as f64 * 0.3).sin()).collect();
/// let mut live = StreamingDiscordMonitor::new(12);
/// live.append(&series[..150]);
/// live.run_for(40);
///
/// // Save mid-epoch, restore, and replay the rest on both copies.
/// let bytes = live.checkpoint_bytes().unwrap();
/// let mut restored = StreamingDiscordMonitor::from_checkpoint_bytes(&bytes).unwrap();
/// assert_eq!(restored.pending(), live.pending());
/// for monitor in [&mut live, &mut restored] {
///     monitor.append(&series[150..]);
/// }
/// let (a, b) = (restored.finish(), live.finish());
/// assert_eq!(a.profile, b.profile);
/// assert_eq!(a.index, b.index);
/// ```
impl Checkpoint for StreamingDiscordMonitor {
    fn save_checkpoint(&self, writer: &mut impl Write) -> Result<(), CheckpointError> {
        let sections = 1 + u32::from(self.mass.is_some());
        let mut out = CheckpointWriter::begin(writer, sections)?;
        let mut f = FieldWriter::new();
        f.usize(self.m);
        f.usize(self.exclusion);
        f.u64(self.seed);
        f.u32(CKPT_BACKEND_TAG);
        f.u64(self.clock.epochs());
        f.usize(self.clock.offset());
        f.opt_usize(self.clock.retention());
        let warmup: &[f64] = if self.mass.is_some() {
            &[]
        } else {
            &self.series
        };
        f.f64_slice(warmup);
        f.f64_slice(&self.fold_profile);
        f.usize_slice(&self.fold_index);
        let pending: Vec<usize> = self.pending.iter().copied().collect();
        f.usize_slice(&pending);
        f.usize_slice(&self.done);
        match &self.carry {
            None => f.bool(false),
            Some((cp, ci)) => {
                f.bool(true);
                f.f64_slice(cp);
                f.usize_slice(ci);
            }
        }
        out.section(CKPT_SECTION_MONITOR, CKPT_MONITOR_VERSION, &f.into_bytes())?;
        if self.mass.is_none() {
            return Ok(());
        }
        let mut f = FieldWriter::new();
        f.f64_slice(&self.series);
        out.section(CKPT_SECTION_ENGINE, CKPT_ENGINE_VERSION, &f.into_bytes())?;
        Ok(())
    }

    fn load_checkpoint(reader: &mut impl Read) -> Result<Self, CheckpointError> {
        let mut input = CheckpointReader::begin(reader)?;
        let (_, payload) = input.section(CKPT_SECTION_MONITOR, CKPT_MONITOR_VERSION)?;
        let mut f = FieldReader::new(&payload);
        let m = f.usize()?;
        let exclusion = f.usize()?;
        let seed = f.u64()?;
        let tag = f.u32()?;
        if tag != CKPT_BACKEND_TAG {
            return Err(corrupt(format!("unknown backend tag {tag}")));
        }
        let epochs = f.u64()?;
        let offset = f.usize()?;
        let retention = f.opt_usize()?;
        let warmup = f.f64_vec()?;
        let fold_profile = f.f64_vec()?;
        let fold_index = f.usize_vec()?;
        let pending = f.usize_vec()?;
        let done = f.usize_vec()?;
        let carry = if f.bool()? {
            Some((f.f64_vec()?, f.usize_vec()?))
        } else {
            None
        };
        f.finish()?;
        if m == 0 {
            return Err(corrupt("window m must be positive"));
        }
        if let Some(n) = retention {
            // retain_last rejects n < m, so no saved monitor holds one;
            // honoring it would panic inside the next append's auto-trim.
            if n < m {
                return Err(corrupt(format!("retention {n} below window {m}")));
            }
        }
        if !warmup.iter().all(|v| v.is_finite()) {
            return Err(corrupt("warm-up buffer contains non-finite values"));
        }

        let series = if input.sections_remaining() == 0 {
            // Warm-up phase: no windows yet, all per-window state empty.
            if warmup.len() >= m {
                return Err(corrupt("warm-up buffer holds a full window"));
            }
            if !fold_profile.is_empty()
                || !fold_index.is_empty()
                || !pending.is_empty()
                || !done.is_empty()
                || carry.is_some()
            {
                return Err(corrupt("per-window state present without an engine"));
            }
            warmup
        } else {
            let (_, payload) = input.section(CKPT_SECTION_ENGINE, CKPT_ENGINE_VERSION)?;
            let mut f = FieldReader::new(&payload);
            if !warmup.is_empty() {
                return Err(corrupt("warm-up buffer non-empty alongside an engine"));
            }
            let series = f.f64_vec()?;
            f.finish()?;
            if series.len() < m {
                return Err(corrupt("series shorter than the window"));
            }
            if !series.iter().all(|v| v.is_finite()) {
                return Err(corrupt("series contains non-finite values"));
            }
            let count = series.len() - m + 1;
            if fold_profile.len() != count || fold_index.len() != count {
                return Err(corrupt("fold length disagrees with the window count"));
            }
            // Distances are non-negative; `+∞` marks an entry no query
            // has reached yet. `>=` also rejects NaN.
            if !fold_profile.iter().all(|&d| d >= 0.0) {
                return Err(corrupt("fold entry is negative or NaN"));
            }
            if !fold_index.iter().all(|&i| i == usize::MAX || i < count) {
                return Err(corrupt("fold neighbor index out of range"));
            }
            // Every window of the epoch is either still queued or
            // already folded: a window missing from both would never
            // reach the fold, and one listed twice would mean the queue
            // was not written by a monitor.
            if pending.len() + done.len() != count {
                return Err(corrupt("pending and done do not cover each window once"));
            }
            let mut seen = vec![false; count];
            for &q in pending.iter().chain(&done) {
                if q >= count {
                    return Err(corrupt("query index out of range"));
                }
                if std::mem::replace(&mut seen[q], true) {
                    return Err(corrupt(format!("window {q} queued twice")));
                }
            }
            if let Some((cp, ci)) = &carry {
                // `step` drops the carry the moment the queue empties.
                if pending.is_empty() {
                    return Err(corrupt("carry present with nothing pending"));
                }
                if cp.len() != count || ci.len() != count {
                    return Err(corrupt("carry length disagrees with the window count"));
                }
                if !cp.iter().all(|&d| d >= 0.0) {
                    return Err(corrupt("carry entry is negative or NaN"));
                }
                if !ci.iter().all(|&i| i == usize::MAX || i < count) {
                    return Err(corrupt("carry neighbor index out of range"));
                }
            }
            series
        };

        Ok(Self {
            m,
            exclusion,
            seed,
            clock: StreamClock::with_state(epochs, offset, retention),
            mass: engine(&series, m),
            series,
            pending: pending.into(),
            done,
            fold_profile,
            fold_index,
            carry,
            scratch: MassScratch::default(),
            dp: Vec::new(),
            // Telemetry describes a process, not resumable state: a
            // restored monitor starts counting from zero.
            stats: SessionStats::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use egi_tskit::Deadline;

    use super::*;
    use crate::stamp::stamp_with_exclusion;

    fn test_series(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                (t * 0.13).sin() * 1.2 + 0.5 * (t * 0.041).cos() + ((i * 29) % 13) as f64 * 0.06
            })
            .collect()
    }

    #[test]
    fn finished_profile_matches_batch_stamp_bitwise() {
        let series = test_series(240);
        let m = 8;
        let exc = m / 2;
        let reference = stamp_with_exclusion(&series, m, exc);
        for chunk in [1usize, 7, 64, 240] {
            let mut monitor = StreamingDiscordMonitor::with_exclusion(m, exc);
            for part in series.chunks(chunk) {
                monitor.append(part);
            }
            let finished = monitor.finish();
            assert_eq!(finished.profile, reference.profile, "chunk {chunk}");
            assert_eq!(finished.index, reference.index, "chunk {chunk}");
            assert!(monitor.is_current());
        }
    }

    #[test]
    fn interleaved_stepping_still_matches_batch() {
        let series = test_series(200);
        let m = 10;
        let exc = m / 2;
        let reference = stamp_with_exclusion(&series, m, exc);
        for seed in [0u64, 9, 0xFEED] {
            let mut monitor = StreamingDiscordMonitor::with_seed(m, exc, seed);
            for part in series.chunks(23) {
                monitor.append(part);
                monitor.run_for(11); // leave a backlog on purpose
                let _ = monitor.snapshot();
            }
            let finished = monitor.finish();
            assert_eq!(finished.profile, reference.profile, "seed {seed}");
            assert_eq!(finished.index, reference.index, "seed {seed}");
        }
    }

    #[test]
    fn parallel_finish_deterministic_across_thread_counts() {
        let series = test_series(220);
        let m = 9;
        let exc = m / 2;
        let reference = stamp_with_exclusion(&series, m, exc);
        for threads in [1usize, 2, 3, 8] {
            let mut monitor = StreamingDiscordMonitor::with_exclusion(m, exc);
            for part in series.chunks(31) {
                monitor.append(part);
                monitor.run_for(5);
            }
            let finished = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| monitor.finish());
            assert_eq!(finished.profile, reference.profile, "{threads} threads");
            assert_eq!(finished.index, reference.index, "{threads} threads");
        }
    }

    #[test]
    fn warmup_buffers_until_m_points() {
        let mut monitor = StreamingDiscordMonitor::new(8);
        monitor.append(&[1.0, 2.0, 3.0]);
        assert_eq!(monitor.window_count(), 0);
        assert!(monitor.snapshot().is_empty());
        assert!(!monitor.step());
        assert!(monitor.discords(3).is_empty());
        monitor.append(&test_series(13));
        assert_eq!(monitor.series_len(), 16);
        assert_eq!(monitor.window_count(), 9);
        assert_eq!(monitor.pending(), 9);
    }

    #[test]
    fn snapshot_is_stable_across_an_append() {
        let series = test_series(180);
        let m = 8;
        let mut monitor = StreamingDiscordMonitor::new(m);
        monitor.append(&series[..120]);
        monitor.run_for(40);
        let before = monitor.snapshot();
        monitor.append(&series[120..]);
        let after = monitor.snapshot();
        // Old entries unchanged; new entries start untouched.
        assert_eq!(&after.profile[..before.len()], &before.profile[..]);
        assert_eq!(&after.index[..before.len()], &before.index[..]);
        assert!(after.profile[before.len()..]
            .iter()
            .all(|d| d.is_infinite()));
    }

    #[test]
    fn snapshots_tighten_within_an_epoch() {
        let series = test_series(160);
        let mut monitor = StreamingDiscordMonitor::new(8);
        monitor.append(&series[..100]);
        monitor.run_for(usize::MAX);
        monitor.append(&series[100..]);
        let mut previous = monitor.snapshot();
        let mut was_current = monitor.is_current();
        while monitor.run_for(13) > 0 {
            let current = monitor.snapshot();
            for i in 0..previous.len() {
                // Bitwise monotone while the carry is live; the
                // catch-up transition (stale carry dropped in favor of
                // the exact fold) may move entries by FFT round-off —
                // the one documented departure.
                let slack = if monitor.is_current() && !was_current {
                    1e-9 * (1.0 + previous.profile[i].abs())
                } else {
                    0.0
                };
                assert!(
                    current.profile[i] <= previous.profile[i] + slack,
                    "entry {i} rose: {} -> {}",
                    previous.profile[i],
                    current.profile[i]
                );
            }
            was_current = monitor.is_current();
            previous = current;
        }
        assert!(monitor.is_current());
    }

    #[test]
    fn fresh_queries_run_before_the_backlog() {
        let series = test_series(150);
        let m = 8;
        let mut monitor = StreamingDiscordMonitor::new(m);
        monitor.append(&series[..100]);
        monitor.run_for(usize::MAX);
        assert!(monitor.is_current());
        let old_count = monitor.window_count();
        monitor.append(&series[100..]);
        let fresh = monitor.window_count() - old_count;
        // Processing exactly the fresh queries covers every new window.
        assert_eq!(monitor.run_for(fresh), fresh);
        let snap = monitor.snapshot();
        assert!(
            snap.profile[old_count..].iter().all(|d| d.is_finite()),
            "new windows must be covered after `fresh` steps"
        );
        // The backlog (numerical re-runs) is still pending.
        assert_eq!(monitor.pending(), old_count);
        assert!(!monitor.is_current());
    }

    #[test]
    fn monitor_finds_an_injected_discord_mid_stream() {
        let mut series: Vec<f64> = (0..400).map(|i| (i as f64 * 0.35).sin()).collect();
        for (k, v) in series[300..315].iter_mut().enumerate() {
            *v = 2.5 + (k as f64 * 2.1).sin() * 1.5;
        }
        let m = 20;
        let mut monitor = StreamingDiscordMonitor::new(m);
        monitor.append(&series[..250]);
        monitor.run_for(usize::MAX);
        for chunk in series[250..].chunks(50) {
            monitor.append(chunk);
            monitor.run_for(chunk.len());
        }
        let top = monitor.discords(1);
        assert_eq!(top.len(), 1);
        assert!(
            (285..=315).contains(&top.first().unwrap().start),
            "top discord at {} should cover the corrupted beat",
            top.first().unwrap().start
        );
    }

    #[test]
    fn seed_changes_order_not_result() {
        let series = test_series(170);
        let m = 7;
        let exc = m / 2;
        let reference = stamp_with_exclusion(&series, m, exc);
        for seed in 0..5u64 {
            let mut monitor = StreamingDiscordMonitor::with_seed(m, exc, seed);
            for part in series.chunks(41) {
                monitor.append(part);
                monitor.run_for(17);
            }
            let finished = monitor.finish();
            assert_eq!(finished.profile, reference.profile, "seed {seed}");
            assert_eq!(finished.index, reference.index, "seed {seed}");
        }
    }

    #[test]
    fn single_append_equals_anytime_stamp() {
        // With one append and no interleaving, the monitor is just
        // anytime STAMP over the batch series.
        let series = test_series(130);
        let m = 6;
        let exc = 3;
        let mut monitor = StreamingDiscordMonitor::with_exclusion(m, exc);
        monitor.append(&series);
        let finished = monitor.finish();
        let reference = stamp_with_exclusion(&series, m, exc);
        assert_eq!(finished.profile, reference.profile);
        assert_eq!(finished.index, reference.index);
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

    // ------------------------------------------------------------------
    // Anytime STAMP: a monitor fed one series. The properties in
    // tests/proptests.rs cover random series and seeds; these pin the
    // deadline contract and the edges.
    // ------------------------------------------------------------------

    /// The acceptance contract against STOMP: on deterministic
    /// fixtures the finished anytime profile agrees with STOMP to 1e-6
    /// (the permutation proptest uses 1e-5 because adversarial random
    /// series amplify FFT-vs-incremental error through the sqrt near
    /// zero distances).
    #[test]
    fn finished_profile_matches_stomp_to_1e6() {
        let series = test_series(250);
        for &m in &[6usize, 12] {
            let mut monitor = StreamingDiscordMonitor::with_exclusion(m, m / 2);
            monitor.append(&series);
            let anytime = monitor.finish();
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
    fn partial_profile_is_upper_bound_on_final() {
        let series = test_series(140);
        let m = 7;
        let exc = m / 2;
        let reference = stamp_with_exclusion(&series, m, exc);
        let mut monitor = StreamingDiscordMonitor::with_seed(m, exc, 3);
        monitor.append(&series);
        monitor.run_for(monitor.window_count() / 4);
        let partial = monitor.snapshot();
        for i in 0..partial.len() {
            assert!(
                partial.profile[i] >= reference.profile[i] - 1e-12,
                "entry {i}"
            );
        }
    }

    /// A processed query has folded its whole row, so its own entry is
    /// final up to FFT round-off. After `k` queries at least `k` entries
    /// have settled, wherever the seeded order put them.
    #[test]
    fn each_processed_query_settles_its_own_entry() {
        let series = test_series(220);
        let m = 8;
        let reference = stamp_with_exclusion(&series, m, m / 2);
        let mut monitor = StreamingDiscordMonitor::with_seed(m, m / 2, 11);
        monitor.append(&series);
        while monitor.run_for(19) > 0 {
            let partial = monitor.snapshot();
            let settled = partial
                .profile
                .iter()
                .zip(&reference.profile)
                .filter(|(p, f)| (*p - *f).abs() <= 1e-9 * (1.0 + f.abs()))
                .count();
            assert!(
                settled >= monitor.processed(),
                "{settled} entries settled after {} queries",
                monitor.processed()
            );
        }
    }

    /// The seed picks the query order: the same seed reaches the same
    /// partial profile, and another seed a different one.
    #[test]
    fn seed_steers_the_partial_snapshot() {
        let series = test_series(200);
        let partial = |seed: u64| {
            let mut monitor = StreamingDiscordMonitor::with_seed(8, 4, seed);
            monitor.append(&series);
            monitor.run_for(10);
            monitor.snapshot()
        };
        let (a, b, c) = (partial(1), partial(1), partial(2));
        assert_eq!(a.profile, b.profile);
        assert_eq!(a.index, b.index);
        assert_ne!(a.profile, c.profile, "seed 2 runs other queries first");
    }

    /// Anytime STAMP is STAMP over a prefix of the epoch's seeded order:
    /// after `k` queries, the snapshot of a monitor fed one series is,
    /// bit for bit, the STAMP fold of the first `k` windows of that
    /// order.
    #[test]
    fn partial_snapshot_is_the_stamp_fold_of_the_order_prefix() {
        let series = test_series(180);
        let (m, exc) = (8, 4);
        let mut monitor = StreamingDiscordMonitor::with_seed(m, exc, 21);
        monitor.append(&series);
        let count = monitor.window_count();
        let order = monitor.epoch_order(0, count);
        let mass = MassPrecomputed::new(&series, m);
        let mut profile = vec![f64::INFINITY; count];
        let mut index = vec![usize::MAX; count];
        let (mut scratch, mut dp) = (MassScratch::default(), Vec::new());
        let mut folded = 0;
        for k in [1, 9, 40, count] {
            assert_eq!(monitor.run_for(k - folded), k - folded);
            for &q in &order[folded..k] {
                mass.distance_profile_into(q, &mut scratch, &mut dp);
                update_from_profile(q, &dp, exc, &mut profile, &mut index);
            }
            folded = k;
            let snapshot = monitor.snapshot();
            assert_eq!(snapshot.profile, profile, "after {k} queries");
            assert_eq!(snapshot.index, index, "after {k} queries");
        }
        assert!(monitor.is_current());
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
            let mut monitor = StreamingDiscordMonitor::with_seed(m, exc, seed);
            monitor.append(&series);
            let finished = monitor.finish();
            assert_eq!(finished.index, reference.index, "seed {seed}");
            assert_eq!(finished.profile, reference.profile, "seed {seed}");
        }
    }

    #[test]
    fn single_window_series_is_immediately_done_after_one_step() {
        let series = vec![1.0, 2.0, 3.0];
        let mut monitor = StreamingDiscordMonitor::with_exclusion(3, 1);
        monitor.append(&series);
        assert_eq!(monitor.window_count(), 1);
        let mp = monitor.finish();
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
        let mut monitor = StreamingDiscordMonitor::new(8);
        monitor.append(&series);
        assert_eq!(monitor.run_until(Deadline::at(Instant::now())), 0);
        assert_eq!(monitor.processed(), 0);
        let past = Instant::now() - Duration::from_secs(1);
        assert_eq!(monitor.run_until(Deadline::at(past)), 0);
        assert_eq!(monitor.run_for_duration(Duration::ZERO), 0);
        assert_eq!(monitor.processed(), 0);
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
        let mut monitor = StreamingDiscordMonitor::new(64);
        monitor.append(&series);
        // Warm up caches/allocations so the timed region is steady-state.
        assert_eq!(monitor.run_for(32), 32);
        let budget = Duration::from_millis(10);
        let start = Instant::now();
        let ran = monitor.run_until(Deadline::after(budget));
        let elapsed = start.elapsed();
        assert!(ran > 0, "a 10ms budget must admit at least one query");
        assert!(
            !monitor.is_current(),
            "the run must have been stopped by the clock, not completion \
             ({} of {} queries processed)",
            monitor.processed(),
            monitor.window_count()
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
        let mut a = StreamingDiscordMonitor::with_seed(8, 4, 5);
        let mut b = StreamingDiscordMonitor::with_seed(8, 4, 5);
        a.append(&series);
        b.append(&series);
        a.run_for(23);
        b.run_until(Deadline::queries(23));
        assert_eq!(a.processed(), b.processed());
        assert_eq!(a.snapshot().profile, b.snapshot().profile);
        // Unbounded deadline = run to completion.
        b.run_until(Deadline::unbounded());
        assert!(b.is_current());
        // Query cap composes with (not yet expired) wall-clock bounds.
        let far = Deadline::at(Instant::now() + Duration::from_secs(3600)).with_query_cap(7);
        let ran = a.run_until(far);
        assert_eq!(ran, 7);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        StreamingDiscordMonitor::new(0);
    }

    #[test]
    fn new_uses_the_default_exclusion_and_seed() {
        let series = test_series(150);
        let m = 8;
        let mut a = StreamingDiscordMonitor::new(m);
        let mut b =
            StreamingDiscordMonitor::with_seed(m, default_exclusion(m), DEFAULT_MONITOR_SEED);
        assert_eq!(a.exclusion(), default_exclusion(m));
        for part in series.chunks(33) {
            a.append(part);
            b.append(part);
            a.run_for(9);
            b.run_for(9);
            // Same exclusion and seed: the same queue, fold and carry.
            assert_eq!(a.checkpoint_bytes().unwrap(), b.checkpoint_bytes().unwrap());
        }
        let (fa, fb) = (a.finish(), b.finish());
        assert_eq!(fa.profile, fb.profile);
        assert_eq!(fa.index, fb.index);
    }

    #[test]
    fn finish_with_one_query_left_matches_stamp() {
        let series = test_series(240);
        let m = 8;
        let mut monitor = StreamingDiscordMonitor::new(m);
        monitor.append(&series);
        monitor.run_for(monitor.window_count() - 1);
        assert_eq!(monitor.pending(), 1);
        let finished = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap()
            .install(|| monitor.finish());
        let reference = stamp_with_exclusion(&series, m, m / 2);
        assert_eq!(finished.profile, reference.profile);
        assert_eq!(finished.index, reference.index);
        assert!(monitor.is_current());
        assert_eq!(monitor.processed(), monitor.window_count());
    }

    #[test]
    fn finish_records_the_same_metrics_at_every_worker_count() {
        let series = test_series(260);
        let mut par = StreamingDiscordMonitor::new(8);
        for part in series.chunks(40) {
            par.append(part);
            par.run_for(15);
        }
        let mut seq = par.clone();
        let finish_on = |threads: usize, monitor: &mut StreamingDiscordMonitor| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| monitor.finish())
        };
        let a = finish_on(4, &mut par);
        let b = finish_on(1, &mut seq);
        assert_eq!(a.profile, b.profile);
        assert_eq!(a.index, b.index);
        assert_eq!(par.processed(), seq.processed());
        assert_eq!(par.metrics(), seq.metrics());
        assert_eq!(par.metrics().staleness_points, 0);
    }

    /// With no query pending (during warm-up, or once current),
    /// `finish` runs nothing: it returns the snapshot and leaves the
    /// state and the metrics as they were.
    #[test]
    fn finish_with_nothing_pending_changes_nothing() {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        let series = test_series(120);
        let mut monitor = StreamingDiscordMonitor::new(8);
        monitor.append(&series[..5]);
        assert!(pool.install(|| monitor.finish()).is_empty());
        assert_eq!(monitor.series_len(), 5);
        monitor.append(&series[5..]);
        let finished = pool.install(|| monitor.finish());
        let (bytes, stats) = (monitor.checkpoint_bytes().unwrap(), monitor.metrics());
        let again = pool.install(|| monitor.finish());
        assert_eq!(again, finished);
        assert_eq!(monitor.checkpoint_bytes().unwrap(), bytes);
        assert_eq!(monitor.metrics(), stats);
        assert_eq!(stats.caught_up, 1);
    }

    #[test]
    fn metrics_count_ingest_and_queries() {
        let series = test_series(150);
        let m = 8;
        let mut monitor = StreamingDiscordMonitor::new(m);
        monitor.append(&series[..5]);
        // Warm-up queues nothing, so nothing is stale yet.
        assert_eq!(monitor.metrics().staleness_points, 0);
        monitor.append(&series[5..100]);
        assert_eq!(monitor.metrics().staleness_points, 95);
        assert_eq!(monitor.run_for(10), 10);
        monitor.evict(20).unwrap();
        monitor.finish();
        let stats = monitor.metrics();
        assert_eq!(stats.appends, 2);
        assert_eq!(stats.points_appended, 100);
        assert_eq!((stats.evictions, stats.points_evicted), (1, 20));
        // 10 queries before the eviction, then all 73 surviving windows.
        assert_eq!(stats.steps, 10 + 73);
        assert_eq!((stats.caught_up, stats.staleness_points), (1, 0));
        // A retention trim counts as an eviction.
        monitor.retain_last(50).unwrap();
        assert_eq!(monitor.metrics().evictions, 2);
        assert_eq!(monitor.metrics().points_evicted, 50);
    }

    #[test]
    fn evict_mid_epoch_drops_the_carry_and_requeues_the_survivors() {
        let series = test_series(220);
        let m = 8;
        let mut monitor = StreamingDiscordMonitor::new(m);
        monitor.append(&series[..150]);
        monitor.run_for(usize::MAX);
        monitor.append(&series[150..]);
        monitor.run_for(30);
        // The carry still holds pre-append evidence for the old windows.
        assert!(monitor.snapshot().profile[..143]
            .iter()
            .all(|d| d.is_finite()));
        monitor.evict(40).unwrap();
        assert_eq!(monitor.processed(), 0);
        assert_eq!(monitor.pending(), monitor.window_count());
        assert!(monitor.snapshot().profile.iter().all(|d| d.is_infinite()));
        let finished = monitor.finish();
        let reference = stamp_with_exclusion(&series[40..], m, m / 2);
        assert_eq!(finished.profile, reference.profile);
        assert_eq!(finished.index, reference.index);
    }

    #[test]
    fn compact_mid_epoch_changes_nothing_observable() {
        let series = test_series(400);
        let m = 9;
        let mut live = StreamingDiscordMonitor::new(m);
        live.append(&series[..300]);
        live.run_for(120);
        live.append(&series[300..]);
        live.run_for(40); // a carry and a backlog are both live
        let mut twin = live.clone();
        live.compact();
        assert_eq!(
            live.checkpoint_bytes().unwrap(),
            twin.checkpoint_bytes().unwrap()
        );
        for monitor in [&mut live, &mut twin] {
            monitor.run_for(50);
        }
        let (a, b) = (live.snapshot(), twin.snapshot());
        assert_eq!(a.profile, b.profile);
        assert_eq!(a.index, b.index);
        let (fa, fb) = (live.finish(), twin.finish());
        assert_eq!(fa.profile, fb.profile);
        assert_eq!(fa.index, fb.index);
        let reference = stamp_with_exclusion(&series, m, m / 2);
        assert_eq!(fa.profile, reference.profile);
    }

    // ------------------------------------------------------------------
    // Sliding-window eviction: boundary regressions. The property
    // harness in tests/eviction_proptests.rs covers random schedules;
    // these pin the exact edges of the contract.
    // ------------------------------------------------------------------

    #[test]
    fn evict_then_finish_matches_batch_over_suffix() {
        let series = test_series(260);
        let m = 9;
        let exc = m / 2;
        for cut in [1usize, 40, 137] {
            let mut monitor = StreamingDiscordMonitor::with_exclusion(m, exc);
            for part in series.chunks(33) {
                monitor.append(part);
                monitor.run_for(7);
            }
            monitor.evict(cut).unwrap();
            assert_eq!(monitor.stream_offset(), cut);
            let finished = monitor.finish();
            let reference = stamp_with_exclusion(&series[cut..], m, exc);
            assert_eq!(finished.profile, reference.profile, "cut {cut}");
            assert_eq!(finished.index, reference.index, "cut {cut}");
        }
    }

    #[test]
    fn evict_to_exactly_m_points_leaves_one_window() {
        let series = test_series(100);
        let m = 8;
        let mut monitor = StreamingDiscordMonitor::new(m);
        monitor.append(&series);
        monitor.evict(series.len() - m).unwrap();
        assert_eq!(monitor.series_len(), m);
        assert_eq!(monitor.window_count(), 1);
        let finished = monitor.finish();
        let reference = stamp_with_exclusion(&series[series.len() - m..], m, m / 2);
        assert_eq!(finished.profile, reference.profile);
        assert_eq!(finished.index, reference.index);
    }

    #[test]
    fn evict_below_minimum_errors_without_state_change() {
        let series = test_series(60);
        let m = 10;
        let mut monitor = StreamingDiscordMonitor::new(m);
        monitor.append(&series);
        monitor.run_for(usize::MAX);
        let before = monitor.snapshot();
        // A non-empty suffix shorter than m must be rejected…
        assert_eq!(
            monitor.evict(55),
            Err(EvictError::BelowMinimum {
                remaining: 5,
                minimum: m
            })
        );
        // …as must reaching past the stream.
        assert_eq!(
            monitor.evict(61),
            Err(EvictError::PastEnd {
                requested: 61,
                available: 60
            })
        );
        // Atomic rejection: nothing moved.
        assert_eq!(monitor.series_len(), 60);
        assert_eq!(monitor.stream_offset(), 0);
        assert_eq!(monitor.epochs(), 1);
        let after = monitor.snapshot();
        assert_eq!(after.profile, before.profile);
        assert_eq!(after.index, before.index);
    }

    #[test]
    fn evict_everything_then_append_restarts_cleanly() {
        let series = test_series(150);
        let m = 7;
        let exc = m / 2;
        let mut monitor = StreamingDiscordMonitor::with_exclusion(m, exc);
        monitor.append(&series[..90]);
        monitor.run_for(20);
        monitor.evict(90).unwrap();
        assert_eq!(monitor.series_len(), 0);
        assert_eq!(monitor.window_count(), 0);
        assert_eq!(monitor.stream_offset(), 90);
        assert!(monitor.snapshot().is_empty());
        assert!(!monitor.step());
        // A fresh stream begins, warm-up and all.
        monitor.append(&series[90..93]);
        assert_eq!(monitor.window_count(), 0, "back in warm-up");
        monitor.append(&series[93..]);
        let finished = monitor.finish();
        let reference = stamp_with_exclusion(&series[90..], m, exc);
        assert_eq!(finished.profile, reference.profile);
        assert_eq!(finished.index, reference.index);
        assert_eq!(monitor.stream_offset(), 90);
    }

    #[test]
    fn one_point_evictions_mirror_one_point_appends() {
        let series = test_series(90);
        let m = 6;
        let exc = m / 2;
        let mut monitor = StreamingDiscordMonitor::with_exclusion(m, exc);
        monitor.append(&series);
        for step in 1..=20usize {
            monitor.evict(1).unwrap();
            assert_eq!(monitor.stream_offset(), step);
            monitor.run_for(3);
        }
        let finished = monitor.finish();
        let reference = stamp_with_exclusion(&series[20..], m, exc);
        assert_eq!(finished.profile, reference.profile);
        assert_eq!(finished.index, reference.index);
    }

    #[test]
    fn evict_during_warmup_only_full_drain_is_valid() {
        let mut monitor = StreamingDiscordMonitor::new(8);
        monitor.append(&[1.0, 2.0, 3.0]);
        assert_eq!(
            monitor.evict(1),
            Err(EvictError::BelowMinimum {
                remaining: 2,
                minimum: 8
            })
        );
        monitor.evict(3).unwrap();
        assert_eq!(monitor.series_len(), 0);
        assert_eq!(monitor.stream_offset(), 3);
    }

    #[test]
    fn evict_zero_is_a_noop() {
        let series = test_series(80);
        let mut monitor = StreamingDiscordMonitor::new(8);
        monitor.append(&series);
        monitor.run_for(10);
        let epochs = monitor.epochs();
        monitor.evict(0).unwrap();
        assert_eq!(monitor.epochs(), epochs);
        assert_eq!(monitor.processed(), 10);
    }

    #[test]
    fn retain_last_policy_trims_on_every_append() {
        let series = test_series(400);
        let m = 8;
        let exc = m / 2;
        let mut monitor = StreamingDiscordMonitor::with_exclusion(m, exc);
        assert_eq!(monitor.retain_last(100), Ok(0));
        assert_eq!(monitor.retention(), Some(100));
        for part in series.chunks(30) {
            monitor.append(part);
            assert!(monitor.series_len() <= 100);
            monitor.run_for(11);
        }
        assert_eq!(monitor.series_len(), 100);
        assert_eq!(monitor.stream_offset(), 300);
        let finished = monitor.finish();
        let reference = stamp_with_exclusion(&series[300..], m, exc);
        assert_eq!(finished.profile, reference.profile);
        assert_eq!(finished.index, reference.index);
    }

    /// An append that overflows a `retain_last(n)` policy trims before
    /// it builds the engine. It must leave the monitor exactly where an
    /// unbounded twin lands by appending and then evicting the excess
    /// itself: the same epoch salts, queue order, folds and counters,
    /// after every append, eviction and step.
    #[test]
    fn retention_trim_equals_an_explicit_eviction() {
        let series = test_series(320);
        let (m, n) = (8, 100);
        let mut trimmed = StreamingDiscordMonitor::with_seed(m, m / 2, 17);
        trimmed.retain_last(n).unwrap();
        let mut twin = StreamingDiscordMonitor::with_seed(m, m / 2, 17);
        let same = |a: &StreamingDiscordMonitor, b: &StreamingDiscordMonitor, at: &str| {
            assert_eq!(a.series(), b.series(), "{at}");
            assert_eq!(a.pending(), b.pending(), "{at}");
            assert_eq!(a.processed(), b.processed(), "{at}");
            assert_eq!(a.epochs(), b.epochs(), "{at}");
            assert_eq!(a.stream_offset(), b.stream_offset(), "{at}");
            assert_eq!(a.snapshot(), b.snapshot(), "{at}");
            assert_eq!(a.metrics(), b.metrics(), "{at}");
        };
        // Point counts after each op: 5 (warm-up), 100 (first windows
        // and a trim in one append), 60, 80 (a carry), 100 (trim), 60,
        // 90 (a carry), 100 (trim), 100 (one-point trim), 100 (trim).
        let schedule = [
            ("append", 5),
            ("append", 110),
            ("step", 9),
            ("evict", 40),
            ("append", 20),
            ("step", 30),
            ("append", 50),
            ("step", 2),
            ("evict", 40),
            ("append", 30),
            ("step", 70),
            ("append", 64),
            ("step", 5),
            ("append", 1),
            ("step", 40),
            ("append", 40),
        ];
        let mut fed = 0;
        for (k, &(op, amount)) in schedule.iter().enumerate() {
            match op {
                "append" => {
                    let part = &series[fed..fed + amount];
                    fed += amount;
                    trimmed.append(part);
                    twin.append(part);
                    twin.evict(twin.series_len().saturating_sub(n)).unwrap();
                    same(&trimmed, &twin, &format!("op {k}: append {amount}"));
                }
                "evict" => {
                    trimmed.evict(amount).unwrap();
                    twin.evict(amount).unwrap();
                    same(&trimmed, &twin, &format!("op {k}: evict {amount}"));
                }
                _ => {
                    for i in 0..amount {
                        assert_eq!(trimmed.step(), twin.step(), "op {k}: step {i}");
                        same(&trimmed, &twin, &format!("op {k}: step {i}"));
                    }
                }
            }
        }
        assert_eq!(fed, series.len());
        assert_eq!(trimmed.series(), &series[series.len() - n..]);
        assert_eq!(trimmed.finish(), twin.finish());
    }

    /// The engine's transform size is the live series' next power of
    /// two: appends that cross a power of two grow it, and evictions
    /// that shrink the series below one shrink it back.
    #[test]
    fn padded_size_follows_the_live_series() {
        let series = test_series(700);
        let expected =
            |monitor: &StreamingDiscordMonitor| monitor.series_len().next_power_of_two().max(2);
        let mut monitor = StreamingDiscordMonitor::new(8);
        monitor.append(&series[..5]);
        assert_eq!(monitor.padded_size(), 0, "no window yet");
        let mut fed = 5;
        // 100, 128, 129, 132, 632 and 700 points.
        for chunk in [95, 28, 1, 3, 500, 68] {
            monitor.append(&series[fed..fed + chunk]);
            fed += chunk;
            assert_eq!(monitor.padded_size(), expected(&monitor), "{fed} points");
        }
        assert_eq!(monitor.padded_size(), 1024);
        // 512, 511, 211, 11 and 8 points.
        for cut in [188, 1, 300, 200, 3] {
            monitor.evict(cut).unwrap();
            let live = monitor.series_len();
            assert_eq!(monitor.padded_size(), expected(&monitor), "{live} points");
        }
        assert_eq!(monitor.padded_size(), 8);
        monitor.evict(8).unwrap();
        assert_eq!(monitor.padded_size(), 0, "no window left");
    }

    /// An empty append is not an ingest event: the epoch does not
    /// advance, nothing is queued or rebuilt, and no metric moves —
    /// before the first window, and mid-epoch with a carry live.
    #[test]
    fn append_of_no_points_changes_nothing() {
        let series = test_series(140);
        let mut monitor = StreamingDiscordMonitor::new(8);
        let unchanged = |monitor: &mut StreamingDiscordMonitor| {
            let (bytes, stats) = (monitor.checkpoint_bytes().unwrap(), monitor.metrics());
            let (epochs, padded) = (monitor.epochs(), monitor.padded_size());
            monitor.append(&[]);
            assert_eq!(monitor.checkpoint_bytes().unwrap(), bytes);
            assert_eq!(monitor.metrics(), stats);
            assert_eq!((monitor.epochs(), monitor.padded_size()), (epochs, padded));
        };
        unchanged(&mut monitor);
        monitor.append(&series[..5]);
        unchanged(&mut monitor);
        monitor.append(&series[5..120]);
        monitor.run_for(30);
        monitor.append(&series[120..]);
        monitor.run_for(10);
        unchanged(&mut monitor);
    }

    /// The series is the monitor's one record of the stream: through
    /// warm-up, the first window, appends, evictions, retention trims
    /// and a full drain it holds exactly the points appended and not
    /// yet evicted, and the engine spans exactly its windows.
    #[test]
    fn series_is_every_point_not_yet_evicted() {
        let stream = test_series(300);
        let m = 8;
        let mut monitor = StreamingDiscordMonitor::new(m);
        let (mut fed, mut offset) = (0, 0);
        let schedule = [
            ("append", 3),
            ("append", 4),
            ("append", 1),
            ("evict", 8),
            ("append", 50),
            ("evict", 10),
            ("retain", 60),
            ("append", 100),
            ("append", 7),
            ("evict", 52),
            ("append", 2),
        ];
        for (op, amount) in schedule {
            match op {
                "append" => {
                    monitor.append(&stream[fed..fed + amount]);
                    fed += amount;
                }
                "evict" => {
                    monitor.evict(amount).unwrap();
                    offset += amount;
                }
                _ => offset += monitor.retain_last(amount).unwrap(),
            }
            // Under a retention policy only the last `n` points survive.
            offset = offset.max(fed.saturating_sub(monitor.retention().unwrap_or(fed)));
            let live = &stream[offset..fed];
            assert_eq!(monitor.series(), live, "after {op} {amount}");
            assert_eq!(monitor.stream_offset(), offset, "after {op} {amount}");
            assert_eq!(monitor.window_count(), (live.len() + 1).saturating_sub(m));
        }
        assert_eq!((offset, fed), (157, 167));
    }

    /// End to end against the per-pair definition: a monitor grown and
    /// trimmed several times finishes within 1e-6 of the brute-force
    /// matrix profile of its live series, an oracle that shares no code
    /// with MASS.
    #[test]
    fn evolved_monitor_matches_the_brute_force_profile() {
        let stream = test_series(260);
        let m = 10;
        let mut monitor = StreamingDiscordMonitor::with_exclusion(m, m / 2);
        monitor.append(&stream[..90]);
        monitor.run_for(20);
        monitor.append(&stream[90..170]);
        monitor.evict(35).unwrap();
        monitor.run_for(15);
        monitor.append(&stream[170..]);
        monitor.evict(20).unwrap();
        let live = &stream[55..];
        assert_eq!(monitor.series(), live);
        let finished = monitor.finish();
        let brute = crate::brute::brute_force(live, m, m / 2);
        assert_eq!(finished.len(), brute.len());
        for (i, (d, b)) in finished.profile.iter().zip(&brute.profile).enumerate() {
            assert!((d - b).abs() < 1e-6, "entry {i}: {d} vs {b}");
        }
    }

    /// After appends and a retention trim, the monitor's queries run on
    /// the engine built over its live series in the trim's epoch
    /// order: after `k` queries the snapshot is, bit for bit, the STAMP
    /// fold over `MassPrecomputed::new(series)` of the first `k`
    /// windows of that order.
    #[test]
    fn queries_after_a_trim_run_on_the_suffix_engine() {
        let stream = test_series(260);
        let (m, exc) = (8, 4);
        let mut monitor = StreamingDiscordMonitor::with_seed(m, exc, 5);
        monitor.retain_last(150).unwrap();
        monitor.append(&stream[..120]);
        monitor.run_for(30);
        monitor.append(&stream[120..]);
        assert_eq!(monitor.series(), &stream[110..]);
        let count = monitor.window_count();
        assert_eq!(monitor.pending(), count, "the trim requeues every window");
        let order = monitor.epoch_order(0, count);
        let mass = MassPrecomputed::new(&stream[110..], m);
        let mut profile = vec![f64::INFINITY; count];
        let mut index = vec![usize::MAX; count];
        let (mut scratch, mut dp) = (MassScratch::default(), Vec::new());
        let mut folded = 0;
        for k in [1, 17, 60, count] {
            assert_eq!(monitor.run_for(k - folded), k - folded);
            for &q in &order[folded..k] {
                mass.distance_profile_into(q, &mut scratch, &mut dp);
                update_from_profile(q, &dp, exc, &mut profile, &mut index);
            }
            folded = k;
            let snapshot = monitor.snapshot();
            assert_eq!(snapshot.profile, profile, "after {k} queries");
            assert_eq!(snapshot.index, index, "after {k} queries");
        }
    }

    #[test]
    fn retain_last_below_m_is_rejected() {
        let mut monitor = StreamingDiscordMonitor::new(16);
        assert_eq!(
            monitor.retain_last(15),
            Err(EvictError::BelowMinimum {
                remaining: 15,
                minimum: 16
            })
        );
        assert_eq!(monitor.retention(), None);
    }

    // ------------------------------------------------------------------
    // Checkpoint/restore: pinned mid-schedule round trips. The property
    // harness in tests/checkpoint_proptests.rs injects save/restore at
    // every prefix of random schedules; these pin the structural edges.
    // ------------------------------------------------------------------

    #[test]
    fn checkpoint_round_trip_resumes_bit_identically() {
        let series = test_series(300);
        let m = 9;
        let exc = m / 2;
        let mut live = StreamingDiscordMonitor::with_seed(m, exc, 7);
        live.append(&series[..180]);
        live.run_for(55); // mid-epoch: fold, pending, and carry all populated
        live.append(&series[180..240]);
        live.run_for(13);
        live.evict(40).unwrap();
        live.run_for(21);
        live.append(&series[240..]);
        live.run_for(17);

        let bytes = live.checkpoint_bytes().unwrap();
        let mut restored = StreamingDiscordMonitor::from_checkpoint_bytes(&bytes).unwrap();
        assert_eq!(restored.stream_offset(), live.stream_offset());
        assert_eq!(restored.epochs(), live.epochs());
        assert_eq!(restored.pending(), live.pending());
        let (a, b) = (restored.snapshot(), live.snapshot());
        assert_eq!(a.profile, b.profile);
        assert_eq!(a.index, b.index);

        // Replay the identical remainder on both: every intermediate
        // snapshot and the finish must stay bitwise in lockstep.
        for monitor in [&mut live, &mut restored] {
            monitor.run_for(29);
            monitor.append(&series[..50]);
            monitor.run_for(11);
            monitor.evict(23).unwrap();
        }
        let (a, b) = (restored.snapshot(), live.snapshot());
        assert_eq!(a.profile, b.profile);
        let (fa, fb) = (restored.finish(), live.finish());
        assert_eq!(fa.profile, fb.profile);
        assert_eq!(fa.index, fb.index);
    }

    #[test]
    fn checkpoint_during_warmup_round_trips() {
        let mut live = StreamingDiscordMonitor::new(8);
        live.append(&[1.0, 2.0, 3.0]);
        let mut restored =
            StreamingDiscordMonitor::from_checkpoint_bytes(&live.checkpoint_bytes().unwrap())
                .unwrap();
        assert_eq!(restored.series_len(), 3);
        assert_eq!(restored.window_count(), 0);
        let tail = test_series(120);
        live.append(&tail);
        restored.append(&tail);
        let (fa, fb) = (restored.finish(), live.finish());
        assert_eq!(fa.profile, fb.profile);
        assert_eq!(fa.index, fb.index);
    }

    #[test]
    fn checkpoint_round_trips_retention_policy() {
        let series = test_series(400);
        let m = 8;
        let mut live = StreamingDiscordMonitor::new(m);
        live.retain_last(120).unwrap();
        live.append(&series[..300]);
        live.run_for(31);
        let mut restored =
            StreamingDiscordMonitor::from_checkpoint_bytes(&live.checkpoint_bytes().unwrap())
                .unwrap();
        assert_eq!(restored.retention(), Some(120));
        // The policy keeps trimming on the restored side.
        live.append(&series[300..]);
        restored.append(&series[300..]);
        assert_eq!(restored.series_len(), 120);
        assert_eq!(restored.stream_offset(), live.stream_offset());
        let (fa, fb) = (restored.finish(), live.finish());
        assert_eq!(fa.profile, fb.profile);
        assert_eq!(fa.index, fb.index);
    }

    #[test]
    fn checkpoint_of_a_caught_up_monitor_restores_current() {
        let series = test_series(200);
        let m = 8;
        let mut live = StreamingDiscordMonitor::new(m);
        live.append(&series[..150]);
        live.run_for(30);
        live.append(&series[150..]);
        let finished = live.finish();
        let mut restored =
            StreamingDiscordMonitor::from_checkpoint_bytes(&live.checkpoint_bytes().unwrap())
                .unwrap();
        assert!(restored.is_current());
        assert_eq!(restored.processed(), restored.window_count());
        let snap = restored.snapshot();
        assert_eq!(snap.profile, finished.profile);
        assert_eq!(snap.index, finished.index);
        assert!(!restored.step());
        // The next append re-queues every window on both sides alike.
        live.append(&series[..20]);
        restored.append(&series[..20]);
        assert_eq!(restored.pending(), live.pending());
        let (fa, fb) = (restored.finish(), live.finish());
        assert_eq!(fa.profile, fb.profile);
        assert_eq!(fa.index, fb.index);
    }

    #[test]
    fn restored_monitor_counts_metrics_from_zero() {
        let series = test_series(120);
        let mut live = StreamingDiscordMonitor::new(8);
        live.append(&series);
        live.run_for(25);
        assert_eq!(live.metrics().steps, 25);
        let mut restored =
            StreamingDiscordMonitor::from_checkpoint_bytes(&live.checkpoint_bytes().unwrap())
                .unwrap();
        assert_eq!(restored.metrics(), SessionStats::default());
        restored.finish();
        let stats = restored.metrics();
        assert_eq!(stats.steps, (restored.window_count() - 25) as u64);
        assert_eq!((stats.appends, stats.caught_up), (0, 1));
    }

    #[test]
    fn checkpoint_rejects_malformed_input_with_typed_errors() {
        let series = test_series(150);
        let mut monitor = StreamingDiscordMonitor::new(8);
        monitor.append(&series);
        monitor.run_for(40);
        let bytes = monitor.checkpoint_bytes().unwrap();

        // Wrong magic.
        let mut foreign = bytes.clone();
        foreign[0] ^= 0xFF;
        assert!(matches!(
            StreamingDiscordMonitor::from_checkpoint_bytes(&foreign),
            Err(CheckpointError::BadMagic)
        ));
        // Truncation anywhere must surface as an error, never a panic.
        for cut in [0, 7, 8, 15, 16, 40, bytes.len() - 1] {
            assert!(
                StreamingDiscordMonitor::from_checkpoint_bytes(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
        // A flipped payload byte fails the section checksum.
        let mut flipped = bytes.clone();
        let target = flipped.len() / 2;
        flipped[target] ^= 0x10;
        assert!(StreamingDiscordMonitor::from_checkpoint_bytes(&flipped).is_err());
    }

    /// Monitor-section fields in `save_checkpoint`'s layout (exclusion
    /// `m / 2`, the default seed), plus the engine series if any.
    #[derive(Clone)]
    struct Frame {
        m: usize,
        retention: Option<usize>,
        warmup: Vec<f64>,
        fold: Vec<f64>,
        fold_index: Vec<usize>,
        pending: Vec<usize>,
        done: Vec<usize>,
        carry: Option<(Vec<f64>, Vec<usize>)>,
        series: Option<Vec<f64>>,
    }

    /// Windows of [`Frame::fresh`]: 16 points at `m = 8`.
    const FRAME_WINDOWS: usize = 9;

    impl Frame {
        /// 16 points at `m = 8`: every window queued, nothing folded.
        fn fresh() -> Self {
            Self {
                m: 8,
                retention: None,
                warmup: Vec::new(),
                fold: vec![f64::INFINITY; FRAME_WINDOWS],
                fold_index: vec![usize::MAX; FRAME_WINDOWS],
                pending: (0..FRAME_WINDOWS).collect(),
                done: Vec::new(),
                carry: None,
                series: Some(test_series(16)),
            }
        }

        /// Three points at `m = 8`: still warming up, no engine.
        fn warming() -> Self {
            Self {
                warmup: test_series(3),
                fold: Vec::new(),
                fold_index: Vec::new(),
                pending: Vec::new(),
                series: None,
                ..Self::fresh()
            }
        }

        /// Every window folded in this epoch.
        fn caught_up() -> Self {
            let mut frame = Self::fresh();
            frame.fold = vec![0.5; FRAME_WINDOWS];
            frame.fold_index = (0..FRAME_WINDOWS).rev().collect();
            frame.done = std::mem::take(&mut frame.pending);
            frame
        }

        /// Mid-epoch after an append: part folded, a carry live.
        fn carrying() -> Self {
            let mut frame = Self::fresh();
            frame.done = frame.pending.split_off(4);
            frame.carry = Some(Self::empty_carry());
            frame
        }

        fn empty_carry() -> (Vec<f64>, Vec<usize>) {
            (
                vec![f64::INFINITY; FRAME_WINDOWS],
                vec![usize::MAX; FRAME_WINDOWS],
            )
        }

        fn with(&self, edit: impl Fn(&mut Frame)) -> Frame {
            let mut frame = self.clone();
            edit(&mut frame);
            frame
        }

        /// A checksum-valid checkpoint holding exactly these fields.
        fn bytes(&self) -> Vec<u8> {
            let mut bytes = Vec::new();
            let sections = 1 + u32::from(self.series.is_some());
            let mut out = CheckpointWriter::begin(&mut bytes, sections).unwrap();
            let mut f = FieldWriter::new();
            f.usize(self.m);
            f.usize(self.m / 2);
            f.u64(DEFAULT_MONITOR_SEED);
            f.u32(CKPT_BACKEND_TAG);
            f.u64(1);
            f.usize(0);
            f.opt_usize(self.retention);
            f.f64_slice(&self.warmup);
            f.f64_slice(&self.fold);
            f.usize_slice(&self.fold_index);
            f.usize_slice(&self.pending);
            f.usize_slice(&self.done);
            match &self.carry {
                None => f.bool(false),
                Some((cp, ci)) => {
                    f.bool(true);
                    f.f64_slice(cp);
                    f.usize_slice(ci);
                }
            }
            out.section(CKPT_SECTION_MONITOR, CKPT_MONITOR_VERSION, &f.into_bytes())
                .unwrap();
            if let Some(series) = &self.series {
                let mut f = FieldWriter::new();
                f.f64_slice(series);
                out.section(CKPT_SECTION_ENGINE, CKPT_ENGINE_VERSION, &f.into_bytes())
                    .unwrap();
            }
            bytes
        }
    }

    fn assert_all_corrupt<const N: usize>(cases: [(&str, Frame); N]) {
        for (what, frame) in cases {
            assert!(
                matches!(
                    StreamingDiscordMonitor::from_checkpoint_bytes(&frame.bytes()),
                    Err(CheckpointError::Corrupt(_))
                ),
                "{what} must load as Corrupt"
            );
        }
    }

    #[test]
    fn checkpoint_rejects_states_no_monitor_writes() {
        let (fresh, warming) = (Frame::fresh(), Frame::warming());
        let (caught_up, carrying) = (Frame::caught_up(), Frame::carrying());
        for frame in [&fresh, &warming, &caught_up, &carrying] {
            StreamingDiscordMonitor::from_checkpoint_bytes(&frame.bytes())
                .expect("a state the monitor writes must load");
        }
        assert_all_corrupt([
            (
                "NaN series point",
                fresh.with(|f| f.series.as_mut().unwrap()[5] = f64::NAN),
            ),
            (
                "infinite series point",
                fresh.with(|f| f.series.as_mut().unwrap()[0] = f64::INFINITY),
            ),
            (
                "infinite warm-up point",
                warming.with(|f| f.warmup[1] = f64::NEG_INFINITY),
            ),
            ("NaN fold entry", caught_up.with(|f| f.fold[2] = f64::NAN)),
            ("negative fold entry", caught_up.with(|f| f.fold[2] = -1.0)),
            (
                "NaN carry entry",
                carrying.with(|f| f.carry.as_mut().unwrap().0[3] = f64::NAN),
            ),
            (
                "negative carry entry",
                carrying.with(|f| f.carry.as_mut().unwrap().0[3] = -0.5),
            ),
            ("nothing pending or done", fresh.with(|f| f.pending.clear())),
            ("window missing", fresh.with(|f| f.pending.truncate(8))),
            ("window listed twice", fresh.with(|f| f.pending[8] = 0)),
            (
                "window both pending and done",
                carrying.with(|f| f.done[0] = 0),
            ),
            (
                "carry with nothing pending",
                caught_up.with(|f| f.carry = Some(Frame::empty_carry())),
            ),
        ]);
    }

    #[test]
    fn checkpoint_rejects_per_window_state_that_disagrees_with_the_series() {
        let (fresh, carrying) = (Frame::fresh(), Frame::carrying());
        let last = FRAME_WINDOWS - 1;
        assert_all_corrupt([
            (
                "series shorter than the window",
                fresh.with(|f| f.series = Some(test_series(7))),
            ),
            (
                "warm-up points beside an engine",
                fresh.with(|f| f.warmup = test_series(2)),
            ),
            (
                "fold one window short",
                fresh.with(|f| {
                    f.fold.pop();
                    f.fold_index.pop();
                }),
            ),
            (
                "fold neighbor past the last window",
                fresh.with(|f| f.fold_index[0] = FRAME_WINDOWS),
            ),
            (
                "queued window past the last one",
                fresh.with(|f| f.pending[last] = FRAME_WINDOWS),
            ),
            (
                "carry one window short",
                carrying.with(|f| {
                    let (cp, ci) = f.carry.as_mut().unwrap();
                    cp.pop();
                    ci.pop();
                }),
            ),
            (
                "carry neighbor past the last window",
                carrying.with(|f| f.carry.as_mut().unwrap().1[0] = FRAME_WINDOWS),
            ),
        ]);
    }

    #[test]
    fn checkpoint_rejects_warmup_state_no_monitor_writes() {
        let warming = Frame::warming();
        StreamingDiscordMonitor::from_checkpoint_bytes(
            &warming.with(|f| f.retention = Some(8)).bytes(),
        )
        .expect("retention of exactly m loads");
        assert_all_corrupt([
            ("zero window", warming.with(|f| f.m = 0)),
            (
                "retention below the window",
                warming.with(|f| f.retention = Some(7)),
            ),
            (
                "a full window still warming up",
                warming.with(|f| f.warmup = test_series(8)),
            ),
            (
                "a queue without an engine",
                warming.with(|f| f.pending = vec![0]),
            ),
            (
                "a carry without an engine",
                warming.with(|f| f.carry = Some((Vec::new(), Vec::new()))),
            ),
        ]);
    }

    /// The one series field keeps the v1 layout: before the first
    /// window the series travels in the monitor section's warm-up field
    /// and no engine section is written; from the first window on it
    /// travels in the engine section and the warm-up field is empty.
    #[test]
    fn checkpoint_layout_is_the_frame_layout() {
        let mut warming = StreamingDiscordMonitor::new(8);
        warming.append(&test_series(3));
        assert_eq!(
            warming.checkpoint_bytes().unwrap(),
            Frame::warming().bytes()
        );
        let mut fresh = StreamingDiscordMonitor::new(8);
        fresh.append(&test_series(16));
        let order = fresh.epoch_order(0, FRAME_WINDOWS);
        let frame = Frame::fresh().with(|f| f.pending = order.clone());
        assert_eq!(fresh.checkpoint_bytes().unwrap(), frame.bytes());
    }

    /// The engine is not in the checkpoint: a restore rebuilds it from
    /// the saved series — none while warming up, and otherwise the
    /// engine the live monitor holds, so the next query of either side
    /// folds the same distances.
    #[test]
    fn restore_rebuilds_the_engine_of_the_saved_series() {
        let series = test_series(260);
        let mut live = StreamingDiscordMonitor::new(8);
        live.retain_last(200).unwrap();
        let mut fed = 0;
        for (end, steps) in [(5, 0), (70, 12), (150, 30), (260, 9)] {
            live.append(&series[fed..end]);
            fed = end;
            live.run_for(steps);
            let bytes = live.checkpoint_bytes().unwrap();
            let mut restored = StreamingDiscordMonitor::from_checkpoint_bytes(&bytes).unwrap();
            assert_eq!(restored.series(), live.series(), "{end} points");
            assert_eq!(restored.padded_size(), live.padded_size(), "{end} points");
            assert_eq!(restored.window_count(), live.window_count(), "{end} points");
            let mut twin = live.clone();
            assert_eq!(restored.step(), twin.step(), "{end} points");
            assert_eq!(restored.snapshot(), twin.snapshot(), "{end} points");
        }
        assert_eq!(live.padded_size(), 256);
    }

    #[test]
    fn snapshot_after_evict_stays_inside_the_live_window() {
        let series = test_series(200);
        let m = 8;
        let mut monitor = StreamingDiscordMonitor::new(m);
        monitor.append(&series);
        monitor.run_for(usize::MAX);
        monitor.evict(60).unwrap();
        let windows = monitor.window_count();
        // All evidence was discarded (stale entries could cite retired
        // neighbors); re-tightening stays in local coordinates.
        let snap = monitor.snapshot();
        assert!(snap.profile.iter().all(|d| d.is_infinite()));
        monitor.run_for(25);
        let snap = monitor.snapshot();
        for &idx in &snap.index {
            assert!(idx == usize::MAX || idx < windows, "index {idx} escaped");
        }
        for d in monitor.discords(3) {
            assert!(d.start < windows);
        }
    }
}
