//! Online (append-to-series) discord monitoring.
//!
//! [`StreamingDiscordMonitor`] owns a growing time series and keeps its
//! matrix profile — and therefore its discord set — current as points
//! are appended, under hard wall-clock latency budgets between appends:
//! ingest a chunk of live traffic, spend a bounded slice of time
//! tightening the profile, answer "best discords so far", repeat.
//!
//! # Architecture
//!
//! The monitor runs the crate's one matrix-profile kernel
//! ([`mod@crate::stomp`]) over its live series. It holds:
//!
//! * the **live series** and its [`WindowStats`], which an append
//!   extends over the new windows and an eviction drains at the front.
//!   Each entry is computed over its own points, so the stats always
//!   equal a fresh computation over the live series;
//! * per admissible diagonal, the kernel's **progress**: the row of the
//!   diagonal's next cell and the centered covariance of the cell before
//!   it;
//! * the **fold**: the partial matrix profile of every cell computed
//!   since the last eviction, under the shared `(distance, index)` rule
//!   of [`crate::profile::improves`], with each entry's correlation
//!   limit beside it. A snapshot is the fold's profile and index.
//!
//! A unit, an append's new cells and a restore's replay all walk cells
//! with the kernel ([`mod@crate::stomp`]): each walked cell pays one
//! covariance update, one correlation and one compare, and only a cell
//! whose correlation reaches the lower of its two ends' limits pays the
//! distance and the fold. The bound is exact, so the fold is bit for bit
//! the fold of every walked cell. The limits are derived state: an
//! eviction drops them with the fold, and a restore rebuilds them as it
//! replays, so no checkpoint holds them.
//!
//! Every cell is a function of the live window's points alone, so once
//! every cell is computed the fold is bit-identical to batch
//! [`stomp()`](crate::stomp::stomp) over the live series, whatever
//! schedule of appends, evictions, units, checkpoints and workers led
//! there.
//!
//! # Appends and evictions
//!
//! * An **append** of `c` points adds `c` rows to every diagonal (and
//!   new diagonals). Each diagonal is extended from its stored
//!   covariance, so the append costs `O(c·N)` cells over `N` windows,
//!   plus `O(c·m)` for the new windows' statistics. Every cell computed
//!   before the append is a cell of the grown profile too, so the fold
//!   is kept.
//! * An **eviction** moves every diagonal's first row, and a diagonal
//!   seeded at its new first row rounds differently from one walked
//!   past it. So an eviction re-seeds every diagonal and drops the fold,
//!   whose entries may cite evicted neighbors: `O(N²)` cells to restore
//!   full coverage, paid through the usual step budget. Callers should
//!   batch evictions. Under a
//!   [`retain_last`](StreamingDiscordMonitor::retain_last) policy an
//!   append that overflows the retention trims first, so it re-seeds
//!   once.
//!
//! [`StreamingDiscordMonitor::evict`] and
//! [`StreamingDiscordMonitor::retain_last`] bound the monitor's memory
//! for indefinitely-running streams. All indices are *local to the live
//! window*; the global position of local index `i` is
//! `stream_offset() + i` via [`StreamingDiscordMonitor::stream_offset`].
//!
//! # Units: the anytime matrix profile
//!
//! A monitor fed one series is an anytime matrix profile: every unit of
//! work adds exact cells, so the run can stop at any point and still
//! hand back an upper bound on the final profile.
//!
//! * After every append and eviction, the diagonals with cells left are
//!   queued in a seeded pseudo-random order ([`pseudo_random_order`],
//!   salted with the epoch count), as SCRIMP++ does (Zhu et al., ICDM
//!   2018), so the partial profile converges evenly across the series
//!   instead of along the main diagonal.
//! * One **unit** ([`step`](StreamingDiscordMonitor::step)) is a run of
//!   consecutive diagonals of that order, cut to about one window count
//!   of cells.
//! * [`run_for`](StreamingDiscordMonitor::run_for) spends a unit budget
//!   and [`run_until`](StreamingDiscordMonitor::run_until) a
//!   [`Deadline`](egi_tskit::Deadline). The deadline is checked before
//!   each unit, so it is overshot by at most one unit's work.
//! * [`finish`](StreamingDiscordMonitor::finish) splits the pending
//!   diagonals across rayon workers, and steps them when one worker or
//!   one diagonal is left.
//!
//! # Convergence contract
//!
//! * Every snapshot entry is an exact cell (or `+∞`), so it is an upper
//!   bound on the final profile.
//! * Snapshots never loosen between evictions: a unit and an append only
//!   add cells, and an append's new windows start at `+∞`.
//! * An eviction resets every entry to `+∞`.
//! * [`StreamingDiscordMonitor::finish`], for every rayon worker count,
//!   returns a profile bit-identical to
//!   [`stomp_with_exclusion`](crate::stomp::stomp_with_exclusion) over
//!   the live series — property-tested across append, evict, step and
//!   checkpoint schedules, seeds and worker counts.

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

use crate::dist::WindowStats;
use crate::profile::{Discord, MatrixProfile};
use crate::stomp::{default_exclusion, walk, walk_all, Diagonal, Fold};

/// Seed used by [`StreamingDiscordMonitor::new`] when the caller does
/// not pick one.
pub const DEFAULT_MONITOR_SEED: u64 = 0x5EED_CAFE;

/// Deterministic pseudo-random permutation of `0..n` (SplitMix64-keyed
/// Fisher–Yates).
///
/// Sets the monitor's per-epoch diagonal order, where the literature
/// prescribes "random" but reproducibility demands a seeded generator.
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
/// See the [module docs](self) for the architecture, the unit of work,
/// and the convergence contract.
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
///     monitor.run_for(chunk.len());        // …extend the diagonals
/// }
/// let top = monitor.discords(1);           // best discord so far
/// assert!((170..=190).contains(&top[0].start), "found {}", top[0].start);
///
/// // Once caught up, the profile is bit-identical to batch STOMP.
/// let finished = monitor.finish();
/// let batch = egi_discord::stomp(&series, m);
/// assert_eq!(finished.profile, batch.profile);
/// assert_eq!(finished.index, batch.index);
/// ```
#[derive(Debug, Clone)]
pub struct StreamingDiscordMonitor {
    m: usize,
    exclusion: usize,
    seed: u64,
    /// Epoch (salts the per-epoch diagonal order), stream offset, and
    /// retention bookkeeping — the [`StreamClock`] shared by every
    /// [`StreamSession`] implementor.
    clock: StreamClock,
    /// The live series: every point appended and not yet evicted.
    series: Vec<f64>,
    /// Statistics of every window of `series`.
    windows: WindowStats,
    /// The kernel's progress along diagonal `exclusion + 1 + d`, at `d`.
    diagonals: Vec<Diagonal>,
    /// The diagonals with cells left, in the epoch's seeded order.
    pending: VecDeque<usize>,
    /// How many diagonals of `pending`, front first, each unit holds.
    units: VecDeque<usize>,
    /// Units run since the last append or eviction.
    processed: usize,
    /// The fold of every cell computed since the last eviction.
    fold: Fold,
    /// Lifetime telemetry (appends, units served, staleness) — pure
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
    /// and diagonal-order seed. The seed affects only the order pending
    /// diagonals are walked in, never any finished profile.
    pub fn with_seed(m: usize, exclusion: usize, seed: u64) -> Self {
        assert!(m > 0, "window must be positive");
        Self {
            m,
            exclusion,
            seed,
            clock: StreamClock::new(),
            series: Vec::new(),
            windows: WindowStats::empty(m),
            diagonals: Vec::new(),
            pending: VecDeque::new(),
            units: VecDeque::new(),
            processed: 0,
            fold: Fold::default(),
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
        self.windows.count()
    }

    /// Units awaiting processing in the current epoch.
    pub fn pending(&self) -> usize {
        self.units.len()
    }

    /// Units run since the last append or eviction.
    pub fn processed(&self) -> usize {
        self.processed
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

    /// `true` once every cell of the current series is in the fold —
    /// from here, [`StreamingDiscordMonitor::snapshot`] is
    /// bit-identical to batch STOMP on the ingested series.
    pub fn is_current(&self) -> bool {
        self.units.is_empty()
    }

    /// Lifetime telemetry for this monitor: appends, evictions, units
    /// served, and staleness (points appended since the fold last
    /// caught up). Pure `u64` counters — reading or keeping them never
    /// touches the numeric path — and deliberately not part of
    /// checkpoints (a restored monitor starts from zero).
    pub fn metrics(&self) -> SessionStats {
        self.stats
    }

    /// The first diagonal outside the exclusion zone.
    fn first_diagonal(&self) -> usize {
        self.exclusion.saturating_add(1)
    }

    /// Starts the epoch of an append or an eviction: extends the window
    /// statistics over the live series (an eviction may follow an
    /// append that left them to it), grows the fold and the diagonal
    /// progress to the live windows, queues every diagonal with cells
    /// left in the epoch's seeded order, and cuts the queue into units.
    fn start_epoch(&mut self) {
        self.windows.extend(&self.series);
        let (count, first) = (self.window_count(), self.first_diagonal());
        self.fold.resize(count);
        self.diagonals
            .resize(count.saturating_sub(first), Diagonal::default());
        let salt = self
            .seed
            .wrapping_add(self.clock.epochs().wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let diagonals = &self.diagonals;
        self.pending.clear();
        self.pending.extend(
            pseudo_random_order(diagonals.len(), salt)
                .into_iter()
                .filter(|&d| diagonals[d].next < count - first - d)
                .map(|d| first + d),
        );
        self.processed = 0;
        self.cut_units();
    }

    /// Cuts the pending diagonals, front first, into units of at least
    /// one window count of cells each (the last one may hold fewer).
    fn cut_units(&mut self) {
        let (count, first) = (self.window_count(), self.first_diagonal());
        self.units.clear();
        let (mut cells, mut size) = (0, 0);
        for &k in &self.pending {
            cells += count - k - self.diagonals[k - first].next;
            size += 1;
            if cells >= count {
                self.units.push_back(size);
                (cells, size) = (0, 0);
            }
        }
        if size > 0 {
            self.units.push_back(size);
        }
    }

    /// Ingests new points. Never blocks on profile work: the append
    /// computes the new windows' statistics (`O(m)` each) and queues
    /// the epoch, and all cells are deferred to [`step`](Self::step) /
    /// [`run_until`](Self::run_until) so the caller controls the
    /// latency budget.
    ///
    /// Every diagonal keeps its progress, so the next units only walk
    /// the cells the new points created, and the snapshot keeps every
    /// cell computed so far. Under a [`retain_last`](Self::retain_last)
    /// policy an append that overflows the retention evicts the excess
    /// at once, which re-seeds every diagonal.
    pub fn append(&mut self, points: &[f64]) {
        if points.is_empty() {
            return;
        }
        let span = egi_obs::SpanTimer::start();
        self.clock.record_append();
        self.series.extend_from_slice(points);
        let excess = self.clock.excess(self.series.len());
        if excess > 0 {
            // The eviction restarts the epoch, so the queue this append
            // would have built is never needed.
            self.evict(excess)
                .expect("retention >= m leaves a viable suffix");
        } else {
            self.start_epoch();
        }
        self.stats
            .record_append(points.len() as u64, self.is_current());
        span.record(egi_obs::histogram!("egi_monitor_append_nanos"));
    }

    /// Retires the oldest `count` points from the live window. After
    /// the eviction the monitor behaves — bit for bit, for every future
    /// operation — like a fresh monitor that ingested only the
    /// surviving suffix (plus the [`stream_offset`] bookkeeping), so
    /// [`finish`](Self::finish) lands on batch
    /// [`stomp_with_exclusion`](crate::stomp::stomp_with_exclusion)
    /// over that suffix.
    ///
    /// The fold is dropped and every diagonal re-seeded at the new first
    /// row — eviction shrinks the candidate-pair set, so pre-eviction
    /// profile entries are no longer upper bounds and may cite retired
    /// neighbors (see the [module docs](self) for the cost model).
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
    /// // The finish is batch STOMP over the surviving suffix, in local
    /// // indices.
    /// let finished = monitor.finish();
    /// let batch = egi_discord::stomp(&series[100..], 16);
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
        self.windows.evict_front(count);
        self.fold.resize(0);
        self.diagonals.clear();
        self.start_epoch();
        self.stats.record_evict(count as u64, self.is_current());
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
    /// // The finished profile is bit-identical to batch STOMP over the
    /// // surviving suffix.
    /// let finished = monitor.finish();
    /// let batch = egi_discord::stomp(&series[600 - 256..], m);
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

    /// Runs the next pending unit: walks each of its diagonals to the
    /// diagonal's last row, folding every new cell. Returns `false`
    /// when the monitor is already current.
    pub fn step(&mut self) -> bool {
        let Some(size) = self.units.pop_front() else {
            return false;
        };
        let (count, first) = (self.window_count(), self.first_diagonal());
        for k in self.pending.drain(..size) {
            walk(
                &self.series,
                &self.windows,
                k,
                &mut self.diagonals[k - first],
                count - k,
                &mut self.fold,
            );
        }
        self.processed += 1;
        self.stats.record_step(self.is_current());
        true
    }

    /// The current best-known matrix profile: the fold of every cell
    /// computed since the last eviction. Entries no cell has reached
    /// yet are `+∞` / `usize::MAX`; every other entry is an exact cell,
    /// so an upper bound on the batch profile of the ingested series.
    pub fn snapshot(&self) -> MatrixProfile {
        MatrixProfile {
            m: self.m,
            exclusion: self.exclusion,
            profile: self.fold.profile.clone(),
            index: self.fold.index.clone(),
        }
    }

    /// Top-`k` non-overlapping discords of the current snapshot — the
    /// "best discords so far" answer.
    pub fn discords(&self, k: usize) -> Vec<Discord> {
        self.snapshot().discords(k)
    }

    /// Runs every pending unit and returns the finished profile —
    /// bit-identical to
    /// [`stomp_with_exclusion`](crate::stomp::stomp_with_exclusion) on
    /// the full ingested series.
    ///
    /// When more than one diagonal is pending and rayon has more than
    /// one worker, the pending diagonals are split into one chunk per
    /// worker of about equal cells. Each worker folds its chunk into its
    /// own copy of the fold so far, whose limits prune its cells as the
    /// fold's would, and the copies merge back under
    /// [`merge_min_into`](crate::profile::merge_min_into). That merge is
    /// commutative, associative and idempotent, so the result, the diagonal state
    /// and the metrics are bit-identical to stepping every unit in
    /// turn, which is what `finish` does otherwise. The worker count
    /// follows rayon's current configuration.
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
    /// let batch = egi_discord::stomp(&series, 16);
    /// assert_eq!(finished.profile, batch.profile);
    /// assert_eq!(finished.index, batch.index);
    /// ```
    pub fn finish(&mut self) -> MatrixProfile {
        if rayon::current_num_threads() <= 1 || self.pending.len() <= 1 {
            while self.step() {}
            return self.snapshot();
        }
        let first = self.first_diagonal();
        let diagonals = self
            .pending
            .drain(..)
            .map(|k| (k, self.diagonals[k - first]))
            .collect();
        let walked = walk_all(&self.series, &self.windows, diagonals, &mut self.fold);
        for (k, diagonal) in walked {
            self.diagonals[k - first] = diagonal;
        }
        let units = self.units.len();
        self.units.clear();
        self.processed += units;
        self.stats.steps += units as u64;
        self.stats.caught_up += 1;
        self.stats.staleness_points = 0;
        self.snapshot()
    }
}

/// Section tag of the monitor-state section (`b"MON1"` little-endian).
const CKPT_SECTION_MONITOR: u32 = u32::from_le_bytes(*b"MON1");
/// Payload version of the monitor section. Version 1 held the fold and
/// the query queue of the MASS engine the kernel replaced; it is
/// rejected as [`CheckpointError::UnsupportedSection`].
const CKPT_MONITOR_VERSION: u32 = 2;

fn corrupt(what: impl Into<String>) -> CheckpointError {
    CheckpointError::Corrupt(what.into())
}

/// Persistence for the monitor (see [`Checkpoint`] for the container
/// format). The checkpoint is one section: the series, the clock, each
/// diagonal's progress, the pending diagonals in order, and the units
/// run this epoch. The window statistics, the covariances and the fold
/// are derived state: the loader recomputes the statistics from the
/// series and replays every computed cell, the same arithmetic the
/// saved monitor ran, so checkpoints stay `O(series)` small.
///
/// The loader rejects, as [`CheckpointError::Corrupt`], every
/// checksum-valid payload that no monitor could have written:
/// non-finite points, a retention below the window, progress past a
/// diagonal's length, and a pending queue that does not hold each
/// diagonal with cells left exactly once.
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
        let mut out = CheckpointWriter::begin(writer, 1)?;
        let mut f = FieldWriter::new();
        f.usize(self.m);
        f.usize(self.exclusion);
        f.u64(self.seed);
        f.u64(self.clock.epochs());
        f.usize(self.clock.offset());
        f.opt_usize(self.clock.retention());
        f.f64_slice(&self.series);
        let progress: Vec<usize> = self.diagonals.iter().map(|d| d.next).collect();
        f.usize_slice(&progress);
        let pending: Vec<usize> = self.pending.iter().copied().collect();
        f.usize_slice(&pending);
        f.usize(self.processed);
        out.section(CKPT_SECTION_MONITOR, CKPT_MONITOR_VERSION, &f.into_bytes())
    }

    fn load_checkpoint(reader: &mut impl Read) -> Result<Self, CheckpointError> {
        let mut input = CheckpointReader::begin(reader)?;
        let (version, payload) = input.section(CKPT_SECTION_MONITOR, CKPT_MONITOR_VERSION)?;
        if version != CKPT_MONITOR_VERSION {
            return Err(CheckpointError::UnsupportedSection {
                tag: CKPT_SECTION_MONITOR,
                found: version,
                supported: CKPT_MONITOR_VERSION,
            });
        }
        if input.sections_remaining() != 0 {
            return Err(corrupt("sections after the monitor section"));
        }
        let mut f = FieldReader::new(&payload);
        let m = f.usize()?;
        let exclusion = f.usize()?;
        let seed = f.u64()?;
        let epochs = f.u64()?;
        let offset = f.usize()?;
        let retention = f.opt_usize()?;
        let series = f.f64_vec()?;
        let progress = f.usize_vec()?;
        let pending = f.usize_vec()?;
        let processed = f.usize()?;
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
        if !series.iter().all(|v| v.is_finite()) {
            return Err(corrupt("series contains non-finite values"));
        }

        let mut monitor = Self::with_seed(m, exclusion, seed);
        monitor.clock = StreamClock::with_state(epochs, offset, retention);
        monitor.series = series;
        monitor.windows.extend(&monitor.series);
        let (count, first) = (monitor.window_count(), monitor.first_diagonal());
        if progress.len() != count.saturating_sub(first) {
            return Err(corrupt("progress length disagrees with the diagonal count"));
        }
        // Each diagonal with cells left is pending exactly once, and no
        // other diagonal is: a missing one would never reach the fold.
        let mut queued = vec![false; progress.len()];
        for &k in &pending {
            if k < first || k >= count {
                return Err(corrupt(format!("pending diagonal {k} out of range")));
            }
            if std::mem::replace(&mut queued[k - first], true) {
                return Err(corrupt(format!("diagonal {k} pending twice")));
            }
        }
        for (d, (&next, &queued)) in progress.iter().zip(&queued).enumerate() {
            let (k, len) = (first + d, count - first - d);
            if next > len {
                return Err(corrupt(format!(
                    "progress {next} past the {len} cells of diagonal {k}"
                )));
            }
            if queued != (next < len) {
                return Err(corrupt(format!(
                    "diagonal {k} with {} cells left is {}pending",
                    len - next,
                    if queued { "" } else { "not " }
                )));
            }
        }

        // Replay every computed cell.
        monitor.fold = Fold::new(count);
        monitor.diagonals = vec![Diagonal::default(); progress.len()];
        for (d, &next) in progress.iter().enumerate() {
            walk(
                &monitor.series,
                &monitor.windows,
                first + d,
                &mut monitor.diagonals[d],
                next,
                &mut monitor.fold,
            );
        }
        monitor.pending = pending.into();
        monitor.cut_units();
        monitor.processed = processed;
        // Telemetry describes a process, not resumable state: the
        // restored monitor's metrics start counting from zero.
        Ok(monitor)
    }
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use egi_tskit::Deadline;

    use super::*;
    use crate::stomp::stomp_with_exclusion;

    fn test_series(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                (t * 0.13).sin() * 1.2 + 0.5 * (t * 0.041).cos() + ((i * 29) % 13) as f64 * 0.06
            })
            .collect()
    }

    /// The kernel's fold of every cell of the given diagonals, each
    /// walked from its seed to its last row — what the monitor holds
    /// once exactly those diagonals have run since the last eviction.
    fn fold_of(series: &[f64], m: usize, diagonals: &[usize]) -> (Vec<f64>, Vec<usize>) {
        let ws = WindowStats::new(series, m);
        let count = ws.count();
        let mut fold = Fold::new(count);
        for &k in diagonals {
            let mut diagonal = Diagonal::default();
            walk(series, &ws, k, &mut diagonal, count - k, &mut fold);
        }
        (fold.profile, fold.index)
    }

    #[test]
    fn finished_profile_matches_the_batch_kernel_bitwise() {
        let series = test_series(240);
        let m = 8;
        let exc = m / 2;
        let reference = stomp_with_exclusion(&series, m, exc);
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
        let reference = stomp_with_exclusion(&series, m, exc);
        for seed in [0u64, 9, 0xFEED] {
            let mut monitor = StreamingDiscordMonitor::with_seed(m, exc, seed);
            for part in series.chunks(23) {
                monitor.append(part);
                monitor.run_for(3); // leave a backlog on purpose
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
        let reference = stomp_with_exclusion(&series, m, exc);
        for threads in [1usize, 2, 3, 8] {
            let mut monitor = StreamingDiscordMonitor::with_exclusion(m, exc);
            for part in series.chunks(31) {
                monitor.append(part);
                monitor.run_for(2);
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
        // Diagonals 5..=8 lie outside the exclusion zone of 4.
        let mut queued: Vec<usize> = monitor.pending.iter().copied().collect();
        queued.sort_unstable();
        assert_eq!(queued, [5, 6, 7, 8]);
        assert!(monitor.pending() >= 1);
    }

    #[test]
    fn snapshot_is_stable_across_an_append() {
        let series = test_series(180);
        let m = 8;
        let mut monitor = StreamingDiscordMonitor::new(m);
        monitor.append(&series[..120]);
        monitor.run_for(10);
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

    /// Units and appends only add exact cells, so between evictions no
    /// snapshot entry ever rises — bitwise, with no slack at appends.
    #[test]
    fn snapshots_never_loosen_between_evictions() {
        let series = test_series(200);
        let mut monitor = StreamingDiscordMonitor::new(8);
        monitor.append(&series[..100]);
        let mut previous = monitor.snapshot();
        for part in series[100..].chunks(25) {
            for _ in 0..4 {
                monitor.run_for(5);
                let current = monitor.snapshot();
                for i in 0..previous.len() {
                    assert!(
                        current.profile[i] <= previous.profile[i],
                        "entry {i} rose: {} -> {}",
                        previous.profile[i],
                        current.profile[i]
                    );
                }
                previous = current;
            }
            monitor.append(part);
        }
        monitor.finish();
        assert!(monitor.is_current());
    }

    /// An append keeps every diagonal's progress: no diagonal is
    /// re-seeded, and each one walks on from the row where it stopped.
    #[test]
    fn an_append_extends_the_diagonals_where_they_stopped() {
        let series = test_series(150);
        let m = 8;
        let mut monitor = StreamingDiscordMonitor::new(m);
        monitor.append(&series[..100]);
        monitor.finish();
        let (old_count, first) = (monitor.window_count(), monitor.first_diagonal());
        let walked = monitor.diagonals.clone();
        monitor.append(&series[100..]);
        assert_eq!(&monitor.diagonals[..walked.len()], &walked[..]);
        for (d, diagonal) in walked.iter().enumerate() {
            assert_eq!(
                diagonal.next,
                old_count - first - d,
                "diagonal {}",
                first + d
            );
        }
        // Every old diagonal has 50 new cells and each new one all of its
        // cells, so every diagonal is pending once.
        assert_eq!(monitor.pending.len(), monitor.diagonals.len());
        monitor.finish();
        let reference = stomp_with_exclusion(&series, m, m / 2);
        assert_eq!(monitor.snapshot(), reference);
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

    /// Under the discord definition's exclusion (`m − 1`) a finished
    /// monitor reports the batch [`DiscordDetector`]'s top-`k`
    /// discords: the "Discord" baseline, answered from a stream.
    #[test]
    fn finished_monitor_reports_the_batch_detector_discords() {
        let series = test_series(300);
        let m = 12;
        let batch = crate::DiscordDetector::new(crate::DiscordConfig::new(m)).detect(&series, 3);
        assert_eq!(batch.len(), 3);
        let mut monitor = StreamingDiscordMonitor::with_exclusion(m, m - 1);
        for part in series.chunks(45) {
            monitor.append(part);
            monitor.run_for(2);
        }
        monitor.finish();
        assert_eq!(monitor.discords(3), batch);
    }

    #[test]
    fn seed_changes_order_not_result() {
        let series = test_series(170);
        let m = 7;
        let exc = m / 2;
        let reference = stomp_with_exclusion(&series, m, exc);
        for seed in 0..5u64 {
            let mut monitor = StreamingDiscordMonitor::with_seed(m, exc, seed);
            for part in series.chunks(41) {
                monitor.append(part);
                monitor.run_for(4);
            }
            let finished = monitor.finish();
            assert_eq!(finished.profile, reference.profile, "seed {seed}");
            assert_eq!(finished.index, reference.index, "seed {seed}");
        }
    }

    #[test]
    fn single_append_finishes_on_the_batch_kernel() {
        let series = test_series(130);
        let m = 6;
        let exc = 3;
        let mut monitor = StreamingDiscordMonitor::with_exclusion(m, exc);
        monitor.append(&series);
        let finished = monitor.finish();
        let reference = stomp_with_exclusion(&series, m, exc);
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
    // The anytime matrix profile: a monitor fed one series. The
    // properties in tests/proptests.rs cover random series and seeds;
    // these pin the unit, the deadline contract and the edges.
    // ------------------------------------------------------------------

    #[test]
    fn partial_profile_is_upper_bound_on_final() {
        let series = test_series(140);
        let m = 7;
        let exc = m / 2;
        let reference = stomp_with_exclusion(&series, m, exc);
        let mut monitor = StreamingDiscordMonitor::with_seed(m, exc, 3);
        monitor.append(&series);
        monitor.run_for(monitor.pending() / 4);
        let partial = monitor.snapshot();
        assert!(partial.profile.iter().any(|d| d.is_finite()));
        for i in 0..partial.len() {
            assert!(partial.profile[i] >= reference.profile[i], "entry {i}");
        }
    }

    /// Every unit but the last holds at least one window count of
    /// cells, and would hold fewer without its last diagonal.
    #[test]
    fn each_unit_holds_about_one_window_count_of_cells() {
        let series = test_series(300);
        let mut monitor = StreamingDiscordMonitor::with_seed(12, 6, 4);
        monitor.append(&series[..200]);
        monitor.run_for(7);
        monitor.append(&series[200..]);
        let (count, first) = (monitor.window_count(), monitor.first_diagonal());
        let left = |k: usize| count - k - monitor.diagonals[k - first].next;
        let pending: Vec<usize> = monitor.pending.iter().copied().collect();
        let mut at = 0;
        for (u, &size) in monitor.units.iter().enumerate() {
            let unit = &pending[at..at + size];
            at += size;
            let cells: usize = unit.iter().map(|&k| left(k)).sum();
            if u + 1 < monitor.units.len() {
                assert!(cells >= count, "unit {u}: {cells} cells");
                assert!(cells - left(unit[size - 1]) < count, "unit {u} overran");
            }
        }
        assert_eq!(at, pending.len());
    }

    /// The seed picks the diagonal order: the same seed reaches the
    /// same partial profile, and another seed a different one.
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
        assert_ne!(a.profile, c.profile, "seed 2 walks other diagonals first");
    }

    /// After `u` units of a monitor fed one series, the snapshot is, bit
    /// for bit, the kernel's fold of the diagonals those units held:
    /// the first ones of the epoch's seeded order.
    #[test]
    fn partial_snapshot_is_the_fold_of_the_walked_diagonals() {
        let series = test_series(180);
        let (m, exc) = (8, 4);
        let mut monitor = StreamingDiscordMonitor::with_seed(m, exc, 21);
        monitor.append(&series);
        let order: Vec<usize> = monitor.pending.iter().copied().collect();
        let total = monitor.pending();
        let mut walked = 0;
        for u in [1, 3, 20, total] {
            while monitor.processed() < u {
                walked += monitor.units[0];
                assert!(monitor.step());
            }
            let (profile, index) = fold_of(&series, m, &order[..walked]);
            let snapshot = monitor.snapshot();
            assert_eq!(snapshot.profile, profile, "after {u} units");
            assert_eq!(snapshot.index, index, "after {u} units");
        }
        assert!(monitor.is_current());
    }

    #[test]
    fn exact_ties_are_seed_independent() {
        // Flat plateaus tie at exactly 0.0; the index vector must not
        // depend on which diagonal reached them first.
        let mut series = Vec::new();
        series.extend(std::iter::repeat_n(1.0, 8));
        series.extend((0..8).map(|i| (i as f64 * 0.9).sin()));
        series.extend(std::iter::repeat_n(5.0, 8));
        series.extend((0..8).map(|i| (i as f64 * 1.3).cos()));
        series.extend(std::iter::repeat_n(2.0, 8));
        let m = 4;
        let exc = m / 2;
        let reference = stomp_with_exclusion(&series, m, exc);
        for seed in 0..6u64 {
            let mut monitor = StreamingDiscordMonitor::with_seed(m, exc, seed);
            monitor.append(&series);
            let finished = monitor.finish();
            assert_eq!(finished.index, reference.index, "seed {seed}");
            assert_eq!(finished.profile, reference.profile, "seed {seed}");
        }
    }

    #[test]
    fn single_window_series_has_nothing_to_walk() {
        let series = vec![1.0, 2.0, 3.0];
        let mut monitor = StreamingDiscordMonitor::with_exclusion(3, 1);
        monitor.append(&series);
        assert_eq!(monitor.window_count(), 1);
        assert!(monitor.is_current());
        assert!(!monitor.step());
        let mp = monitor.finish();
        assert!(mp.profile[0].is_infinite());
        assert_eq!(mp.index[0], usize::MAX);
    }

    /// `run_until` checks the clock *before* each unit, so an
    /// already-expired deadline runs zero units — the structural half
    /// of the "never overshoots by more than one unit's work"
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
    /// one unit's work. The load-bearing asserts are structural (some
    /// progress was made; the run stopped on the clock, far short of
    /// completion). The elapsed-time bound uses a very generous
    /// absolute slack: it exists to catch "run_until ignores the clock
    /// entirely" regressions, not to measure scheduling jitter, so CI
    /// noise cannot flake it.
    #[test]
    fn run_until_overshoot_is_bounded_by_one_unit() {
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
        assert!(ran > 0, "a 10ms budget must admit at least one unit");
        assert!(
            !monitor.is_current(),
            "the run must have been stopped by the clock, not completion \
             ({} units run, {} pending)",
            monitor.processed(),
            monitor.pending()
        );
        let slack = Duration::from_millis(250);
        assert!(
            elapsed <= budget + slack,
            "overshoot: ran {ran} units in {elapsed:?} against a {budget:?} budget"
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
        // Unit cap composes with (not yet expired) wall-clock bounds.
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
            a.run_for(3);
            b.run_for(3);
            // Same exclusion and seed: the same queue and progress.
            assert_eq!(a.checkpoint_bytes().unwrap(), b.checkpoint_bytes().unwrap());
        }
        let (fa, fb) = (a.finish(), b.finish());
        assert_eq!(fa.profile, fb.profile);
        assert_eq!(fa.index, fb.index);
    }

    #[test]
    fn finish_with_one_unit_left_matches_the_batch_kernel() {
        let series = test_series(240);
        let m = 8;
        let mut monitor = StreamingDiscordMonitor::new(m);
        monitor.append(&series);
        monitor.run_for(monitor.pending() - 1);
        assert_eq!(monitor.pending(), 1);
        let finished = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap()
            .install(|| monitor.finish());
        let reference = stomp_with_exclusion(&series, m, m / 2);
        assert_eq!(finished.profile, reference.profile);
        assert_eq!(finished.index, reference.index);
        assert!(monitor.is_current());
    }

    #[test]
    fn finish_records_the_same_metrics_at_every_worker_count() {
        let series = test_series(260);
        let mut par = StreamingDiscordMonitor::new(8);
        for part in series.chunks(40) {
            par.append(part);
            par.run_for(4);
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
        assert_eq!(par.diagonals, seq.diagonals);
        assert_eq!(par.metrics(), seq.metrics());
        assert_eq!(par.metrics().staleness_points, 0);
    }

    /// With nothing pending (during warm-up, or once current), `finish`
    /// runs nothing: it returns the snapshot and leaves the state and
    /// the metrics as they were.
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
    fn metrics_count_ingest_and_units() {
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
        let requeued = monitor.pending();
        monitor.finish();
        let stats = monitor.metrics();
        assert_eq!(stats.appends, 2);
        assert_eq!(stats.points_appended, 100);
        assert_eq!((stats.evictions, stats.points_evicted), (1, 20));
        // 10 units before the eviction, then every unit it queued.
        assert_eq!(stats.steps, 10 + requeued as u64);
        assert_eq!((stats.caught_up, stats.staleness_points), (1, 0));
        // A retention trim counts as an eviction.
        monitor.retain_last(50).unwrap();
        assert_eq!(monitor.metrics().evictions, 2);
        assert_eq!(monitor.metrics().points_evicted, 50);
    }

    #[test]
    fn evict_mid_epoch_drops_the_fold_and_reseeds_every_diagonal() {
        let series = test_series(220);
        let m = 8;
        let mut monitor = StreamingDiscordMonitor::new(m);
        monitor.append(&series[..150]);
        monitor.run_for(usize::MAX);
        monitor.append(&series[150..]);
        monitor.run_for(5);
        // The fold still holds the pre-append cells of the old windows.
        assert!(monitor.snapshot().profile[..143]
            .iter()
            .all(|d| d.is_finite()));
        monitor.evict(40).unwrap();
        assert_eq!(monitor.processed(), 0);
        assert!(monitor.diagonals.iter().all(|d| d.next == 0));
        assert_eq!(monitor.pending.len(), monitor.diagonals.len());
        assert!(monitor.snapshot().profile.iter().all(|d| d.is_infinite()));
        let finished = monitor.finish();
        let reference = stomp_with_exclusion(&series[40..], m, m / 2);
        assert_eq!(finished.profile, reference.profile);
        assert_eq!(finished.index, reference.index);
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
                monitor.run_for(2);
            }
            monitor.evict(cut).unwrap();
            assert_eq!(monitor.stream_offset(), cut);
            let finished = monitor.finish();
            let reference = stomp_with_exclusion(&series[cut..], m, exc);
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
        let reference = stomp_with_exclusion(&series[series.len() - m..], m, m / 2);
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
        monitor.run_for(5);
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
        let reference = stomp_with_exclusion(&series[90..], m, exc);
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
        let reference = stomp_with_exclusion(&series[20..], m, exc);
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
        monitor.run_for(3);
        let epochs = monitor.epochs();
        monitor.evict(0).unwrap();
        assert_eq!(monitor.epochs(), epochs);
        assert_eq!(monitor.processed(), 3);
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
            monitor.run_for(3);
        }
        assert_eq!(monitor.series_len(), 100);
        assert_eq!(monitor.stream_offset(), 300);
        let finished = monitor.finish();
        let reference = stomp_with_exclusion(&series[300..], m, exc);
        assert_eq!(finished.profile, reference.profile);
        assert_eq!(finished.index, reference.index);
    }

    /// An append that overflows a `retain_last(n)` policy trims at once.
    /// It must leave the monitor exactly where an unbounded twin lands
    /// by appending and then evicting the excess itself: the same epoch
    /// salts, queue order, folds and counters, after every append,
    /// eviction and step.
    #[test]
    fn retention_trim_equals_an_explicit_eviction() {
        let series = test_series(320);
        let (m, n) = (8, 100);
        let mut trimmed = StreamingDiscordMonitor::with_seed(m, m / 2, 17);
        trimmed.retain_last(n).unwrap();
        let mut twin = StreamingDiscordMonitor::with_seed(m, m / 2, 17);
        let same = |a: &StreamingDiscordMonitor, b: &StreamingDiscordMonitor, at: &str| {
            assert_eq!(a.series(), b.series(), "{at}");
            assert_eq!(a.windows, b.windows, "{at}");
            assert_eq!(a.diagonals, b.diagonals, "{at}");
            assert_eq!(a.pending, b.pending, "{at}");
            assert_eq!(a.units, b.units, "{at}");
            assert_eq!(a.processed(), b.processed(), "{at}");
            assert_eq!(a.epochs(), b.epochs(), "{at}");
            assert_eq!(a.stream_offset(), b.stream_offset(), "{at}");
            assert_eq!(a.snapshot(), b.snapshot(), "{at}");
            assert_eq!(a.metrics(), b.metrics(), "{at}");
        };
        // Point counts after each op: 5 (warm-up), 100 (first windows
        // and a trim in one append), 60, 80, 100 (trim), 60, 90, 100
        // (trim), 100 (one-point trim), 100 (trim).
        let schedule = [
            ("append", 5),
            ("append", 110),
            ("step", 9),
            ("evict", 40),
            ("append", 20),
            ("step", 12),
            ("append", 50),
            ("step", 2),
            ("evict", 40),
            ("append", 30),
            ("step", 20),
            ("append", 64),
            ("step", 5),
            ("append", 1),
            ("step", 20),
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

    /// An empty append is not an ingest event: the epoch does not
    /// advance, nothing is queued, and no metric moves — before the
    /// first window, and mid-epoch with cells pending.
    #[test]
    fn append_of_no_points_changes_nothing() {
        let series = test_series(140);
        let mut monitor = StreamingDiscordMonitor::new(8);
        let unchanged = |monitor: &mut StreamingDiscordMonitor| {
            let (bytes, stats) = (monitor.checkpoint_bytes().unwrap(), monitor.metrics());
            let (epochs, windows) = (monitor.epochs(), monitor.window_count());
            monitor.append(&[]);
            assert_eq!(monitor.checkpoint_bytes().unwrap(), bytes);
            assert_eq!(monitor.metrics(), stats);
            assert_eq!(
                (monitor.epochs(), monitor.window_count()),
                (epochs, windows)
            );
        };
        unchanged(&mut monitor);
        monitor.append(&series[..5]);
        unchanged(&mut monitor);
        monitor.append(&series[5..120]);
        monitor.run_for(6);
        monitor.append(&series[120..]);
        monitor.run_for(2);
        unchanged(&mut monitor);
    }

    /// The series is the monitor's one record of the stream: through
    /// warm-up, the first window, appends, evictions, retention trims
    /// and a full drain it holds exactly the points appended and not
    /// yet evicted, and its window statistics are those of exactly
    /// that series, computed afresh.
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
            let mut fresh = WindowStats::empty(m);
            fresh.extend(live);
            assert_eq!(monitor.windows, fresh, "after {op} {amount}");
        }
        assert_eq!((offset, fed), (157, 167));
    }

    /// End to end against the per-pair definition: a monitor grown and
    /// trimmed several times finishes within 1e-9 of the brute-force
    /// matrix profile of its live series, an oracle that shares no
    /// arithmetic with the kernel.
    #[test]
    fn evolved_monitor_matches_the_brute_force_profile() {
        let stream = test_series(260);
        let m = 10;
        let mut monitor = StreamingDiscordMonitor::with_exclusion(m, m / 2);
        monitor.append(&stream[..90]);
        monitor.run_for(5);
        monitor.append(&stream[90..170]);
        monitor.evict(35).unwrap();
        monitor.run_for(4);
        monitor.append(&stream[170..]);
        monitor.evict(20).unwrap();
        let live = &stream[55..];
        assert_eq!(monitor.series(), live);
        let finished = monitor.finish();
        let brute = crate::brute::brute_force(live, m, m / 2);
        assert_eq!(finished.len(), brute.len());
        for (i, (d, b)) in finished.profile.iter().zip(&brute.profile).enumerate() {
            assert!((d - b).abs() < 1e-9, "entry {i}: {d} vs {b}");
        }
    }

    /// After appends and a retention trim, units walk the suffix's
    /// diagonals from fresh seeds in the trim's epoch order: after `u`
    /// units the snapshot is, bit for bit, the kernel's fold over the
    /// suffix of the diagonals those units held.
    #[test]
    fn units_after_a_trim_walk_the_suffix_from_fresh_seeds() {
        let stream = test_series(260);
        let (m, exc) = (8, 4);
        let mut monitor = StreamingDiscordMonitor::with_seed(m, exc, 5);
        monitor.retain_last(150).unwrap();
        monitor.append(&stream[..120]);
        monitor.run_for(8);
        monitor.append(&stream[120..]);
        assert_eq!(monitor.series(), &stream[110..]);
        assert_eq!(monitor.pending.len(), monitor.diagonals.len());
        let order: Vec<usize> = monitor.pending.iter().copied().collect();
        let total = monitor.pending();
        let mut walked = 0;
        for u in [1, 5, 17, total] {
            while monitor.processed() < u {
                walked += monitor.units[0];
                assert!(monitor.step());
            }
            let (profile, index) = fold_of(&stream[110..], m, &order[..walked]);
            let snapshot = monitor.snapshot();
            assert_eq!(snapshot.profile, profile, "after {u} units");
            assert_eq!(snapshot.index, index, "after {u} units");
        }
    }

    /// Cells the monitor has left to walk before it is current.
    fn cells_left(monitor: &StreamingDiscordMonitor) -> usize {
        let (count, first) = (monitor.window_count(), monitor.first_diagonal());
        let diagonals = monitor.diagonals.iter().enumerate();
        diagonals.map(|(d, g)| count - first - d - g.next).sum()
    }

    /// An append of `c` points leaves `c` new cells on every old
    /// diagonal plus the new diagonals' cells — `O(c·N)` — while an
    /// eviction leaves every cell of the live series to walk again.
    #[test]
    fn an_append_leaves_only_its_new_cells_and_an_eviction_all() {
        let series = test_series(200);
        let (m, exc) = (8, 4);
        let mut monitor = StreamingDiscordMonitor::with_exclusion(m, exc);
        monitor.append(&series[..150]);
        monitor.finish();
        assert_eq!(cells_left(&monitor), 0);
        let old = monitor.diagonals.len();
        monitor.append(&series[150..170]);
        let new_diagonals: usize = (1..=20).sum();
        assert_eq!(cells_left(&monitor), 20 * old + new_diagonals);
        monitor.run_for(3);
        monitor.evict(30).unwrap();
        let d = monitor.diagonals.len();
        assert_eq!(cells_left(&monitor), d * (d + 1) / 2);
    }

    /// The units partition the pending queue, and after each unit every
    /// diagonal it held is walked to its end while the others are
    /// untouched.
    #[test]
    fn each_unit_finishes_the_diagonals_it_holds() {
        let series = test_series(180);
        let mut monitor = StreamingDiscordMonitor::with_seed(9, 4, 13);
        monitor.append(&series[..120]);
        monitor.run_for(4);
        monitor.append(&series[120..]);
        assert_eq!(monitor.units.iter().sum::<usize>(), monitor.pending.len());
        let (count, first) = (monitor.window_count(), monitor.first_diagonal());
        while let Some(&size) = monitor.units.front() {
            let held: Vec<usize> = monitor.pending.iter().take(size).copied().collect();
            let before = monitor.diagonals.clone();
            assert!(monitor.step());
            for (d, (was, now)) in before.iter().zip(&monitor.diagonals).enumerate() {
                let k = first + d;
                if held.contains(&k) {
                    assert_eq!(now.next, count - k, "diagonal {k} left unfinished");
                } else {
                    assert_eq!(was, now, "diagonal {k} moved outside its unit");
                }
            }
        }
        assert_eq!(cells_left(&monitor), 0);
        assert!(monitor.is_current());
    }

    /// An append that overflows the retention re-seeds every diagonal
    /// and drops the fold in the same call.
    #[test]
    fn an_overflowing_append_reseeds_every_diagonal() {
        let series = test_series(200);
        let mut monitor = StreamingDiscordMonitor::new(8);
        monitor.retain_last(120).unwrap();
        monitor.append(&series[..110]);
        monitor.finish();
        monitor.append(&series[110..140]);
        assert_eq!(monitor.series(), &series[20..140]);
        assert!(monitor.diagonals.iter().all(|d| *d == Diagonal::default()));
        assert!(monitor.snapshot().profile.iter().all(|d| d.is_infinite()));
        assert_eq!(monitor.pending.len(), monitor.diagonals.len());
    }

    /// `processed` counts the units run since the last append or
    /// eviction, and is carried by checkpoints.
    #[test]
    fn processed_counts_units_since_the_last_ingest_event() {
        let series = test_series(160);
        let mut monitor = StreamingDiscordMonitor::new(8);
        monitor.append(&series[..100]);
        assert_eq!(monitor.run_for(3), 3);
        assert_eq!(monitor.processed(), 3);
        let bytes = monitor.checkpoint_bytes().unwrap();
        let restored = StreamingDiscordMonitor::from_checkpoint_bytes(&bytes).unwrap();
        assert_eq!(restored.processed(), 3);
        monitor.append(&series[100..]);
        assert_eq!(monitor.processed(), 0);
        monitor.run_for(2);
        monitor.evict(10).unwrap();
        assert_eq!(monitor.processed(), 0);
        let total = monitor.pending();
        monitor.finish();
        assert_eq!(monitor.processed(), total);
    }

    /// Every finite snapshot entry is an exact cell: a neighbor outside
    /// the exclusion zone, at the distance the definition gives the
    /// pair — through appends, units and an eviction.
    #[test]
    fn snapshot_entries_are_exact_cells() {
        let series = test_series(220);
        let (m, exc) = (9, 4);
        let mut monitor = StreamingDiscordMonitor::with_seed(m, exc, 8);
        for (part, units) in series.chunks(55).zip([2, 5, 1, 3]) {
            monitor.append(part);
            monitor.run_for(units);
            if monitor.series_len() > 150 {
                monitor.evict(40).unwrap();
                monitor.run_for(units);
            }
            let live = monitor.series();
            let snap = monitor.snapshot();
            for (i, (&d, &j)) in snap.profile.iter().zip(&snap.index).enumerate() {
                if d.is_infinite() {
                    assert_eq!(j, usize::MAX);
                    continue;
                }
                assert!(i.abs_diff(j) > exc, "entry {i} cites {j}");
                let direct = crate::brute::znormalized_distance(&live[i..i + m], &live[j..j + m]);
                assert!((d - direct).abs() < 1e-9, "entry {i}: {d} vs {direct}");
            }
        }
    }

    #[test]
    fn is_current_once_every_diagonal_is_walked() {
        let series = test_series(130);
        let mut monitor = StreamingDiscordMonitor::new(7);
        monitor.append(&series);
        while !monitor.is_current() {
            assert!(cells_left(&monitor) > 0);
            monitor.step();
        }
        assert_eq!(cells_left(&monitor), 0);
        assert!(monitor.pending.is_empty());
    }

    /// An exclusion zone as wide as the series leaves no admissible
    /// diagonal: the monitor is current after every append, and its
    /// profile stays `+∞` — up to an exclusion of `usize::MAX`.
    #[test]
    fn an_exclusion_wider_than_the_series_leaves_nothing_to_walk() {
        let series = test_series(90);
        for exclusion in [85, usize::MAX] {
            let mut monitor = StreamingDiscordMonitor::with_exclusion(6, exclusion);
            for part in series.chunks(30) {
                monitor.append(part);
                assert!(monitor.is_current(), "exclusion {exclusion}");
                assert!(monitor.diagonals.is_empty());
            }
            let finished = monitor.finish();
            assert_eq!(finished.len(), 85);
            assert!(finished.profile.iter().all(|d| d.is_infinite()));
            let bytes = monitor.checkpoint_bytes().unwrap();
            let restored = StreamingDiscordMonitor::from_checkpoint_bytes(&bytes).unwrap();
            assert_eq!(restored.snapshot(), finished);
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
        live.run_for(30); // mid-epoch: fold, progress and queue all populated
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
        live.run_for(5);
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
        live.run_for(8);
        live.append(&series[150..]);
        let finished = live.finish();
        let mut restored =
            StreamingDiscordMonitor::from_checkpoint_bytes(&live.checkpoint_bytes().unwrap())
                .unwrap();
        assert!(restored.is_current());
        assert_eq!(restored.processed(), live.processed());
        let snap = restored.snapshot();
        assert_eq!(snap.profile, finished.profile);
        assert_eq!(snap.index, finished.index);
        assert!(!restored.step());
        // The next append queues every diagonal on both sides alike.
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
        live.run_for(5);
        assert_eq!(live.metrics().steps, 5);
        let mut restored =
            StreamingDiscordMonitor::from_checkpoint_bytes(&live.checkpoint_bytes().unwrap())
                .unwrap();
        assert_eq!(restored.metrics(), SessionStats::default());
        let left = restored.pending();
        restored.finish();
        let stats = restored.metrics();
        assert_eq!(stats.steps, left as u64);
        assert_eq!((stats.appends, stats.caught_up), (0, 1));
    }

    #[test]
    fn checkpoint_rejects_malformed_input_with_typed_errors() {
        let series = test_series(150);
        let mut monitor = StreamingDiscordMonitor::new(8);
        monitor.append(&series);
        monitor.run_for(10);
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
    /// `m / 2`, the default seed, one epoch, no offset).
    #[derive(Clone)]
    struct Frame {
        m: usize,
        retention: Option<usize>,
        series: Vec<f64>,
        progress: Vec<usize>,
        pending: Vec<usize>,
        processed: usize,
    }

    impl Frame {
        /// 16 points at `m = 8`: nine windows, diagonals 5..=8 of 4, 3,
        /// 2 and 1 cells, all queued and none walked.
        fn fresh() -> Self {
            Self {
                m: 8,
                retention: None,
                series: test_series(16),
                progress: vec![0; 4],
                pending: vec![5, 6, 7, 8],
                processed: 0,
            }
        }

        /// Three points at `m = 8`: still warming up, no windows.
        fn warming() -> Self {
            Self {
                series: test_series(3),
                progress: Vec::new(),
                pending: Vec::new(),
                ..Self::fresh()
            }
        }

        /// Every diagonal walked to its end.
        fn caught_up() -> Self {
            Self {
                progress: vec![4, 3, 2, 1],
                pending: Vec::new(),
                processed: 1,
                ..Self::fresh()
            }
        }

        /// Mid-epoch: diagonals 5 and 8 done, 6 and 7 part-way.
        fn partial() -> Self {
            Self {
                progress: vec![4, 1, 0, 1],
                pending: vec![7, 6],
                processed: 1,
                ..Self::fresh()
            }
        }

        fn with(&self, edit: impl Fn(&mut Frame)) -> Frame {
            let mut frame = self.clone();
            edit(&mut frame);
            frame
        }

        /// The monitor-section payload holding exactly these fields.
        fn payload(&self) -> Vec<u8> {
            let mut f = FieldWriter::new();
            f.usize(self.m);
            f.usize(self.m / 2);
            f.u64(DEFAULT_MONITOR_SEED);
            f.u64(1);
            f.usize(0);
            f.opt_usize(self.retention);
            f.f64_slice(&self.series);
            f.usize_slice(&self.progress);
            f.usize_slice(&self.pending);
            f.usize(self.processed);
            f.into_bytes()
        }

        /// A checksum-valid checkpoint holding exactly these fields.
        fn bytes(&self) -> Vec<u8> {
            let mut bytes = Vec::new();
            let mut out = CheckpointWriter::begin(&mut bytes, 1).unwrap();
            out.section(CKPT_SECTION_MONITOR, CKPT_MONITOR_VERSION, &self.payload())
                .unwrap();
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
        let (caught_up, partial) = (Frame::caught_up(), Frame::partial());
        for frame in [&fresh, &warming, &caught_up, &partial] {
            StreamingDiscordMonitor::from_checkpoint_bytes(&frame.bytes())
                .expect("a state the monitor writes must load");
        }
        assert_all_corrupt([
            ("NaN series point", fresh.with(|f| f.series[5] = f64::NAN)),
            (
                "infinite series point",
                fresh.with(|f| f.series[0] = f64::INFINITY),
            ),
            (
                "infinite warm-up point",
                warming.with(|f| f.series[1] = f64::NEG_INFINITY),
            ),
            (
                "progress past a diagonal's length",
                caught_up.with(|f| f.progress[3] = 2),
            ),
            (
                "progress past a pending diagonal's length",
                partial.with(|f| f.progress[1] = 4),
            ),
            ("diagonal pending twice", fresh.with(|f| f.pending.push(6))),
            (
                "diagonal with cells left missing",
                partial.with(|f| f.pending.truncate(1)),
            ),
            (
                "complete diagonal pending",
                partial.with(|f| f.pending.push(5)),
            ),
            (
                "pending diagonal inside the exclusion zone",
                caught_up.with(|f| f.pending = vec![4]),
            ),
            (
                "pending diagonal past the last window",
                caught_up.with(|f| f.pending = vec![9]),
            ),
        ]);
    }

    #[test]
    fn checkpoint_rejects_per_diagonal_state_that_disagrees_with_the_series() {
        let (fresh, warming) = (Frame::fresh(), Frame::warming());
        assert_all_corrupt([
            (
                "progress one diagonal short",
                fresh.with(|f| {
                    f.progress.pop();
                    f.pending.retain(|&k| k != 8);
                }),
            ),
            (
                "progress one diagonal long",
                fresh.with(|f| f.progress.push(0)),
            ),
            (
                "progress while warming up",
                warming.with(|f| f.progress = vec![0]),
            ),
            (
                "a queue while warming up",
                warming.with(|f| f.pending = vec![0]),
            ),
            (
                "one point fewer than the progress needs",
                fresh.with(|f| {
                    f.series.pop();
                }),
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
        ]);
    }

    /// The monitor writes the frame layout: its live state is the
    /// series, the progress, the queue in the epoch's order, and the
    /// units run.
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
        let order: Vec<usize> = fresh.pending.iter().copied().collect();
        let frame = Frame::fresh().with(|f| f.pending = order.clone());
        assert_eq!(fresh.checkpoint_bytes().unwrap(), frame.bytes());
    }

    /// The mid-epoch frame restores with its partly walked diagonals
    /// replayed: its snapshot is the fold of exactly those cells, and
    /// it finishes on the batch kernel.
    #[test]
    fn checkpoint_restores_partly_walked_diagonals() {
        let frame = Frame::partial();
        let mut restored = StreamingDiscordMonitor::from_checkpoint_bytes(&frame.bytes()).unwrap();
        let progress: Vec<usize> = restored.diagonals.iter().map(|d| d.next).collect();
        assert_eq!(progress, frame.progress);
        let ws = WindowStats::new(&frame.series, 8);
        let mut fold = Fold::new(9);
        for (d, &next) in frame.progress.iter().enumerate() {
            let mut diagonal = Diagonal::default();
            walk(&frame.series, &ws, 5 + d, &mut diagonal, next, &mut fold);
        }
        assert_eq!(restored.fold, fold);
        assert_eq!((restored.pending(), restored.processed()), (1, 1));
        let reference = stomp_with_exclusion(&frame.series, 8, 4);
        assert_eq!(restored.finish(), reference);
    }

    /// A monitor checkpoint is exactly one section.
    #[test]
    fn checkpoint_rejects_sections_after_the_monitor() {
        let mut bytes = Vec::new();
        let mut out = CheckpointWriter::begin(&mut bytes, 2).unwrap();
        let payload = Frame::fresh().payload();
        out.section(CKPT_SECTION_MONITOR, CKPT_MONITOR_VERSION, &payload)
            .unwrap();
        out.section(u32::from_le_bytes(*b"ENG1"), 1, &[0; 8])
            .unwrap();
        assert!(matches!(
            StreamingDiscordMonitor::from_checkpoint_bytes(&bytes),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    /// A version 1 payload — the MASS engine's layout — is rejected by
    /// its version, not misread.
    #[test]
    fn checkpoint_rejects_the_version_1_payload() {
        let mut bytes = Vec::new();
        let mut out = CheckpointWriter::begin(&mut bytes, 1).unwrap();
        out.section(CKPT_SECTION_MONITOR, 1, &Frame::fresh().payload())
            .unwrap();
        assert!(matches!(
            StreamingDiscordMonitor::from_checkpoint_bytes(&bytes),
            Err(CheckpointError::UnsupportedSection {
                found: 1,
                supported: 2,
                ..
            })
        ));
    }

    /// The fold, the covariances and the window statistics are not in
    /// the checkpoint: a restore recomputes the statistics and replays
    /// every computed cell, landing on exactly the live monitor's state.
    #[test]
    fn restore_replays_the_computed_cells() {
        let series = test_series(260);
        let mut live = StreamingDiscordMonitor::new(8);
        live.retain_last(200).unwrap();
        let mut fed = 0;
        for (end, steps) in [(5, 0), (70, 3), (150, 6), (260, 2), (260, 9)] {
            live.append(&series[fed..end]);
            fed = end;
            live.run_for(steps);
            let bytes = live.checkpoint_bytes().unwrap();
            let mut restored = StreamingDiscordMonitor::from_checkpoint_bytes(&bytes).unwrap();
            assert_eq!(restored.series(), live.series(), "{end} points");
            assert_eq!(restored.windows, live.windows, "{end} points");
            assert_eq!(restored.diagonals, live.diagonals, "{end} points");
            assert_eq!(restored.pending, live.pending, "{end} points");
            assert_eq!(restored.units, live.units, "{end} points");
            assert_eq!(restored.snapshot(), live.snapshot(), "{end} points");
            let mut twin = live.clone();
            assert_eq!(restored.step(), twin.step(), "{end} points");
            assert_eq!(restored.snapshot(), twin.snapshot(), "{end} points");
        }
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
        monitor.run_for(6);
        let snap = monitor.snapshot();
        for &idx in &snap.index {
            assert!(idx == usize::MAX || idx < windows, "index {idx} escaped");
        }
        for d in monitor.discords(3) {
            assert!(d.start < windows);
        }
    }
}
