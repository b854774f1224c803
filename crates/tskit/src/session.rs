//! The shared streaming-session contract behind every online monitor
//! in the workspace.
//!
//! By PR 6 the two streaming subsystems — the matrix-profile discord
//! monitor (`egi_discord::streaming`) and the streaming ensemble
//! grammar-induction detector (`egi_core::streaming`) — had converged
//! on a near-identical hand-rolled surface: `append` new points,
//! `step` one unit of refresh work, drive refresh under a [`Deadline`],
//! `evict` old points under the shared boundary rule, keep a
//! `retain_last` budget, and report an `epoch`/`stream_offset` for
//! bookkeeping. [`StreamSession`] hoists that contract into the
//! substrate crate — the same move PR 4 made for [`Deadline`] and PR 5
//! made for [`EvictError`] — so the driver loops live in exactly one
//! place and a fleet scheduler (`egi-serve`) can program against *any*
//! monitor generically.
//!
//! Two pieces live here:
//!
//! * [`StreamSession`] — the trait. Implementors provide the eight
//!   required state-machine methods plus `snapshot`/`finish`; the
//!   budgeted drivers ([`run_for`](StreamSession::run_for),
//!   [`run_until`](StreamSession::run_until),
//!   [`run_for_duration`](StreamSession::run_for_duration)) are
//!   provided once, implemented over [`step`](StreamSession::step),
//!   replacing the copy-pasted loop bodies the monitors used to carry.
//! * [`StreamClock`] — the epoch / stream-offset / retention
//!   bookkeeping both monitors used to duplicate as three loose
//!   fields plus hand-rolled trim logic.
//!
//! The deadline contract is unchanged from the hand-rolled loops:
//! the condition is checked **before** each unit, so a wall-clock
//! deadline is overshot by at most one unit's work and an
//! already-expired deadline runs zero units.

use std::time::Duration;

use crate::deadline::Deadline;
use crate::evict::EvictError;

/// A resumable online monitor over one append-only (optionally
/// front-evicted) stream of `f64` points.
///
/// The lifecycle every implementor honors:
///
/// 1. [`append`](Self::append) ingests points and *enqueues* refresh
///    work ("units": a run of diagonals of about one window count of
///    cells for the discord monitor, one member refresh for the
///    ensemble detector) without doing it.
/// 2. [`step`](Self::step) performs exactly one pending unit; the
///    provided drivers spread units under a [`Deadline`].
/// 3. [`evict`](Self::evict) retires points from the front under the
///    shared boundary rule ([`crate::evict::validate_evict`]),
///    rejecting invalid cuts atomically — on `Err` the session is
///    untouched.
/// 4. [`snapshot`](Self::snapshot) is the current (possibly stale)
///    answer; [`finish`](Self::finish) drains all pending units and
///    returns the exact one.
///
/// The workspace-wide parity contract rides on this trait: for every
/// interleaving of appends, evictions, and budgeted refreshes, a
/// session's [`finish`](Self::finish) must be bit-identical to the
/// batch computation over the surviving suffix. `egi-serve` extends
/// that one level up — a fleet-managed session must finish
/// bit-identical to a standalone one fed the same schedule — which is
/// only possible because this trait pins down the unit semantics.
pub trait StreamSession {
    /// The cheap, possibly-stale answer type returned by
    /// [`snapshot`](Self::snapshot) (e.g. a matrix profile or a rule
    /// density curve).
    type Snapshot;
    /// The exact, fully-refreshed answer type returned by
    /// [`finish`](Self::finish) (e.g. a matrix profile or a ranked
    /// anomaly report).
    type Report;

    /// Ingests `points` at the back of the stream, enqueueing (but not
    /// performing) whatever refresh work they imply. Implementors with
    /// a retention budget ([`retain_last`](Self::retain_last)) trim the
    /// front here to stay within it.
    fn append(&mut self, points: &[f64]);

    /// Performs one pending unit of refresh work. Returns `false` when
    /// nothing was pending (the session is current), `true` otherwise.
    fn step(&mut self) -> bool;

    /// Retires the oldest `count` points under the shared eviction
    /// boundary rule. On `Err` the session state is untouched.
    fn evict(&mut self, count: usize) -> Result<(), EvictError>;

    /// Installs a rolling retention budget of `n` live points,
    /// evicting immediately (and on every future append) whatever the
    /// budget excludes. Returns the number of points evicted now.
    fn retain_last(&mut self, n: usize) -> Result<usize, EvictError>;

    /// Number of live (non-evicted) points currently held.
    fn series_len(&self) -> usize;

    /// Number of pending refresh units [`step`](Self::step) still has
    /// to perform before the session is current.
    fn pending_units(&self) -> usize;

    /// Number of points evicted from the front over the session's
    /// lifetime; global index `stream_offset() + i` corresponds to
    /// live index `i`.
    fn stream_offset(&self) -> usize;

    /// `true` when no refresh work is pending —
    /// [`snapshot`](Self::snapshot) equals the exact answer.
    fn is_current(&self) -> bool;

    /// The current answer without doing any work; stale while
    /// [`is_current`](Self::is_current) is `false`.
    fn snapshot(&self) -> Self::Snapshot;

    /// Drains every pending unit and returns the exact answer for the
    /// surviving suffix (the bit-parity anchor of the workspace).
    fn finish(&mut self) -> Self::Report;

    /// Runs pending units until `deadline` expires or the session is
    /// current; returns the number of units performed. The deadline is
    /// checked **before** each unit, so a wall-clock deadline is
    /// overshot by at most one unit and an already-expired deadline
    /// runs zero units.
    ///
    /// Each unit's wall time lands in the `egi_session_step_nanos`
    /// histogram, and any wall-clock overshoot on exit in
    /// `egi_session_deadline_overshoot_nanos` (integer nanoseconds
    /// only — see egi-obs's never-touches-f64 invariant). Disable with
    /// [`egi_obs::set_enabled`]`(false)`.
    fn run_until(&mut self, deadline: Deadline) -> usize {
        let mut ran = 0;
        while !deadline.expired(ran) {
            let span = egi_obs::SpanTimer::start();
            if !self.step() {
                break;
            }
            span.record(egi_obs::histogram!("egi_session_step_nanos"));
            ran += 1;
        }
        if egi_obs::enabled() {
            if let Some(overshoot) = deadline.overshoot_nanos() {
                egi_obs::counter!("egi_session_deadline_overshoots_total").inc();
                egi_obs::histogram!("egi_session_deadline_overshoot_nanos").record(overshoot);
            }
            egi_obs::histogram!("egi_session_pending_after_run_units")
                .record(self.pending_units() as u64);
        }
        ran
    }

    /// Runs at most `n` pending units; returns the number performed
    /// (less than `n` only when the session went current).
    fn run_for(&mut self, n: usize) -> usize {
        self.run_until(Deadline::queries(n))
    }

    /// Runs pending units for at most `budget` of wall-clock time;
    /// returns the number performed.
    fn run_for_duration(&mut self, budget: Duration) -> usize {
        self.run_until(Deadline::after(budget))
    }
}

/// Epoch / stream-offset / retention bookkeeping shared by every
/// [`StreamSession`] implementor.
///
/// Both monitors used to carry the same three loose fields (`epoch`,
/// `offset`, `retention`) plus duplicated retention-trim arithmetic;
/// this struct is that state, hoisted. It is deliberately passive —
/// the monitor decides *when* to record, the clock only counts — so
/// the bit-parity-sensitive mutation order of each monitor is
/// untouched.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamClock {
    epoch: u64,
    offset: usize,
    retention: Option<usize>,
}

impl StreamClock {
    /// A fresh clock: epoch 0, offset 0, no retention budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a clock from checkpointed state. The epoch must be
    /// restored exactly: monitors salt their fold order with it, so a
    /// reset epoch would break restore bit-parity.
    pub fn with_state(epoch: u64, offset: usize, retention: Option<usize>) -> Self {
        Self {
            epoch,
            offset,
            retention,
        }
    }

    /// Monotone revision counter: bumped once per successful append or
    /// eviction. Refresh work tagged with an older epoch is stale.
    pub fn epochs(&self) -> u64 {
        self.epoch
    }

    /// Total points evicted from the front so far; global index
    /// `offset() + i` corresponds to live index `i`.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// The rolling retention budget, if one is installed.
    pub fn retention(&self) -> Option<usize> {
        self.retention
    }

    /// Records a successful append: bumps the epoch.
    pub fn record_append(&mut self) {
        self.epoch += 1;
    }

    /// Records a successful front-eviction of `count` points: bumps
    /// the epoch and advances the offset.
    pub fn record_evict(&mut self, count: usize) {
        self.epoch += 1;
        self.offset += count;
    }

    /// Installs a rolling retention budget of `n` live points.
    pub fn set_retention(&mut self, n: usize) {
        self.retention = Some(n);
    }

    /// How many of `live` points exceed the retention budget (0 when
    /// no budget is installed or the stream fits).
    pub fn excess(&self, live: usize) -> usize {
        match self.retention {
            Some(budget) => live.saturating_sub(budget),
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal session: the "answer" is the sum of live points, one
    /// pending unit per appended point.
    struct SumSession {
        live: Vec<f64>,
        acc: f64,
        cursor: usize,
        clock: StreamClock,
    }

    impl SumSession {
        fn new() -> Self {
            Self {
                live: Vec::new(),
                acc: 0.0,
                cursor: 0,
                clock: StreamClock::new(),
            }
        }
    }

    impl StreamSession for SumSession {
        type Snapshot = f64;
        type Report = f64;

        fn append(&mut self, points: &[f64]) {
            self.clock.record_append();
            self.live.extend_from_slice(points);
            let excess = self.clock.excess(self.live.len());
            if excess > 0 {
                self.evict(excess).expect("retention trim");
            }
        }

        fn step(&mut self) -> bool {
            if self.cursor == self.live.len() {
                return false;
            }
            self.acc += self.live[self.cursor];
            self.cursor += 1;
            true
        }

        fn evict(&mut self, count: usize) -> Result<(), EvictError> {
            crate::evict::validate_evict(self.live.len(), count, 1)?;
            self.clock.record_evict(count);
            self.live.drain(..count);
            self.acc = 0.0;
            self.cursor = 0;
            Ok(())
        }

        fn retain_last(&mut self, n: usize) -> Result<usize, EvictError> {
            self.clock.set_retention(n);
            let excess = self.clock.excess(self.live.len());
            if excess > 0 {
                self.evict(excess)?;
            }
            Ok(excess)
        }

        fn series_len(&self) -> usize {
            self.live.len()
        }

        fn pending_units(&self) -> usize {
            self.live.len() - self.cursor
        }

        fn stream_offset(&self) -> usize {
            self.clock.offset()
        }

        fn is_current(&self) -> bool {
            self.pending_units() == 0
        }

        fn snapshot(&self) -> f64 {
            self.acc
        }

        fn finish(&mut self) -> f64 {
            while self.step() {}
            self.snapshot()
        }
    }

    #[test]
    fn default_run_for_caps_units_and_stops_when_current() {
        let mut s = SumSession::new();
        s.append(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.pending_units(), 4);
        assert_eq!(s.run_for(2), 2);
        assert_eq!(s.pending_units(), 2);
        // Asking for more than pending stops at current.
        assert_eq!(s.run_for(100), 2);
        assert!(s.is_current());
        assert_eq!(s.run_for(5), 0);
        assert_eq!(s.snapshot(), 10.0);
    }

    #[test]
    fn default_run_until_respects_expired_deadline() {
        let mut s = SumSession::new();
        s.append(&[1.0, 2.0]);
        assert_eq!(s.run_until(Deadline::queries(0)), 0);
        assert_eq!(s.pending_units(), 2);
        assert_eq!(s.run_until(Deadline::unbounded()), 2);
        assert!(s.is_current());
    }

    #[test]
    fn default_run_for_duration_drains_small_sessions() {
        let mut s = SumSession::new();
        s.append(&[1.0, 2.0, 3.0]);
        // A generous wall-clock budget drains everything.
        s.run_for_duration(Duration::from_secs(5));
        assert!(s.is_current());
        assert_eq!(s.finish(), 6.0);
    }

    #[test]
    fn clock_counts_appends_evictions_and_offset() {
        let mut c = StreamClock::new();
        assert_eq!((c.epochs(), c.offset(), c.retention()), (0, 0, None));
        c.record_append();
        c.record_evict(3);
        c.record_append();
        assert_eq!(c.epochs(), 3);
        assert_eq!(c.offset(), 3);
    }

    #[test]
    fn clock_excess_tracks_retention_budget() {
        let mut c = StreamClock::new();
        assert_eq!(c.excess(1_000), 0); // no budget installed
        c.set_retention(10);
        assert_eq!(c.retention(), Some(10));
        assert_eq!(c.excess(7), 0);
        assert_eq!(c.excess(10), 0);
        assert_eq!(c.excess(14), 4);
    }

    #[test]
    fn retention_trim_flows_through_session_append() {
        let mut s = SumSession::new();
        s.append(&[1.0; 8]);
        assert_eq!(s.retain_last(4).unwrap(), 4);
        assert_eq!(s.series_len(), 4);
        assert_eq!(s.stream_offset(), 4);
        s.append(&[2.0; 3]);
        assert_eq!(s.series_len(), 4);
        assert_eq!(s.stream_offset(), 7);
        assert_eq!(s.finish(), 1.0 + 2.0 * 3.0);
    }
}
