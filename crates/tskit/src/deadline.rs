//! Wall-clock / work-budget stopping conditions for budgeted refresh
//! loops.
//!
//! Both online subsystems of this workspace — the matrix-profile
//! discord monitor (`egi_discord::streaming`) and the streaming
//! ensemble grammar-induction detector (`egi_core::streaming`) — share
//! the same control problem: between appends of live traffic, spend a
//! *bounded* slice of time tightening the current answer, then hand
//! control back to the caller. [`Deadline`] is that bound, expressed as
//! a wall-clock instant, a unit-of-work budget, or both; it lives here,
//! in the substrate crate, so every streaming driver in the workspace
//! speaks one deadline type.
//!
//! The contract every driver honors: the condition is checked **before**
//! each unit of work, so a wall-clock deadline is overshot by at most
//! one unit's work (a run of diagonals of about one window count of
//! cells for the discord monitor, one member refresh for the ensemble
//! detector) and an already-expired deadline runs zero units.

use std::time::{Duration, Instant};

/// A stopping condition for budgeted refresh loops: a wall-clock
/// instant, a unit-of-work budget, or both.
///
/// "Units" are whatever the driving loop processes between checks —
/// runs of diagonals for `StreamingDiscordMonitor` (which is also the
/// anytime matrix profile), member refreshes for
/// `StreamingEnsembleDetector`. Drivers check the
/// condition **before** each unit, so a wall-clock deadline is overshot
/// by at most one unit's work and an already-expired deadline runs zero
/// units.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use egi_tskit::Deadline;
///
/// // At most 5 ms of work…
/// let wall = Deadline::after(Duration::from_millis(5));
/// // …or at most 100 units, whichever is hit first.
/// let capped = wall.with_query_cap(100);
/// assert!(!capped.expired(0));
/// assert!(Deadline::queries(10).expired(10));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    at: Option<Instant>,
    max_queries: usize,
}

impl Deadline {
    /// Expires once the wall clock reaches `instant`.
    pub fn at(instant: Instant) -> Self {
        Self {
            at: Some(instant),
            max_queries: usize::MAX,
        }
    }

    /// Expires `budget` from now (the instant is resolved at
    /// construction, so build the deadline right before running).
    pub fn after(budget: Duration) -> Self {
        Self::at(Instant::now() + budget)
    }

    /// Expires after `n` units of work, with no wall-clock bound — the
    /// work-budget API (`run_for`) expressed as a deadline.
    pub fn queries(n: usize) -> Self {
        Self {
            at: None,
            max_queries: n,
        }
    }

    /// Never expires (run to completion).
    pub fn unbounded() -> Self {
        Self {
            at: None,
            max_queries: usize::MAX,
        }
    }

    /// Additionally caps the number of units processed.
    pub fn with_query_cap(self, n: usize) -> Self {
        Self {
            max_queries: self.max_queries.min(n),
            ..self
        }
    }

    /// `true` once the wall clock or the work budget is exhausted,
    /// given `processed` units already ran under this deadline.
    pub fn expired(&self, processed: usize) -> bool {
        processed >= self.max_queries || self.at.is_some_and(|at| Instant::now() >= at)
    }

    /// How far past the wall-clock instant the clock has run, in
    /// integer nanoseconds (saturating). `None` when this deadline has
    /// no wall-clock bound or the instant has not been reached yet.
    /// Drivers call this after their loop exits to report observed
    /// overshoot — which the check-before-each-unit contract bounds by
    /// one unit's work.
    pub fn overshoot_nanos(&self) -> Option<u64> {
        let at = self.at?;
        let now = Instant::now();
        if now < at {
            return None;
        }
        Some(u64::try_from((now - at).as_nanos()).unwrap_or(u64::MAX))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_budget_expires_exactly_at_cap() {
        let d = Deadline::queries(3);
        assert!(!d.expired(0));
        assert!(!d.expired(2));
        assert!(d.expired(3));
        assert!(d.expired(4));
    }

    #[test]
    fn already_past_instant_is_expired() {
        let d = Deadline::at(Instant::now() - Duration::from_millis(1));
        assert!(d.expired(0));
    }

    #[test]
    fn unbounded_never_expires_on_units() {
        let d = Deadline::unbounded();
        assert!(!d.expired(usize::MAX - 1));
    }

    #[test]
    fn cap_composes_with_wall_clock() {
        let far = Deadline::at(Instant::now() + Duration::from_secs(3600)).with_query_cap(2);
        assert!(!far.expired(1));
        assert!(far.expired(2));
    }

    #[test]
    fn overshoot_is_measured_only_past_a_wall_clock_instant() {
        assert_eq!(Deadline::queries(3).overshoot_nanos(), None);
        assert_eq!(Deadline::unbounded().overshoot_nanos(), None);
        let future = Deadline::at(Instant::now() + Duration::from_secs(3600));
        assert_eq!(future.overshoot_nanos(), None);
        let past = Deadline::at(Instant::now() - Duration::from_millis(5));
        assert!(past.overshoot_nanos().expect("past the instant") >= 5_000_000);
    }

    #[test]
    fn tighter_cap_wins() {
        let d = Deadline::queries(5).with_query_cap(2);
        assert!(d.expired(2));
        let d = Deadline::queries(2).with_query_cap(5);
        assert!(d.expired(2));
        assert!(!d.expired(1));
    }
}
