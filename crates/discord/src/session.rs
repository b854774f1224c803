//! [`StreamSession`] wiring for [`StreamingDiscordMonitor`]: the
//! budgeted driver entry points (thin delegates to the trait's default
//! implementations, kept inherent so no caller needs a trait import)
//! and the trait impl itself, through which generic drivers — e.g. an
//! `egi-serve` fleet — schedule the monitor one [`step`] unit at a
//! time.
//!
//! [`step`]: StreamingDiscordMonitor::step

use std::time::Duration;

use egi_tskit::evict::EvictError;
use egi_tskit::session::StreamSession;
use egi_tskit::Deadline;

use crate::profile::MatrixProfile;
use crate::streaming::StreamingDiscordMonitor;

impl StreamingDiscordMonitor {
    /// Runs up to `n` pending units; returns how many ran.
    pub fn run_for(&mut self, n: usize) -> usize {
        <Self as StreamSession>::run_for(self, n)
    }

    /// Runs pending units until `deadline` expires or the monitor is
    /// current; returns how many ran. The deadline is checked before
    /// each unit, so it is never overshot by more than one unit's work,
    /// and an expired deadline runs no unit.
    ///
    /// # Examples
    ///
    /// The anytime matrix profile: append a series once and tighten
    /// its profile under a deadline.
    ///
    /// ```
    /// use std::time::Duration;
    /// use egi_discord::streaming::StreamingDiscordMonitor;
    /// use egi_tskit::Deadline;
    ///
    /// let series: Vec<f64> = (0..200).map(|i| (i as f64 * 0.2).sin()).collect();
    /// let mut monitor = StreamingDiscordMonitor::new(16);
    /// monitor.append(&series);
    ///
    /// // Spend at most 2 ms (or 50 units) tightening the profile…
    /// monitor.run_until(Deadline::after(Duration::from_millis(2)).with_query_cap(50));
    /// let partial = monitor.snapshot(); // an upper bound at any point
    ///
    /// // …then run to completion: bit-identical to batch `stomp()`.
    /// let finished = monitor.finish();
    /// assert!(partial.profile.iter().zip(&finished.profile).all(|(p, f)| p >= f));
    /// assert_eq!(finished.profile, egi_discord::stomp(&series, 16).profile);
    /// ```
    pub fn run_until(&mut self, deadline: Deadline) -> usize {
        <Self as StreamSession>::run_until(self, deadline)
    }

    /// Runs pending units for (at most) `budget` of wall-clock
    /// time — the "hard latency budget between appends" entry point.
    pub fn run_for_duration(&mut self, budget: Duration) -> usize {
        <Self as StreamSession>::run_for_duration(self, budget)
    }
}

/// The shared streaming-session contract: every method forwards to the
/// inherent implementation, so driving the monitor through the trait
/// (e.g. from an `egi-serve` fleet) is bit-identical to calling it
/// directly. One refresh *unit* is a run of diagonals of about one
/// window count of cells (see [`crate::streaming`]).
impl StreamSession for StreamingDiscordMonitor {
    type Snapshot = MatrixProfile;
    type Report = MatrixProfile;

    fn append(&mut self, points: &[f64]) {
        StreamingDiscordMonitor::append(self, points);
    }

    fn step(&mut self) -> bool {
        StreamingDiscordMonitor::step(self)
    }

    fn evict(&mut self, count: usize) -> Result<(), EvictError> {
        StreamingDiscordMonitor::evict(self, count)
    }

    fn retain_last(&mut self, n: usize) -> Result<usize, EvictError> {
        StreamingDiscordMonitor::retain_last(self, n)
    }

    fn series_len(&self) -> usize {
        StreamingDiscordMonitor::series_len(self)
    }

    fn pending_units(&self) -> usize {
        self.pending()
    }

    fn stream_offset(&self) -> usize {
        StreamingDiscordMonitor::stream_offset(self)
    }

    fn is_current(&self) -> bool {
        StreamingDiscordMonitor::is_current(self)
    }

    fn snapshot(&self) -> MatrixProfile {
        StreamingDiscordMonitor::snapshot(self)
    }

    fn finish(&mut self) -> MatrixProfile {
        StreamingDiscordMonitor::finish(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::Checkpoint;

    /// What the trait reports about a session between calls.
    fn observe<S: StreamSession>(s: &S) -> (usize, usize, usize, bool, S::Snapshot) {
        (
            s.series_len(),
            s.pending_units(),
            s.stream_offset(),
            s.is_current(),
            s.snapshot(),
        )
    }

    /// Every trait method forwards to its inherent namesake: one
    /// append/step/evict/retain schedule, driven once through each,
    /// reports the same state after every call and ends in the same
    /// checkpoint and finish.
    #[test]
    fn trait_calls_drive_the_monitor_like_inherent_calls() {
        let series: Vec<f64> = (0..360)
            .map(|i| (i as f64 * 0.23).sin() + ((i * 7) % 5) as f64 * 0.1)
            .collect();
        let mut direct = StreamingDiscordMonitor::new(12);
        let mut generic = StreamingDiscordMonitor::new(12);
        for (round, chunk) in series.chunks(60).enumerate() {
            direct.append(chunk);
            StreamSession::append(&mut generic, chunk);
            assert_eq!(direct.step(), StreamSession::step(&mut generic));
            assert_eq!(direct.run_for(25), StreamSession::run_for(&mut generic, 25));
            match round {
                2 => assert_eq!(direct.evict(30), StreamSession::evict(&mut generic, 30)),
                3 => assert_eq!(
                    direct.retain_last(200),
                    StreamSession::retain_last(&mut generic, 200)
                ),
                4 => assert_eq!(
                    direct.evict(10_000),
                    StreamSession::evict(&mut generic, 10_000)
                ),
                _ => {}
            }
            let inherent = (
                direct.series_len(),
                direct.pending(),
                direct.stream_offset(),
                direct.is_current(),
                direct.snapshot(),
            );
            assert_eq!(inherent, observe(&generic), "round {round}");
        }
        assert_eq!(
            direct.checkpoint_bytes().unwrap(),
            generic.checkpoint_bytes().unwrap()
        );
        assert_eq!(direct.finish(), StreamSession::finish(&mut generic));
        assert!(StreamSession::is_current(&generic));
    }
}
