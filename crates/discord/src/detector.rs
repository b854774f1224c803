//! The "Discord" baseline detector of the paper's evaluation: top-k
//! non-overlapping discords computed with the matrix profile (STOMP, the
//! paper's reference \[23\] implementation choice).

use egi_tskit::ConfigError;

use crate::profile::Discord;
use crate::stomp::stomp_with_exclusion;

/// Configuration for discord-based detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiscordConfig {
    /// Sliding-window (discord) length.
    pub window: usize,
    /// Self-match exclusion half-width; `None` selects the discord
    /// definition's strict non-overlap (`window − 1`).
    pub exclusion: Option<usize>,
}

impl DiscordConfig {
    /// Strict non-overlapping discord definition for `window`.
    pub fn new(window: usize) -> Self {
        Self {
            window,
            exclusion: None,
        }
    }

    /// Checks the range rule `window ≥ 2` — the one place it lives:
    /// [`DiscordDetector::new`] panics on the error, the `egi` CLI
    /// reports it.
    pub fn validate(&self) -> Result<(), ConfigError> {
        ConfigError::check(self.window >= 2, "window", "at least 2", self.window)
    }
}

/// Matrix-profile-based discord detector.
#[derive(Debug, Clone, Copy)]
pub struct DiscordDetector {
    config: DiscordConfig,
}

impl DiscordDetector {
    /// Creates a detector.
    ///
    /// # Panics
    ///
    /// Panics when [`DiscordConfig::validate`] rejects the
    /// configuration (`window < 2`).
    pub fn new(config: DiscordConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid discord configuration: {e}");
        }
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> DiscordConfig {
        self.config
    }

    /// Returns the top-`k` non-overlapping discords of `series`.
    ///
    /// Returns an empty vector when the series is shorter than two
    /// windows (no non-self match exists).
    pub fn detect(&self, series: &[f64], k: usize) -> Vec<Discord> {
        let m = self.config.window;
        if series.len() < 2 * m {
            return Vec::new();
        }
        let exclusion = self.config.exclusion.unwrap_or(m - 1);
        let mp = stomp_with_exclusion(series, m, exclusion);
        mp.discords(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beats_with_outlier() -> (Vec<f64>, usize) {
        let period = 40;
        let mut s: Vec<f64> = (0..800)
            .map(|i| (i as f64 * std::f64::consts::TAU / period as f64).sin())
            .collect();
        let gt = 400;
        for (off, v) in s[gt..gt + period].iter_mut().enumerate() {
            *v = ((off as f64) / period as f64) * 2.0 - 1.0; // sawtooth period
        }
        (s, gt)
    }

    #[test]
    fn top_discord_hits_planted_anomaly() {
        let (series, gt) = beats_with_outlier();
        let det = DiscordDetector::new(DiscordConfig::new(40));
        let ds = det.detect(&series, 1);
        assert_eq!(ds.len(), 1);
        assert!(
            (gt as i64 - ds[0].start as i64).unsigned_abs() <= 40,
            "discord at {} vs gt {gt}",
            ds[0].start
        );
    }

    #[test]
    fn short_series_returns_empty() {
        let det = DiscordDetector::new(DiscordConfig::new(50));
        assert!(det.detect(&[0.0; 60], 3).is_empty());
    }

    #[test]
    fn candidates_non_overlapping() {
        let (series, _) = beats_with_outlier();
        let det = DiscordDetector::new(DiscordConfig::new(40));
        let ds = det.detect(&series, 3);
        for i in 0..ds.len() {
            for j in i + 1..ds.len() {
                assert!(
                    ds[i].start.abs_diff(ds[j].start) >= 40,
                    "{:?} overlaps {:?}",
                    ds[i],
                    ds[j]
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "window must be")]
    fn tiny_window_panics() {
        DiscordDetector::new(DiscordConfig::new(1));
    }
}
