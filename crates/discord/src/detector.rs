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
    use crate::brute::brute_force;
    use egi_tskit::window::intervals_overlap;

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

    /// A sine of `period` with one damped period in the middle and, when
    /// `ramp` is set, a milder ramp over `120..150`.
    fn periodic_with_outliers(n: usize, period: usize, ramp: bool) -> Vec<f64> {
        let mut s: Vec<f64> = (0..n)
            .map(|i| (i as f64 * std::f64::consts::TAU / period as f64).sin())
            .collect();
        let at = n / 2;
        for v in s[at..at + period].iter_mut() {
            *v = v.abs() * 0.3 + 0.4;
        }
        if ramp {
            for (off, v) in s[120..150].iter_mut().enumerate() {
                *v += 0.3 * (off as f64 / 30.0);
            }
        }
        s
    }

    /// The top-`k` discords are the brute-force oracle's, under the
    /// default strict non-overlap exclusion (`window − 1`).
    #[test]
    fn top_k_agrees_with_brute_force_discords() {
        let series = periodic_with_outliers(600, 30, true);
        let ds = DiscordDetector::new(DiscordConfig::new(30)).detect(&series, 3);
        let oracle = brute_force(&series, 30, 29).discords(3);
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.len(), oracle.len());
        for (d, o) in ds.iter().zip(&oracle) {
            assert_eq!((d.start, d.len), (o.start, o.len), "{d:?} vs {o:?}");
            assert!((d.distance - o.distance).abs() < 1e-9, "{d:?} vs {o:?}");
        }
    }

    /// An explicit exclusion replaces the default one.
    #[test]
    fn explicit_exclusion_reaches_the_profile() {
        let series = periodic_with_outliers(400, 20, false);
        let config = DiscordConfig {
            window: 20,
            exclusion: Some(5),
        };
        let ds = DiscordDetector::new(config).detect(&series, 2);
        let oracle = brute_force(&series, 20, 5).discords(2);
        assert_eq!(ds.len(), 2);
        for (d, o) in ds.iter().zip(&oracle) {
            assert_eq!(d.start, o.start, "{d:?} vs {o:?}");
            assert!((d.distance - o.distance).abs() < 1e-9, "{d:?} vs {o:?}");
        }
        let strict = DiscordDetector::new(DiscordConfig::new(20)).detect(&series, 2);
        assert_ne!(ds, strict, "the exclusion changed nothing");
    }

    #[test]
    fn top_k_discords_descend_from_the_single_discord() {
        let series = periodic_with_outliers(600, 30, true);
        let det = DiscordDetector::new(DiscordConfig::new(30));
        let ds = det.detect(&series, 3);
        assert_eq!(ds.len(), 3);
        for pair in ds.windows(2) {
            assert!(pair[0].distance >= pair[1].distance, "{ds:?}");
        }
        assert_eq!(ds[0], det.detect(&series, 1)[0]);
    }

    /// Asked for more discords than fit, the search stops once every
    /// window overlaps one already reported.
    #[test]
    fn top_k_stops_when_every_window_overlaps_a_pick() {
        let series = periodic_with_outliers(100, 20, false);
        let ds = DiscordDetector::new(DiscordConfig::new(20)).detect(&series, 10);
        assert!(!ds.is_empty() && ds.len() < 10, "found {}", ds.len());
        for i in 0..=series.len() - 20 {
            assert!(
                ds.iter().any(|d| intervals_overlap(d.start, d.len, i, 20)),
                "window {i} overlaps none of {ds:?}"
            );
        }
    }
}
