//! STAMP (Yeh et al., "Matrix Profile I", the paper's reference \[21\])
//! under its historical name.
//!
//! STAMP computed the matrix profile one MASS distance profile per
//! query. The crate now computes every matrix profile with one kernel
//! ([`mod@crate::stomp`]), and STAMP's anytime behaviour lives in
//! [`StreamingDiscordMonitor`](crate::StreamingDiscordMonitor), which
//! refreshes the profile in seeded runs of diagonals. These names stay
//! as aliases of the batch kernel.

use crate::profile::MatrixProfile;
use crate::stomp::{stomp, stomp_with_exclusion};

/// The matrix profile with exclusion half-width `exclusion`: an alias
/// of [`stomp_with_exclusion`].
pub fn stamp_with_exclusion(series: &[f64], m: usize, exclusion: usize) -> MatrixProfile {
    stomp_with_exclusion(series, m, exclusion)
}

/// The matrix profile with the default `m/2` exclusion zone: an alias
/// of [`stomp`].
pub fn stamp(series: &[f64], m: usize) -> MatrixProfile {
    stomp(series, m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_names_the_batch_kernel() {
        let series: Vec<f64> = (0..150)
            .map(|i| (i as f64 * 0.27).sin() + ((i * 17) % 11) as f64 * 0.03)
            .collect();
        assert_eq!(stamp(&series, 10), stomp(&series, 10));
        assert_eq!(
            stamp_with_exclusion(&series, 10, 9),
            stomp_with_exclusion(&series, 10, 9)
        );
    }
}
