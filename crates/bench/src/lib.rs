//! # egi-bench — benchmark support
//!
//! The actual benchmarks live in `benches/` (Criterion, `harness = false`):
//!
//! * `tables` — one benchmark per evaluation table/figure workload
//!   (Figure 1 grid, Table 4 per-method runs, Figure 9 case study).
//! * `scalability` — Figure 8: ensemble vs STOMP across series lengths.
//! * `ablations` — design-choice ablations: FastPAA vs
//!   naive PAA, multi-resolution vs per-resolution SAX, the STOMP
//!   kernel vs brute force, numerosity reduction on/off, median vs mean
//!   vs min combiner.
//!
//! This library only hosts shared fixture builders so the three bench
//! binaries don't repeat corpus construction.

#![warn(missing_docs)]

use egi_tskit::corpus::{CorpusSpec, LabeledSeries};
use egi_tskit::gen::UcrFamily;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One deterministic labeled series for `family`.
pub fn fixture_series(family: UcrFamily, seed: u64) -> LabeledSeries {
    let mut rng = StdRng::seed_from_u64(seed);
    CorpusSpec::paper(family).generate_one(&mut rng)
}

/// A deterministic ECG-like trace of `len` points (scalability workload).
pub fn fixture_ecg(len: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    egi_tskit::gen::ecg_series(len, 256, 0.02, &mut rng)
}

/// A deterministic random walk of `len` points.
pub fn fixture_walk(len: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    egi_tskit::gen::random_walk(len, 1.0, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_deterministic() {
        let a = fixture_series(UcrFamily::GunPoint, 1);
        let b = fixture_series(UcrFamily::GunPoint, 1);
        assert_eq!(a.series, b.series);
        assert_eq!(fixture_ecg(1000, 2), fixture_ecg(1000, 2));
        assert_eq!(fixture_walk(1000, 3), fixture_walk(1000, 3));
    }
}
