//! The ensemble execution runtime: PAA deduplication + rayon parallelism.
//!
//! Both [`EnsembleDetector`] and [`MultiWindowEnsemble`] boil down to the
//! same workload — many `(window, w, a)` grammar-induction runs over one
//! series. Two structural redundancies make the naive loop wasteful:
//!
//! 1. **PAA streams are alphabet-independent.** Members that share
//!    `(window, w)` and differ only in `a` produce identical PAA
//!    coefficient streams; with the paper's `wmax = amax = 10` parameter
//!    space, an `N = 50` ensemble has ~9 distinct `w` values for 50
//!    members, so ~80% of PAA work is duplicated. The runtime computes
//!    one [`PaaStream`] per distinct `(window, w)` and shares it. So is
//!    the breakpoint search: the stream stores each coefficient's cell
//!    in the all-alphabet table, and every member maps those cells
//!    through its alphabet's lookup ([`PaaStream::reduce_into`]), one
//!    table read per coefficient instead of one search per member.
//! 2. **Members are independent.** Every stage (streams, then member
//!    discretize→Sequitur→density runs) is executed with rayon-style
//!    `par_iter().map().collect()`, which preserves input order, so
//!    parallel and serial execution produce bit-identical results.
//!
//! [`EnsembleDetector`]: crate::ensemble::EnsembleDetector
//! [`MultiWindowEnsemble`]: crate::multiwindow::MultiWindowEnsemble

use std::collections::HashMap;

use egi_sax::stream::{discretize_from_stream, PaaStream};
use egi_sax::{FastSax, MultiResBreakpoints, SaxConfig};
use rayon::prelude::*;

use crate::density::RuleDensityCurve;

/// One grammar-induction run: a sliding-window length plus a `(w, a)`
/// discretization choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemberJob {
    /// Sliding-window length `n`.
    pub window: usize,
    /// Discretization parameters.
    pub sax: SaxConfig,
}

/// Runs every job against `fast`, returning curves in job order.
///
/// `parallel = false` forces fully serial execution (the results are
/// identical either way; the flag exists for benchmarking and for
/// embedding in already-parallel callers).
pub fn compute_member_curves(
    fast: &FastSax<'_>,
    multi: &MultiResBreakpoints,
    jobs: &[MemberJob],
    parallel: bool,
) -> Vec<RuleDensityCurve> {
    // Stage 1: one PAA stream per distinct (window, w).
    let mut keys: Vec<(usize, usize)> = jobs.iter().map(|j| (j.window, j.sax.w)).collect();
    keys.sort_unstable();
    keys.dedup();
    let streams: Vec<PaaStream> = if parallel {
        keys.par_iter()
            .map(|&(n, w)| PaaStream::new(fast, n, w))
            .collect()
    } else {
        keys.iter()
            .map(|&(n, w)| PaaStream::new(fast, n, w))
            .collect()
    };
    let by_key: HashMap<(usize, usize), &PaaStream> =
        keys.iter().copied().zip(streams.iter()).collect();

    // Stage 2: per-member symbol mapping + grammar induction + density.
    let run = |job: &MemberJob| -> RuleDensityCurve {
        let stream = by_key[&(job.window, job.sax.w)];
        let nr = discretize_from_stream(stream, job.sax, multi);
        RuleDensityCurve::from_tokens(&nr, fast.len())
    };
    if parallel {
        jobs.par_iter().map(run).collect()
    } else {
        jobs.iter().map(run).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave(len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| (i as f64 / 11.0).sin() * 2.0 + ((i * 13) % 7) as f64 * 0.3)
            .collect()
    }

    #[test]
    fn parallel_and_serial_curves_agree_exactly() {
        let series = wave(600);
        let fast = FastSax::new(&series);
        let multi = MultiResBreakpoints::new(8);
        let jobs: Vec<MemberJob> = [
            (48usize, 4usize, 4usize),
            (48, 4, 6),
            (48, 6, 4),
            (64, 5, 3),
        ]
        .iter()
        .map(|&(window, w, a)| MemberJob {
            window,
            sax: SaxConfig::new(w, a),
        })
        .collect();
        let par = compute_member_curves(&fast, &multi, &jobs, true);
        let ser = compute_member_curves(&fast, &multi, &jobs, false);
        assert_eq!(par, ser);
        assert_eq!(par.len(), jobs.len());
        assert!(par.iter().all(|c| c.len() == series.len()));
    }

    #[test]
    fn shared_stream_matches_independent_computation() {
        let series = wave(400);
        let fast = FastSax::new(&series);
        let multi = MultiResBreakpoints::new(10);
        // Two members share (window, w); results must equal the
        // non-deduplicated per-member path.
        let jobs = [
            MemberJob {
                window: 32,
                sax: SaxConfig::new(5, 3),
            },
            MemberJob {
                window: 32,
                sax: SaxConfig::new(5, 9),
            },
        ];
        let shared = compute_member_curves(&fast, &multi, &jobs, false);
        for (job, curve) in jobs.iter().zip(&shared) {
            let nr = egi_sax::discretize_series(&fast, job.window, job.sax, &multi);
            let direct = RuleDensityCurve::from_tokens(&nr, series.len());
            assert_eq!(curve, &direct);
        }
    }
}
