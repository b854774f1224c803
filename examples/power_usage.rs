//! Figure 9 case study: anomalies in fridge-freezer power usage.
//!
//! Generates a long compressor-cycle power trace (the stand-in for the
//! REFIT fridge-freezer data, which cannot be redistributed; see
//! `egi::tskit::gen::power`) with two planted anomalous
//! events of *different kinds* — an unusually shaped cycle and a
//! spike-burst event — and asks the ensemble for its top-2 candidates.
//! The paper's point: grammar induction handles variable-length anomalies
//! in one linear pass where discord search would need one quadratic run
//! per candidate length.
//!
//! Run with: `cargo run --release --example power_usage -- [length]`

use egi::prelude::*;
use egi_tskit::gen::power::fridge_freezer_series;
use egi_tskit::window::intervals_overlap;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let total_len: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("length must be an integer"))
        .unwrap_or(120_000);
    let cycle = 900; // ≈ one compressor cycle, the paper's window choice

    let mut rng = StdRng::seed_from_u64(2020);
    let profile = fridge_freezer_series(total_len, cycle, &mut rng);
    println!(
        "generated {} points of fridge-freezer power usage; planted events:",
        profile.values.len()
    );
    for (i, &(s, l)) in profile.anomalies.iter().enumerate() {
        println!("  ground truth #{}: [{s}, {})", i + 1, s + l);
    }

    let detector = EnsembleDetector::new(EnsembleConfig {
        window: cycle,
        ..EnsembleConfig::default()
    });
    let t0 = std::time::Instant::now();
    let report = detector.detect(&profile.values, 2, 99);
    println!(
        "\nensemble detection over {} points took {:.2} s",
        total_len,
        t0.elapsed().as_secs_f64()
    );

    let mut recovered = 0;
    for (rank, c) in report.anomalies.iter().enumerate() {
        let matched = profile
            .anomalies
            .iter()
            .position(|&(gs, gl)| intervals_overlap(c.start, c.len, gs, gl));
        if matched.is_some() {
            recovered += 1;
        }
        println!(
            "  top-{} candidate at [{}, {}) — {}",
            rank + 1,
            c.start,
            c.start + c.len,
            match matched {
                Some(i) => format!("matches ground truth #{}", i + 1),
                None => "no ground-truth overlap".to_string(),
            }
        );
    }
    println!(
        "\nrecovered {recovered} of {} planted events in the top-2 candidates",
        profile.anomalies.len()
    );
}
