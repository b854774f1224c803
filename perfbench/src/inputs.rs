//! Seeded input generation. The program under test receives only what
//! these functions produce: CSV text for the batch path, point chunks
//! for the fleets.

use std::fmt::Write as _;

use egi_core::AnomalyReport;
use egi_eval::best_score;
use egi_tskit::gen::ucr::UcrFamily;
use rand::Rng;

use crate::measure::fingerprint;

/// The five families the fleets cycle through. StarLightCurve is left
/// out: its 1,024-point instances do not fit a 1,024-point discord
/// window, and on the ensemble fleet one such stream would dominate
/// every tick.
pub const FLEET_FAMILIES: [UcrFamily; 5] = [
    UcrFamily::TwoLeadEcg,
    UcrFamily::EcgFiveDays,
    UcrFamily::GunPoint,
    UcrFamily::Wafer,
    UcrFamily::Trace,
];

/// One value per line at full round-trip precision, as `egi generate`
/// writes a series.
pub fn csv_text(values: &[f64]) -> String {
    let mut text = String::with_capacity(values.len() * 20);
    for v in values {
        writeln!(text, "{v:?}").expect("writing to a String");
    }
    text
}

/// One fleet stream's points and where its anomaly was planted.
pub struct Stream {
    pub family: UcrFamily,
    pub points: Vec<f64>,
    pub gt_start: usize,
}

impl Stream {
    /// At least `len` points made of consecutive `family` instances,
    /// with one anomalous instance planted at the instance boundary
    /// nearest to `near`.
    pub fn planted(family: UcrFamily, len: usize, near: usize, rng: &mut impl Rng) -> Self {
        let ilen = family.instance_length();
        let anomaly = (near + ilen / 2) / ilen;
        let mut points = Vec::with_capacity(len + ilen);
        for k in 0..len.div_ceil(ilen) {
            if k == anomaly {
                points.extend(family.anomalous_instance(rng));
            } else {
                points.extend(family.normal_instance(rng));
            }
        }
        Self {
            family,
            points,
            gt_start: anomaly * ilen,
        }
    }

    /// The paper's Eq. 5 score of the best of `starts` (global
    /// positions) against the planted anomaly.
    pub fn score(&self, starts: &[usize]) -> f64 {
        best_score(starts, self.gt_start, self.family.instance_length())
    }
}

/// Bit-exact fingerprint of an ensemble report: every curve value and
/// every candidate.
pub fn report_fingerprint(report: &AnomalyReport) -> u64 {
    let curve = report.curve.iter().map(|v| v.to_bits());
    let candidates = report
        .anomalies
        .iter()
        .flat_map(|c| [c.start as u64, c.len as u64, c.score.to_bits()]);
    fingerprint(curve.chain(candidates))
}
