//! `ensemble-fleet`: the paper's detector served online by
//! `Fleet<StreamingEnsembleDetector>`, driven as a closed loop. One op
//! is one tick: ingest 64 points per stream, evict one stream
//! (round-robin) back to 4,000 points, drain every pending refresh
//! unit, answer `query` + `rank_anomalies` top 3 for every stream, and
//! checkpoint the evicted stream.

use egi_core::streaming::{Checkpoint, StreamSession};
use egi_core::{rank_anomalies, EnsembleConfig, EnsembleDetector, StreamingEnsembleDetector};
use egi_serve::Fleet;
use egi_tskit::gen::ucr::UcrFamily;
use egi_tskit::Deadline;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::inputs::{report_fingerprint, Stream, FLEET_FAMILIES};
use crate::measure::{fingerprint, metric, Layers, Metric, Rounds, Workload};

const STREAMS: usize = 16;
const MEMBERS: usize = 20;
/// Points per stream after prefill, and after each maintenance evict.
const LIVE: usize = 4_000;
const CHUNK: usize = 64;
const TICKS: usize = 40;
const MEMBER_SEED: u64 = 42;
const TOP_K: usize = 3;

pub struct EnsembleFleet {
    streams: Vec<Stream>,
}

pub struct State {
    fleet: Fleet<StreamingEnsembleDetector>,
    /// Points handed to each stream so far (global index of the next).
    fed: Vec<usize>,
    /// Global index of each stream's first live point.
    offset: Vec<usize>,
    /// Each stream's last checkpoint and the points fed when it was taken.
    checkpoint: Vec<Option<(Vec<u8>, usize)>>,
    /// Each stream's latest top-3 candidates, as global starts.
    top: Vec<Vec<usize>>,
    /// The latest tick's answer: every stream's candidates.
    answer: Vec<u64>,
}

fn config(family: UcrFamily) -> EnsembleConfig {
    EnsembleConfig {
        window: family.instance_length(),
        ensemble_size: MEMBERS,
        ..EnsembleConfig::default()
    }
}

/// The tick that last evicts stream `s` within a round, if any.
fn last_evict(s: usize) -> Option<usize> {
    (0..TICKS).rev().find(|t| t % STREAMS == s)
}

impl EnsembleFleet {
    /// Stream `s` is evicted at ticks `s`, `s + 16`, …; its planted
    /// anomaly sits in the middle of the window it retains at the end
    /// of a round.
    pub fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let end = LIVE + CHUNK * TICKS;
        let streams = (0..STREAMS)
            .map(|s| {
                let family = FLEET_FAMILIES[s % FLEET_FAMILIES.len()];
                let start = last_evict(s).map_or(0, |t| CHUNK * (t + 1));
                Stream::planted(family, end, (start + end) / 2, &mut rng)
            })
            .collect();
        Self { streams }
    }
}

impl Workload for EnsembleFleet {
    type State = State;

    fn ops(&self) -> usize {
        TICKS
    }

    fn round_seconds(&self) -> f64 {
        4.5
    }

    fn points(&self) -> usize {
        STREAMS * CHUNK * TICKS
    }

    /// Creates the sessions, prefills each with 4,000 points and drains
    /// the catch-up.
    fn setup(&self) -> Result<State, String> {
        let mut fleet = Fleet::new();
        for (s, stream) in self.streams.iter().enumerate() {
            let session = StreamingEnsembleDetector::new(config(stream.family), MEMBER_SEED);
            let id = s as u64;
            fleet.create(id, session).map_err(|e| e.to_string())?;
            fleet
                .ingest(id, &stream.points[..LIVE])
                .map_err(|e| e.to_string())?;
        }
        fleet.tick(Deadline::unbounded());
        Ok(State {
            fleet,
            fed: vec![LIVE; STREAMS],
            offset: vec![0; STREAMS],
            checkpoint: vec![None; STREAMS],
            top: vec![Vec::new(); STREAMS],
            answer: Vec::new(),
        })
    }

    fn op(&self, st: &mut State, t: usize, layers: &mut Layers) -> Result<(), String> {
        let fleet = &mut st.fleet;
        for (s, stream) in self.streams.iter().enumerate() {
            let chunk = &stream.points[st.fed[s]..st.fed[s] + CHUNK];
            layers
                .time("serve.ingest_s", || fleet.ingest(s as u64, chunk))
                .map_err(|e| e.to_string())?;
            st.fed[s] += CHUNK;
        }
        let evicted = t % STREAMS;
        let id = evicted as u64;
        let excess = st.fed[evicted] - st.offset[evicted] - LIVE;
        layers
            .time("serve.evict_s", || fleet.evict_from(id, excess))
            .map_err(|e| e.to_string())?;
        st.offset[evicted] += excess;

        if layers.on() {
            layers.time("serve.flush_s", || fleet.flush_all());
            // One unit at a time: the evicted stream's units are its
            // members replaying the retained suffix, every other unit is
            // an incremental member refresh.
            loop {
                let pending = |f: &Fleet<StreamingEnsembleDetector>| {
                    f.session(id).map_or(0, |s| s.pending_units())
                };
                let before = pending(fleet);
                let (ran, secs) =
                    layers.span("serve.refresh_s", || fleet.refresh(Deadline::queries(1)));
                if ran == 0 {
                    break;
                }
                let replay = pending(fleet) < before;
                layers.sample(
                    if replay {
                        "step.replay"
                    } else {
                        "step.incremental"
                    },
                    secs,
                );
            }
        } else {
            fleet.tick(Deadline::unbounded());
        }

        st.answer.clear();
        for (s, stream) in self.streams.iter().enumerate() {
            let curve = layers
                .time("serve.query_s", || fleet.query(s as u64))
                .map_err(|e| e.to_string())?;
            let window = stream.family.instance_length();
            let top = layers.time("core.rank_s", || {
                rank_anomalies(&curve.values, window, TOP_K)
            });
            st.top[s] = top.iter().map(|c| st.offset[s] + c.start).collect();
            st.answer
                .extend(top.iter().flat_map(|c| [c.start as u64, c.score.to_bits()]));
        }

        let session = fleet.session(id).ok_or("evicted stream vanished")?;
        let bytes = layers
            .time("tskit.checkpoint_save_s", || session.checkpoint_bytes())
            .map_err(|e| e.to_string())?;
        layers.count("tskit.checkpoint_bytes", bytes.len() as u64);
        st.answer.push(bytes.len() as u64);
        st.checkpoint[evicted] = Some((bytes, st.fed[evicted]));
        Ok(())
    }

    fn answer(&self, st: &State, _t: usize) -> u64 {
        fingerprint(st.answer.iter().copied())
    }

    /// Each stream finishes bit-identical to batch `detect` over its
    /// surviving suffix, and restoring its last checkpoint and replaying
    /// the points fed since then finishes identically.
    fn check(&self, st: &mut State, _answers: &[Option<u64>]) -> (u64, u64) {
        let (mut checks, mut failures) = (0, 0);
        for (s, stream) in self.streams.iter().enumerate() {
            let suffix = &stream.points[st.offset[s]..st.fed[s]];
            let cfg = config(stream.family);
            checks += 1;
            let finished = match st.fleet.finish(s as u64) {
                Ok(report) => report,
                Err(e) => {
                    eprintln!("ensemble-fleet: stream {s}: finish: {e}");
                    failures += 1;
                    continue;
                }
            };
            let windows = suffix.len() + 1 - cfg.window;
            let batch = EnsembleDetector::new(cfg).detect(suffix, windows, MEMBER_SEED);
            if report_fingerprint(&finished) != report_fingerprint(&batch) {
                eprintln!("ensemble-fleet: stream {s}: finish differs from batch detect");
                failures += 1;
            }
            let Some((bytes, at)) = &st.checkpoint[s] else {
                continue;
            };
            checks += 1;
            match StreamingEnsembleDetector::from_checkpoint_bytes(bytes) {
                Ok(mut restored) => {
                    restored.append(&stream.points[*at..st.fed[s]]);
                    let replayed = StreamSession::finish(&mut restored);
                    if report_fingerprint(&replayed) != report_fingerprint(&finished) {
                        eprintln!("ensemble-fleet: stream {s}: restored replay differs");
                        failures += 1;
                    }
                }
                Err(e) => {
                    eprintln!("ensemble-fleet: stream {s}: restore: {e}");
                    failures += 1;
                }
            }
        }
        (checks, failures)
    }

    fn score(&self, st: &State) -> f64 {
        let total: f64 = self
            .streams
            .iter()
            .zip(&st.top)
            .map(|(stream, top)| stream.score(top))
            .sum();
        total / STREAMS as f64
    }

    const LAYERS: &'static [&'static str] = &[
        "serve.ingest_s",
        "serve.evict_s",
        "serve.flush_s",
        "serve.refresh_s",
        "serve.query_s",
        "core.rank_s",
        "tskit.checkpoint_save_s",
    ];

    fn layer_metrics(&self, r: &Rounds) -> Vec<Metric> {
        let count = |name: &str| r.traced_counts.get(name).copied().unwrap_or(0) as f64;
        vec![
            metric(
                "core.step_p50_s",
                r.layers.sample_median("step.incremental"),
                "s",
            ),
            metric(
                "core.step_tail_s",
                r.layers.sample_median("step.replay"),
                "s",
            ),
            metric(
                "core.density.fold_ratio",
                count("egi_core_density_delta_coverage_points_total")
                    / count("egi_core_density_rebuild_equiv_points_total"),
                "ratio",
            ),
            metric(
                "tskit.checkpoint_mb",
                count("tskit.checkpoint_bytes") / TICKS as f64 / 1e6,
                "MB",
            ),
        ]
    }
}
