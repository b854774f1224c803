//! `discord-fleet`: the matrix-profile discord baseline served online
//! by `Fleet<StreamingDiscordMonitor>` on its default backend, driven
//! as a closed loop. One op is one tick: ingest 32 points per stream,
//! drain every pending query, and answer `query` → `discords(1)` for
//! every stream. Each stream keeps its last 1,024 points.

use egi_discord::{stamp, StreamingDiscordMonitor};
use egi_serve::Fleet;
use egi_tskit::Deadline;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::inputs::{Stream, FLEET_FAMILIES};
use crate::measure::{fingerprint, metric, Layers, Metric, Rounds, Workload};

const STREAMS: usize = 8;
const RETAIN: usize = 1_024;
const CHUNK: usize = 32;
const TICKS: usize = 20;
const TOP_K: usize = 3;
/// One chunk more than the retained window: the prefill then makes the
/// FFT plans every tick uses (growing past, then evicting back to, the
/// window), so each round's ops find the process-wide plan cache warm.
const PREFILL: usize = RETAIN + CHUNK;

pub struct DiscordFleet {
    streams: Vec<Stream>,
}

pub struct State {
    fleet: Fleet<StreamingDiscordMonitor>,
    /// Points handed to every stream so far.
    fed: usize,
    /// The latest tick's answer: every stream's top discord.
    answer: Vec<u64>,
}

impl DiscordFleet {
    /// Each stream's planted anomaly sits in the middle of the window
    /// it retains at the end of a round.
    pub fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let end = PREFILL + CHUNK * TICKS;
        let streams = (0..STREAMS)
            .map(|s| {
                let family = FLEET_FAMILIES[s % FLEET_FAMILIES.len()];
                Stream::planted(family, end, end - RETAIN / 2, &mut rng)
            })
            .collect();
        Self { streams }
    }
}

impl Workload for DiscordFleet {
    type State = State;

    fn ops(&self) -> usize {
        TICKS
    }

    fn round_seconds(&self) -> f64 {
        5.0
    }

    fn points(&self) -> usize {
        STREAMS * CHUNK * TICKS
    }

    /// Creates the sessions with their retention budget, prefills each
    /// and drains the catch-up.
    fn setup(&self) -> Result<State, String> {
        let mut fleet = Fleet::new();
        for (s, stream) in self.streams.iter().enumerate() {
            let m = stream.family.instance_length();
            let id = s as u64;
            fleet
                .create(id, StreamingDiscordMonitor::new(m))
                .map_err(|e| e.to_string())?;
            fleet.retain_last(id, RETAIN).map_err(|e| e.to_string())?;
            fleet
                .ingest(id, &stream.points[..PREFILL])
                .map_err(|e| e.to_string())?;
        }
        fleet.tick(Deadline::unbounded());
        Ok(State {
            fleet,
            fed: PREFILL,
            answer: Vec::new(),
        })
    }

    fn op(&self, st: &mut State, _t: usize, layers: &mut Layers) -> Result<(), String> {
        let fleet = &mut st.fleet;
        for (s, stream) in self.streams.iter().enumerate() {
            let chunk = &stream.points[st.fed..st.fed + CHUNK];
            layers
                .time("serve.ingest_s", || fleet.ingest(s as u64, chunk))
                .map_err(|e| e.to_string())?;
        }
        st.fed += CHUNK;

        if layers.on() {
            layers.time("serve.flush_s", || fleet.flush_all());
            loop {
                let (ran, secs) =
                    layers.span("serve.refresh_s", || fleet.refresh(Deadline::queries(1)));
                if ran == 0 {
                    break;
                }
                layers.sample("discord.query", secs);
            }
        } else {
            fleet.tick(Deadline::unbounded());
        }

        st.answer.clear();
        for s in 0..STREAMS {
            let profile = layers
                .time("serve.query_s", || fleet.query(s as u64))
                .map_err(|e| e.to_string())?;
            let top = layers.time("discord.discords_s", || profile.discords(1));
            st.answer.extend(
                top.iter()
                    .flat_map(|d| [d.start as u64, d.distance.to_bits()]),
            );
        }
        Ok(())
    }

    fn answer(&self, st: &State, _t: usize) -> u64 {
        fingerprint(st.answer.iter().copied())
    }

    /// Each stream finishes bit-identical to batch `stamp` over its
    /// surviving suffix.
    fn check(&self, st: &mut State, _answers: &[Option<u64>]) -> (u64, u64) {
        let mut failures = 0;
        for (s, stream) in self.streams.iter().enumerate() {
            let suffix = &stream.points[st.fed - RETAIN..st.fed];
            let same = st.fleet.finish(s as u64).is_ok_and(|finished| {
                let batch = stamp(suffix, stream.family.instance_length());
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                bits(&finished.profile) == bits(&batch.profile) && finished.index == batch.index
            });
            if !same {
                eprintln!("discord-fleet: stream {s}: finish differs from batch stamp");
                failures += 1;
            }
        }
        (STREAMS as u64, failures)
    }

    fn score(&self, st: &State) -> f64 {
        let total: f64 = self
            .streams
            .iter()
            .enumerate()
            .map(|(s, stream)| {
                let id = s as u64;
                let offset = st.fleet.session(id).map_or(0, |m| m.stream_offset());
                let starts: Vec<usize> = st
                    .fleet
                    .query(id)
                    .map(|p| p.discords(TOP_K).iter().map(|d| offset + d.start).collect())
                    .unwrap_or_default();
                stream.score(&starts)
            })
            .sum();
        total / STREAMS as f64
    }

    const LAYERS: &'static [&'static str] = &[
        "serve.ingest_s",
        "serve.flush_s",
        "serve.refresh_s",
        "serve.query_s",
        "discord.discords_s",
    ];

    fn layer_metrics(&self, r: &Rounds) -> Vec<Metric> {
        let count = |name: &str| r.traced_counts.get(name).copied().unwrap_or(0) as f64;
        let hits = count("egi_fft_plan_cache_hits_total");
        let misses = count("egi_fft_plan_cache_misses_total");
        vec![
            metric(
                "discord.query_p50_s",
                r.layers.sample_median("discord.query"),
                "s",
            ),
            metric(
                "discord.queries_per_point",
                count("egi_mass_exact_queries_total") / self.points() as f64,
                "1/point",
            ),
            metric(
                "discord.retransforms",
                count("egi_mass_exact_retransforms_total") / TICKS as f64,
                "count",
            ),
            metric("discord.fft_plan_hit_frac", hits / (hits + misses), "frac"),
        ]
    }
}
