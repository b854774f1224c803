//! Measurement plumbing shared by the workloads: the round loop,
//! order statistics, work counts diffed from the egi-obs registry, the
//! per-layer span accumulator, and peak memory.

use std::collections::BTreeMap;
use std::time::Instant;

/// A named metric with its unit, as printed in the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Shorthand constructor for [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Deterministic work counts: every egi-obs counter, plus the number of
/// samples in every egi-obs histogram (their sums are clock readings
/// and would not repeat), plus the benchmark's own counts.
pub type Counts = BTreeMap<String, u64>;

/// The registry's current counts (see [`Counts`]).
pub fn registry_counts() -> Counts {
    let snap = egi_obs::global().snapshot();
    let mut counts: Counts = snap
        .counters
        .iter()
        .map(|(name, &v)| (name.to_string(), v))
        .collect();
    for (name, h) in &snap.histograms {
        counts.insert(format!("{name}_count"), h.count);
    }
    counts
}

/// `after − before`, keeping only the entries that moved.
pub fn diff_counts(after: &Counts, before: &Counts) -> Counts {
    after
        .iter()
        .filter_map(|(name, &v)| {
            let d = v - before.get(name).copied().unwrap_or(0);
            (d > 0).then(|| (name.clone(), d))
        })
        .collect()
}

/// Per-layer self time of the traced rounds. Every span wraps one call
/// from the benchmark into a public function of the program, and no
/// span encloses another, so a span's duration is its self time.
/// Traced rounds also keep per-unit time samples and the benchmark's
/// own work counts.
#[derive(Default)]
pub struct Layers {
    on: bool,
    self_s: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    tally: Counts,
}

impl Layers {
    /// An accumulator that records only when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            ..Self::default()
        }
    }

    /// Whether this round is traced.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f`, adding its wall time to `layer` when tracing.
    pub fn time<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        self.span(layer, f).0
    }

    /// Like [`time`](Self::time), also returning the span's duration in
    /// seconds (0 when not tracing: untraced rounds read no clock here).
    pub fn span<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        if !self.on {
            return (f(), 0.0);
        }
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        *self.self_s.entry(layer).or_default() += secs;
        (out, secs)
    }

    /// Records one time sample under `name` when tracing.
    pub fn sample(&mut self, name: &'static str, secs: f64) {
        if self.on {
            self.samples.entry(name).or_default().push(secs);
        }
    }

    /// Adds `n` to the benchmark's own work count `name` when tracing.
    pub fn count(&mut self, name: &str, n: u64) {
        if self.on {
            *self.tally.entry(name.to_string()).or_default() += n;
        }
    }

    /// Median of the time samples recorded under `name` (0 when none).
    pub fn sample_median(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |v| median(v))
    }

    /// Total self time of `layer` so far, in seconds.
    pub fn total(&self, layer: &str) -> f64 {
        self.self_s.get(layer).copied().unwrap_or(0.0)
    }

    /// Self time summed over every layer, in seconds.
    pub fn sum(&self) -> f64 {
        self.self_s.values().sum()
    }

    /// Adds another round's self times and samples into this one.
    pub fn absorb(&mut self, other: Layers) {
        for (layer, s) in other.self_s {
            *self.self_s.entry(layer).or_default() += s;
        }
        for (name, v) in other.samples {
            self.samples.entry(name).or_default().extend(v);
        }
    }
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// The highest percentile of `values` with at least ten samples beyond
/// it: returns `(percentile, value)`. With fewer than eleven samples
/// the maximum stands in, reported as percentile 100.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 11 {
        return (100.0, v[n - 1]);
    }
    let k = n - 11;
    (100.0 * (k + 1) as f64 / n as f64, v[k])
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// 64-bit FNV-1a fingerprint of a sequence of words: the per-op answer
/// the round loop compares across rounds.
pub fn fingerprint(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut bytes = Vec::new();
    for w in words {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    egi_tskit::checkpoint::fnv64(&bytes)
}

/// One workload: a fixed list of ops replayed from a freshly built
/// state in every round.
pub trait Workload {
    /// Everything one round mutates.
    type State;

    /// Ops in one round.
    fn ops(&self) -> usize;

    /// Nominal wall time of one round's ops on a 2-vCPU host; the run
    /// makes `--seconds` ÷ this many rounds (at least two).
    fn round_seconds(&self) -> f64;

    /// Points the ops of one round process.
    fn points(&self) -> usize;

    /// Builds the state the ops run against; timed as `setup_s`.
    fn setup(&self) -> Result<Self::State, String>;

    /// Runs op `i`, leaving its answer in `state`. When `layers` is on,
    /// the op is decomposed into the public calls it is built from,
    /// each timed into its layer; the answer must not change.
    fn op(&self, state: &mut Self::State, i: usize, layers: &mut Layers) -> Result<(), String>;

    /// Fingerprint of op `i`'s answer, read after its clock stopped.
    fn answer(&self, state: &Self::State, i: usize) -> u64;

    /// Correctness gates after a round's timed ops, given that round's
    /// answers (`None` for an op that failed): returns `(checks,
    /// failures)`.
    fn check(&self, state: &mut Self::State, answers: &[Option<u64>]) -> (u64, u64);

    /// The paper's Eq. 5 score of the round's final answers.
    fn score(&self, state: &Self::State) -> f64;

    /// The layers a traced op is split into, reported as self time per
    /// op.
    const LAYERS: &'static [&'static str];

    /// This workload's other per-layer metrics (ratios, per-unit times),
    /// from the traced rounds.
    fn layer_metrics(&self, rounds: &Rounds) -> Vec<Metric>;
}

/// What the rounds of one run measured.
pub struct Rounds {
    /// Every setup's wall time.
    pub setup_s: Vec<f64>,
    /// Every op execution's wall time in the untraced rounds.
    pub op_s: Vec<f64>,
    /// Every op execution's wall time in the traced rounds.
    pub traced_op_s: Vec<f64>,
    /// Work counts of one untraced round's ops.
    pub counts: Counts,
    /// Work counts of one traced round's ops (empty untraced).
    pub traced_counts: Counts,
    /// Self time per layer, summed over the traced rounds.
    pub layers: Layers,
    pub untraced_rounds: usize,
    pub traced_rounds: usize,
    pub score: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// Setups per run at the least: `setup_s` is their median.
const MIN_SETUPS: usize = 5;

/// Runs `rounds` rounds of `w`. With `trace`, odd rounds are traced
/// and even rounds are not, so the two kinds interleave in time. Every
/// round builds its state afresh (setting up more than once when there
/// are fewer than [`MIN_SETUPS`] rounds) and replays the same ops, so
/// every op must give the same answer in every round and every round of
/// one kind must do the same work; each difference counts as a failure.
/// The workload's gates run after the last round.
pub fn run_rounds<W: Workload>(w: &W, rounds: usize, trace: bool) -> Result<Rounds, String> {
    let n = w.ops();
    let setups_per_round = MIN_SETUPS.div_ceil(rounds);
    let mut out = Rounds {
        setup_s: Vec::new(),
        op_s: Vec::new(),
        traced_op_s: Vec::new(),
        counts: Counts::new(),
        traced_counts: Counts::new(),
        layers: Layers::new(true),
        untraced_rounds: 0,
        traced_rounds: 0,
        score: 0.0,
        attempted: 0,
        failed: 0,
    };
    let mut reference: Option<Vec<Option<u64>>> = None;
    for r in 0..rounds {
        let traced = trace && r % 2 == 1;
        let mut state = None;
        for _ in 0..setups_per_round {
            drop(state.take());
            let start = Instant::now();
            state = Some(w.setup()?);
            out.setup_s.push(start.elapsed().as_secs_f64());
        }
        let mut state = state.expect("at least one setup per round");

        let mut layers = Layers::new(traced);
        let mut answers = Vec::with_capacity(n);
        let before = registry_counts();
        for i in 0..n {
            let start = Instant::now();
            let done = w.op(&mut state, i, &mut layers);
            let secs = start.elapsed().as_secs_f64();
            out.attempted += 1;
            if traced {
                out.traced_op_s.push(secs);
            } else {
                out.op_s.push(secs);
            }
            match done {
                Ok(()) => answers.push(Some(w.answer(&state, i))),
                Err(e) => {
                    eprintln!("round {r} op {i} failed: {e}");
                    out.failed += 1;
                    answers.push(None);
                }
            }
        }
        let mut counts = diff_counts(&registry_counts(), &before);
        counts.extend(std::mem::take(&mut layers.tally));

        match &reference {
            None => reference = Some(answers.clone()),
            Some(expected) => {
                // An op that returned an error is already counted.
                let differ = expected
                    .iter()
                    .zip(&answers)
                    .filter(|pair| matches!(pair, (Some(a), Some(b)) if a != b))
                    .count();
                if differ > 0 {
                    eprintln!("round {r}: {differ} op answers differ from round 0");
                    out.failed += differ as u64;
                }
            }
        }
        let (kind_rounds, kind_counts) = if traced {
            out.layers.absorb(layers);
            (&mut out.traced_rounds, &mut out.traced_counts)
        } else {
            (&mut out.untraced_rounds, &mut out.counts)
        };
        if *kind_rounds == 0 {
            *kind_counts = counts.clone();
        }
        *kind_rounds += 1;
        // One repeat check per round: the first round of its kind's work
        // counts, and round 0's score bit for bit.
        let score = w.score(&state);
        out.attempted += 1;
        if *kind_counts != counts || (r > 0 && score.to_bits() != out.score.to_bits()) {
            eprintln!("round {r}: work counts or score differ from the first round");
            out.failed += 1;
        }
        out.score = score;
        if r + 1 == rounds {
            let (checks, failures) = w.check(&mut state, &answers);
            out.attempted += checks;
            out.failed += failures;
        }
    }
    Ok(out)
}
