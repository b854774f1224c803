//! The repository benchmark: the paper's ensemble detector batch and
//! online, and its matrix-profile discord baseline online. See
//! README.md for the workloads, the metrics and how to read them.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch-corpus --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`). The line before it
//! holds the details: rounds, ops, the tail percentile and the work
//! counts.

mod batch;
mod discord_fleet;
mod ensemble_fleet;
mod inputs;
mod measure;

use std::fmt::Write as _;
use std::process::exit;

use measure::{median, metric, peak_rss_mib, run_rounds, tail, Metric, Rounds, Workload};

const USAGE: &str = "usage: perfbench --workload <batch-corpus|ensemble-fleet|discord-fleet> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// Every per-layer metric, in `BENCHMARK.json` order, with its unit. A
/// workload reports 0 for a layer it bypasses.
const PER_LAYER: [(&str, &str); 27] = [
    ("tskit.parse_s", "s"),
    ("tskit.stats_s", "s"),
    ("sax.paa_s", "s"),
    ("sax.discretize_s", "s"),
    ("sax.kept_frac", "frac"),
    ("core.intern_s", "s"),
    ("sequitur.induce_s", "s"),
    ("core.density_s", "s"),
    ("core.combine_s", "s"),
    ("core.rank_s", "s"),
    ("serve.ingest_s", "s"),
    ("serve.evict_s", "s"),
    ("serve.flush_s", "s"),
    ("serve.refresh_s", "s"),
    ("serve.query_s", "s"),
    ("core.step_p50_s", "s"),
    ("core.step_tail_s", "s"),
    ("core.density.fold_ratio", "ratio"),
    ("tskit.checkpoint_save_s", "s"),
    ("tskit.checkpoint_mb", "MB"),
    ("discord.query_p50_s", "s"),
    ("discord.discords_s", "s"),
    ("discord.queries_per_point", "1/point"),
    ("discord.retransforms", "count"),
    ("discord.fft_plan_hit_frac", "frac"),
    ("trace.overhead_frac", "frac"),
    ("trace.unattributed_frac", "frac"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("{flag}: cannot parse {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        exit(2);
    });
    // One process, one thread: the rayon shim runs every parallel call
    // of the program serially on this thread.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("building the shim's pool cannot fail");
    let result = pool.install(|| match args.workload.as_str() {
        "batch-corpus" => measure(&batch::BatchCorpus::new(args.seed), &args),
        "ensemble-fleet" => measure(&ensemble_fleet::EnsembleFleet::new(args.seed), &args),
        "discord-fleet" => measure(&discord_fleet::DiscordFleet::new(args.seed), &args),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    });
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        exit(1);
    }
}

/// Runs the rounds `--seconds` asks for and prints the result lines.
fn measure<W: Workload>(w: &W, args: &Args) -> Result<(), String> {
    let rounds = ((args.seconds as f64 / w.round_seconds()).round() as usize).max(2);
    let r = run_rounds(w, rounds, args.trace)?;
    let (tail_pct, tail_s) = tail(&r.op_s);
    let metrics = if args.trace {
        per_layer(w, &r)
    } else {
        let op_total: f64 = r.op_s.iter().sum();
        let points = (w.points() * r.untraced_rounds) as f64;
        vec![
            metric("setup_s", median(&r.setup_s), "s"),
            metric("op_p50_s", median(&r.op_s), "s"),
            metric("op_tail_s", tail_s, "s"),
            metric("points_per_s", points / op_total, "1/s"),
            metric("peak_rss_mb", peak_rss_mib(), "MiB"),
            metric("score", r.score, "score"),
        ]
    };

    let mut detail = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"rounds\": {rounds}, \
         \"ops_per_round\": {}, \"points_per_round\": {}, \"setups\": {}, \
         \"op_tail_percentile\": {tail_pct:.2}, \"op_samples\": {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        w.ops(),
        w.points(),
        r.setup_s.len(),
        r.op_s.len(),
    );
    push_counts(&mut detail, "work_counts", &r.counts);
    if args.trace {
        push_counts(&mut detail, "traced_work_counts", &r.traced_counts);
    }
    detail.push('}');
    println!("{detail}");
    for m in &metrics {
        eprintln!("{:<28} {:>14.6} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "op_tail_s is p{tail_pct:.2} of {} untraced op samples; {} failed of {} attempted",
        r.op_s.len(),
        r.failed,
        r.attempted
    );
    println!(
        "{}",
        result_line(r.failed == 0, r.attempted, r.failed, &metrics)
    );
    Ok(())
}

/// Every per-layer metric: the workload's self time per op of each of
/// its layers, its other metrics, the trace overhead and the
/// unattributed share, and 0 for each layer the workload bypasses.
fn per_layer<W: Workload>(w: &W, r: &Rounds) -> Vec<Metric> {
    let traced: f64 = r.traced_op_s.iter().sum();
    let traced_ops = r.traced_op_s.len() as f64;
    let untraced_mean = r.op_s.iter().sum::<f64>() / r.op_s.len() as f64;
    let mut own: Vec<Metric> = W::LAYERS
        .iter()
        .map(|&name| metric(name, r.layers.total(name) / traced_ops, "s"))
        .collect();
    own.extend(w.layer_metrics(r));
    own.push(metric(
        "trace.overhead_frac",
        traced / traced_ops / untraced_mean - 1.0,
        "frac",
    ));
    own.push(metric(
        "trace.unattributed_frac",
        1.0 - r.layers.sum() / traced,
        "frac",
    ));
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = own.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
            metric(name, value, unit)
        })
        .collect()
}

/// Appends `, "key": {counts}` to a JSON object under construction.
fn push_counts(out: &mut String, key: &str, counts: &measure::Counts) {
    write!(out, ", \"{key}\": {{").expect("writing to a String");
    for (i, (name, v)) in counts.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(out, "{sep}\"{name}\": {v}").expect("writing to a String");
    }
    out.push('}');
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        write!(
            line,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        )
        .expect("writing to a String");
    }
    line.push_str("}}");
    line
}
