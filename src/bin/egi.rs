//! `egi` — command-line anomaly detection on CSV time series.
//!
//! ```text
//! egi detect   <series.csv> --window N [--k 3] [--seed 42] [--n 50]
//!                           [--wmax 10] [--amax 10] [--tau 0.4]
//!                           [--curve curve.csv]
//! egi discord  <series.csv> --window N [--k 3]
//! egi generate <ecg|eeg|walk|fridge|dishwasher|FAMILY> --len L
//!                           [--seed 1] [--out series.csv]
//! ```
//!
//! `detect` runs the ensemble detector (paper defaults), `discord` the
//! STOMP baseline, `generate` any of the built-in synthetic generators
//! (FAMILY is a UCR-style family name such as `GunPoint`, producing a
//! labeled corpus series whose ground truth is printed to stderr).
//!
//! Each command takes one positional argument and only the flags shown
//! for it. A bad command line exits with status 2 and one line on
//! stderr before anything is read or written.

use egi::prelude::*;
use egi_tskit::io;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::process::exit;

/// Rejects the command line: one line naming the fault and the usage on
/// stderr, exit status 2.
fn usage_error(fault: &str) -> ! {
    eprintln!(
        "egi: {fault}; usage: egi detect <series.csv> --window N [--k 3] [--seed 42] [--n 50] [--wmax 10] [--amax 10] [--tau 0.4] [--curve out.csv] | egi discord <series.csv> --window N [--k 3] | egi generate <ecg|eeg|walk|fridge|dishwasher|FAMILY> --len L [--seed 1] [--out series.csv]"
    );
    exit(2);
}

/// Splits the arguments of command `cmd` into its one positional
/// argument and its flags. A flag outside `takes`, a flag without a
/// value, a second positional argument or none at all ([`usage_error`]
/// with `missing`) rejects the command line.
fn parse_args(
    cmd: &str,
    args: &[String],
    takes: &[&str],
    missing: &str,
) -> (String, HashMap<String, String>) {
    let mut positional = None;
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if !takes.contains(&name) {
                usage_error(&format!("{cmd} does not take --{name}"));
            }
            let value = it
                .next()
                .unwrap_or_else(|| usage_error(&format!("flag --{name} needs a value")));
            flags.insert(name.to_string(), value.clone());
        } else if positional.is_some() {
            usage_error(&format!("unexpected argument {a:?}"));
        } else {
            positional = Some(a.clone());
        }
    }
    let positional = positional.unwrap_or_else(|| usage_error(missing));
    (positional, flags)
}

fn parsed<T: std::str::FromStr>(name: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage_error(&format!("flag --{name}: cannot parse {value:?}")))
}

fn flag<T: std::str::FromStr>(flags: &HashMap<String, String>, name: &str, default: T) -> T {
    flags.get(name).map_or(default, |v| parsed(name, v))
}

fn required<T: std::str::FromStr>(flags: &HashMap<String, String>, name: &str) -> T {
    match flags.get(name) {
        Some(v) => parsed(name, v),
        None => usage_error(&format!("missing required flag --{name}")),
    }
}

/// Rejects the command line ([`usage_error`]) naming the flag when a
/// configuration built from the flags is out of range.
fn validated(checked: Result<(), egi_tskit::ConfigError>) {
    if let Err(e) = checked {
        let flag = match e.field {
            "ensemble_size" => "n",
            "selectivity" => "tau",
            field => field,
        };
        usage_error(&format!("flag --{flag}: {e}"));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage_error("missing command");
    }
    let (cmd, rest) = (args[0].as_str(), &args[1..]);
    match cmd {
        "detect" => cmd_detect(rest),
        "discord" => cmd_discord(rest),
        "generate" => cmd_generate(rest),
        other => usage_error(&format!("unknown command {other:?}")),
    }
}

fn load_series(path: &str) -> Vec<f64> {
    let series = io::read_series(path).unwrap_or_else(|e| {
        eprintln!("egi: cannot read {path}: {e}");
        exit(1);
    });
    if series.is_empty() {
        eprintln!("egi: {path}: no data points");
        exit(1);
    }
    series.into_vec()
}

fn cmd_detect(args: &[String]) {
    let (path, flags) = parse_args(
        "detect",
        args,
        &["window", "k", "seed", "n", "wmax", "amax", "tau", "curve"],
        "missing <series.csv>",
    );
    let window: usize = required(&flags, "window");
    let k: usize = flag(&flags, "k", 3);
    let seed: u64 = flag(&flags, "seed", 42);
    let config = EnsembleConfig {
        window,
        ensemble_size: flag(&flags, "n", 50),
        wmax: flag(&flags, "wmax", 10),
        amax: flag(&flags, "amax", 10),
        selectivity: flag(&flags, "tau", 0.4),
        ..EnsembleConfig::default()
    };
    validated(config.validate());
    let series = load_series(&path);
    let detector = EnsembleDetector::new(config);
    let t0 = std::time::Instant::now();
    let report = detector.detect(&series, k, seed);
    let secs = t0.elapsed().as_secs_f64();
    // The curve is written before anything else is printed, so a
    // failed write leaves stdout empty and stderr with its one line.
    if let Some(curve_path) = flags.get("curve") {
        io::write_series(curve_path, &report.curve).unwrap_or_else(|e| {
            eprintln!("egi: cannot write {curve_path}: {e}");
            exit(1);
        });
        eprintln!("wrote ensemble rule density curve to {curve_path}");
    }
    eprintln!(
        "{} points, window {window}, N={}, τ={:.0}% → {secs:.2}s",
        series.len(),
        config.ensemble_size,
        config.selectivity * 100.0,
    );
    println!("rank,start,end,mean_density");
    for (i, c) in report.anomalies.iter().enumerate() {
        println!("{},{},{},{:.6}", i + 1, c.start, c.start + c.len, c.score);
    }
}

fn cmd_discord(args: &[String]) {
    let (path, flags) = parse_args("discord", args, &["window", "k"], "missing <series.csv>");
    let window: usize = required(&flags, "window");
    let k: usize = flag(&flags, "k", 3);
    let config = DiscordConfig::new(window);
    validated(config.validate());
    let series = load_series(&path);
    let detector = DiscordDetector::new(config);
    let t0 = std::time::Instant::now();
    let discords = detector.detect(&series, k);
    eprintln!(
        "{} points, window {window} → {:.2}s",
        series.len(),
        t0.elapsed().as_secs_f64()
    );
    println!("rank,start,end,nn_distance");
    for (i, d) in discords.iter().enumerate() {
        println!(
            "{},{},{},{:.6}",
            i + 1,
            d.start,
            d.start + d.len,
            d.distance
        );
    }
}

fn cmd_generate(args: &[String]) {
    let (kind, flags) = parse_args(
        "generate",
        args,
        &["len", "seed", "out"],
        "missing the generator name",
    );
    let len: usize = flag(&flags, "len", 20_000);
    let seed: u64 = flag(&flags, "seed", 1);
    let out = flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| "series.csv".to_string());
    let mut rng = StdRng::seed_from_u64(seed);
    let series: Vec<f64> = match kind.as_str() {
        "ecg" => egi::tskit::gen::ecg_series(len, 256, 0.02, &mut rng),
        "eeg" => egi::tskit::gen::eeg_series(len, 128.0, 0.2, &mut rng),
        "walk" => egi::tskit::gen::random_walk(len, 1.0, &mut rng),
        "fridge" => {
            let p = egi::tskit::gen::fridge_freezer_series(len, 900, &mut rng);
            for (i, &(s, l)) in p.anomalies.iter().enumerate() {
                eprintln!("ground truth #{}: [{s}, {})", i + 1, s + l);
            }
            p.values
        }
        "dishwasher" => {
            let cycles = (len / 350).max(4);
            let p = egi::tskit::gen::dishwasher_series(cycles, Some(cycles / 2), &mut rng);
            for (i, &(s, l)) in p.anomalies.iter().enumerate() {
                eprintln!("ground truth #{}: [{s}, {})", i + 1, s + l);
            }
            p.values
        }
        family => match UcrFamily::from_name(family) {
            Some(f) => {
                let ls = CorpusSpec::paper(f).generate_one(&mut rng);
                eprintln!(
                    "ground truth: [{}, {}) (window = {})",
                    ls.gt_start,
                    ls.gt_start + ls.gt_len,
                    ls.gt_len
                );
                ls.series.into_vec()
            }
            None => usage_error(&format!("unknown generator {family:?}")),
        },
    };
    io::write_series(&out, &series).unwrap_or_else(|e| {
        eprintln!("egi: cannot write {out}: {e}");
        exit(1);
    });
    eprintln!("wrote {} points to {out}", series.len());
}
