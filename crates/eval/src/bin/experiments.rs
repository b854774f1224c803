//! Experiment driver: regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p egi-eval --bin experiments -- <cmd> [--quick] [--out DIR] [--seed S]
//!
//! cmd ∈ { fig1, table4, table7, table8, table9, table10, table12,
//!         table13, fig8, fig9, multi, all }
//! ```
//!
//! An unknown command or flag, or a missing or unparsable flag value,
//! exits with status 2 and one line on stderr before anything is
//! written. A failed write exits with status 1 and one line naming the
//! path.
//!
//! `table4` produces Tables 4, 5 and 6 plus the Figure 10 CSV in one pass
//! (they share the same runs); `table10` produces Tables 10 and 11;
//! `table13` produces Tables 13 and 14. `--quick` shrinks corpora and
//! ensembles for smoke runs; the defaults match the paper (25 series per
//! dataset, `N = 50`, `wmax = amax = 10`, `τ = 40%`).

use std::io;

use egi_core::EnsembleDetector;
use egi_eval::report::ReportSink;
use egi_eval::runner::{EnsembleParams, ExperimentParams};
use egi_eval::scalability::{render_fig8, run_scalability, ScalabilityPoint, SeriesKind};
use egi_eval::sweeps::{
    render_metric_sweep, render_tau_table, render_wtl_sweep, run_sweep, run_tau_sweep,
    table10_arms, table13_arms, table7_arms, table8_arms, table9_arms, SweepArm, SweepMetric,
    TauCell,
};
use egi_eval::table45::{
    fig10_csv, render_table4, render_table5, render_table6, run_all, DatasetResult,
};
use egi_eval::{fig1, multi};
use egi_tskit::gen::power::fridge_freezer_series;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Every experiment, in the order `all` runs them.
const COMMANDS: [&str; 11] = [
    "fig1", "table4", "table7", "table8", "table9", "table10", "table12", "table13", "fig8",
    "fig9", "multi",
];

struct Cli {
    cmd: String,
    quick: bool,
    out: String,
    seed: u64,
}

/// Rejects the command line: one line naming the fault and the usage on
/// stderr, exit status 2, nothing created.
fn usage_error(fault: &str) -> ! {
    eprintln!(
        "experiments: {fault}; usage: experiments [{}|all] [--quick] [--out DIR] [--seed S]",
        COMMANDS.join("|")
    );
    std::process::exit(2);
}

fn parse_cli() -> Cli {
    let mut cmd = String::from("all");
    let mut quick = false;
    let mut out = String::from("results");
    let mut seed = 0xE61_2020u64;
    let mut args = std::env::args().skip(1);
    let mut first = true;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => {
                out = args
                    .next()
                    .unwrap_or_else(|| usage_error("--out needs a directory"))
            }
            "--seed" => {
                let value = args
                    .next()
                    .unwrap_or_else(|| usage_error("--seed needs a value"));
                seed = value
                    .parse()
                    .unwrap_or_else(|_| usage_error(&format!("--seed: cannot parse {value:?}")));
            }
            flag if flag.starts_with("--") => usage_error(&format!("unknown flag {flag:?}")),
            other if first => cmd = other.to_string(),
            other => usage_error(&format!("unexpected argument {other:?}")),
        }
        first = false;
    }
    if cmd != "all" && !COMMANDS.contains(&cmd.as_str()) {
        usage_error(&format!("unknown command {cmd:?}"));
    }
    Cli {
        cmd,
        quick,
        out,
        seed,
    }
}

fn params(cli: &Cli) -> ExperimentParams {
    let mut p = if cli.quick {
        ExperimentParams::quick()
    } else {
        ExperimentParams::default()
    };
    p.seed = cli.seed;
    p
}

fn main() {
    let cli = parse_cli();
    if let Err(e) = run(&cli) {
        eprintln!("experiments: {e}");
        std::process::exit(1);
    }
}

fn run(cli: &Cli) -> io::Result<()> {
    let sink = ReportSink::new(&cli.out)?;
    let p = params(cli);
    eprintln!(
        "running {} (quick={}, seed={:#x}) → {}",
        cli.cmd,
        cli.quick,
        p.seed,
        sink.dir().display()
    );

    let run_one = |cmd: &str| match cmd {
        "fig1" => cmd_fig1(&sink, cli),
        "table4" => cmd_table4(&sink, &p),
        "table7" => cmd_wtl_sweep(&sink, &p, "table7", table7_arms(p.ensemble)),
        "table8" => cmd_wtl_sweep(&sink, &p, "table8", table8_arms(p.ensemble)),
        "table9" => cmd_wtl_sweep(&sink, &p, "table9", table9_arms(p.ensemble)),
        "table10" => cmd_metric_sweep(&sink, &p, "table10_11", table10_arms(p.ensemble)),
        "table12" => cmd_table12(&sink, &p, cli),
        "table13" => cmd_metric_sweep(&sink, &p, "table13_14", table13_arms(p.ensemble)),
        "fig8" => cmd_fig8(&sink, &p, cli),
        "fig9" => cmd_fig9(&sink, &p, cli),
        "multi" => cmd_multi(&sink, &p, cli),
        other => unreachable!("parse_cli accepted the unknown command {other:?}"),
    };

    if cli.cmd == "all" {
        for cmd in COMMANDS {
            eprintln!("=== {cmd} ===");
            run_one(cmd)?;
        }
        Ok(())
    } else {
        run_one(&cli.cmd)
    }
}

fn cmd_fig1(sink: &ReportSink, cli: &Cli) -> io::Result<()> {
    let (wmax, amax) = if cli.quick { (6, 6) } else { (10, 10) };
    let r = fig1::run_fig1(wmax, amax, cli.seed);
    let mut body = fig1::render_fig1(&r, wmax, amax);
    let ranked = r.ranked();
    body.push_str(&format!(
        "\nBest pair: (w={}, a={}) score {:.3}; second best (w={}, a={}) score {:.3}; L∞ parameter distance {}.\n",
        ranked[0].w,
        ranked[0].a,
        ranked[0].score,
        ranked[1].w,
        ranked[1].a,
        ranked[1].score,
        r.best_to_second_distance()
    ));
    sink.markdown(
        "fig1",
        "Figure 1: Score per (w, a) on dishwasher data",
        &body,
    )?;
    sink.json("fig1", &r.to_json())
}

fn cmd_table4(sink: &ReportSink, p: &ExperimentParams) -> io::Result<()> {
    let results = run_all(p);
    sink.markdown("table4", "Table 4: average Score", &render_table4(&results))?;
    sink.markdown("table5", "Table 5: HitRate", &render_table5(&results))?;
    sink.markdown(
        "table6",
        "Table 6: wins/ties/losses vs all baselines",
        &render_table6(&results),
    )?;
    sink.csv("fig10", &fig10_csv(&results))?;
    sink.json(
        "table4_5_6",
        &results.iter().map(DatasetResult::to_json).collect(),
    )
}

fn cmd_wtl_sweep(
    sink: &ReportSink,
    p: &ExperimentParams,
    name: &str,
    arms: Vec<(String, EnsembleParams, f64)>,
) -> io::Result<()> {
    let result = run_sweep(&arms, p);
    sink.markdown(
        name,
        &format!("{name}: wins/ties/losses vs best GI baseline"),
        &render_wtl_sweep(&result),
    )?;
    sink.json(name, &result.iter().map(SweepArm::to_json).collect())
}

fn cmd_metric_sweep(
    sink: &ReportSink,
    p: &ExperimentParams,
    name: &str,
    arms: Vec<(String, EnsembleParams, f64)>,
) -> io::Result<()> {
    let result = run_sweep(&arms, p);
    let body = format!(
        "Average Score:\n\n{}\nHitRate:\n\n{}",
        render_metric_sweep(&result, SweepMetric::Score),
        render_metric_sweep(&result, SweepMetric::HitRate)
    );
    sink.markdown(name, &format!("{name}: Score and HitRate sweep"), &body)?;
    sink.json(name, &result.iter().map(SweepArm::to_json).collect())
}

fn cmd_table12(sink: &ReportSink, p: &ExperimentParams, cli: &Cli) -> io::Result<()> {
    let taus = [0.05, 0.10, 0.20, 0.40, 0.80, 1.0];
    let repeats = if cli.quick { 3 } else { 20 };
    let cells = run_tau_sweep(&taus, repeats, p);
    sink.markdown(
        "table12",
        "Table 12: mean (std) of average Score vs τ",
        &render_tau_table(&cells, &taus),
    )?;
    sink.json("table12", &cells.iter().map(TauCell::to_json).collect())
}

fn cmd_fig8(sink: &ReportSink, p: &ExperimentParams, cli: &Cli) -> io::Result<()> {
    let lengths: Vec<usize> = if cli.quick {
        vec![5_000, 10_000, 20_000]
    } else {
        vec![10_000, 20_000, 40_000, 80_000, 160_000]
    };
    let cap = if cli.quick { Some(20_000) } else { None };
    let window = 300;
    let mut points = Vec::new();
    for kind in SeriesKind::ALL {
        points.extend(run_scalability(
            kind,
            &lengths,
            window,
            &p.ensemble,
            p.seed,
            cap,
        ));
    }
    sink.markdown(
        "fig8",
        "Figure 8: computation time vs series length (ensemble vs STOMP)",
        &render_fig8(&points),
    )?;
    sink.json(
        "fig8",
        &points.iter().map(ScalabilityPoint::to_json).collect(),
    )?;
    let cols: Vec<f64> = points.iter().map(|pt| pt.len as f64).collect();
    let ens: Vec<f64> = points.iter().map(|pt| pt.ensemble_secs).collect();
    let sto: Vec<f64> = points.iter().map(|pt| pt.stomp_secs).collect();
    let any10: Vec<f64> = points.iter().map(|pt| pt.anytime10_secs).collect();
    sink.csv(
        "fig8",
        &egi_tskit::io::columns_to_csv(&[
            ("length", &cols),
            ("ensemble_secs", &ens),
            ("stomp_secs", &sto),
            ("anytime10_secs", &any10),
        ]),
    )
}

fn cmd_fig9(sink: &ReportSink, p: &ExperimentParams, cli: &Cli) -> io::Result<()> {
    let total_len = if cli.quick { 60_000 } else { 600_000 };
    let cycle = 900;
    let mut rng = StdRng::seed_from_u64(p.seed);
    let profile = fridge_freezer_series(total_len, cycle, &mut rng);
    let det = EnsembleDetector::new(p.ensemble.config(cycle));
    let t0 = std::time::Instant::now();
    let report = det.detect(&profile.values, 2, p.seed);
    let secs = t0.elapsed().as_secs_f64();

    let mut body = format!(
        "Series length {total_len}, window {cycle}, detection time {secs:.1} s.\n\n| Rank | Found at | Ground truth events |\n|---|---|---|\n"
    );
    let gts = profile
        .anomalies
        .iter()
        .map(|&(s, l)| format!("[{s}, {})", s + l))
        .collect::<Vec<_>>()
        .join(", ");
    for (i, c) in report.anomalies.iter().enumerate() {
        body.push_str(&format!("| {} | {} | {} |\n", i + 1, c.start, gts));
    }
    let found = profile
        .anomalies
        .iter()
        .filter(|&&(gs, gl)| {
            report
                .anomalies
                .iter()
                .any(|c| egi_tskit::window::intervals_overlap(c.start, c.len, gs, gl))
        })
        .count();
    body.push_str(&format!(
        "\n{found} of {} planted anomalies recovered in the top-2 candidates.\n",
        profile.anomalies.len()
    ));
    sink.markdown("fig9", "Figure 9: fridge-freezer case study", &body)
}

fn cmd_multi(sink: &ReportSink, p: &ExperimentParams, cli: &Cli) -> io::Result<()> {
    let series_count = if cli.quick { 3 } else { 10 };
    let r = multi::run_multi_anomaly(series_count, 2, &p.ensemble, 3, p.seed);
    sink.markdown(
        "multi_anomaly",
        "Section 7.5: multiple anomalies (StarLightCurve)",
        &multi::render_multi(&r),
    )?;
    sink.json("multi_anomaly", &r.to_json())
}
