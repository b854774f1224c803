//! The `egi` binary end to end: its error paths (a bad command line,
//! an out-of-range flag or a CSV holding a non-finite value fails with
//! exactly one line on stderr and a nonzero exit code — never a panic
//! and its backtrace) and pinned answers of both detectors.

use std::path::PathBuf;
use std::process::Command;

/// Writes a 300-point sine series, with `poison` (if any) replacing the
/// value at index 120, to a temporary file and returns its path.
fn series_csv(name: &str, poison: Option<&str>) -> PathBuf {
    let mut text = String::new();
    for i in 0..300 {
        match poison {
            Some(cell) if i == 120 => text.push_str(cell),
            _ => text.push_str(&format!("{:?}", (i as f64 * 0.2).sin())),
        }
        text.push('\n');
    }
    let dir = std::env::temp_dir().join("egi_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, text).unwrap();
    path
}

/// Runs `egi` and asserts it exits with `code` after printing nothing
/// to stdout and exactly one `egi: ` line to stderr, none of it a
/// panic, and returns that line. A rejected command line (code 2)
/// names its fault and the usage: `egi: …; usage: …`.
fn assert_fails_cleanly(args: &[&str], code: i32) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_egi"))
        .args(args)
        .env("RUST_BACKTRACE", "1")
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(code), "{args:?}: stderr {stderr:?}");
    assert!(out.stdout.is_empty(), "{args:?}: stdout {:?}", out.stdout);
    assert_eq!(stderr.lines().count(), 1, "{args:?}: stderr {stderr:?}");
    assert!(!stderr.contains("panicked"), "{args:?}: stderr {stderr:?}");
    assert!(stderr.starts_with("egi: "), "{args:?}: stderr {stderr:?}");
    if code == 2 {
        assert!(
            stderr.contains("; usage: egi detect"),
            "{args:?}: stderr {stderr:?}"
        );
    }
    stderr
}

#[test]
fn bad_command_lines_exit_2_with_one_line() {
    for args in [
        &[][..],
        &["frobnicate"],
        &["detect", "--window", "32"],
        &["discord", "--window", "32"],
        &["generate", "--len", "100"],
    ] {
        assert_fails_cleanly(args, 2);
    }
}

#[test]
fn out_of_range_flags_exit_2_with_one_line() {
    let path = series_csv("clean.csv", None);
    let csv = path.to_str().unwrap();
    for flags in [
        &["--window", "0"][..],
        &["--window", "1"],
        &["--window", "32", "--n", "0"],
        &["--window", "32", "--wmax", "1"],
        &["--window", "100", "--wmax", "26"],
        &["--window", "32", "--amax", "30"],
        &["--window", "32", "--tau", "1.5"],
        &["--window", "32", "--tau", "nan"],
    ] {
        let args: Vec<&str> = ["detect", csv].iter().chain(flags).copied().collect();
        assert_fails_cleanly(&args, 2);
    }
    for window in ["0", "1"] {
        assert_fails_cleanly(&["discord", csv, "--window", window], 2);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn unparsable_or_missing_flags_still_exit_2_with_one_line() {
    let path = series_csv("clean_flags.csv", None);
    let csv = path.to_str().unwrap();
    assert_fails_cleanly(&["detect", csv, "--window", "abc"], 2);
    assert_fails_cleanly(&["detect", csv], 2);
    assert_fails_cleanly(&["discord", csv], 2);
    // A flag another command takes, a misspelt flag, or a second
    // positional argument is rejected, not ignored.
    assert_fails_cleanly(&["detect", csv, "--window", "100", "--tua", "0.1"], 2);
    assert_fails_cleanly(&["discord", csv, "--window", "64", "--seed", "3"], 2);
    assert_fails_cleanly(&["detect", csv, csv, "--window", "100"], 2);
    let out = path.with_file_name("misspelt_seed.csv");
    std::fs::remove_file(&out).ok();
    let out_arg = out.to_str().unwrap();
    assert_fails_cleanly(
        &[
            "generate", "ecg", "--len", "100", "--sed", "9", "--out", out_arg,
        ],
        2,
    );
    assert!(!out.exists(), "a rejected generate wrote {out_arg}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn non_finite_csv_cells_are_rejected_with_one_line() {
    for (name, cell) in [
        ("nan.csv", "nan"),
        ("inf.csv", "inf"),
        ("neg_inf.csv", "-inf"),
        ("overflow.csv", "1e400"),
    ] {
        let path = series_csv(name, Some(cell));
        let csv = path.to_str().unwrap();
        assert_fails_cleanly(&["detect", csv, "--window", "32"], 1);
        assert_fails_cleanly(&["discord", csv, "--window", "32"], 1);
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn missing_file_exits_1_with_one_line() {
    let path = std::env::temp_dir().join("egi_cli_test_missing.csv");
    let csv = path.to_str().unwrap();
    assert_fails_cleanly(&["detect", csv, "--window", "32"], 1);
    assert_fails_cleanly(&["discord", csv, "--window", "32"], 1);
}

#[test]
fn empty_csv_exits_1_with_one_line() {
    let path = series_csv("empty.csv", None);
    std::fs::write(&path, "").unwrap();
    let csv = path.to_str().unwrap();
    assert_fails_cleanly(&["detect", csv, "--window", "32"], 1);
    assert_fails_cleanly(&["discord", csv, "--window", "32"], 1);
    std::fs::remove_file(&path).ok();
}

/// Runs `egi` on `threads` rayon workers, asserts it succeeds, and
/// returns its stdout.
fn egi(args: &[&str], threads: &str) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_egi"))
        .args(args)
        .env("RAYON_NUM_THREADS", threads)
        .output()
        .unwrap();
    assert!(out.status.success(), "{args:?}: {out:?}");
    out.stdout
}

/// Writes `egi generate ecg --len 4000 --seed 7` to `name` in the test
/// directory and returns its path.
fn generated_ecg(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("egi_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let series = dir.join(name);
    let csv = series.to_str().unwrap();
    egi(
        &[
            "generate", "ecg", "--len", "4000", "--seed", "7", "--out", csv,
        ],
        "1",
    );
    series
}

/// The `start` column of a ranked CSV report.
fn starts(stdout: &[u8]) -> Vec<String> {
    let text = String::from_utf8(stdout.to_vec()).unwrap();
    text.lines()
        .skip(1)
        .map(|line| line.split(',').nth(1).unwrap().to_string())
        .collect()
}

/// The paper's detector end to end on a generated ECG: the top windows
/// are pinned, and stdout and the curve file are byte-identical for
/// every rayon worker count.
#[test]
fn detect_on_a_generated_ecg_is_pinned_for_every_worker_count() {
    let series = generated_ecg("pinned_ecg.csv");
    let csv = series.to_str().unwrap();
    let runs: Vec<(Vec<u8>, Vec<u8>)> = ["1", "2", "4"]
        .iter()
        .map(|threads| {
            let curve = series.with_file_name(format!("pinned_ecg_curve_{threads}.csv"));
            let path = curve.to_str().unwrap();
            let args = [
                "detect", csv, "--window", "100", "--seed", "7", "--curve", path,
            ];
            let stdout = egi(&args, threads);
            let written = std::fs::read(&curve).unwrap();
            std::fs::remove_file(&curve).ok();
            (stdout, written)
        })
        .collect();
    std::fs::remove_file(&series).ok();
    assert_eq!(starts(&runs[0].0), ["3010", "2755", "3900"]);
    for run in &runs[1..] {
        assert!(run == &runs[0], "output depends on the worker count");
    }
}

/// The matrix-profile baseline end to end on the same ECG: the top
/// discords are pinned.
#[test]
fn discord_on_a_generated_ecg_is_pinned() {
    let series = generated_ecg("pinned_ecg_discord.csv");
    let stdout = egi(
        &["discord", series.to_str().unwrap(), "--window", "64"],
        "1",
    );
    std::fs::remove_file(&series).ok();
    assert_eq!(starts(&stdout), ["712", "2009", "1494"]);
}

/// The matrix-profile baseline splits its diagonals across rayon
/// workers; stdout is byte-identical for every worker count.
#[test]
fn discord_output_is_identical_for_every_worker_count() {
    let series = generated_ecg("pinned_ecg_discord_workers.csv");
    let csv = series.to_str().unwrap();
    let runs: Vec<Vec<u8>> = ["1", "2", "4"]
        .iter()
        .map(|threads| egi(&["discord", csv, "--window", "64", "--k", "5"], threads))
        .collect();
    std::fs::remove_file(&series).ok();
    assert_eq!(starts(&runs[0]).len(), 5);
    for run in &runs[1..] {
        assert!(run == &runs[0], "output depends on the worker count");
    }
}

/// The matrix-profile baseline is shift-invariant end to end: the same
/// ECG shifted by +1e4 reports the clean answer.
#[test]
fn discord_on_the_pinned_ecg_shifted_by_1e4_reports_the_clean_answer() {
    let series = generated_ecg("pinned_ecg_discord_shifted.csv");
    let shifted: String = std::fs::read_to_string(&series)
        .unwrap()
        .lines()
        .map(|v| format!("{}\n", v.trim().parse::<f64>().unwrap() + 1e4))
        .collect();
    std::fs::write(&series, shifted).unwrap();
    let stdout = egi(
        &["discord", series.to_str().unwrap(), "--window", "64"],
        "1",
    );
    std::fs::remove_file(&series).ok();
    assert_eq!(starts(&stdout), ["712", "2009", "1494"]);
}

#[test]
fn valid_flags_still_detect() {
    let path = series_csv("valid.csv", None);
    let csv = path.to_str().unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_egi"))
        .args(["detect", csv, "--window", "32", "--n", "8"])
        .output()
        .unwrap();
    std::fs::remove_file(&path).ok();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("rank,start,"), "{stdout}");
}

/// Each of `detect`'s eight flags is taken and applied: `--k` sets the
/// rows, `--n` and `--tau` show in the summary line, and `--curve`
/// writes one density value per point.
#[test]
fn detect_applies_each_of_its_eight_flags() {
    let path = series_csv("all_flags.csv", None);
    let csv = path.to_str().unwrap();
    let curve = path.with_file_name("all_flags_curve.csv");
    let out = Command::new(env!("CARGO_BIN_EXE_egi"))
        .args(["detect", csv, "--window", "32", "--k", "2", "--seed", "5"])
        .args(["--n", "6", "--wmax", "6", "--amax", "5", "--tau", "1"])
        .args(["--curve", curve.to_str().unwrap()])
        .output()
        .unwrap();
    let written = std::fs::read_to_string(&curve);
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&curve).ok();
    assert!(out.status.success(), "{out:?}");
    assert_eq!(starts(&out.stdout).len(), 2);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("N=6, τ=100%"), "stderr {stderr:?}");
    assert_eq!(written.unwrap().lines().count(), 300);
}

/// The command line is checked before the series is read: a flag the
/// command does not take, or a second positional argument, exits 2
/// even when the series file does not exist (which would exit 1).
#[test]
fn a_bad_command_line_is_rejected_before_the_series_is_read() {
    let missing = std::env::temp_dir().join("egi_cli_test_never_written.csv");
    let csv = missing.to_str().unwrap();
    assert_fails_cleanly(&["detect", csv, "--window", "32", "--tua", "0.1"], 2);
    assert_fails_cleanly(&["discord", csv, "--window", "32", "--seed", "3"], 2);
    assert_fails_cleanly(&["discord", csv, csv, "--window", "32"], 2);
}

#[test]
fn generate_rejects_an_unknown_generator_and_writes_nothing() {
    let out = std::env::temp_dir().join("egi_cli_test_unknown_generator.csv");
    std::fs::remove_file(&out).ok();
    let out_arg = out.to_str().unwrap();
    assert_fails_cleanly(
        &["generate", "sawtooth", "--len", "100", "--out", out_arg],
        2,
    );
    assert!(!out.exists(), "a rejected generate wrote {out_arg}");
}

#[test]
fn generate_to_an_unwritable_path_exits_1_with_one_line() {
    let file = series_csv("generate_blocker.csv", None);
    let under_file = file.join("series.csv");
    assert_fails_cleanly(
        &[
            "generate",
            "walk",
            "--len",
            "100",
            "--out",
            under_file.to_str().unwrap(),
        ],
        1,
    );
    std::fs::remove_file(&file).ok();
}

/// A `--curve` path that cannot be written fails the run before any
/// answer is printed: stdout stays empty and stderr holds the one line
/// naming the path.
#[test]
fn detect_with_an_unwritable_curve_exits_1_before_printing_an_answer() {
    let path = series_csv("curve_blocker.csv", None);
    let csv = path.to_str().unwrap();
    let curve = path.join("curve.csv");
    let curve = curve.to_str().unwrap();
    let stderr = assert_fails_cleanly(&["detect", csv, "--window", "32", "--curve", curve], 1);
    std::fs::remove_file(&path).ok();
    assert!(
        stderr.starts_with(&format!("egi: cannot write {curve}: ")),
        "stderr {stderr:?}"
    );
}
