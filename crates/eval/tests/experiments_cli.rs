//! The `experiments` binary's boundary: a bad command line exits with
//! status 2 after one line on stderr, prints nothing to stdout, and
//! creates no output directory; an output it cannot write exits with
//! status 1 after one line naming the path; and the JSON it writes is
//! pinned byte for byte.

use std::path::Path;
use std::process::Command;

#[test]
fn bad_arguments_exit_2_with_one_line_and_create_nothing() {
    let root = std::env::temp_dir().join("egi_eval_cli_test");
    std::fs::remove_dir_all(&root).ok();
    let cases: [&[&str]; 7] = [
        &["table45", "--quick", "--out", "out"],
        &["table4", "--quick", "--bogus", "--out", "out"],
        &["--bogus"],
        &["table4", "--quick", "--out"],
        &["table4", "--out", "out", "--seed"],
        &["table4", "--out", "out", "--seed", "abc"],
        &["table4", "table5", "--out", "out"],
    ];
    for (i, args) in cases.iter().enumerate() {
        // A fresh working directory per case, so the default `results`
        // directory would show up here too.
        let cwd = root.join(i.to_string());
        std::fs::create_dir_all(&cwd).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(*args)
            .current_dir(&cwd)
            .env("RUST_BACKTRACE", "1")
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr:?}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: stderr {stderr:?}");
        assert!(stderr.contains("usage:"), "{args:?}: stderr {stderr:?}");
        assert!(!stderr.contains("panicked"), "{args:?}: stderr {stderr:?}");
        assert!(out.stdout.is_empty(), "{args:?}: stdout {:?}", out.stdout);
        assert!(is_empty_dir(&cwd), "{args:?} created output");
    }
    std::fs::remove_dir_all(&root).ok();
}

fn is_empty_dir(dir: &Path) -> bool {
    std::fs::read_dir(dir).unwrap().next().is_none()
}

#[test]
fn an_unwritable_output_exits_1_with_one_line() {
    let root = std::env::temp_dir().join("egi_eval_cli_unwritable");
    std::fs::remove_dir_all(&root).ok();
    std::fs::create_dir_all(&root).unwrap();
    let file = root.join("file");
    std::fs::write(&file, "").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["fig1", "--quick", "--out"])
        .arg(file.join("out"))
        .env("RUST_BACKTRACE", "1")
        .output()
        .unwrap();
    std::fs::remove_dir_all(&root).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr {stderr:?}");
    assert_eq!(stderr.lines().count(), 1, "stderr {stderr:?}");
    assert!(
        stderr.starts_with(&format!(
            "experiments: cannot write {}: ",
            file.join("out").display()
        )),
        "stderr {stderr:?}"
    );
    assert!(!stderr.contains("panicked"), "stderr {stderr:?}");
}

/// A write that fails after the output directory was made (here
/// `fig1.json` is a directory) also exits 1, with the one error line
/// naming the file, after the progress line.
#[test]
fn a_failed_write_inside_the_output_directory_exits_1_naming_the_file() {
    let dir = std::env::temp_dir().join("egi_eval_cli_blocked_json");
    std::fs::remove_dir_all(&dir).ok();
    let json = dir.join("fig1.json");
    std::fs::create_dir_all(&json).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["fig1", "--quick", "--out"])
        .arg(&dir)
        .env("RUST_BACKTRACE", "1")
        .output()
        .unwrap();
    let wrote_markdown = dir.join("fig1.md").exists();
    std::fs::remove_dir_all(&dir).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr {stderr:?}");
    assert!(!stderr.contains("panicked"), "stderr {stderr:?}");
    let errors: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("experiments: "))
        .collect();
    assert_eq!(errors.len(), 1, "stderr {stderr:?}");
    assert!(
        errors[0].starts_with(&format!("experiments: cannot write {}: ", json.display())),
        "stderr {stderr:?}"
    );
    assert_eq!(stderr.lines().last(), Some(errors[0]), "stderr {stderr:?}");
    assert!(wrote_markdown, "fig1.md precedes fig1.json");
}

/// `experiments fig1 --quick` writes `fig1.json` byte for byte as the
/// committed fixture.
#[test]
fn quick_fig1_json_matches_the_fixture() {
    let dir = std::env::temp_dir().join("egi_eval_fig1_json");
    std::fs::remove_dir_all(&dir).ok();
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["fig1", "--quick", "--out"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let json = std::fs::read_to_string(dir.join("fig1.json")).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(json, include_str!("fixtures/fig1_quick.json"));
}
