//! The `experiments` binary's boundary: a bad command line exits with
//! status 2 after one line on stderr, prints nothing to stdout, and
//! creates no output directory.

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
