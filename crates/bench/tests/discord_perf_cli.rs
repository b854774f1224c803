//! The `discord-perf` binary's boundary: an unknown flag exits with
//! status 2 after one usage line on stderr, and an output path whose
//! parent is not a directory with status 1 after one `cannot write`
//! line, both before any work and before any file is written.

use std::process::Command;

#[test]
fn unknown_flags_exit_2_before_any_work_or_write() {
    let root = std::env::temp_dir().join("egi_bench_cli_test");
    std::fs::remove_dir_all(&root).ok();
    let cases: [(&[&str], &str); 4] = [
        (&["--quik"], "--quik"),
        (&["--full-seed"], "--full-seed"),
        (&["--quick", "--quik"], "--quik"),
        (&["out.json", "--full-seed"], "--full-seed"),
    ];
    for (i, (args, flag)) in cases.iter().enumerate() {
        // A fresh working directory per case, so the default
        // `BENCH_discord.json` would show up here too.
        let cwd = root.join(i.to_string());
        std::fs::create_dir_all(&cwd).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_discord-perf"))
            .args(*args)
            .current_dir(&cwd)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr:?}");
        assert_eq!(
            stderr,
            format!(
                "discord-perf: unknown flag {flag}; usage: discord-perf [--quick] [OUT.json]\n"
            ),
            "{args:?}"
        );
        assert!(out.stdout.is_empty(), "{args:?}: stdout {:?}", out.stdout);
        assert!(
            std::fs::read_dir(&cwd).unwrap().next().is_none(),
            "{args:?} wrote a file"
        );
    }
    std::fs::remove_dir_all(&root).ok();
}

/// One output path at most: a second one is rejected the same way.
#[test]
fn a_second_output_path_exits_2_before_any_write() {
    let cwd = std::env::temp_dir().join("egi_bench_cli_second_path");
    std::fs::remove_dir_all(&cwd).ok();
    std::fs::create_dir_all(&cwd).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_discord-perf"))
        .args(["--quick", "a.json", "b.json"])
        .current_dir(&cwd)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "discord-perf: unexpected argument b.json; usage: discord-perf [--quick] [OUT.json]\n"
    );
    assert!(std::fs::read_dir(&cwd).unwrap().next().is_none());
    std::fs::remove_dir_all(&cwd).ok();
}

/// An output path under a regular file is rejected before any work:
/// exit 1, nothing on stdout and one stderr line naming the path.
#[test]
fn an_output_path_under_a_regular_file_exits_1_before_any_work() {
    let file = std::env::temp_dir().join("egi_bench_cli_blocker");
    std::fs::write(&file, "").unwrap();
    let out_path = file.join("out.json");
    let out = Command::new(env!("CARGO_BIN_EXE_discord-perf"))
        .arg("--quick")
        .arg(&out_path)
        .output()
        .unwrap();
    std::fs::remove_file(&file).ok();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        format!(
            "discord-perf: cannot write {}: {} is not a directory\n",
            out_path.display(),
            file.display()
        )
    );
}
