//! The paper's numbers, pinned: `experiments table4 --quick` prints
//! quick-mode Tables 4–6 and writes their per-series scores to
//! `table4_5_6.json` byte for byte as the committed goldens, so a change
//! that moves any score, hit rate or win count shows here. A change
//! meant to move them regenerates the goldens and records the old and
//! new tables.
//!
//! The quick corpus takes seconds even in release, so the test is
//! ignored by default; run it with
//! `cargo test --release -p egi-eval --test golden_tables -- --ignored`.

use std::process::Command;

#[test]
#[ignore = "runs the quick corpus; run in release with --ignored"]
fn quick_tables_4_to_6_match_the_golden() {
    let dir = std::env::temp_dir().join("egi_eval_golden_tables");
    std::fs::remove_dir_all(&dir).ok();
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["table4", "--quick", "--out"])
        .arg(&dir)
        .output()
        .unwrap();
    let json = std::fs::read_to_string(dir.join("table4_5_6.json"));
    std::fs::remove_dir_all(&dir).ok();
    assert!(out.status.success(), "{out:?}");
    let tables = String::from_utf8(out.stdout).unwrap();
    assert_eq!(tables, include_str!("fixtures/tables_4_to_6_quick.md"));
    assert_eq!(
        json.unwrap(),
        include_str!("fixtures/table4_5_6_quick.json")
    );
}
