//! Golden stdout of the paper-reproduction binaries.
//!
//! `headline`, `table1`–`table3` and `fig3`–`fig5` print the paper's tables
//! and figures as text. Each binary runs as a subprocess and its stdout must
//! match the committed fixture byte for byte, so a change anywhere in the
//! pipeline they drive (datasets, models, profiling, the CHRIS runtime,
//! energy accounting) that moves a printed number shows up here. If a change
//! is *meant* to move the output, regenerate the fixtures with
//!
//! ```text
//! UPDATE_FIXTURES=1 cargo test -p bench --test paper_binaries
//! ```
//!
//! and call the change out in the PR description.

use std::path::Path;
use std::process::Command;

fn assert_stdout_matches_fixture(name: &str, binary: &str) {
    let output = Command::new(binary)
        .output()
        .unwrap_or_else(|e| panic!("running {name} failed: {e}"));
    assert!(
        output.status.success(),
        "{name} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let fresh = String::from_utf8(output.stdout).expect("stdout is UTF-8");
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/paper")
        .join(format!("{name}.txt"));
    if std::env::var_os("UPDATE_FIXTURES").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &fresh).unwrap();
        return;
    }
    let golden =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    if let Some((i, (fresh, golden))) = fresh
        .lines()
        .zip(golden.lines())
        .enumerate()
        .find(|(_, (fresh, golden))| fresh != golden)
    {
        panic!(
            "{name} stdout drifted from its fixture at line {}:\n  fresh:  {fresh}\n  golden: {golden}\n\
             if this change is intentional, regenerate the fixtures with:\n  \
             UPDATE_FIXTURES=1 cargo test -p bench --test paper_binaries",
            i + 1
        );
    }
    assert!(
        fresh == golden,
        "{name} stdout drifted from its fixture in length ({} vs {} bytes)",
        fresh.len(),
        golden.len()
    );
}

#[test]
fn headline_stdout_is_golden() {
    assert_stdout_matches_fixture("headline", env!("CARGO_BIN_EXE_headline"));
}

#[test]
fn table1_stdout_is_golden() {
    assert_stdout_matches_fixture("table1", env!("CARGO_BIN_EXE_table1"));
}

#[test]
fn table2_stdout_is_golden() {
    assert_stdout_matches_fixture("table2", env!("CARGO_BIN_EXE_table2"));
}

#[test]
fn table3_stdout_is_golden() {
    assert_stdout_matches_fixture("table3", env!("CARGO_BIN_EXE_table3"));
}

#[test]
fn fig3_stdout_is_golden() {
    assert_stdout_matches_fixture("fig3", env!("CARGO_BIN_EXE_fig3"));
}

#[test]
fn fig4_stdout_is_golden() {
    assert_stdout_matches_fixture("fig4", env!("CARGO_BIN_EXE_fig4"));
}

#[test]
fn fig5_stdout_is_golden() {
    assert_stdout_matches_fixture("fig5", env!("CARGO_BIN_EXE_fig5"));
}
