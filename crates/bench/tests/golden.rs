//! The paper-facing numbers, pinned.
//!
//! `golden/experiments.txt` is the output of `experiments all`. Each cheap
//! experiment below must print a contiguous block of it, so a change that
//! moves one of its numbers fails here; the whole file is diffed in the
//! release CI leg. EXPERIMENTS.md must quote the golden file's `measured:`
//! lines and its Table II and headline-claims tables verbatim.
//!
//! A change that is meant to move a number regenerates the file in the
//! same commit and says why in CHANGES.md.

use std::process::Command;

const GOLDEN: &str = include_str!("../golden/experiments.txt");
const EXPERIMENTS_MD: &str = include_str!("../../../EXPERIMENTS.md");
const REGENERATE: &str = "cargo run --release -q -p acamar-bench --bin experiments -- all \
                          > crates/bench/golden/experiments.txt";

/// Runs `experiments <name>` and asserts its stdout is a block of the
/// golden file.
fn matches_golden(name: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg(name)
        .output()
        .expect("spawn the experiments binary");
    assert!(out.status.success(), "`experiments {name}` failed: {out:?}");
    let printed = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        printed.starts_with("\n=== "),
        "{name}: no banner:\n{printed}"
    );
    if GOLDEN.contains(&printed) {
        return;
    }
    let banner = printed.lines().nth(1).expect("banner line");
    let golden_from_banner = GOLDEN.lines().skip_while(|l| *l != banner);
    let first_diff = printed
        .lines()
        .skip(1)
        .zip(golden_from_banner.chain(std::iter::repeat("<end of file>")))
        .find(|(p, g)| p != g)
        .map(|(p, g)| format!("\n  golden:  {g}\n  printed: {p}"))
        .unwrap_or_default();
    panic!(
        "`experiments {name}` no longer prints its block of crates/bench/golden/experiments.txt.{first_diff}\n\
         If the change is meant, regenerate the file with\n  {REGENERATE}\n\
         and say in CHANGES.md which numbers moved and why.\n--- printed ---\n{printed}"
    );
}

#[test]
fn table1_criteria() {
    matches_golden("table1_criteria");
}

#[test]
fn fig02_baseline_underutilization() {
    matches_golden("fig02_baseline_underutilization");
}

#[test]
fn fig08_gpu_underutilization() {
    matches_golden("fig08_gpu_underutilization");
}

#[test]
fn fig11_msid_effects() {
    matches_golden("fig11_msid_effects");
}

#[test]
fn fig12_sampling_rate() {
    matches_golden("fig12_sampling_rate");
}

#[test]
fn ablation_msid() {
    matches_golden("ablation_msid");
}

#[test]
fn ablation_reorder() {
    matches_golden("ablation_reorder");
}

/// The table printed under the banner that starts with `title`: its
/// header, rule and rows.
fn table(title: &str) -> Vec<&'static str> {
    let rows: Vec<&'static str> = GOLDEN
        .lines()
        .skip_while(|l| !l.starts_with(&format!("=== {title}")))
        .skip(1)
        .take_while(|l| !l.is_empty())
        .collect();
    assert!(!rows.is_empty(), "no `{title}` table in the golden file");
    rows
}

#[test]
fn experiments_md_quotes_the_golden_file() {
    let measured = GOLDEN.lines().filter(|l| l.starts_with("measured:"));
    let quoted: Vec<&str> = measured
        .chain(table("Table II"))
        .chain(table("Headline claims"))
        .collect();
    assert!(quoted.len() > 40, "{} lines", quoted.len());
    let missing: Vec<&str> = quoted
        .into_iter()
        .filter(|line| !EXPERIMENTS_MD.lines().any(|l| l == *line))
        .collect();
    assert!(
        missing.is_empty(),
        "EXPERIMENTS.md does not quote these lines of crates/bench/golden/experiments.txt:\n{}",
        missing.join("\n")
    );
}
