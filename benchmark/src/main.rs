//! The repository's one benchmark. See `README.md` beside this package
//! for metric definitions and how to run it.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload <name>] [--seed <u64>] [--seconds <n>] [--trace <0|1>] [--aa]
//! ```
//!
//! With `--workload` it runs that workload once — untraced (`--trace 0`,
//! the end-to-end metrics) or traced (`--trace 1`, the per-layer metrics) —
//! and prints one JSON object as the last line of standard output. Without
//! it, every workload runs both ways, each run in a child process of its
//! own, as the driver runs them. `--aa` runs every workload's untraced run
//! twice with the same seed and prints the differences.

mod arms;
mod host;
mod inputs;
mod json;
mod layers;
mod span;
mod spec;
mod stats;

use arms::{Budget, Rig, CLIENTS, OUTSTANDING, SHARDS, WORKERS};
use inputs::{Scale, Workload};
use json::Json;
use spec::{END_TO_END, INTERACTIONS, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Default measuring time, the same as `BENCHMARK.json`'s `run_seconds`.
const RUN_SECONDS: f64 = 26.0;
/// The command `BENCHMARK.json` gives the driver.
const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

const USAGE: &str =
    "usage: acamar-benchmark [--workload <table2_warm|stencil_long|cold_patterns|service_mixed>] \
[--seed <u64>] [--seconds <n>] [--trace <0|1>] [--aa] [--ledger-json]";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa: bool,
    ledger_json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        aa: false,
        ledger_json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--aa" => args.aa = true,
            "--ledger-json" => args.ledger_json = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Where traces go: `out/` beside this package's manifest.
fn out_dir() -> PathBuf {
    let package = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from("benchmark"), PathBuf::from);
    package.join("out")
}

/// Sets up repeatedly — at least three times, and until 1.5 s or seven
/// set-ups — and returns the last rig with the median set-up time.
fn timed_setup(workload: Workload, seed: u64) -> (Rig, f64, usize) {
    let mut times = Vec::new();
    loop {
        let t0 = Instant::now();
        let rig = arms::setup(workload, seed, Scale::Full);
        times.push(t0.elapsed().as_secs_f64());
        if times.len() >= 3 && (times.iter().sum::<f64>() >= 1.5 || times.len() >= 7) {
            return (rig, stats::median(&times), times.len());
        }
        // Dropped here, before the next set-up, so that peak memory is
        // that of one rig.
        drop(rig);
    }
}

/// One run's result: the metrics by name and the output checks' verdict.
struct Outcome {
    workload: Workload,
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    correct: bool,
}

impl Outcome {
    fn json_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Int(self.attempted)),
            ("failed", Json::Int(self.failed)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|&(name, value, unit)| {
                    (
                        name,
                        Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                    )
                })),
            ),
        ])
        .render()
    }
}

fn clients_line(rig: &Rig) -> String {
    match rig.service {
        Some(_) => format!(
            "closed loop: {CLIENTS} clients x {OUTSTANDING} tickets outstanding, {SHARDS} shards x 1 worker; batch arm on {WORKERS} engine workers"
        ),
        None => format!("closed loop: 1 client; batch arm on {WORKERS} engine workers"),
    }
}

fn report_failures(messages: &[String], failed: u64) {
    for m in messages {
        println!("  FAILED {m}");
    }
    if failed as usize > messages.len() {
        println!("  ... and {} more", failed as usize - messages.len());
    }
}

fn run_untraced(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let (rig, setup_s, setups) = timed_setup(workload, seed);
    let measured = arms::measure(&rig, seed, Budget::Seconds(seconds));
    let checks = arms::workload_checks(&rig, &measured);
    let values = measured.end_to_end(setup_s);
    assert!(
        END_TO_END
            .iter()
            .zip(&values)
            .all(|(m, (name, _))| m.name == *name),
        "the run reports the ledger's metrics in the ledger's order"
    );
    let tally = &measured.tally;
    let failed = tally.failed + checks.len() as u64;

    println!(
        "== {}  seed {seed}  untraced  ({})",
        workload.name(),
        clients_line(&rig)
    );
    println!(
        "  {} systems; {} cycles of front/batch/fast/pcg; {} front requests; {} set-ups; {} solves attempted, {} residual-checked (worst {:.2e})",
        rig.pool.systems.len(),
        measured.cycles,
        measured.front.all_ms.len(),
        setups,
        tally.attempted,
        tally.checked,
        tally.worst_residual,
    );
    for (m, (_, v)) in END_TO_END.iter().zip(values) {
        println!(
            "  {:<28} {:>16.6} {:<7} {:<6} bound {:.2}  {}",
            m.name,
            v,
            m.unit,
            m.better.as_str(),
            m.bound,
            m.what
        );
    }
    println!(
        "  failed_frac                  {:>16.6}",
        failed as f64 / tally.attempted as f64
    );
    // Small pools also list each system's median time to solution per arm.
    if rig.pool.systems.len() <= 8 {
        for (i, sys) in rig.pool.systems.iter().enumerate() {
            let ms =
                |arm: &arms::ArmSamples| arm.by_system_ms.get(i).map_or(0.0, |s| stats::median(s));
            println!(
                "    {:<28} det {:>10.3} ms  fast {:>10.3} ms  pcg {:>10.3} ms",
                sys.name,
                ms(&measured.front),
                ms(&measured.fast),
                ms(&measured.pcg)
            );
        }
    }
    report_failures(&tally.messages, tally.failed);
    for c in &checks {
        println!("  FAILED check: {c}");
    }
    Outcome {
        workload,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(m, (_, v))| (m.name, v, m.unit))
            .collect(),
        attempted: tally.attempted,
        failed,
        correct: failed == 0,
    }
}

fn run_traced(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let rig = arms::setup(workload, seed, Scale::Full);
    let report = layers::traced_run(&rig, seed, seconds, &out_dir());
    let value = |name: &str| {
        report
            .values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };

    println!(
        "== {}  seed {seed}  traced  ({})",
        workload.name(),
        clients_line(&rig)
    );
    let mut layer = "";
    for (m, (_, v)) in PER_LAYER.iter().zip(&report.values) {
        let this = m.name.split('.').next().unwrap_or(m.name);
        if this != layer {
            layer = this;
            let moves = INTERACTIONS
                .iter()
                .find(|(l, _)| *l == layer)
                .map_or("the host's memory roof", |(_, m)| m);
            println!("  [{layer}] should move: {moves}");
        }
        println!(
            "  {:<36} {:>16.6} {:<9} {:<6} {}",
            m.name,
            v,
            m.unit,
            m.better.as_str(),
            m.how
        );
    }
    println!("  benchmark spans (self time): layer x {{p50 us, p99 us, share of request}}");
    for (span, key) in [
        ("engine.fingerprint", "fingerprint"),
        ("engine.cache_lookup", "cache_lookup"),
        ("core.run_with_plan", "run_with_plan"),
    ] {
        println!(
            "    {:<22} {:>12.3} {:>12.3} {:>8.4}",
            span,
            value(&format!("trace.{key}_self_us_p50")),
            value(&format!("trace.{key}_self_us_p99")),
            value(&format!("trace.{key}_share")),
        );
    }
    println!(
        "    {:<22} {:>12.3} {:>12.3} {:>8.4}  (self = unattributed)",
        "request",
        value("trace.request_us_p50"),
        value("trace.request_us_p99"),
        value("trace.unattributed_share"),
    );
    println!(
        "    replayed request p50 / solve_one p50 = {:.4}; span overhead {:+.2} %; telemetry overhead {:+.2} %",
        value("trace.accounted_frac"),
        value("trace.overhead_pct"),
        value("telemetry.overhead_pct"),
    );
    println!(
        "  {} spans written to {}",
        report.spans_written,
        report.trace_path.display()
    );
    for n in &report.notes {
        println!("  note: {n}");
    }
    report_failures(&report.tally.messages, report.tally.failed);
    Outcome {
        workload,
        metrics: PER_LAYER
            .iter()
            .zip(&report.values)
            .map(|(m, (_, v))| (m.name, *v, m.unit))
            .collect(),
        attempted: report.tally.attempted,
        failed: report.tally.failed,
        correct: report.tally.failed == 0,
    }
}

/// Runs one workload in a child process, as the driver does, relaying its
/// output. Every run then starts from a fresh heap, so `peak_rss_mb` and
/// the first set-up mean the same in the multi-run modes as on their own.
fn run_child(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let output = std::process::Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let line = stdout.lines().last().unwrap_or_default();
    let result =
        json::parse(line).map_err(|e| format!("{}: no result line ({e})", workload.name()))?;
    let specs: Vec<(&'static str, &'static str)> = if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let number = |v: Option<&Json>| match v {
        Some(Json::Num(v)) => Some(*v),
        Some(Json::Int(v)) => Some(*v as f64),
        _ => None,
    };
    let metrics = specs
        .into_iter()
        .map(|(name, unit)| {
            let value = result
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| number(m.get("value")));
            value
                .map(|v| (name, v, unit))
                .ok_or_else(|| format!("{}: result lacks {name}", workload.name()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Outcome {
        workload,
        metrics,
        attempted: number(result.get("attempted")).unwrap_or(0.0) as u64,
        failed: number(result.get("failed")).unwrap_or(0.0) as u64,
        correct: result.get("correct") == Some(&Json::Bool(true)) && output.status.success(),
    })
}

/// Same code, same seed, twice, in ABBA order; prints how far apart the
/// two runs of each workload landed, beside the metric's bound.
fn run_aa(seed: u64, seconds: f64) -> Result<bool, String> {
    let order = Workload::ALL
        .into_iter()
        .chain(Workload::ALL.into_iter().rev());
    let runs = order
        .map(|w| run_child(w, seed, seconds, false))
        .collect::<Result<Vec<Outcome>, _>>()?;
    let mut ok = runs.iter().all(|r| r.correct);
    println!("== A/A  seed {seed}  {seconds} s per run  order ABBA");
    println!(
        "  {:<14} {:<28} {:>16} {:>16} {:>9} {:>6}",
        "workload", "metric", "first", "second", "rel diff", "bound"
    );
    for w in Workload::ALL {
        let mut pair = runs.iter().filter(|r| r.workload == w);
        let (first, second) = (
            pair.next().expect("ran once"),
            pair.next().expect("ran twice"),
        );
        for (m, ((_, a, _), (_, b, _))) in END_TO_END
            .iter()
            .zip(first.metrics.iter().zip(&second.metrics))
        {
            let diff = stats::rel_diff(*a, *b);
            let exact = m.unit == "count" || m.unit == "cycles" || m.unit == "ratio";
            let flag = if exact && a != b {
                ok = false;
                "  NOT IDENTICAL"
            } else if diff > m.bound {
                ok = false;
                "  EXCEEDS BOUND"
            } else {
                ""
            };
            println!(
                "  {:<14} {:<28} {:>16.6} {:>16.6} {:>9.4} {:>6.2}{flag}",
                w.name(),
                m.name,
                a,
                b,
                diff,
                m.bound
            );
        }
    }
    Ok(ok)
}

/// Every workload, untraced then traced, each in its own process.
fn run_all(seed: u64, seconds: f64) -> Result<bool, String> {
    let mut correct = true;
    for workload in Workload::ALL {
        for trace in [false, true] {
            correct &= run_child(workload, seed, seconds, trace)?.correct;
        }
    }
    Ok(correct)
}

/// `BENCHMARK.json`, generated from the ledger so the two cannot drift.
fn ledger_json() -> String {
    let fields = |pairs: Vec<(&str, Json)>| Json::obj(pairs).render();
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            fields(vec![
                ("name", Json::str(w.name())),
                ("why", Json::str(w.why())),
            ])
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            fields(vec![
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
                ("bound", Json::Num(m.bound)),
            ])
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            fields(vec![
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
            ])
        })
        .collect();
    let block = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        Json::Arr(COMMAND.iter().map(|s| Json::str(*s)).collect()).render(),
        RUN_SECONDS as u64,
        block(workloads),
        block(end_to_end),
        block(per_layer),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.ledger_json {
        print!("{}", ledger_json());
        return ExitCode::SUCCESS;
    }
    let correct = if let Some(workload) = args.workload {
        let outcome = if args.trace {
            run_traced(workload, args.seed, args.seconds)
        } else {
            run_untraced(workload, args.seed, args.seconds)
        };
        println!("{}", outcome.json_line());
        outcome.correct
    } else {
        let ran = if args.aa {
            run_aa(args.seed, args.seconds)
        } else {
            run_all(args.seed, args.seconds)
        };
        match ran {
            Ok(correct) => correct,
            Err(e) => {
                eprintln!("{e}");
                false
            }
        }
    };
    // The metrics are printed either way; a failed check only changes the
    // exit code.
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arms::Measured;

    fn smoke(workload: Workload, seed: u64) -> (Rig, Measured) {
        let rig = arms::setup(workload, seed, Scale::Smoke);
        let measured = arms::measure(&rig, seed, Budget::Cycles(2));
        (rig, measured)
    }

    #[test]
    fn same_seed_gives_identical_exact_counts_on_the_smoke_configuration() {
        for workload in Workload::ALL {
            let (rig, first) = smoke(workload, 5);
            let (_, second) = smoke(workload, 5);
            assert_eq!(
                first.tally.failed,
                0,
                "{}: {:?}",
                workload.name(),
                first.tally.messages
            );
            assert!(
                arms::workload_checks(&rig, &first).is_empty(),
                "{}",
                workload.name()
            );
            assert_eq!(
                first.tally.first_seen,
                second.tally.first_seen,
                "{}",
                workload.name()
            );
            assert_eq!(first.tally.attempted, second.tally.attempted);
            let (a, b) = (first.end_to_end(0.25), second.end_to_end(0.25));
            for (m, (x, y)) in END_TO_END.iter().zip(a.iter().zip(&b)) {
                assert_eq!(m.name, x.0, "ledger order");
                assert!(x.1 > 0.0 && x.1.is_finite(), "{}: {a:?}", workload.name());
                if ["count", "cycles", "ratio"].contains(&m.unit) {
                    assert_eq!(x.1, y.1, "{}: {} repeats exactly", workload.name(), m.name);
                }
            }
        }
    }

    #[test]
    fn the_traced_run_reports_every_ledger_metric_on_the_smoke_configuration() {
        let out = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join("test");
        for workload in Workload::ALL {
            let rig = arms::setup(workload, 9, Scale::Smoke);
            let report = layers::traced_run(&rig, 9, 0.01, &out);
            assert_eq!(report.values.len(), PER_LAYER.len());
            assert_eq!(
                report.tally.failed,
                0,
                "{}: {:?}",
                workload.name(),
                report.tally.messages
            );
            assert!(
                report.values.iter().all(|(_, v)| v.is_finite()),
                "{}: {:?}",
                workload.name(),
                report.values
            );
            assert!(report.spans_written >= 4 && report.trace_path.exists());
        }
    }

    #[test]
    fn the_result_line_has_the_contract_keys() {
        let line = Outcome {
            workload: Workload::Table2Warm,
            metrics: vec![("setup_s", 0.25, "s")],
            attempted: 3,
            failed: 0,
            correct: true,
        }
        .json_line();
        let v = json::parse(&line).unwrap();
        let Json::Obj(pairs) = &v else {
            panic!("object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(m.get("value"), Some(&Json::Num(0.25)));
        assert_eq!(m.get("unit"), Some(&Json::str("s")));
    }

    #[test]
    fn the_ledger_renders_to_the_committed_benchmark_json() {
        assert_eq!(ledger_json(), include_str!("../../BENCHMARK.json"));
    }
}
