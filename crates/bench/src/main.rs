//! `experiments`: prints the paper's tables and figures.
//!
//! ```console
//! $ cargo run --release -p acamar-bench --bin experiments -- fig06_speedup fig07_ru_improvement
//! $ cargo run --release -p acamar-bench --bin experiments -- all
//! ```
//!
//! `all` runs every experiment in the order of [`EXPERIMENTS`], and its
//! output is committed as `golden/experiments.txt`; the crate's
//! `tests/golden.rs` holds the code to it. The Acamar + URB sweep is built
//! once per process, however many experiments read it.

use acamar_bench::experiments as ex;
use acamar_bench::runner::DatasetRun;
use acamar_datasets::Dataset;

/// What the experiments read: the Table II suite, and the sweep over it,
/// built on first use.
struct Inputs {
    datasets: Vec<Dataset>,
    runs: Option<Vec<DatasetRun>>,
}

impl Inputs {
    fn runs(&mut self) -> &[DatasetRun] {
        let datasets = &self.datasets;
        self.runs.get_or_insert_with(|| ex::sweep(datasets))
    }
}

/// An experiment's name and what runs it.
type Experiment = (&'static str, fn(&mut Inputs));

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: [Experiment; 19] = [
    ("table1_criteria", |_| {
        ex::table1();
    }),
    ("table2_convergence", |i| {
        ex::table2(&i.datasets);
    }),
    ("fig01_spmv_latency_share", |i| {
        ex::fig01(&i.datasets);
    }),
    ("fig02_baseline_underutilization", |i| {
        ex::fig02(&i.datasets);
    }),
    ("fig05_msid_reconfig_rate", |i| {
        ex::fig05(&i.datasets);
    }),
    ("fig06_speedup", |i| {
        ex::fig06(i.runs());
    }),
    ("fig07_ru_improvement", |i| {
        ex::fig07(i.runs());
    }),
    ("fig08_gpu_underutilization", |i| {
        ex::fig08(&i.datasets);
    }),
    ("fig09_throughput", |i| {
        ex::fig09(i.runs());
    }),
    ("fig10_perf_efficiency", |i| {
        ex::fig10(i.runs());
    }),
    ("fig11_msid_effects", |i| {
        ex::fig11(&i.datasets);
    }),
    ("fig12_sampling_rate", |i| {
        ex::fig12(&i.datasets);
    }),
    ("fig13_reconfig_bounds", |i| {
        ex::fig13(i.runs());
    }),
    ("ablation_msid", |i| {
        ex::ablation_msid(&i.datasets);
    }),
    ("ablation_overlap", |i| {
        ex::ablation_overlap(&i.datasets);
    }),
    ("ablation_init_unroll", |i| {
        ex::ablation_init_unroll(&i.datasets);
    }),
    ("ablation_tolerance", |i| {
        ex::ablation_tolerance(&i.datasets);
    }),
    ("ablation_reorder", |_| {
        ex::ablation_reorder();
    }),
    ("summary_claims", |i| {
        ex::summary(i.runs());
    }),
];

fn main() {
    let mut todo = Vec::new();
    for arg in std::env::args().skip(1) {
        match EXPERIMENTS.iter().find(|(name, _)| *name == arg) {
            Some(&(_, run)) => todo.push(run),
            None if arg == "all" => todo.extend(EXPERIMENTS.iter().map(|&(_, run)| run)),
            None => {
                eprintln!("unknown experiment {arg:?}");
                todo.clear();
                break;
            }
        }
    }
    if todo.is_empty() {
        eprintln!("usage: experiments <name>...|all");
        for (name, _) in EXPERIMENTS {
            eprintln!("  {name}");
        }
        std::process::exit(2);
    }
    let mut inputs = Inputs {
        datasets: acamar_datasets::suite(),
        runs: None,
    };
    for run in todo {
        run(&mut inputs);
    }
}
