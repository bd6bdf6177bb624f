//! Ablations of Acamar's design choices (beyond the paper's figures):
//! the MSID chain's effect on *time* (not just event counts), overlapped
//! partial reconfiguration, and the static initialize-engine width.

use crate::runner;
use crate::table::{banner, pct, TextTable};
use acamar_core::Acamar;
use acamar_datasets::Dataset;
use acamar_fabric::cost;

/// Result of the MSID-ablation experiment.
#[derive(Debug, Clone)]
pub struct AblationMsidResult {
    /// Per dataset `(id, events without MSID, events with MSID,
    /// per-pass reconfig ms without, with)`.
    pub rows: Vec<(&'static str, usize, usize, f64, f64)>,
    /// Mean fraction of per-pass reconfiguration time the chain removes.
    pub mean_time_saving: f64,
}

/// MSID ablation: reconfiguration *time* per SpMV pass with the chain off
/// (`rOpt = 0`) and on (`rOpt = 8`).
pub fn ablation_msid(datasets: &[Dataset]) -> AblationMsidResult {
    banner("Ablation: MSID chain off vs on (reconfiguration time per pass)");
    let device = runner::spec();
    let mut t = TextTable::new([
        "ID",
        "events (off)",
        "events (on)",
        "reconf ms/pass (off)",
        "reconf ms/pass (on)",
    ]);
    let mut rows = Vec::new();
    let mut savings = Vec::new();
    for d in datasets {
        let a = d.matrix();
        let (off_exec, off_events) = runner::acamar_pass(&a, &runner::config().with_r_opt(0));
        let (_on_exec, on_events) = runner::acamar_pass(&a, &runner::config());
        let _ = off_exec;
        // Approximate each event with the ICAP time of the largest engine
        // in the schedule (region-sized bitstream).
        let plan = acamar_core::FineGrainedReconfigUnit::new(runner::config()).plan(&a);
        let bits = cost::bitstream_bits(&cost::spmv_engine(plan.schedule.max_unroll()));
        let per_event = bits as f64 / (device.icap_gbps * 1e9);
        let off_ms = off_events as f64 * per_event * 1e3;
        let on_ms = on_events as f64 * per_event * 1e3;
        if off_ms > 0.0 {
            savings.push(1.0 - on_ms / off_ms);
        }
        t.row([
            d.id.to_string(),
            off_events.to_string(),
            on_events.to_string(),
            format!("{off_ms:.3}"),
            format!("{on_ms:.3}"),
        ]);
        rows.push((d.id, off_events, on_events, off_ms, on_ms));
    }
    t.print();
    let mean = if savings.is_empty() {
        0.0
    } else {
        savings.iter().sum::<f64>() / savings.len() as f64
    };
    println!(
        "\npaper:    the MSID chain exists purely to cut reconfiguration overhead \
         (Fig. 4-5); R.U. and latency stay put (Fig. 11)."
    );
    println!(
        "measured: mean per-pass reconfiguration-time saving {} across datasets \
         that reconfigure at all.",
        pct(mean)
    );
    AblationMsidResult {
        rows,
        mean_time_saving: mean,
    }
}

/// Result of the overlap-ablation experiment.
#[derive(Debug, Clone)]
pub struct AblationOverlapResult {
    /// Per dataset `(id, total ms serialized, total ms overlapped)`.
    pub rows: Vec<(&'static str, f64, f64)>,
    /// Mean end-to-end time saving from overlapping.
    pub mean_saving: f64,
}

/// Overlap ablation: end-to-end modeled time with serialized DFX
/// reconfiguration (the paper's design) vs double-buffered overlap (this
/// reproduction's extension).
pub fn ablation_overlap(datasets: &[Dataset]) -> AblationOverlapResult {
    banner("Ablation: serialized vs overlapped partial reconfiguration");
    let mut t = TextTable::new(["ID", "total ms (serial)", "total ms (overlap)", "saving"]);
    let mut rows = Vec::new();
    let mut savings = Vec::new();
    for d in datasets {
        let a = d.matrix();
        let b = d.rhs();
        let serial = Acamar::new(runner::spec(), runner::config())
            .run(&a, &b)
            .expect("valid dataset");
        let overlap = Acamar::new(runner::spec(), runner::config().with_overlap(true))
            .run(&a, &b)
            .expect("valid dataset");
        let (ts, to) = (serial.total_seconds() * 1e3, overlap.total_seconds() * 1e3);
        let saving = if ts > 0.0 { 1.0 - to / ts } else { 0.0 };
        savings.push(saving);
        t.row([
            d.id.to_string(),
            format!("{ts:.3}"),
            format!("{to:.3}"),
            pct(saving),
        ]);
        rows.push((d.id, ts, to));
    }
    t.print();
    let mean = savings.iter().sum::<f64>() / savings.len().max(1) as f64;
    println!(
        "\nnote:     extension beyond the paper (which serializes DFX); overlap \
         hides ICAP streaming behind each set's compute."
    );
    println!("measured: mean end-to-end saving {}.", pct(mean));
    AblationOverlapResult {
        rows,
        mean_saving: mean,
    }
}

/// Result of the initialize-engine ablation.
#[derive(Debug, Clone)]
pub struct AblationInitResult {
    /// Initialize-engine widths swept.
    pub widths: Vec<usize>,
    /// Per dataset `(id, total compute kilocycles per width)`.
    pub rows: Vec<(&'static str, Vec<u64>)>,
}

/// Initialize-engine ablation: the paper keeps a static, "unoptimized"
/// SpMV engine for the pre-loop pass; this sweeps its width to show the
/// choice barely matters (it runs once per solver attempt).
pub fn ablation_init_unroll(datasets: &[Dataset]) -> AblationInitResult {
    banner("Ablation: initialize-phase static SpMV engine width");
    let widths = vec![1usize, 4, 16];
    let mut t = TextTable::new(
        std::iter::once("ID".to_string())
            .chain(widths.iter().map(|w| format!("init U={w} (kcycles)"))),
    );
    let mut rows = Vec::new();
    for d in datasets {
        let a = d.matrix();
        let b = d.rhs();
        let mut cells = vec![d.id.to_string()];
        let mut per_width = Vec::new();
        for &w in &widths {
            let mut cfg = runner::config();
            cfg.init_unroll = w;
            let rep = Acamar::new(runner::spec(), cfg)
                .run(&a, &b)
                .expect("valid dataset");
            let kcycles = rep.stats.cycles.compute() / 1000;
            cells.push(kcycles.to_string());
            per_width.push(kcycles);
        }
        t.row(cells);
        rows.push((d.id, per_width));
    }
    t.print();
    println!(
        "\npaper:    \"to avoid the reconfiguration latency, Acamar does not \
         reconfigure the SpMV unit in the initialize unit and continues with \
         an unoptimized variant\" (§IV-B)."
    );
    println!("measured: total compute is insensitive to the init width (one pass).");
    AblationInitResult { widths, rows }
}

/// Result of the MSID-tolerance ablation.
#[derive(Debug, Clone)]
pub struct AblationToleranceResult {
    /// Tolerances swept.
    pub tolerances: Vec<f64>,
    /// Per tolerance: `(mean events/pass, mean underutilization)`.
    pub per_tolerance: Vec<(f64, f64)>,
}

/// MSID-tolerance ablation (paper §V-D): larger tolerances merge more
/// sets — fewer reconfigurations, but unroll factors drift further from
/// the per-set optimum, raising underutilization. The paper picks 0.15.
pub fn ablation_tolerance(datasets: &[Dataset]) -> AblationToleranceResult {
    banner("Ablation: MSID tolerance (events/pass vs R.U.)");
    let tolerances = vec![0.0, 0.05, 0.15, 0.3, 0.6, 1.0];
    let mut t = TextTable::new(["tolerance", "mean events/pass", "mean R.U."]);
    let mut per_tolerance = Vec::new();
    for &tol in &tolerances {
        let mut events = 0usize;
        let mut ru = 0.0f64;
        for d in datasets {
            let a = d.matrix();
            let cfg = runner::config().with_msid_tolerance(tol);
            let (exec, ev) = runner::acamar_pass(&a, &cfg);
            events += ev;
            ru += exec.underutilization();
        }
        let n = datasets.len().max(1) as f64;
        let mean_events = events as f64 / n;
        let mean_ru = ru / n;
        t.row([
            format!("{tol:.2}"),
            format!("{mean_events:.2}"),
            pct(mean_ru),
        ]);
        per_tolerance.push((mean_events, mean_ru));
    }
    t.print();
    println!(
        "\npaper:    \"a number greater than 0.5 signifies a more tolerable system \
         that can result in a smaller reconfiguration rate but possible wasted \
         resources\"; 0.15 is the chosen setting (§V-D)."
    );
    println!(
        "measured: events/pass falls from {:.2} (tol 0) to {:.2} (tol 1.0) while \
         R.U. rises from {} to {}.",
        per_tolerance[0].0,
        per_tolerance.last().expect("nonempty").0,
        pct(per_tolerance[0].1),
        pct(per_tolerance.last().expect("nonempty").1),
    );
    AblationToleranceResult {
        tolerances,
        per_tolerance,
    }
}

/// Result of the reordering ablation.
#[derive(Debug, Clone)]
pub struct AblationReorderResult {
    /// Per workload `(name, R.U. original, R.U. sorted, events original,
    /// events sorted)`.
    pub rows: Vec<(String, f64, f64, usize, usize)>,
}

/// Reordering ablation: sort rows by NNZ (a symmetric permutation) before
/// planning — homogeneous sets fit their unroll factor almost perfectly.
/// Runs on the high-variance stress workloads where it matters.
pub fn ablation_reorder() -> AblationReorderResult {
    banner("Ablation: NNZ-sorted row reordering before fine-grained planning");
    let mut t = TextTable::new([
        "workload",
        "R.U. (original)",
        "R.U. (sorted)",
        "events (original)",
        "events (sorted)",
    ]);
    let mut rows = Vec::new();
    for w in acamar_datasets::stress_suite() {
        if w.dim > 4096 {
            continue; // keep the sweep fast; chunking covered elsewhere
        }
        let a = w.matrix();
        let perm = acamar_sparse::permute::permutation_by_row_nnz(&a);
        let sorted =
            acamar_sparse::permute::permute_symmetric(&a, &perm).expect("valid permutation");
        let (orig_exec, orig_events) = runner::acamar_pass(&a, &runner::config());
        let (sort_exec, sort_events) = runner::acamar_pass(&sorted, &runner::config());
        t.row([
            w.name.to_string(),
            pct(orig_exec.underutilization()),
            pct(sort_exec.underutilization()),
            orig_events.to_string(),
            sort_events.to_string(),
        ]);
        rows.push((
            w.name.to_string(),
            orig_exec.underutilization(),
            sort_exec.underutilization(),
            orig_events,
            sort_events,
        ));
    }
    t.print();
    println!(
        "\nnote:     extension beyond the paper (related-work [39] territory): \
         reordering complements — and on skewed workloads outperforms — \
         per-set averaging, at the cost of a host-side permutation."
    );
    let improved = rows.iter().filter(|r| r.2 <= r.1 + 1e-9).count();
    println!(
        "measured: sorting reduced (or matched) R.U. on {improved}/{} workloads.",
        rows.len()
    );
    AblationReorderResult { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acamar_datasets::by_id;

    fn ds() -> Vec<Dataset> {
        vec![by_id("Fi").unwrap(), by_id("At").unwrap()]
    }

    #[test]
    fn tolerance_trades_events_for_utilization() {
        let r = ablation_tolerance(&ds());
        // Any nonzero tolerance should not reconfigure *more* than exact
        // matching only (the chain is not monotone *between* nonzero
        // tolerances — merges can split runs across stages — but merging
        // never loses to no merging).
        let baseline = r.per_tolerance[0].0;
        for (events, _) in &r.per_tolerance[1..] {
            assert!(*events <= baseline + 1e-9, "{:?}", r.per_tolerance);
        }
        // R.U. at the loosest tolerance is at least that at the tightest
        let first = r.per_tolerance[0].1;
        let last = r.per_tolerance.last().unwrap().1;
        assert!(last >= first - 1e-9, "{first} -> {last}");
    }

    #[test]
    fn reordering_helps_on_skewed_workloads() {
        let r = ablation_reorder();
        assert!(!r.rows.is_empty());
        // On the bimodal workload, sorted sets fit their unroll factor
        // far better than interleaved ones.
        let bimodal = r
            .rows
            .iter()
            .find(|row| row.0 == "bimodal-circuit")
            .expect("stress suite has the bimodal workload");
        assert!(
            bimodal.2 < bimodal.1,
            "sorted R.U. {} should beat original {}",
            bimodal.2,
            bimodal.1
        );
    }

    #[test]
    fn msid_ablation_never_increases_events() {
        let r = ablation_msid(&ds());
        for (id, off, on, _, _) in &r.rows {
            assert!(on <= off, "{id}: {on} > {off}");
        }
        assert!(r.mean_time_saving >= 0.0);
    }

    #[test]
    fn overlap_ablation_never_slower() {
        let r = ablation_overlap(&ds());
        for (id, serial, overlap) in &r.rows {
            assert!(overlap <= &(serial * 1.0001), "{id}: {overlap} > {serial}");
        }
        assert!(r.mean_saving >= 0.0);
    }

    #[test]
    fn init_width_changes_compute_only_marginally() {
        let r = ablation_init_unroll(&ds());
        for (id, cyc) in &r.rows {
            let min = *cyc.iter().min().unwrap() as f64;
            let max = *cyc.iter().max().unwrap() as f64;
            assert!(
                max / min.max(1.0) < 1.5,
                "{id}: init width swings compute {min} -> {max}"
            );
        }
    }
}
