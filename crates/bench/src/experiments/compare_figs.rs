//! Acamar-vs-baseline comparison figures: Fig. 6 (latency speedup),
//! Fig. 7 (R.U. improvement), Fig. 8 (vs GPU underutilization), Fig. 9
//! (achieved throughput), Fig. 10 (performance efficiency), Fig. 13
//! (allowed reconfiguration time).

use crate::runner::{self, DatasetRun, URB_REPRESENTATIVE, URB_SWEEP};
use crate::table::{banner, f2, pct, TextTable};
use acamar_core::metrics;
use acamar_datasets::Dataset;
use acamar_fabric::cost;
use acamar_gpu::{model_csr_spmv, GpuSpec};

/// Clamp for underutilization improvement ratios (Fig. 7) when Acamar's
/// waste approaches zero.
const RATIO_CLAMP: f64 = 50.0;

/// Shared sweep: Acamar + the URB sweep of baselines on every dataset.
pub fn sweep(datasets: &[Dataset]) -> Vec<DatasetRun> {
    datasets
        .iter()
        .map(|d| runner::run_dataset(d, &URB_SWEEP))
        .collect()
}

/// Result of the Fig. 6 experiment.
#[derive(Debug)]
pub struct Fig6Result {
    /// Per dataset `(id, speedup per URB)`.
    pub rows: Vec<(&'static str, Vec<f64>)>,
    /// Geometric-mean speedup per URB.
    pub gmean: Vec<f64>,
}

/// Fig. 6: latency speedup of Acamar over the static design per
/// `SpMV_URB` (compute cycles; reconfiguration budgeted in Fig. 13).
pub fn fig06(runs: &[DatasetRun]) -> Fig6Result {
    banner("Figure 6: latency speedup of Acamar over static design");
    let mut t = TextTable::new(
        std::iter::once("ID".to_string()).chain(URB_SWEEP.iter().map(|u| format!("URB={u}"))),
    );
    let mut rows = Vec::new();
    for run in runs {
        let speeds: Vec<f64> = URB_SWEEP
            .iter()
            .map(|&u| metrics::latency_speedup(run.baseline(u).expect("swept"), &run.acamar))
            .collect();
        let mut cells = vec![run.dataset.id.to_string()];
        cells.extend(speeds.iter().map(|&s| format!("{}x", f2(s))));
        t.row(cells);
        rows.push((run.dataset.id, speeds));
    }
    let gmean: Vec<f64> = (0..URB_SWEEP.len())
        .map(|i| {
            let v: Vec<f64> = rows.iter().map(|(_, s)| s[i]).collect();
            metrics::geometric_mean(&v).unwrap_or(0.0)
        })
        .collect();
    let mut cells = vec!["GMEAN".to_string()];
    cells.extend(gmean.iter().map(|&s| format!("{}x", f2(s))));
    t.row(cells);
    t.print();
    let max = rows
        .iter()
        .flat_map(|(_, s)| s.iter().copied())
        .fold(0.0, f64::max);
    println!("\npaper:    up to 11.61x at URB=1; gains diminish and flatten for URB > 16.");
    println!(
        "measured: up to {}x at URB=1 (GMEAN {}x); GMEAN at URB=64: {}x.",
        f2(max),
        f2(gmean[0]),
        f2(*gmean.last().expect("nonempty"))
    );
    Fig6Result { rows, gmean }
}

/// Result of the Fig. 7 experiment.
#[derive(Debug)]
pub struct Fig7Result {
    /// Per dataset `(id, improvement ratio per URB)`.
    pub rows: Vec<(&'static str, Vec<f64>)>,
    /// Geometric mean per URB.
    pub gmean: Vec<f64>,
}

/// Fig. 7's numbers without the printing: per-dataset R.U. improvement
/// ratios per URB and their geometric mean per URB.
pub(crate) fn ru_improvement(runs: &[DatasetRun]) -> Fig7Result {
    let rows: Vec<(&'static str, Vec<f64>)> = runs
        .iter()
        .map(|run| {
            let ratios = URB_SWEEP
                .iter()
                .map(|&u| {
                    metrics::underutilization_improvement(
                        run.baseline(u).expect("swept"),
                        &run.acamar,
                        RATIO_CLAMP,
                    )
                })
                .collect();
            (run.dataset.id, ratios)
        })
        .collect();
    let gmean = (0..URB_SWEEP.len())
        .map(|i| {
            let v: Vec<f64> = rows.iter().map(|(_, s)| s[i].max(1e-6)).collect();
            metrics::geometric_mean(&v).unwrap_or(0.0)
        })
        .collect();
    Fig7Result { rows, gmean }
}

/// Fig. 7: improvement ratio in SpMV resource underutilization
/// (baseline / Acamar, higher is better).
pub fn fig07(runs: &[DatasetRun]) -> Fig7Result {
    banner("Figure 7: R.U. improvement ratio over static design (higher is better)");
    let mut t = TextTable::new(
        std::iter::once("ID".to_string()).chain(URB_SWEEP.iter().map(|u| format!("URB={u}"))),
    );
    let result = ru_improvement(runs);
    for (id, ratios) in &result.rows {
        let mut cells = vec![id.to_string()];
        cells.extend(ratios.iter().map(|&s| format!("{}x", f2(s))));
        t.row(cells);
    }
    let gmean = &result.gmean;
    let mut cells = vec!["GMEAN".to_string()];
    cells.extend(gmean.iter().map(|&s| format!("{}x", f2(s))));
    t.row(cells);
    t.print();
    println!(
        "\npaper:    improvement up to ~3x, growing with baseline resources \
         (small-URB baselines already waste little)."
    );
    println!(
        "measured: GMEAN {}x at URB=2 rising to {}x at URB=64 (ratios clamped at {}x).",
        f2(gmean[1]),
        f2(*gmean.last().expect("nonempty")),
        RATIO_CLAMP
    );
    result
}

/// Result of the Fig. 8 experiment.
#[derive(Debug, Clone)]
pub struct Fig8Result {
    /// Per dataset `(id, acamar R.U., gpu R.U.)`.
    pub rows: Vec<(&'static str, f64, f64)>,
    /// Averages `(acamar, gpu)`.
    pub averages: (f64, f64),
}

/// Fig. 8: SpMV resource underutilization, Acamar vs GTX 1650 Super
/// (lower is better).
pub fn fig08(datasets: &[Dataset]) -> Fig8Result {
    banner("Figure 8: resource underutilization, Acamar vs GTX 1650 Super");
    let gpu = GpuSpec::gtx1650_super();
    let mut t = TextTable::new(["ID", "Acamar", "GPU"]);
    let mut rows = Vec::new();
    for d in datasets {
        let a = d.matrix();
        let (exec, _) = runner::acamar_pass(&a, &runner::config());
        let g = model_csr_spmv(&gpu, &a);
        t.row([
            d.id.to_string(),
            pct(exec.underutilization()),
            pct(g.lane_underutilization),
        ]);
        rows.push((d.id, exec.underutilization(), g.lane_underutilization));
    }
    t.print();
    let n = rows.len().max(1) as f64;
    let avg_a = rows.iter().map(|r| r.1).sum::<f64>() / n;
    let avg_g = rows.iter().map(|r| r.2).sum::<f64>() / n;
    println!("\npaper:    on average Acamar 50% underutilized vs 81% for the GPU.");
    println!("measured: Acamar {} vs GPU {}.", pct(avg_a), pct(avg_g));
    Fig8Result {
        rows,
        averages: (avg_a, avg_g),
    }
}

/// Result of the Fig. 9 experiment.
#[derive(Debug, Clone)]
pub struct Fig9Result {
    /// Per dataset `(id, acamar %, static %, gpu %)` of peak throughput.
    pub rows: Vec<(&'static str, f64, f64, f64)>,
    /// Averages `(acamar, static, gpu)`.
    pub averages: (f64, f64, f64),
}

/// Fig. 9: achieved compute throughput as a fraction of peak — Acamar vs
/// the static design (top) and vs the GPU (bottom).
pub fn fig09(runs: &[DatasetRun]) -> Fig9Result {
    banner("Figure 9: achieved throughput as % of peak (higher is better)");
    let gpu = GpuSpec::gtx1650_super();
    let mut t = TextTable::new([
        "ID",
        "Acamar",
        &format!("Static URB={URB_REPRESENTATIVE}"),
        "GPU",
    ]);
    let mut rows = Vec::new();
    for run in runs {
        let a = run.dataset.matrix();
        let acamar = run.acamar.stats.achieved_throughput();
        let stat = run
            .baseline(URB_REPRESENTATIVE)
            .expect("swept")
            .stats
            .achieved_throughput();
        let g = model_csr_spmv(&gpu, &a).fraction_of_peak;
        t.row([run.dataset.id.to_string(), pct(acamar), pct(stat), pct(g)]);
        rows.push((run.dataset.id, acamar, stat, g));
    }
    t.print();
    let n = rows.len().max(1) as f64;
    let avg = (
        rows.iter().map(|r| r.1).sum::<f64>() / n,
        rows.iter().map(|r| r.2).sum::<f64>() / n,
        rows.iter().map(|r| r.3).sum::<f64>() / n,
    );
    println!(
        "\npaper:    Acamar achieves ~70% of peak on average (up to 83%); the GPU \
         achieves a very small fraction of its peak."
    );
    println!(
        "measured: Acamar {} vs static {} vs GPU {}.",
        pct(avg.0),
        pct(avg.1),
        pct(avg.2)
    );
    Fig9Result {
        rows,
        averages: avg,
    }
}

/// Result of the Fig. 10 experiment.
#[derive(Debug, Clone)]
pub struct Fig10Result {
    /// Per dataset `(id, acamar GFLOPS/mm², static GFLOPS/mm², area saving x)`.
    pub rows: Vec<(&'static str, f64, f64, f64)>,
    /// Mean area saving of Acamar over the static design.
    pub mean_area_saving: f64,
}

/// Fig. 10: performance efficiency (GFLOPS per mm² of instantiated
/// fabric) and the implied area saving.
pub fn fig10(runs: &[DatasetRun]) -> Fig10Result {
    banner("Figure 10: performance efficiency (GFLOPS/mm², higher is better)");
    let mut t = TextTable::new([
        "ID",
        "Acamar",
        &format!("Static URB={URB_REPRESENTATIVE}"),
        "area saving",
    ]);
    let mut rows = Vec::new();
    for run in runs {
        let base = run.baseline(URB_REPRESENTATIVE).expect("swept");
        let acamar_hw = acamar_fabric::HwRun {
            solve: run.acamar.solve.clone(),
            stats: run.acamar.stats.clone(),
            clock_mhz: run.acamar.clock_mhz,
        };
        let pe_a = acamar_hw.gflops_per_mm2();
        let pe_b = base.gflops_per_mm2();
        let saving = base.stats.avg_area_mm2 / acamar_hw.stats.avg_area_mm2.max(1e-9);
        t.row([
            run.dataset.id.to_string(),
            f2(pe_a),
            f2(pe_b),
            format!("{}x", f2(saving)),
        ]);
        rows.push((run.dataset.id, pe_a, pe_b, saving));
    }
    t.print();
    let n = rows.len().max(1) as f64;
    let mean_saving = rows.iter().map(|r| r.3).sum::<f64>() / n;
    println!(
        "\npaper:    Acamar averages ~720 GFLOPS/mm² and is ~2x more area \
         efficient than the static design."
    );
    println!("measured: mean area saving {}x.", f2(mean_saving));
    Fig10Result {
        rows,
        mean_area_saving: mean_saving,
    }
}

/// Result of the Fig. 13 experiment.
#[derive(Debug, Clone)]
pub struct Fig13Result {
    /// Per dataset `(id, allowed seconds per event, modeled ICAP seconds
    /// per event, fits)`.
    pub rows: Vec<(&'static str, f64, f64, bool)>,
}

/// Fig. 13: the per-event reconfiguration-time budget that keeps Acamar
/// no slower than the static design, against the modeled ICAP time.
pub fn fig13(runs: &[DatasetRun]) -> Fig13Result {
    banner("Figure 13: allowed reconfiguration time per event");
    let device = runner::spec();
    let mut t = TextTable::new(["ID", "allowed (ms)", "ICAP model (ms)", "fits"]);
    let mut rows = Vec::new();
    for run in runs {
        let base = run.baseline(URB_REPRESENTATIVE).expect("swept");
        let allowed = metrics::allowed_reconfig_seconds(base, &run.acamar);
        let max_u = run.acamar.plan.schedule.max_unroll();
        let bits = cost::bitstream_bits(&cost::spmv_engine(max_u));
        let icap_s = bits as f64 / (device.icap_gbps * 1e9);
        match allowed {
            Some(budget) => {
                let fits = icap_s <= budget;
                t.row([
                    run.dataset.id.to_string(),
                    format!("{:.3}", budget * 1e3),
                    format!("{:.3}", icap_s * 1e3),
                    if fits { "yes" } else { "no" }.to_string(),
                ]);
                rows.push((run.dataset.id, budget, icap_s, fits));
            }
            None => {
                t.row([
                    run.dataset.id.to_string(),
                    "unbounded".to_string(),
                    format!("{:.3}", icap_s * 1e3),
                    "yes".to_string(),
                ]);
                rows.push((run.dataset.id, f64::INFINITY, icap_s, true));
            }
        }
    }
    t.print();
    let fitting = rows.iter().filter(|r| r.3).count();
    println!(
        "\npaper:    reconfiguration must finish within per-dataset bounds to keep \
         Acamar no slower than the baseline (latency is a secondary goal)."
    );
    println!(
        "measured: ICAP model fits the budget on {fitting}/{} datasets (vs the \
         URB={URB_REPRESENTATIVE} baseline).",
        rows.len()
    );
    Fig13Result { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acamar_datasets::by_id;

    fn small_runs() -> Vec<DatasetRun> {
        let ds = vec![by_id("Wa").unwrap(), by_id("Li").unwrap()];
        sweep(&ds)
    }

    #[test]
    fn fig06_speedup_monotone_decreasing_in_urb() {
        let runs = small_runs();
        let r = fig06(&runs);
        assert!(r.gmean[0] > 1.0, "URB=1 speedup {:?}", r.gmean);
        // speedup vs URB=1 baseline must exceed speedup vs URB=64 baseline
        assert!(r.gmean[0] > *r.gmean.last().unwrap());
    }

    #[test]
    fn fig07_improvement_grows_with_baseline_resources() {
        let runs = small_runs();
        let r = fig07(&runs);
        let first = r.gmean[1]; // URB=2
        let last = *r.gmean.last().unwrap(); // URB=64
        assert!(last > first, "gmean {:?}", r.gmean);
    }

    #[test]
    fn fig08_gpu_wastes_more_than_acamar() {
        let ds = vec![by_id("Wa").unwrap(), by_id("At").unwrap()];
        let r = fig08(&ds);
        assert!(r.averages.1 > r.averages.0, "{:?}", r.averages);
        assert!(r.averages.1 > 0.6);
    }

    #[test]
    fn fig09_acamar_gets_closest_to_peak() {
        // Sparse datasets (NNZ/row well under the baseline's 16 lanes):
        // the static design wastes most slots while Acamar sizes to fit.
        // (Dense datasets can go the other way — the paper's Pr/Cr note.)
        let ds = vec![by_id("At").unwrap(), by_id("2C").unwrap()];
        let runs = sweep(&ds);
        let r = fig09(&runs);
        let (a, s, g) = r.averages;
        assert!(a > s, "acamar {a} static {s}");
        assert!(a > g, "acamar {a} gpu {g}");
        assert!(g < 0.05, "gpu should be tiny: {g}");
        assert!(a > 0.5, "acamar should be well utilized: {a}");
    }

    #[test]
    fn fig10_acamar_is_more_area_efficient_on_sparse_datasets() {
        // Datasets sparser than the URB=16 baseline: Acamar instantiates a
        // smaller engine and wins on area. (Datasets denser than the
        // baseline can lose, exactly as the paper notes for Ga/Pr/Si.)
        let ds = vec![by_id("At").unwrap(), by_id("2C").unwrap()];
        let runs = sweep(&ds);
        let r = fig10(&runs);
        assert!(r.mean_area_saving > 1.0, "saving {}", r.mean_area_saving);
        for (id, pe_a, pe_b, _) in &r.rows {
            assert!(pe_a > pe_b, "{id}: {pe_a} <= {pe_b}");
        }
    }

    #[test]
    fn fig13_produces_a_budget_per_dataset() {
        let runs = small_runs();
        let r = fig13(&runs);
        assert_eq!(r.rows.len(), 2);
        for (_, budget, icap, _) in &r.rows {
            // The budget is a signed slack: finite (possibly negative when
            // Acamar's compute alone already matches the baseline) or
            // unbounded when no reconfiguration happens.
            assert!(budget.is_finite() || budget.is_infinite());
            assert!(*icap > 0.0);
        }
    }
}
