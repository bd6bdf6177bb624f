//! Headline-claims summary (the paper's abstract / §VI in one table).
//!
//! "Our experiments show a resource utilization and latency improvement
//! up to 3.5x and 6x as well as improved performance efficiency and
//! achieved throughput over a static design and Nvidia GTX 1650 Super."

use super::compare_figs::ru_improvement;
use crate::runner::{self, DatasetRun, URB_REPRESENTATIVE, URB_SWEEP};
use crate::table::{banner, f2, pct, TextTable};
use acamar_core::metrics;
use acamar_gpu::{model_csr_spmv, GpuSpec};

/// The headline numbers of one full sweep.
#[derive(Debug, Clone)]
pub struct SummaryResult {
    /// Max latency speedup over any swept baseline.
    pub max_speedup: f64,
    /// Geometric-mean latency speedup vs the representative baseline.
    pub gmean_speedup_representative: f64,
    /// Largest per-URB geometric-mean R.U. improvement ratio (Fig. 7).
    pub max_ru_improvement: f64,
    /// Mean achieved throughput of Acamar / static / GPU.
    pub throughput: (f64, f64, f64),
    /// Mean SpMV underutilization of Acamar / GPU, per pass (Eq. 5, as in
    /// Fig. 8).
    pub underutilization: (f64, f64),
    /// Mean area saving vs the representative static design.
    pub area_saving: f64,
    /// Fraction of runs where Acamar converged.
    pub robust_convergence: f64,
}

/// Condenses a sweep into the abstract's headline claims.
pub fn summary(runs: &[DatasetRun]) -> SummaryResult {
    banner("Headline claims (paper abstract / §VI)");
    let gpu = GpuSpec::gtx1650_super();

    let mut max_speedup = 0.0f64;
    let mut rep_speedups = Vec::new();
    let mut thr = (0.0, 0.0, 0.0);
    let mut under = (0.0, 0.0);
    let mut area = Vec::new();
    let mut converged = 0usize;
    for run in runs {
        if run.acamar.converged() {
            converged += 1;
        }
        for &u in &URB_SWEEP {
            let base = run.baseline(u).expect("swept");
            max_speedup = max_speedup.max(metrics::latency_speedup(base, &run.acamar));
        }
        let rep = run.baseline(URB_REPRESENTATIVE).expect("swept");
        rep_speedups.push(metrics::latency_speedup(rep, &run.acamar).max(1e-9));
        let a = run.dataset.matrix();
        let g = model_csr_spmv(&gpu, &a);
        thr.0 += run.acamar.stats.achieved_throughput();
        thr.1 += rep.stats.achieved_throughput();
        thr.2 += g.fraction_of_peak;
        // Fig. 8's definition: Eq. 5 over one SpMV pass.
        under.0 += runner::acamar_pass(&a, &runner::config())
            .0
            .underutilization();
        under.1 += g.lane_underutilization;
        area.push(rep.stats.avg_area_mm2 / run.acamar.stats.avg_area_mm2.max(1e-9));
    }
    let n = runs.len().max(1) as f64;
    let result = SummaryResult {
        max_speedup,
        gmean_speedup_representative: metrics::geometric_mean(&rep_speedups).unwrap_or(0.0),
        max_ru_improvement: ru_improvement(runs).gmean.into_iter().fold(0.0, f64::max),
        throughput: (thr.0 / n, thr.1 / n, thr.2 / n),
        underutilization: (under.0 / n, under.1 / n),
        area_saving: area.iter().sum::<f64>() / n,
        robust_convergence: converged as f64 / n,
    };

    let mut t = TextTable::new(["claim", "paper", "measured"]);
    t.row([
        "latency improvement (best case)".to_string(),
        "up to 6x (11.61x vs URB=1)".to_string(),
        format!("up to {}x", f2(result.max_speedup)),
    ]);
    t.row([
        "R.U. improvement (best case)".to_string(),
        "up to 3x-3.5x".to_string(),
        format!("up to {}x (Fig. 7 GMEAN)", f2(result.max_ru_improvement)),
    ]);
    t.row([
        "achieved throughput (Acamar)".to_string(),
        "~70% of peak, up to 83%".to_string(),
        pct(result.throughput.0),
    ]);
    t.row([
        "achieved throughput (GPU)".to_string(),
        "very small fraction".to_string(),
        pct(result.throughput.2),
    ]);
    t.row([
        "SpMV underutilization Acamar vs GPU".to_string(),
        "50% vs 81%".to_string(),
        format!(
            "{} vs {}",
            pct(result.underutilization.0),
            pct(result.underutilization.1)
        ),
    ]);
    t.row([
        "area saving vs static".to_string(),
        "~2x".to_string(),
        format!("{}x", f2(result.area_saving)),
    ]);
    t.row([
        "robust convergence".to_string(),
        "all datasets".to_string(),
        pct(result.robust_convergence),
    ]);
    t.print();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{fig07, sweep};
    use acamar_datasets::by_id;

    #[test]
    fn summary_reproduces_headline_shapes() {
        let ds = vec![
            by_id("At").unwrap(),
            by_id("2C").unwrap(),
            by_id("Fi").unwrap(),
        ];
        let runs = sweep(&ds);
        let s = summary(&runs);
        assert!(s.max_speedup > 1.5, "max speedup {}", s.max_speedup);
        assert!(s.max_ru_improvement > 1.0);
        assert!(s.throughput.0 > s.throughput.2 * 10.0, "acamar >> gpu");
        assert!(s.underutilization.0 < s.underutilization.1);
        assert_eq!(s.robust_convergence, 1.0);
    }

    #[test]
    fn summary_ru_improvement_is_fig07s_largest_gmean() {
        let ds = vec![
            by_id("At").unwrap(),
            by_id("2C").unwrap(),
            by_id("Fi").unwrap(),
        ];
        let runs = sweep(&ds);
        let best = fig07(&runs).gmean.into_iter().fold(0.0, f64::max);
        assert_eq!(summary(&runs).max_ru_improvement, best);
    }
}
