//! MSID-chain and sampling-rate design-space figures: Fig. 5
//! (reconfiguration rate vs rOpt), Fig. 11 (R.U./latency vs rOpt), and
//! Fig. 12 (R.U. vs sampling rate).

use crate::runner;
use crate::table::{banner, pct, TextTable};
use acamar_datasets::Dataset;

/// Result of the Fig. 5 experiment.
#[derive(Debug, Clone)]
pub struct Fig5Result {
    /// The rOpt values swept.
    pub stages: Vec<usize>,
    /// Mean reconfigurations per pass at each stage count.
    pub mean_reconfigs: Vec<f64>,
}

/// Fig. 5: reconfiguration rate (unroll changes per SpMV pass) against
/// the number of MSID chain stages, averaged over `datasets`.
pub fn fig05(datasets: &[Dataset]) -> Fig5Result {
    banner("Figure 5: reconfiguration rate vs MSID chain stages (rOpt)");
    let stages: Vec<usize> = (0..=12).collect();
    let mut mean_reconfigs = Vec::with_capacity(stages.len());
    let mut t = TextTable::new(["rOpt", "mean reconfigs/pass"]);
    for &s in &stages {
        let cfg = runner::config().with_r_opt(s);
        let total: usize = datasets
            .iter()
            .map(|d| runner::acamar_pass(&d.matrix(), &cfg).1)
            .sum();
        let mean = total as f64 / datasets.len().max(1) as f64;
        t.row([format!("{s}"), format!("{mean:.2}")]);
        mean_reconfigs.push(mean);
    }
    t.print();
    println!(
        "\npaper:    rate decreases with stages and \"becomes almost constant after rOpt = 8\"."
    );
    let at8 = mean_reconfigs[8];
    let at12 = mean_reconfigs[12];
    println!(
        "measured: {:.2} events/pass at rOpt=0, {:.2} at rOpt=8, {:.2} at rOpt=12.",
        mean_reconfigs[0], at8, at12
    );
    Fig5Result {
        stages,
        mean_reconfigs,
    }
}

/// Result of the Fig. 11 experiment.
#[derive(Debug, Clone)]
pub struct Fig11Result {
    /// The rOpt values swept.
    pub stages: Vec<usize>,
    /// Per dataset: `(id, underutilization per stage, spmv cycles per stage)`.
    pub rows: Vec<(&'static str, Vec<f64>, Vec<u64>)>,
}

impl Fig11Result {
    /// Maximum relative change of SpMV latency across the sweep, per
    /// dataset, relative to `rOpt = 0`.
    fn max_latency_change(&self) -> f64 {
        self.rows
            .iter()
            .flat_map(|(_, _, cyc)| {
                let base = cyc[0] as f64;
                cyc.iter().map(move |&c| (c as f64 / base - 1.0).abs())
            })
            .fold(0.0, f64::max)
    }
}

/// Fig. 11: per-pass SpMV resource underutilization and latency as the
/// MSID stage count changes — both should stay nearly constant.
pub fn fig11(datasets: &[Dataset]) -> Fig11Result {
    banner("Figure 11: R.U. and SpMV latency vs MSID chain stages");
    let stages: Vec<usize> = vec![0, 1, 2, 4, 8, 12];
    let mut t = TextTable::new(
        std::iter::once("ID".to_string())
            .chain(stages.iter().map(|s| format!("rOpt={s} (RU / cycles)"))),
    );
    let mut rows = Vec::new();
    for d in datasets {
        let a = d.matrix();
        let mut under = Vec::new();
        let mut cycles = Vec::new();
        let mut cells = vec![d.id.to_string()];
        for &s in &stages {
            let cfg = runner::config().with_r_opt(s);
            let (exec, _) = runner::acamar_pass(&a, &cfg);
            cells.push(format!(
                "{} / {}",
                pct(exec.underutilization()),
                exec.cycles
            ));
            under.push(exec.underutilization());
            cycles.push(exec.cycles);
        }
        t.row(cells);
        rows.push((d.id, under, cycles));
    }
    t.print();
    let res = Fig11Result { stages, rows };
    println!(
        "\npaper:    both metrics remain almost constant post-optimization \
         (\"naive to rOpt changes\")."
    );
    println!(
        "measured: max SpMV latency change across the sweep: {}.",
        pct(res.max_latency_change())
    );
    res
}

/// Result of the Fig. 12 experiment.
#[derive(Debug, Clone)]
pub struct Fig12Result {
    /// Sampling rates swept.
    pub rates: Vec<usize>,
    /// Per dataset `(id, underutilization per rate)`.
    pub rows: Vec<(&'static str, Vec<f64>)>,
}

impl Fig12Result {
    /// Mean underutilization at each sampling rate.
    fn mean_per_rate(&self) -> Vec<f64> {
        let n = self.rows.len().max(1) as f64;
        (0..self.rates.len())
            .map(|i| self.rows.iter().map(|(_, u)| u[i]).sum::<f64>() / n)
            .collect()
    }
}

/// Fig. 12: per-pass SpMV resource underutilization against the sampling
/// rate (post-MSID). Finer sampling tracks the rows better.
pub fn fig12(datasets: &[Dataset]) -> Fig12Result {
    banner("Figure 12: R.U. vs sampling rate (post-MSID)");
    let rates = vec![4usize, 8, 16, 32, 64, 128, 512, 4096];
    let mut t = TextTable::new(
        std::iter::once("ID".to_string()).chain(rates.iter().map(|r| format!("SR={r}"))),
    );
    let mut rows = Vec::new();
    for d in datasets {
        let a = d.matrix();
        let under: Vec<f64> = rates
            .iter()
            .map(|&r| {
                let cfg = runner::config().with_sampling_rate(r);
                runner::acamar_pass(&a, &cfg).0.underutilization()
            })
            .collect();
        let mut cells = vec![d.id.to_string()];
        cells.extend(under.iter().map(|&v| pct(v)));
        t.row(cells);
        rows.push((d.id, under));
    }
    t.print();
    let res = Fig12Result { rates, rows };
    let means = res.mean_per_rate();
    println!(
        "\npaper:    increasing the sampling rate decreases underutilization \
         (at the cost of more reconfigurations); 32 is the chosen balance."
    );
    println!(
        "measured: mean R.U. {} at SR=4 down to {} at SR=4096.",
        pct(means[0]),
        pct(*means.last().expect("nonempty sweep"))
    );
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use acamar_datasets::by_id;

    fn small_suite() -> Vec<Dataset> {
        vec![
            by_id("Fi").unwrap(),
            by_id("At").unwrap(),
            by_id("Ci").unwrap(),
        ]
    }

    #[test]
    fn fig05_rate_is_nonincreasing_and_flattens() {
        let r = fig05(&small_suite());
        for w in r.mean_reconfigs.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-9,
                "rate increased: {:?}",
                r.mean_reconfigs
            );
        }
        let at8 = r.mean_reconfigs[8];
        let at12 = r.mean_reconfigs[12];
        assert!(
            at12 >= 0.75 * at8 - 0.5,
            "not flat after 8: {at8} -> {at12}"
        );
    }

    #[test]
    fn fig11_latency_stays_roughly_constant() {
        let r = fig11(&small_suite());
        assert!(
            r.max_latency_change() < 0.35,
            "latency moved {} across rOpt sweep",
            r.max_latency_change()
        );
    }

    #[test]
    fn fig12_finer_sampling_reduces_underutilization() {
        let r = fig12(&small_suite());
        let means = r.mean_per_rate();
        assert!(*means.last().unwrap() <= means[0] + 1e-9, "means {means:?}");
    }
}
