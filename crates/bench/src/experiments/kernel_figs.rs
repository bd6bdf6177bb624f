//! Fig. 1 (SpMV share of solver latency) and Fig. 2 (baseline SpMV
//! resource underutilization vs unroll factor).

use crate::runner;
use crate::table::{banner, pct, TextTable};
use acamar_datasets::Dataset;
use acamar_fabric::{StaticAccelerator, UnrollSchedule};
use acamar_solvers::SolverKind;

/// One dataset's SpMV latency share under one solver.
#[derive(Debug, Clone)]
pub struct Fig1Row {
    /// Dataset ID.
    pub id: &'static str,
    /// Solver measured.
    pub solver: SolverKind,
    /// Fraction of compute cycles spent in SpMV.
    pub spmv_share: f64,
}

/// Result of the Fig. 1 experiment.
#[derive(Debug, Clone)]
pub struct Fig1Result {
    /// All measured rows.
    pub rows: Vec<Fig1Row>,
    /// Mean SpMV share across rows.
    pub mean_share: f64,
}

/// Fig. 1: run each of JB/CG/BiCG-STAB (where Table II says it converges)
/// on a static design and report the SpMV share of compute cycles.
pub fn fig01(datasets: &[Dataset]) -> Fig1Result {
    banner("Figure 1: SpMV share of solver latency (static design, URB=8)");
    let mut rows = Vec::new();
    let mut t = TextTable::new(["ID", "JB", "CG", "BiCG-STAB"]);
    for d in datasets {
        let a = d.matrix();
        let b = d.rhs();
        let mut cells = vec![d.id.to_string()];
        for (solver, expected) in [
            (SolverKind::Jacobi, d.expected.jacobi),
            (SolverKind::ConjugateGradient, d.expected.cg),
            (SolverKind::BiCgStab, d.expected.bicgstab),
        ] {
            if !expected {
                cells.push("-".into());
                continue;
            }
            let run = StaticAccelerator::new(runner::spec(), solver, 8)
                .run(&a, &b, &runner::criteria())
                .expect("valid dataset");
            let share = run.stats.cycles.spmv_share();
            rows.push(Fig1Row {
                id: d.id,
                solver,
                spmv_share: share,
            });
            cells.push(pct(share));
        }
        t.row(cells);
    }
    t.print();
    let mean = if rows.is_empty() {
        0.0
    } else {
        rows.iter().map(|r| r.spmv_share).sum::<f64>() / rows.len() as f64
    };
    println!(
        "\npaper:    \"SpMV consumes most of the time, making it the most expensive kernel\"."
    );
    println!(
        "measured: mean SpMV share {} across {} (dataset, solver) pairs.",
        pct(mean),
        rows.len()
    );
    Fig1Result {
        rows,
        mean_share: mean,
    }
}

/// Result of the Fig. 2 experiment.
#[derive(Debug, Clone)]
pub struct Fig2Result {
    /// Unroll factors swept.
    pub unrolls: Vec<usize>,
    /// Per dataset: `(id, underutilization per unroll)`.
    pub rows: Vec<(&'static str, Vec<f64>)>,
}

impl Fig2Result {
    /// Mean underutilization at each swept unroll factor.
    fn mean_per_unroll(&self) -> Vec<f64> {
        let n = self.rows.len().max(1) as f64;
        (0..self.unrolls.len())
            .map(|i| self.rows.iter().map(|(_, u)| u[i]).sum::<f64>() / n)
            .collect()
    }
}

/// Fig. 2: resource underutilization of a *fixed* unroll factor per
/// dataset (one SpMV pass; Eq. 5).
pub fn fig02(datasets: &[Dataset]) -> Fig2Result {
    banner("Figure 2: baseline SpMV resource underutilization vs unroll factor");
    let unrolls = vec![2usize, 4, 8, 16, 32, 64];
    let mut t = TextTable::new(
        std::iter::once("ID".to_string()).chain(unrolls.iter().map(|u| format!("U={u}"))),
    );
    let mut rows = Vec::new();
    for d in datasets {
        let a = d.matrix();
        let under: Vec<f64> = unrolls
            .iter()
            .map(|&u| {
                runner::spmv_pass(&a, &UnrollSchedule::uniform(a.nrows(), u)).underutilization()
            })
            .collect();
        let mut cells = vec![d.id.to_string()];
        cells.extend(under.iter().map(|&v| pct(v)));
        t.row(cells);
        rows.push((d.id, under));
    }
    t.print();
    let res = Fig2Result { unrolls, rows };
    let means = res.mean_per_unroll();
    println!(
        "\npaper:    no fixed unroll factor is optimal for all datasets; \
         underutilization grows with allocated resources."
    );
    println!(
        "measured: mean underutilization {} at U=2 rising to {} at U=64.",
        pct(means[0]),
        pct(*means.last().expect("nonempty sweep"))
    );
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use acamar_datasets::by_id;

    #[test]
    fn fig01_spmv_dominates() {
        let ds = vec![by_id("Wa").unwrap(), by_id("If").unwrap()];
        let r = fig01(&ds);
        assert!(r.mean_share > 0.4, "mean share {}", r.mean_share);
        // converging solvers only: Wa has 3, If has 1
        assert_eq!(r.rows.len(), 4);
    }

    #[test]
    fn fig02_underutilization_is_monotone_in_unroll() {
        let ds = vec![by_id("At").unwrap(), by_id("Li").unwrap()];
        let r = fig02(&ds);
        for (id, u) in &r.rows {
            for w in u.windows(2) {
                assert!(
                    w[1] >= w[0] - 1e-9,
                    "{id}: underutilization not monotone: {u:?}"
                );
            }
        }
        let means = r.mean_per_unroll();
        assert!(means.last().unwrap() > &0.5);
    }
}
