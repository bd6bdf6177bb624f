//! End-to-end GPU solver-run estimation.
//!
//! Combines the per-SpMV model with a bandwidth-bound model of the dense
//! vector kernels to estimate what a full iterative solve would cost on
//! the GPU — the baseline view behind the paper's efficiency argument
//! (GPUs spend their peak FLOPS on memory traffic for these workloads).

use crate::{model_csr_spmv, GpuSpec};
use acamar_solvers::SolverKind;
use acamar_sparse::{CsrMatrix, Scalar};

/// Estimated cost of a full solver run on a GPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSolveEstimate {
    /// Solver modeled.
    pub solver: SolverKind,
    /// Iterations assumed (take them from a software solve).
    pub iterations: usize,
    /// Seconds spent in SpMV kernels.
    pub spmv_s: f64,
    /// Seconds spent in dense vector kernels (bandwidth + launch bound).
    pub dense_s: f64,
    /// Total estimated seconds.
    pub total_s: f64,
    /// Sustained GFLOP/s over the whole run.
    pub effective_gflops: f64,
    /// Fraction of the device's peak FP32 rate actually sustained.
    pub fraction_of_peak: f64,
}

/// Per-iteration kernel mix of each solver: `(spmv_calls, dense_kernels,
/// dense_flops_per_element)`.
///
/// Dense kernel counts follow the paper's Algorithms 1–3 (vector updates,
/// dot products, norms); GMRES is approximated at its restart-average
/// Gram-Schmidt cost.
fn kernel_mix(solver: SolverKind) -> (u64, u64, u64) {
    match solver {
        SolverKind::Jacobi => (1, 5, 2),
        SolverKind::ConjugateGradient => (1, 6, 2),
        SolverKind::PreconditionedCg => (1, 8, 2),
        SolverKind::BiCgStab => (2, 12, 2),
        SolverKind::Sor => (1, 3, 2),
        // ~restart/2 orthogonalization kernels on average per inner step
        SolverKind::Gmres => (1, 16, 2),
    }
}

/// Estimates the cost of `iterations` of `solver` on `a`, on `gpu`.
///
/// SpMV time comes from [`model_csr_spmv`]; each dense kernel streams
/// three `n`-length fp32 vectors through DRAM and pays one launch
/// overhead.
///
/// # Examples
///
/// ```
/// use acamar_gpu::{estimate_solver_run, GpuSpec};
/// use acamar_solvers::SolverKind;
/// use acamar_sparse::generate;
///
/// let a = generate::poisson2d::<f32>(32, 32);
/// let est = estimate_solver_run(
///     &GpuSpec::gtx1650_super(), &a, SolverKind::ConjugateGradient, 100);
/// assert!(est.total_s > 0.0);
/// assert!(est.fraction_of_peak < 0.02); // memory/launch bound
/// ```
pub fn estimate_solver_run<T: Scalar>(
    gpu: &GpuSpec,
    a: &CsrMatrix<T>,
    solver: SolverKind,
    iterations: usize,
) -> GpuSolveEstimate {
    let (spmv_calls, dense_kernels, dense_flops) = kernel_mix(solver);
    let spmv = model_csr_spmv(gpu, a);
    let n = a.nrows() as f64;
    let dense_bytes_per_kernel = 3.0 * 4.0 * n;
    let dense_kernel_s = (dense_bytes_per_kernel / (gpu.mem_gbps * 1e9)).max(gpu.launch_overhead_s);

    let iters = iterations as f64;
    let spmv_s = iters * spmv_calls as f64 * spmv.elapsed_s;
    let dense_s = iters * dense_kernels as f64 * dense_kernel_s;
    let total_s = spmv_s + dense_s;
    let flops = iters
        * (spmv_calls as f64 * 2.0 * a.nnz() as f64
            + dense_kernels as f64 * dense_flops as f64 * n);
    let effective = if total_s > 0.0 { flops / total_s } else { 0.0 };
    GpuSolveEstimate {
        solver,
        iterations,
        spmv_s,
        dense_s,
        total_s,
        effective_gflops: effective / 1e9,
        fraction_of_peak: effective / gpu.peak_flops(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acamar_sparse::generate;

    fn gpu() -> GpuSpec {
        GpuSpec::gtx1650_super()
    }

    #[test]
    fn estimate_scales_linearly_with_iterations() {
        let a = generate::poisson2d::<f32>(24, 24);
        let e100 = estimate_solver_run(&gpu(), &a, SolverKind::ConjugateGradient, 100);
        let e200 = estimate_solver_run(&gpu(), &a, SolverKind::ConjugateGradient, 200);
        assert!((e200.total_s / e100.total_s - 2.0).abs() < 1e-9);
        assert!((e200.effective_gflops - e100.effective_gflops).abs() < 1e-9);
    }

    #[test]
    fn bicgstab_costs_more_per_iteration_than_cg() {
        let a = generate::poisson2d::<f32>(24, 24);
        let cg = estimate_solver_run(&gpu(), &a, SolverKind::ConjugateGradient, 100);
        let bi = estimate_solver_run(&gpu(), &a, SolverKind::BiCgStab, 100);
        assert!(bi.total_s > cg.total_s);
        assert!(bi.spmv_s > cg.spmv_s);
    }

    #[test]
    fn sustained_rate_is_a_tiny_fraction_of_peak() {
        let a = generate::poisson3d::<f32>(12, 12, 12);
        let e = estimate_solver_run(&gpu(), &a, SolverKind::Jacobi, 500);
        assert!(e.fraction_of_peak < 0.02, "{}", e.fraction_of_peak);
        assert!(e.effective_gflops > 0.0);
    }

    #[test]
    fn zero_iterations_cost_nothing() {
        let a = generate::poisson1d::<f32>(32);
        let e = estimate_solver_run(&gpu(), &a, SolverKind::Jacobi, 0);
        assert_eq!(e.total_s, 0.0);
        assert_eq!(e.effective_gflops, 0.0);
    }
}
