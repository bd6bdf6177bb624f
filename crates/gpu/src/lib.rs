//! # acamar-gpu
//!
//! Analytical GPU baseline for the Acamar (MICRO 2024) reproduction.
//!
//! The paper measures cuSPARSE CSR SpMV on an Nvidia GTX 1650 Super with
//! Nsight (Section V-E) and reports compute-unit underutilization
//! (Fig. 8) and achieved fraction of peak throughput (Fig. 9, bottom).
//! Without the physical card, this crate models the two first-order
//! effects that produce those numbers:
//!
//! * **warp-level lane waste** — cuSPARSE's row-per-warp CSR kernel
//!   issues 32 lanes per row pass, so a row with few non-zeros wastes most
//!   of the warp (the direct GPU analog of the paper's Eq. 5);
//! * **memory-boundedness** — CSR SpMV moves ~12 bytes per 2 FLOPs, so
//!   achieved throughput is capped by DRAM bandwidth at a tiny fraction of
//!   the peak FP32 rate.
//!
//! ```
//! use acamar_gpu::{GpuSpec, model_csr_spmv};
//! use acamar_sparse::generate;
//!
//! let a = generate::poisson2d::<f32>(32, 32); // ~5 NNZ/row
//! let r = model_csr_spmv(&GpuSpec::gtx1650_super(), &a);
//! // 5 of 32 lanes busy => ~84% underutilized, like the paper's ~81%.
//! assert!(r.lane_underutilization > 0.7);
//! assert!(r.fraction_of_peak < 0.05);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod solver;

pub use solver::{estimate_solver_run, GpuSolveEstimate};

use acamar_sparse::{CsrMatrix, Scalar};

/// Warp width on all modern Nvidia GPUs.
const WARP_SIZE: u64 = 32;

/// Static description of a GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Device name.
    pub name: &'static str,
    /// Streaming multiprocessors.
    pub sms: u64,
    /// CUDA cores per SM.
    pub cores_per_sm: u64,
    /// Sustained clock in GHz.
    pub clock_ghz: f64,
    /// DRAM bandwidth in GB/s.
    pub mem_gbps: f64,
    /// Kernel launch overhead in seconds.
    pub launch_overhead_s: f64,
}

impl GpuSpec {
    /// The paper's baseline card: GTX 1650 Super (TU116, 1280 cores,
    /// 20 SMs, 192 GB/s GDDR6).
    pub fn gtx1650_super() -> Self {
        GpuSpec {
            name: "GTX 1650 Super",
            sms: 20,
            cores_per_sm: 64,
            clock_ghz: 1.725,
            mem_gbps: 192.0,
            launch_overhead_s: 5e-6,
        }
    }

    /// Peak FP32 throughput in FLOP/s (`cores x 2 x clock`).
    pub fn peak_flops(&self) -> f64 {
        (self.sms * self.cores_per_sm) as f64 * 2.0 * self.clock_ghz * 1e9
    }

    /// Warps the device can issue per cycle (`cores / warp`).
    fn warp_issue_per_cycle(&self) -> f64 {
        (self.sms * self.cores_per_sm) as f64 / WARP_SIZE as f64
    }
}

/// Result of modeling one CSR SpMV on a GPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSpmvReport {
    /// Lane slots issued across all warp passes (`Σ ceil(nnz/32)·32`).
    pub lanes_issued: u64,
    /// Lane slots that carried useful work (`Σ nnz`).
    pub lanes_used: u64,
    /// Compute-unit underutilization in `[0, 1]` (Fig. 8's metric): the
    /// fraction of issued lanes that idled.
    pub lane_underutilization: f64,
    /// Elapsed seconds (max of compute, memory, and launch overhead).
    pub elapsed_s: f64,
    /// Sustained GFLOP/s.
    pub achieved_gflops: f64,
    /// Achieved fraction of peak FP32 throughput (Fig. 9 bottom).
    pub fraction_of_peak: f64,
    /// `true` when the memory model bound the elapsed time.
    pub memory_bound: bool,
}

/// Models a cuSPARSE-style row-per-warp CSR SpMV on `gpu`.
///
/// Compute time: each row takes `ceil(nnz/32)` warp passes (empty rows
/// still cost one); the device retires `cores / 32` warp passes per
/// cycle. Memory time: every stored entry streams 8 B (value +
/// column) plus a 4 B gather from `x` (modeled at 1.5x for imperfect
/// coalescing) and 8 B per row of pointers/output.
pub fn model_csr_spmv<T: Scalar>(gpu: &GpuSpec, a: &CsrMatrix<T>) -> GpuSpmvReport {
    let mut passes = 0u64;
    let mut used = 0u64;
    for i in 0..a.nrows() {
        let nnz = a.row_nnz(i) as u64;
        passes += nnz.div_ceil(WARP_SIZE).max(1);
        used += nnz;
    }
    let issued = passes * WARP_SIZE;
    let compute_s = passes as f64 / gpu.warp_issue_per_cycle() / (gpu.clock_ghz * 1e9);
    let bytes = 8.0 * used as f64 + 1.5 * 4.0 * used as f64 + 8.0 * a.nrows() as f64;
    let memory_s = bytes / (gpu.mem_gbps * 1e9);
    let elapsed = compute_s.max(memory_s).max(gpu.launch_overhead_s);
    let flops = 2.0 * used as f64;
    let achieved = flops / elapsed;
    GpuSpmvReport {
        lanes_issued: issued,
        lanes_used: used,
        lane_underutilization: if issued == 0 {
            0.0
        } else {
            (issued - used) as f64 / issued as f64
        },
        elapsed_s: elapsed,
        achieved_gflops: achieved / 1e9,
        fraction_of_peak: achieved / gpu.peak_flops(),
        memory_bound: memory_s >= compute_s && memory_s >= gpu.launch_overhead_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acamar_sparse::generate::{self, RowDistribution};
    use acamar_sparse::CooMatrix;

    fn gpu() -> GpuSpec {
        GpuSpec::gtx1650_super()
    }

    #[test]
    fn peak_flops_matches_datasheet() {
        // 1280 cores x 2 x 1.725 GHz = 4.416 TFLOPS
        let p = gpu().peak_flops();
        assert!((p / 1e12 - 4.416).abs() < 0.01, "peak {p}");
    }

    #[test]
    fn sparse_rows_waste_most_of_the_warp() {
        let a = generate::poisson2d::<f32>(32, 32); // <= 5 NNZ/row
        let r = model_csr_spmv(&gpu(), &a);
        assert!(
            r.lane_underutilization > 0.8,
            "underutilization {}",
            r.lane_underutilization
        );
        assert!(r.fraction_of_peak < 0.05);
    }

    #[test]
    fn dense_rows_fill_the_warp() {
        let mut coo = CooMatrix::<f32>::new(8, 64);
        for i in 0..8 {
            for j in 0..64 {
                coo.push(i, j, 1.0).unwrap();
            }
        }
        let a = coo.to_csr();
        let r = model_csr_spmv(&gpu(), &a);
        assert_eq!(r.lane_underutilization, 0.0);
        assert_eq!(r.lanes_used, 512);
    }

    #[test]
    fn spmv_is_memory_bound_at_scale() {
        let a = generate::random_pattern::<f32>(
            20_000,
            RowDistribution::Uniform { min: 8, max: 64 },
            3,
        );
        let r = model_csr_spmv(&gpu(), &a);
        assert!(r.memory_bound);
        // Bandwidth-bound roofline: 2 FLOP / 14 B at 192 GB/s is about
        // 27 GFLOP/s — under 1% of the 4.4 TFLOPS peak.
        assert!(r.fraction_of_peak < 0.01, "{}", r.fraction_of_peak);
        assert!(r.achieved_gflops > 1.0);
    }

    #[test]
    fn tiny_kernels_pay_launch_overhead() {
        let a = generate::poisson1d::<f32>(8);
        let r = model_csr_spmv(&gpu(), &a);
        assert_eq!(r.elapsed_s, gpu().launch_overhead_s);
        assert!(!r.memory_bound);
    }

    #[test]
    fn empty_rows_still_cost_a_pass() {
        let coo = CooMatrix::<f32>::new(4, 4);
        let a = coo.to_csr();
        let r = model_csr_spmv(&gpu(), &a);
        assert_eq!(r.lanes_issued, 4 * WARP_SIZE);
        assert_eq!(r.lanes_used, 0);
        assert_eq!(r.lane_underutilization, 1.0);
    }

    #[test]
    fn average_matches_paper_ballpark_on_mixed_suite() {
        // Paper Fig. 8: GPU underutilized ~81% on average across the
        // SuiteSparse picks. A mix of sparsity shapes should land near
        // that (70-97%).
        let mats = [
            generate::poisson2d::<f32>(40, 40),
            generate::random_pattern::<f32>(2_000, RowDistribution::Uniform { min: 2, max: 12 }, 1),
            generate::random_pattern::<f32>(
                2_000,
                RowDistribution::PowerLaw {
                    min: 1,
                    max: 200,
                    exponent: 2.2,
                },
                2,
            ),
        ];
        let avg: f64 = mats
            .iter()
            .map(|m| model_csr_spmv(&gpu(), m).lane_underutilization)
            .sum::<f64>()
            / mats.len() as f64;
        assert!(avg > 0.7 && avg < 0.97, "avg underutilization {avg}");
    }
}
