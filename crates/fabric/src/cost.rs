//! Hardware cost models for the compute units.
//!
//! Costs are representative of Vitis HLS fp32 implementations on
//! UltraScale+ (the paper's flow). Absolute values are calibrated
//! estimates — every reproduced figure depends only on *relative* costs
//! and on the Eq. 5 utilization arithmetic, which is exact.

use crate::spec::ResourceVector;

/// Lanes in the (static) dense vector units — the "most optimized HLS
/// design" of the paper's dense kernels (Section IV-B).
pub const DENSE_VECTOR_WIDTH: usize = 8;

/// Pipeline fill/flush cycles charged once per kernel invocation.
pub const PIPELINE_DEPTH: u64 = 24;

/// Extra cycles charged per sparse row (row-pointer fetch, output
/// write-back; mostly overlapped by the streaming pipeline).
pub const ROW_OVERHEAD_CYCLES: u64 = 1;

/// Reduction-tree latency for dot products (log2 of lanes, rounded up,
/// times the adder latency).
pub const REDUCTION_LATENCY: u64 = 12;

/// Resource cost of one fp32 multiply-accumulate pipeline
/// (Vitis HLS fp32 mul ≈ 3 DSP + fp32 add ≈ 2 DSP on UltraScale+).
fn mac_unit() -> ResourceVector {
    ResourceVector {
        lut: 750,
        ff: 1100,
        dsp: 5,
        bram: 0,
    }
}

/// Resource cost of a CSR SpMV engine with `unroll` parallel MAC lanes:
/// the MAC array plus stream decoders, the gather network for `x`, and
/// the partial-sum reduction.
///
/// # Panics
///
/// Panics if `unroll == 0`.
pub fn spmv_engine(unroll: usize) -> ResourceVector {
    assert!(unroll > 0, "unroll factor must be positive");
    let u = unroll as u64;
    mac_unit() * u
        + ResourceVector {
            lut: 2_000 + 220 * u,
            ff: 3_000 + 260 * u,
            dsp: 0,
            bram: 8 + u.div_ceil(4),
        }
}

/// Resource cost of the static dense vector unit (dot/axpy/scale), with
/// [`DENSE_VECTOR_WIDTH`] MAC lanes plus a reduction tree.
pub fn dense_vector_unit() -> ResourceVector {
    let w = DENSE_VECTOR_WIDTH as u64;
    mac_unit() * w
        + ResourceVector {
            lut: 3_500,
            ff: 5_000,
            dsp: 0,
            bram: 4,
        }
}

/// Resource cost of the statically programmed per-solver control and
/// bookkeeping units (Initialize, residual monitor, Solver Modifier
/// plumbing).
pub fn solver_control_unit() -> ResourceVector {
    ResourceVector {
        lut: 9_000,
        ff: 14_000,
        dsp: 8,
        bram: 16,
    }
}

/// Partial-bitstream size in bits for a reconfigurable region holding
/// `rv`.
///
/// UltraScale+ configuration frames cover whole columns, so DFX regions
/// carry overhead beyond the raw logic; the per-resource coefficients
/// below fold that in (they are calibrated so a ~16-lane SpMV region is a
/// few hundred kilobytes, matching small-module DFX practice).
pub fn bitstream_bits(rv: &ResourceVector) -> u64 {
    let raw = 256 * rv.lut + 16 * rv.ff + 4_096 * rv.dsp + 40_960 * rv.bram;
    // frame-alignment overhead
    raw + raw / 4 + 65_536
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spmv_engine_scales_with_unroll() {
        let u1 = spmv_engine(1);
        let u16 = spmv_engine(16);
        assert!(u16.dsp == 16 * mac_unit().dsp);
        assert!(u16.lut > u1.lut);
        assert!(u16.bram > u1.bram);
    }

    #[test]
    #[should_panic(expected = "unroll factor must be positive")]
    fn zero_unroll_rejected() {
        let _ = spmv_engine(0);
    }

    #[test]
    fn dense_unit_has_fixed_width() {
        let d = dense_vector_unit();
        assert_eq!(d.dsp, DENSE_VECTOR_WIDTH as u64 * mac_unit().dsp);
    }

    #[test]
    fn bitstream_grows_with_region() {
        let small = bitstream_bits(&spmv_engine(2));
        let large = bitstream_bits(&spmv_engine(64));
        assert!(large > small);
        // a 16-lane region is a few hundred KB => order 1e6..1e7 bits
        let mid = bitstream_bits(&spmv_engine(16));
        assert!(mid > 1_000_000 && mid < 20_000_000, "mid = {mid}");
    }

    #[test]
    fn reconfig_time_for_16_lane_region_is_sub_millisecond() {
        let spec = crate::spec::FabricSpec::alveo_u55c();
        let bits = bitstream_bits(&spmv_engine(16));
        let secs = bits as f64 / (spec.icap_gbps * 1e9);
        assert!(secs < 2e-3, "reconfig takes {secs}s");
        assert!(secs > 1e-5);
    }
}
