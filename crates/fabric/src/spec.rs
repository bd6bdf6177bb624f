//! FPGA device specification and resource/area arithmetic.

use std::ops::{Add, AddAssign, Mul, Sub};

/// Static description of an FPGA device.
///
/// Defaults model the paper's evaluation platform, a Xilinx Alveo U55C
/// (Virtex UltraScale+ XCU55C) — see [`FabricSpec::alveo_u55c`].
#[derive(Debug, Clone, PartialEq)]
pub struct FabricSpec {
    /// Device name.
    pub name: &'static str,
    /// Total LUTs.
    pub luts: u64,
    /// Total flip-flops.
    pub ffs: u64,
    /// Total DSP slices.
    pub dsps: u64,
    /// Total BRAM36 blocks.
    pub brams: u64,
    /// HBM bandwidth in GB/s.
    pub hbm_gbps: f64,
    /// Kernel clock in MHz.
    pub clock_mhz: f64,
    /// ICAP partial-reconfiguration bandwidth in Gb/s (paper §VIII-A:
    /// 6.4 Gb/s at 200 MHz).
    pub icap_gbps: f64,
    /// Die area in mm² used for the FLOPS/mm² performance-efficiency
    /// metric (Fig. 10). UltraScale+ HBM dies are not publicly
    /// dimensioned; this is a documented estimate and only *ratios* of
    /// areas matter for every reproduced figure.
    pub die_area_mm2: f64,
}

impl FabricSpec {
    /// The paper's platform: Alveo U55C (XCU55C).
    pub fn alveo_u55c() -> Self {
        FabricSpec {
            name: "Alveo U55C",
            luts: 1_303_680,
            ffs: 2_607_360,
            dsps: 9_024,
            brams: 2_016,
            hbm_gbps: 460.0,
            clock_mhz: 300.0,
            icap_gbps: 6.4,
            die_area_mm2: 620.0,
        }
    }

    /// Converts kernel cycles to seconds at this device's clock.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_mhz * 1e6)
    }

    /// Bytes deliverable from HBM per kernel clock cycle.
    pub fn bytes_per_cycle(&self) -> f64 {
        self.hbm_gbps * 1e9 / (self.clock_mhz * 1e6)
    }

    /// Cycles (at the kernel clock) to stream `bits` of partial bitstream
    /// through ICAP.
    pub fn icap_cycles(&self, bits: u64) -> u64 {
        let seconds = bits as f64 / (self.icap_gbps * 1e9);
        (seconds * self.clock_mhz * 1e6).ceil() as u64
    }

    /// Die area attributed to `rv`, in mm².
    ///
    /// The die is partitioned by resource family with weights reflecting a
    /// typical UltraScale+ floorplan (CLB fabric 55 %, DSP columns 15 %,
    /// BRAM columns 20 %, the remaining 10 % fixed infrastructure that is
    /// not attributed to user logic); each family contributes
    /// proportionally to its utilization.
    pub fn area_mm2(&self, rv: &ResourceVector) -> f64 {
        let clb = 0.55 * 0.5 * (rv.lut as f64 / self.luts as f64 + rv.ff as f64 / self.ffs as f64);
        let dsp = 0.15 * rv.dsp as f64 / self.dsps as f64;
        let bram = 0.20 * rv.bram as f64 / self.brams as f64;
        self.die_area_mm2 * (clb + dsp + bram)
    }
}

/// A bundle of FPGA resources (LUT/FF/DSP/BRAM), used for unit costs,
/// region sizing, and area accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct ResourceVector {
    /// Lookup tables.
    pub lut: u64,
    /// Flip-flops.
    pub ff: u64,
    /// DSP slices.
    pub dsp: u64,
    /// BRAM36 blocks.
    pub bram: u64,
}

impl ResourceVector {
    /// The zero vector.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Component-wise maximum.
    pub fn max(self, other: Self) -> Self {
        ResourceVector {
            lut: self.lut.max(other.lut),
            ff: self.ff.max(other.ff),
            dsp: self.dsp.max(other.dsp),
            bram: self.bram.max(other.bram),
        }
    }
}

impl Add for ResourceVector {
    type Output = ResourceVector;
    fn add(self, rhs: Self) -> Self {
        ResourceVector {
            lut: self.lut + rhs.lut,
            ff: self.ff + rhs.ff,
            dsp: self.dsp + rhs.dsp,
            bram: self.bram + rhs.bram,
        }
    }
}

impl AddAssign for ResourceVector {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl Sub for ResourceVector {
    type Output = ResourceVector;
    fn sub(self, rhs: Self) -> Self {
        ResourceVector {
            lut: self.lut.saturating_sub(rhs.lut),
            ff: self.ff.saturating_sub(rhs.ff),
            dsp: self.dsp.saturating_sub(rhs.dsp),
            bram: self.bram.saturating_sub(rhs.bram),
        }
    }
}

impl Mul<u64> for ResourceVector {
    type Output = ResourceVector;
    fn mul(self, k: u64) -> Self {
        ResourceVector {
            lut: self.lut * k,
            ff: self.ff * k,
            dsp: self.dsp * k,
            bram: self.bram * k,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u55c_spec_sanity() {
        let s = FabricSpec::alveo_u55c();
        assert_eq!(s.dsps, 9024);
        assert!(s.cycles_to_seconds(300_000_000) - 1.0 < 1e-9);
        assert!(s.bytes_per_cycle() > 1000.0); // ~1.5 kB/cycle
    }

    #[test]
    fn icap_time_matches_bandwidth() {
        let s = FabricSpec::alveo_u55c();
        // 6.4 Gb / 6.4 Gb/s = 1 s = 300e6 cycles
        assert_eq!(s.icap_cycles(6_400_000_000), 300_000_000);
        assert_eq!(s.icap_cycles(0), 0);
    }

    #[test]
    fn resource_arithmetic() {
        let a = ResourceVector {
            lut: 100,
            ff: 200,
            dsp: 5,
            bram: 2,
        };
        let b = a + a;
        assert_eq!(b.lut, 200);
        assert_eq!(
            a * 3,
            ResourceVector {
                lut: 300,
                ff: 600,
                dsp: 15,
                bram: 6
            }
        );
        assert_eq!((b - a), a);
        // saturating subtraction never underflows
        assert_eq!((a - b).lut, 0);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn area_is_monotone_and_bounded() {
        let s = FabricSpec::alveo_u55c();
        let small = ResourceVector {
            lut: 1000,
            ff: 2000,
            dsp: 10,
            bram: 4,
        };
        let big = small * 10;
        assert!(s.area_mm2(&small) > 0.0);
        assert!(s.area_mm2(&big) > s.area_mm2(&small));
        // the whole device maps to at most the die area
        let full = ResourceVector {
            lut: s.luts,
            ff: s.ffs,
            dsp: s.dsps,
            bram: s.brams,
        };
        assert!(s.area_mm2(&full) <= s.die_area_mm2);
        assert!(s.area_mm2(&full) >= 0.85 * s.die_area_mm2 * 0.9); // ~90% attributed
    }
}
