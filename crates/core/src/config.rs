//! Acamar configuration (the paper's hardware-configuration parameters,
//! Section V-D).

use acamar_solvers::ConvergenceCriteria;

/// Tunable parameters of the Acamar accelerator.
///
/// Defaults are the values the paper settles on for its headline
/// comparisons: `SamplingRate = 32`, `rOpt = 8`, MSID `tolerance = 0.15`,
/// problems processed in 4096-row chunks, and the paper's convergence
/// policy (`1e-5`, 200-iteration setup time).
#[derive(Debug, Clone, PartialEq)]
pub struct AcamarConfig {
    /// Number of row sets the Row Length Trace unit samples
    /// (paper Eq. 9; default 32).
    pub sampling_rate: usize,
    /// MSID chain stages (`rOpt`; 0 disables the optimization; default 8).
    pub r_opt: usize,
    /// MSID relative tolerance (default 0.15).
    pub msid_tolerance: f64,
    /// Unroll factor of the static initialize-phase SpMV engine
    /// (the "unoptimized variant", Section IV-B; default 4).
    pub init_unroll: usize,
    /// Clamp on per-set unroll factors (DFX region sizing; default 64).
    pub max_unroll: usize,
    /// Row-chunk size for processing large problems (default 4096).
    pub chunk_rows: usize,
    /// Convergence policy shared by all solver attempts.
    pub criteria: ConvergenceCriteria,
    /// Overlap SpMV-region partial reconfiguration with compute
    /// (double-buffered DFX regions; extension, default off).
    pub overlap_reconfiguration: bool,
}

impl AcamarConfig {
    /// The paper's configuration.
    pub fn paper() -> Self {
        AcamarConfig {
            sampling_rate: 32,
            r_opt: 8,
            msid_tolerance: 0.15,
            init_unroll: 4,
            max_unroll: 64,
            chunk_rows: 4096,
            criteria: ConvergenceCriteria::paper(),
            overlap_reconfiguration: false,
        }
    }

    /// Returns a copy with overlapped reconfiguration enabled.
    pub fn with_overlap(mut self, enabled: bool) -> Self {
        self.overlap_reconfiguration = enabled;
        self
    }

    /// Returns a copy with a different sampling rate.
    pub fn with_sampling_rate(mut self, rate: usize) -> Self {
        self.sampling_rate = rate;
        self
    }

    /// Returns a copy with a different MSID stage count.
    pub fn with_r_opt(mut self, r_opt: usize) -> Self {
        self.r_opt = r_opt;
        self
    }

    /// Returns a copy with a different MSID tolerance.
    pub fn with_msid_tolerance(mut self, tol: f64) -> Self {
        self.msid_tolerance = tol;
        self
    }

    /// Returns a copy with a different convergence policy.
    pub fn with_criteria(mut self, criteria: ConvergenceCriteria) -> Self {
        self.criteria = criteria;
        self
    }
}

impl Default for AcamarConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_v() {
        let c = AcamarConfig::paper();
        assert_eq!(c.sampling_rate, 32);
        assert_eq!(c.r_opt, 8);
        assert!((c.msid_tolerance - 0.15).abs() < 1e-12);
        assert_eq!(c.chunk_rows, 4096);
        assert_eq!(c.criteria.setup_iterations, 200);
    }

    #[test]
    fn builders_update_fields() {
        let c = AcamarConfig::paper()
            .with_sampling_rate(64)
            .with_r_opt(2)
            .with_msid_tolerance(0.6);
        assert_eq!(c.sampling_rate, 64);
        assert_eq!(c.r_opt, 2);
        assert!((c.msid_tolerance - 0.6).abs() < 1e-12);
        assert_eq!(AcamarConfig::default(), AcamarConfig::paper());
    }
}
