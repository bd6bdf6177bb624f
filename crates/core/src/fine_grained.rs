//! Fine-Grained Reconfiguration unit.
//!
//! Composes the Row Length Trace and the MSID chain into the unroll-factor
//! schedule the host uses to reconfigure the Dynamic SpMV Kernel
//! (paper Fig. 3, blue Resource Decision loop).

use crate::config::AcamarConfig;
use crate::msid::MsidChain;
use crate::trace::{RowLengthTrace, TBuffer};
use acamar_fabric::{ScheduleEntry, UnrollSchedule};
use acamar_sparse::{CsrMatrix, Scalar};

/// Outcome of the fine-grained analysis of one matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct FineGrainedPlan {
    /// Per-chunk tBuffers after MSID optimization (one per processed
    /// 4096-row chunk, paper Section V-B).
    pub tbuffers: Vec<TBuffer>,
    /// Reconfigurations per pass before MSID.
    pub reconfigs_before_msid: usize,
    /// Reconfigurations per pass after MSID.
    pub reconfigs_after_msid: usize,
    /// The schedule handed to the fabric.
    pub schedule: UnrollSchedule,
}

/// The Fine-Grained Reconfiguration unit.
#[derive(Debug, Clone, PartialEq)]
pub struct FineGrainedReconfigUnit {
    config: AcamarConfig,
}

impl FineGrainedReconfigUnit {
    /// Creates the unit with the given configuration.
    pub fn new(config: AcamarConfig) -> Self {
        FineGrainedReconfigUnit { config }
    }

    /// Analyzes `a` and produces the unroll-factor plan.
    ///
    /// The matrix is processed in row chunks of `chunk_rows` (the paper
    /// fixes the problem chunk to 4096x4096, Section V-B); *within each
    /// chunk* the Row Length Trace samples `SamplingRate` sets (Eq. 7–9)
    /// and the MSID chain (Algorithm 4) coalesces their unroll factors.
    /// Adjacent equal-unroll sets — including across chunk boundaries —
    /// merge into single schedule entries. A chunk is traced from its
    /// slice of `a`'s row offsets: nothing else of the matrix is read and
    /// nothing of it is copied.
    pub fn plan<T: Scalar>(&self, a: &CsrMatrix<T>) -> FineGrainedPlan {
        let trace = RowLengthTrace::new(self.config.sampling_rate, self.config.max_unroll);
        let chain = MsidChain::new(self.config.r_opt, self.config.msid_tolerance);
        let chunk_rows = self.config.chunk_rows.max(1);

        let mut entries: Vec<ScheduleEntry> = Vec::new();
        let mut before = 0usize;
        let mut after = 0usize;
        let mut tbuffers = Vec::new();
        let mut start = 0usize;
        while start < a.nrows() {
            let end = (start + chunk_rows).min(a.nrows());
            let mut tbuffer = trace.trace(&a.row_ptr()[start..=end]);
            let (b, f) = chain.optimize(&mut tbuffer);
            before += b;
            after += f;
            for (i, range) in tbuffer.sets().iter().enumerate() {
                let u = tbuffer.unrolls()[i];
                let rows = (range.start + start)..(range.end + start);
                match entries.last_mut() {
                    Some(last) if last.unroll == u && last.rows.end == rows.start => {
                        last.rows.end = rows.end;
                    }
                    _ => entries.push(ScheduleEntry { rows, unroll: u }),
                }
            }
            tbuffers.push(tbuffer);
            start = end;
        }
        if entries.is_empty() {
            entries.push(ScheduleEntry {
                rows: 0..a.nrows(),
                unroll: 1,
            });
        }
        let schedule = UnrollSchedule::from_entries(a.nrows(), entries);
        FineGrainedPlan {
            tbuffers,
            reconfigs_before_msid: before,
            reconfigs_after_msid: after,
            schedule,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acamar_sparse::generate::{self, RowDistribution};
    use acamar_sparse::CooMatrix;

    fn unit(rate: usize, r_opt: usize) -> FineGrainedReconfigUnit {
        FineGrainedReconfigUnit::new(
            AcamarConfig::paper()
                .with_sampling_rate(rate)
                .with_r_opt(r_opt),
        )
    }

    fn matrix_with_counts(counts: &[usize]) -> acamar_sparse::CsrMatrix<f64> {
        let n = counts.len();
        let m = counts.iter().copied().max().unwrap_or(1).max(1);
        let mut coo = CooMatrix::new(n, m);
        for (i, &c) in counts.iter().enumerate() {
            for j in 0..c {
                coo.push(i, j, 1.0).unwrap();
            }
        }
        coo.to_csr()
    }

    #[test]
    fn plan_merges_equal_adjacent_sets() {
        let a = matrix_with_counts(&[4, 4, 4, 4, 12, 12, 12, 12]);
        let p = unit(4, 0).plan(&a);
        // two distinct unrolls -> two schedule entries
        assert_eq!(p.schedule.entries().len(), 2);
        assert_eq!(p.schedule.entries()[0].unroll, 4);
        assert_eq!(p.schedule.entries()[1].unroll, 12);
        assert_eq!(p.schedule.changes_per_pass(), 1);
    }

    #[test]
    fn msid_reduces_schedule_entries() {
        // Slightly jittered row populations: without MSID every set gets
        // its own unroll; with MSID they collapse.
        let counts: Vec<usize> = (0..64).map(|i| 10 + (i % 2)).collect();
        let a = matrix_with_counts(&counts);
        let without = unit(16, 0).plan(&a);
        let with = unit(16, 8).plan(&a);
        assert!(
            with.schedule.changes_per_pass() <= without.schedule.changes_per_pass(),
            "with {} vs without {}",
            with.schedule.changes_per_pass(),
            without.schedule.changes_per_pass()
        );
        assert!(with.reconfigs_after_msid <= with.reconfigs_before_msid);
    }

    #[test]
    fn plan_covers_all_rows() {
        let a =
            generate::random_pattern::<f64>(777, RowDistribution::Uniform { min: 1, max: 20 }, 3);
        let p = unit(32, 8).plan(&a);
        let last = p.schedule.entries().last().unwrap();
        assert_eq!(last.rows.end, 777);
        assert_eq!(p.schedule.entries().first().unwrap().rows.start, 0);
    }

    #[test]
    fn large_matrices_are_planned_per_chunk() {
        // 10 000 rows with a tiny chunk size: each chunk gets its own
        // tBuffer with `sampling_rate` sets inside it.
        let a = generate::random_pattern::<f64>(
            10_000,
            RowDistribution::Uniform { min: 1, max: 12 },
            9,
        );
        let cfg = AcamarConfig::paper().with_sampling_rate(8);
        let cfg = AcamarConfig {
            chunk_rows: 1000,
            ..cfg
        };
        let p = FineGrainedReconfigUnit::new(cfg).plan(&a);
        assert_eq!(p.tbuffers.len(), 10);
        assert!(p.tbuffers.iter().all(|t| t.len() == 8));
        assert_eq!(p.schedule.entries().last().unwrap().rows.end, 10_000);
        // chunk boundaries fall on multiples of 1000 within entries
        for e in p.schedule.entries() {
            assert!(e.unroll >= 1);
        }
    }

    #[test]
    fn chunked_and_unchunked_plans_agree_for_small_matrices() {
        let a =
            generate::random_pattern::<f64>(500, RowDistribution::Uniform { min: 1, max: 9 }, 4);
        // chunk_rows = 4096 > 500: exactly one chunk, same as unchunked.
        let p = unit(16, 8).plan(&a);
        assert_eq!(p.tbuffers.len(), 1);
        assert_eq!(p.tbuffers[0].len(), 16);
    }

    #[test]
    fn reduction_metric_bounds() {
        let a = matrix_with_counts(&[4; 32]);
        let p = unit(8, 8).plan(&a);
        assert_eq!(p.reconfigs_before_msid, 0);
        assert_eq!(p.reconfigs_after_msid, 0);
    }

    /// The unit's plan made the way it was before the trace read offsets:
    /// each chunk copied out as a matrix of its own, and each set's
    /// average summed row by row over the copy (Eq. 7–9), then the MSID
    /// chain and the merge as in [`FineGrainedReconfigUnit::plan`].
    fn plan_from_copied_chunks(cfg: &AcamarConfig, a: &CsrMatrix<f64>) -> FineGrainedPlan {
        let trace = RowLengthTrace::new(cfg.sampling_rate, cfg.max_unroll);
        let chain = MsidChain::new(cfg.r_opt, cfg.msid_tolerance);
        let (mut entries, mut tbuffers) = (Vec::<ScheduleEntry>::new(), Vec::new());
        let (mut before, mut after) = (0, 0);
        let rp = a.row_ptr();
        for start in (0..a.nrows()).step_by(cfg.chunk_rows.max(1)) {
            let end = (start + cfg.chunk_rows.max(1)).min(a.nrows());
            let (lo, hi) = (rp[start], rp[end]);
            let chunk = CsrMatrix::try_from_parts(
                end - start,
                a.ncols(),
                rp[start..=end].iter().map(|&p| p - lo).collect(),
                a.col_idx()[lo..hi].to_vec(),
                a.values()[lo..hi].to_vec(),
            )
            .unwrap();
            let set = chunk.nrows().div_ceil(cfg.sampling_rate.max(1));
            let unrolls: Vec<usize> = (0..chunk.nrows())
                .step_by(set)
                .map(|s| {
                    let e = (s + set).min(chunk.nrows());
                    let nnz: usize = (s..e).map(|i| chunk.row_nnz(i)).sum();
                    let m = nnz as f64 / (e - s) as f64;
                    (m.round() as usize).clamp(1, cfg.max_unroll)
                })
                .collect();
            let mut tbuffer = trace.trace(chunk.row_ptr());
            tbuffer.set_unrolls(unrolls);
            let (b, f) = chain.optimize(&mut tbuffer);
            before += b;
            after += f;
            for (range, &u) in tbuffer.sets().iter().zip(tbuffer.unrolls()) {
                let rows = (range.start + start)..(range.end + start);
                match entries.last_mut() {
                    Some(last) if last.unroll == u && last.rows.end == rows.start => {
                        last.rows.end = rows.end;
                    }
                    _ => entries.push(ScheduleEntry { rows, unroll: u }),
                }
            }
            tbuffers.push(tbuffer);
        }
        if entries.is_empty() {
            entries.push(ScheduleEntry {
                rows: 0..a.nrows(),
                unroll: 1,
            });
        }
        FineGrainedPlan {
            tbuffers,
            reconfigs_before_msid: before,
            reconfigs_after_msid: after,
            schedule: UnrollSchedule::from_entries(a.nrows(), entries),
        }
    }

    #[test]
    fn plans_read_from_offsets_equal_plans_from_copied_chunks() {
        use RowDistribution::Uniform;
        let mut pool = Vec::new();
        for seed in 0..2 {
            // The cold pool's three classes, at their sizes.
            pool.push(generate::diagonally_dominant(
                4000,
                Uniform { min: 2, max: 6 },
                1.5,
                seed,
            ));
            pool.push(generate::spd_from_pattern(
                3000,
                Uniform { min: 2, max: 8 },
                0.3,
                seed,
            ));
            pool.push(generate::diagonally_dominant(
                2000,
                Uniform { min: 1, max: 40 },
                1.5,
                seed,
            ));
        }
        // Thirteen chunks, the last one short: the stencil pool's dominant
        // system.
        pool.push(generate::diagonally_dominant(
            50_000,
            Uniform { min: 6, max: 20 },
            1.5,
            0xD0A1,
        ));
        // Empty rows, a chunk of them, and no rows at all.
        let mut counts = vec![3; 4096];
        counts.extend([0; 4100]);
        counts.extend([0, 7, 0, 1]);
        pool.push(matrix_with_counts(&counts));
        pool.push(CsrMatrix::try_from_parts(0, 0, vec![0], vec![], vec![]).unwrap());
        let paper = AcamarConfig::paper();
        let configs = [
            paper.clone(),
            AcamarConfig {
                chunk_rows: 1000,
                ..paper.clone().with_sampling_rate(7).with_r_opt(0)
            },
            AcamarConfig {
                chunk_rows: 0,
                ..paper.with_sampling_rate(0)
            },
        ];
        for cfg in &configs {
            let unit = FineGrainedReconfigUnit::new(cfg.clone());
            for (k, a) in pool.iter().enumerate() {
                assert_eq!(unit.plan(a), plan_from_copied_chunks(cfg, a), "matrix {k}");
            }
        }
    }
}
