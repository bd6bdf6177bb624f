//! [`CycleTable`]: SpMV prices memoised per operand for one solver attempt.
//!
//! What a loop-phase SpMV costs on the fabric is a pure function of the
//! operand's row lengths, the unroll schedule, and the device — none of
//! which change while a solver iterates. The table prices each operand
//! once, by the same [`execute_rows`] walk that priced every SpMV before
//! it existed, and the executor replays the stored integers on every
//! later SpMV as one add per schedule entry.

use crate::cost::spmv_engine;
use crate::kernels::UnrollSchedule;
use crate::reconfig::swap_cycles;
use crate::spec::FabricSpec;
use crate::spmv::{execute_rows, SpmvExecution};
use acamar_solvers::OperandId;
use acamar_sparse::{CsrMatrix, Scalar};
use std::ops::Range;

/// What it costs to stream one row range of one operand through an SpMV
/// engine of a given unroll factor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SegmentPrice {
    /// Cycles and MAC slots of the rows ([`execute_rows`]).
    pub exec: SpmvExecution,
    /// Area of the engine, mm².
    pub engine_area: f64,
    /// ICAP cycles to swap the engine into the nested DFX region.
    pub swap_cycles: u64,
}

impl SegmentPrice {
    /// Prices `rows` of `a` on an engine of `unroll` lanes. Every entry of
    /// the table comes from here, and so does the debug-build audit of
    /// every replayed entry.
    pub fn of<T: Scalar>(
        a: &CsrMatrix<T>,
        rows: Range<usize>,
        unroll: usize,
        spec: &FabricSpec,
    ) -> Self {
        let engine = spmv_engine(unroll);
        SegmentPrice {
            exec: execute_rows(a, rows, unroll, spec),
            engine_area: spec.area_mm2(&engine),
            swap_cycles: swap_cycles(spec, &engine),
        }
    }
}

/// The prices of one operand, each column filled on first use.
#[derive(Debug, Clone)]
struct OperandPrices {
    id: OperandId,
    /// The whole matrix on the static initialize-phase engine.
    init: Option<SegmentPrice>,
    /// Per schedule entry at its scheduled unroll.
    scheduled: Vec<SegmentPrice>,
    /// Per schedule entry at the schedule's largest unroll — the engine
    /// an ICAP abort pins the region to.
    pinned: Vec<SegmentPrice>,
}

/// Memoised SpMV prices, keyed by operand pattern identity.
///
/// Solvers multiply by more than the coefficient matrix — Jacobi by its
/// iteration matrix, BiCG by `Aᵀ`, which shares `A`'s shape and entry
/// count but not its rows — so entries are keyed by [`OperandId`]: two
/// matrices on one pattern's storage have the same row lengths and so
/// the same prices. An identity says nothing once the pattern behind it
/// is gone, so the owner [`clear`](CycleTable::clear)s the table whenever
/// a solver attempt starts or the schedule changes.
#[derive(Debug, Clone, Default)]
pub(crate) struct CycleTable {
    operands: Vec<OperandPrices>,
}

impl CycleTable {
    /// Forgets every operand.
    pub fn clear(&mut self) {
        self.operands.clear();
    }

    /// The table's handle for `a`, adding an unpriced row on first sight.
    /// A solver touches two operands at most, so the scan is short.
    pub fn operand<T: Scalar>(&mut self, a: &CsrMatrix<T>) -> usize {
        let id = OperandId::of(a);
        self.operands
            .iter()
            .position(|p| p.id == id)
            .unwrap_or_else(|| {
                self.operands.push(OperandPrices {
                    id,
                    init: None,
                    scheduled: Vec::new(),
                    pinned: Vec::new(),
                });
                self.operands.len() - 1
            })
    }

    /// Price of all of `a` on the initialize-phase engine of `unroll`
    /// lanes. `op` must be `a`'s [`operand`](CycleTable::operand) handle.
    pub fn init<T: Scalar>(
        &mut self,
        op: usize,
        a: &CsrMatrix<T>,
        unroll: usize,
        spec: &FabricSpec,
    ) -> SegmentPrice {
        *self.operands[op]
            .init
            .get_or_insert_with(|| SegmentPrice::of(a, 0..a.nrows(), unroll, spec))
    }

    /// Price of `schedule` entry `idx` over `a`: at the entry's own unroll,
    /// or at the schedule's largest when `pinned`. The first request for a
    /// column prices every entry [`UnrollSchedule::walkable`] over `a` in
    /// one pass. `op` must be `a`'s [`operand`](CycleTable::operand) handle.
    pub fn segment<T: Scalar>(
        &mut self,
        op: usize,
        a: &CsrMatrix<T>,
        schedule: &UnrollSchedule,
        pinned: bool,
        idx: usize,
        spec: &FabricSpec,
    ) -> SegmentPrice {
        let prices = &mut self.operands[op];
        let column = if pinned {
            &mut prices.pinned
        } else {
            &mut prices.scheduled
        };
        if column.is_empty() {
            let pin = pinned.then(|| schedule.max_unroll());
            column.extend(
                schedule.entries()[..schedule.walkable(a.nrows())]
                    .iter()
                    .map(|e| SegmentPrice::of(a, e.rows.clone(), pin.unwrap_or(e.unroll), spec)),
            );
        }
        column[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::ScheduleEntry;
    use acamar_sparse::generate::{self, RowDistribution};

    fn schedule() -> UnrollSchedule {
        UnrollSchedule::from_entries(
            64,
            vec![
                ScheduleEntry {
                    rows: 0..20,
                    unroll: 2,
                },
                ScheduleEntry {
                    rows: 20..64,
                    unroll: 8,
                },
            ],
        )
    }

    #[test]
    fn columns_replay_the_row_walk() {
        let spec = FabricSpec::alveo_u55c();
        let a =
            generate::random_pattern::<f64>(64, RowDistribution::Uniform { min: 0, max: 12 }, 9);
        let sched = schedule();
        let mut table = CycleTable::default();
        let op = table.operand(&a);
        assert_eq!(table.operand(&a), op, "one row per operand");
        for _ in 0..2 {
            for (idx, e) in sched.entries().iter().enumerate() {
                let s = table.segment(op, &a, &sched, false, idx, &spec);
                assert_eq!(s, SegmentPrice::of(&a, e.rows.clone(), e.unroll, &spec));
                let p = table.segment(op, &a, &sched, true, idx, &spec);
                assert_eq!(p, SegmentPrice::of(&a, e.rows.clone(), 8, &spec));
            }
            let init = table.init(op, &a, 4, &spec);
            assert_eq!(init.exec, execute_rows(&a, 0..64, 4, &spec));
        }
    }

    #[test]
    fn same_shape_operands_are_priced_apart() {
        // Aᵀ has A's shape and entry count; only identity tells them apart.
        let spec = FabricSpec::alveo_u55c();
        let a =
            generate::random_pattern::<f64>(64, RowDistribution::Uniform { min: 1, max: 12 }, 4);
        let at = a.transpose();
        assert_eq!((a.nrows(), a.nnz()), (at.nrows(), at.nnz()));
        let sched = schedule();
        let mut table = CycleTable::default();
        let (op_a, op_at) = (table.operand(&a), table.operand(&at));
        assert_ne!(op_a, op_at);
        let pa = table.segment(op_a, &a, &sched, false, 0, &spec);
        let pat = table.segment(op_at, &at, &sched, false, 0, &spec);
        assert_eq!(pat.exec, execute_rows(&at, 0..20, 2, &spec));
        assert_ne!(pa.exec, pat.exec, "the seed gives A and Aᵀ different rows");
        table.clear();
        assert_eq!(table.operand(&at), 0, "cleared tables start over");
    }
}
