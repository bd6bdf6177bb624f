//! The Row Length Trace reads a chunk's CSR offsets in place.
//!
//! The Fine-Grained Reconfiguration unit plans a matrix 4 096 rows at a
//! time, and a set's NNZ is the difference of two offsets, so planning
//! touches `row_ptr` and nothing else of the matrix: what it allocates is
//! the tBuffers and the schedule, a few KiB, however many entries the
//! matrix stores: about 46 KiB on the system below, where copying each
//! chunk out as a matrix of its own, as the unit once did, asked for
//! 16.8 MiB.

use acamar::core::{AcamarConfig, FineGrainedReconfigUnit};
use acamar::sparse::generate::{self, RowDistribution};

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocations, bytes};

#[test]
fn planning_a_large_system_allocates_only_its_plan() {
    // `stencil_long`'s dominant system: 50 000 rows, about 700 000 entries.
    let rows = RowDistribution::Uniform { min: 6, max: 20 };
    let a = generate::diagonally_dominant::<f64>(50_000, rows, 1.5, 0xD0A1);
    assert!(a.nnz() > 650_000, "{} entries", a.nnz());
    let unit = FineGrainedReconfigUnit::new(AcamarConfig::paper());
    let (count, asked) = (allocations(), bytes());
    let plan = unit.plan(&a);
    let (count, asked) = (allocations() - count, bytes() - asked);
    assert_eq!(plan.tbuffers.len(), 13, "one tBuffer per 4 096-row chunk");
    assert_eq!(plan.schedule.entries().last().unwrap().rows.end, 50_000);
    assert!(
        asked < 64 * 1024,
        "planning asked for {asked} bytes in {count} allocations"
    );
}
