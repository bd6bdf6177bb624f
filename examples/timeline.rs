//! Cycle-stamped execution timeline of one solve.
//!
//! Records the fabric's telemetry into a ring and prints the first events
//! of a Jacobi solve on a mixed-sparsity matrix — phase changes, per-set
//! SpMV segments at each scheduled unroll factor, and the DFX
//! reconfiguration stalls between them, each stamped with the modeled
//! cycle it began at — then the Fig. 13-style residency timeline: the
//! behavioral-simulator view of Acamar's Resource Decision loop.
//!
//! Run with `cargo run --release --example timeline`.

use acamar::core::{AcamarConfig, FineGrainedReconfigUnit};
use acamar::fabric::FabricKernels;
use acamar::prelude::*;
use acamar::sparse::generate::RowDistribution;
use acamar::telemetry::{export, timeline, RingRecorder, TelemetrySink};
use std::sync::Arc;

fn main() -> Result<(), SparseError> {
    // Half sparse rows, half dense rows: the schedule will alternate
    // unroll factors and the engine must reconfigure between them.
    let a = generate::diagonally_dominant::<f32>(
        512,
        RowDistribution::Bimodal {
            low: 3,
            high: 32,
            high_fraction: 0.5,
        },
        1.5,
        21,
    );
    let b = vec![1.0_f32; a.nrows()];

    let cfg = AcamarConfig::paper().with_sampling_rate(8);
    let plan = FineGrainedReconfigUnit::new(cfg.clone()).plan(&a);
    println!("schedule ({} entries):", plan.schedule.entries().len());
    for e in plan.schedule.entries() {
        println!(
            "  rows {:>4}..{:<4} U={}",
            e.rows.start, e.rows.end, e.unroll
        );
    }

    let ring = Arc::new(RingRecorder::new(1 << 16));
    let mut hw = FabricKernels::new(FabricSpec::alveo_u55c(), plan.schedule.clone(), 4)
        .with_telemetry(TelemetrySink::new(ring.clone()));
    let report = acamar::solvers::jacobi(&a, &b, None, &ConvergenceCriteria::paper(), &mut hw)?;
    assert!(report.converged());
    let stats = hw.finish();

    let events = ring.drain();
    assert_eq!(ring.dropped(), 0, "ring sized for the whole solve");
    println!("\nfirst events (cycle-stamped):");
    for e in events.iter().take(40) {
        println!("  {}", export::event_json(e));
    }
    println!("  ... {} events in all\n", events.len());
    print!("{}", timeline::render_job(&events, 0, 72));

    let spmv_swaps = timeline::reconfig_counts(&events, None).spmv;
    assert_eq!(spmv_swaps, stats.spmv_reconfig_events as u64);
    println!(
        "\nsolve: {} iterations; {spmv_swaps} SpMV-region reconfigurations, {} stall cycles",
        report.iterations, stats.cycles.reconfig
    );
    Ok(())
}
