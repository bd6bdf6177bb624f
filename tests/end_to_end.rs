//! Cross-crate integration tests: the full pipeline from matrix
//! generation through analysis, hardware-modeled solving, and metrics.

use acamar::core::{Acamar, AcamarConfig, MatrixStructureUnit, RunOptions};
use acamar::fabric::{FabricKernels, FabricSpec, StaticAccelerator, UnrollSchedule};
use acamar::gpu::{model_csr_spmv, GpuSpec};
use acamar::prelude::*;
use acamar::solvers::{solve_with, Kernels};
use acamar::sparse::io::{read_matrix_market, write_matrix_market};

fn criteria() -> ConvergenceCriteria {
    ConvergenceCriteria::paper().with_max_iterations(3000)
}

fn config() -> AcamarConfig {
    AcamarConfig::paper().with_criteria(criteria())
}

#[test]
fn acamar_solution_matches_software_solver_bit_for_bit() {
    let a = generate::poisson2d::<f32>(12, 12);
    let b = vec![1.0_f32; 144];
    let report = Acamar::new(FabricSpec::alveo_u55c(), config())
        .run(&a, &b)
        .unwrap();
    assert!(report.converged());

    // The same solver in pure software must produce the identical iterate:
    // the fabric model charges cycles but never changes the arithmetic.
    let mut sw = SoftwareKernels::new();
    let sw_report = solve_with(report.final_solver(), &a, &b, None, &criteria(), &mut sw).unwrap();
    assert_eq!(report.solve.iterations, sw_report.iterations);
    assert_eq!(report.solve.solution, sw_report.solution);

    // And a kind means one solver at every entry point: a forced run
    // through the accelerator is `solve_with` of that kind. Grids large
    // enough that GMRES restarts, so the restart length shows.
    let systems = [
        generate::poisson2d::<f64>(24, 24),
        generate::convection_diffusion_2d::<f64>(16, 16, 2.0),
    ];
    let acamar = Acamar::new(FabricSpec::alveo_u55c(), config());
    for a in &systems {
        let b = vec![1.0_f64; a.nrows()];
        let artifacts = acamar.analyze(a);
        for kind in SolverKind::ALL {
            let opts = RunOptions {
                solver: Some(kind),
                ..RunOptions::default()
            };
            let forced = acamar
                .run_with_plan_opts(a, &b, None, &artifacts, opts)
                .unwrap()
                .solve;
            let mut sw = SoftwareKernels::new();
            let direct = solve_with(kind, a, &b, None, &criteria(), &mut sw).unwrap();
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let n = a.nrows();
            assert_eq!(forced.outcome, direct.outcome, "{kind} on n = {n}");
            assert_eq!(forced.iterations, direct.iterations, "{kind} on n = {n}");
            assert_eq!(forced.counts, direct.counts, "{kind} on n = {n}");
            assert_eq!(
                bits(&forced.solution),
                bits(&direct.solution),
                "{kind} on n = {n}"
            );
        }
    }
}

#[test]
fn fabric_and_software_kernels_agree_for_all_three_solvers() {
    let a = generate::diagonally_dominant::<f32>(
        200,
        generate::RowDistribution::Uniform { min: 2, max: 9 },
        1.5,
        3,
    );
    let b = vec![1.0_f32; 200];
    for kind in SolverKind::ACAMAR {
        let mut hw =
            FabricKernels::new(FabricSpec::alveo_u55c(), UnrollSchedule::uniform(200, 4), 4);
        let hw_rep = solve_with(kind, &a, &b, None, &criteria(), &mut hw).unwrap();
        let mut sw = SoftwareKernels::new();
        let sw_rep = solve_with(kind, &a, &b, None, &criteria(), &mut sw).unwrap();
        assert_eq!(hw_rep.outcome, sw_rep.outcome, "{kind}");
        assert_eq!(hw_rep.solution, sw_rep.solution, "{kind}");
        assert_eq!(
            Kernels::<f32>::counts(&hw).spmv_flops,
            Kernels::<f32>::counts(&sw).spmv_flops,
            "{kind}"
        );
    }
}

#[test]
fn matrix_market_round_trip_preserves_solve_behavior() {
    let original = generate::convection_diffusion_2d::<f32>(12, 12, 3.0);
    let mut buf = Vec::new();
    write_matrix_market(&original, &mut buf).unwrap();
    let reloaded = read_matrix_market::<f32, _>(buf.as_slice()).unwrap();
    assert_eq!(original, reloaded);

    let b = vec![1.0_f32; original.nrows()];
    let r1 = Acamar::new(FabricSpec::alveo_u55c(), config())
        .run(&original, &b)
        .unwrap();
    let r2 = Acamar::new(FabricSpec::alveo_u55c(), config())
        .run(&reloaded, &b)
        .unwrap();
    assert_eq!(r1.solve.solution, r2.solve.solution);
    assert_eq!(r1.final_solver(), r2.final_solver());
}

#[test]
fn structure_unit_recommendation_agrees_with_outcome_on_easy_classes() {
    // For well-behaved classes, the first recommendation already works.
    let cases: Vec<CsrMatrix<f32>> = vec![
        generate::diagonally_dominant(
            150,
            generate::RowDistribution::Uniform { min: 2, max: 6 },
            1.5,
            1,
        ),
        generate::jacobi_divergent_spd(150, 0.7, 1, 0.01, 2),
        generate::convection_diffusion_2d(12, 12, 2.0),
    ];
    for a in cases {
        let decision = MatrixStructureUnit::new().analyze(&a);
        let b = vec![1.0_f32; a.nrows()];
        let rep = Acamar::new(FabricSpec::alveo_u55c(), config())
            .run(&a, &b)
            .unwrap();
        assert!(rep.converged());
        assert_eq!(rep.final_solver(), decision.solver);
        assert_eq!(rep.solver_switches(), 0);
    }
}

#[test]
fn acamar_dominates_static_design_on_mixed_sparsity() {
    // A workload with a sparse region and a dense region: no single URB
    // serves both, but Acamar schedules each set separately.
    let mut coo = CooMatrix::<f32>::new(512, 512);
    for i in 0..256 {
        // sparse half: 3 entries per row
        for k in 0..3 {
            let j = (i * 7 + k * 31) % 512;
            let _ = coo.push(i, j, 0.01);
        }
    }
    for i in 256..512 {
        // dense half: 24 entries per row
        for k in 0..24 {
            let j = (i * 11 + k * 13) % 512;
            let _ = coo.push(i, j, 0.01);
        }
    }
    for i in 0..512 {
        coo.push(i, i, 10.0).unwrap();
    }
    let a = coo.to_csr();
    let b = vec![1.0_f32; 512];

    let acamar = Acamar::new(FabricSpec::alveo_u55c(), config())
        .run(&a, &b)
        .unwrap();
    assert!(acamar.converged());

    for urb in [4usize, 24] {
        let run = StaticAccelerator::new(FabricSpec::alveo_u55c(), acamar.final_solver(), urb)
            .run(&a, &b, &criteria())
            .unwrap();
        assert!(run.solve.converged());
        let better_ru =
            acamar.stats.spmv.underutilization() <= run.stats.spmv.underutilization() + 1e-9;
        let better_latency = acamar.stats.cycles.spmv <= run.stats.cycles.spmv;
        assert!(
            better_ru || better_latency,
            "URB={urb}: acamar RU {:.3} vs {:.3}, cycles {} vs {}",
            acamar.stats.spmv.underutilization(),
            run.stats.spmv.underutilization(),
            acamar.stats.cycles.spmv,
            run.stats.cycles.spmv
        );
    }
}

#[test]
fn gpu_model_and_fabric_agree_on_workload_size() {
    let a = generate::poisson2d::<f32>(32, 32);
    let g = model_csr_spmv(&GpuSpec::gtx1650_super(), &a);
    assert_eq!(g.lanes_used, a.nnz() as u64);
    // The fabric, per Eq. 5, also processes exactly nnz useful slots.
    let exec = acamar::fabric::spmv::execute_matrix(&a, 8, &FabricSpec::alveo_u55c());
    assert_eq!(exec.slots_used, a.nnz() as u64);
}

#[test]
fn matrices_larger_than_the_paper_chunk_solve_through_chunked_planning() {
    let w = acamar::datasets::stress_suite()
        .into_iter()
        .find(|w| w.kind == acamar::datasets::StressKind::MultiChunk)
        .expect("suite has a multi-chunk workload");
    let a = w.matrix();
    assert!(a.nrows() > acamar::sparse::chunk::PAPER_CHUNK_ROWS);
    let rep = Acamar::new(FabricSpec::alveo_u55c(), config())
        .run(&a, &w.rhs())
        .unwrap();
    assert!(rep.converged());
    // one tBuffer per 4096-row chunk
    assert_eq!(
        rep.plan.tbuffers.len(),
        a.nrows().div_ceil(acamar::sparse::chunk::PAPER_CHUNK_ROWS)
    );
    // schedule still tiles the full row space
    assert_eq!(
        rep.plan.schedule.entries().last().unwrap().rows.end,
        a.nrows()
    );
}

#[test]
fn warm_start_reduces_iterations() {
    let a = generate::poisson2d::<f32>(16, 16);
    let b = vec![1.0_f32; 256];
    let acamar = Acamar::new(FabricSpec::alveo_u55c(), config());
    let cold = acamar.run(&a, &b).unwrap();
    assert!(cold.converged());
    // warm start from the converged solution: immediate convergence
    let warm = acamar
        .run_with_guess(&a, &b, Some(&cold.solve.solution))
        .unwrap();
    assert!(warm.converged());
    assert!(
        warm.solve.iterations <= 2,
        "warm start took {} iterations",
        warm.solve.iterations
    );
}

#[test]
fn divergent_static_design_is_rescued_by_acamar() {
    // Symmetric indefinite, not dominant: CG-only hardware fails.
    let a = generate::spread_spectrum_blocks::<f32>(300, 0.6, 10.0, true, 11);
    let b = vec![1.0_f32; 300];
    let static_run =
        StaticAccelerator::new(FabricSpec::alveo_u55c(), SolverKind::ConjugateGradient, 8)
            .run(&a, &b, &criteria())
            .unwrap();
    assert!(!static_run.solve.converged());

    let rep = Acamar::new(FabricSpec::alveo_u55c(), config())
        .run(&a, &b)
        .unwrap();
    assert!(rep.converged());
    assert!(rep.solver_switches() >= 1);
}
