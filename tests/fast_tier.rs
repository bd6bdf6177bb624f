//! Two-tier determinism policy: accuracy and scheduling-independence.
//!
//! The `Fast` tier forfeits the bitwise contract, not correctness. These
//! tests pin down what it still promises:
//!
//! - **Accuracy**: on well-conditioned inputs, `Fast` SpMV agrees with
//!   the `Deterministic` kernel to a few ULP per element, over hundreds
//!   of seeded random sparsity patterns spanning every band kind.
//! - **Scheduling-independence**: within a tier, the convergence triple
//!   (iterations / final residual / verdict) does not depend on how many
//!   engine workers ran the batch — reassociation is a *kernel* choice,
//!   fixed at plan compile, not a scheduling artifact.
//! - **Verdict equivalence**: both tiers agree on converged/diverged, and
//!   on the Table II suite `Fast` ends within 10× of the `Deterministic`
//!   residual.

use acamar::core::{Acamar, AcamarConfig};
use acamar::engine::{Engine, SolveJob};
use acamar::fabric::FabricSpec;
use acamar::solvers::ConvergenceCriteria;
use acamar::sparse::rng::DetRng;
use acamar::sparse::{generate, CompiledSpmv, CooMatrix, CsrMatrix, DeterminismPolicy};
use std::sync::Arc;

/// Number of seeded sparsity patterns for the ULP property.
const PATTERNS: u64 = 256;

/// Maximum ULP distance tolerated between the two tiers' SpMV results.
const MAX_ULP: u64 = 4;

/// Distance between two floats in units in the last place, via the
/// monotonic integer mapping of the IEEE-754 bit patterns (negative
/// floats map below positives, so the distance is order-correct across
/// zero).
fn ulp_distance(a: f64, b: f64) -> u64 {
    fn key(x: f64) -> i64 {
        let bits = x.to_bits() as i64;
        if bits < 0 {
            i64::MIN - bits
        } else {
            bits
        }
    }
    key(a).abs_diff(key(b))
}

/// One random well-conditioned system: same-sign entries (no
/// catastrophic cancellation, so reassociated sums stay within a few
/// ULP of the serial order) over a sparsity pattern that mixes uniform
/// rows (compiling to `Fixed`/`Ell` bands), ragged rows (`Unrolled` /
/// `Scalar`), contiguous column runs (the fast tier's `dot_fast` path),
/// and occasional near-dense rows (`DenseRow`).
fn random_case(rng: &mut DetRng) -> (CsrMatrix<f64>, Vec<f64>) {
    let n = rng.gen_range(4..96usize);
    let uniform_width = rng.gen_range(1..9usize).min(n);
    let uniform = rng.gen_range(0.0..1.0) < 0.5;
    let mut coo = CooMatrix::new(n, n);
    for r in 0..n {
        let len = if uniform {
            uniform_width
        } else if rng.gen_range(0.0..1.0) < 0.05 {
            n - rng.gen_range(0..2usize).min(n - 1)
        } else {
            rng.gen_range(0..24usize).min(n)
        };
        let contiguous = rng.gen_range(0.0..1.0) < 0.3;
        let start = rng.gen_range(0..n);
        for k in 0..len {
            let c = if contiguous {
                (start + k) % n
            } else {
                rng.gen_range(0..n)
            };
            coo.push(r, c, rng.gen_range(0.5..1.5)).unwrap();
        }
    }
    let x = (0..n).map(|_| rng.gen_range(0.5..1.5)).collect();
    (coo.to_csr(), x)
}

#[test]
fn fast_and_deterministic_spmv_agree_to_four_ulp() {
    for case in 0..PATTERNS {
        let seed = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(case + 1);
        let mut rng = DetRng::seed_from_u64(seed);
        let (a, x) = random_case(&mut rng);
        let plan = CompiledSpmv::compile_default(&a);
        let n = a.nrows();
        let mut y_det = vec![0.0; n];
        let mut y_fast = vec![0.0; n];
        plan.execute(DeterminismPolicy::Deterministic, &a, &x, &mut y_det)
            .unwrap();
        plan.execute(DeterminismPolicy::Fast, &a, &x, &mut y_fast)
            .unwrap();
        for r in 0..n {
            let d = ulp_distance(y_det[r], y_fast[r]);
            assert!(
                d <= MAX_ULP,
                "seed {seed:#x}: row {r} differs by {d} ULP \
                 (det {:e}, fast {:e}, n {n})",
                y_det[r],
                y_fast[r],
            );
        }
    }
}

#[test]
fn fused_spmv_dot_tiers_agree_on_well_conditioned_inputs() {
    for case in 0..PATTERNS / 4 {
        let seed = 0xD1B5_4A32_D192_ED03u64.wrapping_mul(case + 1);
        let mut rng = DetRng::seed_from_u64(seed);
        let (a, x) = random_case(&mut rng);
        let plan = CompiledSpmv::compile_default(&a);
        let n = a.nrows();
        let z: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..1.5)).collect();
        let mut y_det = vec![0.0; n];
        let mut y_fast = vec![0.0; n];
        let d_det = plan
            .execute_dot(DeterminismPolicy::Deterministic, &a, &x, &mut y_det, &z)
            .unwrap();
        let d_fast = plan
            .execute_dot(DeterminismPolicy::Fast, &a, &x, &mut y_fast, &z)
            .unwrap();
        // The fused dot reassociates over up-to-n same-sign products on
        // top of the per-element SpMV tolerance; a relative bound is the
        // right shape for it.
        let rel = (d_det - d_fast).abs() / d_det.abs().max(f64::MIN_POSITIVE);
        assert!(
            rel <= 1e-12,
            "seed {seed:#x}: fused dot differs by {rel:e} (det {d_det:e}, fast {d_fast:e})"
        );
    }
}

fn acamar() -> Acamar {
    let cfg =
        AcamarConfig::paper().with_criteria(ConvergenceCriteria::paper().with_max_iterations(2000));
    Acamar::new(FabricSpec::alveo_u55c(), cfg)
}

/// Convergence triple (iterations, final residual, verdict) of every job
/// in a batch solved under `policy` with `workers` engine workers.
fn triples(
    systems: &[Arc<CsrMatrix<f64>>],
    workers: usize,
    policy: DeterminismPolicy,
) -> Vec<(usize, f64, bool)> {
    let engine = Engine::with_workers(acamar(), workers);
    let jobs: Vec<SolveJob<f64>> = systems
        .iter()
        .enumerate()
        .map(|(k, a)| {
            let b: Vec<f64> = (0..a.nrows())
                .map(|i| 1.0 + (i + k) as f64 * 1e-3)
                .collect();
            SolveJob::new(Arc::clone(a), b).with_policy(policy)
        })
        .collect();
    let batch = engine.solve_jobs(jobs);
    batch
        .results
        .into_iter()
        .map(|r| {
            let rep = r.expect("solve succeeds");
            (
                rep.solve.iterations,
                rep.solve.final_residual(),
                rep.converged(),
            )
        })
        .collect()
}

#[test]
fn convergence_triple_is_worker_count_independent_in_both_tiers() {
    let systems = vec![
        Arc::new(generate::poisson2d::<f64>(12, 12)),
        Arc::new(generate::poisson2d::<f64>(13, 11)),
        Arc::new(generate::poisson1d::<f64>(144)),
        Arc::new(generate::poisson2d::<f64>(9, 16)),
    ];
    for policy in DeterminismPolicy::ALL {
        let baseline = triples(&systems, 1, policy);
        for workers in [2, 8] {
            let got = triples(&systems, workers, policy);
            assert_eq!(
                baseline, got,
                "{policy}: convergence triple changed between 1 and {workers} workers"
            );
        }
    }
    // Across tiers the bits may differ but the verdicts must not.
    let det = triples(&systems, 1, DeterminismPolicy::Deterministic);
    let fast = triples(&systems, 1, DeterminismPolicy::Fast);
    for (k, (d, f)) in det.iter().zip(&fast).enumerate() {
        assert_eq!(d.2, f.2, "job {k}: tiers disagree on the verdict");
    }
}

/// The accuracy half of the `Fast` contract on the paper's own systems:
/// all 25 Table II analogs reach the same verdict under both tiers, and
/// reassociation costs at most one decimal digit of final residual.
#[test]
fn table_two_verdicts_match_and_fast_residual_stays_within_ten_times() {
    let suite = acamar::datasets::suite();
    let systems: Vec<_> = suite.iter().map(|d| Arc::new(d.matrix_f64())).collect();
    let det = triples(&systems, 2, DeterminismPolicy::Deterministic);
    let fast = triples(&systems, 2, DeterminismPolicy::Fast);
    for ((d, det), fast) in suite.iter().zip(&det).zip(&fast) {
        assert_eq!(det.2, fast.2, "{}: tiers disagree on the verdict", d.name);
        assert!(
            fast.1 <= 10.0 * det.1,
            "{}: Fast residual {:e} is more than 10x Deterministic's {:e}",
            d.name,
            fast.1,
            det.1
        );
    }
}
