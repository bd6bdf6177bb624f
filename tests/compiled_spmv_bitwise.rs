//! Property test for the compiled SpMV execution plans: the compiled walk
//! must be **bitwise identical** to the generic CSR walk.
//!
//! Every band kernel keeps a row's single-accumulator summation chain in
//! CSR entry order, so `execute` equals `CsrMatrix::mul_vec` and
//! `execute_dot` — which runs the plan one band at a time — equals that
//! followed by a row-ascending dot. Under `Fast`, `Diagonal`, `Fixed` and
//! `Ell` bands run the same kernels and must produce the same bytes; the
//! other kinds reassociate within a row and are held to a few ULP of the
//! row's accumulated magnitude. This suite pins those claims across 64
//! seeded random patterns drawn from every `RowDistribution` family, with
//! plans compiled both from the default hint and from the MSID schedule
//! the fine-grained reconfiguration unit actually produces.

use acamar::core::{Acamar, AcamarConfig};
use acamar::fabric::FabricSpec;
use acamar::sparse::generate::{self, RowDistribution};
use acamar::sparse::rng::DetRng;
use acamar::sparse::DeterminismPolicy::{Deterministic, Fast};
use acamar::sparse::{BandKind, CompiledSpmv};

/// Seeded random patterns per distribution family.
const CASES_PER_FAMILY: u64 = 16;

fn families(case: u64) -> RowDistribution {
    match case % 4 {
        0 => RowDistribution::Constant(3 + (case % 5) as usize),
        1 => RowDistribution::Uniform {
            min: 1,
            max: 9 + (case % 8) as usize,
        },
        2 => RowDistribution::Bimodal {
            low: 2,
            high: 24 + (case % 16) as usize,
            high_fraction: 0.1,
        },
        _ => RowDistribution::PowerLaw {
            min: 1,
            max: 60,
            exponent: 1.8,
        },
    }
}

fn assert_bits_eq(got: &[f64], want: &[f64], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{ctx}: row {i} differs ({g:?} vs {w:?})"
        );
    }
}

#[test]
fn compiled_walk_is_bitwise_the_csr_walk_on_both_entry_points() {
    let acamar = Acamar::new(FabricSpec::alveo_u55c(), AcamarConfig::paper());
    let total = CASES_PER_FAMILY * 4;
    for case in 0..total {
        let seed = 0xC0DE_0000 + case;
        let n = 48 + (case as usize * 29) % 320;
        let a = generate::random_pattern::<f64>(n, families(case), seed);
        let mut rng = DetRng::seed_from_u64(seed ^ 0x5EED);
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-4.0..4.0)).collect();
        let z: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();

        let expected = a.mul_vec(&x).unwrap();
        let expected_dot = expected.iter().zip(&z).fold(0.0, |s, (y, z)| s + y * z);
        // Σ|v·x| per row: the scale reassociation error is relative to.
        let magnitude: Vec<f64> = (0..n)
            .map(|i| {
                let (cols, vals) = a.row(i);
                cols.iter().zip(vals).map(|(&c, &v)| (v * x[c]).abs()).sum()
            })
            .collect();

        let schedule_plan = acamar.analyze(&a).compiled;
        let default_plan = CompiledSpmv::compile_default(&a);
        for (plan, tag) in [(&*schedule_plan, "schedule"), (&default_plan, "default")] {
            let ctx = format!("case {case} {tag}");
            let mut y = vec![f64::NAN; n];
            plan.execute(Deterministic, &a, &x, &mut y).unwrap();
            assert_bits_eq(&y, &expected, &format!("{ctx} execute"));

            y.fill(f64::NAN);
            let dot = plan.execute_dot(Deterministic, &a, &x, &mut y, &z).unwrap();
            assert_bits_eq(&y, &expected, &format!("{ctx} execute_dot"));
            assert_eq!(dot.to_bits(), expected_dot.to_bits(), "{ctx} dot value");

            let mut fast = vec![f64::NAN; n];
            plan.execute(Fast, &a, &x, &mut fast).unwrap();
            let mut fused = vec![f64::NAN; n];
            let fast_dot = plan.execute_dot(Fast, &a, &x, &mut fused, &z).unwrap();
            assert_bits_eq(&fused, &fast, &format!("{ctx} fast execute_dot vs execute"));
            for band in plan.bands() {
                let rows = band.rows.clone();
                match band.kind {
                    BandKind::Diagonal { .. }
                    | BandKind::Fixed { .. }
                    | BandKind::Ell { .. }
                    | BandKind::Sorted { .. } => {
                        assert_bits_eq(
                            &fast[rows.clone()],
                            &expected[rows],
                            &format!("{ctx} fast {:?} band", band.kind),
                        );
                    }
                    _ => {
                        for i in rows {
                            let tol = 4.0 * f64::EPSILON * magnitude[i];
                            assert!(
                                (fast[i] - expected[i]).abs() <= tol,
                                "{ctx} fast row {i}: {} vs {} (tol {tol})",
                                fast[i],
                                expected[i]
                            );
                        }
                    }
                }
            }
            let dot_scale: f64 = magnitude.iter().zip(&z).map(|(m, z)| m * z.abs()).sum();
            assert!(
                (fast_dot - expected_dot).abs() <= 1e-13 * (1.0 + dot_scale),
                "{ctx} fast dot {fast_dot} vs {expected_dot}"
            );
        }
    }
}
