//! Seeded property test for band patching: a `CompiledSpmv` patched from
//! a pattern delta must be **bitwise identical** to a from-scratch
//! compile of the evolved pattern — identical as a plan (same bands, same
//! slot packing) and identical in execution through both entry points.
//!
//! Patterns are drawn from every `RowDistribution` family (exercising
//! Fixed, ELL, unrolled-CSR, scalar, and dense-row bands), plans are
//! compiled both from the MSID schedule the fine-grained reconfiguration
//! unit actually produces and from hand-rolled hint tilings, and each
//! case drifts the pattern in a seeded handful of rows.

use acamar::core::{Acamar, AcamarConfig};
use acamar::fabric::FabricSpec;
use acamar::sparse::generate::{self, RowDistribution};
use acamar::sparse::rng::DetRng;
use acamar::sparse::DeterminismPolicy::Deterministic;
use acamar::sparse::{BandHint, CompiledSpmv, CsrMatrix, PatternDelta};

fn families(case: u64) -> RowDistribution {
    match case % 5 {
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
        // Heavy rows above `DENSE_ROW_MIN_NNZ`, so dense-row bands appear.
        3 => RowDistribution::Bimodal {
            low: 2,
            high: 160,
            high_fraction: 0.05,
        },
        _ => RowDistribution::PowerLaw {
            min: 1,
            max: 60,
            exponent: 1.8,
        },
    }
}

/// Drops the leading entry of each listed row (rows with a single entry
/// are left alone), changing the sparsity pattern in exactly the touched
/// rows while keeping the CSR sorted and valid.
fn drop_leading_entries(a: &CsrMatrix<f64>, rows: &[usize]) -> CsrMatrix<f64> {
    let mut row_ptr = Vec::with_capacity(a.nrows() + 1);
    row_ptr.push(0usize);
    let mut cols = Vec::new();
    let mut vals = Vec::new();
    for i in 0..a.nrows() {
        let (rc, rv) = a.row(i);
        let from = usize::from(rows.contains(&i) && rc.len() > 1);
        cols.extend_from_slice(&rc[from..]);
        vals.extend_from_slice(&rv[from..]);
        row_ptr.push(cols.len());
    }
    CsrMatrix::try_from_parts(a.nrows(), a.ncols(), row_ptr, cols, vals).unwrap()
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

/// Asserts `patched == scratch` as plans and as executors — the whole
/// walk (`execute`) and the band-at-a-time walk (`execute_dot`) — against
/// the generic CSR walk and a row-ascending dot as ground truth.
fn assert_patch_equivalence(
    patched: &CompiledSpmv,
    scratch: &CompiledSpmv,
    a: &CsrMatrix<f64>,
    seed: u64,
    ctx: &str,
) {
    assert_eq!(patched, scratch, "{ctx}: plans differ structurally");
    assert!(patched.verify_pattern(a), "{ctx}: patched plan mismatch");
    let mut rng = DetRng::seed_from_u64(seed ^ 0x5EED);
    let x: Vec<f64> = (0..a.ncols()).map(|_| rng.gen_range(-4.0..4.0)).collect();
    let z: Vec<f64> = (0..a.nrows()).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let expected = a.mul_vec(&x).unwrap();
    let expected_dot = expected.iter().zip(&z).fold(0.0, |s, (y, z)| s + y * z);
    for (plan, tag) in [(patched, "patched"), (scratch, "scratch")] {
        let mut y = vec![f64::NAN; a.nrows()];
        plan.execute(Deterministic, a, &x, &mut y).unwrap();
        assert_bits_eq(&y, &expected, &format!("{ctx} {tag} execute vs csr"));
        y.fill(f64::NAN);
        let dot = plan.execute_dot(Deterministic, a, &x, &mut y, &z).unwrap();
        assert_bits_eq(&y, &expected, &format!("{ctx} {tag} execute_dot vs csr"));
        assert_eq!(dot.to_bits(), expected_dot.to_bits(), "{ctx} {tag} dot");
    }
}

#[test]
fn patched_plan_is_bitwise_identical_to_scratch_compile() {
    let acamar = Acamar::new(FabricSpec::alveo_u55c(), AcamarConfig::paper());
    for case in 0..30u64 {
        let seed = 0x9A7C_0000 + case;
        let n = 192 + (case as usize * 29) % 200;
        let a0 = generate::random_pattern::<f64>(n, families(case), seed);
        let dirty: Vec<usize> = (0..1 + (case as usize % 5))
            .map(|j| (j * 97 + case as usize * 13) % n)
            .collect();
        let a1 = drop_leading_entries(&a0, &dirty);
        let delta = PatternDelta::between(&a0, &a1).expect("same shape");
        if delta.is_empty() {
            continue; // every chosen row was single-entry
        }

        // Plans compiled from the MSID schedule's hints...
        let hints = acamar.analyze(&a0).plan.schedule.band_hints();
        let base = CompiledSpmv::compile(&a0, &hints).unwrap();
        let patched = base.patch(&a1, &hints, &delta).unwrap();
        let scratch = CompiledSpmv::compile(&a1, &hints).unwrap();
        assert_patch_equivalence(&patched, &scratch, &a1, seed, &format!("case {case} msid"));

        // ...and from a hand-rolled three-way tiling with its own unrolls.
        let thirds = [0..n / 3, n / 3..2 * n / 3, 2 * n / 3..n];
        let hints: Vec<BandHint> = thirds
            .into_iter()
            .zip([1usize, 4, 8])
            .map(|(rows, unroll)| BandHint { rows, unroll })
            .collect();
        let base = CompiledSpmv::compile(&a0, &hints).unwrap();
        let patched = base.patch(&a1, &hints, &delta).unwrap();
        let scratch = CompiledSpmv::compile(&a1, &hints).unwrap();
        assert_patch_equivalence(
            &patched,
            &scratch,
            &a1,
            seed,
            &format!("case {case} thirds"),
        );
    }
}

#[test]
fn chained_patches_track_a_drifting_pattern() {
    let acamar = Acamar::new(FabricSpec::alveo_u55c(), AcamarConfig::paper());
    for case in 0..8u64 {
        let seed = 0xD21F_0000 + case;
        let n = 200 + (case as usize * 31) % 150;
        let mut a = generate::random_pattern::<f64>(n, families(case), seed);
        let hints = acamar.analyze(&a).plan.schedule.band_hints();
        let mut plan = CompiledSpmv::compile(&a, &hints).unwrap();
        // Drift for several steps, patching the previous *patched* plan
        // each time: patches must compose without drifting off the
        // scratch compile.
        for step in 0..5usize {
            let dirty: Vec<usize> = (0..2)
                .map(|j| (j * 89 + step * 41 + case as usize * 7) % n)
                .collect();
            let next = drop_leading_entries(&a, &dirty);
            let delta = PatternDelta::between(&a, &next).expect("same shape");
            if delta.is_empty() {
                a = next;
                continue;
            }
            let patched = plan.patch(&next, &hints, &delta).unwrap();
            let scratch = CompiledSpmv::compile(&next, &hints).unwrap();
            assert_patch_equivalence(
                &patched,
                &scratch,
                &next,
                seed + step as u64,
                &format!("case {case} step {step}"),
            );
            plan = patched;
            a = next;
        }
    }
}
