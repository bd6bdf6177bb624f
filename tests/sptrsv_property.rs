//! Property test for the SpTRSV kernel (DESIGN §17), against arithmetic
//! and graph walks written here rather than taken from the plan:
//!
//! * `solve(Deterministic)` is **bitwise identical** to a plain
//!   substitution loop, lower and upper;
//! * `solve(Fast)` stays within `1e-9 · (1 + |x|)` of it;
//! * `level_count` is the longest dependency chain of the triangle;
//! * a plan compiled for one pattern, applied to a same-size factor of
//!   another pattern, still returns that factor's substitution result —
//!   the plan prices a solve, it does not order it;
//! * the row kernel's shortcut for rows that end on their diagonal changes
//!   nothing: a triangular operand (every row takes it), the full
//!   symmetric matrix (no row with an entry past the diagonal does) and an
//!   operand with a row whose diagonal is missing all match the loop;
//! * the IC(0) apply built on it (`Ic0::apply`, reciprocal pivots in the
//!   diagonal slots) solves `L·Lᵀ z = r` for `L` rebuilt from the stored
//!   form, and agrees with a divide-based substitution entry by entry —
//!   on SPD matrices over the same 64 patterns, the four stencil grids and
//!   the 17 SPD Table II analogs, in f64 and f32, within bounds stated
//!   beside the test.
//!
//! Runs 64 seeded random triangular patterns (sizes 4..100, densities
//! 5%..40%); each failure message carries the seed, so any counterexample
//! reproduces exactly.

use acamar::datasets::{suite, StructuralClass};
use acamar::solvers::{Ic0, SoftwareKernels};
use acamar::sparse::rng::DetRng;
use acamar::sparse::DeterminismPolicy::{Deterministic, Fast};
use acamar::sparse::{generate, CompiledSptrsv, CooMatrix, CsrMatrix, Scalar, Triangle};

/// Number of random triangular patterns to try.
const CASES: u64 = 64;

/// Random sparse lower-triangular matrix with well-conditioned pivots in
/// 2..3, stored as their reciprocals; size and density are drawn from the
/// seed.
fn random_lower(rng: &mut DetRng) -> CsrMatrix<f64> {
    let n = rng.gen_range(4..100usize);
    random_lower_of(rng, n)
}

fn random_lower_of(rng: &mut DetRng, n: usize) -> CsrMatrix<f64> {
    let density = 0.05 + rng.gen_f64() * 0.35;
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        for j in 0..i {
            if rng.gen_bool(density) {
                coo.push(i, j, rng.gen_f64() * 2.0 - 1.0).unwrap();
            }
        }
        coo.push(i, i, 1.0 / (2.0 + rng.gen_f64())).unwrap();
    }
    coo.to_csr()
}

/// Rows in the order substitution must visit them.
fn substitution_order(n: usize, tri: Triangle) -> Vec<usize> {
    match tri {
        Triangle::Lower => (0..n).collect(),
        Triangle::Upper => (0..n).rev().collect(),
    }
}

/// Textbook substitution over `m`'s triangle in reciprocal-pivot form:
/// subtract the known terms in stored order, multiply by the diagonal
/// slot (`1 / t_ii`; a row without one reads 0 there and solves to 0).
/// Entries on the other side of the diagonal are not part of the system.
fn substitute(m: &CsrMatrix<f64>, b: &[f64], tri: Triangle) -> Vec<f64> {
    let mut x = vec![0.0; b.len()];
    for i in substitution_order(b.len(), tri) {
        let (cols, vals) = m.row(i);
        let mut acc = b[i];
        let mut diag = 0.0;
        for (&c, &v) in cols.iter().zip(vals) {
            let outside = match tri {
                Triangle::Lower => c > i,
                Triangle::Upper => c < i,
            };
            if outside {
                continue;
            }
            if c == i {
                diag = v;
            } else {
                acc -= v * x[c];
            }
        }
        x[i] = acc * diag;
    }
    x
}

/// `m` with each diagonal slot `d` replaced by `1 / d`: the triangle a
/// substitution against `m` inverts.
fn with_pivots(m: &CsrMatrix<f64>) -> CsrMatrix<f64> {
    let mut t = m.clone();
    let row_of: Vec<usize> = (0..m.nrows())
        .flat_map(|i| std::iter::repeat(i).take(m.row_nnz(i)))
        .collect();
    let entries = t.values_mut().iter_mut().zip(m.col_idx()).zip(&row_of);
    for ((v, &c), &i) in entries {
        if c == i {
            *v = 1.0 / *v;
        }
    }
    t
}

/// Longest dependency chain of a triangular `m`, by peeling: each round
/// retires every row all of whose off-diagonal columns are already
/// retired; the number of rounds is the chain length.
fn longest_chain(m: &CsrMatrix<f64>) -> usize {
    let n = m.nrows();
    let mut retired = vec![false; n];
    let mut left = n;
    let mut rounds = 0;
    while left > 0 {
        let ready: Vec<usize> = (0..n)
            .filter(|&i| !retired[i] && m.row(i).0.iter().all(|&c| c == i || retired[c]))
            .collect();
        assert!(!ready.is_empty(), "dependency cycle");
        for i in ready {
            retired[i] = true;
            left -= 1;
        }
        rounds += 1;
    }
    rounds
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn solve_is_plain_substitution_and_levels_are_the_longest_chain() {
    for seed in 0..CASES {
        let mut rng = DetRng::seed_from_u64(0x5197_0000 + seed);
        let l = random_lower(&mut rng);
        let n = l.nrows();
        let b: Vec<f64> = (0..n).map(|_| rng.gen_f64() * 4.0 - 2.0).collect();
        let u = l.transpose();

        for (m, tri) in [(&l, Triangle::Lower), (&u, Triangle::Upper)] {
            let ctx = format!("seed {seed} {}", tri.label());
            let plan = match tri {
                Triangle::Lower => CompiledSptrsv::compile_lower(m),
                Triangle::Upper => CompiledSptrsv::compile_upper(m),
            }
            .unwrap_or_else(|e| panic!("{ctx}: compile failed: {e}"));
            let reference = substitute(m, &b, tri);

            // The reference must actually solve the triangle before it
            // can serve as the bitwise oracle.
            let back = with_pivots(m).mul_vec(&reference).unwrap();
            for (i, (bi, ri)) in b.iter().zip(&back).enumerate() {
                assert!(
                    (bi - ri).abs() < 1e-9 * (1.0 + bi.abs()),
                    "{ctx}: reference residual at row {i}: {bi} vs {ri}"
                );
            }

            let mut x = vec![f64::NAN; n];
            plan.solve(Deterministic, m, &b, &mut x)
                .unwrap_or_else(|e| panic!("{ctx}: solve failed: {e}"));
            assert_eq!(bits(&x), bits(&reference), "{ctx}: deterministic solve");

            x.fill(f64::NAN);
            plan.solve(Fast, m, &b, &mut x)
                .unwrap_or_else(|e| panic!("{ctx}: fast solve failed: {e}"));
            for (i, (f, r)) in x.iter().zip(&reference).enumerate() {
                assert!(
                    (f - r).abs() <= 1e-9 * (1.0 + r.abs()),
                    "{ctx}: fast solve row {i}: {f} vs {r}"
                );
            }

            assert_eq!(plan.level_count(), longest_chain(m), "{ctx}: level count");
            assert_eq!(plan.nrows(), n);
            assert_eq!(plan.tri_nnz(), m.nnz());
        }
    }
}

#[test]
fn a_plan_for_another_pattern_still_solves_the_factor_it_is_given() {
    for seed in 0..16u64 {
        let mut rng = DetRng::seed_from_u64(0x07E4_0000 + seed);
        let compiled_for = random_lower(&mut rng);
        let n = compiled_for.nrows();
        let given = random_lower_of(&mut rng, n);
        let plan = CompiledSptrsv::compile_lower(&compiled_for).unwrap();
        assert!(plan.matches(&given));
        assert!(
            (compiled_for.row_ptr(), compiled_for.col_idx()) != (given.row_ptr(), given.col_idx()),
            "seed {seed}: the two patterns agree"
        );

        let b: Vec<f64> = (0..n).map(|_| rng.gen_f64() * 4.0 - 2.0).collect();
        let reference = substitute(&given, &b, Triangle::Lower);
        let mut x = vec![f64::NAN; n];
        plan.solve(Deterministic, &given, &b, &mut x).unwrap();
        assert_eq!(bits(&x), bits(&reference), "seed {seed}: deterministic");
        x.fill(f64::NAN);
        plan.solve(Fast, &given, &b, &mut x).unwrap();
        for (f, r) in x.iter().zip(&reference) {
            assert!((f - r).abs() <= 1e-9 * (1.0 + r.abs()), "seed {seed}: fast");
        }
    }
}

/// `m` without the entry `(row, row)`.
fn without_diagonal_of(m: &CsrMatrix<f64>, row: usize) -> CsrMatrix<f64> {
    let mut coo = CooMatrix::new(m.nrows(), m.ncols());
    for (i, cols, vals) in m.iter_rows() {
        for (&c, &v) in cols.iter().zip(vals) {
            if (i, c) != (row, row) {
                coo.push(i, c, v).unwrap();
            }
        }
    }
    coo.to_csr()
}

#[test]
fn rows_that_end_on_their_diagonal_and_rows_that_do_not_are_one_substitution() {
    for seed in 0..CASES {
        let mut rng = DetRng::seed_from_u64(0xD1A6_0000 + seed);
        let l = random_lower(&mut rng);
        let n = l.nrows();
        let u = l.transpose();
        // L + Lᵀ with the diagonal once, upper values their own.
        let mut full = CooMatrix::new(n, n);
        for (i, cols, vals) in l.iter_rows() {
            for (&c, &v) in cols.iter().zip(vals) {
                full.push(i, c, v).unwrap();
                if c != i {
                    full.push(c, i, v * 0.5 - 0.125).unwrap();
                }
            }
        }
        let full = full.to_csr();
        let b: Vec<f64> = (0..n).map(|_| rng.gen_f64() * 4.0 - 2.0).collect();

        for (triangular, tri) in [(&l, Triangle::Lower), (&u, Triangle::Upper)] {
            let plan = match tri {
                Triangle::Lower => CompiledSptrsv::compile_lower(&full),
                Triangle::Upper => CompiledSptrsv::compile_upper(&full),
            }
            .unwrap();
            // The row substitution visits last depends on every other and
            // nothing depends on it: without its diagonal it reads a zero
            // slot — an infinite pivot — and that unknown alone is 0.
            let last = *substitution_order(n, tri).last().unwrap();
            let operands = [
                ("triangular", triangular.clone()),
                ("full", full.clone()),
                ("holed triangular", without_diagonal_of(triangular, last)),
                ("holed full", without_diagonal_of(&full, last)),
            ];
            for (what, m) in &operands {
                let ctx = format!("seed {seed} {} {what}", tri.label());
                let reference = substitute(m, &b, tri);
                assert!(reference.iter().all(|v| v.is_finite()), "{ctx}");
                assert_eq!(
                    reference[last] == 0.0,
                    what.starts_with("holed"),
                    "{ctx}: reference"
                );
                let mut x = vec![f64::NAN; n];
                plan.solve(Deterministic, m, &b, &mut x).unwrap();
                assert_eq!(bits(&x), bits(&reference), "{ctx}: deterministic");
                x.fill(f64::NAN);
                plan.solve(Fast, m, &b, &mut x).unwrap();
                for (i, (f, r)) in x.iter().zip(&reference).enumerate() {
                    assert!(
                        (f - r).abs() <= 1e-9 * (1.0 + r.abs()),
                        "{ctx}: fast row {i}: {f} vs {r}"
                    );
                }
            }
            // The full operand's triangle is the triangular operand's
            // pattern, with values of its own in the upper half.
            if tri == Triangle::Lower {
                let mut x = vec![f64::NAN; n];
                plan.solve(Deterministic, &full, &b, &mut x).unwrap();
                assert_eq!(bits(&x), bits(&substitute(&l, &b, tri)), "seed {seed}");
            }
        }
    }
}

/// An SPD matrix on the symmetric closure of `l`'s pattern: `l`'s
/// strictly-lower values mirrored, and each diagonal one past its row's
/// absolute off-diagonal sum — strictly dominant, so IC(0) exists.
fn spd_on(l: &CsrMatrix<f64>) -> CsrMatrix<f64> {
    let n = l.nrows();
    let mut coo = CooMatrix::new(n, n);
    let mut radius = vec![0.0_f64; n];
    for (i, cols, vals) in l.iter_rows() {
        for (&c, &v) in cols.iter().zip(vals) {
            if c < i {
                coo.push(i, c, v).unwrap();
                coo.push(c, i, v).unwrap();
                radius[i] += v.abs();
                radius[c] += v.abs();
            }
        }
    }
    for (i, r) in radius.into_iter().enumerate() {
        coo.push(i, i, 1.0 + r).unwrap();
    }
    coo.to_csr()
}

/// `‖L·Lᵀ·z − r‖₂ ≤ RESIDUAL_C · n · ε · ‖r‖₂`: each substitution is
/// backward stable row by row, so the reconstruction misses `r` by a few
/// roundings per row at most; `n` covers the longest chain.
const RESIDUAL_C: f64 = 4.0;

/// `|z_i − z_ref_i| ≤ ENTRY_ULPS · ε · ‖z_ref‖_∞`. Per row the two forms
/// differ in the last operation only — `acc · (1/l_ii)` against
/// `acc / l_ii` with `l_ii` rebuilt as `1 / (1/l_ii)` — three roundings,
/// 1.5 ulps; two passes, and at most as much again carried into later
/// rows. The scale is the vector's, not the entry's: an entry near a sign
/// change keeps the absolute error of the larger terms it cancelled.
const ENTRY_ULPS: f64 = 8.0;

fn norm2(v: impl Iterator<Item = f64>) -> f64 {
    v.map(|x| x * x).sum::<f64>().sqrt()
}

/// `Ic0::apply`'s `z` for `r`, against two oracles that share nothing
/// with the kernel: `L` rebuilt from the stored form (pivot = 1 / slot)
/// must map `z` back onto `r`, and a divide-based substitution over the
/// rebuilt pivots must reproduce `z` entry by entry.
fn check_apply<T: Scalar>(a: &CsrMatrix<T>, what: &str) {
    let ic = Ic0::factor(a).unwrap_or_else(|e| panic!("{what}: {e}"));
    let (lower_plan, upper_plan) = ic.plans().unwrap();
    let n = a.nrows();
    let mut rng = DetRng::seed_from_u64(0xA991_0000 ^ a.nnz() as u64);
    let r: Vec<T> = (0..n)
        .map(|_| T::from_f64(rng.gen_f64() * 2.0 - 1.0))
        .collect();
    let (mut tmp, mut z) = (vec![T::ZERO; n], vec![T::ZERO; n]);
    let mut kernels = SoftwareKernels::new();
    ic.apply(&mut kernels, &lower_plan, &upper_plan, &r, &mut tmp, &mut z);
    let eps = T::epsilon().to_f64();

    // L·Lᵀ·z in f64, L's pivots rebuilt from the reciprocal slots.
    let l: Vec<(usize, usize, f64)> = ic
        .lower()
        .iter_rows()
        .flat_map(|(i, cols, vals)| {
            cols.iter().zip(vals).map(move |(&c, &v)| {
                let v = v.to_f64();
                (i, c, if c == i { 1.0 / v } else { v })
            })
        })
        .collect();
    let mut lt_z = vec![0.0; n];
    for &(i, c, v) in &l {
        lt_z[c] += v * z[i].to_f64();
    }
    let mut back = vec![0.0; n];
    for &(i, c, v) in &l {
        back[i] += v * lt_z[c];
    }
    let miss = norm2(back.iter().zip(&r).map(|(b, r)| b - r.to_f64()));
    let r_norm = norm2(r.iter().map(|v| v.to_f64()));
    assert!(
        miss <= RESIDUAL_C * n as f64 * eps * r_norm,
        "{what}: ‖L·Lᵀ·z − r‖ = {miss:e} against ‖r‖ = {r_norm:e}"
    );

    // Divide-based substitution in T over the rebuilt pivots, each row in
    // the factor's stored order.
    let pivot = |slot: T| T::ONE / slot;
    let mut t = vec![T::ZERO; n];
    for (i, cols, vals) in ic.lower().iter_rows() {
        let (&slot, vals) = vals.split_last().unwrap();
        assert_eq!(cols.last(), Some(&i), "{what}: L row {i}");
        let acc = cols
            .iter()
            .zip(vals)
            .fold(r[i], |acc, (&c, &v)| acc - v * t[c]);
        t[i] = acc / pivot(slot);
    }
    let mut z_ref = vec![T::ZERO; n];
    for i in (0..n).rev() {
        let (cols, vals) = ic.upper().row(i);
        let (&slot, vals) = vals.split_first().unwrap();
        assert_eq!(cols.first(), Some(&i), "{what}: Lᵀ row {i}");
        let acc = cols[1..]
            .iter()
            .zip(vals)
            .fold(t[i], |acc, (&c, &v)| acc - v * z_ref[c]);
        z_ref[i] = acc / pivot(slot);
    }
    let scale = z_ref.iter().fold(0.0_f64, |m, v| m.max(v.to_f64().abs()));
    for (i, (got, want)) in z.iter().zip(&z_ref).enumerate() {
        let (got, want) = (got.to_f64(), want.to_f64());
        assert!(
            (got - want).abs() <= ENTRY_ULPS * eps * scale,
            "{what}: z[{i}] = {got:e}, divide-based {want:e}, ‖z‖∞ = {scale:e}"
        );
    }
}

#[test]
fn the_apply_solves_l_lt_and_agrees_with_a_divide_based_substitution() {
    let mut systems: Vec<(String, CsrMatrix<f64>)> = (0..CASES)
        .map(|seed| {
            let mut rng = DetRng::seed_from_u64(0x5197_0000 + seed);
            (format!("seed {seed}"), spd_on(&random_lower(&mut rng)))
        })
        .collect();
    systems.extend([
        ("poisson2d-128".into(), generate::poisson2d(128, 128)),
        ("poisson3d-32".into(), generate::poisson3d(32, 32, 32)),
        (
            "anisotropic-40".into(),
            generate::anisotropic_poisson2d(40, 40, 1.0, 0.05),
        ),
        ("jump-64".into(), generate::jump_poisson2d(64, 64, 1e3)),
    ]);
    let spd = suite().into_iter().filter(|d| {
        matches!(
            d.class,
            StructuralClass::DominantSpd { .. }
                | StructuralClass::JacobiDivergentSpd { .. }
                | StructuralClass::IllConditionedSpd { .. }
                | StructuralClass::Poisson3d { .. }
                | StructuralClass::ShiftedGridLaplacian { .. }
        )
    });
    let before = systems.len();
    systems.extend(spd.map(|d| (format!("table2-{}", d.id), d.matrix_f64())));
    assert_eq!(systems.len() - before, 17, "the SPD Table II analogs");
    for (what, a) in &systems {
        check_apply(a, &format!("{what} f64"));
        check_apply(&a.cast::<f32>(), &format!("{what} f32"));
    }
}
