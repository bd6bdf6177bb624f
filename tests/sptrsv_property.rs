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
//!   operand with a row whose diagonal is missing all match the loop.
//!
//! Runs 64 seeded random triangular patterns (sizes 4..100, densities
//! 5%..40%); each failure message carries the seed, so any counterexample
//! reproduces exactly.

use acamar::sparse::rng::DetRng;
use acamar::sparse::DeterminismPolicy::{Deterministic, Fast};
use acamar::sparse::{CompiledSptrsv, CooMatrix, CsrMatrix, Triangle};

/// Number of random triangular patterns to try.
const CASES: u64 = 64;

/// Random sparse lower-triangular matrix with a well-conditioned
/// diagonal; size and density are drawn from the seed.
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
        coo.push(i, i, 2.0 + rng.gen_f64()).unwrap();
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

/// Textbook substitution over `m`'s triangle: subtract the known terms
/// in stored order, divide by the diagonal. Entries on the other side of
/// the diagonal are not part of the system.
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
        x[i] = acc / diag;
    }
    x
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

            // The reference must actually solve m x = b before it can
            // serve as the bitwise oracle.
            let back = m.mul_vec(&reference).unwrap();
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
            // nothing depends on it: without its diagonal exactly one
            // unknown is not finite.
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
                assert_eq!(
                    reference.iter().filter(|v| !v.is_finite()).count(),
                    usize::from(what.starts_with("holed")),
                    "{ctx}: reference"
                );
                let mut x = vec![f64::NAN; n];
                plan.solve(Deterministic, m, &b, &mut x).unwrap();
                assert_eq!(bits(&x), bits(&reference), "{ctx}: deterministic");
                x.fill(f64::NAN);
                plan.solve(Fast, m, &b, &mut x).unwrap();
                for (i, (f, r)) in x.iter().zip(&reference).enumerate() {
                    let close = (f - r).abs() <= 1e-9 * (1.0 + r.abs());
                    assert!(
                        close || (!f.is_finite() && !r.is_finite()),
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
