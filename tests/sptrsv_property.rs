//! Property test for the SpTRSV kernel (DESIGN §7), against arithmetic
//! and graph walks written here rather than taken from the plan:
//!
//! * the level-ordered `solve(Deterministic)` is **bitwise identical** to
//!   a plain natural-order substitution loop, lower and upper, f64 and
//!   f32 — every row does the loop's operations in its order, and reads
//!   only unknowns of earlier levels;
//! * `solve(Fast)` is bitwise a four-lane row fold written here: the walk
//!   re-associates within a row and nowhere else;
//! * `level_count` is the longest dependency chain of the triangle, and
//!   the walk's order is by level, ties by row index;
//! * both hold for the IC(0) factors the preconditioner walks, on the 64
//!   seeded patterns, the four stencil grids, the 17 SPD Table II analogs
//!   and eight `spd_from_pattern` systems — and the plan compiled from the
//!   full SPD matrix is the factor's own;
//! * an operand of another shape or entry count, or a matrix of another
//!   pattern laid out against the plan, is a typed `SparseError` that
//!   leaves `x` alone — never a wrong answer;
//! * a triangular operand and the full symmetric matrix lay out to the
//!   same substitution, and a row whose diagonal is missing is refused
//!   before anything is solved;
//! * the IC(0) apply built on it (`Ic0::apply`, reciprocal pivots in the
//!   diagonal slots) solves `L·Lᵀ z = r` for `L` rebuilt from the stored
//!   form, and agrees with a divide-based substitution entry by entry —
//!   on the same systems, in f64 and f32, within bounds stated beside the
//!   test.
//!
//! Runs 64 seeded random triangular patterns (sizes 4..100, densities
//! 5%..40%); each failure message carries the seed, so any counterexample
//! reproduces exactly.

use acamar::datasets::{suite, StructuralClass};
use acamar::solvers::{Ic0, SoftwareKernels};
use acamar::sparse::generate::{self, RowDistribution};
use acamar::sparse::rng::DetRng;
use acamar::sparse::DeterminismPolicy::{Deterministic, Fast};
use acamar::sparse::{
    CompiledSptrsv, CooMatrix, CsrMatrix, DeterminismPolicy, LevelOrdered, Scalar, SparseError,
    Triangle,
};

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

/// Rows in the order a natural substitution visits them.
fn substitution_order(n: usize, tri: Triangle) -> Vec<usize> {
    match tri {
        Triangle::Lower => (0..n).collect(),
        Triangle::Upper => (0..n).rev().collect(),
    }
}

/// Row `i`'s off-diagonal in-triangle `(column, value)` pairs in stored
/// order, and its diagonal slot (`1 / t_ii`).
fn triangle_row<T: Scalar>(m: &CsrMatrix<T>, i: usize, tri: Triangle) -> (Vec<(usize, T)>, T) {
    let (cols, vals) = m.row(i);
    let mut diag = None;
    let mut deps = Vec::new();
    for (&c, &v) in cols.iter().zip(vals) {
        let inside = match tri {
            Triangle::Lower => c <= i,
            Triangle::Upper => c >= i,
        };
        if c == i {
            diag = Some(v);
        } else if inside {
            deps.push((c, v));
        }
    }
    (deps, diag.expect("every row stores its diagonal"))
}

/// Textbook substitution over `m`'s triangle in reciprocal-pivot form,
/// rows in natural order: subtract the known terms in stored order,
/// multiply by the diagonal slot (`1 / t_ii`). Entries on the other side
/// of the diagonal are not part of the system.
fn substitute<T: Scalar>(m: &CsrMatrix<T>, b: &[T], tri: Triangle) -> Vec<T> {
    let mut x = vec![T::ZERO; b.len()];
    for i in substitution_order(b.len(), tri) {
        let (deps, diag) = triangle_row(m, i, tri);
        let acc = deps.iter().fold(b[i], |acc, &(c, v)| acc - v * x[c]);
        x[i] = acc * diag;
    }
    x
}

/// The fast tier's row, written out: the products in stored order, four
/// at a time into four lanes (the last group padded with zeros), the
/// lanes summed `(l0 + l1) + (l2 + l3)` and taken from `b_i` once, then
/// the multiply by the diagonal slot.
fn substitute_in_lanes<T: Scalar>(m: &CsrMatrix<T>, b: &[T], tri: Triangle) -> Vec<T> {
    let mut x = vec![T::ZERO; b.len()];
    for i in substitution_order(b.len(), tri) {
        let (deps, diag) = triangle_row(m, i, tri);
        let mut lanes = [T::ZERO; 4];
        for group in deps.chunks(4) {
            for (k, lane) in lanes.iter_mut().enumerate() {
                *lane += group.get(k).map_or(T::ZERO, |&(c, v)| v * x[c]);
            }
        }
        x[i] = (b[i] - ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))) * diag;
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

/// Each row's level in a triangular `m`, by peeling: each round retires
/// every row all of whose off-diagonal columns are already retired; a
/// row's level is the round that retires it, and the number of rounds is
/// the longest dependency chain.
fn peeled_levels(m: &CsrMatrix<f64>) -> Vec<usize> {
    let n = m.nrows();
    let mut level = vec![usize::MAX; n];
    let mut left = n;
    let mut round = 0;
    while left > 0 {
        let ready: Vec<usize> = (0..n)
            .filter(|&i| {
                let done = |c: usize| c == i || level[c] < round;
                level[i] == usize::MAX && m.row(i).0.iter().all(|&c| done(c))
            })
            .collect();
        assert!(!ready.is_empty(), "dependency cycle");
        for i in ready {
            level[i] = round;
            left -= 1;
        }
        round += 1;
    }
    level
}

fn bits<T: Scalar>(v: &[T]) -> Vec<u64> {
    v.iter().map(|x| x.to_f64().to_bits()).collect()
}

fn plan_of<T: Scalar>(m: &CsrMatrix<T>, tri: Triangle) -> Result<CompiledSptrsv, SparseError> {
    match tri {
        Triangle::Lower => CompiledSptrsv::compile_lower(m),
        Triangle::Upper => CompiledSptrsv::compile_upper(m),
    }
}

/// `plan`'s solve of `laid` on both tiers against the natural loop and
/// the lane fold over `m`, the same triangle in natural CSR form.
fn check_walk<T: Scalar>(
    plan: &CompiledSptrsv,
    laid: &LevelOrdered<T>,
    m: &CsrMatrix<T>,
    rng: &mut DetRng,
    ctx: &str,
) {
    let tri = plan.triangle();
    let b: Vec<T> = (0..m.nrows())
        .map(|_| T::from_f64(rng.gen_f64() * 4.0 - 2.0))
        .collect();
    for policy in [Deterministic, Fast] {
        let mut x = vec![T::from_f64(f64::NAN); m.nrows()];
        plan.solve(policy, laid, &b, &mut x)
            .unwrap_or_else(|e| panic!("{ctx}: {policy} solve failed: {e}"));
        let want = match policy {
            Deterministic => substitute(m, &b, tri),
            Fast => substitute_in_lanes(m, &b, tri),
        };
        assert_eq!(bits(&x), bits(&want), "{ctx}: {policy}");
    }
}

#[test]
fn solve_is_plain_substitution_and_levels_are_the_longest_chain() {
    for seed in 0..CASES {
        let mut rng = DetRng::seed_from_u64(0x5197_0000 + seed);
        let l = random_lower(&mut rng);
        let n = l.nrows();
        let u = l.transpose();

        for (m, tri) in [(&l, Triangle::Lower), (&u, Triangle::Upper)] {
            let ctx = format!("seed {seed} {}", tri.label());
            let plan = plan_of(m, tri).unwrap_or_else(|e| panic!("{ctx}: compile failed: {e}"));
            let b: Vec<f64> = (0..n).map(|_| rng.gen_f64() * 4.0 - 2.0).collect();
            // The natural loop must actually solve the triangle before it
            // can serve as the bitwise oracle.
            let reference = substitute(m, &b, tri);
            let back = with_pivots(m).mul_vec(&reference).unwrap();
            for (i, (bi, ri)) in b.iter().zip(&back).enumerate() {
                assert!(
                    (bi - ri).abs() < 1e-9 * (1.0 + bi.abs()),
                    "{ctx}: reference residual at row {i}: {bi} vs {ri}"
                );
            }

            let laid = plan.layout(m).unwrap();
            assert_eq!(&plan.to_csr(&laid).unwrap(), m, "{ctx}: layout round trip");
            check_walk(&plan, &laid, m, &mut rng, &format!("{ctx} f64"));
            let narrow = m.cast::<f32>();
            let laid = plan.layout(&narrow).unwrap();
            check_walk(&plan, &laid, &narrow, &mut rng, &format!("{ctx} f32"));

            let level = peeled_levels(m);
            assert_eq!(
                plan.level_count(),
                level.iter().max().unwrap() + 1,
                "{ctx}: level count"
            );
            let order: Vec<usize> = plan.order().iter().map(|&i| i as usize).collect();
            let mut by_level: Vec<usize> = (0..n).collect();
            by_level.sort_by_key(|&i| (level[i], i));
            assert_eq!(order, by_level, "{ctx}: walk order");
            assert_eq!(plan.nrows(), n);
            assert_eq!(plan.tri_nnz(), m.nnz());
        }
    }
}

/// The SPD systems the IC(0) suites run: an SPD matrix on each of the 64
/// seeded patterns, the four stencil grids and the 17 SPD Table II
/// analogs.
fn spd_systems() -> Vec<(String, CsrMatrix<f64>)> {
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
    systems
}

/// `a`'s IC(0) factors walked level by level against the natural loop
/// and the lane fold over the same factors in natural form, on plans
/// compiled from `a` itself.
fn check_factor_walk<T: Scalar>(a: &CsrMatrix<T>, rng: &mut DetRng, what: &str) {
    let ic = Ic0::factor(a).unwrap_or_else(|e| panic!("{what}: {e}"));
    let (lower, upper) = ic.plans();
    let from_a = (
        CompiledSptrsv::compile_lower(a).unwrap(),
        CompiledSptrsv::compile_upper(a).unwrap(),
    );
    assert_eq!((lower, upper), (&from_a.0, &from_a.1), "{what}: plans");
    let factors = [(&from_a.0, ic.lower()), (&from_a.1, ic.upper())];
    for (plan, laid) in factors {
        let natural = plan.to_csr(laid).unwrap();
        let ctx = format!("{what} {}", plan.triangle().label());
        check_walk(plan, laid, &natural, rng, &ctx);
    }
}

#[test]
fn ic0_factors_walk_level_by_level_bitwise_on_the_plans_of_their_matrices() {
    let mut systems = spd_systems();
    let mut rng = DetRng::seed_from_u64(0x1e7e_1000);
    systems.extend((0..8).map(|i| {
        let a = generate::spd_from_pattern(
            3000,
            RowDistribution::Uniform { min: 2, max: 8 },
            0.3,
            rng.next_u64(),
        );
        (format!("spd-3000 #{i}"), a)
    }));
    for (what, a) in &systems {
        check_factor_walk(a, &mut rng, &format!("{what} f64"));
        check_factor_walk(&a.cast::<f32>(), &mut rng, &format!("{what} f32"));
    }
}

/// `m` without the entry `(row, col)`.
fn without(m: &CsrMatrix<f64>, row: usize, col: usize) -> CsrMatrix<f64> {
    let mut coo = CooMatrix::new(m.nrows(), m.ncols());
    for (i, cols, vals) in m.iter_rows() {
        for (&c, &v) in cols.iter().zip(vals) {
            if (i, c) != (row, col) {
                coo.push(i, c, v).unwrap();
            }
        }
    }
    coo.to_csr()
}

/// `plan.solve` of `laid` must fail with `want` and leave `x` as it was.
fn assert_refused(plan: &CompiledSptrsv, laid: &LevelOrdered<f64>, want: &SparseError, ctx: &str) {
    let b = vec![1.0; plan.nrows()];
    for policy in DeterminismPolicy::ALL {
        let mut x = vec![7.0; plan.nrows()];
        let got = plan.solve(policy, laid, &b, &mut x);
        assert_eq!(got.as_ref().err(), Some(want), "{ctx}: {policy}");
        assert!(x.iter().all(|&v| v == 7.0), "{ctx}: {policy}: x written");
    }
}

#[test]
fn an_operand_of_another_shape_or_entry_count_is_a_typed_error() {
    for seed in 0..16u64 {
        let mut rng = DetRng::seed_from_u64(0x07E4_0000 + seed);
        let compiled_for = random_lower(&mut rng);
        let n = compiled_for.nrows();
        let plan = CompiledSptrsv::compile_lower(&compiled_for).unwrap();
        let ctx = format!("seed {seed}");

        // One entry fewer: its own layout has another entry count, and
        // laid out against the plan it is another pattern.
        let (row, cols, _) = compiled_for
            .iter_rows()
            .find(|(i, cols, _)| cols[0] < *i)
            .unwrap();
        let thinner = without(&compiled_for, row, cols[0]);
        let own = CompiledSptrsv::compile_lower(&thinner).unwrap();
        let laid = own.layout(&thinner).unwrap();
        let want = SparseError::DimensionMismatch {
            expected: plan.tri_nnz(),
            found: plan.tri_nnz() - 1,
            what: "operand entries",
        };
        assert_refused(&plan, &laid, &want, &format!("{ctx}: thinner"));
        assert!(
            matches!(plan.layout(&thinner), Err(SparseError::InvalidStructure(_))),
            "{ctx}: thinner laid out against the plan"
        );

        // Another pattern of the same size, whatever its entry count.
        let other = random_lower_of(&mut rng, n);
        assert!(
            matches!(plan.layout(&other), Err(SparseError::InvalidStructure(_))),
            "{ctx}: another pattern laid out against the plan"
        );

        // Another size.
        let bigger = random_lower_of(&mut rng, n + 1);
        let own = CompiledSptrsv::compile_lower(&bigger).unwrap();
        let want = SparseError::DimensionMismatch {
            expected: n,
            found: n + 1,
            what: "operand rows",
        };
        assert_refused(&plan, &own.layout(&bigger).unwrap(), &want, &ctx);
        let want = SparseError::DimensionMismatch {
            expected: n,
            found: n + 1,
            what: "matrix rows",
        };
        assert_eq!(plan.layout(&bigger).err(), Some(want), "{ctx}");

        // And the vectors.
        let laid = plan.layout(&compiled_for).unwrap();
        let mut x = vec![0.0; n];
        let short = plan.solve(Deterministic, &laid, &vec![1.0; n - 1], &mut x);
        assert!(
            matches!(
                short,
                Err(SparseError::DimensionMismatch {
                    what: "right-hand side length",
                    ..
                })
            ),
            "{ctx}"
        );
        let long = plan.solve(Fast, &laid, &vec![1.0; n], &mut vec![0.0; n + 1]);
        assert!(
            matches!(
                long,
                Err(SparseError::DimensionMismatch {
                    what: "solution length",
                    ..
                })
            ),
            "{ctx}"
        );
    }
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

        for (triangular, tri) in [(&l, Triangle::Lower), (&u, Triangle::Upper)] {
            let plan = plan_of(&full, tri).unwrap();
            assert_eq!(plan, plan_of(triangular, tri).unwrap(), "seed {seed}");
            for (what, m) in [("triangular", triangular), ("full", &full)] {
                let ctx = format!("seed {seed} {} {what}", tri.label());
                let laid = plan.layout(m).unwrap();
                check_walk(&plan, &laid, m, &mut rng, &ctx);
            }
            // The full operand's triangle is the triangular operand's
            // pattern, with values of its own in the upper half.
            if tri == Triangle::Lower {
                let laid = (plan.layout(&full).unwrap(), plan.layout(&l).unwrap());
                assert_eq!(laid.0, laid.1, "seed {seed}");
            }
            // The row natural substitution visits last: without its
            // diagonal there is no pivot to read, and neither compiling
            // nor laying out gets as far as a solve.
            let last = *substitution_order(n, tri).last().unwrap();
            for (what, m) in [("triangular", triangular), ("full", &full)] {
                let ctx = format!("seed {seed} {} holed {what}", tri.label());
                let holed = without(m, last, last);
                let want = SparseError::ZeroDiagonal { row: last };
                assert_eq!(plan_of(&holed, tri).err(), Some(want.clone()), "{ctx}");
                assert_eq!(plan.layout(&holed).err(), Some(want), "{ctx}");
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
    let (lower_plan, upper_plan) = ic.plans();
    let (lower, upper) = (
        lower_plan.to_csr(ic.lower()).unwrap(),
        upper_plan.to_csr(ic.upper()).unwrap(),
    );
    let n = a.nrows();
    let mut rng = DetRng::seed_from_u64(0xA991_0000 ^ a.nnz() as u64);
    let r: Vec<T> = (0..n)
        .map(|_| T::from_f64(rng.gen_f64() * 2.0 - 1.0))
        .collect();
    let (mut tmp, mut z) = (vec![T::ZERO; n], vec![T::ZERO; n]);
    let mut kernels = SoftwareKernels::new();
    ic.apply(&mut kernels, &r, &mut tmp, &mut z);
    let eps = T::epsilon().to_f64();

    // L·Lᵀ·z in f64, L's pivots rebuilt from the reciprocal slots.
    let l: Vec<(usize, usize, f64)> = lower
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
    for (i, cols, vals) in lower.iter_rows() {
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
        let (cols, vals) = upper.row(i);
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
    for (what, a) in &spd_systems() {
        check_apply(a, &format!("{what} f64"));
        check_apply(&a.cast::<f32>(), &format!("{what} f32"));
    }
}
