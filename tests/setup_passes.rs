//! The per-matrix set-up passes against what they replaced.
//!
//! `CsrMatrix::off_diagonal_scaled` builds Jacobi's `T = D⁻¹(L + U)` in
//! one sweep; it must be bit for bit the matrix the `CooMatrix` round
//! trip built. `CsrMatrix::split_jacobi` reads the diagonal and inverts it
//! in that same sweep; it must return what `diagonal()`, a division and
//! `off_diagonal_scaled` returned one after the other. Both are a
//! `JacobiSplit` built and filled on the spot; a split kept and refilled —
//! what a warm request does — must write those same bytes into whatever
//! buffer it is handed, for every matrix of the pattern, in either
//! precision. `analysis::analyze` reads the matrix in one row sweep plus
//! one walk that pairs every entry with its mirror; it must report what
//! the five-sweep version, with its CSR→CSC conversion, reported — and
//! so must `is_pattern_symmetric` and `is_symmetric(0.0)`, which take the
//! same walk. The references are restated here from the public API, so
//! they share no code with the passes they check.

use acamar::datasets::{laplacian_suite, suite};
use acamar::sparse::analysis::{self, Definiteness, StructureReport};
use acamar::sparse::generate::{self, RowDistribution};
use acamar::sparse::rng::DetRng;
use acamar::sparse::{CooMatrix, CscMatrix, CsrMatrix, JacobiSplit, Scalar};

/// `count` seeded square patterns that mix, row by row, what the
/// generators never produce together: empty rows, diagonal-only rows,
/// rows with no stored diagonal, a stored zero on the diagonal, and
/// explicit off-diagonal zeros. Every fourth pattern is symmetrized in
/// pattern, every eighth in values too. A longer list starts with the
/// shorter one.
fn seeded_patterns(count: usize) -> Vec<CsrMatrix<f64>> {
    let mut rng = DetRng::seed_from_u64(0x5e7_0b5);
    (0..count)
        .map(|case| {
            let n = rng.gen_range(1..=48usize);
            let mut dense = vec![vec![None; n]; n];
            for (i, row) in dense.iter_mut().enumerate() {
                let kind = rng.gen_range(0..6usize);
                if kind == 0 {
                    continue; // empty row
                }
                if kind != 1 {
                    // kind 1 is a diagonal-only row
                    for slot in row.iter_mut() {
                        if rng.gen_bool(0.15) {
                            let zero = rng.gen_bool(0.1);
                            *slot = Some(if zero { 0.0 } else { rng.gen_range(-2.0..2.0) });
                        }
                    }
                }
                row[i] = match kind {
                    2 => None,      // structurally missing diagonal
                    3 => Some(0.0), // stored zero diagonal
                    _ => Some(rng.gen_range(0.5..4.0) * if kind == 4 { -1.0 } else { 1.0 }),
                };
            }
            if case % 4 == 0 {
                // Mirror the lower triangle up, values shifted unless the
                // pattern is to be numerically symmetric as well.
                let shift = if case % 8 == 0 { 0.0 } else { 0.25 };
                let lower: Vec<(usize, usize, Option<f64>)> = dense
                    .iter()
                    .enumerate()
                    .flat_map(|(i, row)| row[..i].iter().enumerate().map(move |(j, &v)| (i, j, v)))
                    .collect();
                for (i, j, v) in lower {
                    dense[j][i] = v.map(|v| v + shift);
                }
            }
            from_dense(n, n, &dense)
        })
        .collect()
}

fn from_dense(nrows: usize, ncols: usize, dense: &[Vec<Option<f64>>]) -> CsrMatrix<f64> {
    let mut row_ptr = vec![0];
    let (mut col_idx, mut values) = (Vec::new(), Vec::new());
    for row in dense {
        for (j, slot) in row.iter().enumerate() {
            if let Some(v) = slot {
                col_idx.push(j);
                values.push(*v);
            }
        }
        row_ptr.push(col_idx.len());
    }
    CsrMatrix::try_from_parts(nrows, ncols, row_ptr, col_idx, values)
        .expect("valid by construction")
}

/// The suites the benchmark runs plus sixty-four seeded patterns.
fn square_pool() -> Vec<CsrMatrix<f64>> {
    let mut pool: Vec<CsrMatrix<f64>> = suite().iter().map(|d| d.matrix_f64()).collect();
    pool.extend(laplacian_suite().iter().map(|w| w.matrix_f64()));
    pool.extend(seeded_patterns(64));
    pool
}

/// Patterns whose rows sit around the length at which a refill stops
/// writing a row by one fixed-length pass (8 stored entries): for each
/// length 7 to 10, rows of that length with and without a stored diagonal,
/// and one pattern whose row lengths are drawn from 0 to 10. Each ends in
/// short rows, so the last short rows' fixed passes would run past the
/// end of both buffers.
fn rows_around_the_cut() -> Vec<CsrMatrix<f64>> {
    let mut rng = DetRng::seed_from_u64(0xc07);
    let n = 24;
    (7..=11)
        .map(|len| {
            let dense: Vec<Vec<Option<f64>>> = (0..n)
                .map(|i| {
                    let len = match (len, n - i) {
                        (_, left) if left <= 3 => left - 1,
                        (11, _) => rng.gen_range(0..=10usize),
                        (len, _) => len,
                    };
                    let with_diagonal = i % 3 != 1 && len > 0;
                    let mut row = vec![None; n];
                    if with_diagonal {
                        row[i] = Some(rng.gen_range(1.0..4.0));
                    }
                    let mut stored = usize::from(with_diagonal);
                    while stored < len {
                        let j = rng.gen_range(0..n);
                        if j != i && row[j].is_none() {
                            row[j] = Some(rng.gen_range(-2.0..2.0));
                            stored += 1;
                        }
                    }
                    row
                })
                .collect();
            from_dense(n, n, &dense)
        })
        .collect()
}

/// Jacobi's operand the way `solvers::jacobi` built it before: push every
/// off-diagonal entry, scaled, into a `CooMatrix` and convert.
fn coo_route<T: Scalar>(a: &CsrMatrix<T>, row_scale: &[T]) -> CsrMatrix<T> {
    let mut coo = CooMatrix::with_capacity(a.nrows(), a.ncols(), a.nnz());
    for (i, cols, vals) in a.iter_rows() {
        for (&c, &v) in cols.iter().zip(vals) {
            if c != i {
                coo.push(i, c, v * row_scale[i]).expect("indices in bounds");
            }
        }
    }
    coo.to_csr()
}

fn assert_bitwise_equal<T: Scalar>(got: &CsrMatrix<T>, want: &CsrMatrix<T>, what: &str) {
    assert_eq!(
        (got.nrows(), got.ncols()),
        (want.nrows(), want.ncols()),
        "{what}"
    );
    assert_eq!(got.row_ptr(), want.row_ptr(), "{what}: row_ptr");
    assert_eq!(got.col_idx(), want.col_idx(), "{what}: col_idx");
    let bits = |m: &CsrMatrix<T>| -> Vec<u64> {
        m.values().iter().map(|v| v.to_f64().to_bits()).collect()
    };
    assert_eq!(bits(got), bits(want), "{what}: value bits");
}

#[test]
fn off_diagonal_scaled_is_bitwise_the_coo_route() {
    let mut rng = DetRng::seed_from_u64(0x7_0b5);
    for (k, a) in square_pool().iter().enumerate() {
        // Jacobi's own scale where the diagonal allows it (an infinite
        // scale on a zero diagonal is still a legal multiplier) ...
        let inv_d: Vec<f64> = a.diagonal().iter().map(|d| 1.0 / d).collect();
        let t = a.off_diagonal_scaled(&inv_d).expect("square");
        assert_bitwise_equal(&t, &coo_route(a, &inv_d), &format!("matrix {k}, 1/d"));
        // ... and an arbitrary one, in both precisions.
        let scale: Vec<f64> = (0..a.nrows()).map(|_| rng.gen_range(-3.0..3.0)).collect();
        let t = a.off_diagonal_scaled(&scale).expect("square");
        assert_bitwise_equal(&t, &coo_route(a, &scale), &format!("matrix {k}, random"));
        let (a32, scale32) = (
            a.cast::<f32>(),
            scale.iter().map(|&s| s as f32).collect::<Vec<_>>(),
        );
        let t32 = a32.off_diagonal_scaled(&scale32).expect("square");
        assert_bitwise_equal(
            &t32,
            &coo_route(&a32, &scale32),
            &format!("matrix {k}, f32"),
        );
        // The operand owns its storage: the fabric prices it by identity.
        assert_ne!(t.row_ptr().as_ptr(), a.row_ptr().as_ptr());
    }
}

#[test]
fn split_jacobi_is_bitwise_the_three_separate_passes() {
    fn check<T: Scalar>(a: &CsrMatrix<T>, what: &str) {
        let n = a.nrows();
        // Stale contents: every slot must be overwritten.
        let (mut diag, mut inv) = (vec![T::from_f64(7.0); n], vec![T::from_f64(7.0); n]);
        let t = a
            .split_jacobi(&mut diag, &mut inv)
            .expect("one slot per row");
        let want_diag: Vec<T> = (0..n).map(|i| a.get(i, i)).collect();
        let want_inv: Vec<T> = want_diag.iter().map(|&d| T::ONE / d).collect();
        let bits = |v: &[T]| -> Vec<u64> { v.iter().map(|x| x.to_f64().to_bits()).collect() };
        assert_eq!(bits(&diag), bits(&want_diag), "{what}: diagonal");
        assert_eq!(bits(&inv), bits(&want_inv), "{what}: inverse diagonal");
        let want = a.off_diagonal_scaled(&want_inv).expect("square");
        assert_bitwise_equal(&t, &want, what);
        assert_bitwise_equal(&t, &coo_route(a, &want_inv), &format!("{what} (coo)"));
        assert_ne!(t.row_ptr().as_ptr(), a.row_ptr().as_ptr());
    }
    // Missing and stored-zero diagonals are in the pool: their rows scale
    // by an infinity, as `1 / diagonal()` always did.
    for (k, a) in square_pool().iter().enumerate() {
        check(a, &format!("matrix {k}"));
        check(&a.cast::<f32>(), &format!("matrix {k}, f32"));
    }
    let a = &square_pool()[0];
    let mut short = vec![0.0; a.nrows() - 1];
    let mut full = vec![0.0; a.nrows()];
    assert!(a.split_jacobi(&mut short, &mut full).is_err());
    assert!(a.split_jacobi(&mut full, &mut short).is_err());
}

#[test]
fn a_kept_split_refills_every_matrix_of_its_pattern_bitwise() {
    /// Fills `a` from `split` into a stale buffer of the wrong length and
    /// holds `T`, the diagonal and its inverse to the separate passes.
    fn check<T: Scalar>(
        split: &JacobiSplit,
        a: &CsrMatrix<T>,
        recycled: Vec<T>,
        what: &str,
    ) -> Vec<T> {
        let n = a.nrows();
        let (mut diag, mut inv) = (vec![T::from_f64(7.0); n], vec![T::from_f64(7.0); n]);
        let t = split
            .fill(a, recycled, &mut diag, &mut inv)
            .unwrap_or_else(|_| panic!("{what}: a split fits its own pattern"));
        let want_diag: Vec<T> = (0..n).map(|i| a.get(i, i)).collect();
        let want_inv: Vec<T> = want_diag.iter().map(|&d| T::ONE / d).collect();
        let bits = |v: &[T]| -> Vec<u64> { v.iter().map(|x| x.to_f64().to_bits()).collect() };
        assert_eq!(bits(&diag), bits(&want_diag), "{what}: diagonal");
        assert_eq!(bits(&inv), bits(&want_inv), "{what}: inverse diagonal");
        assert_bitwise_equal(&t, &coo_route(a, &want_inv), what);
        // T reads the split's index arrays, not copies and not A's.
        assert_eq!(t.row_ptr().as_ptr(), split.pattern().row_ptr().as_ptr());
        assert_eq!(t.col_idx().as_ptr(), split.pattern().col_idx().as_ptr());
        assert_ne!(t.row_ptr().as_ptr(), a.row_ptr().as_ptr());
        t.into_values()
    }
    let (mut full, mut partial) = (0, 0);
    let pool: Vec<CsrMatrix<f64>> = square_pool()
        .into_iter()
        .chain(rows_around_the_cut())
        .collect();
    for (k, a) in pool.iter().enumerate() {
        // The split alone: the sweep that builds it also fills `T` for `a`,
        // which `check` then refills into a recycled buffer.
        let n = a.nrows();
        let split = JacobiSplit::build(a, Vec::new(), &mut vec![0.0; n], &mut vec![0.0; n]).0;
        let stored = (0..a.nrows()).all(|i| a.row(i).0.contains(&i));
        assert_eq!(split.has_full_diagonal(), stored, "matrix {k}");
        full += usize::from(stored);
        partial += usize::from(!stored);
        // The pattern's first matrix, a second with other values through
        // the buffer the first one left, and both again in f32 — one split.
        let other = a.map_values(|v| 0.75 * v - 0.125);
        let buffer = check(&split, a, vec![f64::NAN; 3], &format!("matrix {k}"));
        let buffer = check(&split, &other, buffer, &format!("matrix {k}, other values"));
        assert_eq!(buffer.len(), split.pattern().nnz());
        let buffer = check(
            &split,
            &a.cast::<f32>(),
            vec![f32::NAN; a.nnz() + 5],
            &format!("matrix {k}, f32"),
        );
        check(
            &split,
            &other.cast::<f32>(),
            buffer,
            &format!("matrix {k}, other f32"),
        );
    }
    // Both kinds of pattern are in the pool.
    assert!(
        full >= 33 && partial >= 16,
        "{full} full, {partial} partial"
    );
}

#[test]
fn off_diagonal_scaled_handles_rectangles_and_rejects_a_short_scale() {
    let wide = from_dense(
        2,
        4,
        &[
            vec![Some(1.0), Some(2.0), None, Some(3.0)],
            vec![None, None, Some(4.0), None],
        ],
    );
    let t = wide
        .off_diagonal_scaled(&[2.0, 3.0])
        .expect("scale per row");
    assert_bitwise_equal(&t, &coo_route(&wide, &[2.0, 3.0]), "wide");
    assert_eq!(t.col_idx(), &[1, 3, 2]);
    let tall = wide.transpose();
    let scale = [1.0, -1.0, 0.5, 2.0];
    let t = tall.off_diagonal_scaled(&scale).expect("scale per row");
    assert_bitwise_equal(&t, &coo_route(&tall, &scale), "tall");
    assert!(wide.off_diagonal_scaled(&[1.0]).is_err());
    let empty = CsrMatrix::<f64>::try_from_parts(0, 0, vec![0], vec![], vec![]).unwrap();
    assert_eq!(empty.off_diagonal_scaled(&[]).expect("0x0").nnz(), 0);
}

/// `(pattern symmetric, symmetric)` the paper's way: convert to CSC and
/// compare the index arrays, then the values.
fn csc_symmetry<T: Scalar>(a: &CsrMatrix<T>) -> (bool, bool) {
    if a.nrows() != a.ncols() {
        return (false, false);
    }
    let csc = CscMatrix::from_csr(a);
    let pattern = csc.col_ptr() == a.row_ptr() && csc.row_idx() == a.col_idx();
    (pattern, pattern && csc.values() == a.values())
}

/// `analyze` as it was: one sweep (or per-row binary search) per field,
/// and symmetry from a CSC conversion.
fn multi_sweep_report<T: Scalar>(a: &CsrMatrix<T>) -> StructureReport {
    let square = a.nrows() == a.ncols();
    let diag: Vec<T> = (0..a.nrows().min(a.ncols())).map(|i| a.get(i, i)).collect();
    let (pattern_symmetric, symmetric) = csc_symmetry(a);

    let margin = if !square {
        f64::NEG_INFINITY
    } else if a.nrows() == 0 {
        0.0
    } else {
        let mut worst = f64::INFINITY;
        for (i, cols, vals) in a.iter_rows() {
            let (mut d, mut off) = (0.0f64, 0.0f64);
            for (&c, &v) in cols.iter().zip(vals) {
                if c == i {
                    d = v.to_f64().abs();
                } else {
                    off += v.to_f64().abs();
                }
            }
            worst = worst.min(d - off);
        }
        worst
    };

    let gershgorin_definiteness = if !square || a.nrows() == 0 {
        Definiteness::Unknown
    } else {
        let (mut certain_neg, mut certain_pos, mut all_pos, mut all_neg) =
            (false, false, true, true);
        for (i, cols, vals) in a.iter_rows() {
            let (mut d, mut radius) = (0.0f64, 0.0f64);
            for (&c, &v) in cols.iter().zip(vals) {
                if c == i {
                    d = v.to_f64();
                } else {
                    radius += v.to_f64().abs();
                }
            }
            let (lo, hi) = (d - radius, d + radius);
            all_pos &= lo > 0.0;
            all_neg &= hi < 0.0;
            certain_neg |= hi < 0.0;
            certain_pos |= lo > 0.0;
        }
        if all_pos {
            Definiteness::PositiveDefinite
        } else if all_neg {
            Definiteness::NegativeDefinite
        } else if certain_pos && certain_neg {
            Definiteness::Indefinite
        } else {
            Definiteness::Unknown
        }
    };

    let mut bandwidth = 0usize;
    for (i, cols, _) in a.iter_rows() {
        for &c in cols {
            bandwidth = bandwidth.max(i.abs_diff(c));
        }
    }

    StructureReport {
        nrows: a.nrows(),
        ncols: a.ncols(),
        nnz: a.nnz(),
        density: a.density(),
        symmetric,
        pattern_symmetric,
        strictly_diagonally_dominant: margin > 0.0,
        weakly_diagonally_dominant: margin >= 0.0,
        nonzero_diagonal: diag.iter().all(|&d| d != T::ZERO),
        positive_diagonal: !diag.is_empty() && diag.iter().all(|&d| d > T::ZERO),
        mixed_sign_diagonal: diag.iter().any(|&d| d > T::ZERO) && diag.iter().any(|&d| d < T::ZERO),
        gershgorin_definiteness,
        bandwidth,
    }
}

/// An `n`×`n` matrix holding exactly `entries`.
fn from_entries(n: usize, entries: &[(usize, usize, f64)]) -> CsrMatrix<f64> {
    let mut dense = vec![vec![None; n]; n];
    for &(i, j, v) in entries {
        dense[i][j] = Some(v);
    }
    from_dense(n, n, &dense)
}

/// The cases a mirror walk can get wrong: a lone entry at either end of
/// the sweep, a mirror one column off, values `==` treats specially, and
/// the smallest matrices.
fn symmetry_edge_cases() -> Vec<CsrMatrix<f64>> {
    let (inf, nan) = (f64::INFINITY, f64::NAN);
    let diagonal = |n: usize| (0..n).map(|i| (i, i, 2.0 + i as f64)).collect::<Vec<_>>();
    let with = |n: usize, extra: &[(usize, usize, f64)]| {
        let mut entries = diagonal(n);
        entries.extend_from_slice(extra);
        from_entries(n, &entries)
    };
    let pair = |u: f64, l: f64| with(4, &[(1, 2, u), (2, 1, l)]);
    vec![
        // A lower entry with no mirror: in column 0, in the last row.
        with(5, &[(3, 0, 1.0)]),
        with(5, &[(4, 2, 1.0)]),
        with(5, &[(4, 0, 1.0), (0, 4, 1.0), (4, 3, 1.0)]),
        // An upper entry with no mirror: in row 0, in the last column.
        with(5, &[(0, 3, 1.0)]),
        with(5, &[(2, 4, 1.0)]),
        // An upper entry whose mirror sits in the neighbouring column,
        // left and right of where it belongs.
        with(5, &[(1, 3, 1.0), (3, 0, 1.0)]),
        with(5, &[(1, 3, 1.0), (3, 2, 1.0)]),
        with(5, &[(0, 4, 1.0), (4, 1, 1.0)]),
        // An upper entry whose mirror row is empty, and whose next row
        // opens with the mirror's column.
        from_entries(
            4,
            &[
                (0, 0, 1.0),
                (0, 2, 1.0),
                (0, 3, 1.0),
                (1, 1, 1.0),
                (3, 0, 1.0),
                (3, 3, 1.0),
            ],
        ),
        // Every other row's lower part left unclaimed by one entry.
        with(
            6,
            &[
                (0, 2, 1.0),
                (2, 0, 1.0),
                (2, 1, 1.0),
                (5, 3, 1.0),
                (3, 5, 1.0),
            ],
        ),
        // Mirrored values `==` treats specially.
        pair(0.0, -0.0),
        pair(nan, nan),
        pair(inf, inf),
        pair(-inf, -inf),
        pair(inf, -inf),
        pair(inf, 1.0),
        pair(1.0, 1.0 + f64::EPSILON),
        // A NaN on the diagonal only, first and last row.
        from_entries(3, &[(0, 0, nan), (0, 1, 1.0), (1, 0, 1.0), (2, 2, 1.0)]),
        from_entries(3, &[(0, 0, 1.0), (1, 1, 1.0), (2, 2, nan)]),
        // 1×1, and diagonal-only (one with a hole, one all zeros).
        from_entries(1, &[(0, 0, 3.0)]),
        from_entries(1, &[(0, 0, nan)]),
        from_entries(1, &[]),
        from_entries(6, &diagonal(6)),
        from_entries(6, &diagonal(6)[1..]),
        from_entries(4, &(0..4).map(|i| (i, i, 0.0)).collect::<Vec<_>>()),
    ]
}

/// The seven stencil and dominant generators at small sides.
fn small_stencils() -> Vec<CsrMatrix<f64>> {
    let mut helmholtz = generate::poisson2d::<f64>(7, 7);
    let (row_ptr, col_idx) = (helmholtz.row_ptr().to_vec(), helmholtz.col_idx().to_vec());
    for i in 0..49 {
        let k = (row_ptr[i]..row_ptr[i + 1])
            .find(|&k| col_idx[k] == i)
            .unwrap();
        helmholtz.values_mut()[k] -= 0.02;
    }
    vec![
        helmholtz,
        generate::poisson2d(6, 5),
        generate::poisson3d(3, 4, 2),
        generate::anisotropic_poisson2d(5, 6, 1.0, 0.05),
        generate::jump_poisson2d(4, 5, 1e3),
        generate::convection_diffusion_2d(8, 7, 0.5),
        generate::diagonally_dominant(100, RowDistribution::Uniform { min: 6, max: 20 }, 1.5, 3),
    ]
}

#[test]
fn one_sweep_analyze_reports_what_the_multi_sweep_version_did() {
    let mut pool: Vec<CsrMatrix<f64>> = suite().iter().map(|d| d.matrix_f64()).collect();
    pool.extend(laplacian_suite().iter().map(|w| w.matrix_f64()));
    pool.extend(seeded_patterns(256));
    pool.extend(symmetry_edge_cases());
    pool.extend(small_stencils());
    // Rectangles (a diagonal shorter than the row count, and than the
    // column count), an all-empty square and the 0x0 matrix.
    let wide = from_dense(
        2,
        5,
        &[
            vec![Some(-1.0), None, None, None, Some(2.0)],
            vec![Some(3.0), Some(4.0), None, None, None],
        ],
    );
    pool.push(wide.transpose());
    pool.push(wide);
    pool.push(from_dense(3, 3, &vec![vec![None; 3]; 3]));
    pool.push(CsrMatrix::try_from_parts(0, 0, vec![0], vec![], vec![]).unwrap());
    // Values the comparisons treat specially.
    pool.push(from_dense(
        2,
        2,
        &[vec![Some(f64::NAN), Some(1.0)], vec![Some(1.0), Some(-0.0)]],
    ));

    fn check<T: Scalar>(a: &CsrMatrix<T>, what: &str) -> StructureReport {
        let got = analysis::analyze(a);
        assert_eq!(got, multi_sweep_report(a), "{what}");
        let (pattern, values) = csc_symmetry(a);
        assert_eq!(a.is_pattern_symmetric(), pattern, "{what}: pattern");
        assert_eq!(a.is_symmetric(T::ZERO), values, "{what}: values");
        got
    }
    let (mut seen_symmetric, mut seen_pattern_only, mut seen_neither) = (0, 0, 0);
    for (k, a) in pool.iter().enumerate() {
        let got = check(a, &format!("matrix {k}"));
        check(&a.cast::<f32>(), &format!("matrix {k} in f32"));
        seen_symmetric += usize::from(got.symmetric);
        seen_pattern_only += usize::from(got.pattern_symmetric && !got.symmetric);
        seen_neither += usize::from(!got.pattern_symmetric);
    }
    // The pool exercises all three answers the CSC comparison can give.
    assert!(
        seen_symmetric >= 40 && seen_pattern_only >= 40 && seen_neither >= 150,
        "{seen_symmetric} symmetric, {seen_pattern_only} in pattern only, {seen_neither} neither"
    );
}
