//! IC(0) replayed from a pattern's schedule against the factorization it
//! replaced.
//!
//! `Ic0::factor` used to extract `tril(A)`, find every `l_ik · l_jk`
//! product by a two-pointer merge of rows `i` and `j`, re-validate its own
//! output and transpose it — per request. That left-looking merge now
//! lives *here*, as the oracle: an `Ic0Schedule` built once per pattern and
//! replayed into whatever buffers it is handed must produce `L` and `Lᵀ`
//! bit for bit — index arrays and values — and stop at the same row when a
//! pivot fails, for every matrix of the pattern, in either precision. The
//! oracle shares no code with the schedule.

use acamar::datasets::{laplacian_suite, suite};
use acamar::solvers::Ic0;
use acamar::sparse::generate::{self, RowDistribution};
use acamar::sparse::rng::DetRng;
use acamar::sparse::{CsrMatrix, Ic0Refusal, Ic0Schedule, Scalar, SparseError};

/// The factorization as it was: `tril(A)` into fresh arrays, then for each
/// in-pattern entry `(i, j)`, `j <= i`,
///   `l_ij = (a_ij − Σ_k l_ik l_jk) · (1 / l_jj)` for `j < i`,
///   `1 / l_ii = 1 / sqrt(a_ii − Σ_k l_ik²)`, stored in the diagonal slot,
/// the sum running over the common pattern `k < j` by a merge of the two
/// rows, and a pivot that is not finite and positive a breakdown; `Lᵀ` by
/// an explicit transpose.
fn merge_factor<T: Scalar>(a: &CsrMatrix<T>) -> Result<(CsrMatrix<T>, CsrMatrix<T>), SparseError> {
    if a.nrows() != a.ncols() {
        return Err(SparseError::NotSquare {
            nrows: a.nrows(),
            ncols: a.ncols(),
        });
    }
    let n = a.nrows();
    let mut row_ptr = vec![0usize];
    let (mut cols, mut vals) = (Vec::new(), Vec::new());
    let mut diag_pos = vec![usize::MAX; n];
    for (i, dp) in diag_pos.iter_mut().enumerate() {
        let (rcols, rvals) = a.row(i);
        for (&c, &v) in rcols.iter().zip(rvals) {
            if c > i {
                continue;
            }
            if c == i {
                *dp = cols.len();
            }
            cols.push(c);
            vals.push(v);
        }
        if *dp == usize::MAX {
            return Err(SparseError::ZeroDiagonal { row: i });
        }
        row_ptr.push(cols.len());
    }
    for i in 0..n {
        for idx in row_ptr[i]..row_ptr[i + 1] {
            let j = cols[idx];
            let mut s = vals[idx];
            let (mut pi, mut pj) = (row_ptr[i], row_ptr[j]);
            let (i_end, j_end) = (row_ptr[i + 1], row_ptr[j + 1]);
            while pi < i_end && pj < j_end && cols[pi] < j && cols[pj] < j {
                match cols[pi].cmp(&cols[pj]) {
                    std::cmp::Ordering::Less => pi += 1,
                    std::cmp::Ordering::Greater => pj += 1,
                    std::cmp::Ordering::Equal => {
                        s -= vals[pi] * vals[pj];
                        pi += 1;
                        pj += 1;
                    }
                }
            }
            if j < i {
                vals[idx] = s * vals[diag_pos[j]];
            } else if s.is_finite() && s.to_f64() > 0.0 {
                vals[idx] = T::ONE / s.sqrt();
            } else {
                return Err(SparseError::ZeroDiagonal { row: i });
            }
        }
    }
    let l = CsrMatrix::try_from_parts(n, n, row_ptr, cols, vals)?;
    let lt = l.transpose();
    Ok((l, lt))
}

/// Index arrays equal, values equal bit for bit.
fn assert_same_matrix<T: Scalar>(got: &CsrMatrix<T>, want: &CsrMatrix<T>, what: &str) {
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
    assert_eq!(bits(got), bits(want), "{what}: values");
}

/// `Ic0::factor` (build + replay) and a kept schedule replayed into stale
/// buffers of the wrong length, both against the oracle on `a`.
fn check_against_oracle<T: Scalar>(a: &CsrMatrix<T>, schedule: Option<&Ic0Schedule>, what: &str) {
    let want = merge_factor(a);
    match (&want, Ic0::factor(a)) {
        (Ok((l, lt)), Ok(got)) => {
            assert_same_matrix(got.lower(), l, &format!("{what}: factor L"));
            assert_same_matrix(got.upper(), lt, &format!("{what}: factor Lᵀ"));
        }
        (Err(want), Err(got)) => assert_eq!(&got, want, "{what}: factor"),
        (want, got) => panic!("{what}: oracle {want:?}, factor {got:?}"),
    }
    let Some(schedule) = schedule else {
        assert!(
            matches!(
                want,
                Err(SparseError::ZeroDiagonal { .. } | SparseError::NotSquare { .. })
            ),
            "{what}: only an unfactorable pattern goes unscheduled"
        );
        return;
    };
    let stale = |len: usize| vec![T::from_f64(f64::NAN); len];
    match (want, Ic0::replay(schedule, a, stale(3), stale(a.nnz() + 7))) {
        (Ok((l, lt)), Ok(got)) => {
            assert_same_matrix(got.lower(), &l, &format!("{what}: replay L"));
            assert_same_matrix(got.upper(), &lt, &format!("{what}: replay Lᵀ"));
            // The factors sit on the schedule's own shared patterns.
            assert_eq!(got.lower().pattern(), schedule.lower(), "{what}");
            assert_eq!(got.upper().pattern(), schedule.upper(), "{what}");
            assert_eq!(
                got.lower().row_ptr().as_ptr(),
                schedule.lower().row_ptr().as_ptr(),
                "{what}: shared, not copied"
            );
        }
        (Err(SparseError::ZeroDiagonal { row }), Err((refusal, _))) => {
            assert_eq!(refusal, Ic0Refusal::Breakdown { row }, "{what}: replay");
        }
        (want, got) => panic!("{what}: oracle {want:?}, replay {:?}", got.map(|_| ())),
    }
}

/// One schedule per pattern serves the matrix, a second value set on the
/// same pattern, its negation (breaks down at row 0), and all of them in
/// `f32`.
fn check_pattern(a: &CsrMatrix<f64>, what: &str) {
    let schedule = Ic0Schedule::of(a).ok();
    let mut rng = DetRng::seed_from_u64(0x1c0 ^ a.nnz() as u64);
    // Off-diagonals shrunk by a seeded factor each: the definite stay so.
    let mut shrunk = a.clone();
    let diagonal_of: Vec<usize> = (0..a.nrows())
        .flat_map(|i| std::iter::repeat(i).take(a.row_nnz(i)))
        .collect();
    let entries = shrunk.values_mut().iter_mut().zip(a.col_idx());
    for ((v, &c), &i) in entries.zip(&diagonal_of) {
        if c != i {
            *v *= rng.gen_range(0.25..1.0);
        }
    }
    for (m, tag) in [
        (a.clone(), "as given"),
        (shrunk, "second value set"),
        (a.scale(-1.0), "negated"),
    ] {
        check_against_oracle(&m, schedule.as_ref(), &format!("{what} f64 {tag}"));
        check_against_oracle(
            &m.cast::<f32>(),
            schedule.as_ref(),
            &format!("{what} f32 {tag}"),
        );
    }
}

#[test]
fn table2_and_laplacian_factors_are_bitwise_the_merge() {
    // All 25 analogs, not only the SPD ones: the indefinite and the
    // nonsymmetric must stop at the oracle's row or factor their lower
    // triangle like it does.
    let mut factored = 0;
    for d in suite() {
        let a = d.matrix_f64();
        factored += usize::from(Ic0::factor(&a).is_ok());
        check_pattern(&a, &format!("table2-{}", d.id));
    }
    assert!(factored >= 17, "the SPD analogs factor: {factored}");
    for w in laplacian_suite() {
        let a = w.matrix_f64();
        assert!(Ic0::factor(&a).is_ok(), "{:?}", w.kind);
        check_pattern(&a, &format!("laplacian-{:?}", w.kind));
    }
}

#[test]
fn seeded_spd_patterns_are_bitwise_the_merge() {
    let mut rng = DetRng::seed_from_u64(0x1c0_5eed);
    let mut corrections = 0;
    for case in 0..64 {
        // n = 1, diagonal-only rows (min 0), short rows and rows of 1–40.
        let (n, dist) = match case % 4 {
            0 => (1 + case / 4, RowDistribution::Uniform { min: 0, max: 2 }),
            1 => (
                rng.gen_range(20..200usize),
                RowDistribution::Uniform { min: 0, max: 6 },
            ),
            2 => (
                rng.gen_range(60..300usize),
                RowDistribution::Uniform { min: 1, max: 40 },
            ),
            _ => (
                rng.gen_range(100..400usize),
                RowDistribution::Uniform { min: 2, max: 8 },
            ),
        };
        let a =
            generate::spd_from_pattern::<f64>(n, dist, 0.3, rng.gen_range(0..1usize << 40) as u64);
        let schedule = Ic0Schedule::of(&a).expect("a generated diagonal is full");
        assert_eq!(schedule.lower().nnz(), (a.nnz() + n) / 2, "case {case}");
        corrections += schedule.corrections();
        assert!(Ic0::factor(&a).is_ok(), "case {case}: SPD by Gershgorin");
        check_pattern(&a, &format!("case {case} (n = {n})"));
    }
    assert!(
        corrections > 1000,
        "the dense cases exercise the schedule: {corrections}"
    );
}

#[test]
fn one_schedule_serves_both_precisions_and_keeps_what_the_formula_says() {
    let a = generate::spd_from_pattern::<f64>(
        500,
        RowDistribution::Uniform { min: 2, max: 12 },
        0.3,
        41,
    );
    let schedule = Ic0Schedule::of(&a).unwrap();
    let wide = Ic0::replay(&schedule, &a, Vec::new(), Vec::new()).unwrap();
    let narrow = Ic0::replay(&schedule, &a.cast::<f32>(), Vec::new(), Vec::new()).unwrap();
    // Same index storage under both, whatever the scalar type.
    assert_eq!(
        wide.lower().col_idx().as_ptr(),
        narrow.lower().col_idx().as_ptr()
    );
    assert_eq!(
        wide.upper().col_idx().as_ptr(),
        narrow.upper().col_idx().as_ptr()
    );
    assert_same_matrix(
        narrow.lower(),
        &merge_factor(&a.cast::<f32>()).unwrap().0,
        "f32 through the f64 matrix's schedule",
    );
    // Two triangle patterns, the source slots, and the correction triples
    // with their end mark.
    let (rows, tri) = (a.nrows(), (a.nnz() + a.nrows()) / 2);
    assert_eq!(
        schedule.retained_bytes(),
        2 * 8 * (rows + 1 + tri) + 4 * tri + 12 * (schedule.corrections() + 1)
    );
}

#[test]
fn a_nonsymmetric_input_factors_its_lower_triangle_and_ignores_the_rest() {
    let spd =
        generate::spd_from_pattern::<f64>(120, RowDistribution::Uniform { min: 2, max: 9 }, 0.3, 5);
    // Drop every third strictly-upper entry and perturb the others: the
    // pattern is no longer symmetric and the upper values mean nothing.
    let (mut row_ptr, mut cols, mut vals) = (vec![0usize], Vec::new(), Vec::new());
    let mut seen = 0usize;
    for (i, rc, rv) in spd.iter_rows() {
        for (&c, &v) in rc.iter().zip(rv) {
            if c > i {
                seen += 1;
                if seen % 3 == 0 {
                    continue;
                }
                cols.push(c);
                vals.push(v * 17.0 - 3.0);
            } else {
                cols.push(c);
                vals.push(v);
            }
        }
        row_ptr.push(cols.len());
    }
    let lopsided = CsrMatrix::try_from_parts(120, 120, row_ptr, cols, vals).unwrap();
    assert!(!lopsided.is_pattern_symmetric());
    let of_spd = Ic0::factor(&spd).unwrap();
    let of_lopsided = Ic0::factor(&lopsided).unwrap();
    assert_same_matrix(of_lopsided.lower(), of_spd.lower(), "L");
    assert_same_matrix(of_lopsided.upper(), of_spd.upper(), "Lᵀ");
    check_pattern(&lopsided, "lopsided");
    // The two patterns differ in entry count, so neither's schedule is
    // accepted for the other.
    let schedule = Ic0Schedule::of(&spd).unwrap();
    let refused = Ic0::replay(&schedule, &lopsided, Vec::new(), Vec::new());
    assert_eq!(refused.err().map(|(r, _)| r), Some(Ic0Refusal::Stale));
}

#[test]
fn a_schedule_refuses_a_matrix_whose_diagonal_is_elsewhere() {
    // Same shape, same entry count, same row lengths; row 5's first lower
    // entry moved right of the diagonal.
    let p =
        generate::spd_from_pattern::<f64>(40, RowDistribution::Uniform { min: 3, max: 6 }, 0.3, 9);
    let row = (0..40)
        .find(|&i| p.row(i).0[0] < i && p.row(i).0.last() != Some(&39))
        .unwrap();
    let (mut cols, mut vals) = (p.col_idx().to_vec(), p.values().to_vec());
    let (lo, hi) = (p.row_ptr()[row], p.row_ptr()[row + 1]);
    let free = (row + 1..40).find(|c| !cols[lo..hi].contains(c)).unwrap();
    let mut entries: Vec<(usize, f64)> = cols[lo + 1..hi]
        .iter()
        .copied()
        .zip(vals[lo + 1..hi].iter().copied())
        .chain([(free, vals[lo])])
        .collect();
    entries.sort_by_key(|&(c, _)| c);
    for (k, (c, v)) in entries.into_iter().enumerate() {
        (cols[lo + k], vals[lo + k]) = (c, v);
    }
    let q = CsrMatrix::try_from_parts(40, 40, p.row_ptr().to_vec(), cols, vals).unwrap();
    let schedule = Ic0Schedule::of(&p).unwrap();
    let (lower, upper) = (vec![1.0; 5], vec![2.0; 5]);
    let (refusal, [lower, upper]) = Ic0::replay(&schedule, &q, lower, upper).unwrap_err();
    assert_eq!(refusal, Ic0Refusal::Stale);
    // The buffers come back, to be used by the rebuild.
    assert!(lower.capacity() >= 5 && upper.capacity() >= 5);
    check_pattern(&q, "shifted");
}
