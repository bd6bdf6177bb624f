//! Property and plan-shape suite for `BandKind::Sorted`.
//!
//! A Sorted band executes its rows out of order — by length inside each
//! 512-row window — and scatters `y`, so what has to hold wherever the
//! compiler emits one is:
//!
//! * **bytes** — `execute` and `execute_dot` under both policies equal
//!   `CsrMatrix::mul_vec_into` plus a row-ascending dot, bit for bit, in
//!   `f64` and `f32`: on the systems the benchmark's `service_mixed` and
//!   `cold_patterns` pools generate and on the operand Jacobi derives from
//!   each (`T = D⁻¹(L + U)`), on Table II, on seeded patterns, on bands
//!   one row either side of a window edge, with empty rows, one length
//!   class, every length present, and values where a stray `+ 0.0` or a
//!   reordered add would show (`-0.0`, subnormals, `1e300`);
//! * **shape** — the dominant systems of `service_mixed` really are Sorted
//!   end to end, `A` and `T` alike, and no plan carries a band kind the
//!   compiler no longer emits.
//!
//! That `verify_pattern` rejects a corrupted order or slot, and that a
//! corrupted order panics instead of writing outside its band, is tested
//! beside the private slot array in `compiled.rs`.

use acamar::core::{Acamar, AcamarConfig};
use acamar::datasets;
use acamar::fabric::FabricSpec;
use acamar::sparse::compiled::{SORTED_MAX_WIDTH, SORTED_WINDOW_ROWS};
use acamar::sparse::generate::{self, RowDistribution};
use acamar::sparse::simd::dot_fast;
use acamar::sparse::DeterminismPolicy::{Deterministic, Fast};
use acamar::sparse::{BandKind, CompiledSpmv, CooMatrix, CsrMatrix, Scalar};

fn bits<T: Scalar>(v: T) -> u64 {
    v.to_f64().to_bits()
}

fn assert_bits_eq<T: Scalar>(got: &[T], want: &[T], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(bits(*g), bits(*w), "{ctx}: row {i}: {g:?} != {w:?}");
    }
}

/// Finite values under which any deviation from the generic walk's chain
/// shows in the bits: signed zeros, subnormals, and magnitudes whose
/// partial sums cancel exactly only in CSR entry order.
fn hostile<T: Scalar>(k: usize) -> T {
    let wide = T::max_value().to_f64() > 1e300;
    let (tiny, huge) = if wide { (5e-324, 1e300) } else { (1e-45, 1e30) };
    let table = [-0.0, tiny, huge, 1.0, -huge, -0.5, 3.25, -tiny, 0.0, 7.0];
    T::from_f64(table[k % table.len()])
}

/// `a`'s pattern with hostile values, in scalar type `T`.
fn with_hostile_values<T: Scalar>(a: &CsrMatrix<f64>) -> CsrMatrix<T> {
    CsrMatrix::try_from_parts(
        a.nrows(),
        a.ncols(),
        a.row_ptr().to_vec(),
        a.col_idx().to_vec(),
        (0..a.nnz()).map(|k| hostile(k * 7 + k / 5)).collect(),
    )
    .unwrap()
}

/// Whether each row of a band is one serial chain on both tiers.
fn interleaved(kind: BandKind) -> bool {
    matches!(
        kind,
        BandKind::Diagonal { .. }
            | BandKind::Fixed { .. }
            | BandKind::Ell { .. }
            | BandKind::Sorted { .. }
    )
}

/// Every execution surface of `plan` against the generic walk on `a`.
fn check_surfaces<T: Scalar>(a: &CsrMatrix<T>, plan: &CompiledSpmv, ctx: &str) {
    assert!(plan.verify_pattern(a), "{ctx}: verify_pattern");
    let x: Vec<T> = (0..a.ncols())
        .map(|i| match i % 7 {
            0 => T::from_f64(-0.0),
            3 => hostile(1),
            _ => T::from_f64(((i * 5) % 17) as f64 * 0.5 - 4.0),
        })
        .collect();
    let z: Vec<T> = (0..a.nrows())
        .map(|i| T::from_f64((((i * 3) % 13) as f64 - 6.0) / 8192.0))
        .collect();
    let mut want = vec![T::ZERO; a.nrows()];
    a.mul_vec_into(&x, &mut want).unwrap();
    let mut want_dot = T::ZERO;
    for (y, z) in want.iter().zip(&z) {
        want_dot += *y * *z;
    }
    // NaN payloads depend on operand order the compiler may commute.
    assert!(want.iter().all(|v| v.is_finite()) && want_dot.is_finite());

    let nan = T::from_f64(f64::NAN);
    let mut y = vec![nan; a.nrows()];
    plan.execute(Deterministic, a, &x, &mut y).unwrap();
    assert_bits_eq(&y, &want, &format!("{ctx}: execute"));
    y.fill(nan);
    let dot = plan.execute_dot(Deterministic, a, &x, &mut y, &z).unwrap();
    assert_bits_eq(&y, &want, &format!("{ctx}: execute_dot"));
    assert_eq!(bits(dot), bits(want_dot), "{ctx}: execute_dot value");

    // The Fast tier runs the same kernel on every interleaved band.
    y.fill(nan);
    plan.execute(Fast, a, &x, &mut y).unwrap();
    let mut fused = vec![nan; a.nrows()];
    let fast_dot = plan.execute_dot(Fast, a, &x, &mut fused, &z).unwrap();
    assert_bits_eq(&fused, &y, &format!("{ctx}: fast execute_dot vs execute"));
    for band in plan.bands().iter().filter(|b| interleaved(b.kind)) {
        let rows = band.rows.clone();
        assert_bits_eq(
            &y[rows.clone()],
            &want[rows],
            &format!("{ctx}: fast {:?} band", band.kind),
        );
    }
    if plan.bands().iter().all(|b| interleaved(b.kind)) {
        let mut lanes = T::ZERO;
        for b in plan.bands() {
            lanes += dot_fast(&want[b.rows.clone()], &z[b.rows.clone()]);
        }
        assert_eq!(bits(fast_dot), bits(lanes), "{ctx}: fast execute_dot value");
    }
}

/// `plan` on the matrix as generated, then on its pattern under hostile
/// values in both precisions.
fn check_plan(a: &CsrMatrix<f64>, plan: &CompiledSpmv, ctx: &str) {
    check_surfaces(a, plan, ctx);
    check_surfaces(
        &with_hostile_values::<f64>(a),
        plan,
        &format!("{ctx} (f64 hostile)"),
    );
    check_surfaces(
        &with_hostile_values::<f32>(a),
        plan,
        &format!("{ctx} (f32 hostile)"),
    );
}

fn planner() -> Acamar {
    Acamar::new(FabricSpec::alveo_u55c(), AcamarConfig::paper())
}

/// Jacobi's derived operand, by the pass `solvers::jacobi` uses.
fn jacobi_operand(a: &CsrMatrix<f64>) -> CsrMatrix<f64> {
    let (mut diag, mut inv) = (vec![0.0; a.nrows()], vec![0.0; a.nrows()]);
    a.split_jacobi(&mut diag, &mut inv).expect("square")
}

/// The production plans of `a` and of its derived operand (same MSID
/// hints, as the engine compiles them), checked on every surface.
fn check_system(a: &CsrMatrix<f64>, ctx: &str) -> (CompiledSpmv, CompiledSpmv) {
    let artifacts = planner().analyze(a);
    check_plan(a, &artifacts.compiled, &format!("{ctx}: A"));
    let t = jacobi_operand(a);
    let hints = artifacts.plan.schedule.band_hints();
    let t_plan = CompiledSpmv::compile(&t, &hints).unwrap();
    check_plan(&t, &t_plan, &format!("{ctx}: T"));
    ((*artifacts.compiled).clone(), t_plan)
}

fn sorted_share(plan: &CompiledSpmv) -> f64 {
    let sorted: usize = plan
        .bands()
        .iter()
        .filter(|b| matches!(b.kind, BandKind::Sorted { .. }))
        .map(|b| b.nnz())
        .sum();
    sorted as f64 / plan.nnz().max(1) as f64
}

fn uniform(min: usize, max: usize) -> RowDistribution {
    RowDistribution::Uniform { min, max }
}

#[test]
fn benchmark_pools_and_their_jacobi_operands_are_bitwise_and_narrow_ones_are_sorted() {
    // service_mixed's 64 dominant systems and cold_patterns' narrow class:
    // rows of 2-6 off-diagonal entries. Nothing else is in these plans.
    for seed in [7, 0xD0A1, 0x5eed] {
        let a = generate::diagonally_dominant(4000, uniform(2, 6), 1.5, seed);
        let (plan, t_plan) = check_system(&a, &format!("narrow-4000 seed {seed}"));
        assert_eq!(sorted_share(&plan), 1.0, "narrow A: {:?}", plan.bands());
        assert_eq!(sorted_share(&t_plan), 1.0, "narrow T: {:?}", t_plan.bands());
    }
    // cold_patterns' other two classes: rows of 1-40 entries (MSID splits
    // them by density; the dense sets stay Unrolled) and SPD patterns.
    let wide = generate::diagonally_dominant(2000, uniform(1, 40), 1.5, 11);
    check_system(&wide, "wide-2000");
    let spd = generate::spd_from_pattern(3000, uniform(2, 8), 0.3, 13);
    check_system(&spd, "spd-3000");
}

#[test]
fn table2_and_seeded_patterns_are_bitwise_and_carry_sorted_bands() {
    let mut with_sorted = Vec::new();
    for d in datasets::suite() {
        let (plan, t_plan) = check_system(&d.matrix_f64(), &format!("table2 {}", d.id));
        if sorted_share(&plan) > 0.0 || sorted_share(&t_plan) > 0.0 {
            with_sorted.push(d.id);
        }
    }
    // epb3 and thermal1 are the ragged, narrow Table II analogs.
    for id in ["Eb", "Th"] {
        assert!(with_sorted.contains(&id), "{id} has no Sorted band");
    }

    let mut sorted_cases = 0;
    for case in 0..64u64 {
        let dist = match case % 4 {
            0 => uniform(0, 3 + (case % 13) as usize),
            1 => uniform(1, 9 + (case % 8) as usize),
            2 => RowDistribution::Bimodal {
                low: 2,
                high: 10 + (case % 16) as usize,
                high_fraction: 0.3,
            },
            _ => RowDistribution::PowerLaw {
                min: 1,
                max: 60,
                exponent: 1.8,
            },
        };
        let n = 96 + 37 * case as usize;
        let a = generate::random_pattern::<f64>(n, dist, 0x50_27ED + case);
        let plan = CompiledSpmv::compile_default(&a);
        check_plan(&a, &plan, &format!("seeded {case} default"));
        let scheduled = planner().analyze(&a).compiled;
        check_plan(&a, &scheduled, &format!("seeded {case} scheduled"));
        sorted_cases += usize::from(sorted_share(&plan) > 0.0);
    }
    assert!(sorted_cases >= 16, "only {sorted_cases} seeded plans sort");
}

/// `n` rows whose lengths follow `len_of`, columns spread so that no row is
/// contiguous and no two neighbours share a shape.
fn ragged(n: usize, len_of: impl Fn(usize) -> usize) -> CsrMatrix<f64> {
    let ncols = 97;
    let mut coo = CooMatrix::new(n, ncols);
    for r in 0..n {
        for k in 0..len_of(r) {
            let c = (r * 3 + k * 5) % ncols;
            coo.push(r, c, 1.0 + ((r + 2 * k) % 9) as f64 * 0.25)
                .unwrap();
        }
    }
    coo.to_csr()
}

/// The single band of `a`'s default plan, which must be Sorted.
fn sole_sorted_band(a: &CsrMatrix<f64>, ctx: &str) -> (CompiledSpmv, usize) {
    let plan = CompiledSpmv::compile_default(a);
    match plan.bands() {
        [band] => match band.kind {
            BandKind::Sorted { width } => {
                assert_eq!(band.rows, 0..a.nrows(), "{ctx}");
                (plan, width)
            }
            other => panic!("{ctx}: {other:?}"),
        },
        bands => panic!("{ctx}: {} bands", bands.len()),
    }
}

#[test]
fn band_lengths_around_the_window_edge_are_bitwise() {
    assert_eq!(SORTED_WINDOW_ROWS, 512);
    for n in [8, 9, 511, 512, 513, 768, 769, 1024, 1025] {
        // Lengths 1..=6 in a period of 7 with an empty row: mean 3, well
        // past the Ell padding bound, never eight equal in a row.
        let a = ragged(n, |r| (r * 5 + r / 7) % 7);
        let (plan, width) = sole_sorted_band(&a, &format!("{n} rows"));
        assert_eq!(width, 6);
        check_plan(&a, &plan, &format!("{n} rows"));
    }
}

#[test]
fn empty_rows_single_classes_and_every_length_are_bitwise() {
    // Every length 0..=max present, max at the widest the kind takes.
    let a = ragged(700, |r| (r * 11) % (SORTED_MAX_WIDTH + 1));
    let (plan, width) = sole_sorted_band(&a, "every length");
    assert_eq!(width, SORTED_MAX_WIDTH);
    check_plan(&a, &plan, "every length");

    // Two classes in the full window, one in the five-row window after it
    // (a run that short is not promoted to Fixed).
    let a = ragged(SORTED_WINDOW_ROWS + 5, |r| {
        if r < SORTED_WINDOW_ROWS && r % 2 == 1 {
            9
        } else {
            1
        }
    });
    let (plan, width) = sole_sorted_band(&a, "single class");
    assert_eq!(width, 9);
    check_plan(&a, &plan, "single class");

    // Mostly empty rows: the zero-length class carries the window.
    let a = ragged(530, |r| if r % 3 == 0 { 1 + r % 5 } else { 0 });
    let (plan, _) = sole_sorted_band(&a, "mostly empty");
    check_plan(&a, &plan, "mostly empty");

    // One row wider than the kind takes: the band leaves it.
    let a = ragged(600, |r| {
        if r == 300 {
            SORTED_MAX_WIDTH + 1
        } else {
            1 + r % 3
        }
    });
    let plan = CompiledSpmv::compile_default(&a);
    assert_eq!(sorted_share(&plan), 0.0, "{:?}", plan.bands());
    check_plan(&a, &plan, "one row too wide");
}

#[test]
fn compiled_rs_keeps_its_one_unsafe_block() {
    let source = include_str!("../crates/sparse/src/compiled.rs");
    assert_eq!(source.matches("unsafe {").count(), 1);
}
