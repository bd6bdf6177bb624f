//! Property, plan-shape and provenance suite for `BandKind::Diagonal`.
//!
//! A Diagonal band stores one row of columns and reads `x` as contiguous
//! windows, so three things have to hold wherever the compiler emits one:
//!
//! * **bytes** — both entry points (`execute`, and `execute_dot`, which
//!   runs one band at a time) under both policies equal
//!   `CsrMatrix::mul_vec_into` plus a row-ascending dot, bit for bit, in
//!   `f64` and `f32`, on stencils, banded matrices, runs of every length
//!   around the promotion minimum, broken runs, diagonals touching column 0
//!   and `ncols - 1`, rectangular shapes, empty rows, and values where a
//!   stray `+ 0.0` or a reordered add would show (`-0.0`, subnormals,
//!   `1e300`);
//! * **shape** — the stencil systems the benchmark and Table II carry
//!   really do land in Diagonal bands, and random patterns never do;
//! * **bounds** — every slot a kernel reads is a column of the matrix and
//!   every Diagonal window ends inside `x`, for `compile` and
//!   `compile_default` (`verify_pattern` proves both: a slot
//!   equal to a stored column is `< ncols`, and a Diagonal band's last row
//!   holds column `first[k] + rows - 1`; the `compiled.rs` unit tests audit
//!   the raw slot array, padding included).

use acamar::core::{Acamar, AcamarConfig};
use acamar::datasets;
use acamar::fabric::FabricSpec;
use acamar::sparse::compiled::MIN_FIXED_RUN;
use acamar::sparse::generate::{self, RowDistribution};
use acamar::sparse::rng::DetRng;
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

/// Values chosen so that any deviation from the generic walk's chain is
/// visible in the bits: signed zeros (an accumulated padding slot turns
/// `-0.0` into `+0.0`), subnormals, and magnitudes whose partial sums
/// cancel exactly only in CSR entry order. Everything stays finite — NaN
/// payloads depend on operand order the compiler may legally commute.
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

fn interleaved_only(plan: &CompiledSpmv) -> bool {
    plan.bands().iter().all(|b| {
        matches!(
            b.kind,
            BandKind::Diagonal { .. }
                | BandKind::Fixed { .. }
                | BandKind::Ell { .. }
                | BandKind::Sorted { .. }
        )
    })
}

/// `(start, end)` row bounds of the plan's Diagonal bands.
fn diagonal_rows(plan: &CompiledSpmv) -> Vec<(usize, usize)> {
    plan.bands()
        .iter()
        .filter(|b| matches!(b.kind, BandKind::Diagonal { .. }))
        .map(|b| (b.rows.start, b.rows.end))
        .collect()
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
    assert!(want.iter().all(|v| v.is_finite()) && want_dot.is_finite());

    let nan = T::from_f64(f64::NAN);
    let mut y = vec![nan; a.nrows()];
    plan.execute(Deterministic, a, &x, &mut y).unwrap();
    assert_bits_eq(&y, &want, &format!("{ctx}: execute"));

    // `execute_dot` runs the plan one band at a time, each into its own
    // slice of `y`: the per-band span arithmetic.
    y.fill(nan);
    let dot = plan.execute_dot(Deterministic, a, &x, &mut y, &z).unwrap();
    assert_bits_eq(&y, &want, &format!("{ctx}: execute_dot"));
    assert_eq!(bits(dot), bits(want_dot), "{ctx}: execute_dot value");

    if interleaved_only(plan) {
        // No band reassociates a row, so the Fast tier's `y` is the same
        // bytes; its fused dot is the documented band-local lane dot.
        y.fill(nan);
        plan.execute(Fast, a, &x, &mut y).unwrap();
        assert_bits_eq(&y, &want, &format!("{ctx}: fast execute"));
        y.fill(nan);
        let dot = plan.execute_dot(Fast, a, &x, &mut y, &z).unwrap();
        assert_bits_eq(&y, &want, &format!("{ctx}: fast execute_dot"));
        let mut lanes = T::ZERO;
        for b in plan.bands() {
            lanes += dot_fast(&want[b.rows.clone()], &z[b.rows.clone()]);
        }
        assert_eq!(bits(dot), bits(lanes), "{ctx}: fast execute_dot value");
    }
}

/// The matrix as generated (`f64`), then its pattern under hostile values
/// in both precisions, through the default plan.
fn check_pattern(a: &CsrMatrix<f64>, ctx: &str) -> CompiledSpmv {
    let plan = CompiledSpmv::compile_default(a);
    check_surfaces(a, &plan, ctx);
    check_surfaces(
        &with_hostile_values::<f64>(a),
        &plan,
        &format!("{ctx} (f64 hostile)"),
    );
    check_surfaces(
        &with_hostile_values::<f32>(a),
        &plan,
        &format!("{ctx} (f32 hostile)"),
    );
    plan
}

/// A matrix from explicit (unsorted-tolerant) row column lists.
fn from_rows(ncols: usize, rows: &[Vec<usize>]) -> CsrMatrix<f64> {
    let mut coo = CooMatrix::new(rows.len(), ncols);
    for (r, cols) in rows.iter().enumerate() {
        for (k, &c) in cols.iter().enumerate() {
            coo.push(r, c, 1.0 + ((r * 3 + k) % 11) as f64 * 0.125)
                .unwrap();
        }
    }
    coo.to_csr()
}

/// The benchmark's helmholtz construction: `poisson2d` with its diagonal
/// lowered by `shift`.
fn helmholtz(side: usize, shift: f64) -> CsrMatrix<f64> {
    let mut a: CsrMatrix<f64> = generate::poisson2d(side, side);
    let (row_ptr, col_idx) = (a.row_ptr(), a.col_idx());
    let diagonal: Vec<usize> = (0..a.nrows())
        .flat_map(|i| (row_ptr[i]..row_ptr[i + 1]).filter(move |&k| col_idx[k] == i))
        .collect();
    for k in diagonal {
        a.values_mut()[k] -= shift;
    }
    a
}

#[test]
fn stencils_and_banded_matrices_are_bitwise_on_every_surface() {
    let stencils: Vec<(&str, CsrMatrix<f64>)> = vec![
        ("poisson2d", generate::poisson2d(17, 9)),
        ("poisson3d", generate::poisson3d(12, 5, 4)),
        (
            "anisotropic",
            generate::anisotropic_poisson2d(13, 7, 1.0, 0.05),
        ),
        ("jump", generate::jump_poisson2d(14, 6, 1e3)),
        (
            "convection-diffusion",
            generate::convection_diffusion_2d(15, 8, 0.5),
        ),
        ("helmholtz", helmholtz(11, 0.02)),
        ("tridiagonal", generate::tridiagonal(50, -1.0, 2.5, -1.5)),
    ];
    for (name, a) in &stencils {
        let plan = check_pattern(a, name);
        assert!(!diagonal_rows(&plan).is_empty(), "{name}: no Diagonal band");
        assert!(
            interleaved_only(&plan),
            "{name}: stencil left the lane kinds"
        );
    }

    // Seeded banded matrices with random offset sets: the interior is one
    // uniform run shifted end to end; the edges lose entries row by row.
    let mut rng = DetRng::seed_from_u64(0xD1A6);
    for case in 0..24 {
        let n = rng.gen_range(60..200usize);
        let reach = (n / 3) as isize;
        let mut offsets: Vec<isize> = (0..rng.gen_range(1..=9usize))
            .map(|_| rng.gen_range(0..(2 * reach) as usize) as isize - reach)
            .collect();
        offsets.sort_unstable();
        offsets.dedup();
        let bands: Vec<(isize, f64)> = offsets
            .iter()
            .map(|&o| (o, 1.0 + o as f64 * 0.25))
            .collect();
        let a = generate::banded(n, &bands);
        let plan = check_pattern(&a, &format!("banded case {case} offsets {offsets:?}"));
        let widest = diagonal_rows(&plan).iter().map(|r| r.1 - r.0).max();
        assert!(
            widest >= Some(n - 2 * reach as usize),
            "case {case}: interior not one Diagonal band ({widest:?} of {n})"
        );
    }
}

#[test]
fn run_lengths_around_the_minimum_are_bitwise_and_only_whole_runs_are_promoted() {
    const W: usize = 4;
    for len in 1..=40 {
        // Restarting: one uniform-width run made of three shifted pieces of
        // `len` rows, each restarting its columns three past the last. The
        // run is not shifted end to end, so it stays Fixed at any length.
        let rows: Vec<Vec<usize>> = (0..3 * len.max(3))
            .map(|r| {
                let (run, i) = (r / len, r % len);
                (0..W).map(|k| run * (len + 3) + i + k * 150).collect()
            })
            .collect();
        let a = from_rows(800, &rows);
        let plan = check_pattern(&a, &format!("restarting runs of {len}"));
        assert_eq!(diagonal_rows(&plan), [], "restarting runs of {len}");

        // Whole: one shifted run of `len` rows between rows of another
        // width — promoted as soon as it is a Fixed candidate at all.
        let mut rows: Vec<Vec<usize>> = vec![vec![0, 9], vec![1, 7, 11]];
        rows.extend((0..len).map(|i| (0..W).map(|k| i + k * 150).collect()));
        rows.push(vec![3, 4]);
        let a = from_rows(800, &rows);
        let plan = check_pattern(&a, &format!("whole run of {len}"));
        let want = if len >= MIN_FIXED_RUN {
            vec![(2, 2 + len)]
        } else {
            vec![]
        };
        assert_eq!(diagonal_rows(&plan), want, "whole run of {len}");
    }
}

#[test]
fn broken_runs_edges_rectangles_and_empty_rows_are_bitwise() {
    let shifted = |rows: std::ops::Range<usize>, offs: &[usize]| -> Vec<Vec<usize>> {
        rows.map(|i| offs.iter().map(|o| i + o).collect()).collect()
    };

    // One perturbed row (same width) inside a long run: the run is no
    // longer shifted end to end and stays one Fixed band.
    let mut rows = shifted(0..120, &[0, 1, 40]);
    rows[65] = vec![65, 67, 105];
    let plan = check_pattern(&from_rows(160, &rows), "run broken in the middle");
    assert_eq!(diagonal_rows(&plan), []);
    assert_eq!(plan.bands().len(), 1);

    // Wide: diagonals that start at column 0 and end at `ncols - 1`.
    let rows = shifted(0..33, &[0, 12]);
    let plan = check_pattern(&from_rows(45, &rows), "wide, touching both edges");
    assert_eq!(diagonal_rows(&plan), [(0, 33)]);

    // Tall: three blocks reuse the same columns, a one-entry row between
    // them; every block's last window ends at the last column.
    let mut rows = Vec::new();
    for _ in 0..3 {
        rows.extend(shifted(0..30, &[0, 5, 10]));
        rows.push(vec![0]);
    }
    let plan = check_pattern(&from_rows(40, &rows), "tall, restarting");
    assert_eq!(diagonal_rows(&plan), [(0, 30), (31, 61), (62, 92)]);

    // Empty rows between (and around) runs.
    let mut rows = vec![vec![]; 2];
    rows.extend(shifted(0..30, &[0, 3, 4, 9]));
    rows.extend(vec![vec![]; 3]);
    rows.extend(shifted(5..45, &[1, 2]));
    rows.extend(vec![vec![]; 12]);
    rows.extend(shifted(0..9, &[0, 50]));
    let plan = check_pattern(&from_rows(60, &rows), "runs separated by empty rows");
    assert_eq!(diagonal_rows(&plan), [(2, 32), (35, 75), (87, 96)]);
}

fn planner() -> Acamar {
    Acamar::new(FabricSpec::alveo_u55c(), AcamarConfig::paper())
}

/// Share of `a`'s stored entries that the production plan (MSID hints)
/// puts in Diagonal bands, and how many such bands there are.
fn diagonal_share(a: &CsrMatrix<f64>) -> (f64, usize) {
    let plan = planner().analyze(a).compiled;
    let bands = plan.bands().iter();
    let diagonal: Vec<usize> = bands
        .filter(|b| matches!(b.kind, BandKind::Diagonal { .. }))
        .map(|b| b.nnz())
        .collect();
    let share = diagonal.iter().sum::<usize>() as f64 / a.nnz().max(1) as f64;
    (share, diagonal.len())
}

#[test]
fn stencil_systems_land_in_diagonal_bands_and_random_patterns_never_do() {
    let table2 = |id: &str| datasets::by_id(id).unwrap().matrix_f64();
    let mostly: Vec<(&str, f64, CsrMatrix<f64>)> = vec![
        ("helmholtz-96", 0.9, helmholtz(96, 0.02)),
        ("poisson2d-128", 0.9, generate::poisson2d(128, 128)),
        (
            "anisotropic-40",
            0.9,
            generate::anisotropic_poisson2d(40, 40, 1.0, 0.05),
        ),
        ("jump-64", 0.9, generate::jump_poisson2d(64, 64, 1e3)),
        (
            "convection-diffusion-120",
            0.9,
            generate::convection_diffusion_2d(120, 120, 0.5),
        ),
        ("table2-If", 0.9, table2("If")),
        ("table2-G2", 0.9, table2("G2")),
        ("table2-Ns", 0.9, table2("Ns")),
        ("poisson3d-32", 0.8, generate::poisson3d(32, 32, 32)),
        ("table2-Po", 0.8, table2("Po")),
    ];
    for (name, floor, a) in &mostly {
        let (share, _) = diagonal_share(a);
        assert!(
            share >= *floor,
            "{name}: {share:.3} of entries in Diagonal bands"
        );
    }

    for seed in 0..24u64 {
        let dist = RowDistribution::Uniform {
            min: 2,
            max: 6 + (seed % 15) as usize,
        };
        let pools: [CsrMatrix<f64>; 2] = [
            generate::diagonally_dominant(400, dist, 1.5, seed),
            generate::spd_from_pattern(300, dist, 0.5, seed),
        ];
        for a in &pools {
            assert_eq!(
                diagonal_share(a).1,
                0,
                "seed {seed}: random pattern got a Diagonal band"
            );
        }
    }
}

#[test]
fn compile_and_compile_default_plans_match_their_pattern_slot_for_slot() {
    let mut systems: Vec<(String, CsrMatrix<f64>)> = Vec::new();
    for d in datasets::suite() {
        systems.push((format!("table2-{}", d.id), d.matrix_f64()));
    }
    for w in datasets::laplacian_suite() {
        systems.push((format!("laplacian-{}", w.name), w.matrix_f64()));
    }
    for case in 0..64u64 {
        let dist = match case % 4 {
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
        };
        let n = 96 + 13 * case as usize;
        systems.push((
            format!("seeded-{case}"),
            generate::random_pattern(n, dist, 0x51_07 + case),
        ));
    }

    let acamar = planner();
    for (name, a) in &systems {
        let hints = acamar.analyze(a).plan.schedule.band_hints();
        let plan = CompiledSpmv::compile(a, &hints).unwrap();
        assert!(plan.verify_pattern(a), "{name}: compile");
        assert!(
            CompiledSpmv::compile_default(a).verify_pattern(a),
            "{name}: compile_default"
        );
    }
}
