//! Fused pass ≡ the primitive sequence it stands for.
//!
//! Every fused pass of [`Kernels`] has a default that *runs* its unfused
//! sequence; executors override it with one sweep. This suite holds each
//! override to that default on the executor's own primitives
//! ([`Unfused`]): every pass, both determinism tiers, lengths on every
//! side of the `Fast` reduction's 16- and 4-element steps — stored
//! vectors, returned and carried reductions, `OpCounts`, and on the fabric
//! executor cycles and MAC capacity, all bit for bit (but for `Fast`'s
//! fused SpMV·dot, whose band-wise sum the tier holds to accuracy).

use acamar::fabric::{FabricKernels, FabricSpec, ScheduleEntry, UnrollSchedule};
use acamar::solvers::{FusedPass, Kernels, OpCounts, Phase, SoftwareKernels};
use acamar::sparse::{CooMatrix, CsrMatrix, DeterminismPolicy};

const LENGTHS: [usize; 9] = [0, 1, 3, 4, 15, 16, 17, 20, 63];

/// `K`'s primitives under the trait's default passes: the oracle.
struct Unfused<K>(K);

impl<K: Kernels<f64>> Kernels<f64> for Unfused<K> {
    fn spmv(&mut self, a: &CsrMatrix<f64>, x: &[f64], y: &mut [f64]) {
        self.0.spmv(a, x, y);
    }
    fn dot(&mut self, x: &[f64], y: &[f64]) -> f64 {
        self.0.dot(x, y)
    }
    fn axpy(&mut self, alpha: f64, x: &[f64], y: &mut [f64]) {
        self.0.axpy(alpha, x, y);
    }
    fn xpby(&mut self, x: &[f64], beta: f64, y: &mut [f64]) {
        self.0.xpby(x, beta, y);
    }
    fn scale(&mut self, alpha: f64, x: &mut [f64]) {
        self.0.scale(alpha, x);
    }
    fn copy(&mut self, src: &[f64], dst: &mut [f64]) {
        self.0.copy(src, dst);
    }
    fn hadamard(&mut self, a: &[f64], x: &[f64], y: &mut [f64]) {
        self.0.hadamard(a, x, y);
    }
    fn set_phase(&mut self, phase: Phase) {
        self.0.set_phase(phase);
    }
    fn counts(&self) -> OpCounts {
        self.0.counts()
    }
}

/// The passes under test: the dense table plus the fused SpMV·dot.
#[derive(Debug, Clone, Copy)]
enum Pass {
    SpmvDot,
    Dense(FusedPass),
}

fn passes() -> Vec<Pass> {
    let dense = FusedPass::ALL.into_iter().map(Pass::Dense);
    std::iter::once(Pass::SpmvDot).chain(dense).collect()
}

/// A nonsymmetric tridiagonal operator of any order, zero included.
fn operator(n: usize) -> CsrMatrix<f64> {
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 2.0 + i as f64 * 0.125).unwrap();
        if i > 0 {
            coo.push(i, i - 1, -1.0).unwrap();
        }
        if i + 1 < n {
            coo.push(i, i + 1, -0.5).unwrap();
        }
    }
    coo.to_csr()
}

/// Runs `pass` once at length `n` and returns everything it produced — the
/// vectors it stored and the reductions it returned or carried (taken
/// through `dot_carried`, as a solver would) — as bits, and whether it
/// carried anything.
fn run<K: Kernels<f64>>(pass: Pass, n: usize, k: &mut K) -> (Vec<u64>, bool) {
    let vector = |f: fn(f64) -> f64, scale: f64| -> Vec<f64> {
        (0..n).map(|i| f(i as f64 * scale)).collect()
    };
    let (a, b, c, d) = (
        vector(f64::sin, 0.37),
        vector(f64::cos, 0.11),
        vector(|t| t.sqrt() - 3.0, 1.0),
        vector(|t| 1.5 + t % 7.0, 1.0),
    );
    let (mut u, mut v) = (vector(f64::cos, 0.29), vector(f64::sin, 0.53));
    let mut scalars = Vec::new();
    let mut carried_any = false;
    k.set_phase(Phase::Loop);
    match pass {
        Pass::SpmvDot => scalars.push(k.spmv_dot(&operator(n), &a, &mut u, &b)),
        Pass::Dense(FusedPass::JacobiStep) => scalars.push(k.jacobi_step(&a, &b, &c, &d, &mut u)),
        Pass::Dense(FusedPass::Waxpy) => k.waxpy(-0.625, &a, &b, &mut u),
        Pass::Dense(FusedPass::DotPair) => {
            let (aa, ab) = k.dot_pair(&a, &b);
            scalars.extend([aa, ab]);
        }
        Pass::Dense(FusedPass::CgUpdate) => {
            let rr = k.cg_update(0.375, &a, &b, &mut u, &mut v);
            carried_any = rr.is_some();
            scalars.push(k.dot_carried(&v, &v, rr));
        }
        Pass::Dense(FusedPass::BicgstabUpdate) => {
            let (rr, rho) = k.bicgstab_update(0.375, &a, -1.25, &b, &c, &d, &mut u, &mut v);
            carried_any = rr.is_some() && rho.is_some();
            scalars.push(k.dot_carried(&v, &v, rr));
            scalars.push(k.dot_carried(&v, &d, rho));
        }
        Pass::Dense(FusedPass::BicgstabDirection) => {
            k.bicgstab_direction(&a, 0.875, -1.25, &b, &mut u)
        }
    }
    let bits = u.iter().chain(&v).chain(&scalars).map(|f| f.to_bits());
    (bits.collect(), carried_any)
}

/// Holds every pass on `executor()` to the default on the same executor's
/// primitives; `account` is everything the executor charged, printed.
fn assert_parity<K: Kernels<f64>>(
    executor: impl Fn(usize, DeterminismPolicy) -> K,
    account: impl Fn(K) -> String,
) {
    for policy in DeterminismPolicy::ALL {
        for n in LENGTHS {
            for pass in passes() {
                let case = format!("{pass:?} {policy} n={n}");
                let mut fused = executor(n, policy);
                let (got, carried) = run(pass, n, &mut fused);
                let mut unfused = Unfused(executor(n, policy));
                let (want, recomputed) = run(pass, n, &mut unfused);
                if matches!(pass, Pass::SpmvDot) && policy.is_fast() {
                    // The one reduction that is not `dot`'s on `Fast`: the
                    // fused SpMV·dot sums band by band (serially without a
                    // plan), which the tier's accuracy contract covers.
                    let (got, want) = (got.split_last().unwrap(), want.split_last().unwrap());
                    assert_eq!(got.1, want.1, "{case}");
                    let (got, want) = (f64::from_bits(*got.0), f64::from_bits(*want.0));
                    assert!((got - want).abs() <= 1e-12 * (1.0 + want.abs()), "{case}");
                } else {
                    assert_eq!(got, want, "{case}");
                }
                assert_eq!(account(fused), account(unfused.0), "{case}");
                let carries = matches!(
                    pass,
                    Pass::Dense(FusedPass::CgUpdate | FusedPass::BicgstabUpdate)
                );
                assert_eq!(carried, carries, "{case}: the override carries");
                assert!(!recomputed, "{case}: the default carries nothing");
            }
        }
    }
}

#[test]
fn software_kernels_fused_passes_are_their_unfused_sequences() {
    assert_parity(
        |_, policy| SoftwareKernels::new().with_policy(policy),
        |k| format!("{:?}", k.counts()),
    );
}

#[test]
fn fabric_kernels_fused_passes_are_their_unfused_sequences() {
    let executor = |n: usize, policy| {
        // Two sets, so the fused SpMV·dot reconfigures mid-pass.
        let entry = |rows, unroll| ScheduleEntry { rows, unroll };
        let schedule =
            UnrollSchedule::from_entries(n, vec![entry(0..n / 2, 2), entry(n / 2..n, 8)]);
        FabricKernels::new(FabricSpec::alveo_u55c(), schedule, 4).with_policy(policy)
    };
    assert_parity(executor, |k| {
        let (counts, cycles) = (Kernels::<f64>::counts(&k), k.cycles());
        let stats = k.finish();
        format!(
            "{counts:?} {cycles:?} capacity {:?} useful {}",
            stats.capacity_flops, stats.useful_flops
        )
    });
}
