//! Portable fixed-lane SIMD backbone for the `Fast` determinism tier.
//!
//! The repo's default numeric contract is *bitwise determinism*: every
//! reduction runs in one fixed serial order so results replay exactly
//! across runs, worker counts, and fault-injection seeds. That contract
//! forbids float reassociation — and with it the lane-parallel partial
//! sums a vector unit needs to hide FP-add latency.
//!
//! This module provides the opt-out. [`DeterminismPolicy`] names the two
//! tiers; [`Lanes4`] is a fixed four-lane `f64x4`-style accumulator — a
//! plain `[T; 4]` newtype whose `#[inline]` element-wise operations give
//! LLVM straight-line code it reliably autovectorizes (no nightly
//! features, no target-specific intrinsics, MSRV unchanged). The free
//! functions ([`dot_fast`], [`axpy_normsq_fast`]) are the reassociated
//! reduction kernels the `Fast` tier swaps in for the hot serial folds.
//!
//! Reassociation changes results only in the last few ULP on
//! well-conditioned data (four partial sums instead of one), which is why
//! the `Fast` tier is validated by residual-accuracy and
//! convergence-verdict gates instead of bitwise ones — see DESIGN §15.

use crate::scalar::Scalar;

/// Per-job numeric determinism contract.
///
/// Selects how reductions (dot products, norms, fused SpMV·dot) are
/// ordered on the host execution path:
///
/// * [`DeterminismPolicy::Deterministic`] — the default and the repo's
///   historical contract: one fixed serial summation order, bitwise
///   reproducible across runs, worker counts, warm/cold caches, and
///   chaos replay.
/// * [`DeterminismPolicy::Fast`] — reassociated lane-parallel reductions
///   via [`Lanes4`]: faster on latency-bound reduction chains, but
///   results are only *accuracy*-equivalent (a few ULP of reassociation
///   noise), so bitwise gates and chaos replay do not apply. Validated
///   by residual-accuracy and convergence-verdict gates instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DeterminismPolicy {
    /// Bitwise-reproducible tree/serial reductions (the default).
    #[default]
    Deterministic,
    /// SIMD-friendly reassociated reductions; accuracy-validated only.
    Fast,
}

impl DeterminismPolicy {
    /// `true` for the [`DeterminismPolicy::Fast`] tier.
    #[inline]
    pub fn is_fast(self) -> bool {
        matches!(self, DeterminismPolicy::Fast)
    }

    /// Stable lowercase label (`"deterministic"` / `"fast"`), used as a
    /// metric and report tag.
    pub fn label(self) -> &'static str {
        match self {
            DeterminismPolicy::Deterministic => "deterministic",
            DeterminismPolicy::Fast => "fast",
        }
    }

    /// Every policy, in declaration order.
    pub const ALL: [DeterminismPolicy; 2] =
        [DeterminismPolicy::Deterministic, DeterminismPolicy::Fast];
}

impl std::fmt::Display for DeterminismPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A fixed four-lane accumulator: the portable `f64x4`.
///
/// Element-wise arithmetic over a `[T; 4]` with every operation
/// `#[inline]` — the shape LLVM's autovectorizer turns into packed
/// vector instructions on any target with 256-bit (or two 128-bit)
/// lanes, with scalar code as the portable fallback. The horizontal
/// [`Lanes4::reduce`] runs in one fixed order, so a `Fast` reduction is
/// deterministic *for a given lane count* — it differs from the serial
/// order only by the 4-way reassociation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lanes4<T>([T; 4]);

impl<T: Scalar> Lanes4<T> {
    /// All lanes zero.
    #[inline]
    pub fn zero() -> Self {
        Lanes4([T::ZERO; 4])
    }

    /// Lanes from an array.
    #[inline]
    pub fn new(lanes: [T; 4]) -> Self {
        Lanes4(lanes)
    }

    /// Lanes from the first four elements of a slice.
    ///
    /// # Panics
    ///
    /// Panics if `s.len() < 4`.
    #[inline]
    pub fn from_slice(s: &[T]) -> Self {
        Lanes4([s[0], s[1], s[2], s[3]])
    }

    /// Element-wise `self + a * b` (the vector multiply-accumulate).
    #[inline]
    #[must_use]
    pub fn mul_add(self, a: Self, b: Self) -> Self {
        let mut out = self.0;
        for (k, o) in out.iter_mut().enumerate() {
            *o += a.0[k] * b.0[k];
        }
        Lanes4(out)
    }

    /// Element-wise sum. Named `add` deliberately (there is no operator
    /// overload on `Lanes4`; kernels call lane ops explicitly so the
    /// reduction order stays visible at every call site).
    #[inline]
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Self) -> Self {
        let mut out = self.0;
        for (k, o) in out.iter_mut().enumerate() {
            *o += other.0[k];
        }
        Lanes4(out)
    }

    /// Horizontal sum in the fixed order `(l0 + l1) + (l2 + l3)`.
    #[inline]
    pub fn reduce(self) -> T {
        (self.0[0] + self.0[1]) + (self.0[2] + self.0[3])
    }

    /// The lanes as an array.
    #[inline]
    pub fn to_array(self) -> [T; 4] {
        self.0
    }
}

/// Reassociated dot product: four independent four-lane partial-sum
/// chains over the aligned body (sixteen elements per step, enough
/// in-flight accumulators to hide the FP-add latency of each chain), a
/// four-wide and then serial cleanup, one horizontal reduce at the end.
///
/// Agrees with the serial fold to a few ULP on well-conditioned inputs;
/// the `Fast` tier's replacement for the deterministic `dot`.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn dot_fast<T: Scalar>(x: &[T], y: &[T]) -> T {
    assert_eq!(x.len(), y.len(), "dot length mismatch");
    let n = x.len();
    let mut acc0 = Lanes4::zero();
    let mut acc1 = Lanes4::zero();
    let mut acc2 = Lanes4::zero();
    let mut acc3 = Lanes4::zero();
    let mut k = 0usize;
    while k + 16 <= n {
        acc0 = acc0.mul_add(Lanes4::from_slice(&x[k..]), Lanes4::from_slice(&y[k..]));
        acc1 = acc1.mul_add(
            Lanes4::from_slice(&x[k + 4..]),
            Lanes4::from_slice(&y[k + 4..]),
        );
        acc2 = acc2.mul_add(
            Lanes4::from_slice(&x[k + 8..]),
            Lanes4::from_slice(&y[k + 8..]),
        );
        acc3 = acc3.mul_add(
            Lanes4::from_slice(&x[k + 12..]),
            Lanes4::from_slice(&y[k + 12..]),
        );
        k += 16;
    }
    while k + 4 <= n {
        acc0 = acc0.mul_add(Lanes4::from_slice(&x[k..]), Lanes4::from_slice(&y[k..]));
        k += 4;
    }
    let mut tail = T::ZERO;
    for j in k..n {
        tail += x[j] * y[j];
    }
    acc0.add(acc1).add(acc2.add(acc3)).reduce() + tail
}

/// Reassociated squared norm: [`dot_fast`]`(x, x)`.
#[inline]
pub fn norm_sq_fast<T: Scalar>(x: &[T]) -> T {
    dot_fast(x, x)
}

/// Fused reassociated `y += alpha * x; return ||y||²` in one pass, with
/// four independent four-lane partial-sum chains (sixteen elements per
/// step). The update to `y` is element-wise (identical to the serial
/// fused kernel); only the norm reduction reassociates.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn axpy_normsq_fast<T: Scalar>(alpha: T, x: &[T], y: &mut [T]) -> T {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    let n = y.len();
    let mut acc0 = Lanes4::zero();
    let mut acc1 = Lanes4::zero();
    let mut acc2 = Lanes4::zero();
    let mut acc3 = Lanes4::zero();
    let mut i = 0usize;
    while i + 16 <= n {
        for k in i..i + 16 {
            y[k] += alpha * x[k];
        }
        acc0 = acc0.mul_add(Lanes4::from_slice(&y[i..]), Lanes4::from_slice(&y[i..]));
        acc1 = acc1.mul_add(
            Lanes4::from_slice(&y[i + 4..]),
            Lanes4::from_slice(&y[i + 4..]),
        );
        acc2 = acc2.mul_add(
            Lanes4::from_slice(&y[i + 8..]),
            Lanes4::from_slice(&y[i + 8..]),
        );
        acc3 = acc3.mul_add(
            Lanes4::from_slice(&y[i + 12..]),
            Lanes4::from_slice(&y[i + 12..]),
        );
        i += 16;
    }
    let mut tail = T::ZERO;
    for k in i..n {
        y[k] += alpha * x[k];
        tail += y[k] * y[k];
    }
    acc0.add(acc1).add(acc2.add(acc3)).reduce() + tail
}

/// Fused reassociated Jacobi update: `x_new = c − tx`, returning
/// `‖d ∘ (x_new − x)‖²` without ever storing the difference or its
/// scaling. Element-wise arithmetic is the unfused
/// copy/axpy/copy/axpy/hadamard sequence's, and the reduction has exactly
/// [`dot_fast`]'s shape — sixteen-element steps over four chains, a
/// four-wide and then serial cleanup — so the result is bitwise
/// `dot_fast(r, r)` of the materialized `r`.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn jacobi_step_fast<T: Scalar>(c: &[T], tx: &[T], x: &[T], d: &[T], x_new: &mut [T]) -> T {
    let n = x_new.len();
    assert!(
        c.len() == n && tx.len() == n && x.len() == n && d.len() == n,
        "jacobi step length mismatch"
    );
    // Updates `len` elements from `k` on and returns their scaled
    // differences, zero-padded to a full step.
    let mut step = |k: usize, len: usize| {
        let mut r = [T::ZERO; 16];
        for (j, rj) in r[..len].iter_mut().enumerate() {
            let i = k + j;
            let next = c[i] + -T::ONE * tx[i];
            x_new[i] = next;
            *rj = d[i] * (next + -T::ONE * x[i]);
        }
        r
    };
    let mut acc0 = Lanes4::zero();
    let mut acc1 = Lanes4::zero();
    let mut acc2 = Lanes4::zero();
    let mut acc3 = Lanes4::zero();
    let mut k = 0usize;
    while k + 16 <= n {
        let r = step(k, 16);
        acc0 = acc0.mul_add(Lanes4::from_slice(&r), Lanes4::from_slice(&r));
        acc1 = acc1.mul_add(Lanes4::from_slice(&r[4..]), Lanes4::from_slice(&r[4..]));
        acc2 = acc2.mul_add(Lanes4::from_slice(&r[8..]), Lanes4::from_slice(&r[8..]));
        acc3 = acc3.mul_add(Lanes4::from_slice(&r[12..]), Lanes4::from_slice(&r[12..]));
        k += 16;
    }
    while k + 4 <= n {
        let r = step(k, 4);
        acc0 = acc0.mul_add(Lanes4::from_slice(&r), Lanes4::from_slice(&r));
        k += 4;
    }
    let mut tail = T::ZERO;
    for &rj in &step(k, n - k)[..n - k] {
        tail += rj * rj;
    }
    acc0.add(acc1).add(acc2.add(acc3)).reduce() + tail
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize, scale: f64, offset: f64) -> Vec<f64> {
        (0..n).map(|i| ((i % 13) as f64) * scale - offset).collect()
    }

    fn dot_serial(x: &[f64], y: &[f64]) -> f64 {
        x.iter().zip(y).fold(0.0, |acc, (a, b)| acc + a * b)
    }

    #[test]
    fn policy_defaults_and_labels() {
        assert_eq!(
            DeterminismPolicy::default(),
            DeterminismPolicy::Deterministic
        );
        assert!(!DeterminismPolicy::Deterministic.is_fast());
        assert!(DeterminismPolicy::Fast.is_fast());
        assert_eq!(DeterminismPolicy::Fast.label(), "fast");
        assert_eq!(
            format!("{}", DeterminismPolicy::Deterministic),
            "deterministic"
        );
        assert_eq!(DeterminismPolicy::ALL.len(), 2);
    }

    #[test]
    fn lanes_reduce_order_is_fixed() {
        let l = Lanes4::new([1.0f64, 2.0, 4.0, 8.0]);
        assert_eq!(l.reduce(), (1.0 + 2.0) + (4.0 + 8.0));
        assert_eq!(l.to_array(), [1.0, 2.0, 4.0, 8.0]);
    }

    #[test]
    fn dot_fast_agrees_with_serial_to_ulp_scale() {
        for n in [0usize, 1, 3, 4, 7, 64, 257] {
            let x = seq(n, 0.37, 2.5);
            let y = seq(n, -0.21, 1.0);
            let fast = dot_fast(&x, &y);
            let serial = dot_serial(&x, &y);
            let tol = 1e-12 * (1.0 + serial.abs());
            assert!((fast - serial).abs() <= tol, "n={n}: {fast} vs {serial}");
        }
    }

    #[test]
    fn dot_fast_exact_on_lane_disjoint_sums() {
        // Powers of two sum exactly in any association: fast == serial bitwise.
        let x: Vec<f64> = (0..32).map(|i| (1u64 << (i % 20)) as f64).collect();
        let y = vec![1.0f64; 32];
        assert_eq!(dot_fast(&x, &y).to_bits(), dot_serial(&x, &y).to_bits());
    }

    #[test]
    fn axpy_normsq_fast_updates_y_exactly_and_norm_approximately() {
        for n in [0usize, 2, 4, 9, 130] {
            let x = seq(n, 0.5, 2.0);
            let y0 = seq(n, -0.25, 0.5);
            let alpha = -0.37f64;

            let mut y_fast = y0.clone();
            let nsq_fast = axpy_normsq_fast(alpha, &x, &mut y_fast);

            let mut y_ref = y0;
            let mut nsq_ref = 0.0f64;
            for (yi, &xi) in y_ref.iter_mut().zip(&x) {
                *yi += alpha * xi;
                nsq_ref += *yi * *yi;
            }
            // The vector update is element-wise: bitwise identical.
            for (a, b) in y_fast.iter().zip(&y_ref) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            let tol = 1e-12 * (1.0 + nsq_ref.abs());
            assert!((nsq_fast - nsq_ref).abs() <= tol, "n={n}");
        }
    }

    #[test]
    fn jacobi_step_fast_is_bitwise_the_materialized_update_and_dot_fast() {
        for n in [0usize, 1, 3, 4, 15, 16, 17, 20, 63, 130] {
            let (c, tx) = (seq(n, 0.37, 2.5), seq(n, -0.21, 1.0));
            let (x, d) = (seq(n, 0.5, 2.0), seq(n, 0.3, -1.5));
            let mut x_new = vec![f64::NAN; n];
            let got = jacobi_step_fast(&c, &tx, &x, &d, &mut x_new);
            // The unfused sequence: two axpys with alpha = -1, a hadamard.
            let alpha = -1.0;
            let want_x: Vec<f64> = c.iter().zip(&tx).map(|(c, t)| c + alpha * t).collect();
            let r: Vec<f64> = (0..n).map(|i| d[i] * (want_x[i] + alpha * x[i])).collect();
            assert_eq!(x_new, want_x, "n={n}");
            assert_eq!(got.to_bits(), dot_fast(&r, &r).to_bits(), "n={n}");
        }
    }

    #[test]
    fn norm_sq_fast_is_nonnegative_and_matches_dot() {
        let x = seq(97, 0.31, 1.7);
        let n = norm_sq_fast(&x);
        assert!(n >= 0.0);
        assert_eq!(n.to_bits(), dot_fast(&x, &x).to_bits());
    }
}
