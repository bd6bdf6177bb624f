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
//! function [`dot_fast`] and the [`FastDot`] accumulator behind it are the
//! reassociated reduction the `Fast` tier swaps in for the hot serial folds.
//!
//! Reassociation changes results only in the last few ULP on
//! well-conditioned data (four partial sums instead of one), which is why
//! the `Fast` tier is validated by residual-accuracy and
//! convergence-verdict gates instead of bitwise ones — see DESIGN §4.

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

/// The `Fast` tier's one reduction shape: four independent four-lane
/// partial-sum chains (enough in-flight accumulators to hide the FP-add
/// latency of each), fed sixteen products per step over the aligned body,
/// then four at a time into the first chain, then one at a time into a
/// serial tail; [`finish`](FastDot::finish) folds the chains pairwise,
/// reduces the lanes once and adds the tail.
///
/// Every `Fast` reduction — [`dot_fast`] and each fused pass of the
/// solver kernels — pushes its products through this type over
/// [`reduction_blocks!`]'s walk, so a fused pass returns the bits
/// `dot_fast` computes from the vector it stored, by construction rather
/// than by a second copy of the clean-up logic.
///
/// [`reduction_blocks!`]: crate::reduction_blocks
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FastDot<T> {
    chains: [Lanes4<T>; 4],
    tail: T,
}

impl<T: Scalar> Default for FastDot<T> {
    fn default() -> Self {
        FastDot {
            chains: [Lanes4::zero(); 4],
            tail: T::ZERO,
        }
    }
}

impl<T: Scalar> FastDot<T> {
    /// Adds one block of the walk's products `x[j] * y[j]`: sixteen go four
    /// to a chain, four go to the first chain, one goes to the tail.
    ///
    /// # Panics
    ///
    /// Panics if `products` is not 16, 4 or 1 long.
    #[inline(always)]
    pub fn push(&mut self, products: &[T]) {
        match products.len() {
            16 => {
                for (c, chain) in self.chains.iter_mut().enumerate() {
                    *chain = chain.add(Lanes4::from_slice(&products[4 * c..]));
                }
            }
            4 => self.chains[0] = self.chains[0].add(Lanes4::from_slice(products)),
            1 => self.tail += products[0],
            len => panic!("a reduction block is 16, 4 or 1 long, not {len}"),
        }
    }

    /// The sum: `(c0 + c1) + (c2 + c3)` lane-wise, one horizontal reduce,
    /// plus the tail.
    #[inline]
    pub fn finish(self) -> T {
        let [c0, c1, c2, c3] = self.chains;
        c0.add(c1).add(c2.add(c3)).reduce() + self.tail
    }
}

/// Walks `0..n` in [`FastDot`]'s block sizes — sixteens, then fours, then
/// ones — evaluating the body once per block with `$k` bound to the
/// block's first index and `$len` a *constant* 16, 4 or 1, so each of the
/// three loops is compiled at its own fixed trip count (a closure would
/// leave that to the inliner).
///
/// ```
/// use acamar_sparse::simd::FastDot;
///
/// let x: Vec<f64> = (0..23).map(f64::from).collect();
/// let mut acc = FastDot::default();
/// acamar_sparse::reduction_blocks!(x.len(), |k, LEN| {
///     let mut squares = [0.0; LEN];
///     for (s, v) in squares.iter_mut().zip(&x[k..k + LEN]) {
///         *s = v * v;
///     }
///     acc.push(&squares);
/// });
/// assert_eq!(acc.finish(), acamar_sparse::simd::dot_fast(&x, &x));
/// ```
#[macro_export]
macro_rules! reduction_blocks {
    ($n:expr, |$k:ident, $len:ident| $body:block) => {{
        let n: usize = $n;
        let mut $k = 0usize;
        {
            const $len: usize = 16;
            while $k + $len <= n {
                $body
                $k += $len;
            }
        }
        {
            const $len: usize = 4;
            while $k + $len <= n {
                $body
                $k += $len;
            }
        }
        {
            const $len: usize = 1;
            while $k < n {
                $body
                $k += $len;
            }
        }
    }};
}

/// Reassociated dot product in [`FastDot`]'s shape.
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
    let mut acc = FastDot::default();
    reduction_blocks!(x.len(), |k, LEN| {
        let (x, y) = (&x[k..k + LEN], &y[k..k + LEN]);
        let mut products = [T::ZERO; LEN];
        for j in 0..LEN {
            products[j] = x[j] * y[j];
        }
        acc.push(&products);
    });
    acc.finish()
}

/// Reassociated squared norm: [`dot_fast`]`(x, x)`.
#[inline]
pub fn norm_sq_fast<T: Scalar>(x: &[T]) -> T {
    dot_fast(x, x)
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
    fn dot_fast_keeps_its_written_out_shape_at_every_remainder() {
        // The shape spelled out: four chains over sixteens, fours into the
        // first chain, a serial tail, pairwise fold, one reduce.
        fn spelled_out(x: &[f64], y: &[f64]) -> f64 {
            let lanes = |s: &[f64], k: usize| Lanes4::from_slice(&s[k..]);
            let mut acc = [Lanes4::zero(); 4];
            let mut k = 0;
            while k + 16 <= x.len() {
                for (c, a) in acc.iter_mut().enumerate() {
                    *a = a.mul_add(lanes(x, k + 4 * c), lanes(y, k + 4 * c));
                }
                k += 16;
            }
            while k + 4 <= x.len() {
                acc[0] = acc[0].mul_add(lanes(x, k), lanes(y, k));
                k += 4;
            }
            let mut tail = 0.0;
            for j in k..x.len() {
                tail += x[j] * y[j];
            }
            acc[0].add(acc[1]).add(acc[2].add(acc[3])).reduce() + tail
        }
        for n in (0..=40).chain([63, 64, 130, 257]) {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            let y: Vec<f64> = (0..n).map(|i| 1.0 / (i as f64 + 2.0)).collect();
            assert_eq!(
                dot_fast(&x, &y).to_bits(),
                spelled_out(&x, &y).to_bits(),
                "n={n}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "a reduction block is 16, 4 or 1 long")]
    fn fast_dot_refuses_a_block_outside_its_walk() {
        FastDot::default().push(&[1.0f64; 5]);
    }

    #[test]
    fn norm_sq_fast_is_nonnegative_and_matches_dot() {
        let x = seq(97, 0.31, 1.7);
        let n = norm_sq_fast(&x);
        assert!(n >= 0.0);
        assert_eq!(n.to_bits(), dot_fast(&x, &x).to_bits());
    }
}
