//! The arithmetic of the fused dense passes ([`FusedPass`]), each written
//! once for both determinism tiers.
//!
//! A pass that returns a reduction is generic over the [`Reduction`] it
//! feeds: [`Serial`] is `Deterministic`'s single chain in index order —
//! [`Kernels::dot`]'s fold — and [`FastDot`] is `Fast`'s four-chain shape,
//! `simd::dot_fast`'s. Both are fed one block of products at a time over
//! `reduction_blocks!`'s walk, which the serial chain is indifferent to
//! and the `Fast` shape is defined by, so on either tier a pass returns
//! the bits the tier's `dot` computes from the vectors the pass stored.
//! Products first, sums second, is also what lets the element arithmetic
//! of a block vectorize beside a chain that cannot (the serial CG update
//! at 14 400 elements: 8.8 µs against 15.2 for the one-statement loop).
//! Element arithmetic is spelled exactly as the primitives the pass
//! replaces spell it (`y += alpha * x`, never a rearrangement), which is
//! what keeps the stored vectors bitwise too.
//!
//! [`FusedPass`]: crate::FusedPass
//! [`Kernels::dot`]: crate::Kernels::dot

use acamar_sparse::simd::FastDot;
use acamar_sparse::{reduction_blocks, Scalar};

/// A running dot product, fed block by block.
pub(crate) trait Reduction<T>: Default {
    /// Adds one block of the walk's products `x[j] * y[j]`.
    fn push(&mut self, products: &[T]);
    /// The sum.
    fn finish(self) -> T;
}

/// One dependent chain in index order.
pub(crate) struct Serial<T>(T);

impl<T: Scalar> Default for Serial<T> {
    fn default() -> Self {
        Serial(T::ZERO)
    }
}

impl<T: Scalar> Reduction<T> for Serial<T> {
    #[inline(always)]
    fn push(&mut self, products: &[T]) {
        for &product in products {
            self.0 += product;
        }
    }

    fn finish(self) -> T {
        self.0
    }
}

impl<T: Scalar> Reduction<T> for FastDot<T> {
    #[inline(always)]
    fn push(&mut self, products: &[T]) {
        FastDot::push(self, products);
    }

    fn finish(self) -> T {
        FastDot::finish(self)
    }
}

/// `x_new = c − tx`, returning `‖diag ∘ (x_new − x)‖²`; the difference and
/// its scaling live one block at a time.
pub(crate) fn jacobi_step<T: Scalar, R: Reduction<T>>(
    c: &[T],
    tx: &[T],
    x: &[T],
    diag: &[T],
    x_new: &mut [T],
) -> T {
    let n = x_new.len();
    assert!(
        c.len() == n && tx.len() == n && x.len() == n && diag.len() == n,
        "jacobi step length mismatch"
    );
    let mut acc = R::default();
    reduction_blocks!(n, |k, LEN| {
        let (c, tx, x, diag) = (
            &c[k..k + LEN],
            &tx[k..k + LEN],
            &x[k..k + LEN],
            &diag[k..k + LEN],
        );
        let x_new = &mut x_new[k..k + LEN];
        let mut squares = [T::ZERO; LEN];
        for j in 0..LEN {
            x_new[j] = c[j] + -T::ONE * tx[j];
            let r = diag[j] * (x_new[j] + -T::ONE * x[j]);
            squares[j] = r * r;
        }
        acc.push(&squares);
    });
    acc.finish()
}

/// `w = y + alpha x`.
pub(crate) fn waxpy<T: Scalar>(alpha: T, x: &[T], y: &[T], w: &mut [T]) {
    assert!(
        x.len() == w.len() && y.len() == w.len(),
        "waxpy length mismatch"
    );
    for ((wi, &xi), &yi) in w.iter_mut().zip(x).zip(y) {
        *wi = yi + alpha * xi;
    }
}

/// `(x·x, x·y)`, two serial chains side by side: `Deterministic`'s pair.
/// (`Fast` takes two `dot_fast` sweeps instead — see the caller.)
pub(crate) fn dot_pair<T: Scalar>(x: &[T], y: &[T]) -> (T, T) {
    assert_eq!(x.len(), y.len(), "dot length mismatch");
    let (mut xx, mut xy) = (T::ZERO, T::ZERO);
    for (&xi, &yi) in x.iter().zip(y) {
        xx += xi * xi;
        xy += xi * yi;
    }
    (xx, xy)
}

/// `x += alpha p`, `r += −alpha ap`, returning `r·r`.
pub(crate) fn cg_update<T: Scalar, R: Reduction<T>>(
    alpha: T,
    p: &[T],
    ap: &[T],
    x: &mut [T],
    r: &mut [T],
) -> T {
    let n = r.len();
    assert!(
        p.len() == n && ap.len() == n && x.len() == n,
        "cg update length mismatch"
    );
    let neg_alpha = -alpha;
    let mut rr = R::default();
    reduction_blocks!(n, |k, LEN| {
        let (p, ap) = (&p[k..k + LEN], &ap[k..k + LEN]);
        let (x, r) = (&mut x[k..k + LEN], &mut r[k..k + LEN]);
        let mut rr_k = [T::ZERO; LEN];
        for j in 0..LEN {
            x[j] += alpha * p[j];
            r[j] += neg_alpha * ap[j];
            rr_k[j] = r[j] * r[j];
        }
        rr.push(&rr_k);
    });
    rr.finish()
}

/// `x += alpha p`, `x += omega s`, `r = s + −omega as_`, returning
/// `(r·r, r·r0s)`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn bicgstab_update<T: Scalar, R: Reduction<T>>(
    alpha: T,
    p: &[T],
    omega: T,
    s: &[T],
    as_: &[T],
    r0s: &[T],
    x: &mut [T],
    r: &mut [T],
) -> (T, T) {
    let n = r.len();
    assert!(
        p.len() == n && s.len() == n && as_.len() == n && r0s.len() == n && x.len() == n,
        "bicgstab update length mismatch"
    );
    let neg_omega = -omega;
    let (mut rr, mut rho) = (R::default(), R::default());
    reduction_blocks!(n, |k, LEN| {
        let (p, s, as_, r0s) = (
            &p[k..k + LEN],
            &s[k..k + LEN],
            &as_[k..k + LEN],
            &r0s[k..k + LEN],
        );
        let (x, r) = (&mut x[k..k + LEN], &mut r[k..k + LEN]);
        // The block's updates, then its products: one loop over all five
        // streams and both product arrays does not vectorize (19.3 µs
        // against 10.7 at 14 400 elements).
        for j in 0..LEN {
            x[j] += alpha * p[j];
            x[j] += omega * s[j];
            r[j] = s[j] + neg_omega * as_[j];
        }
        let (mut rr_k, mut rho_k) = ([T::ZERO; LEN], [T::ZERO; LEN]);
        for j in 0..LEN {
            rr_k[j] = r[j] * r[j];
            rho_k[j] = r[j] * r0s[j];
        }
        rr.push(&rr_k);
        rho.push(&rho_k);
    });
    (rr.finish(), rho.finish())
}

/// `p += −omega ap`, then `p = r + beta p`.
pub(crate) fn bicgstab_direction<T: Scalar>(r: &[T], beta: T, omega: T, ap: &[T], p: &mut [T]) {
    assert!(
        r.len() == p.len() && ap.len() == p.len(),
        "bicgstab direction length mismatch"
    );
    let neg_omega = -omega;
    for ((pi, &ri), &api) in p.iter_mut().zip(r).zip(ap) {
        *pi = ri + beta * (*pi + neg_omega * api);
    }
}
