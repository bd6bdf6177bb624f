//! Reusable solver scratch buffers.
//!
//! Every iterative solver in this crate needs a handful of length-`n`
//! work vectors (`r`, `p`, `Ap`, …). Allocating them per solve is cheap
//! once but expensive a million times: batch workloads re-solve the same
//! pattern thousands of times, and the allocator becomes a serial
//! bottleneck the paper's fabric never sees. A [`SolverWorkspace`] keeps
//! returned buffers on a per-length free list so a *warm* solve performs
//! zero heap allocations in the solver loop; the batch engine pools one
//! workspace per worker thread.
//!
//! Buffers are zero-filled on loan, so a solve that borrows from the
//! workspace is bitwise identical to one that allocates fresh.
//!
//! Two buffers are kept apart from the free list: the value arrays of a
//! solver's derived operands (Jacobi's `T`; IC(0)'s `L` and `Lᵀ`, equal in
//! length and alive together), whose length is a property of the
//! *pattern*, not of the row count. A per-length list would strand such
//! arrays per distinct pattern a worker ever saw; the operand slot keeps
//! the two largest returned per scalar type, grow-only, handed out as they
//! are — the fill overwrites every element — so never zero-filled either.

use acamar_sparse::Scalar;
use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// An arena of reusable `Vec<T>` scratch buffers keyed by length.
///
/// The arena is type-erased internally (one free list per scalar type) so
/// a single workspace can serve `f32` and `f64` solves interleaved.
#[derive(Default)]
pub struct SolverWorkspace {
    pools: HashMap<TypeId, Box<dyn Any + Send>>,
    reuses: u64,
    fresh: u64,
}

struct TypedPool<T> {
    free: HashMap<usize, Vec<Vec<T>>>,
    /// The operand-values slot: at most two buffers, the largest returned.
    operand: [Vec<T>; 2],
}

impl SolverWorkspace {
    /// An empty workspace.
    pub fn new() -> SolverWorkspace {
        SolverWorkspace::default()
    }

    /// Borrows a zero-filled buffer of length `n`, recycling a returned
    /// one when available.
    pub fn take<T: Scalar>(&mut self, n: usize) -> Vec<T> {
        let recycled = self
            .pool::<T>()
            .and_then(|p| p.free.get_mut(&n))
            .and_then(Vec::pop);
        match recycled {
            Some(mut buf) => {
                self.reuses += 1;
                buf.fill(T::ZERO);
                buf
            }
            None => {
                self.fresh += 1;
                vec![T::ZERO; n]
            }
        }
    }

    /// Returns a buffer to the free list for later reuse.
    pub fn give<T: Scalar>(&mut self, buf: Vec<T>) {
        if buf.capacity() == 0 {
            return;
        }
        let n = buf.len();
        self.pool_or_default::<T>()
            .free
            .entry(n)
            .or_default()
            .push(buf);
    }

    /// Borrows an operand-values buffer with exactly `len` elements of
    /// *unspecified* content (the caller overwrites them all): the smaller
    /// of the retained buffers that are large enough, counted as a reuse,
    /// or a fresh allocation when neither is.
    fn take_operand_values<T: Scalar>(&mut self, len: usize) -> Vec<T> {
        let fit = self.pool::<T>().and_then(|p| {
            let fits = p.operand.iter_mut().filter(|b| b.capacity() >= len);
            fits.min_by_key(|b| b.capacity()).map(std::mem::take)
        });
        match fit {
            Some(mut buf) => {
                self.reuses += 1;
                buf.resize(len, T::ZERO);
                buf
            }
            None => {
                // A retained buffer that is too small stays where it is:
                // growing it would copy contents nobody reads.
                self.fresh += 1;
                vec![T::ZERO; len]
            }
        }
    }

    /// Returns an operand-values buffer. The slot holds two; of three, the
    /// smallest goes.
    fn give_operand_values<T: Scalar>(&mut self, buf: Vec<T>) {
        let [a, b] = &mut self.pool_or_default::<T>().operand;
        let smallest = if a.capacity() <= b.capacity() { a } else { b };
        if buf.capacity() > smallest.capacity() {
            *smallest = buf;
        }
    }

    fn pool<T: Scalar>(&mut self) -> Option<&mut TypedPool<T>> {
        self.pools
            .get_mut(&TypeId::of::<T>())
            .and_then(|p| p.downcast_mut())
    }

    fn pool_or_default<T: Scalar>(&mut self) -> &mut TypedPool<T> {
        self.pools
            .entry(TypeId::of::<T>())
            .or_insert_with(|| {
                Box::new(TypedPool::<T> {
                    free: HashMap::new(),
                    operand: [Vec::new(), Vec::new()],
                })
            })
            .downcast_mut()
            .expect("pools are keyed by their own element type")
    }

    /// Buffers served from the free list so far.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// Buffers that had to be freshly allocated (pool misses).
    fn fresh_allocations(&self) -> u64 {
        self.fresh
    }
}

impl fmt::Debug for SolverWorkspace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SolverWorkspace")
            .field("reuses", &self.reuses)
            .field("fresh", &self.fresh)
            .finish_non_exhaustive()
    }
}

/// Shared, clonable handle to a [`SolverWorkspace`].
///
/// Kernel executors hold one of these (see
/// [`Kernels::acquire_buffer`](crate::Kernels::acquire_buffer)); the
/// batch engine gives each worker thread its own handle so buffer reuse
/// never contends across workers. The mutex is held only for the
/// duration of a single take/give — a few times per solve, never per
/// iteration.
#[derive(Clone, Debug, Default)]
pub struct WorkspaceHandle {
    inner: Arc<Mutex<SolverWorkspace>>,
}

impl WorkspaceHandle {
    /// A handle to a fresh, empty workspace.
    pub fn new() -> WorkspaceHandle {
        WorkspaceHandle::default()
    }

    /// Borrows a zero-filled buffer of length `n`.
    pub fn take<T: Scalar>(&self, n: usize) -> Vec<T> {
        self.lock().take(n)
    }

    /// Returns a buffer for reuse.
    pub fn give<T: Scalar>(&self, buf: Vec<T>) {
        self.lock().give(buf);
    }

    /// Borrows an operand-values buffer — two grow-only buffers per scalar
    /// type, kept apart from the free list — with exactly `len` elements
    /// of *unspecified* content (the caller overwrites them all).
    pub fn take_operand_values<T: Scalar>(&self, len: usize) -> Vec<T> {
        self.lock().take_operand_values(len)
    }

    /// Returns an operand-values buffer.
    pub fn give_operand_values<T: Scalar>(&self, buf: Vec<T>) {
        self.lock().give_operand_values(buf);
    }

    /// `(reuses, fresh_allocations)` counters of the underlying arena.
    pub fn stats(&self) -> (u64, u64) {
        let ws = self.lock();
        (ws.reuses(), ws.fresh_allocations())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SolverWorkspace> {
        // A poisoned workspace is still structurally valid (worst case a
        // loaned buffer was lost to the panicking solve), so recover
        // rather than cascading the panic into healthy jobs.
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_give_recycles_by_length() {
        let mut ws = SolverWorkspace::new();
        let a: Vec<f64> = ws.take(8);
        assert_eq!(a, vec![0.0; 8]);
        let ptr = a.as_ptr();
        ws.give(a);
        let b: Vec<f64> = ws.take(8);
        assert_eq!(b.as_ptr(), ptr, "same-length buffer is recycled");
        assert_eq!(b, vec![0.0; 8]);
        assert_eq!((ws.reuses(), ws.fresh_allocations()), (1, 1));
        // A different length misses the free list.
        let c: Vec<f64> = ws.take(4);
        assert_eq!(c.len(), 4);
        assert_eq!(ws.fresh_allocations(), 2);
    }

    #[test]
    fn returned_buffers_are_rezeroed() {
        let mut ws = SolverWorkspace::new();
        let mut a: Vec<f32> = ws.take(3);
        a.fill(7.5);
        ws.give(a);
        assert_eq!(ws.take::<f32>(3), vec![0.0; 3]);
    }

    #[test]
    fn scalar_types_do_not_mix() {
        let mut ws = SolverWorkspace::new();
        let a: Vec<f64> = ws.take(5);
        ws.give(a);
        // Same length, different type: must be a fresh allocation.
        let _b: Vec<f32> = ws.take(5);
        assert_eq!(ws.fresh_allocations(), 2);
        assert_eq!(ws.reuses(), 0);
    }

    #[test]
    fn the_operand_slot_is_grow_only_per_type_and_never_zero_fills() {
        let mut ws = SolverWorkspace::new();
        let mut a: Vec<f64> = ws.take_operand_values(8);
        assert_eq!((a.len(), ws.fresh_allocations()), (8, 1));
        a.fill(7.0);
        let ptr = a.as_ptr();
        ws.give_operand_values(a);
        // Shorter or equal: the same allocation, contents as they were.
        let b: Vec<f64> = ws.take_operand_values(5);
        assert_eq!((b.as_ptr(), &b[..]), (ptr, &[7.0; 5][..]));
        ws.give_operand_values(b);
        // Longer: a fresh one, and the slot keeps both.
        let c: Vec<f64> = ws.take_operand_values(20);
        assert_eq!((c.len(), ws.fresh_allocations(), ws.reuses()), (20, 2, 1));
        ws.give_operand_values(c);
        // Of three returned buffers the two largest stay; no free list grows.
        ws.give_operand_values(vec![1.0_f64; 3]);
        assert_eq!(ws.take_operand_values::<f64>(20).capacity(), 20);
        let first: Vec<f64> = ws.take_operand_values(2);
        assert_eq!(first.as_ptr(), ptr);
        assert_eq!(ws.fresh_allocations(), 2);
        // Per scalar type, and apart from the per-length free list.
        assert_eq!(ws.take_operand_values::<f32>(4).len(), 4);
        assert_eq!(ws.fresh_allocations(), 3);
        let _: Vec<f64> = ws.take(20);
        assert_eq!(ws.fresh_allocations(), 4);
    }

    #[test]
    fn the_operand_slot_holds_an_equal_length_pair_and_hands_out_the_tighter_fit() {
        let mut ws = SolverWorkspace::new();
        // A pair alive at once (IC(0)'s L and Lᵀ): two fresh, then none.
        let (l, lt): (Vec<f64>, Vec<f64>) =
            (ws.take_operand_values(12), ws.take_operand_values(12));
        assert_eq!(ws.fresh_allocations(), 2);
        let (l_ptr, lt_ptr) = (l.as_ptr(), lt.as_ptr());
        ws.give_operand_values(l);
        ws.give_operand_values(lt);
        for _ in 0..3 {
            let (l, lt): (Vec<f64>, Vec<f64>) =
                (ws.take_operand_values(12), ws.take_operand_values(12));
            let mut got = [l.as_ptr(), lt.as_ptr()];
            got.sort();
            let mut kept = [l_ptr, lt_ptr];
            kept.sort();
            assert_eq!(got, kept);
            ws.give_operand_values(l);
            ws.give_operand_values(lt);
        }
        assert_eq!((ws.fresh_allocations(), ws.reuses()), (2, 6));
        // A larger single operand (Jacobi's T) displaces one of the pair;
        // the pair's next round then allocates once and settles again.
        let t: Vec<f64> = ws.take_operand_values(30);
        let t_ptr = t.as_ptr();
        ws.give_operand_values(t);
        assert_eq!(ws.fresh_allocations(), 3);
        // The tighter fit goes out first, so the large buffer is still
        // there for the request that needs it.
        let small: Vec<f64> = ws.take_operand_values(10);
        assert_eq!(small.capacity(), 12);
        let large: Vec<f64> = ws.take_operand_values(25);
        assert_eq!(large.as_ptr(), t_ptr);
        assert_eq!(ws.fresh_allocations(), 3);
        ws.give_operand_values(small);
        ws.give_operand_values(large);
        let (l, lt): (Vec<f64>, Vec<f64>) =
            (ws.take_operand_values(12), ws.take_operand_values(12));
        assert_eq!((l.capacity(), lt.capacity()), (12, 30));
        assert_eq!(ws.fresh_allocations(), 3);
    }

    #[test]
    fn handle_is_shared_across_clones() {
        let h = WorkspaceHandle::new();
        let h2 = h.clone();
        h.give(vec![1.0_f64; 6]);
        assert_eq!(h2.take::<f64>(6), vec![0.0; 6]);
        assert_eq!(h2.stats(), (1, 0));
    }
}
