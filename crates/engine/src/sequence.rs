//! Matrix-sequence solving: one engine request per step, plus warm starts.
//!
//! Time-stepping and parameter-continuation workloads solve a *sequence*
//! of systems whose matrices evolve slowly: most steps keep the previous
//! sparsity pattern exactly, and the steps that do change it touch a
//! handful of rows. A [`Sequence`] step is an ordinary engine request:
//!
//! * **One plan path** — the step submits one [`SolveJob`], whose
//!   [`PlanCache`] lookup is the step's only plan path: a pattern the cache
//!   holds is a hit, a new (or evicted) one a miss that analyzes the
//!   matrix in front of it. The sequence holds no plan of its own, so a
//!   step and a plain request of the same matrix run the same solver on
//!   the same artifacts.
//! * **Warm starts** — the previous step's solution seeds the next solve
//!   when its relative residual against the new `(A, b)` is at most `1.0`,
//!   the zero cold start's own residual; a rejection falls back to the
//!   deterministic cold start, so replaying a sequence is bitwise
//!   reproducible either way.
//!
//! ```
//! use acamar_core::{Acamar, AcamarConfig};
//! use acamar_engine::{Engine, PlanAction, SequenceJob};
//! use acamar_fabric::FabricSpec;
//! use acamar_sparse::generate;
//! use std::sync::Arc;
//!
//! let engine = Engine::with_workers(
//!     Acamar::new(FabricSpec::alveo_u55c(), AcamarConfig::paper()),
//!     2,
//! );
//! let a = Arc::new(generate::poisson2d::<f64>(16, 16));
//! let mut seq = engine.open_sequence(Arc::clone(&a));
//! for k in 0..4 {
//!     let rhs = vec![1.0 + k as f64; 256];
//!     let step = seq.step(SequenceJob::new(Arc::clone(&a), rhs)).unwrap();
//!     assert!(step.report.solve.converged());
//!     assert_eq!(step.plan, PlanAction::Reused);
//! }
//! let stats = seq.stats();
//! assert_eq!(stats.plans_reused, 4);
//! assert!(stats.warm_starts_used + stats.warm_starts_rejected >= 1);
//! // The whole sequence ran on one analysis: the open's.
//! assert_eq!(engine.counters().cache.misses, 1);
//! ```
//!
//! [`PlanCache`]: crate::PlanCache

use crate::engine::{Engine, SolveJob};
use crate::error::SolveError;
use crate::fingerprint::PatternFingerprint;
use acamar_core::AcamarRunReport;
use acamar_sparse::{CsrMatrix, CsrPattern, Scalar, SparseError};
use acamar_telemetry::{Counter, EventKind};
use std::sync::Arc;

/// Relative-residual gate `‖b − A·x_prev‖ / ‖b‖` above which the previous
/// solution is rejected in favor of the deterministic cold start: the zero
/// guess's own residual, so a warm start is accepted exactly when it is at
/// least as good as cold.
const WARM_START_MAX_RESIDUAL: f64 = 1.0;

/// One step of a [`Sequence`]: the evolved matrix and its right-hand
/// side. The matrix may differ from the previous step's in values,
/// pattern, or both.
#[derive(Debug, Clone)]
pub struct SequenceJob<T> {
    /// System matrix for this step.
    pub matrix: Arc<CsrMatrix<T>>,
    /// Right-hand side for this step.
    pub rhs: Vec<T>,
}

impl<T: Scalar> SequenceJob<T> {
    /// A step solving `matrix · x = rhs`.
    pub fn new(matrix: Arc<CsrMatrix<T>>, rhs: Vec<T>) -> SequenceJob<T> {
        SequenceJob { matrix, rhs }
    }
}

/// How a step's plan-cache lookup went. Read from the step's batch
/// [`CacheStats`](crate::CacheStats) delta, so on an engine other threads
/// solve on at the same time a concurrent miss can show as this step's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanAction {
    /// The lookup hit: the pattern's cached artifacts served the step.
    Reused,
    /// The lookup missed — a pattern the cache has not seen, has evicted
    /// or found corrupted: the full structure/MSID/compile analysis ran
    /// on the step's matrix.
    Recompiled,
}

/// How a step's initial guess was chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WarmStart {
    /// No previous solution of this shape was available: the
    /// deterministic zero cold start.
    Cold,
    /// The previous solution passed the residual gate and seeded the
    /// solve.
    Used {
        /// Its relative residual `‖b − A·x_prev‖ / ‖b‖` against this
        /// step's system.
        residual: f64,
    },
    /// The previous solution failed the residual gate; the solve cold
    /// started.
    Rejected {
        /// The rejected relative residual.
        residual: f64,
    },
}

/// One solved sequence step: the full run report plus how the plan and
/// initial guess were obtained.
#[derive(Debug, Clone)]
pub struct SequenceStepReport<T> {
    /// The underlying Acamar run report.
    pub report: AcamarRunReport<T>,
    /// How this step's plan-cache lookup went.
    pub plan: PlanAction,
    /// How this step's initial guess was chosen.
    pub warm_start: WarmStart,
}

/// Running totals across a [`Sequence`]'s lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SequenceStats {
    /// Steps submitted (including steps whose solve errored).
    pub steps: u64,
    /// Steps whose plan-cache lookup hit.
    pub plans_reused: u64,
    /// Steps whose plan-cache lookup missed and ran the full analysis.
    pub plans_recompiled: u64,
    /// Steps seeded from the previous solution.
    pub warm_starts_used: u64,
    /// Steps whose previous solution failed the residual gate.
    pub warm_starts_rejected: u64,
    /// Wall-clock nanoseconds the plan cache spent analyzing for this
    /// sequence: the open's miss and every step's.
    pub analysis_nanos: u64,
}

impl SequenceStats {
    /// Mean analysis nanoseconds per step — the quantity the plan cache
    /// amortizes; `0.0` before the first step.
    pub fn plan_nanos_per_step(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.analysis_nanos as f64 / self.steps as f64
        }
    }
}

/// A stateful handle for solving an evolving sequence of systems on one
/// [`Engine`], opened with [`Engine::open_sequence`]. Each step is one
/// engine request, so the plan cache amortizes the analysis; the handle
/// adds the warm start and the current pattern's routing key. Every step
/// solves under
/// [`DeterminismPolicy::Deterministic`](acamar_sparse::DeterminismPolicy).
#[derive(Debug)]
pub struct Sequence<'e, T> {
    engine: &'e Engine,
    /// The previous step's pattern.
    pattern: CsrPattern,
    /// The previous step's solution.
    prev_solution: Option<Vec<T>>,
    stats: SequenceStats,
}

impl Engine {
    /// Opens a solve sequence anchored on `matrix`'s pattern: warms the
    /// plan cache with it (one miss, or a hit if the pattern is cached)
    /// and returns the stateful [`Sequence`] handle.
    pub fn open_sequence<T: Scalar>(&self, matrix: Arc<CsrMatrix<T>>) -> Sequence<'_, T> {
        let before = self.cache().stats();
        self.cache()
            .get_or_analyze_with(self.acamar(), &matrix, self.telemetry());
        Sequence {
            engine: self,
            // Cloned after the lookup digested it, so the clone keeps the
            // digest.
            pattern: matrix.pattern().clone(),
            prev_solution: None,
            stats: SequenceStats {
                analysis_nanos: self.cache().stats().since(&before).analysis_nanos,
                ..SequenceStats::default()
            },
        }
    }
}

impl<'e, T: Scalar> Sequence<'e, T> {
    /// Running totals so far.
    pub fn stats(&self) -> SequenceStats {
        self.stats
    }

    /// Fingerprint of the current pattern — the sticky routing key for
    /// sequence-scoped service requests.
    pub fn fingerprint(&self) -> PatternFingerprint {
        PatternFingerprint::of_pattern(&self.pattern)
    }

    /// Solves one step: gates the warm start on its residual and submits
    /// the step as one engine request.
    ///
    /// # Errors
    ///
    /// Any [`SolveError`] the engine reports for the job. A failed step
    /// leaves the sequence usable: the pattern state advances to the
    /// step's, but the previous *successful* solution is retained for
    /// warm starts.
    pub fn step(&mut self, job: SequenceJob<T>) -> Result<SequenceStepReport<T>, SolveError> {
        let step_index = self.stats.steps;
        let SequenceJob { matrix: a, rhs: b } = job;
        // Digested before the clone, so the clone keeps the digest and the
        // step's plan-cache lookup reads it: a memo read for storage seen
        // before, the step's one digest for fresh storage.
        a.pattern().digest();
        self.pattern = a.pattern().clone();

        let (guess, warm_start) = self.gate_warm_start(&a, &b, step_index)?;

        let mut solve_job = SolveJob::new(a, b);
        if let Some(g) = guess {
            solve_job = solve_job.with_guess(g);
        }
        let mut batch = self.engine.solve_jobs(vec![solve_job]);
        self.stats.steps += 1;
        self.stats.analysis_nanos += batch.cache.analysis_nanos;
        let plan = if batch.cache.misses == 0 {
            self.stats.plans_reused += 1;
            PlanAction::Reused
        } else {
            self.stats.plans_recompiled += 1;
            PlanAction::Recompiled
        };
        let report = batch.results.pop().expect("one job was submitted")?;

        self.prev_solution = Some(report.solve.solution.clone());
        Ok(SequenceStepReport {
            report,
            plan,
            warm_start,
        })
    }

    /// Applies the warm-start residual gate against this step's system.
    fn gate_warm_start(
        &mut self,
        a: &CsrMatrix<T>,
        b: &[T],
        step_index: u64,
    ) -> Result<(Option<Vec<T>>, WarmStart), SolveError> {
        let Some(prev) = &self.prev_solution else {
            return Ok((None, WarmStart::Cold));
        };
        if prev.len() != a.ncols() {
            // Shape changed since the last solution: cold start.
            return Ok((None, WarmStart::Cold));
        }
        let residual = relative_residual(a, b, prev)?;
        if residual.is_finite() && residual <= WARM_START_MAX_RESIDUAL {
            self.engine
                .telemetry()
                .emit(EventKind::WarmStartUsed { step: step_index });
            self.engine
                .telemetry()
                .counter_add(Counter::WarmStartsUsed, 1);
            self.stats.warm_starts_used += 1;
            Ok((Some(prev.clone()), WarmStart::Used { residual }))
        } else {
            self.engine
                .telemetry()
                .emit(EventKind::WarmStartRejected { step: step_index });
            self.engine
                .telemetry()
                .counter_add(Counter::WarmStartsRejected, 1);
            self.stats.warm_starts_rejected += 1;
            Ok((None, WarmStart::Rejected { residual }))
        }
    }
}

/// Relative residual `‖b − A·x‖₂ / ‖b‖₂` of a warm-start candidate `x`,
/// computed by the CSR walk (bitwise the compiled `Deterministic` SpMV)
/// and a fixed-order `f64` accumulation — two replays of the same sequence
/// gate identically, which is what lets a warm-start rejection fall back
/// to a cold start without breaking the bitwise replay contract.
///
/// A zero `b` falls back to the absolute residual norm (an exact solution
/// still gates in); a non-finite residual reports `+∞` so any threshold
/// rejects it.
fn relative_residual<T: Scalar>(a: &CsrMatrix<T>, b: &[T], x: &[T]) -> Result<f64, SparseError> {
    if b.len() != a.nrows() {
        return Err(SparseError::DimensionMismatch {
            expected: a.nrows(),
            found: b.len(),
            what: "warm-start rhs length",
        });
    }
    let ax = a.mul_vec(x)?;
    let mut rr = 0.0f64;
    let mut bb = 0.0f64;
    for (bi, axi) in b.iter().zip(&ax) {
        let bf = bi.to_f64();
        let r = bf - axi.to_f64();
        rr += r * r;
        bb += bf * bf;
    }
    if !rr.is_finite() {
        return Ok(f64::INFINITY);
    }
    let denom = bb.sqrt();
    Ok(if denom > 0.0 {
        rr.sqrt() / denom
    } else {
        rr.sqrt()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use acamar_core::{Acamar, AcamarConfig};
    use acamar_fabric::FabricSpec;
    use acamar_sparse::generate;

    fn engine() -> Engine {
        Engine::with_workers(
            Acamar::new(FabricSpec::alveo_u55c(), AcamarConfig::paper()),
            2,
        )
    }

    /// Drops the symmetric pair `(r, c)`/`(c, r)` from `a`, changing the
    /// pattern in exactly two rows while preserving symmetry and
    /// diagonal dominance.
    fn drop_pair(a: &CsrMatrix<f64>, r: usize, c: usize) -> CsrMatrix<f64> {
        let mut row_ptr = Vec::with_capacity(a.nrows() + 1);
        row_ptr.push(0usize);
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        for i in 0..a.nrows() {
            let (rc, rv) = a.row(i);
            for (&j, &v) in rc.iter().zip(rv) {
                if (i, j) == (r, c) || (i, j) == (c, r) {
                    continue;
                }
                cols.push(j);
                vals.push(v);
            }
            row_ptr.push(cols.len());
        }
        CsrMatrix::try_from_parts(a.nrows(), a.ncols(), row_ptr, cols, vals).unwrap()
    }

    #[test]
    fn fixed_pattern_sequence_reuses_plan_and_warm_starts() {
        let engine = engine();
        let a = Arc::new(generate::poisson2d::<f64>(16, 16));
        let b = vec![1.0; 256];
        let mut seq = engine.open_sequence(Arc::clone(&a));
        let mut first_solution = None;
        for k in 0..4 {
            let step = seq
                .step(SequenceJob::new(Arc::clone(&a), b.clone()))
                .unwrap();
            assert!(step.report.solve.converged());
            assert_eq!(step.plan, PlanAction::Reused);
            match (k, step.warm_start) {
                (0, WarmStart::Cold) => {}
                (_, WarmStart::Used { residual }) => assert!(residual < 1e-3),
                other => panic!("unexpected warm-start state at step {k}: {other:?}"),
            }
            if k == 0 {
                first_solution = Some(step.report.solve.solution.clone());
            }
        }
        let stats = seq.stats();
        assert_eq!(stats.steps, 4);
        assert_eq!(stats.plans_reused, 4);
        assert_eq!(stats.plans_recompiled, 0);
        assert_eq!(stats.warm_starts_used, 3);
        assert_eq!(stats.warm_starts_rejected, 0);
        assert!(stats.plan_nanos_per_step() > 0.0);
        // The whole sequence ran on one analysis...
        assert_eq!(engine.counters().cache.misses, 1);
        // ...and the cold first step is bitwise the plain engine solve.
        let direct = engine.solve_one(&a, &b).unwrap();
        assert_eq!(first_solution.unwrap(), direct.solve.solution);
    }

    #[test]
    fn replaying_a_drifting_sequence_is_bitwise_identical() {
        let drift = [(2, 7, 8), (4, 100, 101), (6, 33, 49), (8, 142, 158)];
        let run = || {
            let engine = engine();
            let a0 = Arc::new(generate::poisson2d::<f64>(16, 16));
            let mut seq = engine.open_sequence(Arc::clone(&a0));
            let mut solutions = Vec::new();
            let mut a = a0;
            for k in 0..10 {
                if let Some(&(_, r, c)) = drift.iter().find(|d| d.0 == k) {
                    a = Arc::new(drop_pair(&a, r, c));
                }
                let b: Vec<f64> = (0..256).map(|i| 1.0 + ((i + k) % 5) as f64).collect();
                let step = seq.step(SequenceJob::new(Arc::clone(&a), b)).unwrap();
                assert_eq!(seq.fingerprint(), PatternFingerprint::of(a.as_ref()));
                solutions.push((step.plan, step.report.solve.solution));
            }
            (solutions, seq.stats())
        };
        let (s1, t1) = run();
        let (s2, t2) = run();
        assert_eq!(s1, s2, "replay must be bitwise identical");
        assert_eq!(t1.warm_starts_used, t2.warm_starts_used);
        assert_eq!((t1.plans_reused, t1.plans_recompiled), (6, 4));
    }

    #[test]
    fn warm_start_gate_rejects_a_solution_worse_than_the_cold_start() {
        let engine = engine();
        let a = Arc::new(generate::poisson2d::<f64>(12, 12));
        let mut seq = engine.open_sequence(Arc::clone(&a));
        seq.step(SequenceJob::new(Arc::clone(&a), vec![1.0; 144]))
            .unwrap();
        // `x` solves `A·x = 1`; against `b = −3` it leaves `b − A·x ≈ −4`
        // in every row, a relative residual of 4/3 — above the cold
        // start's own 1.
        let step = seq
            .step(SequenceJob::new(Arc::clone(&a), vec![-3.0; 144]))
            .unwrap();
        let WarmStart::Rejected { residual } = step.warm_start else {
            panic!("expected a rejection, got {:?}", step.warm_start);
        };
        assert!((residual - 4.0 / 3.0).abs() < 1e-4, "{residual}");
        assert!(step.report.solve.converged());
        assert_eq!(seq.stats().warm_starts_rejected, 1);
        // The rejected step cold-started: bitwise the plain engine solve.
        let cold = engine.solve_one(&a, &vec![-3.0; 144]).unwrap();
        assert_eq!(step.report.solve.solution, cold.solve.solution);
    }
}
