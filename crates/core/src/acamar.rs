//! The Acamar accelerator top level (paper Fig. 3).

use crate::config::AcamarConfig;
use crate::fine_grained::{FineGrainedPlan, FineGrainedReconfigUnit};
use crate::solver_modifier::SolverModifier;
use crate::structure_unit::{MatrixStructureUnit, StructureDecision};
use acamar_fabric::{cost, FabricKernels, FabricRunStats, FabricSpec, HwRun, ResourceVector};
use acamar_faultline::FaultContext;
use acamar_solvers::{
    solve_with, ConvergenceCriteria, DerivedPlan, Outcome, SolveReport, SolverKind, WorkspaceHandle,
};
use acamar_sparse::{CompiledSpmv, CsrMatrix, DeterminismPolicy, Scalar, SparseError};
use acamar_telemetry::TelemetrySink;
use std::sync::Arc;

/// The cacheable product of Acamar's two host-side decision loops: the
/// Matrix Structure unit's solver pick and the Fine-Grained
/// Reconfiguration unit's unroll plan (with its MSID schedule).
///
/// Both depend only on the coefficient matrix — not on the right-hand
/// side — so callers solving many systems against the same matrix (or
/// the same sparsity pattern) can run [`Acamar::analyze`] once and replay
/// the artifacts through [`Acamar::run_with_plan`], amortizing the
/// reconfiguration-decision overhead across solves. The `acamar-engine`
/// crate builds its fingerprint cache on exactly this type.
#[derive(Debug, Clone)]
pub struct AnalysisArtifacts {
    /// The Matrix Structure unit's analysis and initial recommendation.
    pub structure: StructureDecision,
    /// The Fine-Grained Reconfiguration unit's plan.
    pub plan: FineGrainedPlan,
    /// The host SpMV execution plan compiled from the MSID schedule
    /// ([`CompiledSpmv`]): format-specialized row bands, bitwise identical
    /// to the generic CSR walk. Pattern-only — safe to share across
    /// matrices with the same sparsity pattern but different values —
    /// and behind an `Arc` so replaying it per solve costs nothing.
    pub compiled: Arc<CompiledSpmv>,
    /// Memo for what solvers derive from the matrix's pattern: the
    /// [`CompiledSpmv`] of Jacobi's operand (`T = D⁻¹(L + U)`, same rows
    /// and MSID hints, the pattern minus its diagonal), and IC(0)'s
    /// elimination schedule with the two substitution plans over its
    /// factors. Empty after [`Acamar::analyze`] — compiling any of it
    /// there costs every miss the work whether or not that solver ever
    /// runs (+11 % on a cold-pattern request for `T`'s plan alone) — and
    /// filled by the first attempt that needs each part. Pattern-only and
    /// shared by every clone; a cache of derived state, so it takes no
    /// part in equality.
    pub derived: Arc<DerivedPlan>,
}

impl PartialEq for AnalysisArtifacts {
    /// Compares what the analysis decided and compiled; whether `derived`
    /// has been filled yet is not part of an artifact's identity.
    fn eq(&self, other: &Self) -> bool {
        self.structure == other.structure
            && self.plan == other.plan
            && self.compiled == other.compiled
    }
}

/// One solver attempt inside an Acamar run.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveAttempt {
    /// Solver the Reconfigurable Solver unit was configured with.
    pub solver: SolverKind,
    /// Its terminal outcome.
    pub outcome: Outcome,
    /// Loop iterations it performed.
    pub iterations: usize,
}

/// Full report of one Acamar run.
#[derive(Debug, Clone)]
pub struct AcamarRunReport<T> {
    /// The Matrix Structure unit's analysis and initial recommendation.
    pub structure: StructureDecision,
    /// The Fine-Grained Reconfiguration unit's plan (tBuffer, schedule,
    /// MSID effect).
    pub plan: FineGrainedPlan,
    /// Every solver attempt, in order (length > 1 means the Solver
    /// Modifier intervened).
    pub attempts: Vec<SolveAttempt>,
    /// The numerical report of the final attempt.
    pub solve: SolveReport<T>,
    /// Hardware statistics accumulated across *all* attempts.
    pub stats: FabricRunStats,
    /// Kernel clock for time conversion.
    pub clock_mhz: f64,
}

impl<T> AcamarRunReport<T> {
    /// `true` if the run converged (possibly after solver switches).
    pub fn converged(&self) -> bool {
        self.solve.outcome.converged()
    }

    /// The solver that produced the final outcome.
    pub fn final_solver(&self) -> SolverKind {
        self.solve.solver
    }

    /// Number of Solver Decision loop reconfigurations (solver swaps
    /// beyond the initial configuration).
    pub fn solver_switches(&self) -> usize {
        self.attempts.len().saturating_sub(1)
    }

    /// Converts to the common hardware-run view used by the experiment
    /// harnesses (consumes the report).
    pub fn into_hw_run(self) -> HwRun<T> {
        HwRun {
            solve: self.solve,
            stats: self.stats,
            clock_mhz: self.clock_mhz,
        }
    }

    /// Wall-clock seconds of compute (the paper's latency metric).
    pub fn compute_seconds(&self) -> f64 {
        self.stats.cycles.compute() as f64 / (self.clock_mhz * 1e6)
    }

    /// Wall-clock seconds including reconfiguration.
    pub fn total_seconds(&self) -> f64 {
        self.stats.cycles.total() as f64 / (self.clock_mhz * 1e6)
    }
}

/// Per-run overrides for [`Acamar::run_with_plan_opts`].
///
/// The default (`RunOptions::default()`) reproduces
/// [`Acamar::run_with_plan`] exactly; the batch engine's rescue ladder
/// and fault-injection harness are the intended users of the overrides.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Convergence criteria replacing the configuration's (rescue rungs
    /// shrink the iteration budget per step).
    pub criteria: Option<ConvergenceCriteria>,
    /// Force this single solver, bypassing the Matrix Structure pick and
    /// the Solver Modifier loop (used by rescue rungs that escalate to a
    /// specific solver).
    pub solver: Option<SolverKind>,
    /// Fault-injection context threaded down to the fabric kernels.
    pub fault: Option<FaultContext>,
    /// Host-side buffer pool threaded down to the fabric kernels so solver
    /// scratch vectors are recycled across runs (engine workers install
    /// their per-thread pool here). Purely a host optimization: cycle and
    /// FLOP accounting are unchanged.
    pub workspace: Option<WorkspaceHandle>,
    /// Structured telemetry sink threaded down to the fabric kernels
    /// (reconfiguration events, per-set SpMV segments, sampled residuals).
    /// The default disabled sink keeps the run observation-free; any sink
    /// is purely observational — numerics and cycle charges are unchanged.
    pub telemetry: TelemetrySink,
    /// Determinism tier for host arithmetic (see [`DeterminismPolicy`]).
    /// The default `Deterministic` preserves the bitwise replay contract;
    /// `Fast` runs plan-backed SpMV and dense reductions through the
    /// 4-lane reassociated kernels. Cycle and FLOP charges are identical
    /// on both tiers.
    pub policy: DeterminismPolicy,
}

/// The dynamically reconfigurable accelerator.
///
/// # Examples
///
/// ```
/// use acamar_core::{Acamar, AcamarConfig};
/// use acamar_fabric::FabricSpec;
/// use acamar_sparse::generate;
///
/// let a = generate::poisson2d::<f32>(16, 16);
/// let acamar = Acamar::new(FabricSpec::alveo_u55c(), AcamarConfig::paper());
/// let report = acamar.run(&a, &vec![1.0; 256])?;
/// assert!(report.converged());
/// // The stencil has ~5 NNZ/row, so the engine stays well utilized:
/// assert!(report.stats.spmv.underutilization() < 0.3);
/// # Ok::<(), acamar_sparse::SparseError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Acamar {
    spec: FabricSpec,
    config: AcamarConfig,
}

impl Acamar {
    /// Creates an accelerator on `spec` with `config`.
    pub fn new(spec: FabricSpec, config: AcamarConfig) -> Self {
        Acamar { spec, config }
    }

    /// The device specification.
    pub fn spec(&self) -> &FabricSpec {
        &self.spec
    }

    /// The configuration.
    pub fn config(&self) -> &AcamarConfig {
        &self.config
    }

    /// Resource vector of one solver configuration bitstream (control,
    /// dense units, and a DFX region sized for `max_unroll` lanes).
    fn solver_module(&self, max_unroll: usize) -> ResourceVector {
        cost::solver_control_unit() + cost::dense_vector_unit() + cost::spmv_engine(max_unroll)
    }

    /// Solves `A x = b`, reconfiguring solvers until convergence or until
    /// all three solvers have been tried (paper Fig. 3: Solver Decision
    /// loop around the Resource Decision loop).
    ///
    /// # Errors
    ///
    /// Returns [`SparseError`] for shape problems. Robust-convergence
    /// failure (all three solvers diverging) is reported through the
    /// final attempt's `outcome`, not an error.
    pub fn run<T: Scalar>(
        &self,
        a: &CsrMatrix<T>,
        b: &[T],
    ) -> Result<AcamarRunReport<T>, SparseError> {
        self.run_with_guess(a, b, None)
    }

    /// Like [`Acamar::run`] but starting from the initial guess `x0`
    /// (warm start; each solver attempt restarts from it, mirroring the
    /// Solver Modifier triggering the Initialize unit to "reset and
    /// resend the values").
    ///
    /// # Errors
    ///
    /// Returns [`SparseError`] for shape problems.
    pub fn run_with_guess<T: Scalar>(
        &self,
        a: &CsrMatrix<T>,
        b: &[T],
        x0: Option<&[T]>,
    ) -> Result<AcamarRunReport<T>, SparseError> {
        let artifacts = self.analyze(a);
        self.run_with_plan(a, b, x0, &artifacts)
    }

    /// Runs both host-side decision loops — the Matrix Structure unit and
    /// the Fine-Grained Reconfiguration unit (with its MSID chain) —
    /// without solving anything, returning the cacheable artifacts.
    ///
    /// The artifacts depend only on `a`; pair with
    /// [`Acamar::run_with_plan`] to amortize this analysis across many
    /// right-hand sides or many solves sharing a sparsity pattern.
    pub fn analyze<T: Scalar>(&self, a: &CsrMatrix<T>) -> AnalysisArtifacts {
        // The Matrix Structure, Fine-Grained Reconfiguration, and
        // Initialize units "have no dependencies and run concurrently"
        // (paper §IV); their latency is host-side and overlapped, so only
        // fabric work is charged cycles.
        let structure = MatrixStructureUnit::new().analyze(a);
        let plan = FineGrainedReconfigUnit::new(self.config.clone()).plan(a);
        let hints = plan.schedule.band_hints();
        let compiled = Arc::new(
            CompiledSpmv::compile(a, &hints).expect("MSID schedules always tile the matrix rows"),
        );
        AnalysisArtifacts {
            structure,
            plan,
            compiled,
            derived: Arc::new(DerivedPlan::new(hints)),
        }
    }

    /// Like [`Acamar::run_with_guess`], but replaying previously built
    /// [`AnalysisArtifacts`] instead of re-running the decision loops —
    /// the cache-hit fast path of the batch engine.
    ///
    /// The caller asserts the artifacts were built for a matrix with
    /// `a`'s sparsity pattern (the unroll schedule must tile `a`'s rows);
    /// a mismatched row count is rejected.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError`] for shape problems, including artifacts
    /// whose schedule does not cover `a`'s rows.
    pub fn run_with_plan<T: Scalar>(
        &self,
        a: &CsrMatrix<T>,
        b: &[T],
        x0: Option<&[T]>,
        artifacts: &AnalysisArtifacts,
    ) -> Result<AcamarRunReport<T>, SparseError> {
        self.run_with_plan_opts(a, b, x0, artifacts, RunOptions::default())
    }

    /// Rejects non-finite values and shape mismatches before any fabric
    /// work is charged: garbage inputs must fail typed, not propagate.
    fn validate_inputs<T: Scalar>(
        a: &CsrMatrix<T>,
        b: &[T],
        x0: Option<&[T]>,
    ) -> Result<(), SparseError> {
        if b.len() != a.nrows() {
            return Err(SparseError::DimensionMismatch {
                expected: a.nrows(),
                found: b.len(),
                what: "right-hand side length",
            });
        }
        if let Some(index) = b.iter().position(|v| !v.is_finite()) {
            return Err(SparseError::NonFiniteValue {
                what: "right-hand side",
                index,
            });
        }
        if let Some(x0) = x0 {
            if x0.len() != a.nrows() {
                return Err(SparseError::DimensionMismatch {
                    expected: a.nrows(),
                    found: x0.len(),
                    what: "initial guess length",
                });
            }
            if let Some(index) = x0.iter().position(|v| !v.is_finite()) {
                return Err(SparseError::NonFiniteValue {
                    what: "initial guess",
                    index,
                });
            }
        }
        Ok(())
    }

    /// [`Acamar::run_with_plan`] with per-run overrides: replacement
    /// convergence criteria, a forced single solver, and a
    /// fault-injection context (see [`RunOptions`]). With default options
    /// the behavior — down to every charged cycle — is identical to
    /// [`Acamar::run_with_plan`].
    ///
    /// # Errors
    ///
    /// Returns [`SparseError`] for shape problems, non-finite inputs
    /// ([`SparseError::NonFiniteValue`]), and artifacts whose schedule
    /// does not cover `a`'s rows.
    pub fn run_with_plan_opts<T: Scalar>(
        &self,
        a: &CsrMatrix<T>,
        b: &[T],
        x0: Option<&[T]>,
        artifacts: &AnalysisArtifacts,
        opts: RunOptions,
    ) -> Result<AcamarRunReport<T>, SparseError> {
        Self::validate_inputs(a, b, x0)?;
        let structure = artifacts.structure.clone();
        let plan = artifacts.plan.clone();
        let planned_rows = plan.schedule.entries().last().map_or(0, |e| e.rows.end);
        if planned_rows != a.nrows() {
            return Err(SparseError::DimensionMismatch {
                expected: a.nrows(),
                found: planned_rows,
                what: "planned schedule rows",
            });
        }

        let criteria = opts.criteria.unwrap_or(self.config.criteria);
        let mut hw = FabricKernels::new(
            self.spec.clone(),
            plan.schedule.clone(),
            self.config.init_unroll,
        )
        .with_overlap(self.config.overlap_reconfiguration)
        .with_compiled_plan(Arc::clone(&artifacts.compiled))
        .with_derived_plan(Arc::clone(&artifacts.derived))
        .with_policy(opts.policy);
        if let Some(ctx) = opts.fault {
            hw = hw.with_fault_context(ctx);
        }
        if let Some(ws) = opts.workspace {
            hw = hw.with_workspace(ws);
        }
        if opts.telemetry.enabled() {
            hw = hw.with_telemetry(opts.telemetry);
        }
        let mut attempts = Vec::new();
        let module = self.solver_module(plan.schedule.max_unroll());

        // A forced solver (a rescue rung) runs alone; otherwise the Solver
        // Modifier cycles from the Matrix Structure unit's pick.
        let mut modifier = SolverModifier::new(opts.solver.unwrap_or(structure.solver));
        let budget = if opts.solver.is_some() { 1 } else { usize::MAX };
        let mut last: Option<SolveReport<T>> = None;
        for kind in std::iter::from_fn(|| modifier.next_solver()).take(budget) {
            // Host configures the Reconfigurable Solver region.
            hw.charge_solver_reconfig(&module);
            hw.begin_attempt();
            let report = solve_with(kind, a, b, x0, &criteria, &mut hw)?;
            attempts.push(SolveAttempt {
                solver: kind,
                outcome: report.outcome,
                iterations: report.iterations,
            });
            let done = report.outcome.converged();
            last = Some(report);
            if done {
                break;
            }
        }

        let solve = last.expect("at least one attempt always runs");
        Ok(AcamarRunReport {
            structure,
            plan,
            attempts,
            solve,
            stats: hw.finish(),
            clock_mhz: self.spec.clock_mhz,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acamar_solvers::ConvergenceCriteria;
    use acamar_sparse::generate::{self, RowDistribution};

    fn acamar() -> Acamar {
        let cfg = AcamarConfig::paper()
            .with_criteria(ConvergenceCriteria::paper().with_max_iterations(2000));
        Acamar::new(FabricSpec::alveo_u55c(), cfg)
    }

    #[test]
    fn converges_first_try_on_dominant_matrix() {
        let a = generate::diagonally_dominant::<f32>(
            200,
            RowDistribution::Uniform { min: 2, max: 10 },
            1.5,
            3,
        );
        let b = vec![1.0_f32; 200];
        let rep = acamar().run(&a, &b).unwrap();
        assert!(rep.converged());
        assert_eq!(rep.attempts.len(), 1);
        assert_eq!(rep.final_solver(), SolverKind::Jacobi);
        assert_eq!(rep.solver_switches(), 0);
    }

    #[test]
    fn solver_modifier_rescues_divergent_first_choice() {
        // Symmetric indefinite: structure unit picks CG (symmetry only),
        // CG breaks down, the modifier switches — robust convergence.
        let a = generate::jacobi_divergent_spd::<f32>(90, 0.7, 0, 0.0, 5);
        // make it indefinite-free: actually use a matrix where CG works
        // but Jacobi (picked first for dominance) fails: impossible since
        // dominance implies Jacobi converges. Instead: symmetric,
        // non-dominant, indefinite -> CG first, fails, BiCG/JB next.
        let a_indef = generate::spread_spectrum_blocks::<f32>(120, 0.45, 10.0, true, 7);
        let d = MatrixStructureUnit::new().analyze(&a_indef);
        let _ = a;
        if d.report.strictly_diagonally_dominant {
            // dominance held, Jacobi will just converge; nothing to test
            return;
        }
        let b = vec![1.0_f32; 120];
        let rep = acamar().run(&a_indef, &b).unwrap();
        assert!(rep.converged(), "attempts: {:?}", rep.attempts);
        assert!(rep.solver_switches() >= 1);
        assert!(!rep.attempts[0].outcome.converged());
    }

    #[test]
    fn rejects_non_finite_inputs_with_typed_errors() {
        let a = generate::poisson2d::<f32>(4, 4);
        let mut b = vec![1.0_f32; 16];
        b[5] = f32::NAN;
        let err = acamar().run(&a, &b).unwrap_err();
        assert_eq!(
            err,
            SparseError::NonFiniteValue {
                what: "right-hand side",
                index: 5
            }
        );
        let b = vec![1.0_f32; 16];
        let mut x0 = vec![0.0_f32; 16];
        x0[2] = f32::INFINITY;
        let err = acamar().run_with_guess(&a, &b, Some(&x0)).unwrap_err();
        assert_eq!(
            err,
            SparseError::NonFiniteValue {
                what: "initial guess",
                index: 2
            }
        );
    }

    #[test]
    fn rejects_dimension_mismatches_before_solving() {
        let a = generate::poisson2d::<f32>(4, 4);
        let err = acamar().run(&a, &[1.0_f32; 15]).unwrap_err();
        assert!(matches!(
            err,
            SparseError::DimensionMismatch {
                what: "right-hand side length",
                ..
            }
        ));
        let b = vec![1.0_f32; 16];
        let err = acamar()
            .run_with_guess(&a, &b, Some(&[0.0_f32; 3]))
            .unwrap_err();
        assert!(matches!(
            err,
            SparseError::DimensionMismatch {
                what: "initial guess length",
                ..
            }
        ));
    }

    #[test]
    fn forced_solver_runs_exactly_one_attempt() {
        let a = generate::poisson2d::<f32>(8, 8);
        let b = vec![1.0_f32; 64];
        let ac = acamar();
        let artifacts = ac.analyze(&a);
        let opts = RunOptions {
            solver: Some(SolverKind::Gmres),
            ..RunOptions::default()
        };
        let rep = ac
            .run_with_plan_opts(&a, &b, None, &artifacts, opts)
            .unwrap();
        assert_eq!(rep.attempts.len(), 1);
        assert_eq!(rep.final_solver(), SolverKind::Gmres);
        assert!(rep.converged());
    }

    #[test]
    fn analysis_artifacts_carry_a_valid_compiled_spmv_plan() {
        let a = generate::random_pattern::<f64>(
            300,
            RowDistribution::PowerLaw {
                min: 1,
                max: 40,
                exponent: 2.0,
            },
            11,
        );
        let ac = acamar();
        let artifacts = ac.analyze(&a);
        // The plan was compiled for this exact pattern and tiles every row.
        assert!(artifacts.compiled.matches(&a));
        assert!(artifacts.compiled.verify_pattern(&a));
        // Pattern-only: a same-pattern matrix with different values reuses
        // the cached plan, which is what PlanCache relies on.
        let mut scaled = a.clone();
        for v in scaled.values_mut() {
            *v *= 3.5;
        }
        assert!(artifacts.compiled.matches(&scaled));
        assert!(artifacts.compiled.verify_pattern(&scaled));
        // And executing through it is bitwise the generic CSR walk.
        let x: Vec<f64> = (0..300).map(|i| ((i % 13) as f64) - 6.0).collect();
        let mut y = vec![0.0_f64; 300];
        artifacts
            .compiled
            .execute(DeterminismPolicy::Deterministic, &scaled, &x, &mut y)
            .unwrap();
        assert_eq!(y, scaled.mul_vec(&x).unwrap());
    }

    #[test]
    fn default_options_replay_the_plain_run_exactly() {
        let a = generate::poisson2d::<f32>(10, 10);
        let b = vec![1.0_f32; 100];
        let ac = acamar();
        let artifacts = ac.analyze(&a);
        let plain = ac.run_with_plan(&a, &b, None, &artifacts).unwrap();
        let opted = ac
            .run_with_plan_opts(&a, &b, None, &artifacts, RunOptions::default())
            .unwrap();
        assert_eq!(plain.solve.solution, opted.solve.solution);
        assert_eq!(plain.solve.iterations, opted.solve.iterations);
        assert_eq!(plain.stats.cycles, opted.stats.cycles);
    }

    #[test]
    fn the_first_forced_pcg_memoises_the_triangular_plans_of_the_pattern() {
        let a = generate::poisson2d::<f64>(9, 7);
        let artifacts = acamar().analyze(&a);
        assert!(artifacts.derived.sptrsv().is_none(), "analysis builds none");
        assert_eq!(forced_pcg_preconditioner(&a, &artifacts), (true, 9 + 7 - 1));
        let (lower, upper) = &**artifacts.derived.sptrsv().expect("memoised");
        assert!(lower.matches(&a) && upper.matches(&a));
        assert!(lower.verify_pattern(&a) && upper.verify_pattern(&a));
        // Nonsymmetric values on the pattern factor all the same (IC(0)
        // reads the lower triangle), and memoise their plans too.
        let mut skewed = a.clone();
        let first_of_row_3 = a.row_ptr()[3];
        assert!(a.col_idx()[first_of_row_3] < 3);
        skewed.values_mut()[first_of_row_3] *= 1.25;
        let artifacts = acamar().analyze(&skewed);
        let report = &artifacts.structure.report;
        assert!(report.pattern_symmetric && !report.symmetric);
        assert!(forced_pcg_preconditioner(&skewed, &artifacts).0);
        assert!(artifacts.derived.sptrsv().is_some());
    }

    #[test]
    fn forced_pcg_converges_and_beats_cg() {
        let a = generate::poisson2d::<f64>(12, 12);
        let b = vec![1.0_f64; 144];
        let ac = acamar();
        let artifacts = ac.analyze(&a);
        let opts = RunOptions {
            solver: Some(SolverKind::PreconditionedCg),
            ..RunOptions::default()
        };
        let rep = ac
            .run_with_plan_opts(&a, &b, None, &artifacts, opts)
            .unwrap();
        assert!(rep.converged());
        assert_eq!(rep.final_solver(), SolverKind::PreconditionedCg);
        // IC(0) should beat plain CG on the Poisson stencil.
        let cg = ac
            .run_with_plan_opts(
                &a,
                &b,
                None,
                &artifacts,
                RunOptions {
                    solver: Some(SolverKind::ConjugateGradient),
                    ..RunOptions::default()
                },
            )
            .unwrap();
        assert!(
            rep.solve.iterations < cg.solve.iterations,
            "IC(0)-PCG {} vs CG {}",
            rep.solve.iterations,
            cg.solve.iterations
        );
    }

    /// The `(ic0, levels)` of the one `PreconditionerSelected` event a
    /// forced PCG run on `artifacts` emits.
    fn forced_pcg_preconditioner(a: &CsrMatrix<f64>, artifacts: &AnalysisArtifacts) -> (bool, u32) {
        use acamar_telemetry::{EventKind, RingRecorder};
        let ring = Arc::new(RingRecorder::new(1 << 12));
        let opts = RunOptions {
            solver: Some(SolverKind::PreconditionedCg),
            telemetry: TelemetrySink::new(Arc::clone(&ring) as Arc<_>),
            ..RunOptions::default()
        };
        let b = vec![1.0_f64; a.nrows()];
        acamar()
            .run_with_plan_opts(a, &b, None, artifacts, opts)
            .unwrap();
        let selected: Vec<(bool, u32)> = ring
            .drain()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::PreconditionerSelected { ic0, levels } => Some((ic0, levels)),
                _ => None,
            })
            .collect();
        assert_eq!(selected.len(), 1, "one event per forced PCG run");
        selected[0]
    }

    #[test]
    fn preconditioner_selected_reports_what_ran() {
        // SPD: IC(0) on the plans the first run memoised, then on the same
        // plans again.
        let spd = generate::poisson2d::<f64>(12, 9);
        let artifacts = acamar().analyze(&spd);
        assert_eq!(
            forced_pcg_preconditioner(&spd, &artifacts),
            (true, 12 + 9 - 1)
        );
        let plans = Arc::clone(artifacts.derived.sptrsv().unwrap());
        assert_eq!(plans.0.level_count(), 12 + 9 - 1);
        assert_eq!(
            forced_pcg_preconditioner(&spd, &artifacts),
            (true, 12 + 9 - 1)
        );
        assert!(Arc::ptr_eq(artifacts.derived.sptrsv().unwrap(), &plans));

        // Symmetric indefinite: the factor breaks down at the first pivot,
        // Jacobi scaling runs, and no plans are memoised.
        let indefinite = spd.scale(-1.0);
        let artifacts = acamar().analyze(&indefinite);
        assert_eq!(
            forced_pcg_preconditioner(&indefinite, &artifacts),
            (false, 0)
        );
        assert!(artifacts.derived.sptrsv().is_none());
    }

    fn forced_pcg(a: &CsrMatrix<f64>, b: &[f64]) -> Result<AcamarRunReport<f64>, SparseError> {
        let opts = RunOptions {
            solver: Some(SolverKind::PreconditionedCg),
            ..RunOptions::default()
        };
        let ac = acamar();
        ac.run_with_plan_opts(a, b, None, &ac.analyze(a), opts)
    }

    #[test]
    fn forced_pcg_survives_a_breakdown_and_refuses_or_rejects_non_finite_input() {
        // Kershaw's matrix is SPD (eigenvalues 3 ± 2√2), yet IC(0) on its
        // pattern meets a negative pivot at row 3: Jacobi scaling runs.
        let mut coo = acamar_sparse::CooMatrix::new(4, 4);
        let rows = [
            [3.0, -2.0, 0.0, 2.0],
            [-2.0, 3.0, -2.0, 0.0],
            [0.0, -2.0, 3.0, -2.0],
            [2.0, 0.0, -2.0, 3.0],
        ];
        for (i, row) in rows.iter().enumerate() {
            for (j, &v) in row.iter().enumerate().filter(|(_, &v)| v != 0.0) {
                coo.push(i, j, v).unwrap();
            }
        }
        let kershaw: CsrMatrix<f64> = coo.to_csr();
        assert_eq!(
            acamar_solvers::Ic0::factor(&kershaw).err(),
            Some(SparseError::ZeroDiagonal { row: 3 })
        );
        let artifacts = acamar().analyze(&kershaw);
        assert_eq!(forced_pcg_preconditioner(&kershaw, &artifacts), (false, 0));
        let rep = forced_pcg(&kershaw, &[1.0, -2.0, 0.5, 4.0]).unwrap();
        assert!(rep.converged(), "{:?}", rep.solve.outcome);
        assert_eq!(rep.final_solver(), SolverKind::PreconditionedCg);

        let a = generate::poisson2d::<f64>(6, 6);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            // In b: a typed error before any work.
            let mut b = vec![1.0; 36];
            b[7] = bad;
            assert_eq!(
                forced_pcg(&a, &b).err(),
                Some(SparseError::NonFiniteValue {
                    what: "right-hand side",
                    index: 7,
                }),
                "{bad} in b"
            );
            // On A's diagonal, first, middle and last row: IC(0) refuses
            // the pivot, and what runs instead ends in a verdict that is
            // not convergence (or a typed error) — never a panic, never a
            // non-finite x reported as converged.
            for row in [0, 17, 35] {
                let mut m = a.clone();
                let slot = (m.row_ptr()[row]..m.row_ptr()[row + 1])
                    .find(|&k| m.col_idx()[k] == row)
                    .unwrap();
                m.values_mut()[slot] = bad;
                assert_eq!(
                    forced_pcg_preconditioner(&m, &acamar().analyze(&m)),
                    (false, 0),
                    "{bad} at ({row}, {row}) is a breakdown"
                );
                if let Ok(rep) = forced_pcg(&m, &[1.0; 36]) {
                    assert!(
                        !rep.converged(),
                        "{bad} at ({row}, {row}): {:?}",
                        rep.solve.outcome
                    );
                }
            }
        }
    }

    #[test]
    fn every_attempt_charges_a_solver_reconfiguration() {
        let a = generate::poisson2d::<f32>(10, 10);
        let b = vec![1.0_f32; 100];
        let rep = acamar().run(&a, &b).unwrap();
        assert!(rep.stats.cycles.reconfig > 0);
        assert_eq!(rep.attempts.len(), 1);
    }

    #[test]
    fn report_time_accessors_are_consistent() {
        let a = generate::poisson2d::<f32>(8, 8);
        let rep = acamar().run(&a, &vec![1.0_f32; 64]).unwrap();
        assert!(rep.total_seconds() >= rep.compute_seconds());
        let hw = rep.into_hw_run();
        assert!(hw.gflops() > 0.0);
    }

    #[test]
    fn acamar_beats_oversized_static_baseline_on_utilization() {
        use acamar_fabric::StaticAccelerator;
        let a = generate::diagonally_dominant::<f32>(
            512,
            RowDistribution::Uniform { min: 2, max: 8 },
            1.5,
            11,
        );
        let b = vec![1.0_f32; 512];
        let rep = acamar().run(&a, &b).unwrap();
        let baseline = StaticAccelerator::new(FabricSpec::alveo_u55c(), SolverKind::Jacobi, 32)
            .run(&a, &b, &acamar().config().criteria)
            .unwrap();
        assert!(rep.converged() && baseline.solve.converged());
        assert!(
            rep.stats.spmv.underutilization() < baseline.stats.spmv.underutilization(),
            "acamar {} vs baseline {}",
            rep.stats.spmv.underutilization(),
            baseline.stats.spmv.underutilization()
        );
    }

    #[test]
    fn overlapped_reconfiguration_never_increases_total_time() {
        // A workload with several unroll changes per pass.
        let a = generate::random_pattern::<f32>(
            600,
            RowDistribution::Bimodal {
                low: 3,
                high: 40,
                high_fraction: 0.3,
            },
            13,
        );
        let dd = generate::diagonally_dominant::<f32>(
            600,
            RowDistribution::Bimodal {
                low: 3,
                high: 40,
                high_fraction: 0.3,
            },
            1.5,
            13,
        );
        let _ = a;
        let b = vec![1.0_f32; 600];
        let criteria = ConvergenceCriteria::paper().with_max_iterations(2000);
        let serial = Acamar::new(
            FabricSpec::alveo_u55c(),
            AcamarConfig::paper().with_criteria(criteria),
        )
        .run(&dd, &b)
        .unwrap();
        let overlapped = Acamar::new(
            FabricSpec::alveo_u55c(),
            AcamarConfig::paper()
                .with_criteria(criteria)
                .with_overlap(true),
        )
        .run(&dd, &b)
        .unwrap();
        assert!(serial.converged() && overlapped.converged());
        assert_eq!(
            serial.stats.cycles.compute(),
            overlapped.stats.cycles.compute(),
            "overlap must not change compute"
        );
        assert!(
            overlapped.stats.cycles.reconfig <= serial.stats.cycles.reconfig,
            "overlap {} vs serial {}",
            overlapped.stats.cycles.reconfig,
            serial.stats.cycles.reconfig
        );
    }

    #[test]
    fn unsolvable_by_all_three_reports_divergence() {
        // Non-symmetric, non-dominant, and hostile to BiCG-STAB too:
        // scale a spread indefinite matrix and perturb symmetry.
        let base = generate::spread_spectrum_blocks::<f64>(150, 0.45, 1e5, true, 9);
        let ns = generate::nonsymmetric_perturbation(&base, 0.5, 10);
        let a: acamar_sparse::CsrMatrix<f32> = ns.cast();
        let b = vec![1.0_f32; 150];
        let cfg = AcamarConfig::paper()
            .with_criteria(ConvergenceCriteria::paper().with_max_iterations(400));
        let rep = Acamar::new(FabricSpec::alveo_u55c(), cfg)
            .run(&a, &b)
            .unwrap();
        if !rep.converged() {
            assert_eq!(rep.attempts.len(), 3, "should try all solvers");
        }
    }
}
