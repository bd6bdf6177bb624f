//! Matrix-sequence solving: plan reuse, band patching, and warm starts.
//!
//! Time-stepping and parameter-continuation workloads solve a *sequence*
//! of systems whose matrices evolve slowly: most steps keep the previous
//! sparsity pattern exactly, and the steps that do change it touch a
//! handful of rows. A [`Sequence`] exploits both regularities:
//!
//! * **Plan reuse** — a step whose pattern is unchanged reuses the cached
//!   artifacts of its pattern through the [`PlanCache`] lookup path, so
//!   eviction is always an honest miss and never a dangling reuse.
//! * **Band patching** — a step whose pattern changed in few rows patches
//!   only the affected [`CompiledSpmv`](acamar_sparse::CompiledSpmv)
//!   bands via [`CompiledSpmv::patch`](acamar_sparse::CompiledSpmv::patch)
//!   (the MSID `band_hints()` boundaries, cut into 64-row tiles, are the
//!   patch units), skipping the full structure/MSID re-analysis. A delta
//!   dirtying more than a quarter of the rows falls back to a full
//!   recompile, as does a shape change or an evicted base plan.
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
//! let mut seq = engine.open_sequence(Arc::clone(&a)).unwrap();
//! for k in 0..4 {
//!     let rhs = vec![1.0 + k as f64; 256];
//!     let step = seq.step(SequenceJob::new(Arc::clone(&a), rhs)).unwrap();
//!     assert!(step.report.solve.converged());
//!     assert_eq!(step.plan, PlanAction::Reused);
//! }
//! let stats = seq.stats();
//! assert_eq!(stats.plans_reused, 4);
//! assert!(stats.warm_starts_used + stats.warm_starts_rejected >= 1);
//! // The whole sequence ran on one analysis.
//! assert_eq!(engine.counters().cache.misses, 1);
//! ```
//!
//! [`PlanCache`]: crate::PlanCache

use crate::engine::{Engine, SolveJob};
use crate::error::SolveError;
use crate::fingerprint::PatternFingerprint;
use acamar_core::{AcamarRunReport, AnalysisArtifacts};
use acamar_sparse::{BandHint, CompiledSpmv, CsrMatrix, PatternDelta, Scalar};
use acamar_telemetry::{Counter, EventKind};
use std::sync::Arc;
use std::time::Instant;

/// Relative-residual gate `‖b − A·x_prev‖ / ‖b‖` above which the previous
/// solution is rejected in favor of the deterministic cold start: the zero
/// guess's own residual, so a warm start is accepted exactly when it is at
/// least as good as cold.
const WARM_START_MAX_RESIDUAL: f64 = 1.0;

/// Largest fraction of dirty rows a pattern delta may touch and still be
/// band-patched; larger deltas re-run the full analysis.
const PATCH_MAX_DIRTY_FRACTION: f64 = 0.25;

/// Patch-unit granularity: MSID hints wider than this many rows are split
/// into tiles of at most this size when the sequence (re)compiles its
/// plan, so a small delta recompiles one tile instead of one monolithic
/// hint. The MSID schedule legitimately emits hints spanning most of a
/// structurally uniform matrix — useless as patch units — and per-row SpMV
/// accumulation is band-local, so retiling cannot change results.
const PATCH_TILE_ROWS: usize = 64;

/// One step of a [`Sequence`]: the evolved matrix and its right-hand
/// side. The matrix may differ from the previous step's in values,
/// pattern, or both — the sequence diffs patterns itself.
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

/// How a step obtained its execution plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanAction {
    /// Pattern unchanged: the pattern's cached artifacts were reused (via
    /// the honest cache-lookup path).
    Reused,
    /// Small pattern delta: only the dirty bands of the compiled SpMV
    /// plan were recompiled and spliced.
    Patched {
        /// Rows whose pattern differed from the previous step.
        dirty_rows: usize,
    },
    /// Pattern changed too much (or the base plan was evicted): the full
    /// structure/MSID/compile analysis ran.
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
    /// How this step's execution plan was obtained.
    pub plan: PlanAction,
    /// How this step's initial guess was chosen.
    pub warm_start: WarmStart,
}

/// Running totals across a [`Sequence`]'s lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SequenceStats {
    /// Steps submitted (including steps whose solve errored).
    pub steps: u64,
    /// Steps that reused the cached plan unchanged.
    pub plans_reused: u64,
    /// Steps that band-patched the previous plan.
    pub plans_patched: u64,
    /// Steps (plus the open) that ran the full analysis.
    pub plans_recompiled: u64,
    /// Steps seeded from the previous solution.
    pub warm_starts_used: u64,
    /// Steps whose previous solution failed the residual gate.
    pub warm_starts_rejected: u64,
    /// Wall-clock nanoseconds spent band-patching.
    pub patch_nanos: u64,
    /// Wall-clock nanoseconds spent in full cache lookups/analyses (the
    /// open, reuse lookups, and recompiles).
    pub analysis_nanos: u64,
}

impl SequenceStats {
    /// Mean analyze+compile nanoseconds per step — the quantity the
    /// sequence amortizes. Counts both full analyses and patches; `0.0`
    /// before the first step.
    pub fn plan_nanos_per_step(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            (self.analysis_nanos + self.patch_nanos) as f64 / self.steps as f64
        }
    }
}

/// A stateful handle for solving an evolving sequence of systems on one
/// [`Engine`], opened with [`Engine::open_sequence`]. It amortizes the
/// per-step cost three ways: plan reuse, band patching and warm starts.
/// Every step solves under
/// [`DeterminismPolicy::Deterministic`](acamar_sparse::DeterminismPolicy).
#[derive(Debug)]
pub struct Sequence<'e, T> {
    engine: &'e Engine,
    /// The previous step's pattern.
    pattern: Arc<CsrMatrix<T>>,
    /// Fingerprint of `pattern`.
    fingerprint: PatternFingerprint,
    /// The current plan artifacts.
    artifacts: Arc<AnalysisArtifacts>,
    /// Band-hint tiling of the current plan — the patch units: the MSID
    /// hints refined to [`PATCH_TILE_ROWS`] granularity. Refreshed on
    /// recompile, deliberately kept across patches (a patched plan is
    /// still tiled by its ancestor's hints).
    hints: Vec<BandHint>,
    /// The previous step's solution.
    prev_solution: Option<Vec<T>>,
    stats: SequenceStats,
}

/// Splits every hint wider than [`PATCH_TILE_ROWS`] into tiles of at most
/// that many rows (keeping each tile's unroll), so a pattern delta dirties
/// tiles, not monolithic hints. The output tiles rows exactly as
/// contiguously as the input did.
fn refine_hints(hints: &[BandHint]) -> Vec<BandHint> {
    let mut out = Vec::new();
    for h in hints {
        let mut start = h.rows.start;
        while start < h.rows.end {
            let end = (start + PATCH_TILE_ROWS).min(h.rows.end);
            out.push(BandHint {
                rows: start..end,
                unroll: h.unroll,
            });
            start = end;
        }
    }
    out
}

/// A plan the sequence installs: the pattern's fingerprint, its
/// artifacts and the patch units they were compiled at.
type Adopted = (PatternFingerprint, Arc<AnalysisArtifacts>, Vec<BandHint>);

/// Runs (or cache-hits) the full analysis for `pattern`, then retiles the
/// compiled plan at patch-unit granularity ([`PATCH_TILE_ROWS`]) when the
/// MSID hints are coarser. The retiled artifacts replace the cache entry
/// under the same key, so same-pattern lookups — the sequence's own
/// [`PlanCache::touch`] path and any concurrent solver — all agree on one
/// plan. Per-row SpMV accumulation is band-local, so retiling never
/// changes a result bit. Digests the pattern twice: once here, once in
/// the lookup.
///
/// [`PlanCache::touch`]: crate::PlanCache::touch
fn adopt_analysis<T: Scalar>(
    engine: &Engine,
    pattern: &CsrMatrix<T>,
) -> Result<Adopted, SolveError> {
    let fingerprint = PatternFingerprint::of(pattern);
    let artifacts =
        engine
            .cache()
            .get_or_analyze_with(engine.acamar(), pattern, engine.telemetry());
    let msid = artifacts.plan.schedule.band_hints();
    let hints = refine_hints(&msid);
    if hints.len() == msid.len() {
        // Nothing was split: the analysis' own compiled plan is already
        // at patch granularity.
        return Ok((fingerprint, artifacts, hints));
    }
    let compiled = CompiledSpmv::compile(pattern, &hints)?;
    let artifacts = Arc::new(AnalysisArtifacts {
        structure: artifacts.structure.clone(),
        plan: artifacts.plan.clone(),
        compiled: Arc::new(compiled),
        // Retiling SpMV bands does not disturb the derived memo: it is
        // built over the same unchanged pattern (`T`'s plan from the MSID
        // hints).
        derived: Arc::clone(&artifacts.derived),
    });
    engine
        .cache()
        .insert_artifacts(fingerprint, Arc::clone(&artifacts), engine.telemetry());
    Ok((fingerprint, artifacts, hints))
}

impl Engine {
    /// Opens a solve sequence anchored on `matrix`'s pattern: runs (or
    /// cache-hits) the full analysis once and returns the stateful
    /// [`Sequence`] handle.
    ///
    /// # Errors
    ///
    /// [`SolveError::Invalid`] if the plan does not compile at patch-unit
    /// granularity.
    pub fn open_sequence<T: Scalar>(
        &self,
        matrix: Arc<CsrMatrix<T>>,
    ) -> Result<Sequence<'_, T>, SolveError> {
        let started = Instant::now();
        let (fingerprint, artifacts, hints) = adopt_analysis(self, &matrix)?;
        let analysis_nanos = started.elapsed().as_nanos() as u64;
        Ok(Sequence {
            engine: self,
            pattern: matrix,
            fingerprint,
            artifacts,
            hints,
            prev_solution: None,
            stats: SequenceStats {
                analysis_nanos,
                ..SequenceStats::default()
            },
        })
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
        self.fingerprint
    }

    /// The current plan artifacts.
    pub fn artifacts(&self) -> &Arc<AnalysisArtifacts> {
        &self.artifacts
    }

    /// Solves one step, deciding reuse vs. patch vs. recompile from the
    /// pattern delta against the previous step and gating the warm start
    /// on its residual.
    ///
    /// # Errors
    ///
    /// Any [`SolveError`] the engine reports for the job. A failed step
    /// leaves the sequence usable: the plan state advances to the step's
    /// pattern, but the previous *successful* solution is retained for
    /// warm starts.
    pub fn step(&mut self, job: SequenceJob<T>) -> Result<SequenceStepReport<T>, SolveError> {
        let step_index = self.stats.steps;
        let SequenceJob { matrix: a, rhs: b } = job;
        let plan = self.advance_plan(&a)?;

        let (guess, warm_start) = self.gate_warm_start(&a, &b, step_index)?;

        let mut solve_job = SolveJob::new(a, b);
        if let Some(g) = guess {
            solve_job = solve_job.with_guess(g);
        }
        let mut batch = self.engine.solve_jobs(vec![solve_job]);
        self.stats.steps += 1;
        let report = batch.results.pop().expect("one job was submitted")?;

        self.prev_solution = Some(report.solve.solution.clone());
        Ok(SequenceStepReport {
            report,
            plan,
            warm_start,
        })
    }

    /// Picks and installs this step's plan from the pattern delta. Also
    /// advances the sequence's pattern/fingerprint state: the fingerprint
    /// is recomputed only when the pattern actually changed, so the
    /// steady-state step never re-hashes the matrix.
    fn advance_plan(&mut self, a: &Arc<CsrMatrix<T>>) -> Result<PlanAction, SolveError> {
        // Fast path: the caller handed back the same matrix object, so
        // the O(nnz) pattern comparison is redundant.
        if Arc::ptr_eq(&self.pattern, a) {
            return self.reuse_plan(a);
        }
        let delta = PatternDelta::between(&self.pattern, a);
        match delta {
            Some(d) if d.is_empty() => self.reuse_plan(a),
            Some(d)
                if d.dirty_fraction() <= PATCH_MAX_DIRTY_FRACTION
                    && self.engine.cache().contains(&self.fingerprint) =>
            {
                // Small delta on a still-cached base: recompile only the
                // dirty bands and splice the rest.
                let started = Instant::now();
                let patched = self.artifacts.compiled.patch(a, &self.hints, &d)?;
                let patch_nanos = started.elapsed().as_nanos() as u64;
                let artifacts = Arc::new(AnalysisArtifacts {
                    structure: self.artifacts.structure.clone(),
                    plan: self.artifacts.plan.clone(),
                    compiled: Arc::new(patched),
                    // The pattern changed, so the derived memo is stale;
                    // start it over and let the next attempt that needs a
                    // part of it (Jacobi, or the preconditioner) rebuild.
                    derived: Arc::new(self.artifacts.derived.emptied()),
                });
                // The step's one digest of its new pattern.
                let fingerprint = PatternFingerprint::of(a.as_ref());
                self.engine.cache().insert_artifacts(
                    fingerprint,
                    Arc::clone(&artifacts),
                    self.engine.telemetry(),
                );
                let dirty_rows = d.dirty_row_count();
                self.engine.telemetry().emit(EventKind::PlanPatched {
                    dirty_rows: dirty_rows.min(u32::MAX as usize) as u32,
                    patch_nanos,
                });
                self.engine
                    .telemetry()
                    .counter_add(Counter::PlansPatched, 1);
                self.stats.plans_patched += 1;
                self.stats.patch_nanos += patch_nanos;
                self.artifacts = artifacts;
                self.pattern = Arc::clone(a);
                self.fingerprint = fingerprint;
                Ok(PlanAction::Patched { dirty_rows })
            }
            _ => {
                // Shape change, large delta, or evicted base: full
                // analysis (cache-mediated, so identical shapes across
                // sequences still share).
                self.recompile(a)
            }
        }
    }

    /// The same-pattern step: refresh the cached entry by its
    /// **precomputed** key — skipping the per-step pattern re-hash and
    /// re-verification, which is what makes steady-state planning O(1) —
    /// while an evicted entry still surfaces as an honest miss that goes
    /// back through the full analysis.
    fn reuse_plan(&mut self, a: &Arc<CsrMatrix<T>>) -> Result<PlanAction, SolveError> {
        let started = Instant::now();
        let Some(artifacts) = self
            .engine
            .cache()
            .touch(&self.fingerprint, self.engine.telemetry())
        else {
            // Evicted since the last step: re-analyze through the cache
            // so the miss is counted exactly once.
            return self.recompile(a);
        };
        self.stats.analysis_nanos += started.elapsed().as_nanos() as u64;
        self.artifacts = artifacts;
        self.pattern = Arc::clone(a);
        self.stats.plans_reused += 1;
        Ok(PlanAction::Reused)
    }

    /// Installs a full, cache-mediated analysis of `a`'s pattern.
    fn recompile(&mut self, a: &Arc<CsrMatrix<T>>) -> Result<PlanAction, SolveError> {
        let started = Instant::now();
        let (fingerprint, artifacts, hints) = adopt_analysis(self.engine, a)?;
        self.stats.analysis_nanos += started.elapsed().as_nanos() as u64;
        self.fingerprint = fingerprint;
        self.artifacts = artifacts;
        self.hints = hints;
        self.pattern = Arc::clone(a);
        self.stats.plans_recompiled += 1;
        Ok(PlanAction::Recompiled)
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
        let residual = self.artifacts.warm_start_residual(a, b, prev)?;
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
        drop_pairs(a, &[(r, c)])
    }

    /// [`drop_pair`] for every listed pair.
    fn drop_pairs(a: &CsrMatrix<f64>, pairs: &[(usize, usize)]) -> CsrMatrix<f64> {
        let mut row_ptr = Vec::with_capacity(a.nrows() + 1);
        row_ptr.push(0usize);
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        for i in 0..a.nrows() {
            let (rc, rv) = a.row(i);
            for (&j, &v) in rc.iter().zip(rv) {
                if pairs.contains(&(i, j)) || pairs.contains(&(j, i)) {
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
        let mut seq = engine.open_sequence(Arc::clone(&a)).unwrap();
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
        assert_eq!(stats.plans_patched, 0);
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
    fn small_pattern_delta_patches_only_dirty_bands() {
        let engine = engine();
        let a0 = Arc::new(generate::poisson2d::<f64>(16, 16));
        let b = vec![1.0; 256];
        let mut seq = engine.open_sequence(Arc::clone(&a0)).unwrap();
        seq.step(SequenceJob::new(Arc::clone(&a0), b.clone()))
            .unwrap();

        let a1 = Arc::new(drop_pair(&a0, 7, 8));
        let step = seq
            .step(SequenceJob::new(Arc::clone(&a1), b.clone()))
            .unwrap();
        assert!(step.report.solve.converged());
        assert_eq!(step.plan, PlanAction::Patched { dirty_rows: 2 });
        // The patch registered the new pattern without an analysis miss...
        assert_eq!(engine.counters().cache.misses, 1);
        assert!(engine.is_warm(&a1));
        // ...and the next same-pattern step hits it.
        let step = seq.step(SequenceJob::new(Arc::clone(&a1), b)).unwrap();
        assert_eq!(step.plan, PlanAction::Reused);
        let stats = seq.stats();
        assert_eq!(stats.plans_patched, 1);
        assert_eq!(stats.plans_reused, 2);
        assert!(stats.patch_nanos > 0);
    }

    #[test]
    fn a_delta_over_a_quarter_of_the_rows_recompiles() {
        let engine = engine();
        let a0 = Arc::new(generate::poisson2d::<f64>(16, 16));
        let b = vec![1.0; 256];
        let mut seq = engine.open_sequence(Arc::clone(&a0)).unwrap();
        seq.step(SequenceJob::new(Arc::clone(&a0), b.clone()))
            .unwrap();
        // Forty horizontal couplings dropped: rows 0..80 dirty, 31 % of
        // the 256.
        let pairs: Vec<_> = (0..80).step_by(2).map(|i| (i, i + 1)).collect();
        let a1 = Arc::new(drop_pairs(&a0, &pairs));
        let delta = PatternDelta::between(&a0, &a1).unwrap();
        assert_eq!(delta.dirty_row_count(), 80);
        let step = seq.step(SequenceJob::new(Arc::clone(&a1), b)).unwrap();
        assert_eq!(step.plan, PlanAction::Recompiled);
        assert!(step.report.solve.converged());
        assert_eq!(engine.counters().cache.misses, 2);
        assert_eq!(seq.stats().plans_recompiled, 1);
        assert_eq!(seq.stats().plans_patched, 0);
    }

    #[test]
    fn evicted_base_plan_recompiles_instead_of_patching() {
        let engine = engine();
        engine.cache().set_capacity(1);
        let a0 = Arc::new(generate::poisson2d::<f64>(16, 16));
        let b = vec![1.0; 256];
        let mut seq = engine.open_sequence(Arc::clone(&a0)).unwrap();
        seq.step(SequenceJob::new(Arc::clone(&a0), b.clone()))
            .unwrap();
        // Evict the sequence's base entry by warming an unrelated pattern.
        engine
            .solve_one(&generate::poisson2d::<f64>(9, 9), &vec![1.0; 81])
            .unwrap();
        assert!(!engine.is_warm(&a0));
        // A patchable delta must now fall back to the full analysis: the
        // base plan is gone and eviction is an honest miss.
        let a1 = Arc::new(drop_pair(&a0, 7, 8));
        let step = seq.step(SequenceJob::new(Arc::clone(&a1), b)).unwrap();
        assert_eq!(step.plan, PlanAction::Recompiled);
        assert!(step.report.solve.converged());
        assert!(engine.cache().stats().evictions >= 1);
    }

    #[test]
    fn replaying_a_drifting_sequence_is_bitwise_identical() {
        use acamar_sparse::{BandKind, CompiledSpmv};
        // Every 14-row grid-line interior of poisson2d-16 is one Diagonal
        // band. The drift lands mid-band (both halves fall below the Fixed
        // minimum), off-centre (the 9-row side stays Diagonal), then on
        // the first and on the last rows of two pairs of bands (the 13
        // rows left of each stay Diagonal).
        let drift = [(2, 7, 8), (4, 100, 101), (6, 33, 49), (8, 142, 158)];
        let run = || {
            let engine = engine();
            let a0 = Arc::new(generate::poisson2d::<f64>(16, 16));
            let mut seq = engine.open_sequence(Arc::clone(&a0)).unwrap();
            let mut solutions = Vec::new();
            let mut diagonal_rows = Vec::new();
            let mut a = a0;
            for k in 0..10 {
                if let Some(&(_, r, c)) = drift.iter().find(|d| d.0 == k) {
                    a = Arc::new(drop_pair(&a, r, c));
                }
                let b: Vec<f64> = (0..256).map(|i| 1.0 + ((i + k) % 5) as f64).collect();
                let step = seq.step(SequenceJob::new(Arc::clone(&a), b)).unwrap();
                // The installed plan is the one a cold compile would build.
                let plan = &seq.artifacts.compiled;
                assert_eq!(**plan, CompiledSpmv::compile(&a, &seq.hints).unwrap());
                let bands = plan.bands().iter();
                diagonal_rows.push(
                    bands
                        .filter(|b| matches!(b.kind, BandKind::Diagonal { .. }))
                        .map(|b| b.len())
                        .sum::<usize>(),
                );
                solutions.push((step.plan, step.report.solve.solution));
            }
            (solutions, diagonal_rows, seq.stats())
        };
        let (s1, d1, t1) = run();
        let (s2, d2, t2) = run();
        assert_eq!(s1, s2, "replay must be bitwise identical");
        assert_eq!(d1, d2);
        assert_eq!(d1, [224, 224, 210, 210, 205, 205, 203, 203, 201, 201]);
        assert_eq!(t1.plans_patched, t2.plans_patched);
        assert_eq!(t1.warm_starts_used, t2.warm_starts_used);
        assert_eq!(t1.plans_patched, 4);
    }

    #[test]
    fn warm_start_gate_rejects_a_solution_worse_than_the_cold_start() {
        let engine = engine();
        let a = Arc::new(generate::poisson2d::<f64>(12, 12));
        let mut seq = engine.open_sequence(Arc::clone(&a)).unwrap();
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
