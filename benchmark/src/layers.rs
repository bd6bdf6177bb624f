//! The traced run: the per-layer metrics.
//!
//! End-to-end metrics are measured with tracing off (`arms.rs`). This run
//! (a) installs a `RingRecorder` and reads the events the program already
//! emits, (b) replays requests by hand under the benchmark's own spans,
//! and (c) times calls into each layer's public functions on a sample of
//! the workload's own systems. Nothing here is inside the program: spans
//! inside the library are a later change.

use crate::arms::{
    batch_pass, engine_front_pass, rel_residual, rhs, service_config, service_pass, warm_service,
    ArmSamples, Keeper, PassSizes, Rig, Tally, CLIENTS, RESIDUAL_SLACK, SHARDS, WORKERS,
};
use crate::host;
use crate::inputs::{Request, Scale, Stream, System};
use crate::span::{self_times, Tracer};
use crate::spec::PER_LAYER;
use crate::stats;
use acamar::core::{AnalysisArtifacts, FineGrainedReconfigUnit, MatrixStructureUnit, RunOptions};
use acamar::engine::{Engine, PatternFingerprint, PlanCache, SolveJob};
use acamar::fabric::{self, FabricKernels};
use acamar::service::Service;
use acamar::solvers::{solve_with, Ic0, Kernels, SoftwareKernels, WorkspaceHandle};
use acamar::sparse::{CompiledSpmv, CompiledSptrsv, CsrMatrix, DeterminismPolicy};
use acamar::telemetry::{EventKind, RingRecorder, Span as ProgramSpan, TelemetrySink};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Ring size for the program's events: a long Jacobi solve emits one
/// segment event per SpMV, so leave room for a few hundred thousand.
const RING_EVENTS: usize = 1 << 18;
/// Systems of the pool the per-call probes visit.
const PROBE_SYSTEMS: usize = 24;
/// Shares of `--seconds` given to the two time-sliced sections; the other
/// sections do a fixed amount of work.
const INTERLEAVED_SHARE: f64 = 0.40;
const SERVICE_SHARE: f64 = 0.15;

/// What the traced run hands back.
pub struct LayerReport {
    /// Every `PER_LAYER` metric, in ledger order.
    pub values: Vec<(&'static str, f64)>,
    pub tally: Tally,
    pub trace_path: PathBuf,
    pub spans_written: usize,
    pub notes: Vec<String>,
}

struct Cx<'a> {
    rig: &'a Rig,
    seed: u64,
    sizes: PassSizes,
    values: Vec<(&'static str, f64)>,
    tally: Tally,
    notes: Vec<String>,
}

impl Cx<'_> {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not in the ledger"
        );
        self.values.push((name, value));
    }

    fn stream(&self, id: u64) -> Stream {
        let all = (0..self.rig.pool.systems.len() as u32).collect();
        Stream::new(self.rig.workload, all, self.seed, id)
    }

    fn fresh_engine(&self, workers: usize, ring: Option<&Arc<RingRecorder>>) -> Engine {
        let engine = Engine::with_workers(self.rig.acamar.clone(), workers);
        let engine = match ring {
            Some(ring) => engine.with_recorder(Arc::clone(ring) as Arc<_>),
            None => engine,
        };
        engine
            .cache()
            .set_capacity(self.rig.workload.cache_capacity(self.rig.scale));
        engine
    }
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// Times `f` repeatedly: at least three times and `floor_ns` in total, but
/// a single call once it has taken 60 ms. Returns nanoseconds per call.
fn time_reps<R>(floor_ns: f64, mut f: impl FnMut() -> R) -> Vec<f64> {
    let mut reps = Vec::new();
    let mut total = 0.0;
    while !((reps.len() >= 3 && total >= floor_ns) || total >= 6e7) {
        let t0 = Instant::now();
        black_box(f());
        let ns = t0.elapsed().as_nanos() as f64;
        reps.push(ns);
        total += ns;
    }
    reps
}

/// Median nanoseconds per call of `f`.
fn time_median<R>(floor_ns: f64, f: impl FnMut() -> R) -> f64 {
    stats::median(&time_reps(floor_ns, f))
}

/// Runs the whole traced ledger for `rig`. `out_dir` receives
/// `trace-<workload>.jsonl`.
pub fn traced_run(rig: &Rig, seed: u64, seconds: f64, out_dir: &Path) -> LayerReport {
    let mut cx = Cx {
        rig,
        seed,
        sizes: PassSizes::of(rig.workload, rig.scale),
        values: Vec::with_capacity(PER_LAYER.len()),
        tally: Tally {
            attempted: rig.warmup_attempted,
            failed: rig.warmup_failed,
            ..Tally::default()
        },
        notes: Vec::new(),
    };
    cx.set("datasets.generate_s", rig.pool.generate_s);
    counted_solves(&mut cx);
    let trace_path = out_dir.join(format!("trace-{}.jsonl", rig.workload.name()));
    let (solve_one_us, spans_written) = interleaved_passes(
        &mut cx,
        Duration::from_secs_f64(seconds * INTERLEAVED_SHARE),
        &trace_path,
    );
    service_probe(
        &mut cx,
        Duration::from_secs_f64(seconds * SERVICE_SHARE),
        solve_one_us,
    );
    worker_scaling(&mut cx);
    let spmv_gbs = call_probes(&mut cx);
    telemetry_emit(&mut cx);
    memory_roof(&mut cx, spmv_gbs);

    // Ledger order, and proof that nothing is missing or reported twice.
    let values = PER_LAYER
        .iter()
        .map(|m| {
            let mut hits = cx.values.iter().filter(|(n, _)| *n == m.name);
            let value = hits
                .next()
                .unwrap_or_else(|| panic!("{} was not measured", m.name))
                .1;
            assert!(hits.next().is_none(), "{} was measured twice", m.name);
            (m.name, value)
        })
        .collect();
    LayerReport {
        values,
        tally: cx.tally,
        trace_path,
        spans_written,
        notes: cx.notes,
    }
}

/// Two rounds of the whole pool through a fresh two-worker engine with a
/// recorder installed: a fixed operation count, so every number here
/// repeats exactly for a seed.
fn counted_solves(cx: &mut Cx) {
    let rig = cx.rig;
    let ring = Arc::new(RingRecorder::new(RING_EVENTS));
    let engine = cx.fresh_engine(WORKERS, Some(&ring));
    let limit = RESIDUAL_SLACK * rig.acamar.config().criteria.tolerance;
    let (mut solves, mut flops, mut switches, mut rungs, mut reconfigs, mut events) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut spmv_cycles, mut compute_cycles) = (0u64, 0u64);
    let mut worst = 0.0f64;
    for _round in 0..2 {
        for sys in &rig.pool.systems {
            cx.tally.attempted += 1;
            solves += 1;
            match engine.solve_one(&sys.a, &sys.rhs[0]) {
                Ok(r) if r.converged() => {
                    flops += r.solve.counts.total_flops();
                    switches += r.solver_switches() as u64;
                    reconfigs += r.stats.spmv_reconfig_events as u64;
                    spmv_cycles += r.stats.cycles.spmv;
                    compute_cycles += r.stats.cycles.compute();
                    let res = rel_residual(&sys.a, &r.solve.solution, &sys.rhs[0]);
                    worst = worst.max(res);
                    let within = res <= limit;
                    if !within {
                        cx.tally.fail(format!(
                            "counted: {}: true residual {res:.3e} > {limit:.1e}",
                            sys.name
                        ));
                    }
                }
                Ok(r) => cx.tally.fail(format!(
                    "counted: {}: did not converge: {:?}",
                    sys.name, r.solve.outcome
                )),
                Err(e) => cx.tally.fail(format!("counted: {}: {e}", sys.name)),
            }
            for e in ring.drain() {
                events += 1;
                if let EventKind::JobEnd { rungs: n, .. } = e.kind {
                    rungs += n as u64;
                }
            }
        }
    }
    let per_solve = |v: u64| v as f64 / solves as f64;
    let cache = engine.counters().cache;
    cx.set("engine.cache_hits", cache.hits as f64);
    cx.set("engine.cache_misses", cache.misses as f64);
    cx.set("engine.cache_evictions", cache.evictions as f64);
    cx.set("solvers.flops_per_solve", per_solve(flops));
    cx.set("solvers.worst_rel_residual", worst);
    cx.set("core.solver_switches_per_solve", per_solve(switches));
    cx.set("core.rescue_rungs_per_solve", per_solve(rungs));
    cx.set("fabric.reconfig_events_per_solve", per_solve(reconfigs));
    cx.set(
        "fabric.spmv_cycle_share",
        spmv_cycles as f64 / compute_cycles.max(1) as f64,
    );
    cx.set("telemetry.events_per_solve", per_solve(events));
    cx.set("telemetry.dropped_events", ring.dropped() as f64);
}

/// Four passes over the same requests, round after round, so that drift of
/// the host cancels in every ratio between them:
///
/// 1. `solve_one` on the rig's engine, untraced;
/// 2. `solve_one` on an engine that records (telemetry overhead, and the
///    spans the engine itself emits);
/// 3. the request replayed by hand under the benchmark's own spans;
/// 4. the same replay without spans (span overhead).
///
/// Writes the spans to `trace_path`. Returns the untraced `solve_one` p50
/// in microseconds (the base of the service probe's derived metric) and the
/// number of spans written.
fn interleaved_passes(cx: &mut Cx, slice: Duration, trace_path: &Path) -> (f64, usize) {
    let rig = cx.rig;
    let systems = rig.pool.systems.len();
    let ring = Arc::new(RingRecorder::new(RING_EVENTS));
    let traced_engine = cx.fresh_engine(WORKERS, Some(&ring));
    let new_cache = || {
        let cache = PlanCache::new();
        cache.set_capacity(rig.workload.cache_capacity(rig.scale));
        cache
    };
    let (span_cache, plain_cache) = (new_cache(), new_cache());
    if !rig.cold() {
        for sys in &rig.pool.systems {
            let _ = traced_engine.solve_one(&sys.a, &sys.rhs[0]);
            span_cache.get_or_analyze(&rig.acamar, &sys.a);
            plain_cache.get_or_analyze(&rig.acamar, &sys.a);
        }
        ring.drain();
    }
    let workspace = WorkspaceHandle::new();
    let run = |a: &CsrMatrix<f64>, b: &[f64], plan: &AnalysisArtifacts| {
        let options = RunOptions {
            workspace: Some(workspace.clone()),
            ..Default::default()
        };
        black_box(rig.acamar.run_with_plan_opts(a, b, None, plan, options))
            .is_ok_and(|r| r.converged())
    };

    let mut stream = cx.stream(40);
    let (mut plain, mut traced) = (ArmSamples::default(), ArmSamples::default());
    let mut keeper = Keeper::every(cx.sizes.check_every);
    let mut span_us: [Vec<f64>; 3] = Default::default();
    let mut analysis_us = Vec::new();
    let mut tracer = Tracer::new();
    let mut request_id = 0u64;
    let (mut accounted, mut span_overhead) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while started.elapsed() < slice || plain.pass_rate.is_empty() {
        let reqs = stream.take(cx.sizes.front);

        let (solve_one_wall, dones) = engine_front_pass(&rig.engine, &rig.pool, &reqs, &mut keeper);
        plain.absorb(systems, solve_one_wall, &dones);
        cx.tally.absorb(rig, "untraced", &dones, false);

        let (wall, dones) = engine_front_pass(&traced_engine, &rig.pool, &reqs, &mut keeper);
        traced.absorb(systems, wall, &dones);
        cx.tally.absorb(rig, "traced", &dones, false);
        for e in ring.drain() {
            match e.kind {
                EventKind::SpanExit { span, nanos } => {
                    let slot = match span {
                        ProgramSpan::Intake => 0,
                        ProgramSpan::Analyze => 1,
                        ProgramSpan::Solve => 2,
                        ProgramSpan::Rescue => continue,
                    };
                    span_us[slot].push(us(nanos as f64));
                }
                EventKind::CacheMiss { analysis_nanos } => {
                    analysis_us.push(us(analysis_nanos as f64))
                }
                _ => {}
            }
        }

        let (mut replay_ns, mut plain_ns) = (0u64, 0u64);
        let mut failed = Vec::new();
        for r in &reqs {
            let a = &rig.pool.systems[r.sys as usize].a;
            // The engine fingerprints inside its cache lookup, where the
            // benchmark cannot put a span; time it on its own first and
            // substitute it as the lookup's child.
            let t0 = Instant::now();
            black_box(PatternFingerprint::of(a));
            let fingerprint_ns = t0.elapsed().as_nanos() as u64;
            let request = tracer.enter("request", request_id);
            let lookup = tracer.enter("engine.cache_lookup", request_id);
            let plan = span_cache.get_or_analyze(&rig.acamar, a);
            tracer.derived_child("engine.fingerprint", fingerprint_ns);
            tracer.exit(lookup);
            let solve = tracer.enter("core.run_with_plan", request_id);
            failed.extend((!run(a, rhs(&rig.pool, r), &plan)).then_some(r.sys));
            tracer.exit(solve);
            tracer.exit(request);
            replay_ns += tracer.spans()[request as usize].duration_ns();
            request_id += 1;
        }
        for r in &reqs {
            let a = &rig.pool.systems[r.sys as usize].a;
            let t0 = Instant::now();
            let plan = plain_cache.get_or_analyze(&rig.acamar, a);
            failed.extend((!run(a, rhs(&rig.pool, r), &plan)).then_some(r.sys));
            plain_ns += t0.elapsed().as_nanos() as u64;
        }
        cx.tally.attempted += 2 * reqs.len() as u64;
        for sys in failed {
            cx.tally.fail(format!(
                "replay: {} failed",
                rig.pool.systems[sys as usize].name
            ));
        }
        accounted.push(replay_ns as f64 / solve_one_wall.as_nanos() as f64);
        span_overhead.push(replay_ns as f64 / plain_ns as f64);
    }

    let solve_one_us = stats::median(&plain.all_ms) * 1e3;
    cx.set("engine.solve_one_us_p50", solve_one_us);
    cx.set(
        "engine.latency_p99_ms",
        stats::quantile(&plain.all_ms, 0.99),
    );
    if !stats::ten_beyond(plain.all_ms.len(), 0.99) {
        cx.notes.push(format!(
            "engine.latency_p99_ms rests on {} samples; fewer than ten lie beyond it",
            plain.all_ms.len()
        ));
    }
    cx.set(
        "telemetry.overhead_pct",
        (stats::median(&plain.pass_rate) / stats::median(&traced.pass_rate) - 1.0) * 100.0,
    );
    cx.set("engine.span_intake_us_p50", stats::median(&span_us[0]));
    cx.set("engine.span_analyze_us_p50", stats::median(&span_us[1]));
    cx.set("engine.span_solve_us_p50", stats::median(&span_us[2]));
    cx.set("engine.analysis_us_per_miss", stats::mean(&analysis_us));

    let spans = tracer.spans();
    let selfs = self_times(spans);
    let of = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &t)| us(t as f64))
            .collect()
    };
    let durations = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| us(s.duration_ns() as f64))
            .collect()
    };
    let request_us = durations("request");
    let request_total: f64 = request_us.iter().sum();
    let share = |self_us: &[f64]| self_us.iter().sum::<f64>() / request_total;
    let (fingerprint, lookup, run_self) = (
        of("engine.fingerprint"),
        of("engine.cache_lookup"),
        of("core.run_with_plan"),
    );
    cx.set("trace.request_us_p50", stats::median(&request_us));
    cx.set("trace.request_us_p99", stats::quantile(&request_us, 0.99));
    cx.set("trace.fingerprint_self_us_p50", stats::median(&fingerprint));
    cx.set(
        "trace.fingerprint_self_us_p99",
        stats::quantile(&fingerprint, 0.99),
    );
    cx.set("trace.fingerprint_share", share(&fingerprint));
    cx.set("trace.cache_lookup_self_us_p50", stats::median(&lookup));
    cx.set(
        "trace.cache_lookup_self_us_p99",
        stats::quantile(&lookup, 0.99),
    );
    cx.set("trace.cache_lookup_share", share(&lookup));
    cx.set("trace.run_with_plan_self_us_p50", stats::median(&run_self));
    cx.set(
        "trace.run_with_plan_self_us_p99",
        stats::quantile(&run_self, 0.99),
    );
    cx.set("trace.run_with_plan_share", share(&run_self));
    cx.set("trace.unattributed_share", share(&of("request")));
    cx.set("trace.accounted_frac", stats::median(&accounted));
    cx.set(
        "trace.overhead_pct",
        (stats::median(&span_overhead) - 1.0) * 100.0,
    );

    // The engine-level derived pair: what solve_one spends outside the
    // lookup and the core run, and the lookup's share of it.
    let lookup_us = stats::median(&durations("engine.cache_lookup"));
    let run_us = stats::median(&durations("core.run_with_plan"));
    cx.set("engine.wrapper_us_p50", solve_one_us - lookup_us - run_us);
    cx.set("engine.hit_path_share", lookup_us / solve_one_us);

    if let Err(e) = tracer.write_jsonl(trace_path) {
        cx.tally
            .fail(format!("writing {}: {e}", trace_path.display()));
    }
    (solve_one_us, spans.len())
}

/// A two-shard service with a recorder over the workload's pool, driven
/// like `service_mixed`'s front door.
fn service_probe(cx: &mut Cx, slice: Duration, solve_one_us: f64) {
    let rig = cx.rig;
    let ring = Arc::new(RingRecorder::new(RING_EVENTS));
    let service =
        Service::<f64>::with_recorder(rig.acamar.clone(), service_config(), Arc::clone(&ring));
    let capacity = rig.workload.cache_capacity(rig.scale);
    for shard in 0..SHARDS {
        service
            .engine(shard)
            .cache()
            .set_capacity(capacity.div_ceil(SHARDS));
    }
    if !rig.cold() {
        let (attempted, failed) = warm_service(&service, &rig.pool);
        cx.tally.attempted += attempted;
        cx.tally.failed += failed;
    }
    let misses_after_warmup: u64 = (0..SHARDS)
        .map(|s| service.engine(s).counters().cache.misses)
        .sum();
    ring.drain();

    let per_client = if rig.service.is_some() {
        cx.sizes.front
    } else {
        cx.sizes.front.div_ceil(CLIENTS)
    };
    let mut streams: Vec<Stream> = (0..CLIENTS as u64).map(|c| cx.stream(60 + c)).collect();
    let (mut latency_us, mut submit_us, mut wait_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut rejected = 0u64;
    let started = Instant::now();
    while started.elapsed() < slice || latency_us.is_empty() {
        let reqs: Vec<Vec<Request>> = streams.iter_mut().map(|s| s.take(per_client)).collect();
        let pass = service_pass(
            &service,
            &rig.pool,
            &reqs,
            DeterminismPolicy::Deterministic,
            cx.sizes.check_every,
        );
        cx.tally.absorb(rig, "service", &pass.dones, false);
        latency_us.extend(
            pass.dones
                .iter()
                .filter(|d| d.outcome.is_ok())
                .map(|d| us(d.latency_ns as f64)),
        );
        submit_us.extend(pass.submit_ns.iter().map(|&n| us(n as f64)));
        for e in ring.drain() {
            match e.kind {
                EventKind::JobDispatched { wait_nanos, .. } => wait_us.push(us(wait_nanos as f64)),
                EventKind::JobRejected { .. } => rejected += 1,
                _ => {}
            }
        }
    }
    if service.total_queue_depth() != 0 {
        cx.tally.fail(format!(
            "service probe: {} requests still queued",
            service.total_queue_depth()
        ));
    }
    let misses: u64 = (0..SHARDS)
        .map(|s| service.engine(s).counters().cache.misses)
        .sum();
    if !rig.cold() && misses != misses_after_warmup {
        cx.tally.fail(format!(
            "service probe: affinity broke, {} misses after warm-up",
            misses - misses_after_warmup
        ));
    }
    let ticket_us = stats::median(&latency_us);
    let queue_us = stats::median(&wait_us);
    cx.set("service.submit_us_p50", stats::median(&submit_us));
    cx.set("service.ticket_latency_us_p50", ticket_us);
    cx.set(
        "service.latency_p99_ms",
        stats::quantile(&latency_us, 0.99) / 1e3,
    );
    cx.set("service.queue_wait_us_p50", queue_us);
    cx.set(
        "service.overhead_us_p50",
        ticket_us - queue_us - solve_one_us,
    );
    cx.set("service.rejected", rejected as f64);
    cx.set("service.cache_misses", misses as f64);
}

/// The same batches on one worker and on two, and how much of the two
/// workers' time went idle.
fn worker_scaling(cx: &mut Cx) {
    let rig = cx.rig;
    let one = cx.fresh_engine(1, None);
    let two = cx.fresh_engine(WORKERS, None);
    let mut stream = cx.stream(70);
    let mut keeper = Keeper::every(cx.sizes.check_every);
    if !rig.cold() {
        let warm: Vec<Request> = stream.take(rig.pool.systems.len());
        for engine in [&one, &two] {
            batch_pass(engine, &rig.pool, &warm, &mut keeper);
        }
    }
    let batches: Vec<Vec<Request>> = (0..3).map(|_| stream.take(cx.sizes.batch)).collect();
    let jobs = |reqs: &[Request]| -> Vec<SolveJob<f64>> {
        reqs.iter()
            .map(|r| {
                SolveJob::new(
                    Arc::clone(&rig.pool.systems[r.sys as usize].a),
                    rhs(&rig.pool, r).to_vec(),
                )
            })
            .collect()
    };
    let mut rate_one = Vec::new();
    for reqs in &batches {
        let (wall, dones) = batch_pass(&one, &rig.pool, reqs, &mut keeper);
        cx.tally.absorb(rig, "batch-1", &dones, false);
        rate_one.push(reqs.len() as f64 / wall.as_secs_f64());
    }

    // A worker's blocked time is charged when it wakes, so a batch's own
    // report holds the gap before it and misses its tail. Bracket the
    // batches, run back to back from prebuilt jobs, between two wake-ups of
    // both workers instead: what is charged in between is then the idle
    // time inside and between the batches, and nothing from before.
    let wake = || jobs(&batches[0][..WORKERS.min(batches[0].len())]);
    let prebuilt: Vec<Vec<SolveJob<f64>>> = batches.iter().map(|b| jobs(b)).collect();
    let (first_wake, last_wake) = (wake(), wake());
    cx.tally.attempted += (first_wake.len() + last_wake.len()) as u64;
    two.solve_jobs(first_wake);
    let idle_before = two.counters().pool_idle_nanos;
    let started = Instant::now();
    let mut rate_two = Vec::new();
    for batch in prebuilt {
        cx.tally.attempted += batch.len() as u64;
        let report = two.solve_jobs(batch);
        cx.tally.failed += (report.jobs() - report.converged) as u64;
        rate_two.push(report.jobs() as f64 / report.wall_seconds);
    }
    two.solve_jobs(last_wake);
    let idle_ns = two.counters().pool_idle_nanos - idle_before;
    cx.set(
        "engine.worker_scaling_eff",
        stats::median(&rate_two) / (WORKERS as f64 * stats::median(&rate_one)),
    );
    cx.set(
        "engine.pool_idle_frac",
        idle_ns as f64 / (WORKERS as f64 * started.elapsed().as_nanos() as f64),
    );
}

/// Sums of per-system medians, for the "per nnz" style ratios.
#[derive(Default)]
struct Sum {
    ns: f64,
    work: f64,
}

impl Sum {
    fn add(&mut self, ns: f64, work: usize) {
        self.ns += ns;
        self.work += work as f64;
    }

    /// Nanoseconds per unit of work.
    fn ns_per(&self) -> f64 {
        if self.work == 0.0 {
            0.0
        } else {
            self.ns / self.work
        }
    }

    /// Microseconds per thousand units of work (numerically the same).
    fn us_per_k(&self) -> f64 {
        self.ns_per()
    }
}

/// Times calls into each layer's public functions on a sample of the
/// pool. Returns the computed SpMV bandwidth for the roofline ratio.
fn call_probes(cx: &mut Cx) -> f64 {
    let rig = cx.rig;
    let acamar = &rig.acamar;
    let criteria = acamar.config().criteria;
    // A millisecond per probe steadies the medians; the tests' smoke scale
    // only needs the numbers to exist.
    let floor = if rig.scale == Scale::Full { 1e6 } else { 0.0 };
    let sample: Vec<&System> = rig
        .pool
        .sample(PROBE_SYSTEMS)
        .into_iter()
        .map(|i| &rig.pool.systems[i])
        .collect();

    let (mut fingerprint, mut analyze, mut structure, mut plan_rows) = (
        Sum::default(),
        Sum::default(),
        Sum::default(),
        Sum::default(),
    );
    let (mut compile_spmv, mut compile_sptrsv, mut ic0_factor) =
        (Sum::default(), Sum::default(), Sum::default());
    let (mut spmv, mut spmv_fast, mut spmv_csr, mut spmv_dot, mut sptrsv) = (
        Sum::default(),
        Sum::default(),
        Sum::default(),
        Sum::default(),
        Sum::default(),
    );
    let (mut spmv_bytes, mut dot, mut axpy, mut cycle_walk) =
        (0.0f64, Sum::default(), Sum::default(), Sum::default());
    let (mut fabric_iter, mut software_iter, mut kcycles) =
        (Sum::default(), Sum::default(), Sum::default());
    let (mut hit_us, mut miss_us, mut run_us, mut fixed_us, mut new_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut dense_share, mut levels, mut widths) = (Vec::new(), Vec::new(), Vec::new());
    let (mut fresh_allocs, mut warm_solves) = (0u64, 0u64);

    for sys in sample {
        let a: &CsrMatrix<f64> = &sys.a;
        let b = &sys.rhs[0];
        let (n, nnz) = (a.nrows(), a.nnz());

        // engine: fingerprint, warm and cold lookups.
        fingerprint.add(time_median(floor, || PatternFingerprint::of(a)), nnz);
        let cache = PlanCache::new();
        let art = cache.get_or_analyze(acamar, a);
        hit_us.push(us(time_median(floor, || cache.get_or_analyze(acamar, a))));
        miss_us.push(us(time_median(floor, || {
            PlanCache::new().get_or_analyze(acamar, a)
        })));

        // core: the analysis and its parts.
        analyze.add(time_median(floor, || acamar.analyze(a)), nnz);
        structure.add(
            time_median(floor, || MatrixStructureUnit::new().analyze(a)),
            nnz,
        );
        let planner = FineGrainedReconfigUnit::new(acamar.config().clone());
        plan_rows.add(time_median(floor, || planner.plan(a)), n);
        let hints = art.plan.schedule.band_hints();
        compile_spmv.add(time_median(floor, || CompiledSpmv::compile(a, &hints)), nnz);

        // core + fabric: the planned solver on the production path, with a
        // pooled workspace as the engine installs one.
        let workspace = WorkspaceHandle::new();
        let kind = art.structure.solver;
        let options = || RunOptions {
            solver: Some(kind),
            workspace: Some(workspace.clone()),
            ..Default::default()
        };
        let first = acamar.run_with_plan_opts(a, b, None, &art, options());
        let fresh_before = workspace.stats().1;
        let fabric_reps = time_reps(floor, || {
            acamar.run_with_plan_opts(a, b, None, &art, options())
        });
        fresh_allocs += workspace.stats().1 - fresh_before;
        warm_solves += fabric_reps.len() as u64;
        let fabric_ns = stats::median(&fabric_reps);
        if let Ok(report) = &first {
            fabric_iter.add(fabric_ns, report.solve.iterations.max(1));
            kcycles.add(
                fabric_ns,
                (report.stats.cycles.total() / 1000).max(1) as usize,
            );
        }
        let default_options = || RunOptions {
            workspace: Some(workspace.clone()),
            ..Default::default()
        };
        run_us.push(us(time_median(floor, || {
            acamar.run_with_plan_opts(a, b, None, &art, default_options())
        })));
        let zeros = vec![0.0; n];
        fixed_us.push(us(time_median(floor, || {
            acamar.run_with_plan_opts(a, &zeros, None, &art, default_options())
        })));
        let schedule = &art.plan.schedule;
        new_us.push(us(time_median(floor, || {
            FabricKernels::new(
                acamar.spec().clone(),
                schedule.clone(),
                acamar.config().init_unroll,
            )
        })));
        cycle_walk.add(
            time_median(floor, || {
                fabric::spmv::execute_matrix(a, schedule.max_unroll(), acamar.spec())
            }),
            n,
        );

        // solvers: the same solver on SoftwareKernels with the same plan.
        let software = || SoftwareKernels::new().with_compiled_plan(Arc::clone(&art.compiled));
        let (mut spmv_calls, mut iterations) = (0u64, 1usize);
        let software_ns = time_median(floor, || {
            let mut k = software().with_workspace(workspace.clone());
            let report = solve_with(kind, a, b, None, &criteria, &mut k);
            if let Ok(r) = &report {
                spmv_calls = r.counts.spmv_calls;
                iterations = r.iterations.max(1);
            }
            report.is_ok()
        });
        software_iter.add(software_ns, iterations);

        // sparse: the kernels through the Kernels trait.
        let x = vec![1.0; a.ncols()];
        let mut y = vec![0.0; n];
        let mut det = software();
        let spmv_ns = time_median(floor, || det.spmv(a, &x, &mut y));
        spmv.add(spmv_ns, nnz);
        spmv_bytes += 12.0 * nnz as f64 + 8.0 * (n + a.ncols()) as f64;
        dense_share.push(1.0 - spmv_calls as f64 * spmv_ns / software_ns);
        let mut fast = software().with_policy(DeterminismPolicy::Fast);
        spmv_fast.add(time_median(floor, || fast.spmv(a, &x, &mut y)), nnz);
        let mut csr = SoftwareKernels::new();
        spmv_csr.add(time_median(floor, || csr.spmv(a, &x, &mut y)), nnz);
        spmv_dot.add(time_median(floor, || det.spmv_dot(a, &x, &mut y, &x)), nnz);
        dot.add(
            time_median(floor, || Kernels::<f64>::dot(&mut det, &x, &y)),
            n,
        );
        axpy.add(time_median(floor, || det.axpy(0.5, &x, &mut y)), n);

        // sparse + solvers: the triangular solve behind IC(0)-PCG.
        if sys.spd {
            compile_sptrsv.add(
                time_median(floor, || {
                    (
                        CompiledSptrsv::compile_lower(a),
                        CompiledSptrsv::compile_upper(a),
                    )
                }),
                nnz,
            );
            ic0_factor.add(time_median(floor, || Ic0::factor(a)), nnz);
            if let (Ok(ic0), Ok(lower)) = (Ic0::factor(a), CompiledSptrsv::compile_lower(a)) {
                let mut z = vec![0.0; n];
                sptrsv.add(
                    time_median(floor, || det.sptrsv(&lower, ic0.lower(), b, &mut z)),
                    lower.tri_nnz(),
                );
                levels.push(lower.level_count() as f64);
                widths.push(lower.avg_level_width());
            }
        }
    }

    cx.set("engine.fingerprint_ns_per_nnz", fingerprint.ns_per());
    cx.set("engine.cache_hit_us_p50", stats::median(&hit_us));
    cx.set("engine.cache_miss_us_p50", stats::median(&miss_us));
    cx.set("core.analyze_us_per_knnz", analyze.us_per_k());
    cx.set("core.structure_us_per_knnz", structure.us_per_k());
    cx.set("core.plan_us_per_krow", plan_rows.us_per_k());
    cx.set("core.run_with_plan_us_p50", stats::median(&run_us));
    cx.set("core.run_fixed_us_p50", stats::median(&fixed_us));
    cx.set("solvers.us_per_iter_fabric", us(fabric_iter.ns_per()));
    cx.set("solvers.us_per_iter_software", us(software_iter.ns_per()));
    cx.set("solvers.dense_share", stats::median(&dense_share));
    cx.set(
        "solvers.fresh_allocs_warm",
        fresh_allocs as f64 / warm_solves as f64,
    );
    cx.set("solvers.ic0_factor_us_per_knnz", ic0_factor.us_per_k());
    cx.set("sparse.spmv_ns_per_nnz", spmv.ns_per());
    cx.set("sparse.spmv_fast_ns_per_nnz", spmv_fast.ns_per());
    cx.set("sparse.spmv_csr_ns_per_nnz", spmv_csr.ns_per());
    cx.set("sparse.spmv_dot_ns_per_nnz", spmv_dot.ns_per());
    let spmv_gbs = spmv_bytes / spmv.ns;
    cx.set("sparse.spmv_gbs_computed", spmv_gbs);
    cx.set("sparse.spmv_flops_per_byte", 2.0 * spmv.work / spmv_bytes);
    cx.set("sparse.sptrsv_ns_per_nnz", sptrsv.ns_per());
    cx.set("sparse.sptrsv_levels", stats::mean(&levels));
    cx.set("sparse.sptrsv_avg_level_width", stats::mean(&widths));
    cx.set("sparse.dot_gbs", 16.0 / dot.ns_per());
    cx.set("sparse.axpy_gbs", 24.0 / axpy.ns_per());
    cx.set("sparse.compile_spmv_us_per_knnz", compile_spmv.us_per_k());
    cx.set(
        "sparse.compile_sptrsv_us_per_knnz",
        compile_sptrsv.us_per_k(),
    );
    cx.set(
        "fabric.accounting_share",
        1.0 - software_iter.ns_per() / fabric_iter.ns_per(),
    );
    cx.set("fabric.cycle_walk_ns_per_row", cycle_walk.ns_per());
    cx.set("fabric.kernels_new_us", stats::median(&new_us));
    cx.set("fabric.host_ns_per_modeled_kcycle", kcycles.ns_per());
    spmv_gbs
}

/// `TelemetrySink::emit` into a ring that never fills.
fn telemetry_emit(cx: &mut Cx) {
    const BATCH: usize = 1 << 12;
    let ring = Arc::new(RingRecorder::new(2 * BATCH));
    let sink = TelemetrySink::new(Arc::clone(&ring) as Arc<_>);
    let mut per_event = Vec::new();
    for _ in 0..16 {
        let t0 = Instant::now();
        for _ in 0..BATCH {
            sink.emit(EventKind::CacheHit);
        }
        per_event.push(t0.elapsed().as_nanos() as f64 / BATCH as f64);
        black_box(ring.drain());
    }
    cx.set("telemetry.emit_ns", stats::median(&per_event));
}

/// The triad, and the SpMV number against it.
fn memory_roof(cx: &mut Cx, spmv_gbs: f64) {
    // The smoke scale keeps the tests off a gigabyte of arrays.
    let bytes = (cx.rig.scale == Scale::Smoke).then_some(3 << 20);
    let triad = host::triad(3, bytes);
    cx.set("mem.triad_gbs", triad.gbs);
    cx.set("mem.llc_mib", triad.llc_mib);
    cx.set("mem.triad_array_mib", triad.array_mib);
    if triad.beyond_llc {
        cx.set("sparse.spmv_roofline_frac", spmv_gbs / triad.gbs);
    } else {
        // The arrays could not be made four times the LLC (memory cap, or
        // no LLC size), so the triad is not a memory roof: report the
        // computed bandwidth and operations per byte without the ratio.
        cx.notes.push("sparse.spmv_roofline_frac omitted (reported as 0): the triad arrays are under 4x the LLC".to_string());
        cx.set("sparse.spmv_roofline_frac", 0.0);
    }
}
