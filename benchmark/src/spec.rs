//! The ledger: every metric the benchmark reports, by name, with its unit,
//! its direction, its regression bound (end-to-end) or the end-to-end
//! metrics it is expected to move (per-layer). `BENCHMARK.json` mirrors
//! these tables; a unit test keeps the two in step.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

use Better::{Higher, Lower};

/// An end-to-end metric: something a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEndSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
    pub what: &'static str,
}

/// Regression bound of the host-timing metrics and of peak memory. The
/// development host (2 shared vCPUs) drifts by 10-25% over minutes, and a
/// run-to-run quartile spread of 5-10% is what a 26 s run can reach there
/// (README, "Noise"); the bound is three times that.
const TIMING: f64 = 0.25;
/// Bound of the simulated and counted metrics. They repeat exactly for a
/// seed; the bound only covers how the mean over a seeded pool moves
/// between seeds (`cold_patterns`' modeled cycles: a quartile spread of up
/// to 4.1%, so three times that). A change meant to speed the host must
/// leave them identical for a seed, which `--aa` checks.
const EXACT: f64 = 0.15;

/// Every workload reports every one of these from its untraced run.
pub const END_TO_END: [EndToEndSpec; 11] = [
    EndToEndSpec {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: TIMING,
        what: "generation + construction + warm-up, median of repeated set-ups",
    },
    EndToEndSpec {
        name: "solves_per_s",
        unit: "1/s",
        better: Higher,
        bound: TIMING,
        what: "closed-loop throughput through the workload's front door, median over passes",
    },
    EndToEndSpec {
        name: "latency_p50_ms",
        unit: "ms",
        better: Lower,
        bound: TIMING,
        what: "median request latency of a front-arm pass, median over passes",
    },
    EndToEndSpec {
        name: "solve_ms_geomean",
        unit: "ms",
        better: Lower,
        bound: TIMING,
        what: "geomean over systems of the median time to a solution at the paper tolerance, Deterministic tier",
    },
    EndToEndSpec {
        name: "batch_solves_per_s",
        unit: "1/s",
        better: Higher,
        bound: TIMING,
        what: "throughput of one solve_jobs batch on 2 workers, median over passes",
    },
    EndToEndSpec {
        name: "fast_solve_ms_geomean",
        unit: "ms",
        better: Lower,
        bound: TIMING,
        what: "solve_ms_geomean on the Fast tier",
    },
    EndToEndSpec {
        name: "pcg_solve_ms_geomean",
        unit: "ms",
        better: Lower,
        bound: TIMING,
        what: "solve_ms_geomean of IC(0)-preconditioned CG over the pool's SPD systems",
    },
    EndToEndSpec {
        name: "iters_per_solve",
        unit: "count",
        better: Lower,
        bound: EXACT,
        what: "solver iterations per front-arm solve, mean over systems (exact)",
    },
    EndToEndSpec {
        name: "modeled_cycles_per_solve",
        unit: "cycles",
        better: Lower,
        bound: EXACT,
        what: "simulated fabric cycles per solve (stats.cycles.total()), mean over systems (simulated, exact)",
    },
    EndToEndSpec {
        name: "modeled_underutilization",
        unit: "ratio",
        better: Lower,
        bound: EXACT,
        what: "simulated SpMV slot waste, paper Eq. 5, mean over systems (simulated, exact)",
    },
    EndToEndSpec {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: TIMING,
        what: "VmHWM read after the timed passes",
    },
];

/// A per-layer metric, measured by the traced run from the benchmark's own
/// files. The layer is the crate name before the first dot.
#[derive(Debug, Clone, Copy)]
pub struct LayerSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// How it is obtained; "derived" marks a number obtained by
    /// substitution, not by a span; "simulated" a modeled quantity.
    pub how: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    how: &'static str,
) -> LayerSpec {
    LayerSpec {
        name,
        unit,
        better,
        how,
    }
}

/// Every workload reports every one of these from its traced run.
pub const PER_LAYER: [LayerSpec; 79] = [
    layer("service.submit_us_p50", "us", Lower, "time inside Service::submit: routing fingerprint + admission"),
    layer("service.ticket_latency_us_p50", "us", Lower, "Ticket::wait_timed, admission to fulfilment"),
    layer("service.latency_p99_ms", "ms", Lower, "p99 of the same, over the probe's requests"),
    layer("service.queue_wait_us_p50", "us", Lower, "JobDispatched.wait_nanos events the service emits"),
    layer("service.overhead_us_p50", "us", Lower, "derived: ticket latency - queue wait - engine.solve_one_us_p50"),
    layer("service.rejected", "count", Lower, "submits refused with QueueFull"),
    layer("service.cache_misses", "count", Lower, "sum over shard engines; (pattern, tier) pairs sent when affinity holds"),
    layer("engine.fingerprint_ns_per_nnz", "ns/nnz", Lower, "PatternFingerprint::of"),
    layer("engine.cache_hit_us_p50", "us", Lower, "PlanCache::get_or_analyze warm: hash + verify"),
    layer("engine.cache_miss_us_p50", "us", Lower, "PlanCache::get_or_analyze on an empty cache"),
    layer("engine.wrapper_us_p50", "us", Lower, "derived: solve_one - cache lookup - run_with_plan_opts (p50s)"),
    layer("engine.hit_path_share", "ratio", Lower, "derived: cache lookup p50 / solve_one p50"),
    layer("engine.cache_hits", "count", Higher, "two rounds of the pool through a fresh engine (exact)"),
    layer("engine.cache_misses", "count", Lower, "same two rounds (exact)"),
    layer("engine.cache_evictions", "count", Lower, "same two rounds (exact)"),
    layer("engine.worker_scaling_eff", "ratio", Higher, "2-worker batch rate / (2 x 1-worker batch rate)"),
    layer("engine.pool_idle_frac", "ratio", Lower, "EngineCounters.pool_idle_nanos over three back-to-back 2-worker batches / (workers x their wall)"),
    layer("engine.latency_p99_ms", "ms", Lower, "p99 of solve_one over the untraced interleaved passes"),
    layer("engine.solve_one_us_p50", "us", Lower, "p50 of solve_one over the same passes"),
    layer("engine.span_intake_us_p50", "us", Lower, "SpanExit{Intake}.nanos the engine emits"),
    layer("engine.span_analyze_us_p50", "us", Lower, "SpanExit{Analyze}.nanos the engine emits"),
    layer("engine.span_solve_us_p50", "us", Lower, "SpanExit{Solve}.nanos the engine emits"),
    layer("engine.analysis_us_per_miss", "us", Lower, "CacheMiss.analysis_nanos the cache emits; 0 without misses"),
    layer("core.analyze_us_per_knnz", "us/knnz", Lower, "Acamar::analyze"),
    layer("core.structure_us_per_knnz", "us/knnz", Lower, "MatrixStructureUnit::analyze"),
    layer("core.plan_us_per_krow", "us/krow", Lower, "FineGrainedReconfigUnit::plan: NNZ trace + MSID"),
    layer("core.run_with_plan_us_p50", "us", Lower, "Acamar::run_with_plan_opts with a pooled workspace"),
    layer("core.run_fixed_us_p50", "us", Lower, "zero-RHS run: FabricKernels::new, plan clones, validation"),
    layer("core.solver_switches_per_solve", "count", Lower, "AcamarRunReport::solver_switches (exact)"),
    layer("core.rescue_rungs_per_solve", "count", Lower, "JobEnd.rungs events (exact)"),
    layer("solvers.us_per_iter_fabric", "us/iter", Lower, "planned solver forced through run_with_plan_opts / iterations"),
    layer("solvers.us_per_iter_software", "us/iter", Lower, "same solver via solve_with on SoftwareKernels + same plan"),
    layer("solvers.dense_share", "ratio", Lower, "derived: 1 - spmv_calls x measured SpMV time / software solve time"),
    layer("solvers.flops_per_solve", "flop", Lower, "OpCounts::total_flops of the final attempt (exact)"),
    layer("solvers.fresh_allocs_warm", "count", Lower, "WorkspaceHandle::stats fresh allocations per warm solve; the solution that leaves with the report is one"),
    layer("solvers.ic0_factor_us_per_knnz", "us/knnz", Lower, "Ic0::factor on the SPD systems"),
    layer("solvers.worst_rel_residual", "ratio", Lower, "largest benchmark-computed true residual of the counted solves"),
    layer("sparse.spmv_ns_per_nnz", "ns/nnz", Lower, "Kernels::spmv, compiled plan, Deterministic"),
    layer("sparse.spmv_fast_ns_per_nnz", "ns/nnz", Lower, "Kernels::spmv, compiled plan, Fast"),
    layer("sparse.spmv_csr_ns_per_nnz", "ns/nnz", Lower, "Kernels::spmv without a plan: the plain single-threaded baseline"),
    layer("sparse.spmv_dot_ns_per_nnz", "ns/nnz", Lower, "Kernels::spmv_dot, compiled plan, Deterministic"),
    layer("sparse.spmv_gbs_computed", "GB/s", Higher, "computed: (12 B/nnz + 8 B x (rows + cols)) / spmv time"),
    layer("sparse.spmv_flops_per_byte", "flop/B", Higher, "computed: 2 nnz / the same bytes"),
    layer("sparse.spmv_roofline_frac", "ratio", Higher, "spmv_gbs_computed / mem.triad_gbs; 0 when the triad could not leave the LLC"),
    layer("sparse.sptrsv_ns_per_nnz", "ns/nnz", Lower, "Kernels::sptrsv on the IC(0) lower factor"),
    layer("sparse.sptrsv_levels", "count", Lower, "CompiledSptrsv::level_count, mean over SPD systems"),
    layer("sparse.sptrsv_avg_level_width", "rows", Higher, "CompiledSptrsv::avg_level_width, mean over SPD systems"),
    layer("sparse.dot_gbs", "GB/s", Higher, "Kernels::dot, 16 B/element"),
    layer("sparse.axpy_gbs", "GB/s", Higher, "Kernels::axpy, 24 B/element"),
    layer("sparse.compile_spmv_us_per_knnz", "us/knnz", Lower, "CompiledSpmv::compile"),
    layer("sparse.compile_sptrsv_us_per_knnz", "us/knnz", Lower, "CompiledSptrsv::compile_lower + compile_upper"),
    layer("fabric.accounting_share", "ratio", Lower, "derived: 1 - us_per_iter_software / us_per_iter_fabric"),
    layer("fabric.cycle_walk_ns_per_row", "ns/row", Lower, "fabric::spmv::execute_matrix"),
    layer("fabric.kernels_new_us", "us", Lower, "FabricKernels::new including the schedule clone"),
    layer("fabric.host_ns_per_modeled_kcycle", "ns/kcycle", Lower, "run_with_plan host time / simulated kilocycles"),
    layer("fabric.spmv_cycle_share", "ratio", Lower, "simulated: SpMV cycles / compute cycles, paper Fig. 1 (exact)"),
    layer("fabric.reconfig_events_per_solve", "count", Lower, "simulated: stats.spmv_reconfig_events (exact)"),
    layer("telemetry.overhead_pct", "%", Lower, "untraced / traced solves_per_s - 1, passes interleaved"),
    layer("telemetry.emit_ns", "ns", Lower, "TelemetrySink::emit into a RingRecorder"),
    layer("telemetry.events_per_solve", "events", Lower, "events drained per counted solve (exact)"),
    layer("telemetry.dropped_events", "count", Lower, "RingRecorder::dropped over the counted solves"),
    layer("datasets.generate_s", "s", Lower, "generating the pool, part of setup_s"),
    layer("mem.triad_gbs", "GB/s", Higher, "STREAM-style triad, best sweep, 24 B/element"),
    layer("mem.llc_mib", "MiB", Higher, "cpu0 cache index3 size from sysfs; 0 if unreadable"),
    layer("mem.triad_array_mib", "MiB", Higher, "combined size of the three triad arrays"),
    layer("trace.request_us_p50", "us", Lower, "benchmark span: one hand-replayed request"),
    layer("trace.request_us_p99", "us", Lower, "same, p99"),
    layer("trace.fingerprint_self_us_p50", "us", Lower, "benchmark span engine.fingerprint (substituted child of the lookup)"),
    layer("trace.fingerprint_self_us_p99", "us", Lower, "same, p99"),
    layer("trace.fingerprint_share", "ratio", Lower, "its self time / request time"),
    layer("trace.cache_lookup_self_us_p50", "us", Lower, "benchmark span engine.cache_lookup minus the fingerprint"),
    layer("trace.cache_lookup_self_us_p99", "us", Lower, "same, p99"),
    layer("trace.cache_lookup_share", "ratio", Lower, "its self time / request time"),
    layer("trace.run_with_plan_self_us_p50", "us", Lower, "benchmark span core.run_with_plan"),
    layer("trace.run_with_plan_self_us_p99", "us", Lower, "same, p99"),
    layer("trace.run_with_plan_share", "ratio", Lower, "its self time / request time"),
    layer("trace.unattributed_share", "ratio", Lower, "request self time / request time"),
    layer("trace.accounted_frac", "ratio", Higher, "replayed requests' time / solve_one's time on the same requests, median over passes; the rest is the engine's wrapper"),
    layer("trace.overhead_pct", "%", Lower, "replay with spans / replay without - 1, passes interleaved"),
];

/// Which end-to-end metric, on which workload, each layer's metrics should
/// move — written down before measuring (README has the full table).
pub const INTERACTIONS: [(&str, &str); 9] = [
    ("service", "latency_p50_ms, solves_per_s on service_mixed; nothing on the three engine workloads"),
    ("engine", "latency_p50_ms, solve_ms_geomean on table2_warm and service_mixed; batch_solves_per_s on table2_warm; solves_per_s on cold_patterns (miss path); nothing on stencil_long"),
    ("core", "analyze/structure/plan: solves_per_s on cold_patterns, setup_s elsewhere; run_fixed: latency_p50_ms on table2_warm only"),
    ("solvers", "solve_ms_geomean, fast_solve_ms_geomean, pcg_solve_ms_geomean on stencil_long; ic0_factor: pcg_solve_ms_geomean everywhere"),
    ("sparse", "kernels: the three *_solve_ms_geomean on stencil_long (sptrsv: pcg only); compile_*: solves_per_s on cold_patterns"),
    ("fabric", "solve_ms_geomean on stencil_long, latency_p50_ms on table2_warm; the simulated ones must not move at all"),
    ("telemetry", "nothing with tracing off; overhead_pct is the cost of turning it on"),
    ("datasets", "setup_s"),
    ("trace", "the benchmark's own spans: where a saving on table2_warm or cold_patterns latency_p50_ms must appear"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Workload;
    use crate::json::{parse, Json};

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_obey_the_contract_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let all = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(Workload::ALL.iter().map(|w| (w.name(), "s")));
        for (name, unit) in all {
            assert!(name_ok(name), "{name}");
            assert!(unit_ok(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(Workload::ALL
            .iter()
            .all(|w| w.why().len() <= 200 && !w.why().contains('\n')));
    }

    #[test]
    fn every_layer_has_an_interaction_row() {
        for m in &PER_LAYER {
            let layer = m.name.split('.').next().unwrap();
            assert!(
                INTERACTIONS.iter().any(|(l, _)| *l == layer) || layer == "mem",
                "{layer} has no interaction row"
            );
        }
    }

    #[test]
    fn benchmark_json_mirrors_the_ledger() {
        let text = include_str!("../../BENCHMARK.json");
        assert!(text.len() <= 64 * 1024);
        let doc = parse(text).expect("BENCHMARK.json parses");
        let Json::Obj(top) = &doc else {
            panic!("top level is an object")
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("paths"),
            Some(&Json::Arr(vec![Json::str("benchmark")]))
        );

        let arr = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let workloads: Vec<Json> = Workload::ALL
            .iter()
            .map(|w| Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))]))
            .collect();
        assert_eq!(arr("workloads"), workloads);
        let end_to_end: Vec<Json> = END_TO_END
            .iter()
            .map(|m| {
                Json::obj([
                    ("name", Json::str(m.name)),
                    ("unit", Json::str(m.unit)),
                    ("better", Json::str(m.better.as_str())),
                    ("bound", Json::Num(m.bound)),
                ])
            })
            .collect();
        assert_eq!(arr("end_to_end"), end_to_end);
        let per_layer: Vec<Json> = PER_LAYER
            .iter()
            .map(|m| {
                Json::obj([
                    ("name", Json::str(m.name)),
                    ("unit", Json::str(m.unit)),
                    ("better", Json::str(m.better.as_str())),
                ])
            })
            .collect();
        assert_eq!(arr("per_layer"), per_layer);
    }
}
