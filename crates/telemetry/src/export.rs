//! Trace and metrics exporters.
//!
//! Two output formats, both hand-rolled over `std` only:
//!
//! - **JSON lines** ([`json_lines`] / [`event_json`]): one self-contained
//!   JSON object per event, suitable for `trace.jsonl` artifacts and for
//!   line-oriented diffing in CI;
//! - **Prometheus text format** ([`PrometheusWriter`]): `# HELP`/`# TYPE`
//!   preambles plus one sample per metric, suitable for a metrics snapshot
//!   scraped off a batch report.

use crate::{Counter, Event, EventKind};

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        // `{:e}` keeps tiny residuals exact without fixed-point blowup.
        format!("{v:e}")
    } else {
        "null".to_string()
    }
}

/// Serialize one event as a single-line JSON object (no trailing newline).
pub fn event_json(e: &Event) -> String {
    let mut s = format!("{{\"job\":{},\"t_ns\":{}", e.job, e.t_nanos);
    match e.kind {
        EventKind::JobStart { fast } => {
            s.push_str(&format!(",\"kind\":\"job_start\",\"fast\":{fast}"));
        }
        EventKind::JobEnd { converged, rungs } => {
            s.push_str(&format!(
                ",\"kind\":\"job_end\",\"converged\":{converged},\"rungs\":{rungs}"
            ));
        }
        EventKind::SpanEnter { span } => {
            s.push_str(&format!(
                ",\"kind\":\"span_enter\",\"span\":\"{}\"",
                span.as_str()
            ));
        }
        EventKind::SpanExit { span, nanos } => {
            s.push_str(&format!(
                ",\"kind\":\"span_exit\",\"span\":\"{}\",\"nanos\":{nanos}",
                span.as_str()
            ));
        }
        EventKind::CacheHit => s.push_str(",\"kind\":\"cache_hit\""),
        EventKind::CacheMiss { analysis_nanos } => {
            s.push_str(&format!(
                ",\"kind\":\"cache_miss\",\"analysis_nanos\":{analysis_nanos}"
            ));
        }
        EventKind::CacheCollision => s.push_str(",\"kind\":\"cache_collision\""),
        EventKind::AttemptStart { solver, rung } => {
            s.push_str(&format!(
                ",\"kind\":\"attempt_start\",\"solver\":{solver},\"rung\":{rung}"
            ));
        }
        EventKind::AttemptEnd {
            solver,
            rung,
            converged,
            iterations,
        } => {
            s.push_str(&format!(
                ",\"kind\":\"attempt_end\",\"solver\":{solver},\"rung\":{rung},\
                 \"converged\":{converged},\"iterations\":{iterations}"
            ));
        }
        EventKind::Residual {
            iteration,
            relative,
        } => {
            s.push_str(&format!(
                ",\"kind\":\"residual\",\"iteration\":{iteration},\"relative\":{}",
                json_f64(relative)
            ));
        }
        EventKind::PhaseStart { phase } => {
            s.push_str(&format!(",\"kind\":\"phase_start\",\"phase\":{phase}"));
        }
        EventKind::IterationStart { iteration } => {
            s.push_str(&format!(
                ",\"kind\":\"iteration_start\",\"iteration\":{iteration}"
            ));
        }
        EventKind::Reconfig {
            region,
            unroll,
            set,
        } => {
            s.push_str(&format!(
                ",\"kind\":\"reconfig\",\"region\":\"{}\",\"unroll\":{unroll},\"set\":{set}",
                region.as_str()
            ));
        }
        EventKind::ReconfigAbort { region } => {
            s.push_str(&format!(
                ",\"kind\":\"reconfig_abort\",\"region\":\"{}\"",
                region.as_str()
            ));
        }
        EventKind::SpmvSegment {
            set,
            rows,
            unroll,
            cycles,
        } => {
            s.push_str(&format!(
                ",\"kind\":\"spmv_segment\",\"set\":{set},\"rows\":{rows},\
                 \"unroll\":{unroll},\"cycles\":{cycles}"
            ));
        }
        EventKind::FaultInjected { category, site } => {
            s.push_str(&format!(
                ",\"kind\":\"fault_injected\",\"category\":{category},\"site\":{site}"
            ));
        }
        EventKind::FaultOutcome {
            category,
            resolution,
        } => {
            s.push_str(&format!(
                ",\"kind\":\"fault_outcome\",\"category\":{category},\"resolution\":\"{}\"",
                resolution.as_str()
            ));
        }
        EventKind::RescueStep { step, solver } => {
            s.push_str(&format!(
                ",\"kind\":\"rescue_step\",\"step\":{step},\"solver\":{solver}"
            ));
        }
        EventKind::JobAdmitted { shard, depth } => {
            s.push_str(&format!(
                ",\"kind\":\"job_admitted\",\"shard\":{shard},\"depth\":{depth}"
            ));
        }
        EventKind::JobRejected { shard, depth } => {
            s.push_str(&format!(
                ",\"kind\":\"job_rejected\",\"shard\":{shard},\"depth\":{depth}"
            ));
        }
        EventKind::JobShed {
            shard,
            waited_nanos,
        } => {
            s.push_str(&format!(
                ",\"kind\":\"job_shed\",\"shard\":{shard},\"waited_nanos\":{waited_nanos}"
            ));
        }
        EventKind::JobDispatched { shard, wait_nanos } => {
            s.push_str(&format!(
                ",\"kind\":\"job_dispatched\",\"shard\":{shard},\"wait_nanos\":{wait_nanos}"
            ));
        }
        EventKind::HealthTransition { shard, from, to } => {
            s.push_str(&format!(
                ",\"kind\":\"health_transition\",\"shard\":{shard},\
                 \"from\":\"{}\",\"to\":\"{}\"",
                from.as_str(),
                to.as_str()
            ));
        }
        EventKind::Failover { from, to } => {
            s.push_str(&format!(
                ",\"kind\":\"failover\",\"from\":{from},\"to\":{to}"
            ));
        }
        EventKind::BreakerProbe { shard } => {
            s.push_str(&format!(",\"kind\":\"breaker_probe\",\"shard\":{shard}"));
        }
        EventKind::JobRetried { shard, attempt } => {
            s.push_str(&format!(
                ",\"kind\":\"job_retried\",\"shard\":{shard},\"attempt\":{attempt}"
            ));
        }
        EventKind::DispatcherRestarted { shard, restarts } => {
            s.push_str(&format!(
                ",\"kind\":\"dispatcher_restarted\",\"shard\":{shard},\"restarts\":{restarts}"
            ));
        }
        EventKind::WarmStartUsed { step } => {
            s.push_str(&format!(",\"kind\":\"warm_start_used\",\"step\":{step}"));
        }
        EventKind::WarmStartRejected { step } => {
            s.push_str(&format!(
                ",\"kind\":\"warm_start_rejected\",\"step\":{step}"
            ));
        }
        EventKind::CacheEvicted => s.push_str(",\"kind\":\"cache_evicted\""),
        EventKind::PreconditionerSelected { ic0, levels } => {
            s.push_str(&format!(
                ",\"kind\":\"preconditioner_selected\",\"ic0\":{ic0},\"levels\":{levels}"
            ));
        }
    }
    s.push('}');
    s
}

/// Serialize a slice of events as JSON lines (one object per line,
/// newline-terminated). Write the result to a `.jsonl` trace file.
pub fn json_lines(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&event_json(e));
        out.push('\n');
    }
    out
}

/// Incremental Prometheus text-format builder.
///
/// ```
/// use acamar_telemetry::export::PrometheusWriter;
/// let mut w = PrometheusWriter::new();
/// w.counter("acamar_jobs_completed_total", "Jobs completed", 42);
/// w.gauge("acamar_batch_wall_seconds", "Batch wall time", 1.5);
/// let text = w.finish();
/// assert!(text.contains("acamar_jobs_completed_total 42"));
/// ```
#[derive(Debug, Default)]
pub struct PrometheusWriter {
    out: String,
}

impl PrometheusWriter {
    /// An empty writer.
    pub fn new() -> PrometheusWriter {
        PrometheusWriter::default()
    }

    /// Append a `counter`-typed metric sample.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) -> &mut PrometheusWriter {
        self.out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
        ));
        self
    }

    /// Append a `gauge`-typed metric sample.
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) -> &mut PrometheusWriter {
        let v = if value.is_finite() {
            format!("{value}")
        } else {
            "NaN".to_string()
        };
        self.out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {v}\n"
        ));
        self
    }

    /// Append one `counter`-typed metric with a label per sample (e.g.
    /// per-shard counters): the `# HELP`/`# TYPE` preamble is written
    /// once, then one `name{label="value"} sample` line per entry.
    pub fn counter_samples(
        &mut self,
        name: &str,
        help: &str,
        label: &str,
        samples: &[(String, u64)],
    ) -> &mut PrometheusWriter {
        self.out
            .push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n"));
        for (value, sample) in samples {
            self.out
                .push_str(&format!("{name}{{{label}=\"{value}\"}} {sample}\n"));
        }
        self
    }

    /// Append every telemetry counter from a snapshot, in declaration
    /// order, using the canonical metric names.
    pub fn counters(&mut self, snapshot: &[u64; Counter::COUNT]) -> &mut PrometheusWriter {
        for c in Counter::ALL {
            self.counter(c.metric_name(), c.help(), snapshot[c.index()]);
        }
        self
    }

    /// The accumulated exposition text.
    pub fn finish(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HealthState, Region, Span};

    #[test]
    fn event_json_is_one_object_per_kind() {
        let cases = [
            EventKind::JobStart { fast: true },
            EventKind::JobEnd {
                converged: true,
                rungs: 2,
            },
            EventKind::SpanEnter { span: Span::Solve },
            EventKind::SpanExit {
                span: Span::Solve,
                nanos: 10,
            },
            EventKind::CacheHit,
            EventKind::CacheMiss { analysis_nanos: 5 },
            EventKind::CacheCollision,
            EventKind::Reconfig {
                region: Region::SpmvKernel,
                unroll: 8,
                set: 1,
            },
            EventKind::Residual {
                iteration: 3,
                relative: 1.25e-6,
            },
            EventKind::HealthTransition {
                shard: 2,
                from: HealthState::Healthy,
                to: HealthState::Suspect,
            },
            EventKind::Failover { from: 2, to: 0 },
            EventKind::BreakerProbe { shard: 2 },
            EventKind::JobRetried {
                shard: 0,
                attempt: 1,
            },
            EventKind::DispatcherRestarted {
                shard: 2,
                restarts: 1,
            },
            EventKind::WarmStartUsed { step: 5 },
            EventKind::WarmStartRejected { step: 6 },
            EventKind::CacheEvicted,
        ];
        for kind in cases {
            let line = event_json(&Event {
                job: 9,
                t_nanos: 100,
                kind,
            });
            assert!(line.starts_with("{\"job\":9,\"t_ns\":100"), "{line}");
            assert!(line.ends_with('}'), "{line}");
            assert!(line.contains("\"kind\":\""), "{line}");
            // Balanced braces on a single line.
            assert_eq!(line.matches('{').count(), line.matches('}').count());
            assert!(!line.contains('\n'));
        }
    }

    #[test]
    fn json_lines_newline_terminates_each_event() {
        let events = [
            Event {
                job: 0,
                t_nanos: 0,
                kind: EventKind::JobStart { fast: false },
            },
            Event {
                job: 0,
                t_nanos: 1,
                kind: EventKind::CacheHit,
            },
        ];
        let text = json_lines(&events);
        assert_eq!(text.lines().count(), 2);
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn prometheus_writer_emits_help_type_sample() {
        let mut w = PrometheusWriter::new();
        w.counter("acamar_test_total", "A test counter", 7);
        w.gauge("acamar_test_gauge", "A test gauge", 0.5);
        let text = w.finish();
        assert!(text.contains("# HELP acamar_test_total A test counter\n"));
        assert!(text.contains("# TYPE acamar_test_total counter\n"));
        assert!(text.contains("acamar_test_total 7\n"));
        assert!(text.contains("# TYPE acamar_test_gauge gauge\n"));
        assert!(text.contains("acamar_test_gauge 0.5\n"));
    }

    #[test]
    fn prometheus_counters_cover_every_counter() {
        let snapshot = [3u64; Counter::COUNT];
        let mut w = PrometheusWriter::new();
        w.counters(&snapshot);
        let text = w.finish();
        for c in Counter::ALL {
            assert!(
                text.contains(&format!("{} 3\n", c.metric_name())),
                "missing {}",
                c.metric_name()
            );
        }
    }
}
