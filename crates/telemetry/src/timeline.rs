//! Fig. 13-style reconfiguration timeline reconstructed from a trace.
//!
//! The paper's Fig. 13 plots, over a solve, which SpMV unroll
//! configuration is resident in the partial-reconfiguration region and
//! when the ICAP swaps (or aborts a swap). [`render_job`] rebuilds that
//! picture from a recorded event stream: one row per unroll factor with a
//! residency bar across the iteration axis, plus marker rows for ICAP
//! aborts and solver-region swaps.

use crate::{Counter, Event, EventKind, Region};

/// Aggregate reconfiguration activity recovered from a trace. Matches the
/// fabric's `FabricRunStats` accounting, which is what the telemetry
/// neutrality tests cross-check.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReconfigCounts {
    /// SpMV-region swaps (including post-abort recovery swaps).
    pub spmv: u64,
    /// Solver-region swaps.
    pub solver: u64,
    /// Aborted swaps.
    pub aborts: u64,
    /// Compiled-plan band / schedule-set segments executed.
    pub segments: u64,
}

/// Count reconfiguration events in a trace, optionally restricted to one
/// job (`None` aggregates every job).
pub fn reconfig_counts(events: &[Event], job: Option<u64>) -> ReconfigCounts {
    let mut out = ReconfigCounts::default();
    for e in events {
        if let Some(j) = job {
            if e.job != j {
                continue;
            }
        }
        match e.kind {
            EventKind::Reconfig { region, .. } => match region {
                Region::SpmvKernel => out.spmv += 1,
                Region::Solver => out.solver += 1,
            },
            EventKind::ReconfigAbort { .. } => out.aborts += 1,
            EventKind::SpmvSegment { .. } => out.segments += 1,
            _ => {}
        }
    }
    out
}

/// Per-set segment totals recovered from a trace: `(set, segments,
/// cycles)` sorted by set index. This is the per-set view the acceptance
/// criteria compare against the compiled-plan execution stats.
pub fn per_set_segments(events: &[Event], job: Option<u64>) -> Vec<(u32, u64, u64)> {
    let mut sets: Vec<(u32, u64, u64)> = Vec::new();
    for e in events {
        if let Some(j) = job {
            if e.job != j {
                continue;
            }
        }
        if let EventKind::SpmvSegment { set, cycles, .. } = e.kind {
            match sets.iter_mut().find(|(s, _, _)| *s == set) {
                Some(entry) => {
                    entry.1 += 1;
                    entry.2 += cycles;
                }
                None => sets.push((set, 1, cycles)),
            }
        }
    }
    sets.sort_by_key(|(s, _, _)| *s);
    sets
}

/// One residency interval on the timeline: an unroll factor active from
/// `from_iter` (inclusive) to `to_iter` (exclusive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Residency {
    unroll: u8,
    from_iter: u32,
    to_iter: u32,
}

/// Render the Fig. 13-style ASCII reconfiguration timeline for one job.
///
/// The horizontal axis is the solver iteration (from
/// [`EventKind::IterationStart`] events); each SpMV-region
/// [`EventKind::Reconfig`] starts a new residency for its unroll factor.
/// Rows are one per distinct unroll factor (descending), with `█` marking
/// residency, `^` marking ICAP aborts, and `S` marking solver-region
/// swaps. Returns a short placeholder string when the trace holds no
/// reconfiguration events for the job.
pub fn render_job(events: &[Event], job: u64, width: usize) -> String {
    let width = width.clamp(16, 160);
    let mut iter: u32 = 0;
    let mut max_iter: u32 = 0;
    let mut residencies: Vec<Residency> = Vec::new();
    let mut aborts: Vec<u32> = Vec::new();
    let mut solver_swaps: Vec<(u32, u8)> = Vec::new();
    let mut segments: u64 = 0;

    for e in events.iter().filter(|e| e.job == job) {
        match e.kind {
            EventKind::IterationStart { iteration, .. } => {
                iter = iteration;
                max_iter = max_iter.max(iteration);
            }
            EventKind::Reconfig { region, unroll, .. } => match region {
                Region::SpmvKernel => {
                    if let Some(last) = residencies.last_mut() {
                        last.to_iter = last.to_iter.max(iter);
                    }
                    residencies.push(Residency {
                        unroll,
                        from_iter: iter,
                        to_iter: iter,
                    });
                }
                Region::Solver => solver_swaps.push((iter, unroll)),
            },
            EventKind::ReconfigAbort { .. } => aborts.push(iter),
            EventKind::SpmvSegment { .. } => segments += 1,
            _ => {}
        }
    }

    if residencies.is_empty() && solver_swaps.is_empty() && aborts.is_empty() {
        return format!("job {job}: no reconfiguration events in trace\n");
    }

    // Close the last residency at the end of the observed iteration range.
    let span_end = max_iter + 1;
    if let Some(last) = residencies.last_mut() {
        last.to_iter = span_end;
    }

    let col = |iteration: u32| -> usize {
        ((iteration as usize * width) / span_end.max(1) as usize).min(width - 1)
    };

    let mut out = String::new();
    out.push_str(&format!(
        "job {job}: {span_end} iterations, {} spmv swaps ({} aborted), {} solver swaps, {segments} segments\n",
        residencies.len(),
        aborts.len(),
        solver_swaps.len(),
    ));

    // One row per distinct unroll factor, widest first.
    let mut unrolls: Vec<u8> = residencies.iter().map(|r| r.unroll).collect();
    unrolls.sort_unstable();
    unrolls.dedup();
    unrolls.reverse();

    for u in unrolls {
        let mut row = vec!['·'; width];
        for r in residencies.iter().filter(|r| r.unroll == u) {
            let a = col(r.from_iter);
            let b = col(r.to_iter.max(r.from_iter + 1).min(span_end));
            for cell in row.iter_mut().take(b.max(a + 1)).skip(a) {
                *cell = '█';
            }
        }
        out.push_str(&format!("unroll {u:>3} |"));
        out.extend(row);
        out.push_str("|\n");
    }

    if !aborts.is_empty() {
        let mut row = vec![' '; width];
        for &a in &aborts {
            row[col(a)] = '^';
        }
        out.push_str("icap abort |");
        out.extend(row);
        out.push_str("|\n");
    }

    if !solver_swaps.is_empty() {
        let mut row = vec![' '; width];
        for &(i, _) in &solver_swaps {
            row[col(i)] = 'S';
        }
        out.push_str("solver swap|");
        out.extend(row);
        out.push_str("|\n");
    }

    out.push_str(&format!("{:>11} 0{:>w$}\n", "iter", span_end, w = width));
    out
}

/// Render a compact multi-job summary: reconfiguration counts per job plus
/// the aggregate, one line each. Useful for batch traces where a full
/// per-job timeline would be overwhelming.
pub fn render_summary(events: &[Event]) -> String {
    let mut jobs: Vec<u64> = events.iter().map(|e| e.job).collect();
    jobs.sort_unstable();
    jobs.dedup();

    let mut out = String::new();
    for job in &jobs {
        let c = reconfig_counts(events, Some(*job));
        if c == ReconfigCounts::default() {
            continue;
        }
        out.push_str(&format!(
            "job {job}: spmv {} solver {} aborts {} segments {}\n",
            c.spmv, c.solver, c.aborts, c.segments
        ));
    }
    let total = reconfig_counts(events, None);
    out.push_str(&format!(
        "total: spmv {} solver {} aborts {} segments {}\n",
        total.spmv, total.solver, total.aborts, total.segments
    ));
    out
}

/// Render dropped-event and sampling context that should accompany any
/// timeline read off a bounded ring (a full ring truncates the picture).
pub fn render_capture_note(counters: &[u64; Counter::COUNT]) -> String {
    let dropped = counters[Counter::EventsDropped.index()];
    if dropped == 0 {
        "trace complete (no events dropped)\n".to_string()
    } else {
        format!("warning: {dropped} events dropped (ring full) — timeline is truncated\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(job: u64, t: u64, kind: EventKind) -> Event {
        Event {
            job,
            t_nanos: t,
            kind,
        }
    }

    fn sample_trace() -> Vec<Event> {
        vec![
            ev(
                0,
                0,
                EventKind::IterationStart {
                    iteration: 0,
                    at_cycle: 0,
                },
            ),
            ev(
                0,
                1,
                EventKind::Reconfig {
                    region: Region::SpmvKernel,
                    unroll: 8,
                    set: 0,
                    at_cycle: 0,
                    stall: 900,
                },
            ),
            ev(
                0,
                2,
                EventKind::SpmvSegment {
                    set: 0,
                    rows: 100,
                    unroll: 8,
                    cycles: 400,
                    at_cycle: 900,
                },
            ),
            ev(
                0,
                3,
                EventKind::IterationStart {
                    iteration: 1,
                    at_cycle: 1_300,
                },
            ),
            ev(
                0,
                4,
                EventKind::Reconfig {
                    region: Region::SpmvKernel,
                    unroll: 4,
                    set: 1,
                    at_cycle: 1_300,
                    stall: 500,
                },
            ),
            ev(
                0,
                5,
                EventKind::SpmvSegment {
                    set: 1,
                    rows: 50,
                    unroll: 4,
                    cycles: 150,
                    at_cycle: 1_800,
                },
            ),
            ev(
                0,
                6,
                EventKind::ReconfigAbort {
                    region: Region::SpmvKernel,
                    at_cycle: 1_950,
                    stall: 900,
                },
            ),
            ev(
                0,
                7,
                EventKind::IterationStart {
                    iteration: 2,
                    at_cycle: 2_850,
                },
            ),
            ev(
                0,
                8,
                EventKind::Reconfig {
                    region: Region::Solver,
                    unroll: 2,
                    set: 0,
                    at_cycle: 2_850,
                    stall: 4_000,
                },
            ),
            ev(1, 9, EventKind::CacheHit),
        ]
    }

    #[test]
    fn counts_match_trace() {
        let trace = sample_trace();
        let c = reconfig_counts(&trace, Some(0));
        assert_eq!(
            c,
            ReconfigCounts {
                spmv: 2,
                solver: 1,
                aborts: 1,
                segments: 2,
            }
        );
        // Job 1 has no reconfig activity.
        assert_eq!(reconfig_counts(&trace, Some(1)), ReconfigCounts::default());
        // Aggregate equals job 0.
        assert_eq!(reconfig_counts(&trace, None), c);
    }

    #[test]
    fn per_set_segments_aggregates_by_set() {
        let trace = sample_trace();
        assert_eq!(
            per_set_segments(&trace, Some(0)),
            vec![(0, 1, 400), (1, 1, 150)]
        );
    }

    #[test]
    fn render_contains_rows_and_markers() {
        let trace = sample_trace();
        let text = render_job(&trace, 0, 32);
        assert!(text.contains("unroll   8 |"), "{text}");
        assert!(text.contains("unroll   4 |"), "{text}");
        assert!(text.contains("icap abort |"), "{text}");
        assert!(text.contains("solver swap|"), "{text}");
        assert!(text.contains("2 spmv swaps (1 aborted)"), "{text}");
    }

    #[test]
    fn render_handles_empty_job() {
        let trace = sample_trace();
        let text = render_job(&trace, 1, 32);
        assert!(text.contains("no reconfiguration events"));
    }

    #[test]
    fn summary_lists_active_jobs_and_total() {
        let trace = sample_trace();
        let text = render_summary(&trace);
        assert!(text.contains("job 0: spmv 2 solver 1 aborts 1 segments 2"));
        assert!(!text.contains("job 1:"));
        assert!(text.contains("total: spmv 2 solver 1 aborts 1 segments 2"));
    }

    #[test]
    fn capture_note_reports_drops() {
        let mut counters = [0u64; Counter::COUNT];
        assert!(render_capture_note(&counters).contains("complete"));
        counters[Counter::EventsDropped.index()] = 3;
        assert!(render_capture_note(&counters).contains("3 events dropped"));
    }
}
