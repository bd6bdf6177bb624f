//! The benchmark's own spans, recorded around its calls into each layer.
//!
//! Each span carries a name, start, end, parent and request id. Spans are
//! kept in memory and written out when the traced run ends. A span's self
//! time is its duration minus the part of that interval its children
//! cover (children may overlap each other; covered time counts once).

use crate::json::Json;
use std::io::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request: u64,
    /// `true` for a span placed by substitution rather than by bracketing
    /// the call (see `Tracer::derived_child`).
    pub derived: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens `name` under the innermost open span and returns its id.
    pub fn enter(&mut self, name: &'static str, request: u64) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.now();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            request,
            derived: false,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: u32) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close innermost-first");
        self.spans[id as usize].end_ns = self.now();
    }

    /// Adds a child of the innermost open span covering its first
    /// `duration_ns` nanoseconds. Used where the program does a step inside
    /// a call the benchmark cannot bracket (the fingerprint inside the
    /// cache lookup): the step is timed on its own just before, and its
    /// duration is substituted here so the parent's self time excludes it.
    pub fn derived_child(&mut self, name: &'static str, duration_ns: u64) {
        let parent = *self
            .open
            .last()
            .expect("a derived child needs an open parent");
        let p = &self.spans[parent as usize];
        let (start_ns, request) = (p.start_ns, p.request);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + duration_ns,
            parent: Some(parent),
            request,
            derived: true,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("id", Json::Int(id as u64)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::Int(s.start_ns)),
                ("end_ns", Json::Int(s.end_ns)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                ),
                ("request", Json::Int(s.request)),
                ("derived", Json::Bool(s.derived)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

/// Self time of every span in `spans` (same indexing): duration minus the
/// union of its children's intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
            derived: false,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // request [0,100] ⊃ lookup [10,40] ⊃ fingerprint [10,30]; run [40,95].
        let spans = [
            span("request", 0, 100, None),
            span("lookup", 10, 40, Some(0)),
            span("fingerprint", 10, 30, Some(1)),
            span("run", 40, 95, Some(0)),
        ];
        // request: 100 − (30 + 55); lookup: 30 − 20; leaves keep all.
        assert_eq!(self_times(&spans), vec![15, 10, 20, 55]);
    }

    #[test]
    fn overlapping_children_count_covered_time_once() {
        // Children [10,50] and [30,70] cover [10,70] = 60, not 80; a child
        // reaching past its parent is clipped to it.
        let spans = [
            span("parent", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 70, Some(0)),
            span("c", 90, 130, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn tracer_nests_by_open_order_and_places_derived_children() {
        let mut t = Tracer::new();
        let req = t.enter("request", 7);
        let lookup = t.enter("lookup", 7);
        t.derived_child("fingerprint", 0);
        t.exit(lookup);
        t.exit(req);
        let s = t.spans();
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert!(s[2].derived && !s[1].derived);
        assert_eq!(s[2].request, 7);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn jsonl_lines_parse_back() {
        let mut t = Tracer::new();
        let a = t.enter("request", 3);
        t.exit(a);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-span-{}.jsonl", std::process::id()));
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let v = crate::json::parse(text.trim()).unwrap();
        assert_eq!(v.get("name"), Some(&Json::str("request")));
        assert_eq!(v.get("parent"), Some(&Json::Null));
        assert_eq!(v.get("request"), Some(&Json::Int(3)));
    }
}
