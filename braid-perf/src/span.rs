//! In-memory spans around the benchmark's calls into each layer.
//!
//! A [`Tracer`] records spans only when it is on, so the untraced runs
//! that produce the end-to-end metrics pay one branch per call. Spans are
//! kept in memory and written out once, at the end of the run.

use std::time::Instant;

use braid_sweep::json::Json;

/// One finished span. Times are nanoseconds from the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.functional.trace`.
    pub name: String,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
    /// Index of the enclosing span in the same run.
    pub parent: Option<usize>,
    /// Which child process of the run recorded the span.
    pub run: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// The span as one JSON-lines record.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("run".into(), Json::Int(self.run)),
            ("name".into(), Json::Str(self.name.clone())),
            ("start_ns".into(), Json::Int(self.start)),
            ("end_ns".into(), Json::Int(self.end)),
            (
                "parent".into(),
                self.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
            ),
        ])
    }

    /// Parses a record written by [`Span::to_json`].
    pub fn from_json(doc: &Json) -> Option<Span> {
        Some(Span {
            run: doc.get("run")?.as_u64()?,
            name: doc.get("name")?.as_str()?.to_string(),
            start: doc.get("start_ns")?.as_u64()?,
            end: doc.get("end_ns")?.as_u64()?,
            parent: match doc.get("parent")? {
                Json::Null => None,
                p => Some(usize::try_from(p.as_u64()?).ok()?),
            },
        })
    }
}

/// Records nested spans on one thread.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested in the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Opens a span explicitly (for spans whose body itself records
    /// spans); close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        if self.on {
            let start = self.now();
            let parent = self.open.last().copied();
            self.spans.push(Span {
                name: name.into(),
                start,
                end: start,
                parent,
                run: 0,
            });
            self.open.push(id);
        }
        id
    }

    /// Closes the span [`Tracer::enter`] returned.
    pub fn exit(&mut self, id: usize) {
        if self.on {
            let end = self.now();
            self.spans[id].end = end;
            self.open.retain(|&o| o != id);
        }
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur() - covered.min(s.dur())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start,
            end,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a` by 10: the union of the children is [10, 60).
            span("b", 30, 60, Some(0)),
            span("leaf", 12, 20, Some(1)),
            // A child poking past its parent only covers the parent's part.
            span("late", 90, 130, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t, vec![100 - 50 - 10, 30 - 8, 30, 8, 40]);
    }

    #[test]
    fn tracer_nests_and_round_trips_through_json() {
        let mut tr = Tracer::new(true);
        let root = tr.enter("root");
        let v = tr.span("inner", || 7);
        tr.exit(root);
        assert_eq!(v, 7);
        let spans = tr.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        for s in &spans {
            assert_eq!(Span::from_json(&s.to_json()).as_ref(), Some(s));
        }
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let id = tr.enter("root");
        tr.span("inner", || ());
        tr.exit(id);
        assert!(tr.into_spans().is_empty());
    }
}
