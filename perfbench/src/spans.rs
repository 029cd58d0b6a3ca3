//! The benchmark's own spans: one around each call it makes into a layer's
//! public functions. Spans stay in memory while the run measures and are
//! written out as NDJSON once it ends, so writing them costs the run
//! nothing. The program under test is not instrumented by this module.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.end_ns - self.start_ns)
    }
}

#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Spans {
    /// Runs `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now();
        result
    }

    /// The most recent closed span named `name`.
    pub fn last(&self, name: &str) -> Option<&Span> {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name && s.end_ns > 0)
    }

    /// Every closed span named `name`, oldest first.
    pub fn all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name && s.end_ns > 0)
    }

    /// One JSON object per span: `{"id","name","start_ns","end_ns","parent"}`.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"id":{id},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent}}}"#,
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }

    pub fn write_ndjson(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_ndjson())
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent_and_enclose_children() {
        let mut spans = Spans::default();
        let value = spans.time("outer", |s| s.time("inner", |_| 1) + s.time("inner", |_| 2));
        assert_eq!(value, 3);
        let outer = spans.last("outer").unwrap().clone();
        let inners: Vec<&Span> = spans.all("inner").collect();
        assert_eq!(inners.len(), 2);
        for inner in inners {
            assert_eq!(inner.parent, Some(0));
            assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        }
        assert_eq!(outer.parent, None);
        let text = spans.to_ndjson();
        assert_eq!(text.lines().count(), 3);
        assert!(text.starts_with(r#"{"id":0,"name":"outer","#));
        assert!(text.contains(r#""parent":0}"#));
    }
}
