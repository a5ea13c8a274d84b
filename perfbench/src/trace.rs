//! In-memory spans recorded around calls into the program's layers.
//!
//! A span has a name, the id of the query or cell it served, the span
//! that caused it, and its start and end. Spans live in memory while the
//! benchmark runs and are written out once at the end. A disabled trace
//! records nothing, so untraced runs pay one branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the trace epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder for one thread; merge per-thread recorders with
/// [`Trace::absorb`].
pub struct Trace {
    on: bool,
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle returned by [`Trace::enter`]; pass it back to [`Trace::exit`].
#[must_use]
pub struct Open(Option<usize>);

impl Trace {
    pub fn new(on: bool) -> Trace {
        Trace {
            on,
            epoch: Instant::now(),
            thread: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder for another thread sharing this trace's epoch.
    pub fn for_thread(&self, thread: u32) -> Trace {
        Trace {
            on: self.on,
            epoch: self.epoch,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span whose parent is the innermost open span.
    pub fn enter(&mut self, name: &'static str, id: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            thread: self.thread,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Close a span opened by [`Trace::enter`] (innermost first).
    pub fn exit(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            self.spans[idx].end_ns = self.now_ns();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(idx), "spans must close innermost first");
        }
    }

    /// Run `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name, id);
        let out = f();
        self.exit(open);
        out
    }

    /// Move another recorder's spans into this one.
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`, ascending.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        let mut d: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect();
        d.sort_by(f64::total_cmp);
        d
    }

    /// Self time per span name, in seconds: each span's duration minus
    /// the part of it its child spans cover.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                covered[p] += hi.saturating_sub(lo);
            }
        }
        let mut ns: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(covered) {
            *ns.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(c);
        }
        ns.into_iter()
            .map(|(name, t)| (name, t as f64 / 1e9))
            .collect()
    }

    /// The spans as a Chrome trace-event JSON array (`chrome://tracing`,
    /// Perfetto), with each span's id and parent index in `args`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 120 + 2);
        out.push('[');
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"span\":{i},\"parent\":{parent}}}}}",
                s.name,
                s.thread,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.id,
            );
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id: 0,
            parent,
            thread: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Trace::new(true);
        t.spans = vec![
            span("root", None, 0, 1000),
            span("a", Some(0), 100, 400),
            span("b", Some(0), 500, 900),
            span("leaf", Some(2), 600, 700),
        ];
        let s = t.self_seconds();
        assert_eq!(s["root"], 300e-9);
        assert_eq!(s["a"], 300e-9);
        assert_eq!(s["b"], 300e-9);
        assert_eq!(s["leaf"], 100e-9);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new(false);
        let v = t.time("x", 1, || 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nesting_and_absorb_keep_parents() {
        let mut t = Trace::new(true);
        let outer = t.enter("outer", 1);
        t.time("inner", 2, || ());
        t.exit(outer);
        let mut other = t.for_thread(1);
        let o = other.enter("outer", 3);
        other.time("inner", 4, || ());
        other.exit(o);
        t.absorb(other);
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[3].thread, 1);
        assert!(t.to_chrome_json().contains("\"parent\":2"));
    }
}
