//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is `{name, start_ns, end_ns, parent, workload, cycle, command}`;
//! spans of one cycle share `cycle`, spans of one protocol command share
//! `command`. They are kept in memory and written as JSON lines when the
//! run ends. A layer's self time is its span's duration minus the durations
//! of the spans that name it as parent.

use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// A re-measurement of one step of `parent`'s work, run after it (see
    /// [`Tracer::probe_under`]) — not part of the replayed flow.
    pub probe: bool,
    pub cycle: u32,
    pub command: u32,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    cycle: u32,
    command: u32,
}

/// Handle of an open span; `None` when tracing is off.
pub type Open = Option<usize>;

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
            cycle: 0,
            command: 0,
        }
    }

    /// Label the spans that follow.
    pub fn at(&mut self, cycle: usize, command: usize) {
        self.cycle = cycle as u32;
        self.command = command as u32;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            probe: false,
            cycle: self.cycle,
            command: self.command,
        });
        self.open.push(self.spans.len() - 1);
        self.open.last().copied()
    }

    /// [`Tracer::begin`] when `record`, nothing otherwise: warm-up cycles
    /// run the same code without leaving spans.
    pub fn begin_if(&mut self, record: bool, name: &'static str) -> Open {
        if record {
            self.begin(name)
        } else {
            None
        }
    }

    pub fn end(&mut self, span: Open) {
        if let Some(id) = span {
            self.spans[id].end_ns = self.now_ns();
            assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        }
    }

    /// Re-measure, right after `parent` closed, one step of the work that
    /// happened inside it: the step's span names `parent` as its parent
    /// although its timestamps follow it. Self time uses durations only,
    /// so it still comes out as the parent minus the step.
    pub fn probe_under<T>(&mut self, parent: Open, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.begin(name);
        let out = f();
        self.end(span);
        if let Some(id) = span {
            self.spans[id].parent = parent;
            self.spans[id].probe = true;
        }
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of the spans `keep` accepts, per cycle, in ms.
    pub fn per_cycle(&self, cycles: usize, keep: impl Fn(&Span) -> bool) -> Vec<f64> {
        let mut out = vec![0.0; cycles];
        for s in self.spans.iter().filter(|s| keep(s)) {
            out[s.cycle as usize] += s.ms();
        }
        out
    }

    /// Total duration of the spans called `name`, per cycle, in ms.
    pub fn per_cycle_ms(&self, name: &str, cycles: usize) -> Vec<f64> {
        self.per_cycle(cycles, |s| s.name == name)
    }

    /// As [`Tracer::per_cycle_ms`], minus the time of each span's children.
    pub fn per_cycle_self_ms(&self, name: &str, cycles: usize) -> Vec<f64> {
        let mut out = self.per_cycle_ms(name, cycles);
        for s in &self.spans {
            if s.parent.is_some_and(|p| self.spans[p].name == name) {
                out[s.cycle as usize] -= s.ms();
            }
        }
        out
    }

    /// One JSON object per span, in start order.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"probe\":{},\"workload\":\"{workload}\",\"cycle\":{},\"command\":{}}}",
                s.name, s.start_ns, s.end_ns, s.probe, s.cycle, s.command
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut t = Tracer::new(true);
        t.at(1, 0);
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        t.end(inner);
        t.end(outer);
        t.probe_under(outer, "probe", || ());
        let s = t.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(
            s[2].parent,
            Some(0),
            "a probe hangs under the span it re-measures"
        );
        assert!(s[2].start_ns >= s[0].end_ns);
        let total = t.per_cycle_ms("outer", 2);
        let own = t.per_cycle_self_ms("outer", 2);
        assert_eq!(total[0], 0.0);
        assert!((total[1] - own[1] - s[1].ms() - s[2].ms()).abs() < 1e-9);
        let jsonl = t.to_jsonl("w");
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"name\":\"outer\",\"start_ns\":"));
        assert!(lines[0].ends_with(
            "\"parent\":null,\"probe\":false,\"workload\":\"w\",\"cycle\":1,\"command\":0}"
        ));
        assert!(lines[2].contains("\"parent\":0,\"probe\":true,"));
        assert!(lines[1].contains("\"parent\":0,"));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("x");
        t.end(s);
        assert_eq!(t.probe_under(s, "y", || 7), 7);
        assert!(t.spans().is_empty());
    }
}
