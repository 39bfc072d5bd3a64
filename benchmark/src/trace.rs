//! Spans recorded around calls into the simulator's public API.
//!
//! A traced pass records `workload` ⊃ (`setup`, `warmup`, `window`…), and
//! each window ⊃ the calls it made: `driver` (one `Injector::on_cycle`)
//! and `machine` (the machine loop between two driver calls) for driven
//! meshes, `machine` (one `Machine::run`) for the ring, and `coll_nic` /
//! `coll_soft` (one `run_coll_point` each) for the collective storm. A
//! span's self time is its duration minus the time its children cover.

use std::fmt::Write as _;
use std::time::Instant;

use tcni_sim::{CycleDriver, Node};

/// One closed interval of host time.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What ran.
    pub name: &'static str,
    /// Start, in ns since the log's origin.
    pub start_ns: u64,
    /// End, in ns since the log's origin.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans of one workload, kept in memory until the run ends.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

/// Per-name totals: `(name, count, total ns, self ns)`.
pub type SelfTimes = Vec<(&'static str, u64, u64, u64)>;

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span; returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span at `start`; [`close`](Self::close) sets its end.
    pub fn open(&mut self, name: &'static str, start: Instant, parent: Option<usize>) -> usize {
        self.push(name, start, start, parent)
    }

    /// Sets the end of an open span.
    pub fn close(&mut self, id: usize, end: Instant) {
        self.spans[id].end_ns = self.ns(end);
    }

    /// Count, total and self time per span name, in first-seen order.
    pub fn self_times(&self) -> SelfTimes {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur();
            }
        }
        let mut out: SelfTimes = Vec::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let own = s.dur().saturating_sub(children);
            match out.iter_mut().find(|e| e.0 == s.name) {
                Some(e) => {
                    e.1 += 1;
                    e.2 += s.dur();
                    e.3 += own;
                }
                None => out.push((s.name, 1, s.dur(), own)),
            }
        }
        out
    }

    /// The log as JSON: every span, then the per-name self times.
    pub fn to_json(&self, workload: &str) -> String {
        let mut o = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(o, "{{\n  \"workload\": \"{workload}\",\n  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                o,
                "{sep}    {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"workload\": \"{workload}\"}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        o.push_str("\n  ],\n  \"self_ns\": [");
        for (i, (name, count, total, own)) in self.self_times().into_iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                o,
                "{sep}    {{\"name\": \"{name}\", \"count\": {count}, \"total_ns\": {total}, \
                 \"self_ns\": {own}}}"
            );
        }
        o.push_str("\n  ]\n}\n");
        o
    }
}

/// A [`CycleDriver`] that times the driver it wraps: it reads the clock on
/// entry to and exit from each `on_cycle`, records the call as a `driver`
/// span and the gap since the previous exit as a `machine` span. It changes
/// nothing the simulation sees.
pub struct TimedDriver<'a, D> {
    inner: &'a mut D,
    log: &'a mut SpanLog,
    parent: usize,
    last_exit: Instant,
    /// Host ns spent inside the wrapped driver.
    pub driver_ns: u64,
}

impl<'a, D: CycleDriver> TimedDriver<'a, D> {
    /// Wraps `inner` for one window span `parent` that opened at `start`.
    pub fn new(inner: &'a mut D, log: &'a mut SpanLog, parent: usize, start: Instant) -> Self {
        TimedDriver {
            inner,
            log,
            parent,
            last_exit: start,
            driver_ns: 0,
        }
    }

    /// Records the machine's time after the last driver call, up to `end`.
    pub fn finish(self, end: Instant) -> u64 {
        self.log
            .push("machine", self.last_exit, end, Some(self.parent));
        self.driver_ns
    }
}

impl<D: CycleDriver> CycleDriver for TimedDriver<'_, D> {
    fn on_cycle(&mut self, cycle: u64, nodes: &mut [Node]) -> bool {
        let entry = Instant::now();
        self.log
            .push("machine", self.last_exit, entry, Some(self.parent));
        let go_on = self.inner.on_cycle(cycle, nodes);
        let exit = Instant::now();
        self.log.push("driver", entry, exit, Some(self.parent));
        self.driver_ns += (exit - entry).as_nanos() as u64;
        self.last_exit = exit;
        go_on
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut log = SpanLog::new();
        let t0 = log.origin;
        let at = |ns| t0 + Duration::from_nanos(ns);
        let w = log.push("window", at(0), at(100), None);
        log.push("driver", at(10), at(20), Some(w));
        log.push("machine", at(20), at(90), Some(w));
        let times = log.self_times();
        assert_eq!(times[0], ("window", 1, 100, 20));
        assert_eq!(times[1], ("driver", 1, 10, 10));
        assert_eq!(times[2], ("machine", 1, 70, 70));
        let json = log.to_json("w");
        assert!(json.contains("\"parent\": 0"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
