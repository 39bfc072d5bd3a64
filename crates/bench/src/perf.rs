//! The in-tree timing/statistics harness (the offline replacement for
//! Criterion) and the `BENCH_simulator.json` report format.
//!
//! Design goals, in order: zero dependencies, deterministic methodology
//! (fixed warmup + rep counts, median-based throughput so one scheduler
//! hiccup cannot skew a result), and a machine-readable report so every
//! future change has a perf trajectory to compare against.
//!
//! ## Report schema (`BENCH_simulator.json`)
//!
//! ```json
//! {
//!   "schema": "tcni-bench/1",
//!   "host_threads": 8,
//!   "results": [
//!     { "name": "machine_step/spin16", "unit": "cycles/sec",
//!       "value": 1.23e7, "work_per_call": 10000, "reps": 7,
//!       "median_ns": 813000, "mean_ns": 820100,
//!       "min_ns": 799000, "max_ns": 861000, "stddev_ns": 20100,
//!       "host_threads": 8, "tcni_threads": 1 }
//!   ],
//!   "pipeline": { "serial_ms": 4200.0, "parallel_ms": 1100.0,
//!                 "speedup": 3.8, "threads": 8 }
//! }
//! ```
//!
//! `value` is always `work_per_call / median_seconds` in `unit`; the raw
//! nanosecond statistics let later tooling recompute anything else.

use std::time::Instant;

/// One benchmark's samples and derived statistics.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark name, `group/case` by convention.
    pub name: String,
    /// Unit of [`value`](Measurement::value) (e.g. `cycles/sec`).
    pub unit: &'static str,
    /// Work items performed per timed call (cycles stepped, messages
    /// delivered…).
    pub work_per_call: f64,
    /// Wall time of each timed call, in nanoseconds.
    pub samples_ns: Vec<u64>,
    /// Named simulator counters attached to this measurement (e.g. the
    /// hot-set scheduler's `scanned_channels`/`skipped_work` meters),
    /// serialized as a `"counters"` object when non-empty.
    pub counters: Vec<(String, u64)>,
    /// Host core count detected when this measurement ran (what
    /// `std::thread::available_parallelism` reported — the ceiling any
    /// speedup could reach on this host).
    pub host_threads: usize,
    /// The resolved `TCNI_THREADS` at measurement time: the width of any
    /// `par_map` fan-out inside the measured code. A machine's cycle is
    /// serial, so it does not widen a single machine's run.
    pub tcni_threads: usize,
}

impl Measurement {
    /// Median sample, in nanoseconds.
    pub fn median_ns(&self) -> u64 {
        let mut s = self.samples_ns.clone();
        s.sort_unstable();
        s[s.len() / 2]
    }

    /// Mean sample, in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        self.samples_ns.iter().sum::<u64>() as f64 / self.samples_ns.len() as f64
    }

    /// Smallest sample, in nanoseconds.
    pub fn min_ns(&self) -> u64 {
        *self.samples_ns.iter().min().expect("non-empty")
    }

    /// Largest sample, in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        *self.samples_ns.iter().max().expect("non-empty")
    }

    /// Population standard deviation, in nanoseconds.
    pub fn stddev_ns(&self) -> f64 {
        let mean = self.mean_ns();
        let var = self
            .samples_ns
            .iter()
            .map(|&s| {
                let d = s as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / self.samples_ns.len() as f64;
        var.sqrt()
    }

    /// Throughput: `work_per_call` per median-sample second.
    pub fn value(&self) -> f64 {
        self.work_per_call / (self.median_ns() as f64 / 1e9)
    }

    /// One human-readable summary line.
    pub fn summary(&self) -> String {
        format!(
            "{:<28} {:>14.3e} {unit:<14} (median {:.3} ms over {} reps)",
            self.name,
            self.value(),
            self.median_ns() as f64 / 1e6,
            self.samples_ns.len(),
            unit = self.unit,
        )
    }
}

/// Times `f` — which performs `work_per_call` units of work per call — for
/// `reps` samples after `warmup` untimed calls.
pub fn bench<R>(
    name: &str,
    unit: &'static str,
    work_per_call: f64,
    warmup: usize,
    reps: usize,
    mut f: impl FnMut() -> R,
) -> Measurement {
    assert!(reps > 0, "at least one rep");
    for _ in 0..warmup {
        std::hint::black_box(f());
    }
    let mut samples_ns = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(f());
        samples_ns.push(t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
    }
    Measurement {
        name: name.to_owned(),
        unit,
        work_per_call,
        samples_ns,
        counters: Vec::new(),
        host_threads: detected_host_threads(),
        tcni_threads: tcni_util::par::threads(),
    }
}

/// The host's detected core count (`1` when detection fails).
pub fn detected_host_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The serial-vs-parallel pipeline comparison.
#[derive(Debug, Clone, Copy)]
pub struct PipelineTiming {
    /// Wall milliseconds with the worker count forced to 1.
    pub serial_ms: f64,
    /// Wall milliseconds with automatic worker resolution.
    pub parallel_ms: f64,
    /// Worker count the parallel run resolved to.
    pub threads: usize,
}

impl PipelineTiming {
    /// Serial time over parallel time.
    pub fn speedup(&self) -> f64 {
        self.serial_ms / self.parallel_ms
    }
}

/// A full report, rendered to JSON by [`to_json`](Report::to_json).
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Individual measurements.
    pub results: Vec<Measurement>,
    /// The pipeline comparison, when measured.
    pub pipeline: Option<PipelineTiming>,
}

/// Escapes a string for a JSON literal (names here are plain ASCII, but be
/// correct anyway).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats a float for JSON (finite; no NaN/infinity in this schema).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

impl Report {
    /// Renders the report as pretty-printed JSON (schema `tcni-bench/1`).
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema\": \"tcni-bench/1\",");
        let _ = writeln!(
            out,
            "  \"generated_by\": \"cargo run --release -p tcni-bench --bin perf\","
        );
        let _ = writeln!(out, "  \"host_threads\": {},", detected_host_threads());
        let _ = writeln!(out, "  \"results\": [");
        for (i, m) in self.results.iter().enumerate() {
            let comma = if i + 1 < self.results.len() { "," } else { "" };
            let _ = write!(
                out,
                "    {{ \"name\": \"{}\", \"unit\": \"{}\", \"value\": {}, \
                 \"work_per_call\": {}, \"reps\": {}, \"median_ns\": {}, \
                 \"mean_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \"stddev_ns\": {}, \
                 \"host_threads\": {}, \"tcni_threads\": {}",
                json_escape(&m.name),
                json_escape(m.unit),
                json_num(m.value()),
                json_num(m.work_per_call),
                m.samples_ns.len(),
                m.median_ns(),
                json_num(m.mean_ns()),
                m.min_ns(),
                m.max_ns(),
                json_num(m.stddev_ns()),
                m.host_threads,
                m.tcni_threads,
            );
            if !m.counters.is_empty() {
                let _ = write!(out, ", \"counters\": {{ ");
                for (k, (name, v)) in m.counters.iter().enumerate() {
                    let sep = if k + 1 < m.counters.len() { ", " } else { " " };
                    let _ = write!(out, "\"{}\": {v}{sep}", json_escape(name));
                }
                let _ = write!(out, "}}");
            }
            let _ = writeln!(out, " }}{comma}");
        }
        let _ = write!(out, "  ]");
        if let Some(p) = self.pipeline {
            let _ = writeln!(out, ",");
            let _ = writeln!(
                out,
                "  \"pipeline\": {{ \"serial_ms\": {}, \"parallel_ms\": {}, \
                 \"speedup\": {}, \"threads\": {} }}",
                json_num(p.serial_ms),
                json_num(p.parallel_ms),
                json_num(p.speedup()),
                p.threads,
            );
        } else {
            let _ = writeln!(out);
        }
        let _ = writeln!(out, "}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistics_are_sane() {
        let m = Measurement {
            name: "t".into(),
            unit: "ops/sec",
            work_per_call: 100.0,
            samples_ns: vec![200, 100, 300],
            counters: Vec::new(),
            host_threads: 1,
            tcni_threads: 1,
        };
        assert_eq!(m.median_ns(), 200);
        assert_eq!(m.min_ns(), 100);
        assert_eq!(m.max_ns(), 300);
        assert!((m.mean_ns() - 200.0).abs() < 1e-9);
        // 100 items per 200 ns → 5e8 items/sec.
        assert!((m.value() - 5e8).abs() / 5e8 < 1e-9);
    }

    #[test]
    fn bench_collects_reps() {
        let mut calls = 0usize;
        let m = bench("count", "ops/sec", 1.0, 2, 5, || calls += 1);
        assert_eq!(calls, 7, "2 warmup + 5 timed");
        assert_eq!(m.samples_ns.len(), 5);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let mut r = Report::default();
        r.results.push(Measurement {
            name: "a/b".into(),
            unit: "cycles/sec",
            work_per_call: 10.0,
            samples_ns: vec![50],
            counters: Vec::new(),
            host_threads: 1,
            tcni_threads: 1,
        });
        r.pipeline = Some(PipelineTiming {
            serial_ms: 10.0,
            parallel_ms: 2.5,
            threads: 4,
        });
        let j = r.to_json();
        assert!(j.contains("\"schema\": \"tcni-bench/1\""));
        assert!(j.contains("\"name\": \"a/b\""));
        assert!(j.contains("\"speedup\": 4"));
        // Balanced braces/brackets — cheap structural sanity.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn counters_serialize_when_present() {
        let mut r = Report::default();
        r.results.push(Measurement {
            name: "mesh/hotset".into(),
            unit: "cycles/sec",
            work_per_call: 10.0,
            samples_ns: vec![50],
            counters: vec![("scanned_channels".into(), 42), ("skipped_work".into(), 7)],
            host_threads: 1,
            tcni_threads: 1,
        });
        let j = r.to_json();
        assert!(j.contains("\"counters\": { \"scanned_channels\": 42, \"skipped_work\": 7 }"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        // A counter-less measurement omits the object entirely.
        r.results[0].counters.clear();
        assert!(!r.to_json().contains("counters"));
    }

    #[test]
    fn escaping() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
    }
}
