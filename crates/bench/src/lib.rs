//! # tcni-bench — regenerating the paper's evaluation artifacts
//!
//! Binaries (each prints the corresponding paper artifact):
//!
//! * `table1` — the measured Table 1 next to the published one, with a
//!   per-cell delta matrix (experiment E1);
//! * `figure12` — the Figure-12 panels for 100×100 Matrix Multiply and 16
//!   Gamteb (plus `fib` as an extra program), under measured or published
//!   costs, with the headline metrics (experiments E2/E3/E5);
//! * `sweep` — the §4.2.3 off-chip-latency sensitivity sweep and the
//!   queue-capacity / per-optimization ablations (E4, A1, A2).
//!
//! * `netstats` — the observability reporter: runs an instrumented mesh
//!   ring workload and emits the `tcni-trace/1` JSON artifact plus a
//!   human-readable summary (see [`obs_run`] and EXPERIMENTS.md);
//! * `loadgen` — the synthetic load generator: offered-load/latency sweeps
//!   over {model × fabric × pattern} cells with saturation detection,
//!   written as the `tcni-load/1` artifact (see [`load`] and
//!   EXPERIMENTS.md).
//!
//! Host-time performance is measured by the repo benchmark in `benchmark/`
//! (`BENCHMARK.json`), not by this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod load;
pub mod obs_run;

use tcni_eval::table1::{ModelCosts, Table1};
use tcni_sim::Model;

/// Writes a binary's artifact to `path`. On failure it prints the path and
/// the OS error to stderr and exits with code 1, rather than panicking.
pub fn write_artifact(path: &str, contents: &str) {
    if let Err(err) = std::fs::write(path, contents) {
        eprintln!("cannot write {path}: {err}");
        std::process::exit(1);
    }
}

/// Renders a per-cell comparison of the measured table against the paper's
/// published numbers (measured − published; ranges compared by midpoint).
pub fn delta_matrix(measured: &Table1, published: &[ModelCosts; 6]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "per-cell deltas (measured − published), model order: {}",
        Model::ALL_SIX.map(|m| m.key()).join(" / ")
    );
    let mut row = |label: &str, f: &dyn Fn(&ModelCosts) -> f64| {
        let _ = write!(out, "{label:<22}");
        for (m, p) in measured.models.iter().zip(published.iter()) {
            let d = f(m) - f(p);
            let _ = write!(out, " {d:>+6.1}");
        }
        let _ = writeln!(out);
    };
    row("send (0 words)", &|m| m.send[0].mid());
    row("send (1 word)", &|m| m.send[1].mid());
    row("send (2 words)", &|m| m.send[2].mid());
    row("send PRead", &|m| m.pread.mid());
    row("send PWrite", &|m| m.pwrite.mid());
    row("send Read", &|m| m.read.mid());
    row("send Write", &|m| m.write.mid());
    row("dispatch", &|m| f64::from(m.dispatch));
    row("proc Send (0)", &|m| f64::from(m.proc_send[0]));
    row("proc Send (1)", &|m| f64::from(m.proc_send[1]));
    row("proc Send (2)", &|m| f64::from(m.proc_send[2]));
    row("proc Read", &|m| f64::from(m.proc_read));
    row("proc Write", &|m| f64::from(m.proc_write));
    row("proc PRead full", &|m| f64::from(m.proc_pread_full));
    row("proc PRead empty", &|m| f64::from(m.proc_pread_empty));
    row("proc PRead deferred", &|m| f64::from(m.proc_pread_deferred));
    row("proc PWrite empty", &|m| f64::from(m.proc_pwrite_empty));
    row("proc PWrite def base", &|m| {
        f64::from(m.proc_pwrite_deferred_base)
    });
    row("proc PWrite def slope", &|m| {
        f64::from(m.proc_pwrite_deferred_slope)
    });
    out
}

/// How many of the Send/Read/Write/dispatch cells match the paper exactly or
/// within one cycle (midpoints for ranges). Returns
/// `(exact, within_one, total)`. The P-handler rows are excluded: their
/// absolute values depend on the I-structure representation, which the paper
/// does not specify (see EXPERIMENTS.md).
pub fn agreement(measured: &Table1, published: &[ModelCosts; 6]) -> (usize, usize, usize) {
    type Cell = Box<dyn Fn(&ModelCosts) -> f64>;
    let mut exact = 0;
    let mut close = 0;
    let mut total = 0;
    let rows: Vec<Cell> = vec![
        Box::new(|m: &ModelCosts| m.send[0].mid()),
        Box::new(|m: &ModelCosts| m.send[1].mid()),
        Box::new(|m: &ModelCosts| m.send[2].mid()),
        Box::new(|m: &ModelCosts| m.pread.mid()),
        Box::new(|m: &ModelCosts| m.pwrite.mid()),
        Box::new(|m: &ModelCosts| m.read.mid()),
        Box::new(|m: &ModelCosts| m.write.mid()),
        Box::new(|m: &ModelCosts| f64::from(m.dispatch)),
        Box::new(|m: &ModelCosts| f64::from(m.proc_send[0])),
        Box::new(|m: &ModelCosts| f64::from(m.proc_send[1])),
        Box::new(|m: &ModelCosts| f64::from(m.proc_send[2])),
        Box::new(|m: &ModelCosts| f64::from(m.proc_read)),
        Box::new(|m: &ModelCosts| f64::from(m.proc_write)),
    ];
    for f in &rows {
        for (m, p) in measured.models.iter().zip(published.iter()) {
            let d = (f(m) - f(p)).abs();
            total += 1;
            if d < 0.26 {
                exact += 1;
            }
            if d <= 1.01 {
                close += 1;
            }
        }
    }
    (exact, close, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn most_core_cells_agree_with_the_paper() {
        let measured = Table1::measure();
        let published = tcni_eval::paper::published();
        let (exact, close, total) = agreement(&measured, &published);
        assert!(
            exact * 2 >= total,
            "at least half the core cells should match exactly: {exact}/{total}"
        );
        assert!(
            close * 4 >= total * 3,
            "≥75% of core cells within one cycle: {close}/{total}"
        );
        let text = delta_matrix(&measured, &published);
        assert!(text.contains("dispatch"));
    }
}
