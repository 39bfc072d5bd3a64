//! The offered-load sweep harness behind the `loadgen` binary: a cell grid
//! of {model × fabric × pattern}, each cell yielding an open-loop curve (and
//! optionally a closed-loop one), fanned out across worker threads.
//!
//! Parallelism is cell-grained via [`tcni_util::par::par_map`]: every cell
//! builds its machines from the shared master seed, so the artifact is
//! byte-identical at any `TCNI_THREADS` — `par_map` preserves input order
//! and no cell's randomness depends on another's schedule.

use tcni_sim::Model;
use tcni_util::par::par_map;
use tcni_workload::{
    run_closed_curve, run_open_curve, Curve, Fabric, LoadReport, Pattern, SweepConfig,
};

/// Everything one `loadgen` invocation sweeps.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Interface models (column order of Table 1).
    pub models: Vec<Model>,
    /// Fabrics.
    pub fabrics: Vec<Fabric>,
    /// Traffic patterns; cells whose pattern does not support the grid
    /// (transpose on a non-square mesh) are skipped, not an error.
    pub patterns: Vec<Pattern>,
    /// Open-loop offered rates, per-mille, ascending.
    pub rates_pm: Vec<u32>,
    /// Closed-loop window sizes, ascending; empty disables closed loop.
    pub windows: Vec<u32>,
    /// Fault-rate axis (uniform per-mille rates, ascending; `0` is a valid
    /// baseline). Empty disables fault injection and keeps the artifact on
    /// the legacy schema. Non-empty sweeps every cell once per rate with the
    /// end-to-end delivery protocol enabled, so goodput stays meaningful on
    /// an unreliable fabric.
    pub fault_rates_pm: Vec<u32>,
    /// Shared per-point sweep parameters.
    pub sweep: SweepConfig,
}

impl LoadgenConfig {
    /// The default sweep: the basic and optimized register-mapped models,
    /// both fabrics, the default pattern set, five offered rates and three
    /// window sizes on a 4×4 grid.
    pub fn new(sweep: SweepConfig) -> LoadgenConfig {
        LoadgenConfig {
            models: vec![Model::ALL_SIX[0], Model::ALL_SIX[3]],
            fabrics: Fabric::BOTH.to_vec(),
            patterns: Pattern::DEFAULT_SET.to_vec(),
            rates_pm: vec![50, 150, 300, 500, 700],
            windows: vec![1, 2, 4],
            fault_rates_pm: Vec::new(),
            sweep,
        }
    }

    /// Runs every cell and assembles the versioned report. Cell order (and
    /// therefore curve order in the artifact) is fault-rates-major (the
    /// fault-free axis `[0]` when none is configured), then models, fabrics,
    /// patterns; within a cell the open curve precedes the closed one.
    pub fn run(&self) -> LoadReport {
        let mut cells = Vec::new();
        let fault_axis: &[u32] = if self.fault_rates_pm.is_empty() {
            &[0]
        } else {
            &self.fault_rates_pm
        };
        for &fault_pm in fault_axis {
            let mut sweep = self.sweep;
            if !self.fault_rates_pm.is_empty() {
                sweep.fault_pm = fault_pm;
                sweep.delivery = true;
            }
            for &model in &self.models {
                for &fabric in &self.fabrics {
                    for &pattern in &self.patterns {
                        if pattern.supports(&self.sweep.topo) {
                            cells.push((model, fabric, pattern, sweep));
                        }
                    }
                }
            }
        }
        let rates = self.rates_pm.clone();
        let windows = self.windows.clone();
        let per_cell: Vec<Vec<Curve>> = par_map(cells, move |(model, fabric, pattern, sweep)| {
            let mut curves = vec![run_open_curve(model, fabric, pattern, &rates, &sweep)];
            if !windows.is_empty() {
                curves.push(run_closed_curve(model, fabric, pattern, &windows, &sweep));
            }
            curves
        });
        LoadReport {
            topo: self.sweep.topo,
            seed: self.sweep.seed,
            warmup: self.sweep.warmup,
            measure: self.sweep.measure,
            rates_pm: self.rates_pm.clone(),
            windows: self.windows.clone(),
            fault_rates_pm: self.fault_rates_pm.clone(),
            curves: per_cell.into_iter().flatten().collect(),
        }
    }
}

/// One human-readable line per curve: the cell, the throughput range, and
/// where (if anywhere) it saturated.
pub fn summarize(report: &LoadReport) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let faulted = !report.fault_rates_pm.is_empty();
    for c in &report.curves {
        let tput: Vec<u64> = c
            .points
            .iter()
            .map(|p| {
                if c.delivery {
                    p.goodput_pm
                } else {
                    p.delivered_pm
                }
            })
            .collect();
        let _ = write!(
            out,
            "{:<9} {:<5} {:<10} {:<6} ",
            c.model.key(),
            c.fabric.key(),
            c.pattern.key(),
            c.mode,
        );
        if faulted {
            let _ = write!(out, "fault {:>4}pm ", c.fault_pm);
        }
        let _ = write!(
            out,
            "{} {:>3}..{:>3}  ",
            if c.delivery { "goodput_pm" } else { "tput_pm" },
            tput.iter().min().copied().unwrap_or(0),
            tput.iter().max().copied().unwrap_or(0),
        );
        match c.saturation {
            Some(i) => {
                let p = &c.points[i];
                let _ = writeln!(out, "saturates at load {} (p99 {:?})", p.load, p.p99);
            }
            None => {
                let _ = writeln!(out, "no saturation in range");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcni_workload::Topology;

    fn tiny() -> LoadgenConfig {
        let mut sweep = SweepConfig::new(Topology::new(2, 2));
        sweep.warmup = 200;
        sweep.measure = 800;
        sweep.samples = 2;
        let mut cfg = LoadgenConfig::new(sweep);
        cfg.patterns = vec![Pattern::Uniform, Pattern::Hotspot { hot_pm: 200 }];
        cfg.rates_pm = vec![100, 400];
        cfg.windows = vec![2];
        cfg
    }

    #[test]
    fn default_grid_covers_the_required_cells() {
        let report = tiny().run();
        // 2 models × 2 fabrics × 2 patterns × (open + closed).
        assert_eq!(report.curves.len(), 16);
        let json = report.to_json();
        for needle in [
            "\"model\": \"opt-reg\"",
            "\"model\": \"basic-reg\"",
            "\"fabric\": \"ideal\"",
            "\"fabric\": \"mesh\"",
            "\"pattern\": \"uniform\"",
            "\"pattern\": \"hotspot\"",
            "\"mode\": \"open\"",
            "\"mode\": \"closed\"",
        ] {
            assert!(json.contains(needle), "missing {needle}");
        }
        // Every open curve has a monotone load axis and delivers something.
        for c in report.curves.iter().filter(|c| c.mode == "open") {
            for w in c.points.windows(2) {
                assert!(w[0].load < w[1].load);
            }
            assert!(c.points.iter().any(|p| p.delivered > 0));
        }
    }

    #[test]
    fn unsupported_patterns_are_skipped_not_fatal() {
        let mut cfg = tiny();
        cfg.sweep.topo = Topology::new(4, 2);
        cfg.patterns = vec![Pattern::Transpose, Pattern::Uniform];
        let report = cfg.run();
        let json = report.to_json();
        assert!(!json.contains("transpose"));
        assert!(json.contains("uniform"));
    }

    #[test]
    fn summary_mentions_every_cell() {
        let report = tiny().run();
        let text = summarize(&report);
        assert_eq!(text.lines().count(), report.curves.len());
        assert!(text.contains("opt-reg"));
        assert!(text.contains("hotspot"));
    }
}
