//! The versioned `tcni-load/1` artifact: throughput–latency curves as JSON.
//!
//! Written through [`tcni_sim::json`], the layout shared with
//! `tcni-trace/1` and `tcni-coll/1`. Every numeric field is an integer
//! (fixed-point where a fraction is needed), so two same-seed runs — at
//! any `TCNI_THREADS` — serialize byte-identically.
//!
//! Schema (`tcni-load/1`):
//!
//! ```json
//! {
//!   "schema": "tcni-load/1",
//!   "topology": {"width": W, "height": H, "nodes": N},
//!   "seed": S, "warmup_cycles": ..., "measure_cycles": ...,
//!   "rates_pm": [...], "windows": [...],
//!   "curves": [
//!     {"model": "opt-reg", "fabric": "mesh", "pattern": "uniform",
//!      "mode": "open", "saturation_index": i-or-null,
//!      "points": [
//!        {"load": r, "cycles": c, "offered": n, "shed": n, "issued": n,
//!         "delivered": n, "consumed": n, "completed": n, "delivered_pm": n,
//!         "mean_latency_x100": n-or-null, "p50": n-or-null,
//!         "p95": n-or-null, "p99": n-or-null,
//!         "residency_mean_x100": n, "residency_max": n}, ...]}, ...]
//! }
//! ```
//!
//! `load` is the offered rate in per-mille (open loop) or the window size
//! (closed loop); `delivered_pm` is delivered messages per node per 1000
//! cycles, directly comparable to an open-loop `load`. Percentiles use the
//! histogram's upper-bound-of-bucket convention and are `null` when the
//! window delivered nothing.
//!
//! Runs with a fault axis additionally carry `"fault_rates_pm": [...]` at
//! the top level, `"fault_pm"`/`"delivery"` per curve, and
//! `"fault_dropped"`, `"fault_duplicated"`, `"fault_corrupted"`,
//! `"fault_stalls"`, `"retransmits"`, `"abandoned"`, `"goodput_pm"` per
//! point. A run without a fault axis omits all of them, so legacy artifacts
//! are byte-identical (enforced by the golden-artifact tests).

use tcni_sim::json;

use crate::pattern::Topology;
use crate::sweep::Curve;

/// Schema identifier for the load artifact.
pub const LOAD_SCHEMA: &str = "tcni-load/1";

/// A complete load-generation run: shared sweep parameters plus one curve
/// per {model, fabric, pattern, mode} cell.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Node grid.
    pub topo: Topology,
    /// Master seed.
    pub seed: u64,
    /// Warmup cycles per point.
    pub warmup: u64,
    /// Measurement-window cycles per point.
    pub measure: u64,
    /// The open-loop load axis (per-mille offered rates, ascending).
    pub rates_pm: Vec<u32>,
    /// The closed-loop load axis (window sizes, ascending; empty when the
    /// run is open-loop only).
    pub windows: Vec<u32>,
    /// The fault-rate axis (uniform per-mille fault rates, one sweep of
    /// every cell per rate). Empty = fault-free legacy run, and the report
    /// serializes byte-identically to the pre-fault schema — no fault or
    /// protocol fields appear anywhere in the JSON.
    pub fault_rates_pm: Vec<u32>,
    /// All curves, in cell order.
    pub curves: Vec<Curve>,
}

impl LoadReport {
    /// Serializes the report (see the module docs for the schema).
    pub fn to_json(&self) -> String {
        // The fault axis and its per-curve/per-point fields appear only on
        // faulted runs, keeping fault-free artifacts byte-identical to the
        // original schema (golden-enforced).
        let faulted = !self.fault_rates_pm.is_empty();
        json::document(LOAD_SCHEMA, |d| {
            d.obj("topology", |o| {
                o.num("width", self.topo.width)
                    .num("height", self.topo.height)
                    .num("nodes", self.topo.nodes());
            });
            d.num("seed", self.seed)
                .num("warmup_cycles", self.warmup)
                .num("measure_cycles", self.measure)
                .nums("rates_pm", self.rates_pm.iter().copied())
                .nums("windows", self.windows.iter().copied());
            if faulted {
                d.nums("fault_rates_pm", self.fault_rates_pm.iter().copied());
            }
            d.records("curves", &self.curves, |o, c| {
                o.str("model", c.model.key())
                    .str("fabric", c.fabric.key())
                    .str("pattern", c.pattern.key())
                    .str("mode", c.mode);
                if faulted {
                    o.num("fault_pm", c.fault_pm).bool("delivery", c.delivery);
                }
                o.opt("saturation_index", c.saturation);
                o.records("points", &c.points, |o, p| {
                    o.num("load", p.load)
                        .num("cycles", p.cycles)
                        .num("offered", p.offered)
                        .num("shed", p.shed)
                        .num("issued", p.issued)
                        .num("delivered", p.delivered)
                        .num("consumed", p.consumed)
                        .num("completed", p.completed)
                        .num("delivered_pm", p.delivered_pm)
                        .opt("mean_latency_x100", p.mean_latency_x100)
                        .opt("p50", p.p50)
                        .opt("p95", p.p95)
                        .opt("p99", p.p99)
                        .num("residency_mean_x100", p.residency_mean_x100)
                        .num("residency_max", p.residency_max);
                    if faulted {
                        o.num("fault_dropped", p.fault_dropped)
                            .num("fault_duplicated", p.fault_duplicated)
                            .num("fault_corrupted", p.fault_corrupted)
                            .num("fault_stalls", p.fault_stalls)
                            .num("retransmits", p.retransmits)
                            .num("abandoned", p.abandoned)
                            .num("goodput_pm", p.goodput_pm);
                    }
                });
            });
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Pattern;
    use crate::sweep::{run_open_curve, Fabric, SweepConfig};
    use tcni_sim::Model;

    fn tiny_report() -> LoadReport {
        let mut sweep = SweepConfig::new(Topology::new(2, 2));
        sweep.warmup = 200;
        sweep.measure = 800;
        sweep.samples = 2;
        let rates = vec![100, 400];
        let curves = vec![run_open_curve(
            Model::ALL_SIX[0],
            Fabric::Ideal { latency: 2 },
            Pattern::Uniform,
            &rates,
            &sweep,
        )];
        LoadReport {
            topo: sweep.topo,
            seed: sweep.seed,
            warmup: sweep.warmup,
            measure: sweep.measure,
            rates_pm: rates,
            windows: Vec::new(),
            fault_rates_pm: Vec::new(),
            curves,
        }
    }

    #[test]
    fn json_is_versioned_and_carries_the_curve() {
        let json = tiny_report().to_json();
        assert!(json.starts_with("{\n  \"schema\": \"tcni-load/1\""));
        assert!(json.contains("\"model\": \"opt-reg\""));
        assert!(json.contains("\"fabric\": \"ideal\""));
        assert!(json.contains("\"pattern\": \"uniform\""));
        assert!(json.contains("\"mode\": \"open\""));
        assert!(json.contains("\"load\": 100"));
        assert!(json.contains("\"load\": 400"));
        assert!(json.contains("\"p99\": "));
        assert!(json.ends_with("]\n}\n"));
        // Brace balance — cheap structural sanity for hand-rolled JSON.
        let depth: i64 = json
            .chars()
            .map(|c| match c {
                '{' | '[' => 1,
                '}' | ']' => -1,
                _ => 0,
            })
            .sum();
        assert_eq!(depth, 0);
    }

    #[test]
    fn same_seed_reports_serialize_identically() {
        assert_eq!(tiny_report().to_json(), tiny_report().to_json());
    }

    #[test]
    fn fault_free_reports_omit_every_fault_field() {
        let json = tiny_report().to_json();
        for key in [
            "fault_rates_pm",
            "fault_pm",
            "delivery",
            "fault_dropped",
            "goodput_pm",
        ] {
            assert!(!json.contains(key), "legacy schema must not carry {key}");
        }
    }

    #[test]
    fn faulted_reports_carry_the_fault_axis_and_goodput() {
        let mut sweep = SweepConfig::new(Topology::new(2, 2));
        sweep.warmup = 200;
        sweep.measure = 800;
        sweep.samples = 2;
        sweep.fault_pm = 100;
        sweep.delivery = true;
        let rates = vec![200];
        let curves = vec![run_open_curve(
            Model::ALL_SIX[0],
            Fabric::Ideal { latency: 2 },
            Pattern::Uniform,
            &rates,
            &sweep,
        )];
        let report = LoadReport {
            topo: sweep.topo,
            seed: sweep.seed,
            warmup: sweep.warmup,
            measure: sweep.measure,
            rates_pm: rates,
            windows: Vec::new(),
            fault_rates_pm: vec![0, 100],
            curves,
        };
        let json = report.to_json();
        assert!(json.contains("\"fault_rates_pm\": [0, 100]"), "{json}");
        assert!(
            json.contains("\"fault_pm\": 100, \"delivery\": true"),
            "{json}"
        );
        assert!(json.contains("\"fault_dropped\": "), "{json}");
        assert!(json.contains("\"retransmits\": "), "{json}");
        assert!(json.contains("\"goodput_pm\": "), "{json}");
        let depth: i64 = json
            .chars()
            .map(|c| match c {
                '{' | '[' => 1,
                '}' | ']' => -1,
                _ => 0,
            })
            .sum();
        assert_eq!(depth, 0);
    }
}
