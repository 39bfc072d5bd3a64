//! The benchmark's contract: its workloads, its metrics with units and
//! bounds, and the `BENCHMARK.json` manifest rendered from them.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory, wasted work).
    Lower,
    /// Larger values are better (throughput, useful work).
    Higher,
}

impl Better {
    fn key(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, unique across both lists.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end metrics only: the share of the baseline median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// Simulated results: deterministic for a seed, so two builds of the
    /// simulator must agree on them exactly.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(0.01),
        exact: true,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

use Better::{Higher, Lower};

/// Metrics a user of the simulator sees, reported by every workload in an
/// untraced run.
pub const END_TO_END: &[Metric] = &[
    e2e("cycles_per_s", "1/s", Higher, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.05),
    exact("sim_latency_p50", "cycles", Lower),
    exact("sim_latency_p99", "cycles", Lower),
    exact("goodput_pm", "1/node/kcycle", Higher),
    exact("table1_exact_cells", "count", Higher),
];

/// Metrics of single layers, reported by every workload in a traced run
/// (`0` where the workload does not exercise the layer).
pub const PER_LAYER: &[Metric] = &[
    // The whole simulator: too sensitive to other work on the host to bound.
    layer("cycle_ns_p90", "ns", Lower),
    layer("cycles_per_s_w2", "1/s", Higher),
    // workload: the injector driving the nodes (`Injector::on_cycle`).
    layer("workload.driver_ns_per_cycle", "ns", Lower),
    layer("workload.offered", "count", Higher),
    layer("workload.issued", "count", Higher),
    layer("workload.consumed", "count", Higher),
    layer("workload.shed", "count", Lower),
    layer("workload.shed_ratio", "ratio", Lower),
    // sim: the machine loop (`Machine::run_driven` / `Machine::run`).
    layer("sim.machine_ns_per_cycle", "ns", Lower),
    layer("sim.ns_per_node_cycle", "ns", Lower),
    layer("sim.driver_share", "ratio", Lower),
    // sim.delivery: the end-to-end delivery protocol.
    layer("sim.delivery.accepted", "count", Higher),
    layer("sim.delivery.retransmits", "count", Lower),
    layer("sim.delivery.retransmit_ratio", "ratio", Lower),
    layer("sim.delivery.timeout_rounds", "count", Lower),
    layer("sim.delivery.acks_sent", "count", Lower),
    layer("sim.delivery.acks_coalesced", "count", Higher),
    layer("sim.delivery.dup_suppressed", "count", Lower),
    layer("sim.delivery.out_of_order_dropped", "count", Lower),
    layer("sim.delivery.corrupt_dropped", "count", Lower),
    layer("sim.delivery.abandoned", "count", Lower),
    layer("sim.delivery.flow_probes_per_cycle", "count", Lower),
    layer("sim.delivery.peak_flows", "count", Lower),
    layer("sim.delivery.active_flows", "count", Lower),
    layer("sim.delivery.scanned_flows", "count", Lower),
    layer("sim.delivery.ns_per_probe", "ns", Lower),
    // sim.collective: the combining engine and the software baseline.
    layer("sim.collective.combined", "count", Higher),
    layer("sim.collective.forwarded_up", "count", Lower),
    layer("sim.collective.fanned_down", "count", Lower),
    layer("sim.collective.deferred", "count", Lower),
    layer("sim.collective.rounds_done", "count", Higher),
    layer("sim.collective.host_us_per_round_nic", "us", Lower),
    layer("sim.collective.host_us_per_round_soft", "us", Lower),
    layer("sim.collective.round_cycles_nic", "cycles", Lower),
    layer("sim.collective.round_cycles_soft", "cycles", Lower),
    // net: the switched fabric.
    layer("net.injected", "count", Higher),
    layer("net.delivered", "count", Higher),
    layer("net.inject_refusals", "count", Lower),
    layer("net.refusal_ratio", "ratio", Lower),
    layer("net.blocked_hops", "count", Lower),
    layer("net.in_flight_hwm", "count", Lower),
    layer("net.scanned_channels_per_cycle", "count", Lower),
    layer("net.skipped_work", "count", Higher),
    layer("net.ns_per_scanned_channel", "ns", Lower),
    // net.fault: the fault-injection wrapper.
    layer("net.fault.dropped", "count", Lower),
    layer("net.fault.duplicated", "count", Lower),
    layer("net.fault.corrupted", "count", Lower),
    layer("net.fault.stalls", "count", Lower),
    // cpu / core: the instruction-level processors and their NI. The ring
    // program tags no cost class and never stalls, so its per-class cycles,
    // stall counts and IPC are constant; they stay in the fingerprint only.
    layer("cpu.instructions", "count", Higher),
    layer("cpu.ns_per_instruction", "ns", Lower),
    // util: the worker pool behind the sharded cycle.
    layer("util.w2_slowdown", "ratio", Lower),
    // The cost of tracing itself.
    layer("trace.overhead", "ratio", Lower),
];

/// A named workload and why it is in the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as given to `--workload`.
    pub name: &'static str,
    /// One line on what it stresses.
    pub why: &'static str,
}

/// The four workloads, in run order.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "mesh128_sparse",
        why: "16384-node mesh, uniform 5/1000 open-loop load, delivery off: per-cycle cost \
              tracks node count (list refresh, injector sweep), not traffic",
    },
    Workload {
        name: "mesh64_e2e_faulty",
        why: "4096-node mesh, delivery protocol over a 10/1000 faulty fabric: flow-table \
              probes, retransmits and sharded delta replay dominate",
    },
    Workload {
        name: "ring16_isa",
        why: "256 instruction-level CPUs SEND, then read MsgIp and jump through the NI vector \
              table until quiescent: per-instruction cost, no injector or delivery",
    },
    Workload {
        name: "coll16_storm",
        why: "back-to-back Sum collectives on a 16x16 mesh, NIC combining tree then software \
              gather/scatter: the only run of the combining engine",
    },
];

/// Seconds one run measures: the manifest's `run_seconds`, which a harness
/// passes back as `--seconds`, and the default when it is not given.
pub const RUN_SECONDS: u64 = 25;

/// The command the manifest names; the run arguments follow it. It is not
/// `--locked`: the lock file pins only path dependencies, and a stale one is
/// refreshed rather than refused.
const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// Looks a metric up by name in either list.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Renders `BENCHMARK.json`.
pub fn manifest_json() -> String {
    fn strings(items: &[&str]) -> String {
        let quoted: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
        format!("[{}]", quoted.join(", "))
    }
    fn metric(m: &Metric) -> String {
        let bound = m
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
            m.name,
            m.unit,
            m.better.key()
        )
    }
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let e2e: Vec<String> = END_TO_END.iter().map(metric).collect();
    let per_layer: Vec<String> = PER_LAYER.iter().map(metric).collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        strings(COMMAND),
        workloads.join(",\n"),
        e2e.join(",\n"),
        per_layer.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn names_units_and_counts_fit_the_contract() {
        assert!(END_TO_END.len() <= 16);
        assert!(PER_LAYER.len() <= 128);
        assert!((2..=8).contains(&WORKLOADS.len()));
        let mut seen = std::collections::HashSet::new();
        let names = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|m| m.name)
            .chain(WORKLOADS.iter().map(|w| w.name));
        for name in names {
            assert!(is_name(name), "bad name {name}");
            assert!(seen.insert(name), "duplicate name {name}");
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
        }
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}: {b}", m.name);
        }
        let setup = find("setup_s").expect("setup_s is end to end");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s has the largest bound");
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn committed_manifest_matches_the_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        assert_eq!(
            committed,
            manifest_json(),
            "regenerate with `benchmark --manifest`"
        );
    }
}
