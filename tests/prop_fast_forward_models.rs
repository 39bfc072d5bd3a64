//! Randomized fast-forward equivalence across the full §4 matrix: the
//! remote-read protocol runs on every one of the six models, over both
//! fabrics and arbitrary latencies, and the machine with the quiescence
//! fast-forward enabled must be bit-identical to the naive loop of the
//! reference mode — registers, memory result, per-node cycles, statistics,
//! and network counters. The scan-effort meters differ by design and must
//! conserve work.
//!
//! The sim-crate test `prop_fast_forward.rs` drives the skip paths hard with
//! purpose-built stall workloads; this test establishes that no model/fabric
//! combination behaves differently when the optimization is armed.

use tcni::core::NodeId;
use tcni::eval::handlers::remote_read::{self, REMOTE_ADDR, RESULT_ADDR};
use tcni::isa::Reg;
use tcni::net::{FabricConfig, ScanStats};
use tcni::sim::{Machine, MachineBuilder, Model, RunOutcome};
use tcni_check::check;

const SECRET: u32 = 0xFEED_0042;

fn build(model: Model, mesh: bool, latency: u64, skip: bool) -> Machine {
    let b = MachineBuilder::new(2)
        .model(model)
        .program(
            0,
            remote_read::requester(model, NodeId::new(0), NodeId::new(1)),
        )
        .program(1, remote_read::server(model));
    let mut machine = if mesh {
        b.network_fabric(FabricConfig::new(2, 1)).build()
    } else {
        b.network_ideal(latency).build()
    };
    machine.set_reference(!skip);
    machine.node_mut(1).mem_mut().poke(REMOTE_ADDR, SECRET);
    machine
}

#[test]
fn remote_read_is_equivalent_on_all_six_models() {
    check("remote_read_is_equivalent_on_all_six_models", 48, |rng| {
        let model = *rng.pick(&Model::ALL_SIX);
        let mesh = rng.bool();
        let latency = rng.below(80);
        let budget = rng.range(4_000, 20_000);

        let mut fast = build(model, mesh, latency, true);
        let mut slow = build(model, mesh, latency, false);
        let of = fast.run(budget);
        let os = slow.run(budget);

        assert_eq!(of, os, "{model} mesh={mesh} latency={latency}");
        assert_eq!(
            of,
            RunOutcome::Quiescent,
            "{model} must finish in budget {budget}"
        );
        assert_eq!(fast.cycle(), slow.cycle(), "{model} machine cycle");
        assert_eq!(fast.net_stats(), slow.net_stats(), "{model} network stats");
        assert_eq!(
            fast.node(0).mem().peek(RESULT_ADDR),
            SECRET,
            "{model}: requester must observe the remote value"
        );
        assert_eq!(slow.node(0).mem().peek(RESULT_ADDR), SECRET);
        for i in 0..2 {
            let (f, s) = (fast.node(i), slow.node(i));
            assert_eq!(f.cpu().cycle(), s.cpu().cycle(), "{model} node {i} cycles");
            assert_eq!(f.cpu().stats(), s.cpu().stats(), "{model} node {i} stats");
            for r in Reg::ALL {
                assert_eq!(f.cpu().reg(r), s.cpu().reg(r), "{model} node {i} reg {r}");
            }
        }
    });
}

/// The observability subsystem must be invisible to the fast-forward
/// optimization: with tracing and message-lifecycle spans enabled, the
/// skip-ahead machine must emit bit-identical trace events (including the
/// ring-buffer dropped count) and a byte-identical `tcni-trace/1` report
/// once the scan-effort meters, which must conserve work, are blanked.
/// Instrumentation must also leave the simulation itself untouched — an
/// uninstrumented machine reaches the same cycle with the same counters.
#[test]
fn trace_and_obs_are_identical_under_fast_forward() {
    check(
        "trace_and_obs_are_identical_under_fast_forward",
        32,
        |rng| {
            let model = *rng.pick(&Model::ALL_SIX);
            let mesh = rng.bool();
            let latency = rng.below(80);
            let budget = rng.range(4_000, 20_000);
            // Small capacities force the trace/span ring buffers to wrap, so the
            // dropped counters are exercised too.
            let capacity = rng.range(1, 24) as usize;

            let mut fast = build(model, mesh, latency, true);
            let mut slow = build(model, mesh, latency, false);
            for machine in [&mut fast, &mut slow] {
                machine.enable_trace(capacity);
                machine.enable_obs(capacity);
            }
            let ctx = format!("{model} mesh={mesh} latency={latency} capacity={capacity}");
            assert_eq!(fast.run(budget), slow.run(budget), "{ctx}");
            assert_eq!(fast.cycle(), slow.cycle(), "{ctx} machine cycle");

            let (tf, ts) = (fast.trace().unwrap(), slow.trace().unwrap());
            assert_eq!(tf.dropped(), ts.dropped(), "{ctx} trace dropped count");
            assert!(tf.events().eq(ts.events()), "{ctx} trace events");

            let (mut rf, mut rs) = (fast.obs_report().unwrap(), slow.obs_report().unwrap());
            assert_eq!(
                rs.net.scan.skipped_work, 0,
                "{ctx} the reference skips nothing"
            );
            assert_eq!(
                rf.net.scan.scanned_channels + rf.net.scan.scanned_flows + rf.net.scan.skipped_work,
                rs.net.scan.scanned_channels + rs.net.scan.scanned_flows,
                "{ctx} optimised scanned + skipped must equal the reference's scanned"
            );
            rf.net.scan = ScanStats::default();
            rs.net.scan = ScanStats::default();
            assert_eq!(rf.to_json(), rs.to_json(), "{ctx} tcni-trace/1 report");

            // Instrumentation is observation-only: a machine without it reaches
            // the same cycle with the same architectural state and counters.
            let mut plain = build(model, mesh, latency, true);
            plain.run(budget);
            assert_eq!(plain.cycle(), fast.cycle(), "{ctx} obs changed timing");
            assert_eq!(
                plain.net_stats(),
                fast.net_stats(),
                "{ctx} obs changed net stats"
            );
            for i in 0..2 {
                assert_eq!(
                    plain.node(i).cpu().stats(),
                    fast.node(i).cpu().stats(),
                    "{ctx} obs changed node {i} stats"
                );
            }
        },
    );
}
