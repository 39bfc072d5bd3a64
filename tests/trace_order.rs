//! The order a machine cycle records trace events in. Within a cycle the
//! processors step in ascending node order and the interfaces then inject
//! in ascending node order, so on an instrumented ring run every cycle's
//! `Halted` node ids and `Sent` node ids ascend strictly (one injection per
//! node per cycle), and every node halts exactly once.

use tcni::sim::{RunOutcome, TraceEvent};
use tcni_bench::obs_run;

/// Runs the ring program on a `width × height` mesh with `k` messages per
/// node, traced, and checks the per-cycle order of its events.
fn check_ring(width: usize, height: usize, k: u32) {
    let n = width * height;
    let mut machine = obs_run::ring_machine(width, height, k);
    machine.enable_trace(1 << 16);
    assert_eq!(machine.run(200_000), RunOutcome::Quiescent);
    let trace = machine.trace().expect("tracing enabled");
    assert_eq!(trace.dropped(), 0, "the trace holds the whole run");

    let mut halts = vec![0u32; n];
    let mut sends = 0u64;
    let (mut last_halt, mut last_sent) = (None, None);
    for event in trace.events() {
        match *event {
            TraceEvent::Halted { cycle, node } => {
                assert!(
                    last_halt < Some((cycle, node)),
                    "{width}x{height}: n{node} halted at cycle {cycle} after {last_halt:?}"
                );
                last_halt = Some((cycle, node));
                halts[node] += 1;
            }
            TraceEvent::Sent { cycle, node, .. } => {
                assert!(
                    last_sent < Some((cycle, node)),
                    "{width}x{height}: n{node} sent at cycle {cycle} after {last_sent:?}"
                );
                last_sent = Some((cycle, node));
                sends += 1;
            }
            TraceEvent::Faulted { node, .. } => panic!("{width}x{height}: n{node} faulted"),
            TraceEvent::Delivered { .. } => {}
        }
    }
    assert!(
        halts.iter().all(|&h| h == 1),
        "{width}x{height}: halts per node {halts:?}"
    );
    assert_eq!(
        sends,
        n as u64 * u64::from(k),
        "{width}x{height}: every send traced"
    );
}

/// Within each cycle, halting and sending nodes are traced in strictly
/// ascending node order, and every node halts once — on a 16-node mesh and
/// on a 72-node one, whose node sets span two bitmap words.
#[test]
fn ring_events_ascend_by_node_within_each_cycle() {
    check_ring(4, 4, 8);
    check_ring(9, 8, 3);
}
