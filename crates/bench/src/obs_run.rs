//! Shared instrumented workloads for the observability reporters: the
//! `netstats` binary and the `--obs` flags on `table1`/`figure12` all build
//! their machines here.
//!
//! Two workloads:
//!
//! * [`ring_machine`] — every node of a mesh sends `k` messages to its ring
//!   successor and then consumes `k` messages through the dispatch vector;
//!   enough all-to-neighbour traffic to light up the per-link counters and
//!   the latency histogram.
//! * [`remote_read_machine`] — the two-node remote-read protocol from
//!   `tcni-eval`, runnable under any of the six §4 models; the minimal
//!   lifecycle demo (request out, response back, both dispatched).

use tcni_core::mapping::{cmd_addr, reg_addr, NI_WINDOW_BASE};
use tcni_core::{InterfaceReg, MsgType, NiCmd, NodeId, WireFormat};
use tcni_eval::handlers::remote_read::{self, REMOTE_ADDR};
use tcni_isa::{Assembler, Cond, Program, Reg};
use tcni_net::FabricConfig;
use tcni_sim::{Machine, MachineBuilder, Model, ObsReport, RunOutcome};

fn off(addr: u32) -> i16 {
    (addr - NI_WINDOW_BASE) as i16
}

/// The per-node ring program: send `k` single-flit type-2 messages to
/// `dest`, then dispatch-and-consume `k` incoming messages, then halt.
fn ring_program(dest: NodeId, k: u32) -> Program {
    assert!(k > 0, "a ring node must send at least one message");
    let send_cmd = NiCmd::send(MsgType::new(2).expect("type 2"));
    let mut a = Assembler::new();
    a.li(Reg::R9, NI_WINDOW_BASE);
    a.li(Reg::R2, 0x4000);
    a.st(Reg::R2, Reg::R9, off(reg_addr(InterfaceReg::IpBase)));
    a.li(Reg::R2, dest.into_word_bits(WireFormat::Compact) | 0x1);
    a.li(Reg::R6, k); // messages left to send
    a.li(Reg::R5, k); // messages left to receive
    a.label("send");
    a.st(Reg::R2, Reg::R9, off(cmd_addr(InterfaceReg::O0, send_cmd)));
    a.addi(Reg::R6, Reg::R6, 0xFFFF); // −1
    a.bcnd(Cond::Ne0, Reg::R6, "send");
    a.nop(); // delay slot
    a.label("dispatch");
    a.ld(Reg::R3, Reg::R9, off(reg_addr(InterfaceReg::MsgIp)));
    a.jmp(Reg::R3);
    a.nop();
    a.br("dispatch");
    a.nop();
    // Vector table: slot 0 (no message) spins; slot 2 consumes and counts.
    a.org(0x4000);
    a.br("dispatch");
    a.nop();
    a.org(0x4000 + 2 * 16);
    a.ld(
        Reg::R4,
        Reg::R9,
        off(cmd_addr(InterfaceReg::I0, NiCmd::next())),
    );
    a.addi(Reg::R5, Reg::R5, 0xFFFF); // −1
    a.bcnd(Cond::Ne0, Reg::R5, "dispatch");
    a.nop(); // delay slot
    a.halt();
    a.assemble().expect("ring program assembles")
}

/// A `width × height` mesh machine where node `i` sends `k` messages to node
/// `(i+1) % n` and consumes the `k` arriving from its predecessor.
///
/// Input queues are sized to hold a node's whole incoming burst so the
/// workload cannot deadlock on a receiver that is still sending.
pub fn ring_machine(width: usize, height: usize, k: u32) -> Machine {
    let n = width * height;
    let mut b = MachineBuilder::new(n)
        .model(Model::ALL_SIX[1]) // optimized on-chip: window ld/st idiom
        .ni_queues((k as usize).max(16), 16)
        .network_fabric(FabricConfig::new(width, height));
    for i in 0..n {
        let dest = NodeId::from_index((i + 1) % n);
        b = b.program(i, ring_program(dest, k));
    }
    b.build()
}

/// The two-node remote-read machine (requester on node 0, server on node 1)
/// on an ideal fabric with the given latency.
pub fn remote_read_machine(model: Model, latency: u64) -> Machine {
    let mut machine = MachineBuilder::new(2)
        .model(model)
        .program(
            0,
            remote_read::requester(model, NodeId::new(0), NodeId::new(1)),
        )
        .program(1, remote_read::server(model))
        .network_ideal(latency)
        .build();
    machine.node_mut(1).mem_mut().poke(REMOTE_ADDR, 0xBEEF_0001);
    machine
}

/// Runs `machine` with observability (and tracing) enabled and returns the
/// snapshot. Panics if the workload fails to go quiescent in `budget` —
/// the reporters demand complete runs.
pub fn run_instrumented(mut machine: Machine, span_capacity: usize, budget: u64) -> ObsReport {
    machine.enable_obs(span_capacity);
    machine.enable_trace(span_capacity);
    let outcome = machine.run(budget);
    assert_eq!(
        outcome,
        RunOutcome::Quiescent,
        "instrumented workload must finish within {budget} cycles"
    );
    machine.obs_report().expect("observability enabled")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_report_accounts_every_message() {
        let (w, h, k) = (2, 2, 3u32);
        let report = run_instrumented(ring_machine(w, h, k), 4096, 50_000);
        let n = (w * h) as u64;
        let expected = n * u64::from(k);
        assert_eq!(report.net.delivered, expected);
        assert_eq!(report.net.latency_hist.total(), report.net.delivered);
        assert_eq!(report.spans.len() as u64 + report.spans_dropped, expected);
        assert_eq!(report.spans_open, 0, "everything dispatched");
        for node in &report.nodes {
            assert_eq!(node.msgs.sent, u64::from(k));
            assert_eq!(node.msgs.dispatched, u64::from(k));
        }
        // Per-message transit sums match the fabric's aggregate accounting.
        let transit: u64 = report.nodes.iter().map(|r| r.msgs.transit_cycles).sum();
        assert_eq!(transit, report.net.total_latency);
        assert!(!report.links.is_empty(), "mesh per-link stats present");
        assert!(report.links.iter().any(|l| l.stats.hwm > 0));
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"tcni-trace/1\""));
    }

    #[test]
    fn misaddressed_run_reports_bad_dest() {
        use tcni_core::SendMode;
        use tcni_sim::MachineBuilder;

        // Two nodes, but node 0's only message is addressed to node 200:
        // undeliverable on any fabric. The machine drops it (rather than
        // wedging the output queue) and every layer must account for it.
        let mut machine = MachineBuilder::new(2).build();
        machine.enable_obs(16);
        machine.enable_trace(16);
        let ni = machine.node_mut(0).ni_mut();
        ni.write_reg(
            InterfaceReg::O0,
            NodeId::new(200).into_word_bits(WireFormat::Compact),
        )
        .expect("O0 writable");
        ni.send(SendMode::Send, MsgType::new(2).expect("type 2"))
            .expect("send accepted");
        assert_eq!(machine.run(1_000), RunOutcome::Quiescent);
        let report = machine.obs_report().expect("observability enabled");
        assert_eq!(report.net.bad_dest, 1);
        assert_eq!(report.net.delivered, 0);
        assert_eq!(report.nodes[0].msgs.bad_dest, 1);
        let json = report.to_json();
        assert!(json.contains("\"bad_dest\": 1"), "{json}");
    }

    #[test]
    fn trace_ring_drops_are_exported() {
        // A capacity-8 ring cannot hold the ~28 events of a 2×2×3 ring run;
        // the evictions must be visible in the artifact, not silent.
        let report = run_instrumented(ring_machine(2, 2, 3), 8, 50_000);
        assert!(report.trace_dropped > 0);
        let json = report.to_json();
        assert!(
            json.contains(&format!("\"trace_dropped\": {}", report.trace_dropped)),
            "{json}"
        );
    }

    #[test]
    fn remote_read_spans_complete() {
        let report = run_instrumented(remote_read_machine(Model::ALL_SIX[0], 2), 64, 20_000);
        // One request and one response, both delivered and consumed.
        assert_eq!(report.net.delivered, 2);
        assert_eq!(report.spans_open + report.spans.len() as u64, 2);
        for s in &report.spans {
            assert!(s.injected >= s.enqueued);
            assert!(s.delivered > s.injected);
        }
    }
}
