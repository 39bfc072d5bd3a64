//! End-to-end guarantees of the fault-injection + delivery-protocol pair,
//! at integration scale:
//!
//! * **Exactly-once, in-order** — with drop/duplicate/corrupt/stall faults
//!   active and the delivery protocol on, every flow's payload stream
//!   arrives at the application (the `NEXT`-side of the interface) exactly
//!   once, in order, and bit-intact, on both fabrics and across seeds.
//! * **Invisibility when disabled** — a zero-rate [`FaultyFabric`] wrapper
//!   with the protocol off is bit-identical to the plain machine on all six
//!   §4 models: cycles, registers, network counters, and the serialized
//!   `tcni-trace/1` report. (The golden-artifact layer pins the same
//!   property byte-for-byte on the paper artifacts.)
//! * **Distinct accounting** — fabric fault drops are counted under
//!   `faults.*` in `NetStats` and the `tcni-trace/1` export, never as
//!   `bad_dest` (which stays reserved for unroutable destinations).
//!
//! [`FaultyFabric`]: tcni::net::FaultyFabric

use std::collections::VecDeque;

use tcni::core::{InterfaceReg, MsgType, NodeId, SendMode};
use tcni::eval::handlers::remote_read::{self, REMOTE_ADDR, RESULT_ADDR};
use tcni::isa::Reg;
use tcni::net::{FabricConfig, FaultConfig};
use tcni::sim::{CycleDriver, DeliveryConfig, Machine, MachineBuilder, Model, Node, RunOutcome};
use tcni_check::check;
use tcni_core::WireFormat;

/// One not-yet-sent payload message.
#[derive(Debug, Clone, Copy)]
struct Pending {
    dest: usize,
    seq: u32,
}

/// A [`CycleDriver`] that sends a known sequenced payload stream on every
/// (src, dst) flow and records exactly what the receive side hands back
/// through `NEXT` — the application-level view the delivery protocol must
/// keep exactly-once and in-order no matter what the fabric does.
struct FlowRecorder {
    nodes: usize,
    /// Per-src queue of messages still to offer to the interface.
    pending: Vec<VecDeque<Pending>>,
    /// `received[dst * nodes + src]`: payload sequence numbers in arrival
    /// order.
    received: Vec<Vec<u32>>,
    /// Payloads whose integrity word did not match (must stay 0: corrupted
    /// copies are the protocol's to catch, never the application's).
    mangled: u64,
    mtype: MsgType,
}

/// The low-16-bit integrity tag carried in word 0 next to the destination
/// bits; any surviving payload corruption breaks it.
fn tag(src: usize, seq: u32) -> u32 {
    ((src as u32).wrapping_mul(0x0101) ^ seq.wrapping_mul(0x9E37)) & 0xFFFF
}

impl FlowRecorder {
    /// Every ordered pair of distinct nodes sends `per_flow` messages,
    /// interleaved round-robin over destinations.
    fn new(nodes: usize, per_flow: u32) -> FlowRecorder {
        let pending = (0..nodes)
            .map(|src| {
                let mut q = VecDeque::new();
                for seq in 0..per_flow {
                    for dest in (0..nodes).filter(|&d| d != src) {
                        q.push_back(Pending { dest, seq });
                    }
                }
                q
            })
            .collect();
        FlowRecorder {
            nodes,
            pending,
            received: vec![Vec::new(); nodes * nodes],
            mangled: 0,
            mtype: MsgType::new(2).expect("type 2 is a plain message type"),
        }
    }

    fn complete(&self, per_flow: u32) -> bool {
        (0..self.nodes).all(|dst| {
            (0..self.nodes)
                .filter(|&src| src != dst)
                .all(|src| self.received[dst * self.nodes + src].len() as u32 >= per_flow)
        })
    }
}

impl CycleDriver for FlowRecorder {
    fn on_cycle(&mut self, _cycle: u64, nodes: &mut [Node]) -> bool {
        for (i, node) in nodes.iter_mut().enumerate().take(self.nodes) {
            let ni = node.ni_mut();
            if ni.msg_valid() {
                let w0 = ni.read_reg(InterfaceReg::I0).expect("I0 readable");
                let w1 = ni.read_reg(InterfaceReg::I1).expect("I1 readable");
                ni.next();
                let src = (w1 >> 16) as usize;
                let seq = w1 & 0xFFFF;
                if w0 & 0xFFFF != tag(src, seq) {
                    self.mangled += 1;
                } else {
                    self.received[i * self.nodes + src].push(seq);
                }
            } else if let Some(&p) = self.pending[i].front() {
                if ni.send_would_stall() {
                    continue; // interface (or delivery-window) backpressure
                }
                let dest = NodeId::from_index(p.dest);
                ni.write_reg(
                    InterfaceReg::O0,
                    dest.into_word_bits(WireFormat::Compact) | tag(i, p.seq),
                )
                .expect("O0 writable");
                ni.write_reg(InterfaceReg::O1, ((i as u32) << 16) | p.seq)
                    .expect("O1 writable");
                ni.send(SendMode::Send, self.mtype).expect("send accepted");
                self.pending[i].pop_front();
            }
        }
        true
    }
}

/// Runs the recorder until every flow is complete (or the budget runs out),
/// checking the machine's invariants after every cycle, and returns the
/// machine for post-mortem assertions.
fn run_to_completion(
    mut machine: Machine,
    recorder: &mut FlowRecorder,
    per_flow: u32,
    budget: u64,
    ctx: &str,
) -> Machine {
    let chunk = 2_000;
    let mut spent = 0;
    while !recorder.complete(per_flow) {
        assert!(
            spent < budget,
            "{ctx}: flows incomplete after {spent} cycles"
        );
        for _ in 0..chunk {
            machine.run_driven(recorder, 1);
            if let Err(e) = machine.check_invariants() {
                panic!("{ctx}: invariant broken at cycle {}: {e}", machine.cycle());
            }
        }
        spent += chunk;
    }
    machine
}

/// The tentpole property: faults on, protocol on — every flow is delivered
/// to the application exactly once, in order, bit-intact, with nothing
/// abandoned, on both fabrics and across seeds and fault rates.
#[test]
fn delivery_is_exactly_once_in_order_under_faults() {
    check(
        "delivery_is_exactly_once_in_order_under_faults",
        12,
        |rng| {
            let mesh = rng.bool();
            let rate_pm = rng.range(30, 150) as u32;
            let seed = rng.u64();
            let per_flow = rng.range(8, 24) as u32;
            let nodes = 4;
            let ctx = format!("mesh={mesh} rate={rate_pm}pm seed={seed:#x} per_flow={per_flow}");

            let builder = MachineBuilder::new(nodes)
                .network_fault(FaultConfig::uniform(seed, rate_pm))
                .delivery(DeliveryConfig {
                    window: 4,
                    timeout: 32,
                    retransmit_limit: 10_000,
                });
            let machine = if mesh {
                builder.network_fabric(FabricConfig::new(2, 2)).build()
            } else {
                builder.network_ideal(1).build()
            };
            let mut recorder = FlowRecorder::new(nodes, per_flow);
            let machine = run_to_completion(machine, &mut recorder, per_flow, 400_000, &ctx);

            // Exactly-once, in-order, per flow.
            let expect: Vec<u32> = (0..per_flow).collect();
            for dst in 0..nodes {
                for src in (0..nodes).filter(|&s| s != dst) {
                    assert_eq!(
                        recorder.received[dst * nodes + src],
                        expect,
                        "{ctx}: flow {src}->{dst} must arrive exactly once, in order"
                    );
                }
            }
            assert_eq!(
                recorder.mangled, 0,
                "{ctx}: corruption must never reach NEXT"
            );

            // Protocol ledger: everything accepted was delivered exactly once;
            // nothing was abandoned; the fabric really did misbehave.
            let total = u64::from(per_flow) * (nodes * (nodes - 1)) as u64;
            let del = machine.delivery_stats().expect("protocol enabled");
            assert_eq!(del.accepted, total, "{ctx}: sends committed");
            assert_eq!(del.delivered_unique, total, "{ctx}: unique deliveries");
            assert_eq!(del.abandoned, 0, "{ctx}: no flow may abandon its window");
            let faults = machine.net_stats().faults;
            assert!(
                faults.dropped + faults.duplicated + faults.corrupted + faults.stalls > 0,
                "{ctx}: the fault schedule must actually fire"
            );
            if faults.dropped + faults.corrupted > 0 {
                assert!(del.retransmits > 0, "{ctx}: losses force retransmission");
            }
        },
    );
}

/// Fault drops are their own ledger entry: they never masquerade as
/// `bad_dest` (unroutable destination), and the `tcni-trace/1` export
/// carries both the fault and the delivery counters.
#[test]
fn fault_accounting_is_distinct_from_bad_dest_in_the_export() {
    let nodes = 4;
    let per_flow = 12;
    let mut machine = MachineBuilder::new(nodes)
        .network_ideal(1)
        .network_fault(FaultConfig::uniform(0xFA17, 120))
        .delivery(DeliveryConfig {
            window: 4,
            timeout: 32,
            retransmit_limit: 10_000,
        })
        .build();
    machine.enable_obs(64);
    let mut recorder = FlowRecorder::new(nodes, per_flow);
    let machine = run_to_completion(machine, &mut recorder, per_flow, 400_000, "obs export");

    let stats = machine.net_stats();
    assert!(stats.faults.dropped > 0, "schedule fires at 120pm");
    assert_eq!(stats.bad_dest, 0, "fault drops must not count as bad_dest");

    let json = machine.obs_report().expect("obs enabled").to_json();
    for needle in [
        "\"faults\": {\"dropped\": ",
        "\"duplicated\": ",
        "\"corrupted\": ",
        "\"stalls\": ",
        "\"delivery\": {\"accepted\": ",
        "\"retransmits\": ",
        "\"delivered_unique\": ",
        "\"abandoned\": ",
    ] {
        assert!(
            json.contains(needle),
            "tcni-trace/1 missing {needle}: {json}"
        );
    }
}

fn remote_read_machine(model: Model, mesh: bool, latency: u64, faulty_wrapper: bool) -> Machine {
    let mut b = MachineBuilder::new(2)
        .model(model)
        .program(
            0,
            remote_read::requester(model, NodeId::new(0), NodeId::new(1)),
        )
        .program(1, remote_read::server(model));
    b = if mesh {
        b.network_fabric(FabricConfig::new(2, 1))
    } else {
        b.network_ideal(latency)
    };
    if faulty_wrapper {
        // All rates zero: the wrapper must be an exact pass-through.
        b = b.network_fault(FaultConfig::uniform(0xDEAD, 0));
    }
    let mut machine = b.build();
    machine.node_mut(1).mem_mut().poke(REMOTE_ADDR, 0xFEED_0042);
    machine
}

/// The disabled-path equivalence (satellite of the golden layer): a
/// zero-rate fault wrapper with the protocol off is bit-identical to the
/// plain machine on every §4 model, both fabrics — cycles, outcome,
/// registers, network counters, and the serialized `tcni-trace/1` report.
#[test]
fn zero_rate_faults_and_no_protocol_are_bit_identical_on_all_six_models() {
    check(
        "zero_rate_faults_and_no_protocol_are_bit_identical_on_all_six_models",
        24,
        |rng| {
            let model = *rng.pick(&Model::ALL_SIX);
            let mesh = rng.bool();
            let latency = rng.below(40);
            let budget = rng.range(4_000, 20_000);
            let ctx = format!("{model} mesh={mesh} latency={latency}");

            let mut plain = remote_read_machine(model, mesh, latency, false);
            let mut wrapped = remote_read_machine(model, mesh, latency, true);
            for machine in [&mut plain, &mut wrapped] {
                machine.enable_trace(32);
                machine.enable_obs(32);
            }

            let op = plain.run(budget);
            let ow = wrapped.run(budget);
            assert_eq!(op, ow, "{ctx} outcome");
            assert_eq!(op, RunOutcome::Quiescent, "{ctx} must finish");
            assert_eq!(plain.cycle(), wrapped.cycle(), "{ctx} machine cycle");
            assert_eq!(plain.net_stats(), wrapped.net_stats(), "{ctx} net stats");
            assert_eq!(
                wrapped.node(0).mem().peek(RESULT_ADDR),
                0xFEED_0042,
                "{ctx}: the protocol result must be unchanged"
            );
            for i in 0..2 {
                let (p, w) = (plain.node(i), wrapped.node(i));
                assert_eq!(p.cpu().cycle(), w.cpu().cycle(), "{ctx} node {i} cycles");
                assert_eq!(p.cpu().stats(), w.cpu().stats(), "{ctx} node {i} stats");
                for r in Reg::ALL {
                    assert_eq!(p.cpu().reg(r), w.cpu().reg(r), "{ctx} node {i} reg {r}");
                }
            }
            let (tp, tw) = (plain.trace().unwrap(), wrapped.trace().unwrap());
            assert_eq!(tp.dropped(), tw.dropped(), "{ctx} trace dropped");
            assert!(tp.events().eq(tw.events()), "{ctx} trace events");
            assert_eq!(
                plain.obs_report().unwrap().to_json(),
                wrapped.obs_report().unwrap().to_json(),
                "{ctx} tcni-trace/1 report"
            );
        },
    );
}
