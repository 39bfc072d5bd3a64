//! Delivery at scale: the sparse (src, dst)-keyed flow store past the
//! 32 768-node ceiling the dense flow tables it replaced had.
//!
//! * **64×64 uniform sweep** — a 4096-node delivery-enabled machine runs an
//!   open-loop uniform sweep; the new footprint meters prove flow state is
//!   proportional to the *active* pair set, orders of magnitude below the
//!   2·N² slots the dense tables would pin; the machine's invariants hold
//!   at the end of the run.
//! * **256×256 smoke** — a 65 536-node wide-format machine (double the old
//!   dense ceiling) builds with delivery enabled and completes a
//!   faulty-fabric flow test exactly once and in order, with every flow
//!   endpoint indexed past 32 768 and the invariants checked after every
//!   chunk.

use std::collections::VecDeque;

use tcni::core::{InterfaceReg, MsgType, NodeId, SendMode, WireFormat};
use tcni::net::{FabricConfig, FaultConfig};
use tcni::sim::{CycleDriver, DeliveryConfig, Machine, MachineBuilder, Model, Node, RunOutcome};
use tcni::workload::{InjectCounters, Injector, InjectorConfig, LoopMode, Pattern, Topology};

/// Builds a delivery-enabled 64×64 mesh machine under a seeded fault
/// schedule and runs a uniform open-loop sweep over it.
fn run_64x64_delivery_sweep(cycles: u64) -> (Machine, InjectCounters) {
    let side = 64usize;
    let mut machine = MachineBuilder::new(side * side)
        .model(Model::ALL_SIX[0])
        .network_fabric(FabricConfig::new(side, side))
        .network_fault(FaultConfig::uniform(0xD157, 20))
        .delivery(DeliveryConfig::default())
        .build();
    assert_eq!(machine.wire_format(), WireFormat::Wide);
    let mut config = InjectorConfig::new(
        Pattern::Uniform,
        Topology::new(side, side),
        LoopMode::Open { rate_pm: 5 },
    );
    config.format = machine.wire_format();
    let mut injector = Injector::new(config);
    let outcome = machine.run_driven(&mut injector, cycles);
    assert_eq!(outcome, RunOutcome::CycleLimit);
    machine.check_invariants().expect("delivery invariants");
    (machine, injector.counters())
}

/// Uniform traffic at 64×64 with the delivery protocol on: flow state must
/// stay proportional to the set of (src, dst) pairs that actually carried
/// traffic — the dense tables would pin 2·4096² slots up front.
#[test]
fn uniform_delivery_at_64x64_keeps_flow_state_sparse() {
    let n = 64u64 * 64;
    let cycles = 600;
    let (machine, counters) = run_64x64_delivery_sweep(cycles);
    let del = machine.delivery_stats().expect("protocol enabled");
    assert!(
        counters.issued > 0 && del.accepted > 0,
        "the sweep must actually move traffic through the protocol"
    );

    let scan = machine.net_stats().scan;
    assert!(scan.peak_flows > 0, "delivery traffic occupies flow slots");
    assert!(scan.flow_probes > 0, "sparse lookups are metered");
    assert!(
        scan.active_flows <= scan.peak_flows,
        "the high-water mark bounds the live count"
    );
    // Each accepted send touches at most one tx flow (at the source) and
    // one rx flow (at the destination), so the footprint is bounded by the
    // traffic that ran — not by the address space.
    assert!(
        scan.peak_flows <= 2 * del.accepted,
        "flow state is proportional to active pairs ({} slots for {} sends)",
        scan.peak_flows,
        del.accepted
    );
    assert!(
        scan.peak_flows < n * n / 8,
        "flow state must stay far below the 2*N^2 dense footprint"
    );
}

/// One directed flow at 256×256 scale: `src` sends sequenced messages to
/// `dst`; every index is past the old 32 768-flow-table cap.
struct ScalePair {
    src: usize,
    dst: usize,
    pending: VecDeque<u32>,
    received: Vec<u32>,
}

/// Drives the (src, dst) flows through the architected interface, receive
/// side first, and records arrival order.
struct ScaleRecorder {
    pairs: Vec<ScalePair>,
    format: WireFormat,
    mtype: MsgType,
}

impl ScaleRecorder {
    fn new(pairs: &[(usize, usize)], per_flow: u32, format: WireFormat) -> ScaleRecorder {
        ScaleRecorder {
            pairs: pairs
                .iter()
                .map(|&(src, dst)| ScalePair {
                    src,
                    dst,
                    pending: (0..per_flow).collect(),
                    received: Vec::new(),
                })
                .collect(),
            format,
            mtype: MsgType::new(2).expect("type 2 is a plain message type"),
        }
    }

    fn complete(&self, per_flow: u32) -> bool {
        self.pairs
            .iter()
            .all(|p| p.received.len() as u32 >= per_flow)
    }
}

impl CycleDriver for ScaleRecorder {
    fn on_cycle(&mut self, _cycle: u64, nodes: &mut [Node]) -> bool {
        for (idx, pair) in self.pairs.iter_mut().enumerate() {
            let ni = nodes[pair.dst].ni_mut();
            while ni.msg_valid() {
                let w1 = ni.read_reg(InterfaceReg::I1).expect("I1 readable");
                ni.next();
                assert_eq!((w1 >> 16) as usize, idx, "flow tag routes to its pair");
                pair.received.push(w1 & 0xFFFF);
            }
            let ni = nodes[pair.src].ni_mut();
            if let Some(&seq) = pair.pending.front() {
                if ni.send_would_stall() {
                    continue; // interface (or delivery-window) backpressure
                }
                let dest = NodeId::from_index(pair.dst);
                ni.write_reg(InterfaceReg::O0, dest.into_word_bits(self.format))
                    .expect("O0 writable");
                ni.write_reg(InterfaceReg::O1, ((idx as u32) << 16) | seq)
                    .expect("O1 writable");
                ni.send(SendMode::Send, self.mtype).expect("send accepted");
                pair.pending.pop_front();
            }
        }
        true
    }
}

/// The acceptance smoke for the lifted cap: a 256×256 (65 536-node)
/// wide-format machine — double the old dense-table ceiling — builds
/// with delivery enabled and carries flows between physically-close nodes
/// whose indices all exceed 32 768, exactly once and in order, across a
/// faulty fabric. Tiny per-node memories keep the build cheap; the hot-set
/// scheduler keeps the idle 65 528 nodes off every per-cycle path.
#[test]
fn delivery_at_256x256_is_exactly_once_in_order_under_faults() {
    let side = 256usize;
    let per_flow = 4u32;
    // Neighbouring nodes (distance 1 in the mesh), every index > 32768 —
    // addresses the dense tables could never have stored.
    let pairs = [
        (40_000usize, 40_001usize),
        (33_000, 33_001),
        (65_534, 65_535),
        (50_000, 50_256), // vertical neighbour: one row apart
    ];
    let mut machine = MachineBuilder::new(side * side)
        .memory_bytes(1024)
        .network_fabric(FabricConfig::new(side, side))
        .network_fault(FaultConfig::uniform(0xC0DE, 40))
        .delivery(DeliveryConfig {
            window: 4,
            timeout: 256,
            retransmit_limit: 10_000,
        })
        .build();
    assert_eq!(machine.node_count(), 65_536);
    assert_eq!(machine.wire_format(), WireFormat::Wide);
    let mut recorder = ScaleRecorder::new(&pairs, per_flow, machine.wire_format());

    let (chunk, budget) = (1_000u64, 30_000u64);
    let mut spent = 0;
    while !recorder.complete(per_flow) {
        assert!(spent < budget, "flows incomplete after {spent} cycles");
        machine.run_driven(&mut recorder, chunk);
        machine.check_invariants().expect("delivery invariants");
        spent += chunk;
    }

    let expect: Vec<u32> = (0..per_flow).collect();
    for (pair, &(src, dst)) in recorder.pairs.iter().zip(&pairs) {
        assert_eq!(
            pair.received, expect,
            "flow {src}->{dst} must arrive exactly once, in order"
        );
    }
    let total = u64::from(per_flow) * pairs.len() as u64;
    let del = machine.delivery_stats().expect("protocol enabled");
    assert_eq!(del.accepted, total, "sends committed");
    assert_eq!(del.delivered_unique, total, "unique deliveries");
    assert_eq!(del.abandoned, 0, "no flow may abandon its window");

    // Footprint: 8 flow endpoints (4 tx + up to 4 rx) in a 65 536-node
    // machine whose dense tables would have needed 2 * 65536^2 slots.
    let scan = machine.net_stats().scan;
    assert!(
        scan.peak_flows >= pairs.len() as u64,
        "every pair occupies at least its tx slot"
    );
    assert!(
        scan.peak_flows <= 2 * pairs.len() as u64,
        "flow state never exceeds the active endpoints"
    );
    assert!(
        scan.active_flows >= pairs.len() as u64,
        "tx flows are never evicted (their budgets are load-bearing)"
    );
}
