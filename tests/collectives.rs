//! End-to-end tests for the in-network collective engine: the NIC-combining
//! path must beat the flat software emulation on the paper-scale 16×16 mesh
//! (the headline claim of the subsystem), and the engine must be invisible
//! to the machine's determinism guarantees — bit-identical results at any
//! worker count, with the quiescence fast-forward on or off, and across a
//! faulty fabric running the end-to-end delivery protocol.

use tcni::core::mapping::{scroll_in_addr, NI_WINDOW_BASE};
use tcni::core::{CollectiveOp, FeatureLevel, InterfaceReg};
use tcni::isa::{Assembler, Reg};
use tcni::net::{CombiningTree, FabricConfig, FaultConfig};
use tcni::sim::{CollDone, Machine, MachineBuilder, Model, NiMapping, RunOutcome};
use tcni::workload::{run_coll_point, CollMode, CollStormConfig, Topology};

/// The acceptance pin: in-network combining must be measurably faster than
/// the software gather/scatter for barrier *and* reduce on the 16×16 mesh.
/// Latency (request latched → every node holds the result) and total cycles
/// must both improve; correctness is cross-checked per round on both sides.
#[test]
fn nic_combining_beats_software_for_barrier_and_reduce_at_16x16() {
    let mut cfg = CollStormConfig::new(Topology::new(16, 16));
    cfg.rounds = 8;
    for op in [CollectiveOp::Barrier, CollectiveOp::Sum] {
        let nic = run_coll_point(CollMode::Nic, op, 0, &cfg);
        let soft = run_coll_point(CollMode::Soft, op, 0, &cfg);
        for p in [&nic, &soft] {
            assert_eq!(p.rounds_done, cfg.rounds, "{} {}", p.mode.key(), op.key());
            assert_eq!(p.wrong_results, 0, "{} {}", p.mode.key(), op.key());
        }
        let (nl, sl) = (nic.lat_mean_x100.unwrap(), soft.lat_mean_x100.unwrap());
        assert!(
            nl < sl,
            "{}: NIC latency {nl} must beat software {sl}",
            op.key()
        );
        assert!(
            nic.cycles < soft.cycles,
            "{}: NIC cycles {} must beat software {}",
            op.key(),
            nic.cycles,
            soft.cycles
        );
        // The tree actually combined in the network: every up edge folded
        // or forwarded, every down edge fanned.
        assert!(nic.combined > 0 && nic.forwarded_up > 0 && nic.fanned_down > 0);
        assert_eq!(soft.combined, 0, "software mode must not touch the engine");
    }
}

/// Drives `rounds` back-to-back collective rounds through a machine, one
/// cycle at a time with the machine's invariants checked after each, and
/// returns every completion each node collected, in collection order.
fn storm(machine: &mut Machine, op: CollectiveOp, rounds: u32) -> Vec<Vec<CollDone>> {
    let n = machine.node_count();
    let mut collected: Vec<Vec<CollDone>> = vec![Vec::new(); n];
    let mut fired = 0u32;
    let mut done_rounds = 0u32;
    let mut open = false;
    let mut awaiting = 0usize;
    let mut driver = |_cycle: u64, nodes: &mut [tcni::sim::Node]| {
        for (i, node) in nodes.iter_mut().enumerate() {
            while let Some(d) = node.coll_take_done() {
                collected[i].push(d);
                awaiting -= 1;
            }
        }
        if open && awaiting == 0 {
            open = false;
            done_rounds += 1;
        }
        if !open && fired < rounds {
            for (i, node) in nodes.iter_mut().enumerate() {
                node.coll_request(op, fired ^ ((i as u32) << 3));
            }
            awaiting = nodes.len();
            open = true;
            fired += 1;
        }
        done_rounds < rounds
    };
    while machine.run_driven(&mut driver, 1) != RunOutcome::DriverStopped {
        if let Err(e) = machine.check_invariants() {
            panic!("invariant broken at cycle {}: {e}", machine.cycle());
        }
        assert!(machine.cycle() < 100_000, "storm must finish");
    }
    machine.check_invariants().expect("invariants at the end");
    collected
}

fn nic_machine(width: usize, height: usize, fault: Option<(u64, u32)>) -> Machine {
    let mut b = MachineBuilder::new(width * height)
        .network_fabric(FabricConfig::new(width, height))
        .collective(CombiningTree::mesh(width, height, 4));
    if let Some((seed, rate_pm)) = fault {
        b = b
            .network_fault(FaultConfig::uniform(seed, rate_pm))
            .delivery(Default::default());
    }
    b.build()
}

/// Worker threads are an implementation detail: a machine with the
/// collective engine enabled — including over a fault-wrapped mesh with the
/// delivery protocol retransmitting around a seeded fault schedule — must
/// produce bit-identical completions, counters, and timing at any thread
/// count.
#[test]
fn sharded_collectives_are_bit_identical_at_any_thread_count() {
    for fault in [None, Some((0x5EED, 60))] {
        let mut reference = nic_machine(8, 8, fault);
        reference.set_par_threads(1);
        let baseline = storm(&mut reference, CollectiveOp::Sum, 6);
        assert!(baseline.iter().all(|v| v.len() == 6));

        for threads in [2usize, 4] {
            let mut m = nic_machine(8, 8, fault);
            m.set_par_threads(threads);
            let got = storm(&mut m, CollectiveOp::Sum, 6);
            let ctx = format!("threads={threads} fault={fault:?}");
            assert_eq!(got, baseline, "{ctx} completions");
            assert_eq!(m.cycle(), reference.cycle(), "{ctx} cycle");
            assert_eq!(
                m.collective_stats(),
                reference.collective_stats(),
                "{ctx} engine counters"
            );
            assert_eq!(m.net_stats(), reference.net_stats(), "{ctx} net stats");
            assert_eq!(
                m.delivery_stats(),
                reference.delivery_stats(),
                "{ctx} delivery stats"
            );
        }
    }
}

/// The quiescence fast-forward must replay collective traffic exactly: a
/// machine with one processor env-stalled forever (a SCROLL-IN waiting on a
/// continuation flit that is never sent — collective arrivals are
/// engine-bound and invisible to the interface) and a pending all-nodes
/// reduction finishes with identical state whether or not the fast-forward
/// is allowed to skip the stall cycles, and the fast machine must actually
/// have skipped some.
#[test]
fn fast_forward_is_invisible_to_collectives() {
    // The reduction drains in the first few dozen cycles (every cycle
    // changes interface state, so the machine single-steps through it);
    // after that only the wedged node 0 is running and the fast-forward
    // burns the rest of the budget in one jump.
    let wedged = {
        let mut a = Assembler::new();
        a.li(Reg::R9, NI_WINDOW_BASE);
        a.ld(
            Reg::R4,
            Reg::R9,
            (scroll_in_addr(Some(InterfaceReg::input(4))) - NI_WINDOW_BASE) as i16,
        );
        a.halt();
        a.assemble().expect("wedged consumer assembles")
    };
    let build = |skip: bool| -> Machine {
        let model = Model {
            mapping: NiMapping::OnChipCache,
            level: FeatureLevel::Optimized,
        };
        let mut m = MachineBuilder::new(16)
            .model(model)
            .program(0, wedged.clone())
            .network_fabric(FabricConfig::new(4, 4))
            .collective(CombiningTree::mesh(4, 4, 2))
            .build();
        m.set_reference(!skip);
        for node in 0..16 {
            m.coll_start(node, CollectiveOp::Min, 900 + node as u32)
                .expect("fresh slot");
        }
        m
    };

    let mut fast = build(true);
    let mut slow = build(false);
    let of = fast.run(20_000);
    let os = slow.run(20_000);
    assert_eq!(of, os, "outcome");
    assert_eq!(of, RunOutcome::CycleLimit, "the consumer stalls forever");
    assert!(fast.skipped_cycles() > 0, "fast-forward must have engaged");
    assert_eq!(fast.cycle(), slow.cycle(), "cycle");
    assert_eq!(fast.collective_stats(), slow.collective_stats());
    assert_eq!(fast.net_stats(), slow.net_stats());
    fast.check_invariants().expect("fast invariants");
    slow.check_invariants().expect("slow invariants");
    assert_eq!(
        fast.node(0).cpu().cycle(),
        slow.node(0).cpu().cycle(),
        "the stalled server is charged identically"
    );
    for node in 0..16 {
        let (f, s) = (
            fast.node_mut(node).coll_take_done().expect("min done"),
            slow.node_mut(node).coll_take_done().expect("min done"),
        );
        assert_eq!(f, s, "node {node} completion");
        assert_eq!(f.value, 900, "min over 900..=915");
    }
}

/// Both collective schemes must survive an unreliable fabric when the
/// delivery protocol is on: all rounds complete with correct results, and
/// the NIC path keeps its latency edge even while retransmissions are
/// weaving through the tree.
#[test]
fn collectives_survive_a_faulty_fabric_at_8x8() {
    let mut cfg = CollStormConfig::new(Topology::new(8, 8));
    cfg.rounds = 4;
    cfg.fault_pm = 25;
    cfg.delivery = true;
    cfg.max_cycles = 400_000;
    for mode in CollMode::BOTH {
        let p = run_coll_point(mode, CollectiveOp::Sum, 0, &cfg);
        assert_eq!(p.rounds_done, cfg.rounds, "{} under faults", mode.key());
        assert_eq!(p.wrong_results, 0, "{} under faults", mode.key());
    }
}
