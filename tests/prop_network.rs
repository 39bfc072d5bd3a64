//! Randomized tests (tcni-check) across crates: a switched fabric and the
//! ideal network agree on *what* is delivered (the fabric only changes
//! *when*), point-to-point order survives the fabric, the fabric's hot-set
//! scan moves exactly what the dense scan moves, and the interface's
//! queueing is loss-free under arbitrary traffic. The fabrics are drawn:
//! any of the four topologies, with each buffer role's depth drawn in
//! 1..=6, and their invariants are checked after every tick.

use tcni::core::{Message, MsgType, NetworkInterface, NiConfig, NodeId};
use tcni::net::{Fabric, FabricConfig, IdealNetwork, Network, Topology, TopologyKind};
use tcni_check::{check, Rng};

const CASES: u64 = 64;

#[derive(Debug, Clone)]
struct Traffic {
    src: u16,
    dst: u16,
    tag: u32,
}

fn arb_traffic(rng: &mut Rng, nodes: u16, len: usize) -> Vec<Traffic> {
    (0..rng.below(len as u64))
        .map(|_| Traffic {
            src: rng.below(u64::from(nodes)) as u16,
            dst: rng.below(u64::from(nodes)) as u16,
            tag: rng.u32(),
        })
        .collect()
}

/// A switched fabric of six or nine nodes on a drawn topology, with the
/// injection, link and ejection buffer depths each drawn in 1..=6.
fn arb_fabric(rng: &mut Rng) -> FabricConfig {
    let rows = rng.range(2, 4) as usize;
    let topo = match rng.below(4) {
        0 => TopologyKind::mesh(3, rows),
        1 => TopologyKind::torus(3, rows),
        2 => TopologyKind::ring(3 * rows),
        _ => TopologyKind::full(3 * rows),
    };
    let mut depth = || rng.range(1, 7) as usize;
    FabricConfig {
        topo,
        inject_capacity: depth(),
        channel_capacity: depth(),
        eject_capacity: depth(),
    }
}

/// A fabric whose invariants are checked after every tick.
fn checked(net: &Fabric) {
    if let Err(e) = net.check_invariants() {
        panic!("{:?}: {e}", net.config());
    }
}

/// Offers `traffic` in order, retrying each refused message after a tick,
/// then ticks until the network drains; every node is drained after every
/// tick, and `check` runs after every tick too. Returns the deliveries as
/// `(node, tag)` in the order they left the network.
fn push_through<N: Network>(
    net: &mut N,
    traffic: &[Traffic],
    check: impl Fn(&N),
) -> Vec<(u16, u32)> {
    let nodes = net.node_count() as u16;
    let mut delivered = Vec::new();
    let drain = |net: &mut N, delivered: &mut Vec<(u16, u32)>| {
        for n in 0..nodes {
            while let Some(m) = net.eject(NodeId::new(n)) {
                delivered.push((n, m.words[1]));
            }
        }
    };
    for t in traffic {
        let mut msg = Message::to(
            NodeId::new(t.dst),
            [0, t.tag, 0, 0, 0],
            MsgType::new(2).unwrap(),
        );
        loop {
            match net.inject(NodeId::new(t.src), msg) {
                Ok(()) => break,
                Err(e) => {
                    msg = e.into_message();
                    net.tick();
                    check(net);
                    drain(net, &mut delivered);
                }
            }
        }
    }
    for _ in 0..4096 {
        if net.in_flight() == 0 {
            break;
        }
        net.tick();
        check(net);
        drain(net, &mut delivered);
    }
    delivered
}

/// A drawn fabric and the ideal network deliver exactly the same multiset
/// of (destination, tag).
#[test]
fn mesh_and_ideal_deliver_the_same_messages() {
    check("mesh_and_ideal_deliver_the_same_messages", CASES, |rng| {
        let cfg = arb_fabric(rng);
        let nodes = cfg.topo.nodes();
        let traffic = arb_traffic(rng, nodes as u16, 60);
        let mut fabric = Fabric::new(cfg);
        let mut ideal = IdealNetwork::new(nodes, 2);
        let mut got_fabric = push_through(&mut fabric, &traffic, checked);
        let mut got_ideal = push_through(&mut ideal, &traffic, |_| {});
        assert_eq!(fabric.in_flight(), 0, "{cfg:?} must drain");
        got_fabric.sort_unstable();
        got_ideal.sort_unstable();
        assert_eq!(got_fabric, got_ideal, "{cfg:?}");
    });
}

/// Point-to-point order: tags from one source to one destination arrive in
/// injection order over a drawn fabric (the SCROLL flit requirement).
#[test]
fn mesh_preserves_pairwise_order() {
    check("mesh_preserves_pairwise_order", CASES, |rng| {
        let cfg = arb_fabric(rng);
        let count = rng.range(1, 24) as u32;
        let mut fabric = Fabric::new(cfg);
        let traffic: Vec<Traffic> = (0..count)
            .map(|i| Traffic {
                src: 0,
                dst: cfg.topo.nodes() as u16 - 1,
                tag: i,
            })
            .collect();
        let got = push_through(&mut fabric, &traffic, checked);
        let order: Vec<u32> = got.into_iter().map(|(_, tag)| tag).collect();
        assert_eq!(order, (0..count).collect::<Vec<_>>(), "{cfg:?}");
    });
}

/// On the same drawn fabric and traffic, the hot-set frontier and the dense
/// scan deliver the same messages in the same order with the same
/// counters; only the scan meters differ, and they account for the same
/// dense cost.
#[test]
fn hot_and_dense_scans_agree_on_drawn_fabrics() {
    check("hot_and_dense_scans_agree_on_drawn_fabrics", CASES, |rng| {
        let cfg = arb_fabric(rng);
        let traffic = arb_traffic(rng, cfg.topo.nodes() as u16, 80);
        let run = |dense: bool| {
            let mut fabric = Fabric::new(cfg);
            fabric.set_dense_scan(dense);
            let got = push_through(&mut fabric, &traffic, checked);
            (got, fabric.stats())
        };
        let (hot, hot_stats) = run(false);
        let (dense, dense_stats) = run(true);
        assert_eq!(hot, dense, "{cfg:?}: delivery order");
        assert_eq!(hot_stats, dense_stats, "{cfg:?}: counters");
        assert_eq!(
            hot_stats.scan.scanned_channels + hot_stats.scan.skipped_work,
            dense_stats.scan.scanned_channels + dense_stats.scan.skipped_work,
            "{cfg:?}: both scans account for the same dense cost"
        );
    });
}

/// The interface never loses or duplicates a message: everything pushed in
/// (that is not diverted) comes out of NEXT exactly once, in order.
#[test]
fn interface_queueing_is_loss_free() {
    check("interface_queueing_is_loss_free", CASES, |rng| {
        let tags: Vec<u32> = (0..rng.below(64)).map(|_| rng.u32()).collect();
        let cfg = NiConfig {
            input_capacity: 4,
            ..NiConfig::default()
        };
        let mut ni = NetworkInterface::new(cfg);
        let mut accepted = Vec::new();
        let mut received = Vec::new();
        let mut it = tags.iter().peekable();
        while it.peek().is_some() || ni.msg_valid() {
            // Offer the next message; on backpressure, consume one first.
            if let Some(&&tag) = it.peek() {
                let m = Message::new([0, tag, 0, 0, 0], MsgType::new(2).unwrap());
                if let Ok(()) = ni.push_incoming(m) {
                    accepted.push(tag);
                    it.next();
                    continue;
                }
            }
            if ni.msg_valid() {
                received.push(ni.read_reg(tcni::core::InterfaceReg::I1).unwrap());
                ni.next();
            }
        }
        assert_eq!(&accepted, &tags);
        assert_eq!(received, tags);
        assert!(ni.is_quiescent());
    });
}

/// Figure-7 dispatch: MsgIp is always either the in-message IP (clean
/// type-0) or inside the handler table.
#[test]
fn msg_ip_is_always_well_formed() {
    check("msg_ip_is_always_well_formed", CASES, |rng| {
        // Type 1 is reserved for this test's filler traffic; redraw around it
        // (the proptest original used prop_assume! the same way).
        let mtype = match rng.below(15) as u8 {
            t if t >= 1 => t + 1,
            t => t,
        };
        let w1 = rng.u32();
        let thresh = rng.below(4) as u32;
        let fill = rng.below(8) as usize;
        let mut ni = NetworkInterface::new(NiConfig::default());
        ni.write_reg(tcni::core::InterfaceReg::IpBase, 0x8000)
            .unwrap();
        ni.set_control(tcni::core::Control::new().with_input_threshold(thresh));
        for _ in 0..fill {
            ni.push_incoming(Message::new([0, 0, 0, 0, 0], MsgType::new(3).unwrap()))
                .unwrap();
        }
        ni.push_incoming(Message::new([0, w1, 0, 0, 0], MsgType::new(mtype).unwrap()))
            .unwrap();
        let ip = ni.read_reg(tcni::core::InterfaceReg::MsgIp).unwrap();
        let in_table = (0x8000..0x8000 + tcni::core::dispatch::TABLE_BYTES).contains(&ip);
        let current_type = ni.current_type();
        if current_type.bits() == 0 && !ni.status().iafull() && !ni.status().oafull() {
            // Clean type-0 currently in the registers: must be its word 1.
            let w1_now = ni.read_reg(tcni::core::InterfaceReg::I1).unwrap();
            assert_eq!(ip, w1_now);
        } else {
            assert!(in_table, "MsgIp {ip:#x} must fall in the table");
            assert_eq!(ip % 16, 0, "slot-aligned");
        }
    });
}
