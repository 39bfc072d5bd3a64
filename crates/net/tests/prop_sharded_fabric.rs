//! Property: the sharded fabric is the serial fabric. One `NetworkKind` is
//! driven through the serial `Network` entry points, a same-config twin
//! through `split_ranges` / `absorb` for its injection and ejection phases
//! and the serial `Network::tick` between them, over random small
//! fabrics — every topology at ≤ 16 nodes, per-role buffer capacities of
//! 1–4 packets, bare or behind a stalling fault layer, 1, 2, 3 or 5
//! domains — and a random interleaving of injection, tick and ejection
//! phases. The delivery streams, `NetStats` (scan meters included) and
//! fault counters must match, and `Fabric::check_invariants` must hold on
//! both after every phase.
//!
//! The case count scales with `TCNI_CHECK_CASES`; the worker count with
//! `TCNI_THREADS`.

use tcni_check::{check, Rng};
use tcni_core::{Message, NodeId};
use tcni_isa::MsgType;
use tcni_net::{
    Fabric, FabricConfig, FaultConfig, FaultyFabric, Network, NetworkKind, Topology as _,
    TopologyKind,
};
use tcni_util::par::domain_bounds;

const CASES: u64 = 64;
const STEPS: usize = 240;

fn arb_topology(rng: &mut Rng) -> TopologyKind {
    let (w, h) = (rng.range(1, 5) as usize, rng.range(1, 5) as usize);
    let n = rng.range(1, 17) as usize;
    match rng.below(4) {
        0 => TopologyKind::mesh(w, h),
        1 => TopologyKind::torus(w, h),
        2 => TopologyKind::ring(n),
        _ => TopologyKind::full(n),
    }
}

fn arb_net(rng: &mut Rng) -> (FabricConfig, Option<FaultConfig>) {
    let cfg = FabricConfig {
        topo: arb_topology(rng),
        channel_capacity: rng.range(1, 5) as usize,
        inject_capacity: rng.range(1, 5) as usize,
        eject_capacity: rng.range(1, 5) as usize,
    };
    let fault = rng.bool().then(|| FaultConfig {
        seed: rng.u64(),
        drop_pm: rng.below(150) as u32,
        duplicate_pm: rng.below(150) as u32,
        corrupt_pm: rng.below(150) as u32,
        stall_pm: rng.range(1, 250) as u32,
        stall_len: rng.range(1, 6),
    });
    (cfg, fault)
}

fn build(cfg: FabricConfig, fault: Option<FaultConfig>) -> NetworkKind {
    let net = NetworkKind::from(Fabric::new(cfg));
    match fault {
        Some(f) => FaultyFabric::new(net, f).into(),
        None => net,
    }
}

fn check_fabric(net: &NetworkKind, what: &str) {
    let fabric = net.as_fabric().expect("a switched fabric");
    if let Err(e) = fabric.check_invariants() {
        panic!("{what}: {e}");
    }
}

/// One phase of the cycle, with everything random about it drawn up front
/// so both paths replay the same plan.
enum Phase {
    /// `(src, dst, tag)` offers in ascending source order; `dst` may lie
    /// outside the fabric.
    Inject(Vec<(usize, usize, u32)>),
    Tick,
    /// `(node, at most this many messages)` in ascending node order.
    Eject(Vec<(usize, usize)>),
}

fn arb_phase(rng: &mut Rng, n: usize, tag: &mut u32) -> Phase {
    match rng.below(3) {
        0 => {
            let mut offers = Vec::new();
            for src in 0..n {
                for _ in 0..rng.below(3) {
                    // One in sixteen offers is misaddressed.
                    let misaddressed = rng.below(16) == 0;
                    let dst = rng.index(n + usize::from(misaddressed));
                    *tag += 1;
                    offers.push((src, dst, *tag));
                }
            }
            Phase::Inject(offers)
        }
        1 => Phase::Tick,
        _ => {
            let mut plan = Vec::new();
            for node in 0..n {
                if rng.below(4) != 0 {
                    plan.push((node, rng.range(1, 4) as usize));
                }
            }
            Phase::Eject(plan)
        }
    }
}

fn msg(dst: usize, tag: u32) -> Message {
    Message::to(
        NodeId::new(dst as u16),
        [0, tag, 0, 0, 0],
        MsgType::new(2).unwrap(),
    )
}

/// The serial path: the `Network` entry points, nodes in ascending order.
fn run_serial(net: &mut NetworkKind, phase: &Phase, got: &mut Vec<(usize, Message)>) {
    match phase {
        Phase::Inject(offers) => {
            for &(src, dst, tag) in offers {
                let _ = net.inject(NodeId::new(src as u16), msg(dst, tag));
            }
        }
        Phase::Tick => net.tick(),
        Phase::Eject(plan) => {
            for &(node, k) in plan {
                let id = NodeId::new(node as u16);
                for _ in 0..k {
                    let Some(&peeked) = net.peek_eject(id) else {
                        break;
                    };
                    let m = net.eject(id).expect("peeked a message");
                    assert_eq!(m, peeked, "eject returns what peek showed");
                    got.push((node, m));
                }
            }
        }
    }
}

/// The sharded path: one range per domain, the ejection walk driven by
/// each range's eject-ready set, then one absorb; the tick is serial, as
/// in the machine's sharded cycle.
fn run_sharded(
    net: &mut NetworkKind,
    bounds: &[usize],
    phase: &Phase,
    got: &mut Vec<(usize, Message)>,
) {
    let deltas = match phase {
        Phase::Tick => return net.tick(),
        Phase::Inject(offers) => net
            .split_ranges(bounds)
            .into_iter()
            .zip(bounds.windows(2))
            .map(|(mut range, w)| {
                for &(src, dst, tag) in offers.iter().filter(|o| (w[0]..w[1]).contains(&o.0)) {
                    let _ = range.inject(NodeId::new(src as u16), msg(dst, tag));
                }
                range.into_delta()
            })
            .collect::<Vec<_>>(),
        Phase::Eject(plan) => net
            .split_ranges(bounds)
            .into_iter()
            .zip(bounds.windows(2))
            .map(|(mut range, w)| {
                let mut from = w[0];
                while let Some(node) = range.next_eject_ready(from, w[1]) {
                    from = node + 1;
                    let Some(&(_, k)) = plan.iter().find(|p| p.0 == node) else {
                        continue;
                    };
                    let id = NodeId::new(node as u16);
                    for _ in 0..k {
                        let Some(&peeked) = range.peek_eject(id) else {
                            break;
                        };
                        let m = range.eject(id).expect("peeked a message");
                        assert_eq!(m, peeked, "eject returns what peek showed");
                        got.push((node, m));
                    }
                }
                range.into_delta()
            })
            .collect(),
    };
    net.absorb(deltas);
}

#[test]
fn sharded_fabric_matches_the_serial_fabric() {
    check("sharded_fabric_matches_the_serial_fabric", CASES, |rng| {
        let (cfg, fault) = arb_net(rng);
        let domains = *rng.pick(&[1usize, 2, 3, 5]);
        let n = cfg.topo.nodes();
        let bounds = domain_bounds(n, domains);
        let what = format!(
            "{} {n} nodes, caps {}/{}/{}, {domains} domains, faults {fault:?}",
            cfg.topo.name(),
            cfg.channel_capacity,
            cfg.inject_capacity,
            cfg.eject_capacity
        );
        let mut serial = build(cfg, fault);
        let mut sharded = build(cfg, fault);
        let (mut got_serial, mut got_sharded) = (Vec::new(), Vec::new());
        let mut tag = 0;
        for step in 0..STEPS {
            let phase = arb_phase(rng, n, &mut tag);
            run_serial(&mut serial, &phase, &mut got_serial);
            run_sharded(&mut sharded, &bounds, &phase, &mut got_sharded);
            check_fabric(&serial, &format!("{what}: serial step {step}"));
            check_fabric(&sharded, &format!("{what}: sharded step {step}"));
        }
        assert_eq!(got_serial, got_sharded, "{what}: delivery stream");
        let (s, p) = (serial.stats(), sharded.stats());
        assert_eq!(s, p, "{what}: stats");
        assert_eq!(s.scan, p.scan, "{what}: scan meters");
        let faults = |net: &NetworkKind| net.as_faulty().map(FaultyFabric::counters);
        assert_eq!(faults(&serial), faults(&sharded), "{what}: fault counters");
        assert_eq!(serial.in_flight(), sharded.in_flight(), "{what}: in flight");
    });
}
