//! Cross-topology equivalence and routing-invariant properties — the pinning
//! layer for the [`Topology`] abstraction. Three families:
//!
//! * **Routing invariants**, checked exhaustively over every (src, dst) pair
//!   of representative mesh / torus / ring / fully-connected instances: each
//!   hop a route takes is a real link of the topology, the walk reaches the
//!   destination in exactly [`Topology::distance`] hops (minimality), and
//!   grid topologies obey the dimension-order discipline (once a route
//!   leaves the X dimension it never re-enters it) that makes the schedule
//!   deadlock-free.
//! * **Hot-set equivalence on every topology**: the optimised machine (the
//!   active-channel frontier, the delivery timer set and the
//!   fast-forward) must be bit-identical to the reference mode — and
//!   conserve effort — on the torus, ring, and fully-connected fabrics
//!   exactly as on the mesh, across the six §4 models with E2E delivery
//!   on/off over a clean fabric, and with E2E delivery over seeded fault
//!   schedules.
//!
//! [`Topology`]: tcni::net::Topology
//! [`Topology::distance`]: tcni::net::Topology::distance

use tcni::core::NodeId;
use tcni::eval::handlers::remote_read::{self, REMOTE_ADDR, RESULT_ADDR};
use tcni::isa::Reg;
use tcni::net::{FaultConfig, Hop, Topology, TopologyKind};
use tcni::sim::{DeliveryConfig, Machine, MachineBuilder, Model, RunOutcome};
use tcni_check::check;

/// Representative instances: square and rectangular grids (odd and even
/// dimensions exercise both wrap tie-break arms), a ring, and the
/// fully-connected clique.
fn instances() -> Vec<TopologyKind> {
    vec![
        TopologyKind::mesh(4, 3),
        TopologyKind::mesh(1, 5),
        TopologyKind::torus(4, 4),
        TopologyKind::torus(5, 3),
        TopologyKind::torus(2, 6),
        TopologyKind::ring(2),
        TopologyKind::ring(9),
        TopologyKind::ring(12),
        TopologyKind::full(2),
        TopologyKind::full(8),
    ]
}

/// Walks the route from `src` to `dst`, asserting every hop is a real link,
/// and returns the hop count.
fn walk(topo: &TopologyKind, src: usize, dst: usize) -> usize {
    let mut at = src;
    let mut hops = 0;
    loop {
        match topo.route(at, dst) {
            Hop::Eject => {
                assert_eq!(at, dst, "{topo:?}: eject away from destination");
                return hops;
            }
            Hop::Port(p) => {
                assert!(p < topo.ports(), "{topo:?}: port {p} out of range");
                let next = topo.port_target(at, p);
                assert!(next < topo.nodes(), "{topo:?}: link target off-fabric");
                assert_ne!(next, at, "{topo:?}: self-loop link");
                at = next;
                hops += 1;
                assert!(
                    hops <= topo.nodes(),
                    "{topo:?}: route {src}->{dst} does not terminate"
                );
            }
        }
    }
}

#[test]
fn routes_are_real_links_and_minimal() {
    for topo in instances() {
        for src in 0..topo.nodes() {
            for dst in 0..topo.nodes() {
                let hops = walk(&topo, src, dst);
                assert_eq!(
                    hops,
                    topo.distance(src, dst),
                    "{topo:?}: route {src}->{dst} is not minimal"
                );
            }
        }
    }
}

#[test]
fn links_are_what_routes_traverse() {
    // Every link some route traverses is bidirectional in the fabric:
    // adjacent nodes are one hop apart in *both* directions, so backpressure
    // credits and reply traffic always have a same-length return path.
    // (Unused ports — a mesh edge's west port, the clique's self-port — are
    // deliberately outside the contract and never routed onto.)
    for topo in instances() {
        for src in 0..topo.nodes() {
            for dst in 0..topo.nodes() {
                let mut at = src;
                while let Hop::Port(p) = topo.route(at, dst) {
                    let next = topo.port_target(at, p);
                    assert_eq!(
                        topo.distance(next, at),
                        1,
                        "{topo:?}: traversed link {at}->{next} has no return path"
                    );
                    at = next;
                }
            }
        }
    }
}

#[test]
fn grid_routes_keep_dimension_order() {
    // The deadlock-freedom argument for the grid topologies is strict
    // dimension order: all X movement happens before any Y movement. The
    // mesh's X ports are {0, 1} and Y ports {2, 3}; the torus doubles each
    // for the dateline virtual channels (X: 0..4, Y: 4..8).
    for (topo, x_ports) in [
        (TopologyKind::mesh(4, 3), 2),
        (TopologyKind::mesh(5, 5), 2),
        (TopologyKind::torus(4, 4), 4),
        (TopologyKind::torus(5, 3), 4),
    ] {
        for src in 0..topo.nodes() {
            for dst in 0..topo.nodes() {
                let mut at = src;
                let mut seen_y = false;
                while let Hop::Port(p) = topo.route(at, dst) {
                    if p < x_ports {
                        assert!(!seen_y, "{topo:?}: route {src}->{dst} re-enters X after Y");
                    } else {
                        seen_y = true;
                    }
                    at = topo.port_target(at, p);
                }
            }
        }
    }
}

/// The §4 matrix config, as in `prop_hot_set`, with the fabric topology as
/// an explicit axis.
struct Config {
    model: Model,
    topo: TopologyKind,
    e2e: bool,
    fault: Option<(u64, u32)>,
}

const SECRET: u32 = 0xFEED_0042;

fn build(cfg: &Config, dense: bool) -> Machine {
    let mut b = MachineBuilder::new(2)
        .model(cfg.model)
        .program(
            0,
            remote_read::requester(cfg.model, NodeId::new(0), NodeId::new(1)),
        )
        .program(1, remote_read::server(cfg.model))
        .topology(cfg.topo);
    if cfg.e2e {
        b = b.delivery(DeliveryConfig {
            window: 4,
            timeout: 24,
            retransmit_limit: 10_000,
        });
    }
    if let Some((seed, rate_pm)) = cfg.fault {
        b = b.network_fault(FaultConfig::uniform(seed, rate_pm));
    }
    let mut machine = b.build();
    machine.set_reference(dense);
    machine.node_mut(1).mem_mut().poke(REMOTE_ADDR, SECRET);
    machine
}

/// The two-node fabrics the equivalence sweeps draw from: every topology,
/// sized so both machine nodes exist (extra fabric slots stay idle, which
/// is itself a property worth pinning).
fn fabric_axis() -> [TopologyKind; 5] {
    [
        TopologyKind::mesh(2, 1),
        TopologyKind::torus(2, 2),
        TopologyKind::torus(3, 1),
        TopologyKind::ring(4),
        TopologyKind::full(3),
    ]
}

/// Runs the optimised and the reference machine of `cfg` for `budget`
/// cycles and requires identical outcomes, both machines' invariants,
/// identical surfaces, and conserved effort (the frontier may skip, never
/// invent, work).
fn assert_hot_matches_reference(cfg: &Config, budget: u64, ctx: &str) -> RunOutcome {
    let mut hot = build(cfg, false);
    let mut dense = build(cfg, true);
    let oh = hot.run(budget);
    assert_eq!(oh, dense.run(budget), "{ctx} outcome");
    for m in [&hot, &dense] {
        if let Err(e) = m.check_invariants() {
            panic!("{ctx}: invariant broken: {e}");
        }
    }
    assert_eq!(hot.cycle(), dense.cycle(), "{ctx} machine cycle");
    assert_eq!(hot.net_stats(), dense.net_stats(), "{ctx} network stats");
    assert_eq!(
        hot.delivery_stats(),
        dense.delivery_stats(),
        "{ctx} delivery"
    );
    for i in 0..2 {
        let (x, y) = (hot.node(i), dense.node(i));
        assert_eq!(x.cpu().cycle(), y.cpu().cycle(), "{ctx} node {i} cycles");
        assert_eq!(x.cpu().stats(), y.cpu().stats(), "{ctx} node {i} stats");
        for r in Reg::ALL {
            assert_eq!(x.cpu().reg(r), y.cpu().reg(r), "{ctx} node {i} reg {r}");
        }
    }
    let (sh, sd) = (hot.net_stats().scan, dense.net_stats().scan);
    assert_eq!(sd.skipped_work, 0, "{ctx} dense scan skips nothing");
    assert_eq!(
        sh.scanned_channels + sh.scanned_flows + sh.skipped_work,
        sd.scanned_channels + sd.scanned_flows,
        "{ctx} scanned + skipped must equal the dense cost"
    );
    if oh == RunOutcome::Quiescent {
        assert_eq!(hot.node(0).mem().peek(RESULT_ADDR), SECRET, "{ctx}");
    }
    oh
}

#[test]
fn hot_set_is_equivalent_on_every_topology() {
    check("hot_set_is_equivalent_on_every_topology", 48, |rng| {
        let cfg = Config {
            model: *rng.pick(&Model::ALL_SIX),
            topo: *rng.pick(&fabric_axis()),
            e2e: rng.bool(),
            fault: None,
        };
        let budget = rng.range(4_000, 20_000);
        let ctx = format!("{} {:?} e2e={}", cfg.model, cfg.topo, cfg.e2e);
        let outcome = assert_hot_matches_reference(&cfg, budget, &ctx);
        assert_eq!(
            outcome,
            RunOutcome::Quiescent,
            "{ctx} must finish in {budget}"
        );
    });
}

/// The delivery protocol retransmitting around a seeded fault schedule on
/// every topology: flows join, refresh and leave the timer set
/// continuously while the frontier tracks retransmitted traffic.
#[test]
fn faulty_e2e_matches_the_reference_per_topology() {
    check("faulty_e2e_matches_the_reference_per_topology", 32, |rng| {
        let cfg = Config {
            model: *rng.pick(&Model::ALL_SIX),
            topo: *rng.pick(&fabric_axis()),
            e2e: true,
            fault: Some((rng.u64(), rng.range(20, 120) as u32)),
        };
        let budget = rng.range(8_000, 30_000);
        let ctx = format!("{} {:?} fault={:?}", cfg.model, cfg.topo, cfg.fault);
        assert_hot_matches_reference(&cfg, budget, &ctx);
    });
}
