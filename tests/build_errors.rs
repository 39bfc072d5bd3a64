//! Regression tests for machine-construction validation, notably the
//! node-id truncation bug family: node indices used to travel in `u8`
//! fields (fabric addressing, delivery-protocol headers), so a machine
//! with more than 256 nodes silently wrapped node ids. Destinations are
//! now carried in a versioned wire format — compact (8 address bits, the
//! paper's exact byte layout) or wide (16) — and the builder picks the
//! smallest format that fits, so 257 nodes *build* rather than error.
//! What remains rejected, with a typed [`BuildError`] from the fallible
//! constructors or a panic carrying the same message from the infallible
//! ones: node counts beyond the wide format's 65536-id address space, an
//! explicitly pinned format that is too small for the machine, fabrics
//! (of any topology) with fewer slots than the machine has nodes or more
//! than the address space, a fabric with a zero buffer capacity, a
//! delivery protocol with a zero-message window, the fully-connected
//! fabric past its quadratic-wiring ceiling, and combining trees whose size
//! or geometry does not fit the configured fabric.

use tcni::core::{CollectiveOp, NodeId, WireFormat};
use tcni::net::{CombiningTree, FabricConfig, FullyConnected, InjectError, TopologyKind};
use tcni::sim::{BuildError, DeliveryConfig, MachineBuilder, TreeMismatch};

#[test]
fn more_than_65536_nodes_is_a_typed_error() {
    let err = MachineBuilder::try_new(65_537)
        .err()
        .expect("must be rejected");
    assert_eq!(err, BuildError::TooManyNodes { requested: 65_537 });
    assert!(
        err.to_string()
            .contains("NodeId address space is 65536 nodes"),
        "message names the invariant: {err}"
    );
}

#[test]
fn zero_nodes_is_a_typed_error() {
    let err = MachineBuilder::try_new(0).err().expect("must be rejected");
    assert_eq!(err, BuildError::NoNodes);
    assert!(err.to_string().contains("at least one node"), "{err}");
}

#[test]
fn the_compact_address_space_still_builds_compact() {
    // 256 nodes is the last compact size: every index fits 8 bits, and the
    // auto-selected format stays the paper's byte layout.
    let machine = MachineBuilder::try_new(256)
        .expect("256 nodes fit the compact address space")
        .try_build()
        .expect("buildable");
    assert_eq!(machine.node_count(), 256);
    assert_eq!(machine.wire_format(), WireFormat::Compact);
}

#[test]
fn past_the_compact_ceiling_builds_wide() {
    // The former ceiling: 257 nodes used to be TooManyNodes. Now the
    // builder widens the header instead.
    let machine = MachineBuilder::try_new(257)
        .expect("257 nodes fit the wide address space")
        .try_build()
        .expect("buildable");
    assert_eq!(machine.node_count(), 257);
    assert_eq!(machine.wire_format(), WireFormat::Wide);
}

#[test]
fn a_pinned_format_too_small_is_a_typed_error() {
    // Pinning compact promises the paper's byte layout; silently widening
    // would break that promise, so the builder refuses.
    let err = MachineBuilder::try_new(257)
        .expect("257 nodes fit the wide address space")
        .wire_format(WireFormat::Compact)
        .try_build()
        .err()
        .expect("compact cannot address 257 nodes");
    assert_eq!(
        err,
        BuildError::FormatTooSmall {
            format: WireFormat::Compact,
            nodes: 257
        }
    );
    assert!(
        err.to_string()
            .contains("compact wire format addresses 256 nodes"),
        "{err}"
    );
}

#[test]
fn a_pinned_wide_format_on_a_small_machine_is_honoured() {
    let machine = MachineBuilder::try_new(4)
        .expect("4 nodes are fine")
        .wire_format(WireFormat::Wide)
        .try_build()
        .expect("wide is never too small");
    assert_eq!(machine.wire_format(), WireFormat::Wide);
}

#[test]
fn delivery_past_the_dense_ceiling_builds_sparse() {
    // The former ceiling of dense flow tables: 32769 delivery nodes used to
    // be a build error. The sparse flow store keys state by active
    // (src, dst) pair, so the whole wide address space builds. Tiny
    // per-node memory keeps the 32769-node machine cheap to construct.
    let machine = MachineBuilder::try_new(32_769)
        .expect("32769 nodes fit the wide address space")
        .memory_bytes(64)
        .delivery(DeliveryConfig::default())
        .try_build()
        .expect("sparse flow state scales to the full address space");
    assert_eq!(machine.node_count(), 32_769);
    assert_eq!(machine.wire_format(), WireFormat::Wide);
}

#[test]
fn undersized_mesh_is_a_typed_error() {
    let err = MachineBuilder::try_new(9)
        .expect("9 nodes are fine")
        .network_fabric(FabricConfig::new(2, 2))
        .try_build()
        .err()
        .expect("4-slot mesh cannot host 9 nodes");
    assert_eq!(
        err,
        BuildError::FabricTooSmall {
            topo: "mesh",
            fabric_nodes: 4,
            nodes: 9
        }
    );
    assert!(err.to_string().contains("smaller than node count"), "{err}");
}

#[test]
fn undersized_fabrics_of_every_topology_are_typed_errors() {
    // The same slot-count validation holds on every topology — a ring or
    // torus workload sized for the wrong machine fails construction, it
    // does not wrap addresses or panic.
    for (topo, name, slots) in [
        (TopologyKind::torus(2, 3), "torus", 6),
        (TopologyKind::ring(5), "ring", 5),
        (TopologyKind::full(7), "full", 7),
    ] {
        let err = MachineBuilder::try_new(9)
            .expect("9 nodes are fine")
            .topology(topo)
            .try_build()
            .err()
            .expect("a smaller fabric cannot host 9 nodes");
        assert_eq!(
            err,
            BuildError::FabricTooSmall {
                topo: name,
                fabric_nodes: slots,
                nodes: 9
            }
        );
        assert!(err.to_string().contains("smaller than node count"), "{err}");
    }
}

#[test]
fn an_oversized_fully_connected_fabric_is_a_typed_error() {
    // Fully-connected wiring is quadratic in the node count, so the
    // topology carries an explicit ceiling; exceeding it is a typed error
    // raised before the channel table would be allocated.
    let too_many = FullyConnected::MAX_NODES + 1;
    let err = MachineBuilder::try_new(16)
        .expect("16 nodes are fine")
        .topology(TopologyKind::full(too_many))
        .try_build()
        .err()
        .expect("the fully-connected fabric has a scaling ceiling");
    assert_eq!(
        err,
        BuildError::FabricTooLarge {
            topo: "full",
            nodes: too_many,
            max: FullyConnected::MAX_NODES
        }
    );
    assert!(err.to_string().contains("scales to at most"), "{err}");
}

#[test]
fn a_fabric_past_the_address_space_is_a_typed_error() {
    // A 300×300 mesh has 90 000 slots: more than enough for a 4-node
    // machine, but past the 65 536-id NodeId address space no topology
    // can exceed. This used to panic inside the fabric constructor.
    let err = MachineBuilder::try_new(4)
        .expect("4 nodes are fine")
        .topology(TopologyKind::mesh(300, 300))
        .try_build()
        .err()
        .expect("the fabric outgrows the address space");
    assert_eq!(
        err,
        BuildError::FabricTooLarge {
            topo: "mesh",
            nodes: 90_000,
            max: NodeId::MAX_NODES
        }
    );
    assert!(err.to_string().contains("scales to at most 65536"), "{err}");
}

#[test]
fn a_zero_delivery_window_is_a_typed_error() {
    // No sender could ever have a message in flight; this used to panic
    // inside the delivery protocol's constructor.
    let err = MachineBuilder::new(4)
        .delivery(DeliveryConfig {
            window: 0,
            ..DeliveryConfig::default()
        })
        .try_build()
        .err()
        .expect("a zero-message window is rejected");
    assert_eq!(err, BuildError::ZeroDeliveryWindow);
    assert!(err.to_string().contains("window"), "{err}");
}

#[test]
fn a_zero_capacity_fabric_is_a_typed_error() {
    // A zero-capacity buffer can never pass a packet; each of the three
    // capacities used to panic inside the fabric constructor.
    for cfg in [
        FabricConfig {
            channel_capacity: 0,
            ..FabricConfig::new(2, 2)
        },
        FabricConfig {
            inject_capacity: 0,
            ..FabricConfig::new(2, 2)
        },
        FabricConfig {
            eject_capacity: 0,
            ..FabricConfig::new(2, 2)
        },
    ] {
        let err = MachineBuilder::try_new(4)
            .expect("4 nodes are fine")
            .network_fabric(cfg)
            .try_build()
            .err()
            .expect("a zero-capacity buffer is rejected");
        assert_eq!(err, BuildError::ZeroCapacity);
        assert!(err.to_string().contains("non-zero"), "{err}");
    }
}

#[test]
fn a_grid_tree_on_a_ring_fabric_is_a_typed_shape_error() {
    // A mesh-shaped combining tree assumes row/column links a ring does
    // not have; mounting it used to be representable (and silently wrong),
    // now the geometry mismatch is a typed error.
    let err = MachineBuilder::try_new(8)
        .expect("8 nodes are fine")
        .topology(TopologyKind::ring(8))
        .collective(CombiningTree::mesh(4, 2, 2))
        .try_build()
        .err()
        .expect("a grid tree cannot embed in a ring");
    assert_eq!(
        err,
        BuildError::CollectiveTreeMismatch(TreeMismatch::Shape {
            tree: "mesh grid",
            fabric: "ring"
        })
    );
    assert!(err.to_string().contains("cannot embed"), "{err}");
}

#[test]
fn a_torus_tree_on_a_mesh_fabric_is_a_typed_shape_error() {
    // The torus tree's wrap-aligned edges need wrap links; a mesh of the
    // same dimensions cannot carry them.
    let err = MachineBuilder::try_new(8)
        .expect("8 nodes are fine")
        .network_fabric(FabricConfig::new(4, 2))
        .collective(CombiningTree::torus(4, 2, 2))
        .try_build()
        .err()
        .expect("wrap edges need a torus");
    assert_eq!(
        err,
        BuildError::CollectiveTreeMismatch(TreeMismatch::Shape {
            tree: "torus grid",
            fabric: "mesh"
        })
    );

    // The reverse direction is fine: a torus carries every mesh link, and
    // stars are geometry-free, so both build on a torus.
    MachineBuilder::try_new(8)
        .expect("8 nodes are fine")
        .topology(TopologyKind::torus(4, 2))
        .collective(CombiningTree::mesh(4, 2, 2))
        .try_build()
        .expect("mesh trees embed in a same-size torus");
    MachineBuilder::try_new(8)
        .expect("8 nodes are fine")
        .topology(TopologyKind::ring(8))
        .collective(CombiningTree::star(8))
        .try_build()
        .expect("stars embed everywhere");
}

#[test]
#[should_panic(expected = "NodeId address space is 65536 nodes")]
fn the_panicking_constructor_reports_the_same_invariant() {
    let _ = MachineBuilder::new(70_000);
}

#[test]
fn a_mismatched_combining_tree_is_a_typed_error() {
    // The tree's index space is the collective wire-address space; letting
    // a 4-node tree onto a 6-node machine would leave two nodes silently
    // unreachable by collectives.
    let err = MachineBuilder::try_new(6)
        .expect("6 nodes are fine")
        .collective(CombiningTree::star(4))
        .try_build()
        .err()
        .expect("a 4-node tree cannot span 6 nodes");
    assert_eq!(
        err,
        BuildError::CollectiveTreeMismatch(TreeMismatch::Size {
            tree_nodes: 4,
            nodes: 6
        })
    );
    assert!(
        err.to_string()
            .contains("combining tree spans 4 nodes but the machine has 6"),
        "{err}"
    );
}

#[test]
fn a_contribution_outside_the_member_set_is_a_typed_error() {
    // A partial-member tree: node 3 exists on the machine and the tree's
    // index space, but the tree does not span it. Contributing from it is
    // not retryable — the typed error says so, and the engine counts it.
    let mut machine = MachineBuilder::try_new(4)
        .expect("4 nodes are fine")
        .collective(CombiningTree::star_of(4, &[0, 1, 2]))
        .try_build()
        .expect("a partial member set is legal");
    let err = machine
        .coll_start(3, CollectiveOp::Barrier, 0)
        .err()
        .expect("node 3 is not a participant");
    assert!(matches!(err, InjectError::NotParticipant(_)), "{err:?}");
    assert!(!err.is_retryable(), "futile to retry");
    assert_eq!(machine.collective_stats().unwrap().not_participant, 1);

    // Members are unaffected.
    machine
        .coll_start(0, CollectiveOp::Barrier, 0)
        .expect("node 0 is a member");
}
