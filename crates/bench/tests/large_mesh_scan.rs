//! The 256-node low-load point: a uniform 5‰ open-loop drive with the
//! delivery protocol on. On the 16×16 mesh the hot-set scheduler must
//! examine at least 2× fewer channels+flows than the dense cost
//! `cycles × (nodes × dirs + nodes²)`, and must actually skip work. On the
//! mesh, the torus and the ring, the delivery counters are pinned exactly:
//! they are the source of EXPERIMENTS.md's low-load latencies.

use tcni_net::FabricConfig;
use tcni_sim::{DeliveryConfig, Machine, MachineBuilder, Model};
use tcni_workload::{Injector, InjectorConfig, LoopMode, Pattern, Topology};

fn run_point(fabric: FabricConfig, cycles: u64, dense: bool) -> Machine {
    let mut machine = MachineBuilder::new(256)
        .model(Model::ALL_SIX[0])
        .network_fabric(fabric)
        .delivery(DeliveryConfig::default())
        .build();
    machine.set_reference(dense);
    let mut injector = Injector::new(InjectorConfig::new(
        Pattern::Uniform,
        Topology::new(16, 16),
        LoopMode::Open { rate_pm: 5 },
    ));
    machine.run_driven(&mut injector, cycles);
    machine
}

#[test]
fn the_16x16_low_load_point_meets_the_speedup_criterion() {
    let machine = run_point(FabricConfig::new(16, 16), 5_000, false);
    let stats = machine.net_stats();
    assert!(stats.delivered > 0, "the injector must generate traffic");
    let dense_cost = machine.cycle() * (256 * 5 + 256 * 256) as u64;
    let examined = stats.scan.scanned_channels + stats.scan.scanned_flows;
    assert!(stats.scan.skipped_work > 0, "idle work must be skipped");
    assert!(
        examined * 2 <= dense_cost,
        "hot set must examine >= 2x fewer than dense cost: {examined} vs {dense_cost}"
    );
}

#[test]
fn the_point_is_bit_identical_under_the_dense_cross_check() {
    let hot = run_point(FabricConfig::new(16, 16), 2_000, false);
    let dense = run_point(FabricConfig::new(16, 16), 2_000, true);
    // `NetStats` equality deliberately ignores the scan meters.
    assert_eq!(hot.net_stats(), dense.net_stats());
    assert_eq!(hot.delivery_stats(), dense.delivery_stats());
    assert_eq!(dense.net_stats().scan.skipped_work, 0);
}

#[test]
fn the_low_load_counters_are_pinned_on_every_switched_topology() {
    let points = [
        (
            "mesh",
            FabricConfig::new(16, 16),
            (100_000, 255_488, 3_042_204),
        ),
        (
            "torus",
            FabricConfig::torus(16, 16),
            (100_000, 255_488, 2_357_549),
        ),
        (
            "ring",
            FabricConfig::ring(256),
            (100_000, 213_145, 41_913_340),
        ),
    ];
    for (name, fabric, expected) in points {
        let machine = run_point(fabric, 100_000, false);
        let stats = machine.net_stats();
        assert_eq!(
            (machine.cycle(), stats.delivered, stats.total_latency),
            expected,
            "{name}: (cycle, delivered, total_latency)"
        );
    }
}
