//! Experiment E7 across the whole matrix: the remote-read protocol runs
//! correctly end-to-end on every one of the six §4 models, and the costs
//! fall in the order the paper predicts.

use tcni::core::NodeId;
use tcni::eval::handlers::remote_read::{self, REMOTE_ADDR, RESULT_ADDR};
use tcni::net::FabricConfig;
use tcni::sim::{MachineBuilder, Model, RunOutcome};

const SECRET: u32 = 0xFEED_0042;

fn run_model(model: Model) -> u64 {
    let mut machine = MachineBuilder::new(2)
        .model(model)
        .program(
            0,
            remote_read::requester(model, NodeId::new(0), NodeId::new(1)),
        )
        .program(1, remote_read::server(model))
        .network_ideal(1)
        .build();
    machine.node_mut(1).mem_mut().poke(REMOTE_ADDR, SECRET);
    let outcome = machine.run(10_000);
    assert_eq!(outcome, RunOutcome::Quiescent, "{model}: {outcome:?}");
    assert_eq!(
        machine.node(0).mem().peek(RESULT_ADDR),
        SECRET,
        "{model}: requester must observe the remote value"
    );
    // Exactly one request and one reply crossed the network.
    assert_eq!(machine.net_stats().delivered, 2, "{model}");
    machine.cycle()
}

#[test]
fn every_model_serves_a_remote_read() {
    for model in Model::ALL_SIX {
        run_model(model);
    }
}

/// The reply word names the requester's own node, so a requester away from
/// node 0 gets its reply too: node 2 of a 2×2 mesh reads from node 1.
#[test]
fn a_requester_off_node_0_receives_its_reply() {
    for model in Model::ALL_SIX {
        let mut machine = MachineBuilder::new(4)
            .model(model)
            .program(
                2,
                remote_read::requester(model, NodeId::new(2), NodeId::new(1)),
            )
            .program(1, remote_read::server(model))
            .network_fabric(FabricConfig::new(2, 2))
            .build();
        machine.node_mut(1).mem_mut().poke(REMOTE_ADDR, SECRET);
        let outcome = machine.run(10_000);
        assert_eq!(outcome, RunOutcome::Quiescent, "{model}: {outcome:?}");
        assert_eq!(
            machine.node(2).mem().peek(RESULT_ADDR),
            SECRET,
            "{model}: the requester on node 2 must observe the remote value"
        );
        assert_eq!(machine.net_stats().delivered, 2, "{model}");
    }
}

#[test]
fn completion_time_orderings() {
    let cycles: Vec<u64> = Model::ALL_SIX.iter().map(|m| run_model(*m)).collect();
    // Within each level: register ≤ on-chip ≤ off-chip.
    assert!(
        cycles[0] <= cycles[1] && cycles[1] <= cycles[2],
        "{cycles:?}"
    );
    assert!(
        cycles[3] <= cycles[4] && cycles[4] <= cycles[5],
        "{cycles:?}"
    );
    // Optimization beats placement pairwise.
    for i in 0..3 {
        assert!(cycles[i] < cycles[i + 3], "{cycles:?}");
    }
    // The full §4 crossover: slowest optimized ≤ fastest basic.
    let slowest_opt = cycles[..3].iter().max().unwrap();
    let fastest_basic = cycles[3..].iter().min().unwrap();
    assert!(slowest_opt <= fastest_basic, "{cycles:?}");
}

#[test]
fn off_chip_latency_hurts_only_offchip_models() {
    use tcni::cpu::TimingConfig;
    let base = TimingConfig::new();
    let slow = TimingConfig::new().with_offchip_load_extra(8);
    for (i, model) in Model::ALL_SIX.iter().enumerate() {
        let run_with = |t: TimingConfig| {
            let mut machine = MachineBuilder::new(2)
                .model(*model)
                .timing(t)
                .program(
                    0,
                    remote_read::requester(*model, NodeId::new(0), NodeId::new(1)),
                )
                .program(1, remote_read::server(*model))
                .network_ideal(1)
                .build();
            machine.node_mut(1).mem_mut().poke(REMOTE_ADDR, SECRET);
            assert_eq!(machine.run(10_000), RunOutcome::Quiescent);
            machine.cycle()
        };
        let (fast_c, slow_c) = (run_with(base), run_with(slow));
        if model.mapping == tcni::sim::NiMapping::OffChipCache {
            assert!(slow_c > fast_c, "model {i}: off-chip must slow down");
        } else {
            assert_eq!(slow_c, fast_c, "model {i}: on-chip/register unaffected");
        }
    }
}
