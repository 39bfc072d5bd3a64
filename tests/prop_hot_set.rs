//! Hot-set scheduler equivalence across the full §4 matrix: the optimised
//! machine (the active-channel frontier, the delivery timer set and the
//! quiescence fast-forward, all on by default) must be bit-identical to the
//! reference mode ([`Machine::set_reference`]: dense scans, no
//! fast-forward) — registers, per-node cycles, statistics, trace events,
//! delivery counters, and the serialized `tcni-trace/1` report — across all
//! six models, both fabrics, E2E delivery on/off, tracing and observability
//! on/off, and seeded fault schedules. Only the [`ScanStats`] effort meters
//! may differ, and they must conserve work: scanned + skipped equals the
//! dense cost on both sides.
//!
//! The delivery flow *store* is checked from the inside: with the protocol
//! on, [`Machine::check_invariants`] runs after every cycle of the checked
//! and topology sweeps, so the protocol's edits must keep the
//! timer set, the outbox sets, the per-flow counters and the live-flow
//! count consistent. A separate sweep runs flows of several messages over
//! a dropping fabric, where a gap arrival creates receiver state that its
//! re-ack then evicts.
//!
//! [`Machine::set_reference`]: tcni::sim::Machine::set_reference
//! [`Machine::check_invariants`]: tcni::sim::Machine::check_invariants
//! [`ScanStats`]: tcni::net::ScanStats

use tcni::core::{NodeId, WireFormat};
use tcni::cpu::CpuState;
use tcni::eval::handlers::remote_read::{self, REMOTE_ADDR, RESULT_ADDR};
use tcni::isa::Reg;
use tcni::net::{FabricConfig, FaultConfig, ScanStats, TopologyKind};
use tcni::sim::{DeliveryConfig, Machine, MachineBuilder, Model, RunOutcome};
use tcni_bench::obs_run::ring_program;
use tcni_check::check;

const SECRET: u32 = 0xFEED_0042;

struct Config {
    model: Model,
    mesh: bool,
    latency: u64,
    e2e: bool,
    fault: Option<(u64, u32)>,
    /// Trace and observability, both at this capacity.
    instrument: Option<usize>,
    /// The trace alone, at this capacity.
    trace: Option<usize>,
}

fn build(cfg: &Config, dense: bool) -> Machine {
    let mut b = MachineBuilder::new(2)
        .model(cfg.model)
        .program(
            0,
            remote_read::requester(cfg.model, NodeId::new(0), NodeId::new(1)),
        )
        .program(1, remote_read::server(cfg.model));
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
    let mut machine = if cfg.mesh {
        b.network_fabric(FabricConfig::new(2, 1)).build()
    } else {
        b.network_ideal(cfg.latency).build()
    };
    machine.set_reference(dense);
    if let Some(capacity) = cfg.instrument {
        machine.enable_trace(capacity);
        machine.enable_obs(capacity);
    }
    if let Some(capacity) = cfg.trace {
        machine.enable_trace(capacity);
    }
    machine.node_mut(1).mem_mut().poke(REMOTE_ADDR, SECRET);
    machine
}

/// Drives the hot-set and dense machines through the same budget — one
/// cycle at a time with the invariants checked after each when `checked` —
/// and checks every observable surface for bit-identity, then the
/// conservation law on the effort meters. Returns both run outcomes for
/// caller assertions.
fn assert_equivalent(
    cfg: &Config,
    budget: u64,
    checked: bool,
    ctx: &str,
) -> (RunOutcome, RunOutcome) {
    let mut hot = build(cfg, false);
    let mut dense = build(cfg, true);
    let (oh, od) = if checked {
        (
            run_checked(&mut hot, budget, ctx),
            run_checked(&mut dense, budget, ctx),
        )
    } else {
        (hot.run(budget), dense.run(budget))
    };

    assert_eq!(oh, od, "{ctx} outcome");
    assert_eq!(hot.cycle(), dense.cycle(), "{ctx} machine cycle");
    // `NetStats` equality deliberately ignores the scan meters.
    assert_eq!(hot.net_stats(), dense.net_stats(), "{ctx} network stats");
    assert_eq!(
        hot.delivery_stats(),
        dense.delivery_stats(),
        "{ctx} delivery stats"
    );
    for i in 0..2 {
        let (h, d) = (hot.node(i), dense.node(i));
        assert_eq!(h.cpu().cycle(), d.cpu().cycle(), "{ctx} node {i} cycles");
        assert_eq!(h.cpu().stats(), d.cpu().stats(), "{ctx} node {i} stats");
        for r in Reg::ALL {
            assert_eq!(h.cpu().reg(r), d.cpu().reg(r), "{ctx} node {i} reg {r}");
        }
    }
    if cfg.instrument.is_some() || cfg.trace.is_some() {
        let (th, td) = (hot.trace().unwrap(), dense.trace().unwrap());
        assert_eq!(th.dropped(), td.dropped(), "{ctx} trace dropped");
        assert!(th.events().eq(td.events()), "{ctx} trace events");
    }
    if cfg.instrument.is_some() {
        // The serialized report carries the scan meters, which are the one
        // legitimate difference; zero them on both sides, then demand
        // byte-identity of everything else.
        let (mut rh, mut rd) = (hot.obs_report().unwrap(), dense.obs_report().unwrap());
        rh.net.scan = ScanStats::default();
        rd.net.scan = ScanStats::default();
        assert_eq!(rh.to_json(), rd.to_json(), "{ctx} tcni-trace/1 report");
    }

    // Effort meters: the dense machine skips nothing, and both sides account
    // for the same total work (they gate counting on the same activity
    // conditions, which evolve identically).
    let (sh, sd) = (hot.net_stats().scan, dense.net_stats().scan);
    assert_eq!(sd.skipped_work, 0, "{ctx} dense scan skips nothing");
    assert!(
        sh.scanned_channels <= sd.scanned_channels,
        "{ctx} frontier must not visit more channels than the dense scan"
    );
    assert!(
        sh.scanned_flows <= sd.scanned_flows,
        "{ctx} timer set must not examine more flows than the dense scan"
    );
    assert_eq!(
        sh.scanned_channels + sh.scanned_flows + sh.skipped_work,
        sd.scanned_channels + sd.scanned_flows,
        "{ctx} scanned + skipped must equal the dense cost"
    );
    (oh, od)
}

#[test]
fn hot_set_is_equivalent_on_all_six_models() {
    check("hot_set_is_equivalent_on_all_six_models", 48, |rng| {
        let cfg = Config {
            model: *rng.pick(&Model::ALL_SIX),
            mesh: rng.bool(),
            latency: rng.below(80),
            e2e: rng.bool(),
            fault: None,
            instrument: rng.bool().then(|| rng.range(1, 24) as usize),
            trace: None,
        };
        let budget = rng.range(4_000, 20_000);
        let ctx = format!(
            "{} mesh={} latency={} e2e={} instrument={:?}",
            cfg.model, cfg.mesh, cfg.latency, cfg.e2e, cfg.instrument
        );
        let (oh, _) = assert_equivalent(&cfg, budget, false, &ctx);
        assert_eq!(oh, RunOutcome::Quiescent, "{ctx} must finish in {budget}");

        // The protocol completed, so both requesters observed the value.
        let mut hot = build(&cfg, false);
        hot.run(budget);
        assert_eq!(hot.node(0).mem().peek(RESULT_ADDR), SECRET, "{ctx}");
    });
}

/// Runs `m` like `Machine::run(budget)` but one cycle at a time, checking
/// the machine's invariants after every cycle. (Single-cycle runs never
/// fast-forward, so pair it only with another checked run.)
fn run_checked(m: &mut Machine, budget: u64, ctx: &str) -> RunOutcome {
    let end = m.cycle() + budget;
    loop {
        let outcome = m.run(1);
        if let Err(e) = m.check_invariants() {
            panic!("{ctx}: invariant broken at cycle {}: {e}", m.cycle());
        }
        if outcome != RunOutcome::CycleLimit || m.cycle() >= end {
            return outcome;
        }
    }
}

/// The hot-set machine against the reference with the per-cycle
/// invariant checks on: with the delivery protocol on, both machines run one
/// cycle at a time and check their invariants after each. The sweep crosses
/// the §4 models with both fabrics, E2E on/off, seeded fault schedules
/// (also without the protocol, where faults simply lose or mangle
/// traffic), and trace+obs or trace-only instrumentation.
#[test]
fn hot_set_under_faults_and_tracing_matches_the_reference() {
    check(
        "hot_set_under_faults_and_tracing_matches_the_reference",
        64,
        |rng| {
            let instrument = rng.bool().then(|| rng.range(1, 24) as usize);
            let cfg = Config {
                model: *rng.pick(&Model::ALL_SIX),
                mesh: rng.bool(),
                latency: rng.below(40),
                e2e: rng.bool(),
                fault: rng.bool().then(|| (rng.u64(), rng.range(20, 120) as u32)),
                instrument,
                trace: (instrument.is_none() && rng.bool()).then(|| rng.range(1, 24) as usize),
            };
            let budget = rng.range(4_000, 30_000);
            let ctx = format!(
                "{} mesh={} latency={} e2e={} fault={:?} instrument={:?} trace={:?}",
                cfg.model, cfg.mesh, cfg.latency, cfg.e2e, cfg.fault, cfg.instrument, cfg.trace
            );
            assert_equivalent(&cfg, budget, cfg.e2e, &ctx);
        },
    );
}

/// The same bit-identity must hold when a seeded fault schedule is mangling
/// traffic and the delivery protocol is retransmitting around it — the
/// hardest case for the timer set, since flows join, refresh, and leave
/// it continuously.
#[test]
fn hot_set_is_equivalent_under_fault_schedules() {
    check("hot_set_is_equivalent_under_fault_schedules", 24, |rng| {
        let cfg = Config {
            model: *rng.pick(&Model::ALL_SIX),
            mesh: rng.bool(),
            latency: 1 + rng.below(8),
            e2e: true,
            fault: Some((rng.u64(), rng.range(20, 120) as u32)),
            instrument: rng.bool().then(|| rng.range(1, 24) as usize),
            trace: None,
        };
        let budget = rng.range(20_000, 60_000);
        let ctx = format!(
            "{} mesh={} latency={} fault={:?} instrument={:?}",
            cfg.model, cfg.mesh, cfg.latency, cfg.fault, cfg.instrument
        );
        assert_equivalent(&cfg, budget, false, &ctx);
    });
}

/// The §4 matrix config for the flow-store sweep, with the fabric topology
/// as an explicit axis.
struct StoreConfig {
    model: Model,
    topo: TopologyKind,
    fault: Option<(u64, u32)>,
    instrument: Option<usize>,
}

/// Every switched topology, sized so both machine nodes exist (extra fabric
/// slots stay idle).
fn store_fabric_axis() -> [TopologyKind; 5] {
    [
        TopologyKind::mesh(2, 1),
        TopologyKind::torus(2, 2),
        TopologyKind::torus(3, 1),
        TopologyKind::ring(4),
        TopologyKind::full(3),
    ]
}

fn build_store(cfg: &StoreConfig) -> Machine {
    let mut b = MachineBuilder::new(2)
        .model(cfg.model)
        .program(
            0,
            remote_read::requester(cfg.model, NodeId::new(0), NodeId::new(1)),
        )
        .program(1, remote_read::server(cfg.model))
        .topology(cfg.topo)
        .delivery(DeliveryConfig {
            window: 4,
            timeout: 24,
            retransmit_limit: 10_000,
        });
    if let Some((seed, rate_pm)) = cfg.fault {
        b = b.network_fault(FaultConfig::uniform(seed, rate_pm));
    }
    let mut machine = b.build();
    if let Some(capacity) = cfg.instrument {
        machine.enable_trace(capacity);
        machine.enable_obs(capacity);
    }
    machine.node_mut(1).mem_mut().poke(REMOTE_ADDR, SECRET);
    machine
}

/// The sparse flow store under the delivery protocol, on every fabric
/// topology: the machine's invariants hold after every cycle, and the
/// footprint stays consistent (the live count never exceeds its high-water
/// mark, and protocol traffic occupies and meters flow slots). Crosses the
/// §4 models, seeded fault schedules and instrumentation. (The hot-set
/// equivalence on every topology lives in `prop_topology.rs`.)
#[test]
fn flow_store_invariants_hold_on_every_topology() {
    check("flow_store_invariants_hold_on_every_topology", 48, |rng| {
        let cfg = StoreConfig {
            model: *rng.pick(&Model::ALL_SIX),
            topo: *rng.pick(&store_fabric_axis()),
            fault: rng.bool().then(|| (rng.u64(), rng.range(20, 120) as u32)),
            instrument: rng.bool().then(|| rng.range(1, 24) as usize),
        };
        let budget = rng.range(8_000, 40_000);
        let ctx = format!(
            "{} {:?} fault={:?} instrument={:?}",
            cfg.model, cfg.topo, cfg.fault, cfg.instrument
        );
        let mut machine = build_store(&cfg);
        run_checked(&mut machine, budget, &ctx);

        let scan = machine.net_stats().scan;
        assert!(scan.active_flows <= scan.peak_flows, "{ctx} live <= peak");
        assert!(
            scan.peak_flows > 0,
            "{ctx} delivery traffic occupies flow slots"
        );
        assert!(scan.flow_probes > 0, "{ctx} flow lookups are metered");
    });
}

/// Flows of several messages over a dropping fabric, on every fabric
/// topology: both nodes run the ring program, each sending `k` messages to
/// the other, under the delivery protocol and a uniform fault schedule,
/// with the machine's invariants checked after every cycle. Losing a
/// flow's first message turns its successor into a gap arrival, whose
/// re-ack creates receiver state that is evicted when the ack drains — the
/// one path that removes a flow, which the one-message remote reads of the
/// sweep above never take. Every message must arrive exactly once, so both
/// programs halt and the machine quiesces.
#[test]
fn multi_message_flows_keep_the_flow_store_consistent() {
    check(
        "multi_message_flows_keep_the_flow_store_consistent",
        32,
        |rng| {
            let k = rng.range(2, 7) as u32;
            let topo = *rng.pick(&store_fabric_axis());
            let (seed, rate_pm) = (rng.u64(), rng.range(20, 120) as u32);
            let instrument = rng.bool().then(|| rng.range(1, 24) as usize);
            let ctx = format!("{topo:?} fault=({seed}, {rate_pm}) instrument={instrument:?} k={k}");
            let mut machine = MachineBuilder::new(2)
                .model(Model::ALL_SIX[1]) // the ring program's model
                .ni_queues(16, 16)
                .program(0, ring_program(NodeId::new(1), k, WireFormat::Compact))
                .program(1, ring_program(NodeId::new(0), k, WireFormat::Compact))
                .topology(topo)
                .delivery(DeliveryConfig {
                    window: 4,
                    timeout: 24,
                    retransmit_limit: 10_000,
                })
                .network_fault(FaultConfig::uniform(seed, rate_pm))
                .build();
            if let Some(capacity) = instrument {
                machine.enable_trace(capacity);
                machine.enable_obs(capacity);
            }
            let outcome = run_checked(&mut machine, 40_000, &ctx);
            assert_eq!(outcome, RunOutcome::Quiescent, "{ctx} outcome");
            for i in 0..2 {
                let node = machine.node(i);
                assert!(
                    matches!(node.cpu_state(), CpuState::Halted),
                    "{ctx} node {i} halts"
                );
                assert_eq!(
                    node.cpu().reg(Reg::R5),
                    0,
                    "{ctx} node {i} received all {k}"
                );
            }
            let del = machine.delivery_stats().expect("protocol enabled");
            assert_eq!(del.accepted, 2 * u64::from(k), "{ctx} accepted sends");
            let scan = machine.net_stats().scan;
            assert!(scan.active_flows <= scan.peak_flows, "{ctx} live <= peak");
            assert!(
                scan.peak_flows > 0,
                "{ctx} delivery traffic occupies flow slots"
            );
        },
    );
}
