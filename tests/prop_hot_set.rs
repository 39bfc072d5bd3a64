//! Hot-set scheduler equivalence across the full §4 matrix: the optimised
//! machine (the active-channel frontier, the delivery timeout list and the
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
//! on, [`Machine::check_invariants`] runs after every cycle of the
//! thread-count and topology sweeps, so the protocol's edits must keep the
//! timeout list, the outbox sets, the per-flow counters and every flow
//! table consistent. A separate sweep runs flows of several messages over
//! a dropping fabric, where a gap arrival creates receiver state that its
//! re-ack then evicts. (The store's own oracle — a `BTreeMap` model —
//! lives beside it in `tcni-sim`.)
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
    instrument: Option<usize>,
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
    machine.node_mut(1).mem_mut().poke(REMOTE_ADDR, SECRET);
    machine
}

/// Drives the hot-set and dense machines through the same budget and checks
/// every observable surface for bit-identity, then the conservation law on
/// the effort meters. Returns both run outcomes for caller assertions.
fn assert_equivalent(cfg: &Config, budget: u64, ctx: &str) -> (RunOutcome, RunOutcome) {
    let mut hot = build(cfg, false);
    let mut dense = build(cfg, true);
    let oh = hot.run(budget);
    let od = dense.run(budget);

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
    if cfg.instrument.is_some() {
        let (th, td) = (hot.trace().unwrap(), dense.trace().unwrap());
        assert_eq!(th.dropped(), td.dropped(), "{ctx} trace dropped");
        assert!(th.events().eq(td.events()), "{ctx} trace events");
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
        "{ctx} timeout list must not examine more flows than the dense scan"
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
        };
        let budget = rng.range(4_000, 20_000);
        let ctx = format!(
            "{} mesh={} latency={} e2e={} instrument={:?}",
            cfg.model, cfg.mesh, cfg.latency, cfg.e2e, cfg.instrument
        );
        let (oh, _) = assert_equivalent(&cfg, budget, &ctx);
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

/// Builds a machine for the parallel sweep: hot scan, optional trace-only
/// instrumentation, and an explicit per-machine worker count.
fn build_par(cfg: &Config, trace_cap: Option<usize>, par_threads: usize) -> Machine {
    let mut m = build(cfg, false);
    if let Some(c) = trace_cap {
        m.enable_trace(c);
    }
    m.set_par_threads(par_threads);
    m
}

/// The worker count is not an input of the simulation: a machine must be
/// bit-identical to the one-worker machine at any worker count — same
/// bytes on every observable surface, including the [`ScanStats`] effort
/// meters. The sweep crosses the §4 models with both fabrics, E2E on/off,
/// trace-only and trace+obs instrumentation, seeded fault schedules, and
/// worker counts {1, 2, 3, 8}. With the delivery protocol on, both
/// machines check their invariants after every cycle.
#[test]
fn parallel_tick_is_equivalent_at_any_thread_count() {
    check(
        "parallel_tick_is_equivalent_at_any_thread_count",
        64,
        |rng| {
            let cfg = Config {
                model: *rng.pick(&Model::ALL_SIX),
                mesh: rng.bool(),
                latency: rng.below(40),
                e2e: rng.bool(),
                fault: rng.bool().then(|| (rng.u64(), rng.range(20, 120) as u32)),
                instrument: rng.bool().then(|| rng.range(1, 24) as usize),
            };
            let trace_cap =
                (cfg.instrument.is_none() && rng.bool()).then(|| rng.range(1, 24) as usize);
            let par = *rng.pick(&[1usize, 2, 3, 8]);
            let budget = rng.range(4_000, 30_000);
            let ctx = format!(
                "{} mesh={} latency={} e2e={} fault={:?} instrument={:?} trace={:?} par={}",
                cfg.model,
                cfg.mesh,
                cfg.latency,
                cfg.e2e,
                cfg.fault,
                cfg.instrument,
                trace_cap,
                par
            );
            let mut serial = build_par(&cfg, trace_cap, 1);
            let mut sharded = build_par(&cfg, trace_cap, par);
            let (os, op) = if cfg.e2e {
                (
                    run_checked(&mut serial, budget, &ctx),
                    run_checked(&mut sharded, budget, &ctx),
                )
            } else {
                (serial.run(budget), sharded.run(budget))
            };

            assert_eq!(os, op, "{ctx} outcome");
            assert_eq!(serial.cycle(), sharded.cycle(), "{ctx} machine cycle");
            assert_eq!(serial.net_stats(), sharded.net_stats(), "{ctx} net stats");
            assert_eq!(
                serial.net_stats().scan,
                sharded.net_stats().scan,
                "{ctx} scan meters must be byte-identical, not merely conserved"
            );
            assert_eq!(
                serial.delivery_stats(),
                sharded.delivery_stats(),
                "{ctx} delivery stats"
            );
            assert_eq!(
                serial.skipped_cycles(),
                sharded.skipped_cycles(),
                "{ctx} fast-forward accounting"
            );
            for i in 0..2 {
                let (s, p) = (serial.node(i), sharded.node(i));
                assert_eq!(s.cpu().cycle(), p.cpu().cycle(), "{ctx} node {i} cycles");
                assert_eq!(s.cpu().stats(), p.cpu().stats(), "{ctx} node {i} stats");
                for r in Reg::ALL {
                    assert_eq!(s.cpu().reg(r), p.cpu().reg(r), "{ctx} node {i} reg {r}");
                }
            }
            if trace_cap.is_some() || cfg.instrument.is_some() {
                let (ts, tp) = (serial.trace().unwrap(), sharded.trace().unwrap());
                assert_eq!(ts.dropped(), tp.dropped(), "{ctx} trace dropped");
                assert!(ts.events().eq(tp.events()), "{ctx} trace events");
            }
            if cfg.instrument.is_some() {
                // Even the serialized report (scan meters included) is
                // byte-equal.
                let (rs, rp) = (serial.obs_report().unwrap(), sharded.obs_report().unwrap());
                assert_eq!(rs.to_json(), rp.to_json(), "{ctx} tcni-trace/1 report");
            }
        },
    );
}

/// The fault-wrapped mesh across worker counts, with a seeded fault
/// schedule mangling traffic and the delivery protocol retransmitting
/// around it: the fabric tick, the per-node fault streams, and the
/// stall-roll timing must not depend on the worker count.
#[test]
fn fault_wrapped_mesh_shards_bit_identically() {
    check("fault_wrapped_mesh_shards_bit_identically", 24, |rng| {
        let cfg = Config {
            model: *rng.pick(&Model::ALL_SIX),
            mesh: true,
            latency: 0,
            e2e: true,
            fault: Some((rng.u64(), rng.range(20, 150) as u32)),
            instrument: None,
        };
        let trace_cap = rng.bool().then(|| rng.range(1, 24) as usize);
        let budget = rng.range(10_000, 40_000);
        let ctx = format!("{} fault={:?} trace={:?}", cfg.model, cfg.fault, trace_cap);
        let mut serial = build_par(&cfg, trace_cap, 1);
        let baseline = serial.run(budget);
        for par in [2usize, 3, 8] {
            let mut sharded = build_par(&cfg, trace_cap, par);
            let op = sharded.run(budget);
            assert_eq!(baseline, op, "{ctx} par={par} outcome");
            assert_eq!(serial.cycle(), sharded.cycle(), "{ctx} par={par} cycle");
            assert_eq!(
                serial.net_stats(),
                sharded.net_stats(),
                "{ctx} par={par} net stats (fault counters included)"
            );
            assert_eq!(
                serial.delivery_stats(),
                sharded.delivery_stats(),
                "{ctx} par={par} delivery stats"
            );
            for i in 0..2 {
                let (s, p) = (serial.node(i), sharded.node(i));
                assert_eq!(s.cpu().cycle(), p.cpu().cycle(), "{ctx} node {i} cycles");
                for r in Reg::ALL {
                    assert_eq!(s.cpu().reg(r), p.cpu().reg(r), "{ctx} node {i} reg {r}");
                }
            }
            if trace_cap.is_some() {
                let (ts, tp) = (serial.trace().unwrap(), sharded.trace().unwrap());
                assert_eq!(ts.dropped(), tp.dropped(), "{ctx} par={par} trace dropped");
                assert!(ts.events().eq(tp.events()), "{ctx} par={par} trace events");
            }
        }
    });
}

/// The same bit-identity must hold when a seeded fault schedule is mangling
/// traffic and the delivery protocol is retransmitting around it — the
/// hardest case for the timeout list, since flows join, refresh, and leave
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
        };
        let budget = rng.range(20_000, 60_000);
        let ctx = format!(
            "{} mesh={} latency={} fault={:?} instrument={:?}",
            cfg.model, cfg.mesh, cfg.latency, cfg.fault, cfg.instrument
        );
        assert_equivalent(&cfg, budget, &ctx);
    });
}

/// The §4 matrix config for the flow-store sweep, with the fabric topology
/// and the worker count as explicit axes.
struct StoreConfig {
    model: Model,
    topo: TopologyKind,
    fault: Option<(u64, u32)>,
    instrument: Option<usize>,
    par: usize,
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

fn build_store(cfg: &StoreConfig, par: usize) -> Machine {
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
    machine.set_par_threads(par);
    machine
}

/// The sparse flow store under the delivery protocol, on every fabric
/// topology: the machine's invariants hold after every cycle — at one
/// worker and at the swept worker count — the two runs agree on every
/// surface including the footprint meters, and the footprint stays
/// consistent (the live count never exceeds its high-water mark, and
/// protocol traffic occupies and meters flow slots). Crosses the §4
/// models, seeded fault schedules, instrumentation, and worker counts
/// {1, 2, 3, 8}.
#[test]
fn flow_store_invariants_hold_on_every_topology() {
    check("flow_store_invariants_hold_on_every_topology", 48, |rng| {
        let cfg = StoreConfig {
            model: *rng.pick(&Model::ALL_SIX),
            topo: *rng.pick(&store_fabric_axis()),
            fault: rng.bool().then(|| (rng.u64(), rng.range(20, 120) as u32)),
            instrument: rng.bool().then(|| rng.range(1, 24) as usize),
            par: *rng.pick(&[1usize, 2, 3, 8]),
        };
        let budget = rng.range(8_000, 40_000);
        let ctx = format!(
            "{} {:?} fault={:?} instrument={:?} par={}",
            cfg.model, cfg.topo, cfg.fault, cfg.instrument, cfg.par
        );
        let mut serial = build_store(&cfg, 1);
        let mut sharded = build_store(&cfg, cfg.par);
        let os = run_checked(&mut serial, budget, &ctx);
        let op = run_checked(&mut sharded, budget, &ctx);

        assert_eq!(os, op, "{ctx} outcome");
        assert_eq!(serial.cycle(), sharded.cycle(), "{ctx} machine cycle");
        assert_eq!(serial.net_stats(), sharded.net_stats(), "{ctx} net stats");
        assert_eq!(
            serial.delivery_stats(),
            sharded.delivery_stats(),
            "{ctx} delivery stats"
        );
        for i in 0..2 {
            let (s, p) = (serial.node(i), sharded.node(i));
            assert_eq!(s.cpu().cycle(), p.cpu().cycle(), "{ctx} node {i} cycles");
            for r in Reg::ALL {
                assert_eq!(s.cpu().reg(r), p.cpu().reg(r), "{ctx} node {i} reg {r}");
            }
        }
        if cfg.instrument.is_some() {
            let (ts, tp) = (serial.trace().unwrap(), sharded.trace().unwrap());
            assert!(ts.events().eq(tp.events()), "{ctx} trace events");
            let (rs, rp) = (serial.obs_report().unwrap(), sharded.obs_report().unwrap());
            assert_eq!(rs.to_json(), rp.to_json(), "{ctx} tcni-trace/1 report");
        }

        let (ss, sp) = (serial.net_stats().scan, sharded.net_stats().scan);
        assert_eq!(ss, sp, "{ctx} scan meters, footprint included");
        assert!(ss.active_flows <= ss.peak_flows, "{ctx} live <= peak");
        assert!(
            ss.peak_flows > 0,
            "{ctx} delivery traffic occupies flow slots"
        );
        assert!(ss.flow_probes > 0, "{ctx} flow lookups are metered");
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
