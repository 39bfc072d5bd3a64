//! The machine's four optional subsystems — event tracing, message-lifecycle
//! observability, end-to-end delivery (here always over a fault-wrapped
//! fabric) and the in-network collective engine — are each an `Option` the
//! one stepping body reads at its use sites. This property runs every one
//! of their sixteen combinations on a 2×2 mesh where a corner-to-corner
//! remote read runs beside an all-node reduction, and requires:
//!
//! * the optimised machine and the reference mode
//!   ([`Machine::set_reference`]) agree on every surface, the serialized
//!   `tcni-trace/1` report included once the scan-effort meters (which
//!   must conserve work) are blanked;
//! * turning trace or observability on changes no cycle count, network,
//!   delivery or collective counter, and no register;
//! * collective plumbing never reaches the program-traffic streams: no
//!   trace event carries a [`MsgType::COLLECTIVE`] message, and the spans
//!   account for exactly the messages the programs sent.
//!
//! Every run checks [`Machine::check_invariants`] between chunks of cycles.
//!
//! [`Machine::set_reference`]: tcni::sim::Machine::set_reference
//! [`Machine::check_invariants`]: tcni::sim::Machine::check_invariants
//! [`MsgType::COLLECTIVE`]: tcni::isa::MsgType::COLLECTIVE

use tcni::core::{CollectiveOp, NodeId};
use tcni::eval::handlers::remote_read::{self, REMOTE_ADDR, RESULT_ADDR};
use tcni::isa::{MsgType, Reg};
use tcni::net::{CombiningTree, FabricConfig, FaultConfig, ScanStats};
use tcni::sim::{CollDone, DeliveryConfig, Machine, MachineBuilder, Model, RunOutcome, TraceEvent};
use tcni_check::check;

const SECRET: u32 = 0xFEED_0042;
const BUDGET: u64 = 40_000;
const CHUNK: u64 = 500;

/// One point of the sixteen-way subsystem matrix.
#[derive(Debug, Clone, Copy)]
struct Subsystems {
    trace: bool,
    obs: bool,
    /// The delivery protocol over a fault-wrapped fabric.
    e2e: bool,
    coll: bool,
}

impl Subsystems {
    fn all() -> impl Iterator<Item = Subsystems> {
        (0..16u8).map(|b| Subsystems {
            trace: b & 1 != 0,
            obs: b & 2 != 0,
            e2e: b & 4 != 0,
            coll: b & 8 != 0,
        })
    }
}

/// What a case draws: the §4 model and the fault schedule.
struct Case {
    model: Model,
    fault: (u64, u32),
}

/// The value node `i` contributes to the reduction.
fn contribution(i: usize) -> u32 {
    7 * i as u32 + 1
}

fn build(case: &Case, sub: Subsystems, reference: bool) -> Machine {
    let model = case.model;
    let mut b = MachineBuilder::new(4)
        .model(model)
        .program(
            0,
            remote_read::requester(model, NodeId::new(0), NodeId::new(3)),
        )
        .program(3, remote_read::server(model))
        .network_fabric(FabricConfig::new(2, 2));
    if sub.e2e {
        let (seed, rate_pm) = case.fault;
        b = b
            .network_fault(FaultConfig::uniform(seed, rate_pm))
            .delivery(DeliveryConfig {
                window: 4,
                timeout: 24,
                retransmit_limit: 10_000,
            });
    }
    if sub.coll {
        b = b.collective(CombiningTree::mesh(2, 2, 2));
    }
    let mut m = b.build();
    // Capacities large enough that nothing is evicted, so the span count
    // below is exact.
    if sub.trace {
        m.enable_trace(1 << 12);
    }
    if sub.obs {
        m.enable_obs(1 << 12);
    }
    m.set_reference(reference);
    m.node_mut(3).mem_mut().poke(REMOTE_ADDR, SECRET);
    if sub.coll {
        for i in 0..4 {
            m.coll_start(i, CollectiveOp::Sum, contribution(i))
                .expect("fresh slot");
        }
    }
    m
}

/// Runs `m` for the budget in chunks, checking the machine's invariants
/// after each.
fn run_checked(m: &mut Machine, ctx: &str) -> RunOutcome {
    let mut outcome = RunOutcome::CycleLimit;
    while m.cycle() < BUDGET && outcome == RunOutcome::CycleLimit {
        outcome = m.run(CHUNK);
        if let Err(e) = m.check_invariants() {
            panic!("{ctx}: invariant broken at cycle {}: {e}", m.cycle());
        }
    }
    outcome
}

/// Every simulated surface the subsystems must leave untouched (the
/// collective mailboxes are compared by the caller, which drains them).
fn assert_same_simulation(a: &Machine, b: &Machine, ctx: &str) {
    assert_eq!(a.cycle(), b.cycle(), "{ctx} machine cycle");
    assert_eq!(a.net_stats(), b.net_stats(), "{ctx} network stats");
    assert_eq!(
        a.delivery_stats(),
        b.delivery_stats(),
        "{ctx} delivery stats"
    );
    assert_eq!(
        a.collective_stats(),
        b.collective_stats(),
        "{ctx} collective stats"
    );
    for i in 0..4 {
        let (x, y) = (a.node(i), b.node(i));
        assert_eq!(x.cpu().cycle(), y.cpu().cycle(), "{ctx} node {i} cycles");
        assert_eq!(x.cpu().stats(), y.cpu().stats(), "{ctx} node {i} stats");
        for r in Reg::ALL {
            assert_eq!(x.cpu().reg(r), y.cpu().reg(r), "{ctx} node {i} reg {r}");
        }
    }
}

/// Drains every node's collective mailbox.
fn completions(m: &mut Machine) -> Vec<Option<CollDone>> {
    (0..4).map(|i| m.node_mut(i).coll_take_done()).collect()
}

#[test]
fn every_subsystem_combination_is_invisible_and_matches_the_reference() {
    check(
        "every_subsystem_combination_is_invisible_and_matches_the_reference",
        16,
        |rng| {
            let case = Case {
                model: *rng.pick(&Model::ALL_SIX),
                fault: (rng.u64(), rng.range(20, 80) as u32),
            };
            for sub in Subsystems::all() {
                let ctx = format!("{} fault={:?} {sub:?}", case.model, case.fault);
                let mut opt = build(&case, sub, false);
                let mut reference = build(&case, sub, true);
                let oo = run_checked(&mut opt, &ctx);
                let or = run_checked(&mut reference, &ctx);
                assert_eq!(oo, or, "{ctx} outcome");
                for m in [&opt, &reference] {
                    let got = m.node(0).mem().peek(RESULT_ADDR);
                    assert_eq!(got, SECRET, "{ctx} the requester read the remote word");
                }

                if sub.trace {
                    let (to, tr) = (opt.trace().unwrap(), reference.trace().unwrap());
                    assert_eq!(to.dropped(), 0, "{ctx} trace capacity");
                    assert!(to.events().eq(tr.events()), "{ctx} trace events");
                    let collective = to.events().find(|e| match e {
                        TraceEvent::Sent { msg, .. } | TraceEvent::Delivered { msg, .. } => {
                            msg.mtype == MsgType::COLLECTIVE
                        }
                        _ => false,
                    });
                    assert!(collective.is_none(), "{ctx} traced {collective:?}");
                }
                if sub.obs {
                    let (mut ro, mut rr) =
                        (opt.obs_report().unwrap(), reference.obs_report().unwrap());
                    let (so, sr) = (ro.net.scan, rr.net.scan);
                    assert_eq!(sr.skipped_work, 0, "{ctx} the reference skips nothing");
                    assert_eq!(
                        so.scanned_channels + so.scanned_flows + so.skipped_work,
                        sr.scanned_channels + sr.scanned_flows,
                        "{ctx} optimised scanned + skipped must equal the reference's scanned"
                    );
                    ro.net.scan = ScanStats::default();
                    rr.net.scan = ScanStats::default();
                    assert_eq!(ro.to_json(), rr.to_json(), "{ctx} tcni-trace/1 report");

                    // One span per program message, complete or open:
                    // collective traffic never takes a sequence number.
                    let obs = opt.obs().unwrap();
                    let spans = obs.spans().len() as u64 + obs.spans_dropped() + obs.spans_open();
                    let sent: u64 = opt.nodes().iter().map(|n| n.ni().stats().sends).sum();
                    assert_eq!(spans, sent, "{ctx} spans vs program sends");
                }
                assert_same_simulation(&opt, &reference, &ctx);
                let done = completions(&mut opt);
                assert_eq!(done, completions(&mut reference), "{ctx} completions");

                if sub.trace || sub.obs {
                    let plain_sub = Subsystems {
                        trace: false,
                        obs: false,
                        ..sub
                    };
                    let mut plain = build(&case, plain_sub, false);
                    run_checked(&mut plain, &ctx);
                    let ctx = format!("{ctx} vs uninstrumented");
                    assert_same_simulation(&plain, &opt, &ctx);
                    assert_eq!(completions(&mut plain), done, "{ctx} completions");
                }
                let sum: u32 = (0..4).map(contribution).sum();
                for (i, d) in done.iter().enumerate() {
                    assert_eq!(
                        d.map(|d| d.value),
                        sub.coll.then_some(sum),
                        "{ctx} node {i} reduction"
                    );
                }
            }
        },
    );
}
