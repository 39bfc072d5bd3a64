//! Randomized equivalence tests for the quiescence fast-forward: a machine
//! run with the fast-forward armed (the default) must be *bit-identical* —
//! registers, memory, per-node cycle counts, statistics, network counters,
//! outcome — to the naive one-cycle-at-a-time loop of the reference mode
//! ([`Machine::set_reference`]). Only the scan-effort meters may differ, and
//! they must conserve work: the optimised machine's scanned + skipped equals
//! the reference machine's scanned. The workloads are chosen to drive each of
//! the fast-forward's three paths:
//!
//! * the **ideal jump** (a predictive fabric fast-forwards straight to the
//!   next arrival) — a SCROLL consumer stalled on a flit that is still
//!   crossing a high-latency ideal network;
//! * the **network-only loop** (an unpredictable fabric is ticked without
//!   stepping stalled processors) — a producer wedged against a clogged
//!   mesh;
//! * the **deadlock burn** (nothing in flight, nothing outgoing, every
//!   running processor stalled forever) — a consumer waiting for a flit that
//!   was never sent.

use tcni_check::check;
use tcni_core::mapping::{
    cmd_addr, gpr_alias, reg_addr, scroll_in_addr, scroll_out_addr, NI_WINDOW_BASE,
};
use tcni_core::{FeatureLevel, InterfaceReg, MsgType, NiCmd, NodeId, WireFormat};
use tcni_isa::{Assembler, Program, Reg};
use tcni_net::{FabricConfig, ScanStats};
use tcni_sim::{Machine, MachineBuilder, Model, NiMapping, RunOutcome};

const TABLE_MODEL: Model = Model {
    mapping: NiMapping::OnChipCache,
    level: FeatureLevel::Optimized,
};
const LONG_TYPE: u8 = 6;
const SINK: i16 = 0x200;

fn ty(n: u8) -> MsgType {
    MsgType::new(n).unwrap()
}

fn off(addr: u32) -> i16 {
    (addr - NI_WINDOW_BASE) as i16
}

/// The scan-effort meters of an optimised run against its reference run:
/// the reference visits every channel and flow, so it skips nothing, and
/// the optimised run accounts for the same total work.
fn assert_scan_conserved(fast: ScanStats, slow: ScanStats, ctx: &str) {
    assert_eq!(slow.skipped_work, 0, "{ctx}: the reference skips nothing");
    assert_eq!(
        fast.scanned_channels + fast.scanned_flows + fast.skipped_work,
        slow.scanned_channels + slow.scanned_flows,
        "{ctx}: optimised scanned + skipped must equal the reference's scanned"
    );
}

/// Runs the same machine with the fast-forward and in the reference mode
/// and asserts every piece of observable state is identical. The pair is
/// then re-run with tracing and message-lifecycle observability enabled:
/// instrumentation must neither perturb the simulation nor diverge under
/// the skip paths — trace events, ring-buffer dropped counts, and the
/// `tcni-trace/1` report (scan meters aside, which must conserve work) are
/// all bit-identical. Returns the fast machine (for workload-specific
/// assertions) and the outcome.
fn assert_equivalent(build: &dyn Fn() -> Machine, budget: u64) -> (Machine, RunOutcome) {
    let mut fast = build();
    let mut slow = build();
    slow.set_reference(true);
    let of = fast.run(budget);
    let os = slow.run(budget);
    assert_eq!(of, os, "outcome");
    assert_eq!(fast.cycle(), slow.cycle(), "machine cycle");
    assert_eq!(fast.net_stats(), slow.net_stats(), "network statistics");
    assert_eq!(fast.net_in_flight(), slow.net_in_flight(), "in flight");
    assert_eq!(fast.is_quiescent(), slow.is_quiescent());
    assert_eq!(slow.skipped_cycles(), 0, "naive loop never skips");
    assert_scan_conserved(
        fast.net_stats().scan,
        slow.net_stats().scan,
        "uninstrumented",
    );
    for i in 0..fast.node_count() {
        let (f, s) = (fast.node(i), slow.node(i));
        assert_eq!(f.cpu().cycle(), s.cpu().cycle(), "node {i} cpu cycle");
        assert_eq!(f.cpu().stats(), s.cpu().stats(), "node {i} cpu stats");
        for r in Reg::ALL {
            assert_eq!(f.cpu().reg(r), s.cpu().reg(r), "node {i} register {r}");
        }
    }

    // Same pair, instrumented. The small ring capacities force wraparound on
    // the longer workloads so the dropped counters are exercised too.
    let mut obs_fast = build();
    let mut obs_slow = build();
    obs_slow.set_reference(true);
    for machine in [&mut obs_fast, &mut obs_slow] {
        machine.enable_trace(64);
        machine.enable_obs(64);
    }
    assert_eq!(obs_fast.run(budget), of, "instrumented fast outcome");
    assert_eq!(obs_slow.run(budget), os, "instrumented slow outcome");
    assert_eq!(
        obs_fast.cycle(),
        fast.cycle(),
        "instrumentation changed timing"
    );
    assert_eq!(
        obs_fast.net_stats(),
        fast.net_stats(),
        "instrumentation changed network statistics"
    );
    let (tf, ts) = (obs_fast.trace().unwrap(), obs_slow.trace().unwrap());
    assert_eq!(
        tf.dropped(),
        ts.dropped(),
        "trace dropped count under fast-forward"
    );
    assert!(
        tf.events().eq(ts.events()),
        "trace events under fast-forward"
    );
    // The serialized report carries the scan meters, which differ by
    // design against the reference; check that they conserve work, blank
    // them on both sides, and demand byte-identity of everything else.
    let (mut rf, mut rs) = (
        obs_fast.obs_report().unwrap(),
        obs_slow.obs_report().unwrap(),
    );
    assert_scan_conserved(rf.net.scan, rs.net.scan, "instrumented");
    rf.net.scan = ScanStats::default();
    rs.net.scan = ScanStats::default();
    assert_eq!(
        rf.to_json(),
        rs.to_json(),
        "tcni-trace/1 report under fast-forward"
    );
    (fast, of)
}

/// Sender: `flits` five-word flits to node 1 (SCROLL-OUT, final flit SEND),
/// with `delay` cycles of busy-work before each continuation flit, then halt.
fn scroll_sender(flits: u32, delay: usize) -> Program {
    assert!(flits >= 1);
    let mut a = Assembler::new();
    a.li(Reg::R9, NI_WINDOW_BASE);
    for flit in 0..flits {
        for _ in 0..(if flit > 0 { delay } else { 0 }) {
            a.nop();
        }
        for lane in 0..5u32 {
            let value = 100 * flit + lane;
            let value = if flit == 0 && lane == 0 {
                NodeId::new(1).into_word_bits(WireFormat::Compact) | value
            } else {
                value
            };
            a.li(Reg::R2, value);
            let reg = InterfaceReg::output(lane as usize);
            if lane == 4 {
                let addr = if flit + 1 < flits {
                    scroll_out_addr(Some(reg), ty(LONG_TYPE))
                } else {
                    cmd_addr(reg, NiCmd::send(ty(LONG_TYPE)))
                };
                a.st(Reg::R2, Reg::R9, off(addr));
            } else {
                a.st(Reg::R2, Reg::R9, off(reg_addr(reg)));
            }
        }
    }
    a.halt();
    a.assemble().expect("sender assembles")
}

/// Receiver: dispatches on the long-message type, then reads `flits`
/// five-word windows into memory at [`SINK`]. SCROLL-IN with the
/// continuation flit still in flight stalls, which is exactly what the
/// fast-forward accelerates.
fn scroll_receiver(flits: i16) -> Program {
    const TABLE: u32 = 0x4000;
    let mut a = Assembler::new();
    a.li(Reg::R9, NI_WINDOW_BASE);
    a.li(Reg::R2, TABLE);
    a.st(Reg::R2, Reg::R9, off(reg_addr(InterfaceReg::IpBase)));
    a.label("dispatch");
    a.ld(Reg::R3, Reg::R9, off(reg_addr(InterfaceReg::MsgIp)));
    a.jmp(Reg::R3);
    a.nop();
    a.br("dispatch");
    a.nop();
    a.org(TABLE); // idle slot: no message yet
    a.br("dispatch");
    a.nop();
    a.org(TABLE + u32::from(LONG_TYPE) * 16);
    for flit in 0..flits {
        for lane in 0..5i16 {
            let reg = InterfaceReg::input(lane as usize);
            if lane == 4 {
                let addr = if flit + 1 < flits {
                    scroll_in_addr(Some(reg))
                } else {
                    cmd_addr(reg, NiCmd::next())
                };
                a.ld(Reg::R4, Reg::R9, off(addr));
            } else {
                a.ld(Reg::R4, Reg::R9, off(reg_addr(reg)));
            }
            a.st(Reg::R4, Reg::R0, SINK + (flit * 5 + lane) * 4);
        }
    }
    a.halt();
    a.assemble().expect("receiver assembles")
}

/// The scroll pipeline under random sender delays and fabric latencies, on
/// both fabrics; every combination must quiesce identically optimised and in
/// the reference mode, and the sink memory must hold the streamed words.
#[test]
fn scroll_stream_is_equivalent_on_both_fabrics() {
    check("scroll_stream_is_equivalent_on_both_fabrics", 24, |rng| {
        let delay = rng.below(200) as usize;
        let latency = rng.below(1200);
        let mesh = rng.bool();
        let build = || {
            let b = MachineBuilder::new(2)
                .model(TABLE_MODEL)
                .program(0, scroll_sender(3, delay))
                .program(1, scroll_receiver(3));
            if mesh {
                b.network_fabric(FabricConfig::new(2, 1)).build()
            } else {
                b.network_ideal(latency).build()
            }
        };
        let (fast, outcome) = assert_equivalent(&build, 25_000);
        assert_eq!(
            outcome,
            RunOutcome::Quiescent,
            "delay {delay} latency {latency} mesh {mesh}"
        );
        for flit in 0..3u32 {
            for lane in 0..5u32 {
                let expect = if flit == 0 && lane == 0 {
                    NodeId::new(1).into_word_bits(WireFormat::Compact)
                } else {
                    100 * flit + lane
                };
                assert_eq!(
                    fast.node(1).mem().peek(0x200 + (flit * 5 + lane) * 4),
                    expect,
                    "flit {flit} lane {lane}"
                );
            }
        }
    });
}

/// Deterministic ideal-jump coverage: the sender parks a continuation flit in
/// a high-latency ideal network and halts while the consumer is stalled on
/// SCROLL-IN, so the only way forward is the arithmetic jump to the arrival.
#[test]
fn ideal_jump_skips_the_flight_time() {
    let build = || {
        MachineBuilder::new(2)
            .model(TABLE_MODEL)
            .program(0, scroll_sender(3, 400))
            .program(1, scroll_receiver(3))
            .network_ideal(1_000)
            .build()
    };
    let (fast, outcome) = assert_equivalent(&build, 25_000);
    assert_eq!(outcome, RunOutcome::Quiescent);
    assert!(
        fast.skipped_cycles() > 200,
        "the flight time must be jumped, not stepped: skipped {}",
        fast.skipped_cycles()
    );
    assert!(
        fast.node(1).cpu().stats().env_stalls > 200,
        "the bulk charge must land in the consumer's stall counter"
    );
}

/// A consumer stalled on a flit that was never sent: nothing in flight,
/// nothing outgoing, one processor wedged forever. The fast-forward must
/// burn the remaining budget in one step and charge it identically.
#[test]
fn abandoned_scroll_burns_to_the_limit() {
    check("abandoned_scroll_burns_to_the_limit", 16, |rng| {
        let latency = rng.below(60);
        let mesh = rng.bool();
        let budget = rng.range(2_000, 20_000);
        let build = || {
            let b = MachineBuilder::new(2)
                .model(TABLE_MODEL)
                // One SCROLL-OUT flit only: the receiver's second window
                // never arrives.
                .program(0, scroll_sender(1, 0))
                .program(1, scroll_receiver(3));
            if mesh {
                b.network_fabric(FabricConfig::new(2, 1)).build()
            } else {
                b.network_ideal(latency).build()
            }
        };
        let (fast, outcome) = assert_equivalent(&build, budget);
        assert_eq!(
            outcome,
            RunOutcome::CycleLimit,
            "latency {latency} mesh {mesh}"
        );
        assert!(
            fast.skipped_cycles() > budget / 2,
            "most of the budget must be burned, not stepped: {} of {budget}",
            fast.skipped_cycles()
        );
    });
}

/// A producer wedged against a clogged mesh (the receiver halts immediately
/// and its input queue fills): the mesh cannot predict arrivals, so the
/// fast-forward falls back to network-only cycles. Injection-refusal and
/// blocked-hop counters must match the naive loop exactly.
#[test]
fn clogged_mesh_network_only_loop_is_equivalent() {
    check("clogged_mesh_network_only_loop_is_equivalent", 16, |rng| {
        let input_cap = rng.range(1, 6) as usize;
        let output_cap = rng.range(1, 4) as usize;
        let budget = rng.range(1_000, 10_000);
        let o0 = gpr_alias(InterfaceReg::O0);
        let o1 = gpr_alias(InterfaceReg::O1);
        let mut a = Assembler::new();
        a.li(Reg::R3, NodeId::new(1).into_word_bits(WireFormat::Compact));
        a.label("loop");
        a.mov(o0, Reg::R3);
        a.mov_ni(o1, Reg::R2, NiCmd::send(ty(2)));
        a.br("loop");
        a.nop();
        let producer = a.assemble().expect("producer assembles");
        let build = || {
            MachineBuilder::new(2)
                .model(Model::new(NiMapping::RegisterFile, FeatureLevel::Optimized))
                .ni_queues(input_cap, output_cap)
                .program(0, producer.clone())
                .network_fabric(FabricConfig::new(2, 1))
                .build()
        };
        let (fast, outcome) = assert_equivalent(&build, budget);
        assert_eq!(outcome, RunOutcome::CycleLimit);
        assert!(
            fast.skipped_cycles() > 0,
            "the wedged phase must fast-forward"
        );
        assert!(
            fast.node(0).cpu().stats().env_stalls > 0,
            "the producer must have stalled on the full queue"
        );
    });
}
