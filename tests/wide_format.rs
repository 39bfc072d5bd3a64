//! Wide wire-format integration tests: the versioned header past the
//! compact format's 256-node ceiling.
//!
//! * **Round trips** — randomized destinations needing 9–16 address bits
//!   survive the wide word layout (encode, decode, `Message` construction)
//!   with the payload bits untouched.
//! * **Compact is byte-frozen** — the default constructors still produce
//!   the paper's exact 8-bit layout; the versioning must be invisible to
//!   every compact-format machine (the golden-artifact layer pins the same
//!   property on the paper artifacts).
//! * **64×64 end to end** — a 4096-node mesh machine completes a loadgen
//!   sweep bit-identically across the hot-set/dense scan pair and worker
//!   counts, and the delivery protocol carries flows across >8-bit node
//!   distances under fault injection, exactly once and in order.

use std::collections::VecDeque;

use tcni::core::{InterfaceReg, Message, MsgType, NodeId, SendMode, WireFormat};
use tcni::net::{FabricConfig, FaultConfig};
use tcni::sim::{CycleDriver, DeliveryConfig, Machine, MachineBuilder, Model, Node, RunOutcome};
use tcni::workload::{InjectCounters, Injector, InjectorConfig, LoopMode, Pattern, Topology};
use tcni_check::check;

/// Randomized 9–16-bit destinations round-trip through the wide layout:
/// the id comes back out of the word, the message decodes its own format,
/// and the payload bits under the address field are untouched.
#[test]
fn wide_destinations_round_trip_through_message_words() {
    check(
        "wide_destinations_round_trip_through_message_words",
        512,
        |rng| {
            let bits = 9 + rng.below(8) as u32; // 9..=16: past the compact field
            let index = (1usize << (bits - 1)) + rng.below(1 << (bits - 1)) as usize;
            let id = NodeId::from_index(index);
            let payload = rng.u32() & WireFormat::Wide.payload_mask();

            let w0 = id.into_word_bits(WireFormat::Wide) | payload;
            assert_eq!(NodeId::from_word(w0, WireFormat::Wide), id, "{bits} bits");
            assert_eq!(w0 & WireFormat::Wide.payload_mask(), payload);

            let mtype = MsgType::new((rng.below(16)) as u8).unwrap();
            let m = Message::to_in(WireFormat::Wide, id, [payload, rng.u32(), 0, 0, 0], mtype);
            assert_eq!(m.dest(), id, "message decodes with its own format");
            assert_eq!(m.words[0], w0, "payload bits survive under the address");
        },
    );
}

/// The compact format is the paper's byte layout, bit for bit: destination
/// in the high 8 bits, and the format-agnostic default constructors are
/// byte-identical to an explicit compact request.
#[test]
fn compact_layout_is_byte_frozen() {
    check("compact_layout_is_byte_frozen", 256, |rng| {
        let id = NodeId::from_index(rng.below(256) as usize);
        assert_eq!(
            id.into_word_bits(WireFormat::Compact),
            (id.index() as u32) << 24,
            "compact keeps the destination in the high 8 bits"
        );
        let words = [rng.u32(), rng.u32(), rng.u32(), rng.u32(), rng.u32()];
        let mtype = MsgType::new(rng.below(16) as u8).unwrap();
        let default = Message::to(id, words, mtype);
        let explicit = Message::to_in(WireFormat::Compact, id, words, mtype);
        assert_eq!(default.words, explicit.words);
        assert_eq!(default.dest(), explicit.dest());
    });
}

/// Auto-selection picks the smallest format that fits, and the machine
/// reports it: 256 nodes stay compact, 257 go wide.
#[test]
fn builders_select_the_smallest_fitting_format() {
    assert_eq!(WireFormat::for_nodes(1), Some(WireFormat::Compact));
    assert_eq!(WireFormat::for_nodes(256), Some(WireFormat::Compact));
    assert_eq!(WireFormat::for_nodes(257), Some(WireFormat::Wide));
    assert_eq!(WireFormat::for_nodes(65_536), Some(WireFormat::Wide));
    assert_eq!(WireFormat::for_nodes(65_537), None);
}

/// Builds a 64×64 mesh machine (wide format by construction) and runs a
/// uniform open-loop sweep over it.
fn run_64x64_sweep(dense: bool, par: usize, cycles: u64) -> (Machine, InjectCounters) {
    let side = 64usize;
    let mut machine = MachineBuilder::new(side * side)
        .model(Model::ALL_SIX[0])
        .network_fabric(FabricConfig::new(side, side))
        .build();
    assert_eq!(machine.wire_format(), WireFormat::Wide);
    machine.set_reference(dense);
    machine.set_par_threads(par);
    let mut config = InjectorConfig::new(
        Pattern::Uniform,
        Topology::new(side, side),
        LoopMode::Open { rate_pm: 5 },
    );
    config.format = machine.wire_format();
    let mut injector = Injector::new(config);
    let outcome = machine.run_driven(&mut injector, cycles);
    assert_eq!(outcome, RunOutcome::CycleLimit);
    (machine, injector.counters())
}

/// The 64×64 sweep is bit-identical across the hot-set/dense scan pair and
/// across worker counts: same injector counters, same network statistics
/// (`NetStats` equality deliberately ignores the scan-effort meters, which
/// are the one legitimate difference).
#[test]
fn wide_mesh_sweep_is_bit_identical_across_scan_and_threads() {
    let cycles = 600;
    let (m_base, c_base) = run_64x64_sweep(false, 1, cycles);
    for (dense, par, ctx) in [
        (true, 1, "dense serial"),
        (false, 2, "hot-set par2"),
        (false, 4, "hot-set par4"),
    ] {
        let (m, c) = run_64x64_sweep(dense, par, cycles);
        assert_eq!(c, c_base, "{ctx}: injector counters");
        assert_eq!(m.cycle(), m_base.cycle(), "{ctx}: machine cycle");
        assert_eq!(m.net_stats(), m_base.net_stats(), "{ctx}: network stats");
    }
    assert!(
        c_base.issued > 0 && m_base.net_stats().delivered > 0,
        "the sweep must actually move traffic"
    );
    assert_eq!(m_base.net_stats().bad_dest, 0, "wide ids must route");
}

/// One directed flow at 64×64 scale: `src` sends `per_flow` sequenced
/// messages to `dst`; both indices may need more than 8 bits.
struct WidePair {
    src: usize,
    dst: usize,
    pending: VecDeque<u32>,
    received: Vec<u32>,
}

/// Drives a handful of (src, dst) flows across a wide machine through the
/// architected interface, receive side first, and records arrival order.
struct WideRecorder {
    pairs: Vec<WidePair>,
    format: WireFormat,
    mtype: MsgType,
}

impl WideRecorder {
    fn new(pairs: &[(usize, usize)], per_flow: u32, format: WireFormat) -> WideRecorder {
        WideRecorder {
            pairs: pairs
                .iter()
                .map(|&(src, dst)| WidePair {
                    src,
                    dst,
                    pending: (0..per_flow).collect(),
                    received: Vec::new(),
                })
                .collect(),
            format,
            mtype: MsgType::new(2).expect("type 2 is a plain message type"),
        }
    }

    fn complete(&self, per_flow: u32) -> bool {
        self.pairs
            .iter()
            .all(|p| p.received.len() as u32 >= per_flow)
    }
}

impl CycleDriver for WideRecorder {
    fn on_cycle(&mut self, _cycle: u64, nodes: &mut [Node]) -> bool {
        for (idx, pair) in self.pairs.iter_mut().enumerate() {
            let ni = nodes[pair.dst].ni_mut();
            while ni.msg_valid() {
                let w1 = ni.read_reg(InterfaceReg::I1).expect("I1 readable");
                ni.next();
                assert_eq!((w1 >> 16) as usize, idx, "flow tag routes to its pair");
                pair.received.push(w1 & 0xFFFF);
            }
            let ni = nodes[pair.src].ni_mut();
            if let Some(&seq) = pair.pending.front() {
                if ni.send_would_stall() {
                    continue; // interface (or delivery-window) backpressure
                }
                let dest = NodeId::from_index(pair.dst);
                ni.write_reg(InterfaceReg::O0, dest.into_word_bits(self.format))
                    .expect("O0 writable");
                ni.write_reg(InterfaceReg::O1, ((idx as u32) << 16) | seq)
                    .expect("O1 writable");
                ni.send(SendMode::Send, self.mtype).expect("send accepted");
                pair.pending.pop_front();
            }
        }
        true
    }
}

/// The delivery protocol at 64×64: flows whose source and destination both
/// need more than 8 address bits survive drop/duplicate/corrupt faults
/// exactly once and in order — the wide `E2eHeader.src` (data stamps and
/// ack attribution) end to end, with no truncated-id aliasing possible.
#[test]
fn wide_delivery_is_exactly_once_in_order_under_faults() {
    let side = 64usize;
    let per_flow = 10u32;
    // Disjoint node sets; every index on at least one side is >255.
    let pairs = [(0usize, 4095usize), (17, 300), (4094, 1), (600, 2600)];
    let mut machine = MachineBuilder::new(side * side)
        .network_fabric(FabricConfig::new(side, side))
        .network_fault(FaultConfig::uniform(0x57AB, 60))
        .delivery(DeliveryConfig {
            window: 4,
            timeout: 2048,
            retransmit_limit: 10_000,
        })
        .build();
    assert_eq!(machine.wire_format(), WireFormat::Wide);
    let mut recorder = WideRecorder::new(&pairs, per_flow, machine.wire_format());

    let (chunk, budget) = (4_000u64, 400_000u64);
    let mut spent = 0;
    while !recorder.complete(per_flow) {
        assert!(spent < budget, "flows incomplete after {spent} cycles");
        machine.run_driven(&mut recorder, chunk);
        spent += chunk;
    }

    let expect: Vec<u32> = (0..per_flow).collect();
    for (pair, &(src, dst)) in recorder.pairs.iter().zip(&pairs) {
        assert_eq!(
            pair.received, expect,
            "flow {src}->{dst} must arrive exactly once, in order"
        );
    }
    let total = u64::from(per_flow) * pairs.len() as u64;
    let del = machine.delivery_stats().expect("protocol enabled");
    assert_eq!(del.accepted, total, "sends committed");
    assert_eq!(del.delivered_unique, total, "unique deliveries");
    assert_eq!(del.abandoned, 0, "no flow may abandon its window");
}
