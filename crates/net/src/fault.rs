//! Deterministic fault injection over an existing fabric.
//!
//! The paper's protocol machinery (§3.4) assumes a reliable network; real
//! fabrics stall, drop, duplicate, and corrupt. [`FaultyFabric`] wraps either
//! base fabric (via [`NetworkKind`]) and applies a seeded SplitMix64 fault
//! schedule at the injection and ejection boundaries:
//!
//! * **drop** — an accepted injection is silently discarded: the sender
//!   believes it was sent, the fabric never carries it;
//! * **duplicate** — an accepted injection is followed by a second identical
//!   copy (point-to-point ordering of the base fabric keeps it adjacent);
//! * **corrupt** — one bit of `m1..m4` flips before injection (`m0`, and with
//!   it the architected destination, is spared: corruption models data-word
//!   errors, not misrouting);
//! * **stall** — a node's inject or eject port goes dark for a configured
//!   number of cycles (injections are refused like congestion; deliverable
//!   messages stay hidden in the fabric).
//!
//! Every decision comes from private per-node SplitMix64 streams — one
//! per-message stream per inject port, one per-port stream per node for the
//! stall schedule — so a schedule is a pure function of the seed and each
//! node's own call sequence: two same-seed runs fault identically, and the
//! draws of one node never depend on how much traffic *other* nodes
//! offered. That independence is what lets the machine simulator shard a
//! fault-wrapped fabric across worker threads ([`FaultRange`]) and still
//! reproduce the serial schedule bit for bit. All rates are per-mille; a
//! zero-rate wrapper is an observably exact pass-through (tested below),
//! which is what lets the fault-free paper models stay bit-identical.

use tcni_check::Rng;
use tcni_core::{Message, NodeId, MSG_WORDS};

use crate::stats::NetStats;
use crate::{FabricRange, FabricRangeDelta, FabricTickScratch, InjectError, Network, NetworkKind};

/// Per-mille fault rates plus the schedule seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultConfig {
    /// Seed of the fault schedule (two same-seed schedules are identical).
    pub seed: u64,
    /// Per-mille probability an accepted injection is dropped.
    pub drop_pm: u32,
    /// Per-mille probability an accepted injection is duplicated.
    pub duplicate_pm: u32,
    /// Per-mille probability an accepted injection has a payload bit flipped.
    pub corrupt_pm: u32,
    /// Per-mille probability, per node port per cycle, of a transient stall.
    pub stall_pm: u32,
    /// Length of one stall, in cycles.
    pub stall_len: u64,
}

impl FaultConfig {
    /// A schedule with every rate zero: the wrapper is a pass-through.
    pub fn quiet(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            drop_pm: 0,
            duplicate_pm: 0,
            corrupt_pm: 0,
            stall_pm: 0,
            stall_len: 8,
        }
    }

    /// All four fault kinds at the same per-mille rate (the `loadgen`
    /// fault-axis profile), 8-cycle stalls.
    pub fn uniform(seed: u64, rate_pm: u32) -> FaultConfig {
        FaultConfig {
            drop_pm: rate_pm,
            duplicate_pm: rate_pm,
            corrupt_pm: rate_pm,
            stall_pm: rate_pm,
            ..FaultConfig::quiet(seed)
        }
    }

    /// Whether any fault kind has a nonzero rate.
    pub fn is_active(&self) -> bool {
        self.drop_pm > 0 || self.duplicate_pm > 0 || self.corrupt_pm > 0 || self.stall_pm > 0
    }
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig::quiet(0)
    }
}

fn hit(rng: &mut Rng, rate_pm: u32) -> bool {
    rate_pm > 0 && rng.below(1000) < u64::from(rate_pm)
}

/// Salt separating the stall-schedule streams from the per-message streams.
const PORT_SALT: u64 = 0x5DEE_CE66_D1CE_1ABD;

/// Derives node `i`'s private stream seed (the same per-node splitting the
/// workload injectors use).
fn stream_seed(seed: u64, i: usize) -> u64 {
    seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A fault-injecting wrapper around a base fabric. See the module docs for
/// the fault model; construct with [`FaultyFabric::new`] and drive through
/// the ordinary [`Network`] trait (usually as a [`NetworkKind::Faulty`]).
pub struct FaultyFabric {
    inner: Box<NetworkKind>,
    config: FaultConfig,
    /// Per-inject-port streams deciding the fate of each offered message.
    msg_rng: Vec<Rng>,
    /// Per-node streams scheduling port stalls (separate streams: the stall
    /// schedule does not depend on how much traffic was offered).
    port_rng: Vec<Rng>,
    /// Fabric time, counted in [`tick`](Network::tick)s.
    now: u64,
    /// Per-node cycle (exclusive) until which the inject port is stalled.
    inject_stall: Vec<u64>,
    /// Per-node cycle (exclusive) until which the eject port is stalled.
    eject_stall: Vec<u64>,
    counters: crate::FaultCounters,
    /// Injections refused because the inject port was stalled (folded into
    /// `NetStats::inject_refusals`: a stall is a retryable refusal).
    stall_refusals: u64,
}

impl FaultyFabric {
    /// Wraps `inner` with the given fault schedule.
    ///
    /// # Panics
    ///
    /// Panics if `inner` is itself a faulty fabric (one fault layer models
    /// the physical links; stacking them has no meaning).
    pub fn new(inner: NetworkKind, config: FaultConfig) -> FaultyFabric {
        assert!(
            !matches!(inner, NetworkKind::Faulty(_)),
            "fault layers do not nest"
        );
        let nodes = inner.node_count();
        FaultyFabric {
            inner: Box::new(inner),
            config,
            msg_rng: (0..nodes)
                .map(|i| Rng::new(stream_seed(config.seed, i)))
                .collect(),
            port_rng: (0..nodes)
                .map(|i| Rng::new(stream_seed(config.seed ^ PORT_SALT, i)))
                .collect(),
            now: 0,
            inject_stall: vec![0; nodes],
            eject_stall: vec![0; nodes],
            counters: crate::FaultCounters::default(),
            stall_refusals: 0,
        }
    }

    /// The wrapped base fabric.
    pub fn inner(&self) -> &NetworkKind {
        &self.inner
    }

    /// Mutable access to the wrapped base fabric (used to toggle per-link
    /// observability on a wrapped fabric).
    pub fn inner_mut(&mut self) -> &mut NetworkKind {
        &mut self.inner
    }

    /// The fault schedule.
    pub fn config(&self) -> FaultConfig {
        self.config
    }

    /// Fault tallies so far (also surfaced via [`NetStats::faults`]).
    pub fn counters(&self) -> crate::FaultCounters {
        self.counters
    }

    /// Rolls the per-node stall schedule forward one cycle. Two draws per
    /// node per cycle (inject port, eject port), unconditionally: the draw
    /// count never depends on outcomes, so the schedule is a pure function
    /// of the seed and the cycle number.
    fn roll_stalls(&mut self) {
        if self.config.stall_pm == 0 {
            return;
        }
        for i in 0..self.inject_stall.len() {
            let rng = &mut self.port_rng[i];
            if hit(rng, self.config.stall_pm) {
                if self.now >= self.inject_stall[i] {
                    self.counters.stalls += 1;
                }
                self.inject_stall[i] = self.now + self.config.stall_len;
            }
            if hit(rng, self.config.stall_pm) {
                if self.now >= self.eject_stall[i] {
                    self.counters.stalls += 1;
                }
                self.eject_stall[i] = self.now + self.config.stall_len;
            }
        }
    }

    /// Splits a switched-fabric-based fault-wrapped network into per-domain
    /// injection/ejection views for the machine simulator's parallel cycle
    /// (the fault-layer analogue of [`Fabric::split_node_ranges`]). Each
    /// range gets exclusive access to its nodes' fabric channels *and* their
    /// private per-message fault streams; the stall tables are shared
    /// read-only (the stall schedule only advances at the tick barrier).
    /// Because every fault draw comes from the drawing node's own stream,
    /// per-domain draw interleavings reproduce the serial ascending-node
    /// schedule bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if the wrapped base fabric is not a switched fabric (i.e. it is ideal).
    pub fn split_fault_ranges(&mut self, bounds: &[usize]) -> Vec<FaultRange<'_>> {
        let FaultyFabric {
            inner,
            config,
            msg_rng,
            now,
            inject_stall,
            eject_stall,
            ..
        } = self;
        let fabric = inner
            .as_fabric_mut()
            .expect("fault ranges shard a switched base fabric");
        let mesh_ranges = fabric.split_node_ranges(bounds);
        let inject_stall: &[u64] = inject_stall;
        let eject_stall: &[u64] = eject_stall;
        let mut rngs: &mut [Rng] = msg_rng.as_mut_slice();
        let mut out = Vec::with_capacity(mesh_ranges.len());
        for (w, fabric) in bounds.windows(2).zip(mesh_ranges) {
            let (head, tail) = rngs.split_at_mut(w[1] - w[0]);
            rngs = tail;
            out.push(FaultRange {
                fabric,
                config: *config,
                now: *now,
                lo: w[0],
                msg_rng: head,
                inject_stall,
                eject_stall,
                delta: FaultRangeDelta::default(),
            });
        }
        out
    }

    /// Folds injection-phase range deltas back in, in domain order — the
    /// fault-layer analogue of [`Fabric::absorb_inject_deltas`].
    ///
    /// # Panics
    ///
    /// Panics if the wrapped base fabric is not a switched fabric (i.e. it is ideal).
    pub fn absorb_inject_deltas(&mut self, deltas: impl IntoIterator<Item = FaultRangeDelta>) {
        let FaultyFabric {
            inner,
            counters,
            stall_refusals,
            ..
        } = self;
        let fabric = inner
            .as_fabric_mut()
            .expect("fault ranges shard a switched base fabric");
        fabric.absorb_inject_deltas(deltas.into_iter().map(|d| {
            counters.dropped += d.counters.dropped;
            counters.duplicated += d.counters.duplicated;
            counters.corrupted += d.counters.corrupted;
            counters.stalls += d.counters.stalls;
            *stall_refusals += d.stall_refusals;
            d.fabric
        }));
    }

    /// Folds ejection-phase range deltas back in, in domain order.
    ///
    /// # Panics
    ///
    /// Panics if the wrapped base fabric is not a switched fabric (i.e. it is ideal).
    pub fn absorb_eject_deltas(&mut self, deltas: impl IntoIterator<Item = FaultRangeDelta>) {
        let fabric = self
            .inner
            .as_fabric_mut()
            .expect("fault ranges shard a switched base fabric");
        fabric.absorb_eject_deltas(deltas.into_iter().map(|d| {
            debug_assert!(!d.counters.any(), "eject-phase delta carries faults");
            debug_assert_eq!(d.stall_refusals, 0, "eject-phase delta carries refusals");
            d.fabric
        }));
    }

    /// Advances the wrapped fabric by one cycle with the domain-sharded tick,
    /// then rolls the stall schedule exactly as [`Network::tick`] would.
    ///
    /// # Panics
    ///
    /// Panics if the wrapped base fabric is not a switched fabric (i.e. it is ideal).
    pub fn tick_domains(&mut self, bounds: &[usize], scratch: &mut FabricTickScratch) {
        self.inner
            .as_fabric_mut()
            .expect("fault ranges shard a switched base fabric")
            .tick_domains(bounds, scratch);
        self.now += 1;
        self.roll_stalls();
    }
}

/// Applies one offered message's fault draws (drop → corrupt → duplicate,
/// fixed order) from the source node's private stream, then hands the
/// possibly-corrupted wire copy to `sink` — the one code path shared by the
/// serial [`Network::inject`] and the sharded [`FaultRange::inject`], so
/// the two cannot diverge.
fn faulted_inject(
    rng: &mut Rng,
    config: &FaultConfig,
    counters: &mut crate::FaultCounters,
    src: NodeId,
    msg: Message,
    mut sink: impl FnMut(NodeId, Message) -> Result<(), InjectError>,
) -> Result<(), InjectError> {
    let drop = hit(rng, config.drop_pm);
    let corrupt = hit(rng, config.corrupt_pm);
    let duplicate = hit(rng, config.duplicate_pm);
    if drop {
        // Accepted, then lost at the entry link. The sender's view is a
        // successful send; only `faults.dropped` knows better.
        counters.dropped += 1;
        return Ok(());
    }
    let mut wire = msg;
    if corrupt {
        let word = 1 + rng.index(MSG_WORDS - 1);
        let bit = rng.below(32) as u32;
        wire.words[word] ^= 1 << bit;
    }
    match sink(src, wire) {
        Ok(()) => {
            if corrupt {
                counters.corrupted += 1;
            }
            if duplicate {
                // A second copy rides right behind; losing it to a full
                // entry buffer is not a fault worth counting.
                if sink(src, wire).is_ok() {
                    counters.duplicated += 1;
                }
            }
            Ok(())
        }
        // Hand back the caller's original, not the corrupted copy.
        Err(InjectError::Refused(_)) => Err(InjectError::Refused(msg)),
        Err(InjectError::BadDest(_)) => Err(InjectError::BadDest(msg)),
        Err(InjectError::NotParticipant(_)) => {
            unreachable!("base fabrics do not emit NotParticipant")
        }
    }
}

/// Per-range fault effects buffered by [`FaultRange`] operations; opaque to
/// callers, who hand them back to the fabric's absorb methods.
#[derive(Default)]
pub struct FaultRangeDelta {
    fabric: FabricRangeDelta,
    counters: crate::FaultCounters,
    stall_refusals: u64,
}

/// Exclusive injection/ejection access to one spatial domain of a
/// fault-wrapped fabric, produced by [`FaultyFabric::split_fault_ranges`].
/// Mirrors the serial fault-layer [`Network`] entry points byte for byte:
/// same stall gates, same per-node draw streams, same drop/corrupt/
/// duplicate order — with shared-counter updates buffered into a
/// [`FaultRangeDelta`].
pub struct FaultRange<'a> {
    fabric: FabricRange<'a>,
    config: FaultConfig,
    now: u64,
    lo: usize,
    msg_rng: &'a mut [Rng],
    inject_stall: &'a [u64],
    eject_stall: &'a [u64],
    delta: FaultRangeDelta,
}

impl FaultRange<'_> {
    /// Number of nodes attached to the whole fabric (not just this range).
    pub fn node_count(&self) -> usize {
        self.fabric.node_count()
    }

    /// Offers a message for injection at `src` (a node of this range);
    /// identical semantics to the serial fault-layer [`Network::inject`].
    ///
    /// # Errors
    ///
    /// Exactly as the serial path: `Refused` on a stalled port or full
    /// entry buffer, `BadDest` for a destination outside the fabric.
    pub fn inject(&mut self, src: NodeId, msg: Message) -> Result<(), InjectError> {
        if self.now < self.inject_stall[src.index()] {
            self.delta.stall_refusals += 1;
            return Err(InjectError::Refused(msg));
        }
        if msg.dest().index() >= self.fabric.node_count() {
            return self.fabric.inject(src, msg);
        }
        let rng = &mut self.msg_rng[src.index() - self.lo];
        let fabric = &mut self.fabric;
        faulted_inject(
            rng,
            &self.config,
            &mut self.delta.counters,
            src,
            msg,
            |s, m| fabric.inject(s, m),
        )
    }

    /// The message ready for delivery at `dst` this cycle, if any; identical
    /// semantics to the serial fault-layer [`Network::peek_eject`].
    pub fn peek_eject(&self, dst: NodeId) -> Option<&Message> {
        if self.now < self.eject_stall[dst.index()] {
            return None;
        }
        self.fabric.peek_eject(dst)
    }

    /// The first node in `from..to` whose ejection channel may hold a
    /// message (a stalled eject port still hides it from
    /// [`peek_eject`](Self::peek_eject)).
    pub fn next_eject_ready(&self, from: usize, to: usize) -> Option<usize> {
        self.fabric.next_eject_ready(from, to)
    }

    /// Removes and returns the message ready at `dst`; identical semantics
    /// to the serial fault-layer [`Network::eject`].
    pub fn eject(&mut self, dst: NodeId) -> Option<Message> {
        if self.now < self.eject_stall[dst.index()] {
            return None;
        }
        self.fabric.eject(dst)
    }

    /// Consumes the range, releasing its borrows and yielding the buffered
    /// effects for the fabric's absorb methods.
    pub fn into_delta(mut self) -> FaultRangeDelta {
        self.delta.fabric = self.fabric.into_delta();
        self.delta
    }
}

impl Network for FaultyFabric {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn inject(&mut self, src: NodeId, msg: Message) -> Result<(), InjectError> {
        if self.now < self.inject_stall[src.index()] {
            self.stall_refusals += 1;
            return Err(InjectError::Refused(msg));
        }
        // Nonexistent destinations keep the base fabric's accounting:
        // `bad_dest` rejections are handed back, never faulted away.
        if msg.dest().index() >= self.inner.node_count() {
            return self.inner.inject(src, msg);
        }
        let FaultyFabric {
            inner,
            config,
            msg_rng,
            counters,
            ..
        } = self;
        faulted_inject(
            &mut msg_rng[src.index()],
            config,
            counters,
            src,
            msg,
            |s, m| inner.inject(s, m),
        )
    }

    fn peek_eject(&self, dst: NodeId) -> Option<&Message> {
        if self.now < self.eject_stall[dst.index()] {
            return None;
        }
        self.inner.peek_eject(dst)
    }

    fn eject(&mut self, dst: NodeId) -> Option<Message> {
        if self.now < self.eject_stall[dst.index()] {
            return None;
        }
        self.inner.eject(dst)
    }

    fn tick(&mut self) {
        self.inner.tick();
        self.now += 1;
        self.roll_stalls();
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }

    fn stats(&self) -> NetStats {
        let mut s = self.inner.stats();
        // Dropped messages were accepted at this boundary; see
        // `FaultCounters` for the conservation law.
        s.injected += self.counters.dropped;
        s.inject_refusals += self.stall_refusals;
        s.faults = self.counters;
        s
    }

    fn next_arrival(&self) -> Option<u64> {
        // Without stalls the eject side is a pass-through, so the base
        // fabric's prediction stands. With stalls a predicted arrival could
        // be hidden, so the machine must tick cycle by cycle.
        if self.config.stall_pm == 0 {
            self.inner.next_arrival()
        } else {
            None
        }
    }

    fn next_eject_ready(&self, from: usize, to: usize) -> Option<usize> {
        self.inner.next_eject_ready(from, to)
    }

    fn advance(&mut self, cycles: u64) {
        if self.config.stall_pm == 0 {
            // No per-cycle draws to make: bulk-advance the base fabric.
            self.inner.advance(cycles);
            self.now += cycles;
        } else {
            for _ in 0..cycles {
                self.tick();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fabric, FabricConfig, IdealNetwork};
    use tcni_isa::MsgType;

    fn msg(dst: u16, tag: u32) -> Message {
        Message::to(
            NodeId::new(dst),
            [0, tag, 0, 0, 0],
            MsgType::new(2).unwrap(),
        )
    }

    fn drain(net: &mut dyn Network, dst: u16, budget: u64) -> Vec<Message> {
        let mut out = Vec::new();
        for _ in 0..budget {
            net.tick();
            while let Some(m) = net.eject(NodeId::new(dst)) {
                out.push(m);
            }
        }
        out
    }

    #[test]
    fn zero_rate_wrapper_is_a_pass_through() {
        let mut plain = IdealNetwork::new(4, 3);
        let mut wrapped = FaultyFabric::new(
            IdealNetwork::new(4, 3).into(),
            FaultConfig::quiet(0xDEAD_BEEF),
        );
        for i in 0..32u32 {
            let m = msg((i % 3) as u16 + 1, i);
            assert_eq!(
                plain.inject(NodeId::new(0), m).is_ok(),
                wrapped.inject(NodeId::new(0), m).is_ok()
            );
        }
        for dst in 1..4u16 {
            assert_eq!(
                drain(&mut plain, dst, 64),
                drain(&mut wrapped, dst, 64),
                "dst {dst}"
            );
        }
        assert_eq!(plain.stats(), wrapped.stats());
        assert!(!wrapped.counters().any());
    }

    #[test]
    fn drops_are_accepted_but_never_delivered() {
        let mut net = FaultyFabric::new(
            IdealNetwork::new(2, 1).into(),
            FaultConfig {
                drop_pm: 1000,
                ..FaultConfig::quiet(1)
            },
        );
        for i in 0..10 {
            net.inject(NodeId::new(0), msg(1, i)).unwrap();
        }
        assert!(drain(&mut net, 1, 16).is_empty());
        let s = net.stats();
        assert_eq!(s.faults.dropped, 10);
        assert_eq!(s.injected, 10, "drops count as accepted injections");
        assert_eq!(s.delivered, 0);
        assert_eq!(s.bad_dest, 0, "fault drops are not bad_dest");
        assert_eq!(
            s.injected - s.faults.dropped,
            s.delivered + net.in_flight() as u64
        );
    }

    #[test]
    fn duplicates_arrive_in_order_and_are_counted() {
        let mut net = FaultyFabric::new(
            IdealNetwork::new(2, 1).into(),
            FaultConfig {
                duplicate_pm: 1000,
                ..FaultConfig::quiet(2)
            },
        );
        for i in 0..5 {
            net.inject(NodeId::new(0), msg(1, i)).unwrap();
        }
        let got = drain(&mut net, 1, 32);
        assert_eq!(net.counters().duplicated, 5);
        assert_eq!(got.len(), 10);
        let tags: Vec<u32> = got.iter().map(|m| m.words[1]).collect();
        assert_eq!(tags, vec![0, 0, 1, 1, 2, 2, 3, 3, 4, 4]);
        let s = net.stats();
        assert_eq!(s.injected, 10, "duplicate copies count as injections");
        assert_eq!(s.injected - s.faults.dropped, s.delivered);
    }

    #[test]
    fn corruption_flips_one_payload_bit_never_the_dest() {
        let mut net = FaultyFabric::new(
            IdealNetwork::new(4, 1).into(),
            FaultConfig {
                corrupt_pm: 1000,
                ..FaultConfig::quiet(3)
            },
        );
        for i in 0..20 {
            net.inject(NodeId::new(0), msg(2, 0)).unwrap();
            let _ = i;
        }
        let got = drain(&mut net, 2, 64);
        assert_eq!(got.len(), 20, "corruption never loses the message");
        assert_eq!(net.counters().corrupted, 20);
        for m in &got {
            assert_eq!(m.dest(), NodeId::new(2), "dest bits are spared");
            assert_eq!(m.words[0], msg(2, 0).words[0], "m0 is spared");
            let flipped: u32 = m
                .words
                .iter()
                .zip(msg(2, 0).words.iter())
                .map(|(a, b)| (a ^ b).count_ones())
                .sum();
            assert_eq!(flipped, 1, "exactly one bit flips: {m}");
        }
    }

    #[test]
    fn stalls_refuse_injects_and_hide_ejects_transiently() {
        let cfg = FaultConfig {
            stall_pm: 250,
            stall_len: 4,
            ..FaultConfig::quiet(7)
        };
        let mut net = FaultyFabric::new(IdealNetwork::new(2, 1).into(), cfg);
        let mut delivered = 0u32;
        let mut refused = 0u32;
        let mut sent = 0u32;
        for i in 0..400u32 {
            match net.inject(NodeId::new(0), msg(1, i)) {
                Ok(()) => sent += 1,
                Err(InjectError::Refused(_)) => refused += 1,
                Err(e) => panic!("unexpected {e:?}"),
            }
            net.tick();
            while net.eject(NodeId::new(1)).is_some() {
                delivered += 1;
            }
        }
        assert!(net.counters().stalls > 0, "schedule produced stalls");
        assert!(refused > 0, "inject-port stalls refuse");
        assert_eq!(net.stats().inject_refusals, u64::from(refused));
        // Nothing is lost to a stall: once ports clear, everything drains.
        delivered += drain(&mut net, 1, 64).len() as u32;
        assert_eq!(delivered, sent);
        assert_eq!(net.stats().faults.dropped, 0);
    }

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let run = |seed: u64| {
            let mut net = FaultyFabric::new(
                Fabric::new(FabricConfig::new(2, 2)).into(),
                FaultConfig::uniform(seed, 120),
            );
            for i in 0..200u32 {
                let _ = net.inject(NodeId::new((i % 4) as u16), msg((i % 3) as u16, i));
                net.tick();
                for d in 0..4u16 {
                    while net.eject(NodeId::new(d)).is_some() {}
                }
            }
            (net.counters(), net.stats())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).0, run(43).0, "different seeds, different schedule");
    }

    #[test]
    fn bad_dest_passes_through_distinct_from_fault_drops() {
        let mut net = FaultyFabric::new(
            IdealNetwork::new(2, 1).into(),
            FaultConfig {
                drop_pm: 1000,
                ..FaultConfig::quiet(5)
            },
        );
        net.inject(NodeId::new(0), msg(1, 0)).unwrap(); // dropped by fault
        let err = net.inject(NodeId::new(0), msg(9, 1)).unwrap_err();
        assert!(matches!(err, InjectError::BadDest(_)));
        let s = net.stats();
        assert_eq!(s.bad_dest, 1);
        assert_eq!(s.faults.dropped, 1);
    }

    #[test]
    fn sharded_ranges_reproduce_the_serial_schedule() {
        // Drive two same-seed fault-wrapped meshes through identical offer
        // sequences — one through the serial Network entry points, one
        // through per-domain FaultRanges — and demand bit-identical
        // deliveries, counters, and stats.
        let build = || {
            FaultyFabric::new(
                Fabric::new(FabricConfig::new(4, 2)).into(),
                FaultConfig::uniform(99, 180),
            )
        };
        let bounds = [0usize, 3, 6, 8];
        let mut serial = build();
        let mut sharded = build();
        let mut scratch = FabricTickScratch::new();
        let mut got_serial = Vec::new();
        let mut got_sharded = Vec::new();
        for cycle in 0..300u32 {
            for i in 0..8u16 {
                let m = msg((i + 1) % 8, cycle * 8 + u32::from(i));
                let _ = serial.inject(NodeId::new(i), m);
            }
            serial.tick();
            for d in 0..8u16 {
                while let Some(m) = serial.eject(NodeId::new(d)) {
                    got_serial.push((d, m));
                }
            }

            let mut deltas = Vec::new();
            for (w, mut range) in bounds.windows(2).zip(sharded.split_fault_ranges(&bounds)) {
                for i in w[0] as u16..w[1] as u16 {
                    let m = msg((i + 1) % 8, cycle * 8 + u32::from(i));
                    let _ = range.inject(NodeId::new(i), m);
                }
                deltas.push(range.into_delta());
            }
            sharded.absorb_inject_deltas(deltas);
            sharded.tick_domains(&bounds, &mut scratch);
            let mut deltas = Vec::new();
            for (w, mut range) in bounds.windows(2).zip(sharded.split_fault_ranges(&bounds)) {
                for d in w[0]..w[1] {
                    while let Some(m) = range.eject(NodeId::new(d as u16)) {
                        got_sharded.push((d as u16, m));
                    }
                }
                deltas.push(range.into_delta());
            }
            sharded.absorb_eject_deltas(deltas);
        }
        assert_eq!(got_serial, got_sharded);
        assert_eq!(serial.counters(), sharded.counters());
        assert_eq!(serial.stats(), sharded.stats());
        assert!(serial.counters().any(), "schedule actually faulted");
    }

    #[test]
    #[should_panic(expected = "fault layers do not nest")]
    fn nesting_is_rejected() {
        let inner = FaultyFabric::new(IdealNetwork::new(2, 1).into(), FaultConfig::quiet(0));
        let _ = FaultyFabric::new(NetworkKind::Faulty(inner), FaultConfig::quiet(0));
    }
}
