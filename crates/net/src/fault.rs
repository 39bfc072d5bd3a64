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
//! offered. All rates are per-mille; a zero-rate wrapper is an
//! observably exact pass-through (tested below), which is what lets the
//! fault-free paper models stay bit-identical.

use tcni_check::Rng;
use tcni_core::{Message, NodeId, MSG_WORDS};

use crate::stats::NetStats;
use crate::{FaultCounters, InjectError, Network, NetworkKind};

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
    /// Fabric time, counted in [`tick`](Network::tick)s.
    now: u64,
    /// Per-inject-port streams drawing each message's faults.
    msg_rng: Vec<Rng>,
    /// Per-node streams scheduling port stalls (separate streams: the stall
    /// schedule does not depend on how much traffic was offered).
    port_rng: Vec<Rng>,
    /// Per node, the cycle (exclusive) until which its inject and its eject
    /// port are stalled.
    inject_stall: Vec<u64>,
    eject_stall: Vec<u64>,
    counters: FaultCounters,
    /// Injections a stalled port refused (folded into
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
        let streams = |seed: u64| (0..nodes).map(|i| Rng::new(stream_seed(seed, i))).collect();
        FaultyFabric {
            inner: Box::new(inner),
            config,
            now: 0,
            msg_rng: streams(config.seed),
            port_rng: streams(config.seed ^ PORT_SALT),
            inject_stall: vec![0; nodes],
            eject_stall: vec![0; nodes],
            counters: FaultCounters::default(),
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
    pub fn counters(&self) -> FaultCounters {
        self.counters
    }

    /// The eject gate: whether `dst`'s eject port is open this cycle (a
    /// stalled port hides deliverable messages from peek and eject; a node
    /// the fabric does not have has no port).
    fn eject_open(&self, dst: NodeId) -> bool {
        self.eject_stall
            .get(dst.index())
            .is_some_and(|&until| self.now >= until)
    }

    /// Ends a cycle of the base fabric: advances fabric time and rolls the
    /// per-node stall schedule forward. Two draws per node per cycle
    /// (inject port, eject port), unconditionally: the draw count never
    /// depends on outcomes, so the schedule is a pure function of the seed
    /// and the cycle number.
    fn end_tick(&mut self) {
        self.now += 1;
        let (now, cfg) = (self.now, self.config);
        if cfg.stall_pm == 0 {
            return;
        }
        for (i, rng) in self.port_rng.iter_mut().enumerate() {
            if hit(rng, cfg.stall_pm) {
                if now >= self.inject_stall[i] {
                    self.counters.stalls += 1;
                }
                self.inject_stall[i] = now + cfg.stall_len;
            }
            if hit(rng, cfg.stall_pm) {
                if now >= self.eject_stall[i] {
                    self.counters.stalls += 1;
                }
                self.eject_stall[i] = now + cfg.stall_len;
            }
        }
    }
}

impl Network for FaultyFabric {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    /// The inject gate. A stalled port refuses. Otherwise the message takes
    /// its fault draws (drop → corrupt → duplicate, fixed order) from the
    /// source node's private stream, and the possibly-corrupted wire copy
    /// enters the base fabric.
    fn inject(&mut self, src: NodeId, msg: Message) -> Result<(), InjectError> {
        // A source the fabric does not have has no port to stall or stream
        // to draw from: the base fabric rejects it as `bad_dest`.
        if src.index() >= self.inject_stall.len() {
            return self.inner.inject(src, msg);
        }
        if self.now < self.inject_stall[src.index()] {
            self.stall_refusals += 1;
            return Err(InjectError::Refused(msg));
        }
        // Nonexistent destinations keep the base fabric's accounting:
        // `bad_dest` rejections are handed back, never faulted away.
        if msg.dest().index() >= self.inject_stall.len() {
            return self.inner.inject(src, msg);
        }
        let (rng, config) = (&mut self.msg_rng[src.index()], &self.config);
        let drop = hit(rng, config.drop_pm);
        let corrupt = hit(rng, config.corrupt_pm);
        let duplicate = hit(rng, config.duplicate_pm);
        if drop {
            // Accepted, then lost at the entry link. The sender's view is a
            // successful send; only `faults.dropped` knows better.
            self.counters.dropped += 1;
            return Ok(());
        }
        let mut wire = msg;
        if corrupt {
            let word = 1 + rng.index(MSG_WORDS - 1);
            let bit = rng.below(32) as u32;
            wire.words[word] ^= 1 << bit;
        }
        match self.inner.inject(src, wire) {
            Ok(()) => {
                if corrupt {
                    self.counters.corrupted += 1;
                }
                // A second copy rides right behind; losing it to a full
                // entry buffer is not a fault worth counting.
                if duplicate && self.inner.inject(src, wire).is_ok() {
                    self.counters.duplicated += 1;
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

    fn peek_eject(&self, dst: NodeId) -> Option<&Message> {
        self.eject_open(dst)
            .then(|| self.inner.peek_eject(dst))
            .flatten()
    }

    fn eject(&mut self, dst: NodeId) -> Option<Message> {
        self.eject_open(dst)
            .then(|| self.inner.eject(dst))
            .flatten()
    }

    fn tick(&mut self) {
        self.inner.tick();
        self.end_tick();
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

    fn next_eject_ready(&self, from: usize) -> Option<usize> {
        self.inner.next_eject_ready(from)
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
    #[should_panic(expected = "fault layers do not nest")]
    fn nesting_is_rejected() {
        let inner = FaultyFabric::new(IdealNetwork::new(2, 1).into(), FaultConfig::quiet(0));
        let _ = FaultyFabric::new(NetworkKind::Faulty(inner), FaultConfig::quiet(0));
    }
}
