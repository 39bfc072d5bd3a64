//! A contention-free fixed-latency network.

use std::collections::VecDeque;

use tcni_core::{Message, NodeId};

use crate::stats::NetStats;
use crate::{InjectError, Network};

struct InFlight {
    msg: Message,
    arrives_at: u64,
    injected_at: u64,
}

/// An idealised network: every message arrives at its destination exactly
/// `latency` cycles after injection, with unbounded internal buffering and
/// one ejection per node per cycle.
///
/// This matches the methodology of §4.2.1 of the paper, where "the simulator
/// did not model … any network latency" — with `latency = 0` a message sent
/// in one cycle is deliverable in the next simulator phase.
///
/// # Example
///
/// ```
/// use tcni_core::{Message, NodeId};
/// use tcni_isa::MsgType;
/// use tcni_net::{IdealNetwork, Network};
///
/// let mut net = IdealNetwork::new(4, 2);
/// let m = Message::to(NodeId::new(3), [0, 7, 0, 0, 0], MsgType::new(2).unwrap());
/// net.inject(NodeId::new(0), m).unwrap();
/// net.tick();
/// assert!(net.eject(NodeId::new(3)).is_none()); // 1 < latency 2
/// net.tick();
/// assert!(net.eject(NodeId::new(3)).is_some());
/// ```
pub struct IdealNetwork {
    queues: Vec<VecDeque<InFlight>>,
    latency: u64,
    now: u64,
    stats: NetStats,
    in_flight: usize,
}

impl IdealNetwork {
    /// Creates an ideal network over `nodes` nodes with the given delivery
    /// latency in cycles.
    pub fn new(nodes: usize, latency: u64) -> IdealNetwork {
        IdealNetwork {
            queues: (0..nodes).map(|_| VecDeque::new()).collect(),
            latency,
            now: 0,
            stats: NetStats::default(),
            in_flight: 0,
        }
    }

    /// The configured delivery latency.
    pub fn latency(&self) -> u64 {
        self.latency
    }

    fn deliverable(&self, dst: NodeId) -> bool {
        self.queues
            .get(dst.index())
            .and_then(VecDeque::front)
            .is_some_and(|p| p.arrives_at <= self.now)
    }
}

impl Network for IdealNetwork {
    fn node_count(&self) -> usize {
        self.queues.len()
    }

    fn inject(&mut self, src: NodeId, msg: Message) -> Result<(), InjectError> {
        let dst = msg.dest();
        if src.index() >= self.queues.len() || dst.index() >= self.queues.len() {
            self.stats.bad_dest += 1;
            return Err(InjectError::BadDest(msg));
        }
        self.queues[dst.index()].push_back(InFlight {
            msg,
            arrives_at: self.now + self.latency,
            injected_at: self.now,
        });
        self.in_flight += 1;
        self.stats.injected += 1;
        self.stats.in_flight_hwm = self.stats.in_flight_hwm.max(self.in_flight);
        Ok(())
    }

    fn peek_eject(&self, dst: NodeId) -> Option<&Message> {
        if self.deliverable(dst) {
            self.queues[dst.index()].front().map(|p| &p.msg)
        } else {
            None
        }
    }

    fn eject(&mut self, dst: NodeId) -> Option<Message> {
        if !self.deliverable(dst) {
            return None;
        }
        let p = self.queues[dst.index()].pop_front().expect("checked above");
        self.in_flight -= 1;
        self.stats.record_delivery(self.now - p.injected_at);
        Some(p.msg)
    }

    fn tick(&mut self) {
        self.now += 1;
    }

    fn in_flight(&self) -> usize {
        self.in_flight
    }

    fn stats(&self) -> NetStats {
        self.stats
    }

    fn next_arrival(&self) -> Option<u64> {
        // Per-destination queues are ordered by arrival time, so only the
        // fronts need inspecting.
        self.queues
            .iter()
            .filter_map(|q| q.front().map(|p| p.arrives_at))
            .min()
    }

    fn advance(&mut self, cycles: u64) {
        // Tick is pure time-keeping here; jumping is exact.
        self.now += cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcni_isa::MsgType;

    fn msg(dst: u16, tag: u32) -> Message {
        Message::to(
            NodeId::new(dst),
            [tag, tag, 0, 0, 0],
            MsgType::new(2).unwrap(),
        )
    }

    #[test]
    fn zero_latency_delivers_same_cycle() {
        let mut net = IdealNetwork::new(2, 0);
        net.inject(NodeId::new(0), msg(1, 5)).unwrap();
        assert!(net.peek_eject(NodeId::new(1)).is_some());
        assert_eq!(net.eject(NodeId::new(1)).unwrap().words[1] & 0xFFFF, 5);
    }

    #[test]
    fn latency_respected_and_order_preserved() {
        let mut net = IdealNetwork::new(2, 3);
        net.inject(NodeId::new(0), msg(1, 1)).unwrap(); // due at t=3
        net.tick(); // t=1
        net.inject(NodeId::new(0), msg(1, 2)).unwrap(); // due at t=4
        net.tick(); // t=2
        assert!(net.peek_eject(NodeId::new(1)).is_none());
        net.tick(); // t=3: first message due
        assert_eq!(net.eject(NodeId::new(1)).unwrap().words[1], 1);
        assert!(net.eject(NodeId::new(1)).is_none()); // second not due until t=4
        net.tick(); // t=4
        assert_eq!(net.eject(NodeId::new(1)).unwrap().words[1], 2);
        assert_eq!(net.in_flight(), 0);
        assert_eq!(net.stats().delivered, 2);
        assert_eq!(net.stats().mean_latency(), Some(3.0));
    }

    #[test]
    fn self_send_allowed() {
        let mut net = IdealNetwork::new(1, 0);
        net.inject(NodeId::new(0), msg(0, 9)).unwrap();
        assert!(net.eject(NodeId::new(0)).is_some());
    }

    #[test]
    fn misaddressed_message_is_a_typed_error() {
        let mut net = IdealNetwork::new(2, 0);
        let m = msg(7, 3);
        match net.inject(NodeId::new(0), m) {
            Err(InjectError::BadDest(back)) => assert_eq!(back, m),
            other => panic!("expected BadDest, got {other:?}"),
        }
        assert_eq!(net.stats().bad_dest, 1);
        assert_eq!(net.stats().injected, 0);
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn latency_histogram_matches_deliveries() {
        let mut net = IdealNetwork::new(2, 3);
        net.inject(NodeId::new(0), msg(1, 1)).unwrap();
        net.inject(NodeId::new(0), msg(1, 2)).unwrap();
        for _ in 0..8 {
            net.tick();
            while net.eject(NodeId::new(1)).is_some() {}
        }
        let stats = net.stats();
        assert_eq!(stats.latency_hist.total(), stats.delivered);
        // Both messages took exactly 3 cycles → bucket [2, 3].
        assert_eq!(stats.latency_hist.buckets()[2], 2);
    }
}
