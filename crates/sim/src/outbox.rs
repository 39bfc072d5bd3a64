//! Per-node queues of NI-originated wire messages awaiting injection —
//! delivery acks and retransmit copies, collective combines — shared by
//! [`Delivery`](crate::Delivery) and [`Collective`](crate::Collective).
//!
//! The machine's injection phase drains at most one message per node per
//! cycle and visits only the nodes whose queue is non-empty, in ascending
//! node order. The outbox keeps that set as a bitmap: O(1) activation and
//! deactivation, and an ascending walk that costs one word per 64 nodes,
//! so the per-cycle snapshot needs no sort.
//!
//! Both disciplines implement [`OutboxView`]: the [`Outbox`] itself edits
//! the set and the message total in place (the one-domain cycle), while an
//! [`OutboxRange`] owns one domain's queues and buffers those edits in an
//! [`OutboxDelta`] that [`Outbox::absorb`] replays in domain order.

use std::collections::VecDeque;

use tcni_core::Message;

/// Queue access shared by the whole-machine [`Outbox`] and a domain's
/// [`OutboxRange`]. Node indices are global.
pub(crate) trait OutboxView {
    /// `node`'s queue.
    fn queue(&self, node: usize) -> &VecDeque<Message>;
    /// `node`'s queue, for in-place edits that keep its length.
    fn queue_mut(&mut self, node: usize) -> &mut VecDeque<Message>;
    /// Appends `msg` to `node`'s queue.
    fn push(&mut self, node: usize, msg: Message);
    /// Removes the head of `node`'s queue.
    fn pop(&mut self, node: usize) -> Option<Message>;

    /// The head of `node`'s queue.
    fn front(&self, node: usize) -> Option<&Message> {
        self.queue(node).front()
    }
}

/// Every node's outgoing queue, the set of nodes with a non-empty one, and
/// the message total.
#[derive(Debug)]
pub(crate) struct Outbox {
    queues: Vec<VecDeque<Message>>,
    /// Bit `node % 64` of word `node / 64` is set iff `node`'s queue is
    /// non-empty.
    active: Vec<u64>,
    /// Messages across all queues.
    msgs: u64,
}

impl Outbox {
    pub(crate) fn new(nodes: usize) -> Outbox {
        Outbox {
            queues: vec![VecDeque::new(); nodes],
            active: vec![0; nodes.div_ceil(64)],
            msgs: 0,
        }
    }

    /// The nodes with a non-empty queue, ascending.
    pub(crate) fn nodes(&self) -> impl Iterator<Item = usize> + '_ {
        self.active.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    w * 64 + b
                })
            })
        })
    }

    /// Messages queued across all nodes.
    pub(crate) fn msgs(&self) -> u64 {
        self.msgs
    }

    fn mark(&mut self, node: usize, on: bool) {
        let bit = 1u64 << (node % 64);
        debug_assert_eq!(self.active[node / 64] & bit != 0, !on, "set already {on}");
        self.active[node / 64] ^= bit;
    }

    /// Splits the queues into per-domain ranges: domain `d` of `bounds`
    /// owns the queues of nodes `bounds[d]..bounds[d + 1]`.
    pub(crate) fn split(&mut self, bounds: &[usize]) -> Vec<OutboxRange<'_>> {
        let mut out = Vec::with_capacity(bounds.len().saturating_sub(1));
        let mut rest = self.queues.as_mut_slice();
        for w in bounds.windows(2) {
            let (head, tail) = rest.split_at_mut(w[1] - w[0]);
            rest = tail;
            out.push(OutboxRange {
                lo: w[0],
                queues: head,
                delta: OutboxDelta::default(),
            });
        }
        out
    }

    /// Replays one domain's buffered set and total edits.
    pub(crate) fn absorb(&mut self, d: OutboxDelta) {
        self.msgs = self
            .msgs
            .checked_add_signed(d.msgs)
            .expect("outbox total cannot go negative");
        for node in d.emptied {
            self.mark(node as usize, false);
        }
        for node in d.filled {
            self.mark(node as usize, true);
        }
    }

    /// Checks that the active set is exactly the nodes with a non-empty
    /// queue and that the total counts every queued message.
    pub(crate) fn check(&self, what: &str) -> Result<(), String> {
        let mut total = 0u64;
        for (node, q) in self.queues.iter().enumerate() {
            total += q.len() as u64;
            let listed = self.active[node / 64] & (1 << (node % 64)) != 0;
            if listed == q.is_empty() {
                return Err(format!(
                    "{what} outbox of node {node}: {} queued but listed={listed}",
                    q.len()
                ));
            }
        }
        if total != self.msgs {
            return Err(format!(
                "{what} outbox total {} but {total} queued",
                self.msgs
            ));
        }
        Ok(())
    }
}

impl OutboxView for Outbox {
    #[inline]
    fn queue(&self, node: usize) -> &VecDeque<Message> {
        &self.queues[node]
    }

    #[inline]
    fn queue_mut(&mut self, node: usize) -> &mut VecDeque<Message> {
        &mut self.queues[node]
    }

    #[inline]
    fn push(&mut self, node: usize, msg: Message) {
        self.queues[node].push_back(msg);
        self.msgs += 1;
        if self.queues[node].len() == 1 {
            self.mark(node, true);
        }
    }

    #[inline]
    fn pop(&mut self, node: usize) -> Option<Message> {
        let m = self.queues[node].pop_front()?;
        self.msgs -= 1;
        if self.queues[node].is_empty() {
            self.mark(node, false);
        }
        Some(m)
    }
}

/// One domain's set and total edits, replayed by [`Outbox::absorb`]. Within
/// a phase a node's queue only grows or only shrinks, so a node appears in
/// at most one of the lists, at most once.
#[derive(Debug, Default)]
pub(crate) struct OutboxDelta {
    /// Net message count change.
    msgs: i64,
    /// Nodes whose queue went non-empty.
    filled: Vec<u32>,
    /// Nodes whose queue drained empty.
    emptied: Vec<u32>,
}

/// One domain's queues, produced by [`Outbox::split`].
pub(crate) struct OutboxRange<'a> {
    /// First node of the domain.
    lo: usize,
    queues: &'a mut [VecDeque<Message>],
    delta: OutboxDelta,
}

impl OutboxRange<'_> {
    /// Surrenders the buffered edits.
    pub(crate) fn into_delta(self) -> OutboxDelta {
        self.delta
    }
}

impl OutboxView for OutboxRange<'_> {
    #[inline]
    fn queue(&self, node: usize) -> &VecDeque<Message> {
        &self.queues[node - self.lo]
    }

    #[inline]
    fn queue_mut(&mut self, node: usize) -> &mut VecDeque<Message> {
        &mut self.queues[node - self.lo]
    }

    #[inline]
    fn push(&mut self, node: usize, msg: Message) {
        let q = &mut self.queues[node - self.lo];
        q.push_back(msg);
        self.delta.msgs += 1;
        if q.len() == 1 {
            self.delta.filled.push(node as u32);
        }
    }

    #[inline]
    fn pop(&mut self, node: usize) -> Option<Message> {
        let q = &mut self.queues[node - self.lo];
        let m = q.pop_front()?;
        self.delta.msgs -= 1;
        if q.is_empty() {
            self.delta.emptied.push(node as u32);
        }
        Some(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcni_core::NodeId;
    use tcni_isa::MsgType;

    fn msg(tag: u32) -> Message {
        Message::to(NodeId::new(0), [0, tag, 0, 0, 0], MsgType::new(2).unwrap())
    }

    /// The same phases of pushes and pops, applied in place and through
    /// per-domain ranges replayed in domain order, leave identical queues,
    /// active sets, and totals — across domain bounds that straddle bitmap
    /// words.
    #[test]
    fn ranges_replay_to_the_in_place_state() {
        let nodes = 130;
        let bounds = [0, 3, 64, 70, nodes];
        let (mut direct, mut sharded) = (Outbox::new(nodes), Outbox::new(nodes));
        let mut x = 0x1234_5678_9abc_def0u64;
        for round in 0..60 {
            // Within a phase every queue only grows or only shrinks.
            let grow = round % 3 != 2;
            let mut ops = Vec::new();
            for node in 0..nodes {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if x >> 61 < 3 {
                    ops.push((node, (x >> 32) as u32));
                }
            }
            let mut ranges = sharded.split(&bounds);
            for &(node, tag) in &ops {
                let range = &mut ranges[bounds.partition_point(|&b| b <= node) - 1];
                if grow {
                    direct.push(node, msg(tag));
                    range.push(node, msg(tag));
                } else {
                    assert_eq!(direct.pop(node), range.pop(node));
                }
            }
            let deltas: Vec<OutboxDelta> =
                ranges.into_iter().map(OutboxRange::into_delta).collect();
            for d in deltas {
                sharded.absorb(d);
            }
            direct.check("direct").unwrap();
            sharded.check("sharded").unwrap();
            assert!(
                direct.nodes().eq(sharded.nodes()),
                "round {round} active set"
            );
            assert_eq!(direct.msgs(), sharded.msgs());
            assert!((0..nodes).all(|n| direct.queue(n) == sharded.queue(n)));
        }
        assert!(direct.msgs() > 0, "the scenario left traffic queued");
        assert!(direct.nodes().all(|n| !direct.queue(n).is_empty()));
    }
}
