//! Per-node queues of NI-originated wire messages awaiting injection —
//! delivery acks and retransmit copies, collective combines — shared by
//! [`Delivery`](crate::Delivery) and [`Collective`](crate::Collective).
//!
//! The machine's injection phase drains at most one message per node per
//! cycle and visits only the nodes whose queue is non-empty, in ascending
//! node order. The outbox keeps that set as a bitmap: O(1) activation and
//! deactivation, and an ascending walk that costs one word per 64 nodes,
//! so the per-cycle snapshot needs no sort.

use std::collections::VecDeque;

use tcni_core::Message;

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

    /// `node`'s queue.
    pub(crate) fn queue(&self, node: usize) -> &VecDeque<Message> {
        &self.queues[node]
    }

    /// `node`'s queue, for in-place edits that keep its length.
    pub(crate) fn queue_mut(&mut self, node: usize) -> &mut VecDeque<Message> {
        &mut self.queues[node]
    }

    /// The head of `node`'s queue.
    pub(crate) fn front(&self, node: usize) -> Option<&Message> {
        self.queues[node].front()
    }

    /// Appends `msg` to `node`'s queue.
    pub(crate) fn push(&mut self, node: usize, msg: Message) {
        self.queues[node].push_back(msg);
        self.msgs += 1;
        if self.queues[node].len() == 1 {
            self.mark(node, true);
        }
    }

    /// Removes the head of `node`'s queue.
    pub(crate) fn pop(&mut self, node: usize) -> Option<Message> {
        let m = self.queues[node].pop_front()?;
        self.msgs -= 1;
        if self.queues[node].is_empty() {
            self.mark(node, false);
        }
        Some(m)
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

#[cfg(test)]
mod tests {
    use super::*;
    use tcni_core::NodeId;
    use tcni_isa::MsgType;

    fn msg(tag: u32) -> Message {
        Message::to(NodeId::new(0), [0, tag, 0, 0, 0], MsgType::new(2).unwrap())
    }

    /// Random pushes and pops, against a model of plain queues, keep the
    /// active set and the total exact — across bitmap-word boundaries.
    #[test]
    fn the_active_set_tracks_the_queues() {
        let nodes = 130;
        let mut outbox = Outbox::new(nodes);
        let mut model = vec![VecDeque::new(); nodes];
        let mut x = 0x1234_5678_9abc_def0u64;
        for round in 0..60 {
            let grow = round % 3 != 2;
            for (node, q) in model.iter_mut().enumerate() {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if x >> 61 >= 3 {
                    continue;
                }
                if grow {
                    let m = msg((x >> 32) as u32);
                    outbox.push(node, m);
                    q.push_back(m);
                } else {
                    assert_eq!(outbox.pop(node), q.pop_front());
                }
            }
            outbox.check("model").unwrap();
            let busy = (0..nodes).filter(|&n| !model[n].is_empty());
            assert!(outbox.nodes().eq(busy), "round {round} active set");
            assert!((0..nodes).all(|n| *outbox.queue(n) == model[n]));
        }
        assert!(outbox.msgs() > 0, "the scenario left traffic queued");
    }
}
