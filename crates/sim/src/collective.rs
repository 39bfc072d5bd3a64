//! The in-network collective engine: barrier, broadcast, and reduce
//! combined *at the interfaces*, without processor involvement.
//!
//! The paper's encoded-type dispatch (§2.2.1) gives the NI a message type
//! it can act on in hardware; this module is the natural extension of that
//! idea to collective communication. A [`Collective`] engine sits alongside
//! the interfaces exactly like [`Delivery`](crate::Delivery) does: it owns a
//! static [`CombiningTree`] plus one combining slot per node, and the machine
//! loop routes [`MsgType::COLLECTIVE`](tcni_isa::MsgType::COLLECTIVE)
//! arrivals to it instead of the NI input queue.
//!
//! ## Protocol
//!
//! One collective **round** per tree, Chandy-style up-then-down:
//!
//! 1. Every member contributes a value ([`Collective::contribute`]); the
//!    node's slot opens and folds the value in with the op's commutative,
//!    associative [`combine`](CollectiveOp::combine).
//! 2. When a node holds its own contribution *and* one up-message from
//!    every tree child, it forwards a single partially-combined up-message
//!    to its parent — the combining step that turns O(n) root messages
//!    (the software emulation) into O(fan-in) per node.
//! 3. When the root completes, the result fans down the same tree edges;
//!    each node delivers a [`CollDone`] locally and relays to its children.
//!
//! Rounds are sequenced per node by `rounds_done`: a node can only start
//! round `r + 1` after its down-message for round `r` arrived, and a parent
//! can only see a child's round-`r + 1` up after sending that child the
//! round-`r` down, so one slot per node suffices and the tag in the wire
//! round field is a pure cross-check.
//!
//! ## Determinism
//!
//! Every mutation the engine performs is **node-local**: contributing at
//! `i`, combining an arrival at `i`, and queuing outgoing messages all touch
//! only slot `i` and outbox `i` (up-messages to the parent and down fan-out
//! are queued at the *sender's* outbox and travel through the fabric).
//! With commutative, associative ops, a round's result therefore does not
//! depend on the order in which nodes contribute or combine.
//!
//! Over a faulty fabric the engine has no resilience of its own; it relies
//! on the end-to-end delivery layer (enable both) for exactly-once in-order
//! edges, exactly as the paper's point-to-point programs do.

use tcni_core::{CollMsg, CollPhase, CollectiveOp, Message, NodeId, WireFormat};
use tcni_net::{CombiningTree, InjectError};

use crate::outbox::Outbox;

/// A completed collective round, as observed by one member node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollDone {
    /// The operation that completed.
    pub op: CollectiveOp,
    /// The round number (per-node monotone counter).
    pub round: u32,
    /// The result: 0 for barrier, the root's value for bcast, the combined
    /// value for sum/min.
    pub value: u32,
}

/// Engine counters (monotone, for reports and tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollectiveStats {
    /// Contributions accepted by [`Collective::contribute`].
    pub started: u64,
    /// Child up-messages folded into a slot accumulator.
    pub combined: u64,
    /// Partially-combined up-messages forwarded toward the root.
    pub forwarded_up: u64,
    /// Result messages fanned down tree edges.
    pub fanned_down: u64,
    /// Per-node round completions (a [`CollDone`] handed out).
    pub completed: u64,
    /// Contributions refused because the node's slot already holds one.
    pub rejected_busy: u64,
    /// Contributions refused because the node is outside the member set.
    pub not_participant: u64,
    /// Arrivals dropped: not a well-formed collective message, or a
    /// collective message at a non-member / idle node.
    pub stray: u64,
}

/// One node's combining slot.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Slot {
    /// A round is in progress at this node.
    busy: bool,
    /// The node's own contribution arrived (vs. a slot opened early by a
    /// child's up-message).
    own: bool,
    /// The up-message left for the parent; the slot now only awaits the
    /// down-message.
    sent_up: bool,
    op: CollectiveOp,
    round: u32,
    /// Child up-messages folded in so far.
    arrived: u32,
    /// Running combine of own + child contributions.
    acc: u32,
    /// The own contribution verbatim (the bcast result at the root).
    own_value: u32,
}

/// The combining-tree collective engine. Construct via
/// [`MachineBuilder::collective`](crate::MachineBuilder::collective);
/// interact through [`Machine::coll_start`](crate::Machine::coll_start) /
/// node [`CollPort`](crate::Node::coll_request) latches.
#[derive(Debug)]
pub struct Collective {
    tree: CombiningTree,
    format: WireFormat,
    slots: Vec<Slot>,
    /// Rounds completed per node; the next contribution's round tag.
    rounds_done: Vec<u32>,
    /// Per-node queues of outgoing collective wire messages (to the parent
    /// or to children). Drained by the machine's injection phase.
    outbox: Outbox,
    /// Slots currently busy (machine-wide), for quiescence checks.
    busy_slots: u64,
    stats: CollectiveStats,
}

impl Collective {
    /// Builds an idle engine over `tree` for a machine using `format`.
    pub fn new(tree: CombiningTree, format: WireFormat) -> Collective {
        let n = tree.len();
        Collective {
            tree,
            format,
            slots: vec![Slot::default(); n],
            rounds_done: vec![0; n],
            outbox: Outbox::new(n),
            busy_slots: 0,
            stats: CollectiveStats::default(),
        }
    }

    /// The combining tree the engine runs over.
    pub fn tree(&self) -> &CombiningTree {
        &self.tree
    }

    /// Engine counters.
    pub fn stats(&self) -> CollectiveStats {
        self.stats
    }

    /// Rounds completed at `node` so far.
    pub fn rounds_done(&self, node: usize) -> u32 {
        self.rounds_done[node]
    }

    /// Whether any collective state is live: queued wire messages or open
    /// combining slots. Machine quiescence requires `!active()`.
    pub fn active(&self) -> bool {
        self.outbox.msgs() > 0 || self.busy_slots > 0
    }

    /// Queued outgoing collective messages across all nodes.
    pub fn outgoing(&self) -> u64 {
        self.outbox.msgs()
    }

    /// Contributes `value` to the current round at `node`. On a leaf-only
    /// or single-member tree the round may complete immediately, returning
    /// the result; otherwise completion arrives later via the machine loop.
    ///
    /// # Errors
    ///
    /// [`InjectError::NotParticipant`] when `node` is outside the tree's
    /// member set (retrying is futile); [`InjectError::Refused`] when the
    /// node's slot already holds its contribution for an unfinished round
    /// (retry after that round completes). Both hand back the would-be
    /// up-message.
    pub fn contribute(
        &mut self,
        node: usize,
        op: CollectiveOp,
        value: u32,
    ) -> Result<Option<CollDone>, InjectError> {
        if !self.tree.is_member(node) {
            self.stats.not_participant += 1;
            let up = self.up_message(node, op, self.rounds_done[node], value);
            return Err(InjectError::NotParticipant(up));
        }
        let round = self.rounds_done[node];
        let slot = &mut self.slots[node];
        if slot.busy && slot.own {
            // This round's contribution is already in; the caller retries after
            // the down-message closes the slot.
            self.stats.rejected_busy += 1;
            return Err(InjectError::Refused(
                self.up_message(node, op, round, value),
            ));
        }
        if !slot.busy {
            *slot = Slot {
                busy: true,
                op,
                round,
                acc: op.identity(),
                ..Slot::default()
            };
            self.busy_slots += 1;
        } else {
            // Opened early by a child's up-message; every member must run the
            // same op in the same round — a mismatch is a programming error, not
            // a recoverable condition.
            assert_eq!(slot.op, op, "collective op mismatch at node {node}");
            debug_assert_eq!(slot.round, round, "collective round skew at node {node}");
        }
        slot.own = true;
        slot.own_value = value;
        slot.acc = op.combine(slot.acc, value);
        self.stats.started += 1;
        Ok(self.try_complete(node))
    }

    /// The nodes with queued outgoing collective messages, ascending
    /// (merged into the machine's injection scan like the delivery outbox).
    pub(crate) fn outbox_nodes(&self) -> impl Iterator<Item = usize> + '_ {
        self.outbox.nodes()
    }

    /// Checks the outbox bookkeeping and the busy-slot total against the
    /// slots.
    pub(crate) fn check_invariants(&self) -> Result<(), String> {
        self.outbox.check("collective")?;
        let busy = self.slots.iter().filter(|s| s.busy).count() as u64;
        if busy != self.busy_slots {
            return Err(format!(
                "busy-slot total {} but {busy} slots are open",
                self.busy_slots
            ));
        }
        Ok(())
    }

    /// The up-message `node` would send for `(op, round, value)` — also the
    /// payload handed back inside contribution errors.
    fn up_message(&self, node: usize, op: CollectiveOp, round: u32, value: u32) -> Message {
        let dest = self.tree.parent(node).unwrap_or(node);
        CollMsg {
            phase: CollPhase::Up,
            op,
            round,
            value,
            sender: NodeId::from_index(node),
        }
        .into_message(self.format, NodeId::from_index(dest))
    }

    /// Routes an ejected [`COLLECTIVE`](tcni_isa::MsgType::COLLECTIVE)
    /// arrival at `node` into the engine; returns the round result if this
    /// arrival completed the round at `node`.
    pub(crate) fn on_message(&mut self, node: usize, msg: &Message) -> Option<CollDone> {
        let Some(cm) = CollMsg::parse(msg) else {
            self.stats.stray += 1;
            return None;
        };
        if !self.tree.is_member(node) {
            self.stats.stray += 1;
            return None;
        }
        let slot = &mut self.slots[node];
        match cm.phase {
            CollPhase::Up => {
                if !slot.busy {
                    // A child raced ahead of this node's own contribution:
                    // open the slot on its behalf.
                    *slot = Slot {
                        busy: true,
                        op: cm.op,
                        round: cm.round,
                        acc: cm.op.identity(),
                        ..Slot::default()
                    };
                    self.busy_slots += 1;
                }
                debug_assert_eq!(slot.op, cm.op, "up-message op skew at node {node}");
                debug_assert_eq!(slot.round, cm.round, "up-message round skew at node {node}");
                slot.arrived += 1;
                slot.acc = slot.op.combine(slot.acc, cm.value);
                self.stats.combined += 1;
                self.try_complete(node)
            }
            CollPhase::Down => {
                if !slot.busy || !slot.sent_up {
                    // A down-message for a round this node is not waiting on
                    // (possible only with faults and no delivery protocol).
                    self.stats.stray += 1;
                    return None;
                }
                debug_assert_eq!(
                    slot.round, cm.round,
                    "down-message round skew at node {node}"
                );
                let (op, round) = (slot.op, slot.round);
                Some(self.finish(node, op, round, cm.value))
            }
        }
    }

    /// Fires when `node` holds its own contribution and all child
    /// contributions: forwards one combined up-message (interior nodes) or
    /// completes the round and starts the fan-down (the root).
    fn try_complete(&mut self, node: usize) -> Option<CollDone> {
        let children = self.tree.children(node).len() as u32;
        let slot = &mut self.slots[node];
        if !slot.own || slot.arrived < children {
            return None;
        }
        let (op, round, acc, own_value) = (slot.op, slot.round, slot.acc, slot.own_value);
        match self.tree.parent(node) {
            Some(parent) => {
                // The single combined message that replaces `children + 1`
                // point-to-point sends — the whole point of in-network
                // combining.
                let value = match op {
                    CollectiveOp::Barrier | CollectiveOp::Bcast => 0,
                    CollectiveOp::Sum | CollectiveOp::Min => acc,
                };
                let m = CollMsg {
                    phase: CollPhase::Up,
                    op,
                    round,
                    value,
                    sender: NodeId::from_index(node),
                }
                .into_message(self.format, NodeId::from_index(parent));
                slot.sent_up = true;
                self.outbox.push(node, m);
                self.stats.forwarded_up += 1;
                None
            }
            None => {
                // The root: the round's result is decided here.
                let value = match op {
                    CollectiveOp::Barrier => 0,
                    CollectiveOp::Bcast => own_value,
                    CollectiveOp::Sum | CollectiveOp::Min => acc,
                };
                Some(self.finish(node, op, round, value))
            }
        }
    }

    /// Closes `node`'s slot for a decided round: fans the result down to the
    /// tree children and advances the round counter.
    fn finish(&mut self, node: usize, op: CollectiveOp, round: u32, value: u32) -> CollDone {
        let children = self.tree.children(node);
        for &child in children {
            let m = CollMsg {
                phase: CollPhase::Down,
                op,
                round,
                value,
                sender: NodeId::from_index(node),
            }
            .into_message(self.format, NodeId::from_index(child as usize));
            self.outbox.push(node, m);
        }
        self.stats.fanned_down += children.len() as u64;
        self.slots[node] = Slot::default();
        self.busy_slots -= 1;
        self.rounds_done[node] += 1;
        self.stats.completed += 1;
        CollDone { op, round, value }
    }

    /// Removes the head of `node`'s outbox after its injection.
    pub(crate) fn outbox_pop(&mut self, node: usize) {
        self.outbox.pop(node);
    }

    /// The head of `node`'s outbox.
    pub(crate) fn outbox_front(&self, node: usize) -> Option<&Message> {
        self.outbox.front(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pump(c: &mut Collective, done: &mut Vec<(usize, CollDone)>) {
        // Deliver every queued message directly to its destination, like a
        // zero-latency fabric, until the engine drains.
        while c.outgoing() > 0 {
            let node = c.outbox_nodes().next().expect("a queued message");
            let msg = c.outbox.pop(node).expect("active node has a message");
            let dst = msg.dest().index();
            if let Some(d) = c.on_message(dst, &msg) {
                done.push((dst, d));
            }
            c.check_invariants().unwrap();
        }
    }

    #[test]
    fn single_member_completes_inline() {
        let mut c = Collective::new(CombiningTree::star(1), WireFormat::Compact);
        let done = c.contribute(0, CollectiveOp::Sum, 17).unwrap();
        assert_eq!(
            done,
            Some(CollDone {
                op: CollectiveOp::Sum,
                round: 0,
                value: 17
            })
        );
        assert!(!c.active());
        assert_eq!(c.rounds_done(0), 1);
    }

    #[test]
    fn star_sum_combines_all_contributions() {
        let mut c = Collective::new(CombiningTree::star(4), WireFormat::Compact);
        let mut done = Vec::new();
        for i in 0..4 {
            if let Some(d) = c.contribute(i, CollectiveOp::Sum, (i as u32) + 1).unwrap() {
                done.push((i, d));
            }
        }
        pump(&mut c, &mut done);
        assert_eq!(done.len(), 4);
        for (_, d) in &done {
            assert_eq!(d.value, 1 + 2 + 3 + 4);
            assert_eq!(d.round, 0);
        }
        assert!(!c.active());
        let s = c.stats();
        assert_eq!(s.started, 4);
        assert_eq!(s.completed, 4);
        assert_eq!(s.combined, 3);
        assert_eq!(s.fanned_down, 3);
    }

    #[test]
    fn mesh_tree_min_and_bcast() {
        let tree = CombiningTree::mesh(4, 4, 2);
        let mut c = Collective::new(tree, WireFormat::Compact);
        let mut done = Vec::new();
        for i in 0..16 {
            let v = 100 - i as u32;
            if let Some(d) = c.contribute(i, CollectiveOp::Min, v).unwrap() {
                done.push((i, d));
            }
            pump(&mut c, &mut done); // interleave deliveries with contributions
        }
        pump(&mut c, &mut done);
        assert_eq!(done.len(), 16);
        assert!(done.iter().all(|(_, d)| d.value == 85));
        // Round 1: broadcast the root's value.
        done.clear();
        for i in 0..16 {
            let v = if i == 0 { 0xBEEF } else { 7 };
            if let Some(d) = c.contribute(i, CollectiveOp::Bcast, v).unwrap() {
                done.push((i, d));
            }
        }
        pump(&mut c, &mut done);
        assert_eq!(done.len(), 16);
        assert!(done.iter().all(|(_, d)| d.value == 0xBEEF && d.round == 1));
        assert!((0..16).all(|i| c.rounds_done(i) == 2));
    }

    #[test]
    fn contribution_errors_are_typed() {
        let mut c = Collective::new(CombiningTree::star_of(4, &[0, 2]), WireFormat::Compact);
        let err = c.contribute(1, CollectiveOp::Barrier, 0).unwrap_err();
        assert!(matches!(err, InjectError::NotParticipant(_)));
        assert!(!err.is_retryable());
        assert!(c.contribute(2, CollectiveOp::Barrier, 0).unwrap().is_none());
        let err = c.contribute(2, CollectiveOp::Barrier, 0).unwrap_err();
        assert!(matches!(err, InjectError::Refused(_)));
        assert!(err.is_retryable());
        let s = c.stats();
        assert_eq!(s.not_participant, 1);
        assert_eq!(s.rejected_busy, 1);
    }

    #[test]
    fn stray_messages_are_counted_and_dropped() {
        let mut c = Collective::new(CombiningTree::star(2), WireFormat::Compact);
        let plain = Message::new([0; 5], tcni_isa::MsgType::new(3).unwrap());
        assert_eq!(c.on_message(0, &plain), None);
        // A down-message nobody is waiting for.
        let down = CollMsg {
            phase: CollPhase::Down,
            op: CollectiveOp::Barrier,
            round: 0,
            value: 0,
            sender: NodeId::new(0),
        }
        .into_message(WireFormat::Compact, NodeId::new(1));
        assert_eq!(c.on_message(1, &down), None);
        assert_eq!(c.stats().stray, 2);
        assert!(!c.active());
    }
}
