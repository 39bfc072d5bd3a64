//! # tcni-net — interconnection-network substrate
//!
//! The network models for the TCNI reproduction of Henry & Joerg (ASPLOS
//! 1992). The paper's flow-control story (§2.1.1) needs a network with
//! finite buffering: "If the receiving processor does not process messages as
//! fast as the network delivers them, its input message queue backs up into
//! the network. As the network becomes clogged, processors can no longer
//! transmit messages and eventually their output queues fill up."
//!
//! Two implementations are provided behind the [`Network`] trait:
//!
//! * [`IdealNetwork`] — fixed-latency, contention-free delivery; used where
//!   the paper's methodology explicitly excludes network effects (the
//!   Figure-12 accounting) and for functional tests;
//! * [`Fabric`] — a switched fabric with dimension-order routing over a
//!   pluggable [`Topology`] (2-D mesh, wrap-around torus, ring, or
//!   fully-connected), one packet per link per cycle, finite per-channel
//!   FIFOs, and credit-style backpressure all the way into the sender's
//!   output queue; used by the saturation/boundary-condition experiments.
//!
//! Either fabric can additionally be wrapped in a [`FaultyFabric`], which
//! applies a seeded, deterministic schedule of link faults — transient
//! stalls, message drop, duplication, payload corruption — at configurable
//! per-mille rates (see the [`fault`](self) module docs). A zero-rate wrapper
//! is an exact pass-through, so the fault-free paper models are unaffected.
//!
//! Both preserve point-to-point ordering between any source/destination
//! pair, which the SCROLL (variable-length message) extension of §2.1.2
//! relies on.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fabric;
mod fault;
mod ideal;
mod kind;
mod stats;
mod topology;
mod tree;

pub use fabric::{Fabric, FabricConfig, FabricError, LinkReport, LinkStats};
pub use fault::{FaultConfig, FaultyFabric};
pub use ideal::IdealNetwork;
pub use kind::NetworkKind;
pub use stats::{FaultCounters, LatencyHist, NetStats, ScanStats};
pub use topology::{FullyConnected, Hop, Mesh2d, Ring, Topology, TopologyKind, Torus2d};
pub use tree::{CombiningTree, TreeShape};

use tcni_core::{Message, NodeId};

/// Why a [`Network::inject`] was not accepted. Every variant hands the
/// message back to the caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InjectError {
    /// The entry buffer was full; keep the message queued and retry — this
    /// is the boundary where congestion backs up into the sender's output
    /// queue (§2.1.1).
    Refused(Message),
    /// The destination node does not exist on this fabric. The message can
    /// never be delivered; retrying is futile. The machine simulator drops
    /// such messages (counted in [`NetStats::bad_dest`]).
    BadDest(Message),
    /// A collective message was started on a node outside the collective's
    /// member set (the combining tree does not span it). Retrying is
    /// futile; the caller gets the message back instead of a silent drop.
    NotParticipant(Message),
}

impl InjectError {
    /// Recovers the rejected message regardless of the reason.
    pub fn into_message(self) -> Message {
        match self {
            InjectError::Refused(m) | InjectError::BadDest(m) | InjectError::NotParticipant(m) => m,
        }
    }

    /// Whether retrying the injection later can succeed.
    pub fn is_retryable(&self) -> bool {
        matches!(self, InjectError::Refused(_))
    }
}

/// A message-delivery fabric connecting the nodes' network interfaces.
///
/// The machine simulator drives it with a three-phase cycle: `inject` drains
/// NI output queues (refusals back-pressure into them), [`tick`](Network::tick)
/// advances packets, and `peek_eject`/`eject` fill NI input queues (refusals
/// leave messages in the network).
pub trait Network {
    /// Number of attached nodes.
    fn node_count(&self) -> usize;

    /// Offers a message for injection at `src`.
    ///
    /// # Errors
    ///
    /// [`InjectError::Refused`] when the injection buffer is full (keep the
    /// message queued and retry — this is the boundary where congestion
    /// backs up into the sender's output queue);
    /// [`InjectError::BadDest`] when the destination is not a node of this
    /// fabric (retrying cannot help; the caller decides whether to drop).
    fn inject(&mut self, src: NodeId, msg: Message) -> Result<(), InjectError>;

    /// The message ready for delivery at `dst` this cycle, if any.
    fn peek_eject(&self, dst: NodeId) -> Option<&Message>;

    /// Removes and returns the message ready at `dst`.
    fn eject(&mut self, dst: NodeId) -> Option<Message>;

    /// Advances the fabric by one cycle.
    fn tick(&mut self);

    /// Messages currently inside the fabric (injected, not yet ejected).
    fn in_flight(&self) -> usize;

    /// Delivery statistics.
    fn stats(&self) -> NetStats;

    /// The earliest cycle (in this network's own tick count) at which any
    /// in-flight message becomes deliverable, if the fabric can predict it.
    ///
    /// Contention-free fabrics like [`IdealNetwork`] know this exactly, which
    /// lets the machine simulator fast-forward a fully-stalled system in one
    /// jump. Fabrics with contention (the mesh) return `None` and must be
    /// ticked cycle by cycle.
    fn next_arrival(&self) -> Option<u64> {
        None
    }

    /// Advances the fabric by `cycles` cycles at once.
    ///
    /// Must be observably identical to calling [`tick`](Network::tick) that
    /// many times; the default does exactly that. Fabrics whose tick is pure
    /// time-keeping (the ideal network) override it with O(1) arithmetic.
    fn advance(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.tick();
        }
    }

    /// The first node in `from..to` that may have a message ready for
    /// ejection: every node whose [`peek_eject`](Network::peek_eject) could
    /// return a message is reported, so an ejection phase that walks these
    /// nodes in order sees exactly what a walk over every node would.
    /// Fabrics that track which ejection buffers are occupied (the switched
    /// [`Fabric`]) skip the empty ones; the default reports every node.
    fn next_eject_ready(&self, from: usize, to: usize) -> Option<usize> {
        (from < to).then_some(from)
    }
}
