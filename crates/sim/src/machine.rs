//! The multicomputer: nodes co-simulated with a network, cycle by cycle.

use std::fmt;
use std::sync::Arc;

use tcni_core::{CollectiveOp, FeatureLevel, Message, NiConfig, NodeId, WireFormat};
use tcni_cpu::{StepOutcome, TimingConfig};
use tcni_isa::{MsgType, Program};
use tcni_net::{
    CombiningTree, Fabric, FabricConfig, FabricError, FaultConfig, FaultyFabric, FullyConnected,
    IdealNetwork, InjectError, NetStats, Network, NetworkKind, Topology as _, TopologyKind,
};
use tcni_util::bits::Bitmap;

use crate::collective::{Collective, CollectiveStats};
use crate::delivery::{Delivery, DeliveryConfig, DeliveryStats, RxAction};
use crate::driver::{Activity, CycleDriver};
use crate::model::{Model, NiMapping};
use crate::node::Node;
use crate::obs::{NodeRollup, Obs, ObsReport};
use crate::trace::{Trace, TraceEvent};

/// Why a [`MachineBuilder`] cannot produce a machine. Returned by the
/// fallible [`MachineBuilder::try_new`]/[`MachineBuilder::try_build`] pair;
/// the panicking [`new`](MachineBuilder::new)/[`build`](MachineBuilder::build)
/// report the same conditions as messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildError {
    /// Zero nodes were requested.
    NoNodes,
    /// More nodes were requested than even the wide [`WireFormat`] can
    /// address (65536). Within that ceiling the builder picks the smallest
    /// format that fits, so the old 256-node rejection is now only a
    /// property of an *explicitly* requested compact format
    /// ([`BuildError::FormatTooSmall`]).
    TooManyNodes {
        /// The requested node count.
        requested: usize,
    },
    /// A wire format was pinned with [`MachineBuilder::wire_format`] but
    /// cannot address the machine's node count. The silent fix — widening
    /// behind the caller's back — would change the byte layout the caller
    /// pinned the format to get, so the builder refuses instead.
    FormatTooSmall {
        /// The pinned wire format.
        format: WireFormat,
        /// The requested node count.
        nodes: usize,
    },
    /// The configured fabric has fewer slots than the machine has nodes.
    FabricTooSmall {
        /// Topology name (`"mesh"`, `"torus"`, `"ring"`, `"full"`).
        topo: &'static str,
        /// Number of slots the configured fabric provides.
        fabric_nodes: usize,
        /// The requested node count.
        nodes: usize,
    },
    /// The configured fabric exceeds a scaling ceiling: its topology's own
    /// (the fully-connected fabric, whose per-node port count grows
    /// linearly and whose channel count grows quadratically, stops at
    /// [`FullyConnected::MAX_NODES`]) or, for any topology, the
    /// [`NodeId`] address space ([`NodeId::MAX_NODES`]).
    FabricTooLarge {
        /// Topology name.
        topo: &'static str,
        /// Number of nodes the configured fabric would have.
        nodes: usize,
        /// The ceiling it exceeds.
        max: usize,
    },
    /// The configured fabric has a zero channel, injection or ejection
    /// capacity: no packet could ever pass that buffer.
    ZeroCapacity,
    /// The configured fabric's buffers hold more packets in all than a
    /// fabric can index (`u32::MAX`).
    FabricTooDeep {
        /// Packets the buffers would hold in all (`usize::MAX` if that
        /// overflows).
        slots: usize,
        /// The ceiling.
        max: usize,
    },
    /// The delivery protocol was configured with a zero-message window
    /// ([`DeliveryConfig::window`]): no sender could ever have a message
    /// in flight.
    ZeroDeliveryWindow,
    /// A combining tree was supplied that cannot be mounted on this
    /// machine — wrong index-space size, or a geometry the configured
    /// fabric's links cannot carry (see [`TreeMismatch`]).
    CollectiveTreeMismatch(TreeMismatch),
}

/// Why a combining tree cannot be mounted, inside
/// [`BuildError::CollectiveTreeMismatch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeMismatch {
    /// The tree's node index space does not match the machine's node
    /// count: collective wire messages would address nodes that do not
    /// exist (or leave real nodes unreachable).
    Size {
        /// The tree's index-space size.
        tree_nodes: usize,
        /// The requested node count.
        nodes: usize,
    },
    /// The tree was built for a different fabric geometry: its edges
    /// assume links (mesh rows/columns, torus wrap links) the configured
    /// topology does not have, so combining traffic would dog-leg through
    /// unrelated links and the embedding guarantees would silently break.
    /// Ideal networks accept any shape (every pair is one hop).
    Shape {
        /// The tree's declared shape
        /// ([`TreeShape::name`](tcni_net::TreeShape::name)).
        tree: &'static str,
        /// The configured base fabric's topology name.
        fabric: &'static str,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            BuildError::NoNodes => write!(f, "a machine needs at least one node"),
            BuildError::TooManyNodes { requested } => {
                write!(
                    f,
                    "NodeId address space is {} nodes ({requested} requested)",
                    NodeId::MAX_NODES
                )
            }
            BuildError::FormatTooSmall { format, nodes } => {
                write!(
                    f,
                    "the {format} wire format addresses {} nodes ({nodes} requested)",
                    format.max_nodes()
                )
            }
            BuildError::FabricTooSmall {
                topo,
                fabric_nodes,
                nodes,
            } => {
                write!(
                    f,
                    "{topo} fabric ({fabric_nodes} slots) smaller than node count {nodes}"
                )
            }
            BuildError::FabricTooLarge { topo, nodes, max } => {
                write!(
                    f,
                    "{topo} fabric scales to at most {max} nodes ({nodes} requested)"
                )
            }
            BuildError::ZeroCapacity => write!(f, "fabric buffer capacities must be non-zero"),
            BuildError::FabricTooDeep { slots, max } => write!(
                f,
                "fabric buffers hold {slots} packets in all, more than the {max} a fabric indexes"
            ),
            BuildError::ZeroDeliveryWindow => write!(f, "delivery window must be at least 1"),
            BuildError::CollectiveTreeMismatch(TreeMismatch::Size { tree_nodes, nodes }) => {
                write!(
                    f,
                    "combining tree spans {tree_nodes} nodes but the machine has {nodes}"
                )
            }
            BuildError::CollectiveTreeMismatch(TreeMismatch::Shape { tree, fabric }) => {
                write!(
                    f,
                    "combining tree shaped for a {tree} cannot embed in a {fabric} fabric"
                )
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Why a [`Machine::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every processor stopped and no messages remain anywhere.
    Quiescent,
    /// Every processor stopped but messages remain in flight or queued
    /// (usually a protocol bug in the loaded programs).
    StoppedWithTraffic,
    /// The cycle budget ran out first.
    CycleLimit,
    /// The [`CycleDriver`] of a [`Machine::run_driven`] call asked to stop.
    DriverStopped,
}

/// A complete simulated multicomputer.
///
/// Each global cycle: every processor steps once; interfaces offer their
/// oldest outgoing message to the network (refusals stay queued —
/// backpressure, §2.1.1); the network advances one cycle; arrived messages
/// move into interfaces that can accept them.
///
/// The stepping loop is the simulator's hot path and carries three
/// optimizations, none of which change observable behaviour:
///
/// * the fabric is a [`NetworkKind`] enum (static dispatch, inlinable);
/// * the machine keeps three node sets — running processors, interfaces
///   with an outgoing message, interfaces with input waiting — so a
///   stopped processor is never re-scanned, and injection visits only the
///   interfaces with traffic;
/// * when every running processor is environment-stalled and a network
///   phase changes no interface state, [`run`](Machine::run) *fast-forwards*:
///   network-only cycles (or, on a predictive fabric, one arithmetic jump)
///   replace full machine cycles, and the elapsed stall time is bulk-charged
///   to the processors afterwards. Cycle accounting is bit-identical to the
///   naive loop (see `tests/prop_fast_forward.rs`); the
///   [reference mode](Machine::set_reference) disables it to cross-check.
///
/// # Example
///
/// ```
/// use tcni_isa::{Assembler, Reg};
/// use tcni_sim::{MachineBuilder, Model, RunOutcome};
///
/// let mut a = Assembler::new();
/// a.addi(Reg::R2, Reg::R0, 7);
/// a.halt();
/// let p = a.assemble().unwrap();
///
/// let mut machine = MachineBuilder::new(2)
///     .model(Model::ALL_SIX[0])
///     .program_all(p)
///     .build();
/// assert_eq!(machine.run(100), RunOutcome::Quiescent);
/// assert_eq!(machine.node(0).cpu().reg(Reg::R2), 7);
/// ```
pub struct Machine {
    nodes: Vec<Node>,
    net: NetworkKind,
    /// The wire format every interface in this machine composes under
    /// (resolved at build time; see [`MachineBuilder::wire_format`]).
    wire_format: WireFormat,
    cycle: u64,
    trace: Option<Trace>,
    obs: Option<Obs>,
    /// The optional end-to-end delivery protocol (ack/retransmit over an
    /// unreliable fabric). Like trace and obs, a machine without it pays
    /// one branch per use site.
    delivery: Option<Delivery>,
    /// The optional in-network collective engine (combining-tree barrier /
    /// broadcast / reduce; see [`Collective`]).
    collective: Option<Collective>,
    /// The nodes whose processor is still running: the processor step
    /// walks it and removes a processor that stops.
    running: Bitmap,
    /// The nodes whose interface holds an outgoing message, running or
    /// stopped: the processor step and [`Activity::touch`] add to it, and
    /// injection removes a node once its interface is empty. Injection
    /// walks it in ascending order, the fabric's arbitration order for
    /// same-destination traffic.
    outgoing: Bitmap,
    /// The nodes whose input registers may hold a message: a superset of
    /// the nodes with `msg_valid` on every cycle. Ejection adds every node
    /// it delivers to; after a driver, the set is filtered on `msg_valid`
    /// and handed to the next one.
    pending: Bitmap,
    /// Set by [`node_mut`](Machine::node_mut): external mutation may have
    /// restarted or stopped a processor, queued a message or consumed
    /// one, so the three sets must be rebuilt.
    lists_dirty: bool,
    /// The reference mode (see [`set_reference`](Machine::set_reference)).
    reference: bool,
    skipped_cycles: u64,
    /// Whether node [`CollPort`](Node::coll_request) latches may hold
    /// requests. Set wherever external code could have latched one (set
    /// refresh after `node_mut`, a driver that touched a node); the
    /// injection phase only pays the O(nodes) latch scan while this is set.
    coll_poll: bool,
}

impl Machine {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Elapsed global cycles.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The wire format this machine's interfaces compose messages under
    /// (compact through 256 nodes unless pinned otherwise at build time).
    pub fn wire_format(&self) -> WireFormat {
        self.wire_format
    }

    /// A node by index.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn node(&self, i: usize) -> &Node {
        &self.nodes[i]
    }

    /// Mutable node access.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn node_mut(&mut self, i: usize) -> &mut Node {
        self.lists_dirty = true;
        &mut self.nodes[i]
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Network statistics. The [`NetStats::scan`] effort counters merge the
    /// fabric's channel-scan work with the delivery protocol's flow-scan
    /// work, so one triple covers the whole hot-set scheduler.
    pub fn net_stats(&self) -> NetStats {
        let mut s = self.net.stats();
        if let Some(del) = self.delivery.as_ref() {
            s.scan.merge(del.scan_stats());
        }
        s
    }

    /// Messages currently inside the network fabric.
    pub fn net_in_flight(&self) -> usize {
        self.net.in_flight()
    }

    /// Enables event tracing with the given capacity (see [`Trace`]).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(Trace::new(capacity));
    }

    /// The recorded trace, if tracing is enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Enables message-lifecycle observability, retaining at most
    /// `span_capacity` completed [`crate::MsgSpan`]s (aggregates cover every
    /// message regardless). On a mesh fabric this also turns on per-link
    /// counters.
    pub fn enable_obs(&mut self, span_capacity: usize) {
        self.obs = Some(Obs::new(self.nodes.len(), span_capacity));
        if let Some(mesh) = self.net.as_fabric_mut() {
            mesh.set_observe(true);
        }
    }

    /// The observability collector, if enabled.
    pub fn obs(&self) -> Option<&Obs> {
        self.obs.as_ref()
    }

    /// A complete observability snapshot (`tcni-trace/1` payload), if
    /// observability is enabled.
    pub fn obs_report(&self) -> Option<ObsReport> {
        let obs = self.obs.as_ref()?;
        let rollups = obs.rollups();
        let nodes = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| NodeRollup {
                node: i,
                cpu: n.cpu().stats(),
                ni: n.ni().stats(),
                msgs: rollups[i],
            })
            .collect();
        Some(ObsReport {
            cycles: self.cycle,
            fabric: self.net.base_name(),
            net: self.net_stats(),
            links: self
                .net
                .as_fabric()
                .map(Fabric::link_stats)
                .unwrap_or_default(),
            nodes,
            spans: obs.spans().copied().collect(),
            spans_dropped: obs.spans_dropped(),
            spans_open: obs.spans_open(),
            trace_dropped: self.trace.as_ref().map_or(0, Trace::dropped),
            delivery: self.delivery.as_ref().map(Delivery::stats),
        })
    }

    /// Counters of the end-to-end delivery protocol, if it is enabled.
    pub fn delivery_stats(&self) -> Option<DeliveryStats> {
        self.delivery.as_ref().map(Delivery::stats)
    }

    /// Messages buffered inside the delivery protocol (retransmission
    /// buffers plus pending acks/copies), `0` when the protocol is off.
    pub fn delivery_residency(&self) -> u64 {
        self.delivery.as_ref().map_or(0, Delivery::residency)
    }

    /// The collective engine, if one was configured at build time.
    pub fn collective(&self) -> Option<&Collective> {
        self.collective.as_ref()
    }

    /// Counters of the collective engine, if it is enabled.
    pub fn collective_stats(&self) -> Option<CollectiveStats> {
        self.collective.as_ref().map(Collective::stats)
    }

    /// Contributes `value` to the collective round in progress at `node`
    /// (see [`Collective::contribute`]); an immediately-completed round
    /// (single-member tree) is posted to the node's
    /// [`coll_take_done`](Node::coll_take_done) mailbox like any other.
    ///
    /// Drivers, which see nodes but not the machine, latch requests with
    /// [`Node::coll_request`] instead; those are fed to the engine at the
    /// next injection phase and report rejections only through
    /// [`CollectiveStats`].
    ///
    /// # Errors
    ///
    /// [`InjectError::NotParticipant`] for a node outside the member set,
    /// [`InjectError::Refused`] while the node's previous round is still in
    /// flight.
    ///
    /// # Panics
    ///
    /// Panics if the machine was built without a collective engine or
    /// `node` is out of range.
    pub fn coll_start(
        &mut self,
        node: usize,
        op: CollectiveOp,
        value: u32,
    ) -> Result<(), InjectError> {
        let coll = self
            .collective
            .as_mut()
            .expect("collective engine not enabled on this machine");
        if let Some(done) = coll.contribute(node, op, value)? {
            self.nodes[node].coll_push_done(done);
        }
        Ok(())
    }

    /// The network fabric.
    pub fn network(&self) -> &NetworkKind {
        &self.net
    }

    /// Switches the reference mode on or off (off by default): the naive
    /// machine the equivalence suites cross-check the optimised one
    /// against. In reference mode [`run`](Machine::run) never
    /// fast-forwards, the fabric visits every channel and the delivery
    /// pump examines every flow each cycle. Behaviour is bit-identical either
    /// way; only wall clock, [`skipped_cycles`](Machine::skipped_cycles)
    /// and the [`NetStats::scan`] effort meters differ.
    pub fn set_reference(&mut self, on: bool) {
        self.reference = on;
        if let Some(mesh) = self.net.as_fabric_mut() {
            mesh.set_dense_scan(on);
        }
        if let Some(del) = self.delivery.as_mut() {
            del.set_dense_scan(on);
        }
    }

    /// Whether the reference mode is on.
    pub fn reference(&self) -> bool {
        self.reference
    }

    /// Cycles that were fast-forwarded (charged in bulk rather than stepped)
    /// since construction. Observability only; `cycle()` already includes
    /// them.
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped_cycles
    }

    /// Re-derives the running, outgoing and pending sets from every node.
    fn refresh_lists(&mut self) {
        self.running.clear();
        self.outgoing.clear();
        self.pending.clear();
        for (i, n) in self.nodes.iter().enumerate() {
            if !n.is_stopped() {
                self.running.insert(i);
            }
            if n.ni().peek_outgoing().is_some() {
                self.outgoing.insert(i);
            }
            if n.ni().msg_valid() {
                self.pending.insert(i);
            }
        }
        self.lists_dirty = false;
        // External code had node access (`node_mut`, a driver's cycle): it
        // may have latched collective requests.
        self.coll_poll = true;
    }

    /// Advances the whole machine one cycle.
    pub fn step(&mut self) {
        if self.lists_dirty {
            self.refresh_lists();
        }
        self.cycle_one(CpuPhase::Step);
    }

    /// Checks, between cycles, the invariants the cycle must preserve: in
    /// the network, whatever the [`NetworkKind`], the
    /// conservation law `injected − faults.dropped == delivered +
    /// in_flight` (see [`tcni_net::FaultCounters`]); in a switched fabric,
    /// the frontier and the eject-ready set against the channels; in the
    /// machine, the running set against the running processors, the
    /// outgoing set against the interfaces holding an outgoing message, and
    /// the pending set against every `msg_valid`; in the delivery protocol and the
    /// collective engine, the timer set against the unacked windows, the
    /// outbox sets and totals against the queues, and the per-flow copy and
    /// ack bookkeeping. Meant for property tests: it walks every node,
    /// channel, flow and queue, and moves no meter.
    ///
    /// # Errors
    ///
    /// A description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let s = self.net.stats();
        let in_flight = self.net.in_flight() as u64;
        if s.injected.checked_sub(s.faults.dropped) != Some(s.delivered + in_flight) {
            return Err(format!(
                "network conservation: injected={} - dropped={} != delivered={} + \
                 in_flight={in_flight}",
                s.injected, s.faults.dropped, s.delivered
            ));
        }
        if let Some(fabric) = self.net.as_fabric() {
            fabric.check_invariants()?;
        }
        if !self.lists_dirty {
            for (i, n) in self.nodes.iter().enumerate() {
                if self.running.contains(i) == n.is_stopped() {
                    return Err(format!(
                        "node {i}: running set {} but processor stopped {}",
                        self.running.contains(i),
                        n.is_stopped()
                    ));
                }
                let sends = n.ni().peek_outgoing().is_some();
                if self.outgoing.contains(i) != sends {
                    return Err(format!(
                        "node {i}: outgoing set {} but interface sending {sends}",
                        self.outgoing.contains(i)
                    ));
                }
                if n.ni().msg_valid() && !self.pending.contains(i) {
                    return Err(format!("node {i} has input waiting but is not pending"));
                }
            }
        }
        if let Some(del) = &self.delivery {
            del.check_invariants()?;
            del.check_timers(self.cycle)?;
        }
        if let Some(coll) = &self.collective {
            coll.check_invariants()?;
        }
        Ok(())
    }

    /// Feeds latched node [`CollPort`](Node::coll_request) requests into the
    /// collective engine, in ascending node order; an immediately-completed
    /// round (leafless tree) posts straight back to the node's mailbox.
    /// Rejections (busy slot, non-member) surface only through
    /// [`CollectiveStats`] — latches have no return channel.
    fn drain_coll_requests(&mut self) {
        if !self.coll_poll {
            return;
        }
        self.coll_poll = false;
        let Some(coll) = self.collective.as_mut() else {
            return;
        };
        for (i, node) in self.nodes.iter_mut().enumerate() {
            while let Some((op, value)) = node.coll_take_request() {
                if let Ok(Some(done)) = coll.contribute(i, op, value) {
                    node.coll_push_done(done);
                }
            }
        }
    }

    /// One machine cycle in the paper's three steps: processors execute,
    /// interfaces inject into the network, which advances (pushing back on
    /// them, §2.1.1), and arrivals move into the input queues. Collective
    /// latches and due timeouts go first so their messages contend for this
    /// cycle's injection slots (processors touch neither engine). Returns
    /// (every stepped processor environment-stalled, any interface state
    /// changed by the network phases).
    fn cycle_one(&mut self, cpus: CpuPhase) -> (bool, bool) {
        self.drain_coll_requests();
        if let Some(del) = self.delivery.as_mut() {
            del.pump(self.cycle);
        }
        let all_stalled = self.step_cpus(cpus);
        let mut changed = self.inject();
        self.net.tick();
        if self.net.in_flight() > 0 {
            changed |= self.eject();
        }
        self.cycle += 1;
        (all_stalled, changed)
    }

    /// The processor step: one ascending pass over the running set that
    /// steps each processor, mirrors its queue depths for observability,
    /// adds the node to `outgoing` if its interface holds an outgoing
    /// message, and removes and traces a processor that stopped. A
    /// network-only cycle steps nothing, so it changes no set. Returns
    /// whether every stepped processor was environment-stalled.
    fn step_cpus(&mut self, cpus: CpuPhase) -> bool {
        if cpus == CpuPhase::Skip {
            return true;
        }
        let cycle = self.cycle;
        let mut all_stalled = true;
        let mut from = 0;
        while let Some(i) = self.running.next(from) {
            from = i + 1;
            let node = &mut self.nodes[i];
            all_stalled &= node.step() == StepOutcome::StalledEnv;
            if let Some(o) = self.obs.as_mut() {
                // Output-depth increases are enqueues; input-depth
                // decreases are dispatches. Both only happen while the
                // CPU executes.
                mirror_depths(o, i, node, cycle);
            }
            if node.ni().peek_outgoing().is_some() {
                self.outgoing.insert(i);
            }
            if node.is_stopped() {
                self.running.remove(i);
                if let Some(t) = self.trace.as_mut() {
                    trace_stop(t, node, i, cycle);
                }
            }
        }
        if let (CpuPhase::Driven, Some(o)) = (cpus, self.obs.as_mut()) {
            // The driver's interface operations bypass the mirroring above
            // (it only visits running nodes); re-mirror every node so
            // enqueues and dispatches performed by the driver are stamped.
            // Nodes already mirrored this cycle see unchanged depths — a
            // no-op.
            for (i, node) in self.nodes.iter().enumerate() {
                mirror_depths(o, i, node, cycle);
            }
        }
        all_stalled
    }

    /// The injection step: one attempt per node with possible traffic, in
    /// ascending node order (the fabric's arbitration order). Protocol
    /// traffic can come from nodes whose interface is empty, but exactly
    /// those are on the outboxes, so merging `outgoing` and the live outbox
    /// sets visits what a full scan would; an injection only ever changes
    /// the sets at the node it serves, so no snapshot is needed. A node
    /// leaves `outgoing` once its interface is empty. Returns whether
    /// anything changed.
    fn inject(&mut self) -> bool {
        let next_del = |m: &Machine, from| m.delivery.as_ref()?.next_outbox_node(from);
        let next_coll = |m: &Machine, from| m.collective.as_ref()?.next_outbox_node(from);
        let (mut out, mut del, mut coll) =
            (self.outgoing.next(0), next_del(self, 0), next_coll(self, 0));
        let mut changed = false;
        while let Some(i) = [out, del, coll].into_iter().flatten().min() {
            changed |= self.inject_one(i);
            if out == Some(i) {
                if self.nodes[i].ni().peek_outgoing().is_none() {
                    self.outgoing.remove(i);
                }
                out = self.outgoing.next(i + 1);
            }
            if del == Some(i) {
                del = next_del(self, i + 1);
            }
            if coll == Some(i) {
                coll = next_coll(self, i + 1);
            }
        }
        changed
    }

    /// The injection step for one node: at most one injection per cycle.
    /// Protocol copies (acks, retransmits) take the slot ahead of queued
    /// collective messages, which take it ahead of fresh NI sends; fresh
    /// sends under the protocol are stamped, window-gated, and buffered for
    /// retransmission. Returns whether anything changed.
    fn inject_one(&mut self, i: usize) -> bool {
        let cycle = self.cycle;
        let src = NodeId::from_index(i);
        if let Some(del) = self.delivery.as_mut() {
            if let Some(msg) = del.outbox_front(i).copied() {
                return match self.net.inject(src, msg) {
                    // Congestion: the copy stays queued and retries.
                    Err(InjectError::Refused(_)) => false,
                    // Injected — or undeliverable, which protocol peers
                    // (real nodes) never are, but a bad message must not
                    // wedge the outbox.
                    _ => {
                        del.outbox_pop(i);
                        true
                    }
                };
            }
        }
        if let Some(coll) = self.collective.as_mut() {
            if let Some(msg) = coll.outbox_front(i).copied() {
                let del = self.delivery.as_mut();
                return inject_coll_one(&mut self.net, del, coll, i, msg, cycle);
            }
        }
        let Some(mut msg) = self.nodes[i].ni().peek_outgoing().copied() else {
            return false;
        };
        if let Some(o) = self.obs.as_ref() {
            // Stamp the would-be sequence number; it is committed only if
            // the fabric accepts the injection.
            msg.seq = o.peek_seq();
        }
        if let Some(del) = self.delivery.as_mut() {
            let dst = msg.dest().index();
            if dst < self.net.node_count() {
                if !del.can_admit(i, dst) {
                    // Window full: back-pressure into the output queue
                    // exactly like a refused injection.
                    return false;
                }
                // Pure stamp: a refused injection retries with the same psn.
                del.stamp(i, dst, &mut msg);
            }
        }
        match self.net.inject(src, msg) {
            Ok(()) => {
                self.nodes[i].ni_mut().pop_outgoing();
                if let (Some(del), Some(_)) = (self.delivery.as_mut(), msg.e2e) {
                    del.commit(i, msg.dest().index(), msg, cycle);
                }
                if let Some(o) = self.obs.as_mut() {
                    o.on_inject(i, msg.seq, cycle);
                }
                if let Some(t) = self.trace.as_mut() {
                    t.record(TraceEvent::Sent {
                        cycle,
                        node: i,
                        msg,
                    });
                }
                true
            }
            // Congestion: the message stays queued and the send retries next
            // cycle (backpressure, §2.1.1).
            Err(InjectError::Refused(_)) => false,
            Err(InjectError::BadDest(_) | InjectError::NotParticipant(_)) => {
                drop_bad_dest(&mut self.nodes[i], self.obs.as_mut(), i);
                true
            }
        }
    }

    /// The ejection step: network → interfaces, visiting only the nodes
    /// the fabric reports eject-ready. Adds every node whose interface
    /// received a message to `pending`. Returns whether any interface
    /// state changed.
    fn eject(&mut self) -> bool {
        let cycle = self.cycle;
        let observed = self.obs.is_some();
        let mut changed = false;
        let mut from = 0;
        while let Some(i) = self.net.next_eject_ready(from) {
            from = i + 1;
            let dst = NodeId::from_index(i);
            while let Some(peeked) = self.net.peek_eject(dst).copied() {
                let node = &mut self.nodes[i];
                // Collective traffic lands in the engine, which always
                // accepts: it never enters (or backpressures) the NI input
                // queue.
                let engine = if peeked.mtype == MsgType::COLLECTIVE {
                    self.collective.as_mut()
                } else {
                    None
                };
                let engine_bound = engine.is_some();
                let protocol = peeked.e2e.and(self.delivery.as_mut());
                let mut msg = if let Some(del) = protocol {
                    // A protocol-controlled arrival: the delivery layer
                    // decides its fate before the interface sees it.
                    let deliver = del.rx_action(i, &peeked) == RxAction::Deliver;
                    if deliver && !engine_bound && !node.ni().can_accept(&peeked) {
                        break; // backpressure: leave it in the network
                    }
                    let msg = self.net.eject(dst).expect("peeked");
                    changed = true;
                    if !deliver {
                        // Ack, duplicate, gap, or corruption: eaten by the
                        // protocol, never enters the interface.
                        del.on_consumed(i, &msg, cycle);
                        continue;
                    }
                    del.on_delivered(i, &msg);
                    msg
                } else {
                    if !engine_bound && !node.ni().can_accept(&peeked) {
                        break; // backpressure: leave it in the network
                    }
                    changed = true;
                    self.net.eject(dst).expect("peeked")
                };
                if let Some(coll) = engine {
                    // Collective plumbing stays out of the trace/obs streams
                    // (it models NI hardware, not program traffic).
                    msg.e2e = None;
                    if let Some(done) = coll.on_message(i, &msg) {
                        node.coll_push_done(done);
                    }
                    continue;
                }
                if let Some(t) = self.trace.as_mut() {
                    // Stamped cycle+1: the first cycle the receiving CPU can
                    // observe the message, so Delivered − Sent equals the
                    // fabric-accounted latency (see `TraceEvent`).
                    t.record(TraceEvent::Delivered {
                        cycle: cycle + 1,
                        node: i,
                        msg,
                    });
                }
                // The header is sideband plumbing; the interface receives
                // the architected message.
                msg.e2e = None;
                let ni = node.ni_mut();
                let depth_before = if observed {
                    ni.input_len() + usize::from(ni.msg_valid())
                } else {
                    0
                };
                ni.push_incoming(msg).expect("can_accept checked");
                self.pending.insert(i);
                if let Some(o) = self.obs.as_mut() {
                    // An unchanged input depth means the interface diverted
                    // the message to the privileged queue.
                    let depth_after = ni.input_len() + usize::from(ni.msg_valid());
                    o.on_deliver(i, msg.seq, cycle + 1, depth_after == depth_before);
                }
            }
        }
        changed
    }

    /// Whether any interface or the collective engine holds outgoing
    /// messages.
    fn any_outgoing(&self) -> bool {
        !self.outgoing.is_empty() || self.collective.as_ref().is_some_and(|c| c.outgoing() > 0)
    }

    /// The quiescence fast-forward. Entry condition (established by the
    /// caller): every running processor just spent a cycle
    /// environment-stalled *and* the network phases changed no interface
    /// state. A stalled instruction has no side effects and re-executes
    /// identically while the interface state it waits on is unchanged, so
    /// until an injection or delivery succeeds the processor phase is pure
    /// accounting: run network-only cycles — or jump, when the fabric can
    /// predict its next arrival — and bulk-charge the stall cycles at the
    /// end.
    fn fast_forward(&mut self, limit: u64) {
        let mut skipped: u64 = 0;
        while self.cycle < limit {
            // The delivery protocol runs timers (retransmission timeouts)
            // that must observe every cycle; while it has work in flight,
            // only the step-by-step path below is correct.
            let protocol_busy = self.delivery.as_ref().is_some_and(Delivery::active);
            if !protocol_busy && !self.any_outgoing() {
                if self.net.in_flight() == 0 {
                    // Nothing in flight and nothing to send: every stalled
                    // processor waits forever (e.g. SCROLL-IN on a flit that
                    // was never sent). Charge the remaining budget at once.
                    skipped += limit - self.cycle;
                    self.cycle = limit;
                    break;
                }
                if let Some(arrival) = self.net.next_arrival() {
                    // The tick of cycle c raises network time to c+1, so the
                    // earliest cycle whose delivery phase can see a message
                    // arriving at network time `a` is cycle a−1.
                    let target = arrival.saturating_sub(1).min(limit);
                    if target > self.cycle {
                        let delta = target - self.cycle;
                        self.net.advance(delta);
                        self.cycle += delta;
                        skipped += delta;
                        continue;
                    }
                }
            }
            let (_, changed) = self.cycle_one(CpuPhase::Skip);
            skipped += 1;
            if changed {
                break;
            }
        }
        self.skipped_cycles += skipped;
        for i in self.running.iter() {
            self.nodes[i].skip_env_stall(skipped);
        }
    }

    /// Whether every processor has stopped and all message state is empty
    /// (including the delivery protocol's retransmission buffers, if any).
    pub fn is_quiescent(&self) -> bool {
        self.nodes.iter().all(Node::is_quiescent)
            && self.net.in_flight() == 0
            && !self.delivery.as_ref().is_some_and(Delivery::active)
            && !self.collective.as_ref().is_some_and(Collective::active)
    }

    /// Runs until every processor stops (halt or fault) or `max_cycles`
    /// elapse.
    pub fn run(&mut self, max_cycles: u64) -> RunOutcome {
        if self.lists_dirty {
            self.refresh_lists();
        }
        let limit = self.cycle.saturating_add(max_cycles);
        while self.cycle < limit {
            if self.running.is_empty() {
                if self.is_quiescent() {
                    return RunOutcome::Quiescent;
                }
                // With the delivery protocol or collective engine on,
                // traffic can still be resolved after every processor
                // stops: in-flight copies get consumed, timeouts
                // retransmit, budgets expire, queued combines inject. Keep
                // the network phases (which pump both) running until the
                // machine settles one way or the other. Open collective
                // slots with no queued or in-flight messages cannot
                // progress without new contributions, so they fall through
                // to `StoppedWithTraffic` rather than spinning forever.
                if (self.delivery.is_some() || self.collective.is_some())
                    && (self.net.in_flight() > 0
                        || !self.outgoing.is_empty()
                        || self.delivery.as_ref().is_some_and(Delivery::active)
                        || self.collective.as_ref().is_some_and(|c| c.outgoing() > 0))
                {
                    self.cycle_one(CpuPhase::Skip);
                    continue;
                }
                return RunOutcome::StoppedWithTraffic;
            }
            let (all_stalled, changed) = self.cycle_one(CpuPhase::Step);
            if !self.reference && all_stalled && !changed && !self.running.is_empty() {
                self.fast_forward(limit);
            }
        }
        if self.is_quiescent() {
            RunOutcome::Quiescent
        } else {
            RunOutcome::CycleLimit
        }
    }

    /// Runs with a [`CycleDriver`] supplying the per-cycle stimulus: each
    /// cycle, the driver acts first (in the position of the processor phase),
    /// then any still-running processors step, then the normal network phases
    /// run. Returns when the driver asks to stop or `max_cycles` elapse.
    ///
    /// Unlike [`run`](Machine::run), a driven machine never fast-forwards —
    /// the driver is assumed to have work every cycle — and does not stop
    /// just because every processor halted: load generators run entirely on
    /// machines whose CPUs halt at cycle 0.
    ///
    /// The driver is called through [`CycleDriver::on_cycle_active`], the
    /// activity contract (see [`Activity`]): it receives the nodes with
    /// input waiting and reports the nodes it queued traffic on, which join
    /// the machine's outgoing set. Per-cycle machine work outside the
    /// fabric then tracks the traffic, not the node count. A driver that
    /// reports [`touch_all`](Activity::touch_all) (the default for one that
    /// implements only `on_cycle`) costs one sweep over every node per
    /// cycle instead.
    pub fn run_driven<D: CycleDriver>(&mut self, driver: &mut D, max_cycles: u64) -> RunOutcome {
        let limit = self.cycle.saturating_add(max_cycles);
        if self.lists_dirty {
            self.refresh_lists();
        }
        while self.cycle < limit {
            let go_on = self.drive(driver);
            self.cycle_one(CpuPhase::Driven);
            if !go_on {
                return RunOutcome::DriverStopped;
            }
        }
        RunOutcome::CycleLimit
    }

    /// The driver step of a driven cycle, with the set upkeep of the
    /// activity contract after it: touched nodes are already in
    /// `outgoing`, and `pending` drops the nodes the driver consumed.
    fn drive<D: CycleDriver>(&mut self, driver: &mut D) -> bool {
        let mut act = Activity::new(&self.pending, &mut self.outgoing);
        let go_on = driver.on_cycle_active(self.cycle, &mut self.nodes, &mut act);
        if act.all() {
            self.refresh_lists();
            return go_on;
        }
        // A touched node may have latched a collective request.
        self.coll_poll |= act.touched();
        let mut from = 0;
        while let Some(i) = self.pending.next(from) {
            from = i + 1;
            if !self.nodes[i].ni().msg_valid() {
                self.pending.remove(i);
            }
        }
        go_on
    }
}

/// How a cycle treats the processors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CpuPhase {
    /// A network-only cycle (the fast-forward, the post-halt drain):
    /// running processors are not stepped.
    Skip,
    /// Every running processor steps once.
    Step,
    /// As `Step`, then every node's queue depths are re-mirrored for
    /// observability: a driver operated on interfaces directly.
    Driven,
}

/// Injects the head of node `i`'s collective outbox like a fresh NI send
/// (window-gated and stamped under the delivery protocol, so combining
/// trees ride the go-back-N edges over faulty fabrics) but invisible to
/// trace/obs — it models NI hardware, not program traffic. Returns whether
/// anything changed.
fn inject_coll_one(
    net: &mut NetworkKind,
    mut del: Option<&mut Delivery>,
    coll: &mut Collective,
    i: usize,
    mut msg: Message,
    cycle: u64,
) -> bool {
    if let Some(del) = del.as_deref_mut() {
        // Tree edges connect real nodes, so the destination always indexes
        // a delivery flow.
        let dst = msg.dest().index();
        if !del.can_admit(i, dst) {
            return false;
        }
        del.stamp(i, dst, &mut msg);
    }
    let result = net.inject(NodeId::from_index(i), msg);
    if matches!(result, Err(InjectError::Refused(_))) {
        // Congestion: retries next cycle.
        return false;
    }
    // Injected — or undeliverable (tree members are real nodes, but a bad
    // message must not wedge the outbox).
    coll.outbox_pop(i);
    if let (Some(del), Ok(())) = (del, result) {
        del.commit(i, msg.dest().index(), msg, cycle);
    }
    true
}

/// Records stopped node `i`'s `Halted` or `Faulted` event.
#[cold]
fn trace_stop(t: &mut Trace, node: &Node, i: usize, cycle: u64) {
    match node.cpu_state() {
        tcni_cpu::CpuState::Halted => t.record(TraceEvent::Halted { cycle, node: i }),
        tcni_cpu::CpuState::Faulted { reason, .. } => t.record(TraceEvent::Faulted {
            cycle,
            node: i,
            reason: reason.clone(),
        }),
        tcni_cpu::CpuState::Running => {}
    }
}

/// Mirrors node `i`'s interface queue depths into the observability
/// collector.
fn mirror_depths(obs: &mut Obs, i: usize, node: &Node, cycle: u64) {
    let ni = node.ni();
    let out_len = ni.output_len();
    let in_depth = ni.input_len() + usize::from(ni.msg_valid());
    obs.after_cpu_node(i, out_len, in_depth, cycle);
}

/// The undeliverable-message path of injection, out of line: dropping it
/// beats wedging the output queue forever behind a message no fabric can
/// route, and keeping the code out of the injection loop keeps the common
/// path tight.
#[cold]
#[inline(never)]
fn drop_bad_dest(node: &mut Node, obs: Option<&mut Obs>, i: usize) {
    node.ni_mut().pop_outgoing();
    if let Some(o) = obs {
        o.on_bad_dest(i);
    }
}

/// Which network fabric a [`MachineBuilder`] instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NetChoice {
    Ideal { latency: u64 },
    Fabric(FabricConfig),
}

/// Builds a [`Machine`].
///
/// Defaults: optimized register-mapped model, paper timing (2-cycle off-chip
/// penalty), 16-message queues, 64 KiB memory per node, ideal zero-latency
/// network, and an empty (immediately halting) program on every node.
pub struct MachineBuilder {
    node_count: usize,
    model: Model,
    timing: TimingConfig,
    ni_config: NiConfig,
    wire_format: Option<WireFormat>,
    memory_bytes: usize,
    net: NetChoice,
    fault: Option<FaultConfig>,
    delivery: Option<DeliveryConfig>,
    programs: Vec<Option<Program>>,
    default_program: Program,
    collective: Option<CombiningTree>,
}

impl MachineBuilder {
    /// Starts a builder for `node_count` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `node_count` is zero or exceeds the wide wire format's
    /// 65536-node address space (see [`MachineBuilder::try_new`] for the
    /// fallible form).
    pub fn new(node_count: usize) -> MachineBuilder {
        match MachineBuilder::try_new(node_count) {
            Ok(b) => b,
            Err(e) => panic!("{e}"),
        }
    }

    /// Starts a builder for `node_count` nodes, rejecting impossible
    /// machines with a typed error instead of panicking.
    ///
    /// # Errors
    ///
    /// [`BuildError::NoNodes`] for zero nodes; [`BuildError::TooManyNodes`]
    /// beyond the wide [`WireFormat`]'s 65536-node address space. Within
    /// that ceiling the builder selects the smallest format that fits
    /// (compact through 256 nodes — the paper's exact byte layout — wide
    /// beyond), overridable with [`wire_format`](Self::wire_format).
    pub fn try_new(node_count: usize) -> Result<MachineBuilder, BuildError> {
        if node_count == 0 {
            return Err(BuildError::NoNodes);
        }
        if node_count > NodeId::MAX_NODES {
            return Err(BuildError::TooManyNodes {
                requested: node_count,
            });
        }
        let mut halt = tcni_isa::Assembler::new();
        halt.halt();
        Ok(MachineBuilder {
            node_count,
            model: Model::new(NiMapping::RegisterFile, FeatureLevel::Optimized),
            timing: TimingConfig::new(),
            ni_config: NiConfig::default(),
            wire_format: None,
            memory_bytes: 64 * 1024,
            net: NetChoice::Ideal { latency: 0 },
            fault: None,
            delivery: None,
            programs: vec![None; node_count],
            default_program: halt.assemble().expect("trivial program"),
            collective: None,
        })
    }

    /// Selects one of the six §4 models.
    pub fn model(mut self, model: Model) -> MachineBuilder {
        self.model = model;
        self.ni_config.features = model.level.into();
        self
    }

    /// Overrides the timing configuration (e.g. the off-chip latency sweep).
    pub fn timing(mut self, timing: TimingConfig) -> MachineBuilder {
        self.timing = timing;
        self
    }

    /// Pins the wire format instead of letting the builder pick the
    /// smallest fit. Pinning [`WireFormat::Wide`] on a small machine is how
    /// a wide-format deployment is modelled at reduced scale; pinning
    /// [`WireFormat::Compact`] asserts the paper's byte layout and makes
    /// [`try_build`](Self::try_build) fail with
    /// [`BuildError::FormatTooSmall`] if the node count outgrows it.
    pub fn wire_format(mut self, format: WireFormat) -> MachineBuilder {
        self.wire_format = Some(format);
        self
    }

    /// Overrides interface queue sizing (keeps the model's feature set).
    pub fn ni_queues(mut self, input: usize, output: usize) -> MachineBuilder {
        self.ni_config.input_capacity = input;
        self.ni_config.output_capacity = output;
        self
    }

    /// Sets per-node memory size in bytes.
    pub fn memory_bytes(mut self, bytes: usize) -> MachineBuilder {
        self.memory_bytes = bytes;
        self
    }

    /// Uses an ideal fixed-latency network (default: latency 0).
    pub fn network_ideal(mut self, latency: u64) -> MachineBuilder {
        self.net = NetChoice::Ideal { latency };
        self
    }

    /// Uses a switched network fabric (mesh, torus, ring, or
    /// fully-connected, per [`FabricConfig::topo`]).
    ///
    /// # Panics
    ///
    /// Never here. [`build`](Self::build) panics, and
    /// [`try_build`](Self::try_build) returns the matching [`BuildError`],
    /// if the fabric has fewer slots than the node count, exceeds its
    /// topology's ceiling or the [`NodeId`] address space, or has a zero
    /// buffer capacity.
    pub fn network_fabric(mut self, config: FabricConfig) -> MachineBuilder {
        self.net = NetChoice::Fabric(config);
        self
    }

    /// Uses a switched network fabric of the given topology with default
    /// buffer capacities — the runtime topology-selection surface
    /// (equivalent to `network_fabric(FabricConfig::of(topo))`).
    ///
    /// # Panics
    ///
    /// Never here. [`build`](Self::build) panics, and
    /// [`try_build`](Self::try_build) returns the matching [`BuildError`],
    /// if the fabric has fewer slots than the node count or exceeds its
    /// topology's ceiling or the [`NodeId`] address space.
    pub fn topology(self, topo: TopologyKind) -> MachineBuilder {
        self.network_fabric(FabricConfig::of(topo))
    }

    /// Wraps the chosen fabric in a seeded fault-injection layer (see
    /// [`FaultyFabric`]). A zero-rate config is an exact pass-through; any
    /// nonzero rate makes the fabric unreliable, which the paper's programs
    /// do not tolerate unless [`delivery`](Self::delivery) is also enabled.
    pub fn network_fault(mut self, config: FaultConfig) -> MachineBuilder {
        self.fault = Some(config);
        self
    }

    /// Enables the end-to-end delivery protocol (ack/timeout/retransmit; see
    /// [`crate::Delivery`]'s module docs), restoring exactly-once in-order
    /// delivery over a faulty fabric.
    ///
    /// # Panics
    ///
    /// Never here. [`build`](Self::build) panics, and
    /// [`try_build`](Self::try_build) returns
    /// [`BuildError::ZeroDeliveryWindow`], if `config.window` is zero.
    pub fn delivery(mut self, config: DeliveryConfig) -> MachineBuilder {
        self.delivery = Some(config);
        self
    }

    /// Enables the in-network collective engine over the given combining
    /// tree (see [`Collective`]): barrier, broadcast, and reduce as NIC
    /// primitives, combined at each tree node's interface instead of at the
    /// root processor. The tree's index space must match the node count,
    /// and its [`TreeShape`](tcni_net::TreeShape) must embed in the
    /// configured fabric's topology
    /// ([`BuildError::CollectiveTreeMismatch`] otherwise; ideal networks
    /// accept any shape). Machines built without this pay nothing for it.
    pub fn collective(mut self, tree: CombiningTree) -> MachineBuilder {
        self.collective = Some(tree);
        self
    }

    /// Loads a program on one node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn program(mut self, node: usize, program: Program) -> MachineBuilder {
        self.programs[node] = Some(program);
        self
    }

    /// Loads the same program on every node.
    pub fn program_all(mut self, program: Program) -> MachineBuilder {
        self.default_program = program;
        self
    }

    /// Builds the machine.
    ///
    /// # Panics
    ///
    /// Panics on any configuration [`MachineBuilder::try_build`] rejects,
    /// with the same message.
    pub fn build(self) -> Machine {
        match self.try_build() {
            Ok(m) => m,
            Err(e) => panic!("{e}"),
        }
    }

    /// Builds the machine, rejecting inconsistent configurations with a
    /// typed error instead of panicking.
    ///
    /// # Errors
    ///
    /// [`BuildError::FabricTooSmall`] when the configured fabric has fewer
    /// slots than the machine has nodes; [`BuildError::FabricTooLarge`]
    /// when a fully-connected fabric exceeds its scaling ceiling or any
    /// fabric exceeds the [`NodeId`] address space;
    /// [`BuildError::ZeroCapacity`] when a fabric buffer capacity is zero;
    /// [`BuildError::FabricTooDeep`] when its buffers hold more than
    /// `u32::MAX` packets in all;
    /// [`BuildError::ZeroDeliveryWindow`] when the delivery protocol's
    /// window is zero; [`BuildError::FormatTooSmall`] when a pinned wire format cannot
    /// address the node count;
    /// [`BuildError::CollectiveTreeMismatch`] when a combining tree's size
    /// or shape does not fit the machine and its fabric.
    pub fn try_build(mut self) -> Result<Machine, BuildError> {
        // Resolve the wire format: the pinned one (checked), or the
        // smallest fit (total within try_new's 65536-node ceiling).
        let wire_format = match self.wire_format {
            Some(fmt) if self.node_count > fmt.max_nodes() => {
                return Err(BuildError::FormatTooSmall {
                    format: fmt,
                    nodes: self.node_count,
                });
            }
            Some(fmt) => fmt,
            None => WireFormat::for_nodes(self.node_count).expect("try_new bounds node_count"),
        };
        // Every NI in the machine composes messages under this format.
        self.ni_config.wire_format = wire_format;
        let mut net: NetworkKind = match self.net {
            NetChoice::Ideal { latency } => IdealNetwork::new(self.node_count, latency).into(),
            NetChoice::Fabric(cfg) => {
                // Cap checks run before construction: a too-large
                // fully-connected fabric would otherwise allocate its
                // quadratic channel table just to be rejected.
                if let TopologyKind::Full(fc) = cfg.topo {
                    if fc.nodes > FullyConnected::MAX_NODES {
                        return Err(BuildError::FabricTooLarge {
                            topo: cfg.topo.name(),
                            nodes: fc.nodes,
                            max: FullyConnected::MAX_NODES,
                        });
                    }
                }
                if cfg.topo.nodes() < self.node_count {
                    return Err(BuildError::FabricTooSmall {
                        topo: cfg.topo.name(),
                        fabric_nodes: cfg.topo.nodes(),
                        nodes: self.node_count,
                    });
                }
                Fabric::try_new(cfg)
                    .map_err(|e| match e {
                        FabricError::TooLarge { nodes, max } => BuildError::FabricTooLarge {
                            topo: cfg.topo.name(),
                            nodes,
                            max,
                        },
                        FabricError::ZeroCapacity => BuildError::ZeroCapacity,
                        FabricError::TooDeep { slots, max } => {
                            BuildError::FabricTooDeep { slots, max }
                        }
                    })?
                    .into()
            }
        };
        if let Some(fault) = self.fault {
            net = FaultyFabric::new(net, fault).into();
        }
        if self.delivery.is_some_and(|cfg| cfg.window == 0) {
            return Err(BuildError::ZeroDeliveryWindow);
        }
        let delivery = self
            .delivery
            .map(|cfg| Delivery::new(self.node_count, cfg, wire_format));
        if let Some(tree) = &self.collective {
            if tree.len() != self.node_count {
                return Err(BuildError::CollectiveTreeMismatch(TreeMismatch::Size {
                    tree_nodes: tree.len(),
                    nodes: self.node_count,
                }));
            }
            // The tree's geometry must be carriable by the base fabric's
            // links; the ideal network embeds any shape (uniform latency,
            // every pair one hop).
            if let NetChoice::Fabric(cfg) = self.net {
                if !tree.shape().embeds_in(&cfg.topo) {
                    return Err(BuildError::CollectiveTreeMismatch(TreeMismatch::Shape {
                        tree: tree.shape().name(),
                        fabric: cfg.topo.name(),
                    }));
                }
            }
        }
        let collective = self
            .collective
            .map(|tree| Collective::new(tree, wire_format));
        // The default program is shared across nodes, not cloned per node.
        let default_program = Arc::new(self.default_program);
        let nodes: Vec<Node> = self
            .programs
            .into_iter()
            .map(|p| {
                let program = match p {
                    Some(p) => Arc::new(p),
                    None => Arc::clone(&default_program),
                };
                Node::new(
                    self.model,
                    self.timing,
                    self.ni_config,
                    self.memory_bytes,
                    program,
                )
            })
            .collect();
        let mut machine = Machine {
            nodes,
            net,
            wire_format,
            cycle: 0,
            trace: None,
            obs: None,
            delivery,
            collective,
            running: Bitmap::new(self.node_count),
            outgoing: Bitmap::new(self.node_count),
            pending: Bitmap::new(self.node_count),
            lists_dirty: true,
            reference: false,
            skipped_cycles: 0,
            coll_poll: false,
        };
        machine.refresh_lists();
        Ok(machine)
    }
}
