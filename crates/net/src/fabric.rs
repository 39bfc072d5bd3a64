//! The switched fabric: finite channel FIFOs, one packet per link per
//! cycle, and backpressure, over a pluggable [`Topology`].
//!
//! Historically this was a hard-coded 2-D mesh (`Mesh2d`); the routing
//! geometry is now delegated to a [`TopologyKind`], so the same switched
//! core — including the active-channel frontier and per-link
//! observability — serves mesh, torus, ring, and fully-connected fabrics.
//! For the mesh the channel layout and scan order are bit-identical to the
//! original: channels are numbered `node * stride + role` with role 0 =
//! inject, roles `1..=ports` the topology's ports in order, and role
//! `stride - 1` = eject, which for the mesh reproduces the historical
//! inject/east/west/north/south/eject layout exactly.
//!
//! Each tick walks the active-channel frontier (or every slot, under the
//! dense cross-check) in ascending slot order and attempts one head-of-line
//! move per occupied movable channel. Injection, the move and ejection each
//! keep the frontier and eject-ready bitmaps, the [`NetStats`] counters, the
//! in-flight count and, when observed, the per-link counters up to date in
//! place.

use std::collections::VecDeque;
use std::fmt;

use tcni_core::{Message, NodeId};

use crate::stats::NetStats;
use crate::topology::{Hop, Topology, TopologyKind};
use crate::{InjectError, Network};

/// Configuration for [`Fabric`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricConfig {
    /// The interconnect shape.
    pub topo: TopologyKind,
    /// Capacity of each directional link FIFO, in packets.
    pub channel_capacity: usize,
    /// Capacity of each node's injection FIFO.
    pub inject_capacity: usize,
    /// Capacity of each node's ejection FIFO (the buffer the NI drains).
    pub eject_capacity: usize,
}

impl FabricConfig {
    /// A `width × height` mesh with small (4-packet) buffers everywhere —
    /// shallow enough that congestion visibly backs up, as §2.1.1 describes.
    pub fn new(width: usize, height: usize) -> FabricConfig {
        FabricConfig::of(TopologyKind::mesh(width, height))
    }

    /// Any topology with the same small default buffers.
    pub fn of(topo: TopologyKind) -> FabricConfig {
        FabricConfig {
            topo,
            channel_capacity: 4,
            inject_capacity: 4,
            eject_capacity: 4,
        }
    }

    /// A `width × height` torus with default buffers.
    pub fn torus(width: usize, height: usize) -> FabricConfig {
        FabricConfig::of(TopologyKind::torus(width, height))
    }

    /// A ring of `nodes` nodes with default buffers.
    pub fn ring(nodes: usize) -> FabricConfig {
        FabricConfig::of(TopologyKind::ring(nodes))
    }

    /// A fully-connected fabric of `nodes` nodes with default buffers.
    pub fn full(nodes: usize) -> FabricConfig {
        FabricConfig::of(TopologyKind::full(nodes))
    }
}

/// Why a [`FabricConfig`] cannot be built into a [`Fabric`]
/// ([`Fabric::try_new`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricError {
    /// The topology has more nodes than [`NodeId`]'s wide-format address
    /// space ([`NodeId::MAX_NODES`]).
    TooLarge {
        /// Number of nodes the topology would have.
        nodes: usize,
        /// The address-space ceiling.
        max: usize,
    },
    /// A channel, injection or ejection capacity is zero: no packet could
    /// ever pass that FIFO.
    ZeroCapacity,
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FabricError::TooLarge { nodes, max } => write!(
                f,
                "fabric of {nodes} nodes is larger than the {max}-node NodeId address space"
            ),
            FabricError::ZeroCapacity => write!(f, "fabric buffer capacities must be non-zero"),
        }
    }
}

impl std::error::Error for FabricError {}

/// Per-channel observability counters (see [`Fabric::set_observe`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// High-water mark of the channel FIFO's occupancy, in packets.
    pub hwm: usize,
    /// Head-of-line moves out of this channel that were blocked by a full
    /// downstream buffer.
    pub blocked: u64,
}

/// One channel's stats with its location, as reported by
/// [`Fabric::link_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkReport {
    /// The node the channel belongs to.
    pub node: usize,
    /// The channel role (`"inject"`, `"eject"`, or a topology port name
    /// such as `"east"` or `"cw0"`).
    pub dir: &'static str,
    /// The counters.
    pub stats: LinkStats,
}

#[derive(Debug)]
struct Packet {
    msg: Message,
    injected_at: u64,
    moved_at: u64,
}

// Channel-layout arithmetic, shared by the channel operations, the
// invariant check and the link report. A node's channels are
// `node * stride + role` with role 0 = inject, role `1 + p` = topology port
// `p`, role `stride - 1` = eject. Frontier slots order the movable roles
// ports-first, inject-last: `node * move_slots + rank` with rank `p` for
// port `p` and rank `ports` for inject — for the mesh this is exactly the
// historical east/west/north/south/inject move order.

const INJECT_ROLE: usize = 0;

/// The movable role of frontier slot `slot % move_slots`.
fn role_of_rank(rank: usize, ports: usize) -> usize {
    if rank == ports {
        INJECT_ROLE
    } else {
        rank + 1
    }
}

/// The frontier rank of movable role `role` (inject or a port).
fn rank_of_role(role: usize, ports: usize) -> usize {
    if role == INJECT_ROLE {
        ports
    } else {
        role - 1
    }
}

fn cap_of_c(config: &FabricConfig, role: usize, stride: usize) -> usize {
    if role == INJECT_ROLE {
        config.inject_capacity
    } else if role == stride - 1 {
        config.eject_capacity
    } else {
        config.channel_capacity
    }
}

fn chan_of(node: usize, role: usize, stride: usize) -> usize {
    node * stride + role
}

/// The ejection channel of node `dst`.
fn eject_chan(topo: &TopologyKind, dst: NodeId) -> usize {
    let stride = topo.stride();
    chan_of(dst.index(), stride - 1, stride)
}

/// The node, role and channel index of frontier slot `slot`.
fn slot_chan(topo: &TopologyKind, slot: usize) -> (usize, usize, usize) {
    let move_slots = topo.move_slots();
    let node = slot / move_slots;
    let role = role_of_rank(slot % move_slots, topo.ports());
    (node, role, chan_of(node, role, topo.stride()))
}

/// The next hop of a packet bound for `dst` at the head of movable channel
/// `(node, role)`: the node it is located at (a link's far end, or the node
/// itself for inject), and the role and index of the channel it moves into.
fn next_hop(topo: &TopologyKind, node: usize, role: usize, dst: usize) -> (usize, usize, usize) {
    let loc = if role == INJECT_ROLE {
        node
    } else {
        topo.port_target(node, role - 1)
    };
    let role = match topo.route(loc, dst) {
        Hop::Port(p) => 1 + p,
        Hop::Eject => topo.stride() - 1,
    };
    (loc, role, chan_of(loc, role, topo.stride()))
}

/// Whether bit `i` of a bitmap is set.
fn bit(words: &[u64], i: usize) -> bool {
    words[i / 64] & (1u64 << (i % 64)) != 0
}

fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1u64 << (i % 64);
}

fn clear_bit(words: &mut [u64], i: usize) {
    words[i / 64] &= !(1u64 << (i % 64));
}

/// A switched network over a [`TopologyKind`]: deterministic per-hop
/// routing, one packet per link per cycle, finite per-channel FIFOs, and
/// backpressure that propagates from a stalled receiver all the way to
/// senders' injection buffers.
///
/// Dimension-order (and, on wrapped topologies, dateline-VC) routing over
/// per-port FIFOs is deadlock-free, and because every source/destination
/// pair uses a single deterministic path of FIFOs, point-to-point
/// ordering is preserved (required by SCROLL flits, §2.1.2).
///
/// # Example
///
/// ```
/// use tcni_core::{Message, NodeId};
/// use tcni_isa::MsgType;
/// use tcni_net::{Fabric, FabricConfig, Network};
///
/// let mut net = Fabric::new(FabricConfig::new(2, 2));
/// let m = Message::to(NodeId::new(3), [0, 0, 0, 0, 0], MsgType::new(2).unwrap());
/// net.inject(NodeId::new(0), m).unwrap();
/// for _ in 0..8 { net.tick(); }
/// assert!(net.eject(NodeId::new(3)).is_some());
/// ```
pub struct Fabric {
    config: FabricConfig,
    chans: Vec<VecDeque<Packet>>,
    now: u64,
    in_flight: usize,
    stats: NetStats,
    /// Whether per-link counters are maintained (off by default: the
    /// per-hop updates, while cheap, are not free — see
    /// [`set_observe`](Fabric::set_observe)).
    observe: bool,
    links: Vec<LinkStats>,
    /// The active-channel frontier: bit `node * move_slots + rank` is set
    /// iff that movable channel is non-empty. Maintained incrementally on
    /// inject and on every head-of-line move (eject channels are untracked —
    /// they drain via `eject`, not `tick`). Invariant: in hot-set mode,
    /// `tick` visits exactly the set bits, in ascending slot order.
    active: Vec<u64>,
    /// The eject-ready set: bit `node` is set iff that node's ejection
    /// channel is non-empty. Set where a packet enters an ejection channel
    /// (a head-of-line move), cleared where `eject` empties it, so the
    /// ejection phase visits only these nodes instead of every node.
    eject_ready: Vec<u64>,
    /// Cross-check mode: `tick` scans every slot the way the pre-frontier
    /// code did (the frontier is still maintained, just not consulted).
    /// Behaviour is bit-identical either way; only the scan counters differ.
    dense_scan: bool,
}

impl Fabric {
    /// Creates a fabric.
    ///
    /// # Panics
    ///
    /// Panics if any capacity is zero, or if the topology exceeds
    /// [`NodeId`]'s wide-format address space ([`NodeId::MAX_NODES`]); see
    /// [`try_new`](Fabric::try_new) for the fallible form.
    pub fn new(config: FabricConfig) -> Fabric {
        Fabric::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a fabric, rejecting a configuration no fabric can have.
    ///
    /// # Errors
    ///
    /// [`FabricError::TooLarge`] if the topology exceeds [`NodeId`]'s
    /// wide-format address space, [`FabricError::ZeroCapacity`] if any
    /// capacity is zero. Both are checked before anything is allocated.
    pub fn try_new(config: FabricConfig) -> Result<Fabric, FabricError> {
        let n = config.topo.nodes();
        if n > NodeId::MAX_NODES {
            return Err(FabricError::TooLarge {
                nodes: n,
                max: NodeId::MAX_NODES,
            });
        }
        if config.channel_capacity == 0 || config.inject_capacity == 0 || config.eject_capacity == 0
        {
            return Err(FabricError::ZeroCapacity);
        }
        let stride = config.topo.stride();
        // Every FIFO is preallocated to its capacity so the steady-state
        // tick/inject path never allocates.
        let cap = |i: usize| cap_of_c(&config, i % stride, stride);
        Ok(Fabric {
            config,
            chans: (0..n * stride)
                .map(|i| VecDeque::with_capacity(cap(i)))
                .collect(),
            now: 0,
            in_flight: 0,
            stats: NetStats::default(),
            observe: false,
            links: Vec::new(),
            active: vec![0; (n * config.topo.move_slots()).div_ceil(64)],
            eject_ready: vec![0; n.div_ceil(64)],
            dense_scan: false,
        })
    }

    /// Checks the fabric's bookkeeping against the channels it describes.
    /// Meant for property tests: it walks every channel and every packet.
    ///
    /// * a frontier bit is set iff its movable channel is occupied, and an
    ///   eject-ready bit is set iff its node's ejection channel is;
    /// * no channel holds more packets than its capacity;
    /// * no packet has moved later than the current cycle;
    /// * the in-flight count is the sum of the channel lengths, and every
    ///   injected packet is either delivered or in flight.
    ///
    /// # Errors
    ///
    /// A description of the first violation.
    pub fn check_invariants(&self) -> Result<(), String> {
        let topo = self.config.topo;
        let stride = topo.stride();
        let mut held = 0;
        for (i, q) in self.chans.iter().enumerate() {
            let (node, role) = (i / stride, i % stride);
            let marked = if role == stride - 1 {
                bit(&self.eject_ready, node)
            } else {
                bit(
                    &self.active,
                    node * topo.move_slots() + rank_of_role(role, topo.ports()),
                )
            };
            if marked == q.is_empty() {
                return Err(format!(
                    "node {node} role {role} holds {} packets but its frontier or \
                     eject-ready bit is {marked}",
                    q.len()
                ));
            }
            let cap = cap_of_c(&self.config, role, stride);
            if q.len() > cap {
                return Err(format!("channel {i} holds {} > capacity {cap}", q.len()));
            }
            if let Some(p) = q.iter().find(|p| p.moved_at > self.now) {
                return Err(format!(
                    "channel {i}: a packet moved at cycle {} after now={}",
                    p.moved_at, self.now
                ));
            }
            held += q.len();
        }
        let s = &self.stats;
        if held != self.in_flight || s.injected != s.delivered + held as u64 {
            return Err(format!(
                "in_flight={} but the channels hold {held}; injected={}, delivered={}",
                self.in_flight, s.injected, s.delivered
            ));
        }
        Ok(())
    }

    /// Enables or disables the dense-scan cross-check (off by default).
    ///
    /// With it on, `tick` visits every channel of every node like the
    /// pre-frontier simulator did, instead of only the active-set frontier.
    /// Traffic is bit-identical either way (the equivalence suites enforce
    /// this); only the [`ScanStats`](crate::ScanStats) counters differ.
    pub fn set_dense_scan(&mut self, on: bool) {
        self.dense_scan = on;
    }

    /// Whether the dense-scan cross-check is active.
    pub fn dense_scan(&self) -> bool {
        self.dense_scan
    }

    /// Enables or disables per-link observability counters.
    ///
    /// When enabled, every channel push updates that channel's occupancy
    /// high-water mark and every blocked head-of-line move increments its
    /// per-channel blocked counter. Disabled (the default), the hot path
    /// carries only a branch on a cold flag and the aggregate [`NetStats`]
    /// are unchanged either way. Enabling mid-run starts the per-link
    /// counters from zero; disabling keeps the counts gathered so far.
    pub fn set_observe(&mut self, on: bool) {
        if on && self.links.is_empty() {
            self.links = vec![LinkStats::default(); self.chans.len()];
        }
        self.observe = on;
    }

    /// Whether per-link counters are being maintained.
    pub fn observe(&self) -> bool {
        self.observe
    }

    /// A snapshot of every channel's counters, in `(node, role)` order.
    /// Empty unless [`set_observe`](Fabric::set_observe) has been called.
    pub fn link_stats(&self) -> Vec<LinkReport> {
        let stride = self.config.topo.stride();
        self.links
            .iter()
            .enumerate()
            .map(|(i, &stats)| {
                let role = i % stride;
                LinkReport {
                    node: i / stride,
                    dir: if role == INJECT_ROLE {
                        "inject"
                    } else if role == stride - 1 {
                        "eject"
                    } else {
                        self.config.topo.port_name(role - 1)
                    },
                    stats,
                }
            })
            .collect()
    }

    /// The fabric configuration.
    pub fn config(&self) -> FabricConfig {
        self.config
    }

    /// The one head-of-line move attempt, for frontier slot `slot`: the
    /// frontier walk and the dense cross-check both call it. Packets stamped
    /// `moved_at == now` have already hopped this cycle.
    fn move_head(&mut self, slot: usize) {
        let topo = self.config.topo;
        let stride = topo.stride();
        let (node, role, src) = slot_chan(&topo, slot);
        // Only the dense scan visits empty channels; the frontier guarantees
        // occupancy.
        let Some(head) = self.chans[src].front() else {
            return;
        };
        if head.moved_at >= self.now {
            return;
        }
        let (loc, tgt_role, tgt) = next_hop(&topo, node, role, head.msg.dest().index());
        if self.chans[tgt].len() >= cap_of_c(&self.config, tgt_role, stride) {
            self.stats.blocked_hops += 1;
            if self.observe {
                self.links[src].blocked += 1;
            }
            return;
        }
        let mut p = self.chans[src].pop_front().expect("head checked");
        p.moved_at = self.now;
        if self.chans[src].is_empty() {
            clear_bit(&mut self.active, slot);
        }
        self.chans[tgt].push_back(p);
        if self.chans[tgt].len() == 1 {
            if tgt_role == stride - 1 {
                set_bit(&mut self.eject_ready, loc);
            } else {
                let rank = rank_of_role(tgt_role, topo.ports());
                set_bit(&mut self.active, loc * topo.move_slots() + rank);
            }
        }
        self.note_push(tgt);
    }

    /// Raises channel `chan`'s occupancy high-water mark after a push, when
    /// per-link counters are on.
    fn note_push(&mut self, chan: usize) {
        if self.observe {
            let link = &mut self.links[chan];
            link.hwm = link.hwm.max(self.chans[chan].len());
        }
    }
}

/// The first set bit of `words` in `from..to`: one word per 64 positions,
/// so a sparse set costs its length over 64 plus its population.
fn next_set(words: &[u64], from: usize, to: usize) -> Option<usize> {
    if from >= to {
        return None;
    }
    let mut w = from / 64;
    let mut bits = words[w] & (!0u64 << (from % 64));
    loop {
        if bits != 0 {
            let i = w * 64 + bits.trailing_zeros() as usize;
            return (i < to).then_some(i);
        }
        w += 1;
        if w * 64 >= to {
            return None;
        }
        bits = words[w];
    }
}

impl Network for Fabric {
    fn node_count(&self) -> usize {
        self.config.topo.nodes()
    }

    fn inject(&mut self, src: NodeId, msg: Message) -> Result<(), InjectError> {
        let topo = self.config.topo;
        if msg.dest().index() >= topo.nodes() {
            self.stats.bad_dest += 1;
            return Err(InjectError::BadDest(msg));
        }
        let node = src.index();
        let chan = chan_of(node, INJECT_ROLE, topo.stride());
        let q = &mut self.chans[chan];
        if q.len() >= self.config.inject_capacity {
            self.stats.inject_refusals += 1;
            return Err(InjectError::Refused(msg));
        }
        q.push_back(Packet {
            msg,
            injected_at: self.now,
            moved_at: self.now,
        });
        if q.len() == 1 {
            let rank = rank_of_role(INJECT_ROLE, topo.ports());
            set_bit(&mut self.active, node * topo.move_slots() + rank);
        }
        self.in_flight += 1;
        self.stats.injected += 1;
        self.stats.in_flight_hwm = self.stats.in_flight_hwm.max(self.in_flight);
        self.note_push(chan);
        Ok(())
    }

    fn peek_eject(&self, dst: NodeId) -> Option<&Message> {
        self.chans[eject_chan(&self.config.topo, dst)]
            .front()
            .map(|p| &p.msg)
    }

    fn eject(&mut self, dst: NodeId) -> Option<Message> {
        let q = &mut self.chans[eject_chan(&self.config.topo, dst)];
        let p = q.pop_front()?;
        if q.is_empty() {
            clear_bit(&mut self.eject_ready, dst.index());
        }
        self.in_flight -= 1;
        self.stats.record_delivery(self.now - p.injected_at);
        Some(p.msg)
    }

    fn tick(&mut self) {
        self.now += 1;
        // An empty fabric has nothing to move; returning here keeps the
        // scan counters identical between the naive loop and the quiescence
        // fast-forward (which never ticks an empty fabric).
        if self.in_flight == 0 {
            return;
        }
        let slots = self.node_count() * self.config.topo.move_slots();
        let mut visited = 0;
        if self.dense_scan {
            for slot in 0..slots {
                self.move_head(slot);
            }
            visited = slots;
        } else {
            // Iterate set bits in ascending slot order. The word is re-read
            // after each move with a strictly-above mask: a move can set a
            // *later* bit in the current word (a packet entering a channel
            // the dense scan had not reached yet), which must be visited
            // this cycle exactly as the dense scan would — while moves into
            // already-passed slots stay unvisited until next cycle, again
            // exactly like the dense scan.
            for w in 0..self.active.len() {
                let mut bits = self.active[w];
                while bits != 0 {
                    let b = bits.trailing_zeros();
                    self.move_head(w * 64 + b as usize);
                    visited += 1;
                    bits = self.active[w] & ((!0u64 << b) << 1);
                }
            }
        }
        self.stats.scan.scanned_channels += visited as u64;
        self.stats.scan.skipped_work += (slots - visited) as u64;
    }

    fn in_flight(&self) -> usize {
        self.in_flight
    }

    fn stats(&self) -> NetStats {
        self.stats
    }

    /// The first node in `from..to` whose ejection channel is non-empty
    /// (the eject-ready set).
    fn next_eject_ready(&self, from: usize, to: usize) -> Option<usize> {
        next_set(&self.eject_ready, from, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcni_isa::MsgType;

    fn msg(dst: u16, tag: u32) -> Message {
        Message::to(
            NodeId::new(dst),
            [0, tag, 0, 0, 0],
            MsgType::new(2).unwrap(),
        )
    }

    fn drain(net: &mut Fabric, dst: u16, budget: usize) -> Vec<u32> {
        let mut got = Vec::new();
        for _ in 0..budget {
            net.tick();
            while let Some(m) = net.eject(NodeId::new(dst)) {
                got.push(m.words[1]);
            }
        }
        got
    }

    #[test]
    fn delivers_across_the_mesh() {
        let mut net = Fabric::new(FabricConfig::new(4, 4));
        net.inject(NodeId::new(0), msg(15, 42)).unwrap();
        let got = drain(&mut net, 15, 32);
        assert_eq!(got, vec![42]);
        assert_eq!(net.in_flight(), 0);
        // Path length 0→(3,3) is 6 hops + inject/eject stages.
        assert!(net.stats().mean_latency().unwrap() >= 6.0);
    }

    #[test]
    fn delivers_on_every_topology() {
        for topo in [
            TopologyKind::mesh(4, 4),
            TopologyKind::torus(4, 4),
            TopologyKind::ring(16),
            TopologyKind::full(16),
        ] {
            let mut net = Fabric::new(FabricConfig::of(topo));
            net.inject(NodeId::new(1), msg(15, 42)).unwrap();
            let got = drain(&mut net, 15, 40);
            assert_eq!(got, vec![42], "{}", topo.name());
            assert_eq!(net.in_flight(), 0, "{}", topo.name());
        }
    }

    #[test]
    fn torus_wrap_beats_the_mesh_corner_to_corner() {
        let run = |cfg: FabricConfig| {
            let mut net = Fabric::new(cfg);
            net.inject(NodeId::new(0), msg(63, 9)).unwrap();
            let got = drain(&mut net, 63, 64);
            assert_eq!(got, vec![9]);
            net.stats().mean_latency().unwrap()
        };
        let mesh = run(FabricConfig::new(8, 8));
        let torus = run(FabricConfig::torus(8, 8));
        assert!(
            torus < mesh,
            "wrap links must shorten the corner route ({torus} vs {mesh})"
        );
    }

    #[test]
    fn self_send() {
        let mut net = Fabric::new(FabricConfig::new(2, 2));
        net.inject(NodeId::new(2), msg(2, 7)).unwrap();
        assert_eq!(drain(&mut net, 2, 4), vec![7]);
    }

    #[test]
    fn point_to_point_order_preserved() {
        for topo in [
            TopologyKind::mesh(3, 3),
            TopologyKind::torus(3, 3),
            TopologyKind::ring(9),
            TopologyKind::full(9),
        ] {
            let mut net = Fabric::new(FabricConfig::of(topo));
            for tag in 0..8 {
                // Inject as fast as the buffer allows, draining on refusal.
                let mut m = msg(8, tag);
                loop {
                    match net.inject(NodeId::new(0), m) {
                        Ok(()) => break,
                        Err(e) => {
                            m = e.into_message();
                            net.tick();
                        }
                    }
                }
            }
            let got = drain(&mut net, 8, 64);
            assert_eq!(got, (0..8).collect::<Vec<_>>(), "{}", topo.name());
        }
    }

    #[test]
    fn backpressure_reaches_the_injector() {
        // Nobody ejects at node 1: the eject buffer, the link, and finally
        // the injection buffer at node 0 all fill, and inject starts failing.
        let cfg = FabricConfig::new(2, 1);
        let total_buffering = cfg.eject_capacity + cfg.channel_capacity + cfg.inject_capacity;
        let mut net = Fabric::new(cfg);
        let mut refused = false;
        for tag in 0..(total_buffering as u32 + 8) {
            if net.inject(NodeId::new(0), msg(1, tag)).is_err() {
                refused = true;
                break;
            }
            net.tick();
        }
        assert!(refused, "backpressure must eventually refuse injection");
        assert!(net.stats().blocked_hops > 0);
        // Releasing the receiver drains everything (no deadlock).
        let got = drain(&mut net, 1, 128);
        assert_eq!(got.len() as u64, net.stats().delivered);
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn one_packet_per_link_per_cycle() {
        // Two packets injected together at node 0 toward node 1 must arrive
        // on different cycles (link bandwidth is one per cycle).
        let mut net = Fabric::new(FabricConfig::new(2, 1));
        net.inject(NodeId::new(0), msg(1, 1)).unwrap();
        net.inject(NodeId::new(0), msg(1, 2)).unwrap();
        let mut arrivals = Vec::new();
        for t in 1..10u64 {
            net.tick();
            while let Some(m) = net.eject(NodeId::new(1)) {
                arrivals.push((t, m.words[1]));
            }
        }
        assert_eq!(arrivals.len(), 2);
        assert!(
            arrivals[0].0 < arrivals[1].0,
            "serialized over the link: {arrivals:?}"
        );
    }

    #[test]
    fn all_pairs_deliver() {
        for topo in [
            TopologyKind::mesh(3, 3),
            TopologyKind::torus(3, 3),
            TopologyKind::ring(9),
            TopologyKind::full(9),
        ] {
            let mut net = Fabric::new(FabricConfig::of(topo));
            let n = net.node_count() as u16;
            let mut expected = 0u64;
            for s in 0..n {
                for d in 0..n {
                    // Drain continuously so buffers never wedge the test.
                    let mut m = msg(d, u32::from(s) * 100 + u32::from(d));
                    loop {
                        match net.inject(NodeId::new(s), m) {
                            Ok(()) => break,
                            Err(e) => {
                                m = e.into_message();
                                net.tick();
                                for node in 0..n {
                                    while net.eject(NodeId::new(node)).is_some() {}
                                }
                            }
                        }
                    }
                    expected += 1;
                }
            }
            for _ in 0..256 {
                net.tick();
                for node in 0..n {
                    while net.eject(NodeId::new(node)).is_some() {}
                }
            }
            assert_eq!(net.stats().delivered, expected, "{}", topo.name());
            assert_eq!(net.in_flight(), 0, "{}", topo.name());
        }
    }

    #[test]
    fn misaddressed_message_is_a_typed_error() {
        let mut net = Fabric::new(FabricConfig::new(2, 2));
        let m = msg(9, 0);
        match net.inject(NodeId::new(0), m) {
            Err(InjectError::BadDest(back)) => assert_eq!(back, m),
            other => panic!("expected BadDest, got {other:?}"),
        }
        assert_eq!(net.stats().bad_dest, 1);
        assert_eq!(net.stats().injected, 0);
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn link_stats_track_occupancy_and_blocking() {
        let cfg = FabricConfig::new(2, 1);
        let mut net = Fabric::new(cfg);
        net.set_observe(true);
        assert!(net.observe());
        // Fill node 1's eject buffer by never draining it.
        for tag in 0..16u32 {
            let _ = net.inject(NodeId::new(0), msg(1, tag));
            net.tick();
        }
        let by_key = |reports: &[LinkReport], node: usize, dir: &str| -> LinkStats {
            reports
                .iter()
                .find(|r| r.node == node && r.dir == dir)
                .expect("channel present")
                .stats
        };
        let reports = net.link_stats();
        assert_eq!(reports.len(), 2 * cfg.topo.stride());
        // The stalled receiver's eject buffer hit capacity, and the link
        // feeding it recorded blocked head-of-line moves.
        assert_eq!(by_key(&reports, 1, "eject").hwm, cfg.eject_capacity);
        assert!(by_key(&reports, 0, "east").blocked > 0);
        // Per-link blocked counts decompose the aggregate counter.
        let total: u64 = reports.iter().map(|r| r.stats.blocked).sum();
        assert_eq!(total, net.stats().blocked_hops);
        // Nothing travels west in this workload.
        assert_eq!(by_key(&reports, 1, "west").hwm, 0);
    }

    #[test]
    fn link_stats_use_topology_port_names() {
        let mut net = Fabric::new(FabricConfig::ring(4));
        net.set_observe(true);
        let _ = net.inject(NodeId::new(0), msg(1, 1));
        net.tick();
        let reports = net.link_stats();
        assert_eq!(reports.len(), 4 * 6);
        let names: Vec<&str> = reports.iter().take(6).map(|r| r.dir).collect();
        assert_eq!(names, ["inject", "cw0", "cw1", "ccw0", "ccw1", "eject"]);
    }

    /// The hot-set frontier and the dense scan must move exactly the same
    /// packets in the same order under sustained mixed traffic (including
    /// hops into already-scanned slots), differing only in the effort
    /// counters — on every topology, wrap links included.
    #[test]
    fn hot_set_scan_matches_dense_scan() {
        for topo in [
            TopologyKind::mesh(4, 3),
            TopologyKind::torus(4, 3),
            TopologyKind::ring(12),
            TopologyKind::full(12),
        ] {
            let run = |dense: bool| -> (Vec<(u16, u32)>, NetStats) {
                let mut net = Fabric::new(FabricConfig::of(topo));
                net.set_dense_scan(dense);
                assert_eq!(net.dense_scan(), dense);
                let n = net.node_count() as u64;
                let mut got = Vec::new();
                let mut x = 0x1234_5678_9abc_def0u64;
                for step in 0..600u32 {
                    for k in 0..3u32 {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let src = ((x >> 33) % n) as u16;
                        let dst = ((x >> 13) % n) as u16;
                        let _ = net.inject(NodeId::new(src), msg(dst, step * 4 + k));
                    }
                    net.tick();
                    // Drain only intermittently so eject buffers back up and
                    // blocked moves happen on both scans.
                    if step % 3 == 0 {
                        for d in 0..n as u16 {
                            while let Some(m) = net.eject(NodeId::new(d)) {
                                got.push((d, m.words[1]));
                            }
                        }
                    }
                }
                for _ in 0..200 {
                    net.tick();
                    for d in 0..n as u16 {
                        while let Some(m) = net.eject(NodeId::new(d)) {
                            got.push((d, m.words[1]));
                        }
                    }
                }
                assert_eq!(net.in_flight(), 0, "everything drained");
                (got, net.stats())
            };
            let (hot, hs) = run(false);
            let (dense, ds) = run(true);
            let name = topo.name();
            assert_eq!(hot, dense, "{name}: delivery order must be bit-identical");
            assert_eq!(hs, ds, "{name}: behavioural stats must match");
            assert!(hs.scan.skipped_work > 0, "{name}: frontier must save work");
            assert_eq!(ds.scan.skipped_work, 0, "{name}: dense scan skips nothing");
            assert!(hs.scan.scanned_channels < ds.scan.scanned_channels);
            // Both modes account for the same dense cost over the same ticks.
            assert_eq!(
                hs.scan.scanned_channels + hs.scan.skipped_work,
                ds.scan.scanned_channels + ds.scan.skipped_work,
            );
        }
    }

    /// Ticks of an empty fabric cost (and count) nothing — the property
    /// that keeps scan counters identical under the quiescence fast-forward.
    #[test]
    fn empty_ticks_count_no_scan_work() {
        let mut net = Fabric::new(FabricConfig::new(4, 4));
        for _ in 0..100 {
            net.tick();
        }
        assert_eq!(net.stats().scan.scanned_channels, 0);
        assert_eq!(net.stats().scan.skipped_work, 0);
        net.inject(NodeId::new(0), msg(15, 1)).unwrap();
        let got = drain(&mut net, 15, 32);
        assert_eq!(got, vec![1]);
        let s = net.stats().scan;
        assert!(s.scanned_channels > 0, "occupied slots were visited");
        assert!(s.skipped_work > 0, "idle slots were not");
    }

    #[test]
    fn link_stats_empty_when_not_observing() {
        let mut net = Fabric::new(FabricConfig::new(2, 2));
        net.inject(NodeId::new(0), msg(3, 1)).unwrap();
        for _ in 0..8 {
            net.tick();
        }
        assert!(net.link_stats().is_empty());
    }

    #[test]
    fn impossible_configs_are_typed_errors() {
        let huge = FabricConfig::new(300, 300);
        assert_eq!(
            Fabric::try_new(huge).err(),
            Some(FabricError::TooLarge {
                nodes: 90_000,
                max: NodeId::MAX_NODES
            })
        );
        for cfg in [
            FabricConfig {
                channel_capacity: 0,
                ..FabricConfig::new(2, 2)
            },
            FabricConfig {
                inject_capacity: 0,
                ..FabricConfig::new(2, 2)
            },
            FabricConfig {
                eject_capacity: 0,
                ..FabricConfig::new(2, 2)
            },
        ] {
            assert_eq!(Fabric::try_new(cfg).err(), Some(FabricError::ZeroCapacity));
        }
        assert!(Fabric::try_new(FabricConfig::new(2, 2)).is_ok());
    }

    /// `check_invariants` notices bookkeeping that disagrees with its channels.
    #[test]
    fn invariant_check_catches_a_drifted_ledger() {
        let mut net = Fabric::new(FabricConfig::new(2, 2));
        net.inject(NodeId::new(0), msg(3, 1)).unwrap();
        net.check_invariants().unwrap();
        net.in_flight += 1;
        assert!(net.check_invariants().unwrap_err().contains("in_flight"));
        net.in_flight -= 1;
        net.stats.injected += 1;
        assert!(net.check_invariants().unwrap_err().contains("injected"));
        net.stats.injected -= 1;
        net.chans[0].front_mut().unwrap().moved_at = 5;
        assert!(net.check_invariants().unwrap_err().contains("moved at"));
    }
}
