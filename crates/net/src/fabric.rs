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
//! The channels are stored flat, in four arrays:
//!
//! * `chans` — one `(head, len, filled_at)` cursor per channel, indexed as
//!   above, where `filled_at` is the cycle a push last filled the channel
//!   from empty;
//! * `ring` — one `u64` array of entries, each a packet id in the low half
//!   and its destination node (decoded once at injection) in the high half.
//!   Node `n` owns the block of `inject + ports × channel + eject` slots
//!   starting at `n × block`, and its channels' rings sit in it in role
//!   order, so each role keeps its own capacity. Slot `i` of a channel's FIFO
//!   is `start + (head + i) % cap`;
//! * `pool` — the packets in flight, and `free`, a LIFO of reusable pool
//!   ids. The pool grows on demand, so it tracks the peak number of packets
//!   in flight rather than the channel count.
//!
//! A head-of-line move reads the source and target cursors and copies one
//! entry from one ring to another: it routes on the entry's destination and
//! never touches the pool, which only `inject`, `peek_eject` and `eject`
//! read. A packet moves at most one hop a cycle: a head whose channel was
//! filled from empty this cycle arrived this cycle and waits. That is exact,
//! because a packet that lands behind a head is never visited again in the
//! same scan — both the frontier walk and the dense scan visit each slot
//! once. Building a fabric allocates the zeroed ring and the cursors and
//! nothing per channel.
//!
//! Each tick walks the active-channel frontier (or every slot, under the
//! dense cross-check) in ascending slot order and attempts one head-of-line
//! move per occupied movable channel. Injection, the move and ejection each
//! keep the frontier and eject-ready bitmaps, the [`NetStats`] counters, the
//! in-flight count and, when observed, the per-link counters up to date in
//! place.

use std::fmt;

use tcni_core::{Message, NodeId};
use tcni_util::bits::Bitmap;

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
    /// The buffers hold more packets in all than a fabric can index: every
    /// packet id and ring cursor is a `u32`.
    TooDeep {
        /// Packets the buffers would hold in all (`usize::MAX` if that
        /// overflows).
        slots: usize,
        /// The ceiling, `u32::MAX`.
        max: usize,
    },
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FabricError::TooLarge { nodes, max } => write!(
                f,
                "fabric of {nodes} nodes is larger than the {max}-node NodeId address space"
            ),
            FabricError::ZeroCapacity => write!(f, "fabric buffer capacities must be non-zero"),
            FabricError::TooDeep { slots, max } => write!(
                f,
                "fabric buffers hold {slots} packets in all, more than the {max} a fabric indexes"
            ),
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

/// A packet in flight: its message and the cycle its injection was accepted.
#[derive(Debug)]
struct Packet {
    msg: Message,
    injected_at: u64,
}

/// One channel's FIFO state: the ring slot of its head packet, how many
/// packets it holds, and the cycle a push last filled it from empty (its
/// head cannot move on that cycle).
#[derive(Debug, Clone, Copy, Default)]
struct Chan {
    head: u32,
    len: u32,
    filled_at: u64,
}

/// A ring entry for packet `id` bound for node `dest`: the destination rides
/// with the id, so no hop reads the packet.
fn entry(id: u32, dest: usize) -> u64 {
    (dest as u64) << 32 | u64::from(id)
}

/// The pool id of ring entry `e`.
fn entry_id(e: u64) -> u32 {
    e as u32
}

/// The destination node of ring entry `e`.
fn entry_dest(e: u64) -> usize {
    (e >> 32) as usize
}

/// Where one channel lives in the store: its index in `Fabric::chans`, the
/// first slot of its ring in `Fabric::ring`, and its capacity (the ring's
/// length).
#[derive(Debug, Clone, Copy)]
struct Ring {
    chan: usize,
    start: usize,
    cap: usize,
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

/// Channel `(node, role)`'s place in the store. Each node owns a block of
/// `inject + ports × channel + eject` ring slots holding its channels' rings
/// in role order, so every role keeps its own capacity.
fn ring_of(config: &FabricConfig, node: usize, role: usize) -> Ring {
    let ports = config.topo.ports();
    let link = config.channel_capacity;
    let eject_at = config.inject_capacity + ports * link;
    let (offset, cap) = if role == INJECT_ROLE {
        (0, config.inject_capacity)
    } else if role == ports + 1 {
        (eject_at, config.eject_capacity)
    } else {
        (config.inject_capacity + (role - 1) * link, link)
    };
    Ring {
        chan: node * (ports + 2) + role,
        start: node * (eject_at + config.eject_capacity) + offset,
        cap,
    }
}

/// The node, role and ring of frontier slot `slot`.
fn slot_ring(config: &FabricConfig, slot: usize) -> (usize, usize, Ring) {
    let topo = &config.topo;
    let node = slot / topo.move_slots();
    let role = role_of_rank(slot % topo.move_slots(), topo.ports());
    (node, role, ring_of(config, node, role))
}

/// The next hop of a packet bound for `dst` at the head of movable channel
/// `(node, role)`: the node it is located at (a link's far end, or the node
/// itself for inject), and the role and ring of the channel it moves into.
fn next_hop(config: &FabricConfig, node: usize, role: usize, dst: usize) -> (usize, usize, Ring) {
    let topo = &config.topo;
    let loc = if role == INJECT_ROLE {
        node
    } else {
        topo.port_target(node, role - 1)
    };
    let role = match topo.route(loc, dst) {
        Hop::Port(p) => 1 + p,
        Hop::Eject => topo.stride() - 1,
    };
    (loc, role, ring_of(config, loc, role))
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
/// The channels are stored flat. Packets live in one pool, recycled through
/// a free list, so the pool grows to the peak number in flight. Each channel
/// is a fixed-capacity ring of `u64` `(id, dest)` entries inside one shared
/// array, plus a `(head, len, filled_at)` cursor; a head-of-line move copies
/// one entry between two rings and never reads or moves a packet.
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
    /// Every channel's cursor, indexed `node * stride + role`.
    chans: Vec<Chan>,
    /// Every channel's ring of `(id, dest)` entries (see `entry` for the
    /// packing and `ring_of` for the layout).
    ring: Vec<u64>,
    /// The packets, indexed by id; slots listed in `free` hold stale packets.
    pool: Vec<Packet>,
    /// Pool slots free for reuse, most recently freed last.
    free: Vec<u32>,
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
    active: Bitmap,
    /// The eject-ready set: bit `node` is set iff that node's ejection
    /// channel is non-empty. Set where a packet enters an ejection channel
    /// (a head-of-line move), cleared where `eject` empties it, so the
    /// ejection phase visits only these nodes instead of every node.
    eject_ready: Bitmap,
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
    /// capacity is zero, [`FabricError::TooDeep`] if the buffers hold more
    /// than `u32::MAX` packets in all. All are checked before anything is
    /// allocated.
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
        let max = u32::MAX as usize;
        let slots = config
            .topo
            .ports()
            .checked_mul(config.channel_capacity)
            .and_then(|s| s.checked_add(config.inject_capacity))
            .and_then(|s| s.checked_add(config.eject_capacity))
            .and_then(|block| block.checked_mul(n))
            .unwrap_or(usize::MAX);
        if slots > max {
            return Err(FabricError::TooDeep { slots, max });
        }
        // The ring is one zeroed allocation whose pages are first written
        // when a packet reaches them; the pool starts empty and grows to the
        // peak number of packets in flight.
        Ok(Fabric {
            config,
            chans: vec![Chan::default(); n * config.topo.stride()],
            ring: vec![0; slots],
            pool: Vec::new(),
            free: Vec::new(),
            now: 0,
            in_flight: 0,
            stats: NetStats::default(),
            observe: false,
            links: Vec::new(),
            active: Bitmap::new(n * config.topo.move_slots()),
            eject_ready: Bitmap::new(n),
            dense_scan: false,
        })
    }

    /// Checks the fabric's bookkeeping against the channels it describes.
    /// Meant for property tests: it walks every channel and every packet.
    ///
    /// * a frontier bit is set iff its movable channel is occupied, and an
    ///   eject-ready bit is set iff its node's ejection channel is;
    /// * every channel's head slot lies inside its ring, and no channel
    ///   holds more packets than its capacity;
    /// * every live packet id sits in exactly one ring slot, the free list
    ///   holds no id twice and no live id, and the live ids number
    ///   `pool.len() − free.len()`, which is the in-flight count;
    /// * every ring entry's destination is its packet's message's, and no
    ///   occupied channel was filled later than the current cycle;
    /// * every injected packet is either delivered or in flight.
    ///
    /// # Errors
    ///
    /// A description of the first violation.
    pub fn check_invariants(&self) -> Result<(), String> {
        let topo = self.config.topo;
        let stride = topo.stride();
        let mut free = vec![false; self.pool.len()];
        for &id in &self.free {
            match free.get_mut(id as usize) {
                None => return Err(format!("free id {id} lies past the pool")),
                Some(true) => return Err(format!("the free list holds id {id} twice")),
                Some(slot) => *slot = true,
            }
        }
        let mut placed = vec![false; self.pool.len()];
        let mut held = 0;
        for (i, c) in self.chans.iter().enumerate() {
            let (node, role) = (i / stride, i % stride);
            let (head, len) = (c.head as usize, c.len as usize);
            let marked = if role == stride - 1 {
                self.eject_ready.contains(node)
            } else {
                self.active
                    .contains(node * topo.move_slots() + rank_of_role(role, topo.ports()))
            };
            if marked == (len == 0) {
                return Err(format!(
                    "node {node} role {role} holds {len} packets but its frontier or \
                     eject-ready bit is {marked}"
                ));
            }
            let r = ring_of(&self.config, node, role);
            if len > r.cap || head >= r.cap {
                return Err(format!(
                    "channel {i} has head {head} and length {len} but capacity {}",
                    r.cap
                ));
            }
            if len > 0 && c.filled_at > self.now {
                return Err(format!(
                    "channel {i} was filled at cycle {} after now={}",
                    c.filled_at, self.now
                ));
            }
            for k in 0..len {
                let e = self.ring[r.start + (head + k) % r.cap];
                let id = entry_id(e) as usize;
                let Some(p) = self.pool.get(id) else {
                    return Err(format!("channel {i} holds id {id}, past the pool"));
                };
                if free[id] {
                    return Err(format!("packet id {id} is in channel {i} and free"));
                }
                if std::mem::replace(&mut placed[id], true) {
                    return Err(format!("packet id {id} sits in two ring slots"));
                }
                if entry_dest(e) != p.msg.dest().index() {
                    return Err(format!(
                        "the ring entry of packet id {id} carries destination {} but its \
                         message is bound for {}",
                        entry_dest(e),
                        p.msg.dest().index()
                    ));
                }
            }
            held += len;
        }
        if let Some(id) = (0..self.pool.len()).find(|&id| !free[id] && !placed[id]) {
            return Err(format!(
                "packet id {id} is neither free nor in a ring (leaked)"
            ));
        }
        let s = &self.stats;
        let live = self.pool.len() - self.free.len();
        if held != self.in_flight || live != held || s.injected != s.delivered + held as u64 {
            return Err(format!(
                "in_flight={} but the channels hold {held} and the pool {live}; \
                 injected={}, delivered={}",
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

    /// The pool id of the packet at the head of `r`, if it holds one.
    fn front(&self, r: Ring) -> Option<u32> {
        let c = self.chans[r.chan];
        (c.len > 0).then(|| entry_id(self.ring[r.start + c.head as usize]))
    }

    /// Removes the head of non-empty `r`; returns whether `r` is now empty.
    fn pop(&mut self, r: Ring) -> bool {
        let c = &mut self.chans[r.chan];
        c.head = if c.head as usize + 1 == r.cap {
            0
        } else {
            c.head + 1
        };
        c.len -= 1;
        c.len == 0
    }

    /// Appends ring entry `e` to `r`, which has room; returns whether `r`
    /// was empty before, in which case `e` is its head and the channel is
    /// stamped filled now.
    fn push(&mut self, r: Ring, e: u64) -> bool {
        let c = &mut self.chans[r.chan];
        let mut at = c.head as usize + c.len as usize;
        if at >= r.cap {
            at -= r.cap;
        }
        self.ring[r.start + at] = e;
        c.len += 1;
        let filled = c.len == 1;
        if filled {
            c.filled_at = self.now;
        }
        filled
    }

    /// The one head-of-line move attempt, for frontier slot `slot`: the
    /// frontier walk and the dense cross-check both call it. A head whose
    /// channel was filled from empty this cycle has already hopped.
    fn move_head(&mut self, slot: usize) {
        let config = self.config;
        let (node, role, src) = slot_ring(&config, slot);
        let c = self.chans[src.chan];
        // Only the dense scan visits empty channels; the frontier guarantees
        // occupancy.
        if c.len == 0 || c.filled_at >= self.now {
            return;
        }
        let e = self.ring[src.start + c.head as usize];
        let (loc, tgt_role, tgt) = next_hop(&config, node, role, entry_dest(e));
        if self.chans[tgt.chan].len as usize >= tgt.cap {
            self.stats.blocked_hops += 1;
            if self.observe {
                self.links[src.chan].blocked += 1;
            }
            return;
        }
        if self.pop(src) {
            self.active.remove(slot);
        }
        if self.push(tgt, e) {
            let topo = config.topo;
            if tgt_role == topo.stride() - 1 {
                self.eject_ready.insert(loc);
            } else {
                let rank = rank_of_role(tgt_role, topo.ports());
                self.active.insert(loc * topo.move_slots() + rank);
            }
        }
        self.note_push(tgt.chan);
    }

    /// Raises channel `chan`'s occupancy high-water mark after a push, when
    /// per-link counters are on.
    fn note_push(&mut self, chan: usize) {
        if self.observe {
            let link = &mut self.links[chan];
            link.hwm = link.hwm.max(self.chans[chan].len as usize);
        }
    }

    /// The ejection ring of node `dst`, or `None` if the fabric has no such
    /// node.
    fn eject_ring(&self, dst: NodeId) -> Option<Ring> {
        let topo = &self.config.topo;
        (dst.index() < topo.nodes()).then(|| ring_of(&self.config, dst.index(), topo.stride() - 1))
    }
}

impl Network for Fabric {
    fn node_count(&self) -> usize {
        self.config.topo.nodes()
    }

    fn inject(&mut self, src: NodeId, msg: Message) -> Result<(), InjectError> {
        let topo = self.config.topo;
        let (node, dest) = (src.index(), msg.dest().index());
        if node >= topo.nodes() || dest >= topo.nodes() {
            self.stats.bad_dest += 1;
            return Err(InjectError::BadDest(msg));
        }
        let r = ring_of(&self.config, node, INJECT_ROLE);
        if self.chans[r.chan].len as usize >= r.cap {
            self.stats.inject_refusals += 1;
            return Err(InjectError::Refused(msg));
        }
        let packet = Packet {
            msg,
            injected_at: self.now,
        };
        let id = match self.free.pop() {
            Some(id) => {
                self.pool[id as usize] = packet;
                id
            }
            None => {
                self.pool.push(packet);
                (self.pool.len() - 1) as u32
            }
        };
        if self.push(r, entry(id, dest)) {
            let rank = rank_of_role(INJECT_ROLE, topo.ports());
            self.active.insert(node * topo.move_slots() + rank);
        }
        self.in_flight += 1;
        self.stats.injected += 1;
        self.stats.in_flight_hwm = self.stats.in_flight_hwm.max(self.in_flight);
        self.note_push(r.chan);
        Ok(())
    }

    fn peek_eject(&self, dst: NodeId) -> Option<&Message> {
        let id = self.front(self.eject_ring(dst)?)?;
        Some(&self.pool[id as usize].msg)
    }

    fn eject(&mut self, dst: NodeId) -> Option<Message> {
        let r = self.eject_ring(dst)?;
        let id = self.front(r)?;
        if self.pop(r) {
            self.eject_ready.remove(dst.index());
        }
        self.free.push(id);
        self.in_flight -= 1;
        let p = &self.pool[id as usize];
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
            // Visit set bits in ascending slot order, re-reading the set
            // past each visited slot: a move can set a *later* bit (a packet
            // entering a channel the dense scan had not reached yet), which
            // must be visited this cycle exactly as the dense scan would —
            // while moves into already-passed slots stay unvisited until
            // next cycle, again exactly like the dense scan.
            let mut from = 0;
            while let Some(slot) = self.active.next(from) {
                self.move_head(slot);
                visited += 1;
                from = slot + 1;
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

    /// The first node at or after `from` whose ejection channel is
    /// non-empty (the eject-ready set).
    fn next_eject_ready(&self, from: usize) -> Option<usize> {
        self.eject_ready.next(from)
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

    /// Every live packet's channel and its message's destination, by pool id
    /// (`None` for a free id).
    fn placement(net: &Fabric) -> Vec<Option<(usize, usize)>> {
        let stride = net.config.topo.stride();
        let mut at = vec![None; net.pool.len()];
        for (i, c) in net.chans.iter().enumerate() {
            let r = ring_of(&net.config, i / stride, i % stride);
            for k in 0..c.len as usize {
                let id = entry_id(net.ring[r.start + (c.head as usize + k) % r.cap]) as usize;
                at[id] = Some((i, net.pool[id].msg.dest().index()));
            }
        }
        at
    }

    /// One hop per cycle, checked against the route rather than against the
    /// channel stamp: over drawn topologies, buffer depths and traffic, on
    /// both scans, a packet that sat in channel `c` before a tick and the
    /// ejections after it either sits in `c` still, sits in the channel its
    /// route takes out of `c`, or was ejected from the ejection channel it
    /// sat in or moved into.
    #[test]
    fn a_tick_moves_each_packet_at_most_one_hop() {
        tcni_check::check("a_tick_moves_each_packet_at_most_one_hop", 64, |rng| {
            let rows = rng.range(2, 4) as usize;
            let topo = match rng.below(4) {
                0 => TopologyKind::mesh(3, rows),
                1 => TopologyKind::torus(3, rows),
                2 => TopologyKind::ring(3 * rows),
                _ => TopologyKind::full(3 * rows),
            };
            let mut depth = || rng.range(1, 7) as usize;
            let config = FabricConfig {
                topo,
                inject_capacity: depth(),
                channel_capacity: depth(),
                eject_capacity: depth(),
            };
            let (n, eject_role) = (topo.nodes() as u64, topo.stride() - 1);
            for dense in [false, true] {
                let mut net = Fabric::new(config);
                net.set_dense_scan(dense);
                for _ in 0..60 {
                    for _ in 0..rng.below(2 * n) {
                        let (src, dst) = (rng.below(n) as u16, rng.below(n) as u16);
                        let _ = net.inject(NodeId::new(src), msg(dst, 0));
                    }
                    let before = placement(&net);
                    net.tick();
                    // Drain a drawn half of the nodes, so ejection channels
                    // back up and block the links feeding them.
                    let mut ejected = 0;
                    for d in 0..n as u16 {
                        if rng.bool() {
                            while net.eject(NodeId::new(d)).is_some() {
                                ejected += 1;
                            }
                        }
                    }
                    let after = placement(&net);
                    assert_eq!(after.len(), before.len(), "no packet enters");
                    let mut gone = 0;
                    for (id, (&was, &now)) in before.iter().zip(&after).enumerate() {
                        let Some((c, dest)) = was else {
                            assert_eq!(now, None, "id {id} appeared during a tick");
                            continue;
                        };
                        let (node, role) = (c / topo.stride(), c % topo.stride());
                        let hop = (role != eject_role).then(|| next_hop(&config, node, role, dest));
                        match now {
                            Some((a, _)) => assert!(
                                a == c || hop.is_some_and(|(_, _, r)| r.chan == a),
                                "{config:?} dense={dense}: id {id} went from channel {c} to {a}"
                            ),
                            None => {
                                assert!(
                                    hop.is_none_or(|(_, r, _)| r == eject_role),
                                    "{config:?} dense={dense}: id {id} left channel {c} \
                                     for no ejection channel"
                                );
                                gone += 1;
                            }
                        }
                    }
                    assert_eq!(gone, ejected, "every missing packet was ejected");
                    net.check_invariants().unwrap();
                }
            }
        });
    }

    /// One heterogeneous-capacity run: 20 cycles of seeded traffic (three
    /// offers a cycle, half of them to hot-spot node 0, refused offers
    /// dropped) drained only every fourth cycle, then drained every cycle
    /// until empty. Returns the delivery
    /// sequence as `cycle:node:tag` triples and the counters.
    fn hetero_run(
        topo: TopologyKind,
        (inject, channel, eject): (usize, usize, usize),
    ) -> (String, [u64; 8]) {
        let mut net = Fabric::new(FabricConfig {
            topo,
            channel_capacity: channel,
            inject_capacity: inject,
            eject_capacity: eject,
        });
        let n = net.node_count() as u64;
        let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ (inject * 100 + channel * 10 + eject) as u64;
        let mut got = Vec::new();
        for cycle in 1..=200u32 {
            if cycle <= 20 {
                for k in 0..3u32 {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let src = ((x >> 33) % n) as u16;
                    let dst = if x >> 63 == 1 {
                        0
                    } else {
                        ((x >> 13) % n) as u16
                    };
                    let _ = net.inject(NodeId::new(src), msg(dst, cycle * 3 + k));
                }
            }
            net.tick();
            net.check_invariants().unwrap();
            if cycle > 20 || cycle % 4 == 0 {
                for d in 0..n as u16 {
                    while let Some(m) = net.eject(NodeId::new(d)) {
                        got.push(format!("{cycle}:{d}:{}", m.words[1]));
                    }
                }
            }
            if cycle > 20 && net.in_flight() == 0 {
                break;
            }
        }
        assert_eq!(net.in_flight(), 0, "{} drains", topo.name());
        let s = net.stats();
        let counters = [
            s.injected,
            s.delivered,
            s.inject_refusals,
            s.blocked_hops,
            s.total_latency,
            s.in_flight_hwm as u64,
            s.scan.scanned_channels,
            s.scan.skipped_work,
        ];
        (got.join(" "), counters)
    }

    /// Buffer depths that differ per role — injection, link and ejection
    /// FIFOs of 1/3/2 and 5/2/7 packets — on every topology, with enough
    /// blocking that each capacity binds. The delivery sequence and the
    /// counters are pinned, so any change to how a channel's capacity is
    /// laid out or enforced shows here.
    #[test]
    fn heterogeneous_capacities_pin_delivery_and_stats() {
        // (topology, (inject, channel, eject) capacities, deliveries,
        // [injected, delivered, inject_refusals, blocked_hops,
        // total_latency, in_flight_hwm, scanned_channels, skipped_work]).
        #[rustfmt::skip]
        let pinned = [
        (
            "mesh",
            (1, 3, 2),
            "4:0:3 4:0:8 4:2:5 4:2:4 4:3:6 8:0:12 8:0:13 8:2:22 8:3:7 8:5:15 \
             12:0:25 12:0:17 12:1:24 12:2:35 16:0:33 16:0:21 16:4:45 20:0:42 \
             20:0:20 20:1:59 20:4:53 21:0:29 21:0:11 22:0:34 22:0:10 23:0:26 \
             23:0:19 24:0:28 24:0:23 25:0:31 25:0:14 26:0:41 26:0:9 27:0:54 \
             27:0:18 28:0:30 29:0:36 30:0:50 31:0:61",
            [39, 39, 21, 107, 411, 22, 205, 725],
        ),
        (
            "mesh",
            (5, 2, 7),
            "4:0:6 4:0:4 4:0:5 4:0:3 4:0:10 4:1:8 4:2:11 4:4:7 8:0:19 8:0:20 \
             8:0:17 8:0:14 8:1:12 8:1:15 8:3:16 8:5:9 8:5:13 12:0:27 12:0:22 \
             12:0:24 12:0:23 12:0:25 12:0:29 12:0:35 12:1:33 12:2:26 12:2:28 \
             16:0:36 16:0:30 16:0:18 16:0:37 16:0:32 16:0:21 16:0:42 16:1:40 \
             16:3:31 16:4:46 16:5:38 20:0:44 20:0:34 20:0:52 20:0:39 20:0:48 \
             20:0:51 20:0:58 20:2:41 20:3:50 20:3:55 20:4:47 20:4:53 21:0:62 \
             21:0:54 21:0:43 22:0:49 22:0:45 23:0:60 23:0:61 24:0:57 25:0:56 \
             26:0:59",
            [60, 60, 0, 19, 298, 22, 165, 615],
        ),
        (
            "torus",
            (1, 3, 2),
            "4:0:3 4:0:8 4:2:5 4:2:4 4:3:6 4:3:7 8:0:12 8:0:13 8:2:22 8:5:15 \
             12:0:25 12:0:21 12:1:24 12:2:35 16:0:33 16:0:29 16:4:45 16:5:37 \
             20:0:42 20:0:34 20:1:59 20:4:53 21:0:17 21:0:11 22:0:20 22:0:10 \
             23:0:26 23:0:9 24:0:28 24:0:19 25:0:14 26:0:18 27:0:30 28:0:44 \
             29:0:36 30:0:50 31:0:61",
            [37, 37, 23, 111, 365, 20, 192, 1482],
        ),
        (
            "torus",
            (5, 2, 7),
            "4:0:6 4:0:4 4:0:5 4:0:3 4:0:10 4:1:8 4:2:11 4:4:7 8:0:17 8:0:14 \
             8:0:19 8:0:20 8:0:22 8:1:12 8:1:15 8:3:16 8:5:9 8:5:13 12:0:27 \
             12:0:24 12:0:18 12:0:25 12:0:23 12:0:30 12:0:29 12:1:33 12:2:26 \
             12:2:28 12:3:31 16:0:35 16:0:32 16:0:21 16:0:36 16:0:34 16:0:37 \
             16:0:42 16:1:40 16:4:46 16:5:38 20:0:44 20:0:48 20:0:39 20:0:52 \
             20:0:49 20:0:43 20:0:54 20:2:41 20:3:50 20:3:55 20:4:47 20:4:53 \
             21:0:58 21:0:60 21:0:51 22:0:62 22:0:45 23:0:61 24:0:57 25:0:59 \
             26:0:56",
            [60, 60, 0, 20, 279, 21, 147, 1257],
        ),
        (
            "ring",
            (1, 3, 2),
            "4:0:8 4:0:12 4:2:5 4:2:4 4:3:6 4:3:7 8:0:13 8:0:3 8:2:22 8:5:15 \
             12:0:25 12:0:17 12:4:27 16:0:33 16:0:21 20:0:42 20:0:20 20:1:59 \
             20:4:45 20:4:53 20:5:56 21:0:29 21:0:9 22:0:34 22:0:10 23:0:26 \
             23:0:11 24:0:28 25:0:31 25:0:14 25:1:24 25:1:38 26:0:41 26:0:18 \
             27:0:54 27:0:19 28:0:30 29:0:23 30:0:39 31:0:43",
            [40, 40, 20, 122, 439, 25, 237, 693],
        ),
        (
            "ring",
            (5, 2, 7),
            "4:0:6 4:0:4 4:0:5 4:0:3 4:1:8 4:2:11 4:4:7 4:5:9 8:0:14 8:0:10 \
             8:0:19 8:0:18 8:0:17 8:0:21 8:1:12 8:1:15 8:3:16 8:5:13 12:0:27 \
             12:0:20 12:0:24 12:0:25 12:0:22 12:0:35 12:0:30 12:1:33 12:2:28 \
             12:2:26 12:3:31 16:0:36 16:0:32 16:0:23 16:0:37 16:0:29 16:0:42 \
             16:0:34 16:4:46 16:5:38 20:0:44 20:0:39 20:0:52 20:0:45 20:0:48 \
             20:0:58 20:0:54 20:2:41 20:4:47 20:4:53 21:0:62 21:0:49 21:0:56 \
             21:1:40 21:3:50 22:0:60 22:0:43 22:3:55 23:0:51 24:0:57 25:0:59 \
             26:0:61",
            [60, 60, 0, 18, 287, 22, 179, 601],
        ),
        (
            "full",
            (1, 3, 2),
            "4:0:3 4:0:8 4:2:5 4:2:4 4:3:6 4:3:7 8:0:12 8:0:13 8:2:22 8:5:15 \
             12:0:25 12:0:21 12:1:24 12:2:35 12:4:27 16:0:33 16:0:29 16:1:38 \
             16:4:45 20:0:42 20:0:34 20:1:59 20:4:53 21:0:17 21:0:11 22:0:20 \
             22:0:19 23:0:26 23:0:23 24:0:28 24:0:39 25:0:10 25:0:9 26:0:14 \
             26:0:36 27:0:18 27:0:50 28:0:30 28:0:61",
            [39, 39, 21, 128, 380, 22, 201, 975],
        ),
        (
            "full",
            (5, 2, 7),
            "4:0:6 4:0:4 4:0:5 4:0:3 4:0:10 4:1:8 4:2:11 4:4:7 4:5:9 8:0:14 \
             8:0:17 8:0:19 8:0:20 8:0:18 8:0:22 8:0:21 8:1:12 8:1:15 8:3:16 \
             8:5:13 12:0:27 12:0:24 12:0:23 12:0:25 12:0:29 12:0:30 12:0:35 \
             12:1:33 12:2:26 12:2:28 12:3:31 16:0:36 16:0:32 16:0:34 16:0:37 \
             16:0:39 16:0:42 16:0:44 16:1:40 16:2:41 16:4:46 16:5:38 20:0:48 \
             20:0:43 20:0:45 20:0:52 20:0:49 20:0:51 20:0:58 20:3:50 20:3:55 \
             20:4:47 20:4:53 21:0:62 21:0:54 21:0:61 21:0:57 21:0:56 22:0:60 \
             22:0:59",
            [60, 60, 0, 10, 231, 18, 120, 804],
        ),
        ];
        for (name, mix, seq, counters) in pinned {
            let topo = match name {
                "mesh" => TopologyKind::mesh(3, 2),
                "torus" => TopologyKind::torus(3, 2),
                "ring" => TopologyKind::ring(6),
                _ => TopologyKind::full(6),
            };
            let (got_seq, got_counters) = hetero_run(topo, mix);
            assert_eq!(got_seq, seq, "{name} {mix:?}: delivery sequence");
            assert_eq!(got_counters, counters, "{name} {mix:?}: counters");
            assert!(counters[3] > 0, "{name} {mix:?}: some head blocked");
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
        let max = u32::MAX as usize;
        let deep = FabricConfig {
            channel_capacity: max,
            ..FabricConfig::new(2, 2)
        };
        assert_eq!(
            Fabric::try_new(deep).err(),
            Some(FabricError::TooDeep {
                slots: 4 * (4 * max + 8),
                max
            })
        );
        let overflowing = FabricConfig {
            eject_capacity: usize::MAX,
            ..FabricConfig::new(2, 2)
        };
        assert_eq!(
            Fabric::try_new(overflowing).err(),
            Some(FabricError::TooDeep {
                slots: usize::MAX,
                max
            })
        );
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
        // Node 0's injection channel is channel 0 and its ring starts the
        // store.
        net.chans[0].filled_at = 5;
        assert!(net.check_invariants().unwrap_err().contains("filled at"));
        net.chans[0].filled_at = 0;
        net.ring[0] = entry(0, 2);
        assert!(net
            .check_invariants()
            .unwrap_err()
            .contains("carries destination 2"));
        net.ring[0] = entry(0, 3);
        // A second packet's slot naming the first's entry duplicates it.
        net.inject(NodeId::new(0), msg(3, 2)).unwrap();
        let second = net.ring[1];
        net.ring[1] = net.ring[0];
        assert!(net
            .check_invariants()
            .unwrap_err()
            .contains("two ring slots"));
        net.ring[1] = second;
        assert_eq!(drain(&mut net, 3, 16), vec![1, 2]);
        net.check_invariants().unwrap();
        // A freed id taken off the free list but never placed has leaked.
        let id = net.free.pop().unwrap();
        assert!(net.check_invariants().unwrap_err().contains("leaked"));
        net.free.extend([id, id]);
        assert!(net.check_invariants().unwrap_err().contains("twice"));
    }
}
