//! The switched fabric: finite channel FIFOs, one packet per link per
//! cycle, and backpressure, over a pluggable [`Topology`].
//!
//! Historically this was a hard-coded 2-D mesh (`Mesh2d`); the routing
//! geometry is now delegated to a [`TopologyKind`], so the same switched
//! core — including the active-channel frontier, per-link observability,
//! and the sharded `tick_domains` cycle — serves mesh, torus, ring, and
//! fully-connected fabrics. For the mesh the channel layout and scan
//! order are bit-identical to the original: channels are numbered
//! `node * stride + role` with role 0 = inject, roles `1..=ports` the
//! topology's ports in order, and role `stride - 1` = eject, which for
//! the mesh reproduces the historical inject/east/west/north/south/eject
//! layout exactly.

use std::collections::VecDeque;

use tcni_core::{Message, NodeId};
use tcni_util::disjoint::{split_groups, GroupMut, SlotClaims};
use tcni_util::par::run_tasks;

use crate::stats::{LatencyHist, NetStats};
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

// Channel-layout arithmetic as free functions of the topology, so the
// parallel tick's workers (which cannot hold `&self` while the channel
// vector is split) share the exact decision procedure with the serial
// methods. A node's channels are `node * stride + role` with role 0 =
// inject, role `1 + p` = topology port `p`, role `stride - 1` = eject.
// Frontier slots order the movable roles ports-first, inject-last:
// `node * move_slots + rank` with rank `p` for port `p` and rank
// `ports` for inject — for the mesh this is exactly the historical
// east/west/north/south/inject move order.

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

/// The routing decision for a packet *located at* `node`, as a role.
fn route_c(topo: &TopologyKind, node: usize, dst: usize) -> usize {
    match topo.route(node, dst) {
        Hop::Port(p) => 1 + p,
        Hop::Eject => topo.stride() - 1,
    }
}

/// The node a packet in `(node, role)` is located at / heading into.
fn target_c(topo: &TopologyKind, node: usize, role: usize) -> usize {
    if role == INJECT_ROLE {
        node
    } else {
        topo.port_target(node, role - 1)
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

/// The spatial domain (index into `bounds` windows) that owns `node`.
fn dom_of(bounds: &[usize], node: usize) -> u32 {
    (bounds.partition_point(|&b| b <= node) - 1) as u32
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
    /// [`NodeId`]'s wide-format address space ([`NodeId::MAX_NODES`]).
    pub fn new(config: FabricConfig) -> Fabric {
        let n = config.topo.nodes();
        assert!(
            n <= NodeId::MAX_NODES,
            "fabric larger than the NodeId address space"
        );
        assert!(
            config.channel_capacity > 0 && config.inject_capacity > 0 && config.eject_capacity > 0,
            "capacities must be non-zero"
        );
        let stride = config.topo.stride();
        // Every FIFO is preallocated to its capacity so the steady-state
        // tick/inject path never allocates.
        let cap = |i: usize| cap_of_c(&config, i % stride, stride);
        Fabric {
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
        }
    }

    /// Checks the fabric's two incremental sets against the channels they
    /// index: a frontier bit is set iff its movable channel is occupied, and
    /// an eject-ready bit is set iff its node's ejection channel is. Meant
    /// for property tests: it walks every channel.
    ///
    /// # Errors
    ///
    /// A description of the first mismatch.
    pub fn check_invariants(&self) -> Result<(), String> {
        let topo = self.config.topo;
        let (stride, move_slots, ports) = (topo.stride(), topo.move_slots(), topo.ports());
        for slot in 0..self.node_count() * move_slots {
            let (node, role) = (slot / move_slots, role_of_rank(slot % move_slots, ports));
            let occupied = !self.chans[chan_of(node, role, stride)].is_empty();
            if bit(&self.active, slot) != occupied {
                return Err(format!(
                    "frontier slot {slot} (node {node}, role {role}): occupied={occupied} \
                     but bit={}",
                    !occupied
                ));
            }
        }
        for node in 0..self.node_count() {
            let occupied = !self.chans[chan_of(node, stride - 1, stride)].is_empty();
            if bit(&self.eject_ready, node) != occupied {
                return Err(format!(
                    "eject-ready node {node}: occupied={occupied} but bit={}",
                    !occupied
                ));
            }
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

    /// Marks the movable channel `(node, role)` non-empty in the frontier.
    #[inline]
    fn mark_active(&mut self, node: usize, role: usize) {
        let ports = self.config.topo.ports();
        debug_assert!(role != ports + 1, "eject channels are untracked");
        let slot = node * self.config.topo.move_slots() + rank_of_role(role, ports);
        self.active[slot / 64] |= 1u64 << (slot % 64);
    }

    /// Clears the frontier bit of slot `slot` (its channel just emptied).
    #[inline]
    fn clear_active_slot(&mut self, slot: usize) {
        self.active[slot / 64] &= !(1u64 << (slot % 64));
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

    fn note_push(&mut self, idx: usize) {
        if self.observe {
            let depth = self.chans[idx].len();
            let link = &mut self.links[idx];
            link.hwm = link.hwm.max(depth);
        }
    }

    /// The fabric configuration.
    pub fn config(&self) -> FabricConfig {
        self.config
    }

    fn chan_index(&self, node: usize, role: usize) -> usize {
        chan_of(node, role, self.config.topo.stride())
    }

    fn eject_role(&self) -> usize {
        self.config.topo.stride() - 1
    }

    /// Occupancy of a node's ejection buffer (for tests and observability).
    pub fn eject_occupancy(&self, node: NodeId) -> usize {
        self.chans[self.chan_index(node.index(), self.eject_role())].len()
    }

    /// One head-of-line move attempt for frontier slot `slot`, shared by the
    /// hot-set and dense scans. Packets stamped `moved_at == now` have
    /// already hopped this cycle.
    fn move_head(&mut self, slot: usize) {
        let topo = self.config.topo;
        let (stride, move_slots, ports) = (topo.stride(), topo.move_slots(), topo.ports());
        let node = slot / move_slots;
        let role = role_of_rank(slot % move_slots, ports);
        let src_idx = chan_of(node, role, stride);
        let Some(head) = self.chans[src_idx].front() else {
            // Only the dense scan visits empty channels; the frontier
            // guarantees occupancy.
            debug_assert!(self.dense_scan, "frontier bit set on empty channel");
            return;
        };
        if head.moved_at >= self.now {
            return;
        }
        // Location of the packet: for link channels it is the link's
        // far end; for inject it is the node itself.
        let loc = target_c(&topo, node, role);
        let dst = head.msg.dest().index();
        let next_role = route_c(&topo, loc, dst);
        let next_idx = chan_of(loc, next_role, stride);
        if self.chans[next_idx].len() >= cap_of_c(&self.config, next_role, stride) {
            self.stats.blocked_hops += 1;
            if self.observe {
                self.links[src_idx].blocked += 1;
            }
            return;
        }
        let mut p = self.chans[src_idx].pop_front().expect("head checked");
        p.moved_at = self.now;
        if self.chans[src_idx].is_empty() {
            self.clear_active_slot(slot);
        }
        self.chans[next_idx].push_back(p);
        if self.chans[next_idx].len() == 1 {
            if next_role == stride - 1 {
                self.eject_ready[loc / 64] |= 1u64 << (loc % 64);
            } else {
                self.mark_active(loc, next_role);
            }
        }
        self.note_push(next_idx);
    }

    /// The post-guard body of [`Network::tick`] (`now` already advanced,
    /// fabric known non-empty), shared by the serial tick and the fallback
    /// paths of [`tick_domains`](Fabric::tick_domains).
    fn tick_body(&mut self) {
        let move_slots = self.config.topo.move_slots();
        let dense_cost = (self.node_count() * move_slots) as u64;
        let mut visited: u64 = 0;
        if self.dense_scan {
            for slot in 0..self.node_count() * move_slots {
                self.move_head(slot);
            }
            visited = dense_cost;
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
        self.stats.scan.scanned_channels += visited;
        self.stats.scan.skipped_work += dense_cost - visited;
    }

    /// One cycle of the fabric, executed across spatial domains in parallel,
    /// **bit-identical to [`Network::tick`]** — state, behavioural stats, and
    /// the [`ScanStats`](crate::ScanStats) effort meters all end up
    /// byte-equal at any thread count.
    ///
    /// `bounds` is an ascending node partition (`bounds[0] == 0`,
    /// `bounds.last() == node_count()`); domain `d` owns nodes
    /// `bounds[d]..bounds[d + 1]` and all their channels. The partition is
    /// topology-agnostic: conflict components are computed over the actual
    /// channel graph, so wrap links (torus/ring) and long-range links
    /// (fully-connected) simply produce more boundary components.
    ///
    /// # How identity is kept
    ///
    /// A serial pre-pass walks the tick-start frontier (every head packet
    /// still carries `moved_at < now`, so each occupied slot's single
    /// possible move `src → tgt` is known before anything mutates) and
    /// unions the touched channels into *conflict components*. Channels in
    /// different components share no capacity checks, no pops, and no
    /// pushes this cycle, so components execute independently; each worker
    /// replays its component's slots in ascending order with the same
    /// mid-scan re-activation rule as the serial word remask (a move that
    /// activates a *later* slot queues it for this cycle; earlier slots wait
    /// for the next one). Components whose channels sit in one domain run
    /// as that domain's task; components spanning domains form one extra
    /// "boundary" task — scheduling only, the outcome is order-free because
    /// components are disjoint. Frontier-bitmap words are shared across
    /// domains, so workers buffer bit updates and the merge applies all
    /// clears, then all sets (within one tick a slot can go clear→set but
    /// never set→clear: a just-moved packet cannot move again).
    ///
    /// Falls back to the serial body (identical by definition) when the
    /// dense-scan cross-check or per-link observability is on, or when
    /// fewer than two tasks have work.
    pub fn tick_domains(&mut self, bounds: &[usize], scratch: &mut FabricTickScratch) {
        self.now += 1;
        if self.in_flight == 0 {
            return;
        }
        let domains = bounds.len().saturating_sub(1);
        if self.dense_scan || self.observe || domains < 2 {
            self.tick_body();
            return;
        }
        debug_assert_eq!(bounds[0], 0);
        debug_assert_eq!(*bounds.last().expect("non-empty bounds"), self.node_count());

        scratch.prepare(self.chans.len(), domains);
        let FabricTickScratch {
            ref mut moves,
            ref mut parent,
            ref mut dom_min,
            ref mut dom_max,
            ref mut chan_epoch,
            epoch,
            ref mut touched,
            ref mut groups,
            ref mut worklists,
            ref mut deltas,
            ref mut claims,
        } = *scratch;

        let topo = self.config.topo;
        let (stride, move_slots, ports) = (topo.stride(), topo.move_slots(), topo.ports());

        // Pre-pass: the single possible move of every initially-active slot.
        for (w, &word) in self.active.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let slot = w * 64 + b;
                let node = slot / move_slots;
                let role = role_of_rank(slot % move_slots, ports);
                let src = chan_of(node, role, stride);
                let Some(head) = self.chans[src].front() else {
                    debug_assert!(false, "frontier bit set on empty channel");
                    continue;
                };
                debug_assert!(head.moved_at < self.now, "head already moved this cycle");
                let loc = target_c(&topo, node, role);
                let tgt_role = route_c(&topo, loc, head.msg.dest().index());
                let tgt = chan_of(loc, tgt_role, stride);
                moves.push((slot as u32, src as u32, tgt as u32));
            }
        }

        // Conflict components over the touched channels.
        for &(_, src, tgt) in moves.iter() {
            for c in [src, tgt] {
                let i = c as usize;
                if chan_epoch[i] != epoch {
                    chan_epoch[i] = epoch;
                    parent[i] = c;
                    let d = dom_of(bounds, i / stride);
                    dom_min[i] = d;
                    dom_max[i] = d;
                    touched.push(c);
                }
            }
            let (ra, rb) = (uf_find(parent, src), uf_find(parent, tgt));
            if ra != rb {
                parent[rb as usize] = ra;
                dom_min[ra as usize] = dom_min[ra as usize].min(dom_min[rb as usize]);
                dom_max[ra as usize] = dom_max[ra as usize].max(dom_max[rb as usize]);
            }
        }

        // Task assignment: single-domain components → that domain's task;
        // domain-spanning components → the boundary task (index `domains`).
        let task_of = |parent: &mut [u32], dom_min: &[u32], dom_max: &[u32], c: u32| {
            let r = uf_find(parent, c) as usize;
            if dom_min[r] == dom_max[r] {
                dom_min[r] as usize
            } else {
                domains
            }
        };
        for &(slot, src, _) in moves.iter() {
            worklists[task_of(parent, dom_min, dom_max, src)].push(slot);
        }
        if worklists.iter().filter(|w| !w.is_empty()).count() < 2 {
            // Everything collapsed into one task (often the boundary task on
            // tiny fabrics): the parallel machinery would only add overhead.
            worklists.iter_mut().for_each(Vec::clear);
            self.tick_body();
            return;
        }
        for &c in touched.iter() {
            groups[task_of(parent, dom_min, dom_max, c)].push(c);
        }
        for g in groups.iter_mut() {
            g.sort_unstable();
        }

        let cfg = self.config;
        let now = self.now;
        let split = split_groups(&mut self.chans, groups, claims)
            .expect("conflict components are disjoint by construction");
        let mut tasks: Vec<TickTask<'_>> = split
            .into_iter()
            .zip(worklists.iter_mut())
            .zip(deltas.iter_mut())
            .map(|((chans, worklist), delta)| TickTask {
                chans,
                worklist,
                delta,
            })
            .collect();
        run_tasks(&mut tasks, |_, t| exec_worklist(&cfg, now, t));
        drop(tasks);

        // Deterministic merge, in task order. Every slot belongs to exactly
        // one task's delta, and within a tick its bit history is one of
        // {clear}, {set}, {clear then set} — so applying all clears before
        // all sets reproduces the serial final bitmap.
        let dense_cost = (self.node_count() * move_slots) as u64;
        let mut visited: u64 = 0;
        for d in deltas.iter() {
            visited += d.visited;
            self.stats.blocked_hops += d.blocked;
        }
        for d in deltas.iter() {
            for &slot in &d.clears {
                self.active[slot as usize / 64] &= !(1u64 << (slot % 64));
            }
        }
        for d in deltas.iter() {
            for &slot in &d.sets {
                self.active[slot as usize / 64] |= 1u64 << (slot % 64);
            }
            for &node in &d.eject_sets {
                self.eject_ready[node as usize / 64] |= 1u64 << (node % 64);
            }
        }
        self.stats.scan.scanned_channels += visited;
        self.stats.scan.skipped_work += dense_cost - visited;
        for wl in worklists.iter_mut() {
            wl.clear();
        }
        for d in deltas.iter_mut() {
            d.clear();
        }
    }

    /// Splits the fabric into per-domain injection/ejection views for the
    /// machine simulator's parallel cycle. Domain `d` of `bounds` receives
    /// exclusive access to its nodes' channels; counters accumulate into a
    /// per-range delta that [`absorb_inject_deltas`](Fabric::absorb_inject_deltas)
    /// or [`absorb_eject_deltas`](Fabric::absorb_eject_deltas) folds back in
    /// domain order, reproducing the serial ascending-node scan byte for
    /// byte. Requires per-link observability to be off.
    pub fn split_node_ranges(&mut self, bounds: &[usize]) -> Vec<FabricRange<'_>> {
        debug_assert!(!self.observe, "ranges do not maintain per-link counters");
        debug_assert_eq!(bounds[0], 0);
        debug_assert_eq!(*bounds.last().expect("non-empty bounds"), self.node_count());
        let stride = self.config.topo.stride();
        let total_nodes = self.node_count();
        let now = self.now;
        let cfg = self.config;
        let mut out = Vec::with_capacity(bounds.len().saturating_sub(1));
        let eject_ready: &[u64] = &self.eject_ready;
        let mut chans: &mut [VecDeque<Packet>] = self.chans.as_mut_slice();
        for w in bounds.windows(2) {
            let take = (w[1] - w[0]) * stride;
            let rest = chans;
            let (head, tail) = rest.split_at_mut(take);
            chans = tail;
            out.push(FabricRange {
                cfg,
                now,
                total_nodes,
                lo: w[0],
                chans: head,
                eject_ready,
                delta: FabricRangeDelta::default(),
            });
        }
        out
    }

    /// Folds injection-phase deltas back into the fabric, in domain order.
    /// The in-flight high-water mark is re-armed once at the end of the
    /// phase, which equals the serial per-inject maximum because in-flight
    /// only grows during injection.
    pub fn absorb_inject_deltas(&mut self, deltas: impl IntoIterator<Item = FabricRangeDelta>) {
        for d in deltas {
            debug_assert_eq!(d.delivered, 0, "inject-phase delta carries ejections");
            self.stats.injected += d.injected;
            self.stats.inject_refusals += d.refusals;
            self.stats.bad_dest += d.bad_dest;
            self.in_flight = usize::try_from(self.in_flight as i64 + d.in_flight)
                .expect("in-flight count cannot go negative");
            for &slot in &d.marks {
                self.active[slot as usize / 64] |= 1u64 << (slot % 64);
            }
        }
        self.stats.in_flight_hwm = self.stats.in_flight_hwm.max(self.in_flight);
    }

    /// Folds ejection-phase deltas back into the fabric, in domain order.
    pub fn absorb_eject_deltas(&mut self, deltas: impl IntoIterator<Item = FabricRangeDelta>) {
        for d in deltas {
            debug_assert_eq!(d.injected, 0, "eject-phase delta carries injections");
            debug_assert!(d.marks.is_empty(), "ejection never marks the frontier");
            for &node in &d.emptied {
                self.eject_ready[node as usize / 64] &= !(1u64 << (node % 64));
            }
            self.stats.delivered += d.delivered;
            self.stats.total_latency += d.total_latency;
            self.stats.latency_hist.merge(&d.hist);
            self.in_flight = usize::try_from(self.in_flight as i64 + d.in_flight)
                .expect("in-flight count cannot go negative");
        }
    }
}

/// Whether bit `i` of a bitmap is set.
fn bit(words: &[u64], i: usize) -> bool {
    words[i / 64] & (1u64 << (i % 64)) != 0
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

fn uf_find(parent: &mut [u32], mut c: u32) -> u32 {
    loop {
        let p = parent[c as usize];
        if p == c {
            return c;
        }
        // Path halving keeps the pre-pass near-linear.
        let g = parent[p as usize];
        parent[c as usize] = g;
        c = g;
    }
}

/// Reusable workspace for [`Fabric::tick_domains`]: the pre-pass move list,
/// the union-find over touched channels, per-task worklists/channel groups,
/// and per-task effect buffers. One instance per machine amortizes every
/// allocation across cycles.
#[derive(Default)]
pub struct FabricTickScratch {
    moves: Vec<(u32, u32, u32)>,
    parent: Vec<u32>,
    dom_min: Vec<u32>,
    dom_max: Vec<u32>,
    chan_epoch: Vec<u32>,
    epoch: u32,
    touched: Vec<u32>,
    groups: Vec<Vec<u32>>,
    worklists: Vec<Vec<u32>>,
    deltas: Vec<FabricTickDelta>,
    claims: SlotClaims,
}

impl FabricTickScratch {
    /// Creates an empty workspace; it sizes itself on first use.
    pub fn new() -> FabricTickScratch {
        FabricTickScratch::default()
    }

    fn prepare(&mut self, chan_count: usize, domains: usize) {
        if self.parent.len() < chan_count {
            self.parent.resize(chan_count, 0);
            self.dom_min.resize(chan_count, 0);
            self.dom_max.resize(chan_count, 0);
            self.chan_epoch.resize(chan_count, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.chan_epoch.fill(0);
            self.epoch = 1;
        }
        self.moves.clear();
        self.touched.clear();
        let tasks = domains + 1;
        for g in &mut self.groups {
            g.clear();
        }
        self.groups.resize_with(tasks, Vec::new);
        self.groups.truncate(tasks);
        for w in &mut self.worklists {
            w.clear();
        }
        self.worklists.resize_with(tasks, Vec::new);
        self.worklists.truncate(tasks);
        for d in &mut self.deltas {
            d.clear();
        }
        self.deltas.resize_with(tasks, FabricTickDelta::default);
        self.deltas.truncate(tasks);
    }
}

/// Effects one tick task buffers instead of applying to shared state.
#[derive(Default)]
struct FabricTickDelta {
    visited: u64,
    blocked: u64,
    clears: Vec<u32>,
    sets: Vec<u32>,
    /// Nodes whose ejection channel a move filled (eject-ready marks).
    eject_sets: Vec<u32>,
}

impl FabricTickDelta {
    fn clear(&mut self) {
        self.visited = 0;
        self.blocked = 0;
        self.clears.clear();
        self.sets.clear();
        self.eject_sets.clear();
    }
}

/// One task's working set: exclusive access to its component channels, its
/// slot worklist (mutated by mid-scan re-activations), and its delta.
struct TickTask<'a> {
    chans: GroupMut<'a, VecDeque<Packet>>,
    worklist: &'a mut Vec<u32>,
    delta: &'a mut FabricTickDelta,
}

/// Replays one task's slots exactly as the serial hot scan would visit them:
/// ascending order, with a move that activates a strictly-later slot
/// inserting that slot into the remaining (sorted) worklist — the mirror of
/// the serial scan's strictly-above word remask.
fn exec_worklist(cfg: &FabricConfig, now: u64, t: &mut TickTask<'_>) {
    let topo = cfg.topo;
    let (stride, move_slots, ports) = (topo.stride(), topo.move_slots(), topo.ports());
    let mut i = 0;
    while i < t.worklist.len() {
        let slot = t.worklist[i] as usize;
        i += 1;
        t.delta.visited += 1;
        let node = slot / move_slots;
        let role = role_of_rank(slot % move_slots, ports);
        let src = chan_of(node, role, stride) as u32;
        let Some(head) = t.chans.get(src).front() else {
            debug_assert!(false, "worklist slot on empty channel");
            continue;
        };
        if head.moved_at >= now {
            // A re-activation visit: the packet arrived earlier this cycle.
            continue;
        }
        let loc = target_c(&topo, node, role);
        let tgt_role = route_c(&topo, loc, head.msg.dest().index());
        let tgt = chan_of(loc, tgt_role, stride) as u32;
        if t.chans.get(tgt).len() >= cap_of_c(cfg, tgt_role, stride) {
            t.delta.blocked += 1;
            continue;
        }
        let mut p = t.chans.get_mut(src).pop_front().expect("head checked");
        p.moved_at = now;
        if t.chans.get(src).is_empty() {
            t.delta.clears.push(slot as u32);
        }
        let tgt_chan = t.chans.get_mut(tgt);
        tgt_chan.push_back(p);
        let became_active = tgt_chan.len() == 1;
        if tgt_role == stride - 1 && became_active {
            t.delta.eject_sets.push(loc as u32);
        } else if became_active {
            let t_slot = (loc * move_slots + rank_of_role(tgt_role, ports)) as u32;
            t.delta.sets.push(t_slot);
            if t_slot as usize > slot {
                // Visited this cycle by the serial scan; queue it. It cannot
                // already be pending: activation means the channel was empty.
                match t.worklist[i..].binary_search(&t_slot) {
                    Ok(_) => debug_assert!(false, "activated slot already queued"),
                    Err(pos) => t.worklist.insert(i + pos, t_slot),
                }
            }
        }
    }
}

/// Per-range counters accumulated by [`FabricRange`] operations; opaque to
/// callers, who hand them back to the fabric's absorb methods.
#[derive(Default)]
pub struct FabricRangeDelta {
    injected: u64,
    refusals: u64,
    bad_dest: u64,
    in_flight: i64,
    delivered: u64,
    total_latency: u64,
    hist: LatencyHist,
    marks: Vec<u32>,
    /// Nodes whose ejection channel an `eject` emptied (eject-ready clears).
    emptied: Vec<u32>,
}

/// Exclusive injection/ejection access to one spatial domain's channels,
/// produced by [`Fabric::split_node_ranges`]. Mirrors the serial
/// [`Network`] entry points byte for byte, buffering shared-counter updates
/// into a [`FabricRangeDelta`].
pub struct FabricRange<'a> {
    cfg: FabricConfig,
    now: u64,
    total_nodes: usize,
    lo: usize,
    chans: &'a mut [VecDeque<Packet>],
    /// The whole fabric's eject-ready set, read-only while the fabric is
    /// split; clears are buffered in the delta.
    eject_ready: &'a [u64],
    delta: FabricRangeDelta,
}

impl FabricRange<'_> {
    /// Number of nodes attached to the whole fabric (not just this range) —
    /// the destination validity domain, as in [`Network::node_count`].
    pub fn node_count(&self) -> usize {
        self.total_nodes
    }

    fn local(&self, node: usize, role: usize) -> usize {
        let stride = self.cfg.topo.stride();
        debug_assert!(node >= self.lo && (node - self.lo) * stride < self.chans.len());
        (node - self.lo) * stride + role
    }

    /// Offers a message for injection at `src` (a node of this range);
    /// identical semantics to [`Network::inject`].
    ///
    /// # Errors
    ///
    /// Exactly as [`Network::inject`]: `Refused` on a full entry buffer,
    /// `BadDest` for a destination outside the fabric.
    pub fn inject(&mut self, src: NodeId, msg: Message) -> Result<(), InjectError> {
        if msg.dest().index() >= self.total_nodes {
            self.delta.bad_dest += 1;
            return Err(InjectError::BadDest(msg));
        }
        let idx = self.local(src.index(), INJECT_ROLE);
        if self.chans[idx].len() >= self.cfg.inject_capacity {
            self.delta.refusals += 1;
            return Err(InjectError::Refused(msg));
        }
        self.chans[idx].push_back(Packet {
            msg,
            injected_at: self.now,
            moved_at: self.now,
        });
        if self.chans[idx].len() == 1 {
            let topo = self.cfg.topo;
            let slot = src.index() * topo.move_slots() + rank_of_role(INJECT_ROLE, topo.ports());
            self.delta.marks.push(slot as u32);
        }
        self.delta.in_flight += 1;
        self.delta.injected += 1;
        Ok(())
    }

    /// The message ready for delivery at `dst` this cycle, if any; identical
    /// semantics to [`Network::peek_eject`].
    pub fn peek_eject(&self, dst: NodeId) -> Option<&Message> {
        self.chans[self.local(dst.index(), self.cfg.topo.stride() - 1)]
            .front()
            .map(|p| &p.msg)
    }

    /// The first node in `from..to` (nodes of this range) whose ejection
    /// channel was non-empty when the fabric was split; identical semantics
    /// to [`Network::next_eject_ready`] for nodes this range has not yet
    /// drained.
    pub fn next_eject_ready(&self, from: usize, to: usize) -> Option<usize> {
        next_set(self.eject_ready, from, to)
    }

    /// Removes and returns the message ready at `dst`; identical semantics
    /// to [`Network::eject`].
    pub fn eject(&mut self, dst: NodeId) -> Option<Message> {
        let idx = self.local(dst.index(), self.cfg.topo.stride() - 1);
        let p = self.chans[idx].pop_front()?;
        if self.chans[idx].is_empty() {
            self.delta.emptied.push(dst.index() as u32);
        }
        self.delta.in_flight -= 1;
        self.delta.delivered += 1;
        let latency = self.now - p.injected_at;
        self.delta.total_latency += latency;
        self.delta.hist.record(latency);
        Some(p.msg)
    }

    /// Consumes the range, releasing its channel borrow and yielding the
    /// buffered counters for the fabric's absorb methods.
    pub fn into_delta(self) -> FabricRangeDelta {
        self.delta
    }
}

impl Network for Fabric {
    fn node_count(&self) -> usize {
        self.config.topo.nodes()
    }

    fn inject(&mut self, src: NodeId, msg: Message) -> Result<(), InjectError> {
        if msg.dest().index() >= self.node_count() {
            self.stats.bad_dest += 1;
            return Err(InjectError::BadDest(msg));
        }
        let idx = self.chan_index(src.index(), INJECT_ROLE);
        if self.chans[idx].len() >= self.config.inject_capacity {
            self.stats.inject_refusals += 1;
            return Err(InjectError::Refused(msg));
        }
        self.chans[idx].push_back(Packet {
            msg,
            injected_at: self.now,
            moved_at: self.now,
        });
        if self.chans[idx].len() == 1 {
            self.mark_active(src.index(), INJECT_ROLE);
        }
        self.in_flight += 1;
        self.stats.injected += 1;
        self.stats.in_flight_hwm = self.stats.in_flight_hwm.max(self.in_flight);
        self.note_push(idx);
        Ok(())
    }

    fn peek_eject(&self, dst: NodeId) -> Option<&Message> {
        self.chans[self.chan_index(dst.index(), self.eject_role())]
            .front()
            .map(|p| &p.msg)
    }

    fn eject(&mut self, dst: NodeId) -> Option<Message> {
        let idx = self.chan_index(dst.index(), self.eject_role());
        let p = self.chans[idx].pop_front()?;
        if self.chans[idx].is_empty() {
            let node = dst.index();
            self.eject_ready[node / 64] &= !(1u64 << (node % 64));
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
        self.tick_body();
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

    /// `tick_domains` must be bit-identical to the serial `tick` — including
    /// the scan effort meters, since the parallel path replays exactly the
    /// serial visit multiset — under sustained mixed traffic with blocked
    /// moves and mid-cycle re-activations, at several domain counts, on
    /// every topology (wrap links make boundary components common).
    #[test]
    fn tick_domains_matches_serial_tick() {
        for topo in [
            TopologyKind::mesh(4, 3),
            TopologyKind::torus(4, 3),
            TopologyKind::ring(12),
            TopologyKind::full(12),
        ] {
            let run = |domains: usize| -> (Vec<(u16, u32)>, NetStats, crate::ScanStats) {
                let mut net = Fabric::new(FabricConfig::of(topo));
                let n = net.node_count();
                let bounds: Vec<usize> = tcni_util::par::domain_bounds(n, domains);
                let mut scratch = FabricTickScratch::new();
                let mut got = Vec::new();
                let mut x = 0x1234_5678_9abc_def0u64;
                for step in 0..600u32 {
                    for k in 0..3u32 {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let src = ((x >> 33) % n as u64) as u16;
                        let dst = ((x >> 13) % n as u64) as u16;
                        let _ = net.inject(NodeId::new(src), msg(dst, step * 4 + k));
                    }
                    if domains == 0 {
                        net.tick();
                    } else {
                        net.tick_domains(&bounds, &mut scratch);
                    }
                    net.check_invariants().unwrap();
                    if step % 3 == 0 {
                        for d in 0..n as u16 {
                            while let Some(m) = net.eject(NodeId::new(d)) {
                                got.push((d, m.words[1]));
                            }
                        }
                        net.check_invariants().unwrap();
                    }
                }
                for _ in 0..200 {
                    if domains == 0 {
                        net.tick();
                    } else {
                        net.tick_domains(&bounds, &mut scratch);
                    }
                    for d in 0..n as u16 {
                        while let Some(m) = net.eject(NodeId::new(d)) {
                            got.push((d, m.words[1]));
                        }
                    }
                }
                assert_eq!(net.in_flight(), 0, "everything drained");
                (got, net.stats(), net.stats().scan)
            };
            tcni_util::par::set_threads(3);
            let (serial, serial_stats, serial_scan) = run(0);
            for domains in [1, 2, 3, 5, 12] {
                let name = topo.name();
                let (par, par_stats, par_scan) = run(domains);
                assert_eq!(serial, par, "{name} domains={domains}: delivery order");
                assert_eq!(serial_stats, par_stats, "{name} domains={domains}: stats");
                // Stronger than the hot-vs-dense pin: the parallel scan
                // replays the same visits, so even the effort meters must be
                // byte-equal.
                assert_eq!(serial_scan, par_scan, "{name} domains={domains}: scan");
            }
            tcni_util::par::set_threads(0);
        }
    }

    /// The per-domain inject/eject ranges plus delta absorption must match
    /// the serial `Network` entry points byte for byte.
    #[test]
    fn node_ranges_match_serial_inject_and_eject() {
        let drive = |split: bool| -> (Vec<(u16, u32)>, NetStats) {
            let mut net = Fabric::new(FabricConfig::new(3, 2));
            let n = net.node_count();
            let bounds = [0usize, 2, 4, n];
            let mut got = Vec::new();
            let mut x = 0x0dd0_beef_1234_5678u64;
            for step in 0..400u32 {
                // Injection phase: every node offers one message; node 5
                // sometimes offers one with an invalid destination.
                if split {
                    let mut ranges = net.split_node_ranges(&bounds);
                    for (d, range) in ranges.iter_mut().enumerate() {
                        for node in bounds[d]..bounds[d + 1] {
                            x = x
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            // Hot-spot node 0 half the time so backpressure
                            // reaches the injectors and refusals happen.
                            let dst = if x & 1 == 0 {
                                0
                            } else {
                                ((x >> 23) % (n as u64 + 1)) as u16
                            };
                            let _ = range.inject(NodeId::new(node as u16), msg(dst, step));
                        }
                    }
                    let deltas: Vec<FabricRangeDelta> =
                        ranges.into_iter().map(FabricRange::into_delta).collect();
                    net.absorb_inject_deltas(deltas);
                } else {
                    for node in 0..n {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let dst = if x & 1 == 0 {
                            0
                        } else {
                            ((x >> 23) % (n as u64 + 1)) as u16
                        };
                        let _ = net.inject(NodeId::new(node as u16), msg(dst, step));
                    }
                }
                net.tick();
                net.check_invariants().unwrap();
                // Ejection phase: drain every eject-ready node,
                // intermittently, so the hot-spot eject buffer backs up in
                // between.
                if step % 5 == 0 {
                    if split {
                        let mut ranges = net.split_node_ranges(&bounds);
                        for (d, range) in ranges.iter_mut().enumerate() {
                            let mut from = bounds[d];
                            while let Some(node) = range.next_eject_ready(from, bounds[d + 1]) {
                                from = node + 1;
                                while range.peek_eject(NodeId::new(node as u16)).is_some() {
                                    let m = range.eject(NodeId::new(node as u16)).unwrap();
                                    got.push((node as u16, m.words[1]));
                                }
                            }
                        }
                        let deltas: Vec<FabricRangeDelta> =
                            ranges.into_iter().map(FabricRange::into_delta).collect();
                        net.absorb_eject_deltas(deltas);
                    } else {
                        for node in 0..n {
                            while net.peek_eject(NodeId::new(node as u16)).is_some() {
                                let m = net.eject(NodeId::new(node as u16)).unwrap();
                                got.push((node as u16, m.words[1]));
                            }
                        }
                    }
                    net.check_invariants().unwrap();
                }
            }
            (got, net.stats())
        };
        let (serial, serial_stats) = drive(false);
        let (split, split_stats) = drive(true);
        assert_eq!(serial, split, "delivery stream");
        assert_eq!(
            serial_stats, split_stats,
            "stats (hwm, bad_dest, refusals included)"
        );
        assert!(split_stats.bad_dest > 0, "the sweep exercised BadDest");
        assert!(
            split_stats.inject_refusals > 0,
            "the sweep exercised Refused"
        );
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
}
