//! The optional end-to-end delivery protocol: exactly-once, in-order
//! delivery per (source, destination) flow over an unreliable fabric.
//!
//! The fabric may drop, duplicate, corrupt, or stall messages (see
//! `tcni-net`'s fault layer); this layer restores the reliable-network
//! contract the paper assumes, the way NIC-level protocols do over real
//! fabrics. The machine drives it from its network phases when built with
//! [`MachineBuilder::delivery`](crate::MachineBuilder::delivery):
//!
//! * **send** — every NI-originated message is stamped with a per-flow
//!   sequence number and a payload checksum ([`tcni_core::E2eHeader`]),
//!   buffered until acknowledged, and subject to a per-flow window (a full
//!   window back-pressures into the NI output queue like a refused
//!   injection);
//! * **receive** — in-order data is delivered to the interface and
//!   cumulatively acked; duplicates and out-of-order arrivals are consumed
//!   and re-acked (never delivered); checksum mismatches are consumed
//!   silently (the sender's timeout recovers them);
//! * **retransmit** — a flow whose oldest unacked message outlives the
//!   timeout resends its whole window (go-back-N, preserving the
//!   point-to-point ordering the SCROLL extension relies on); after a
//!   bounded number of fruitless rounds the window is abandoned and counted,
//!   so a dead receiver cannot wedge the machine.
//!
//! Protocol copies (acks, retransmits) contend for the same injection slot
//! and fabric bandwidth as first sends — one injection per node per cycle —
//! so the protocol's cost is visible in the load curves, not hidden.
//!
//! ## Sparse flow store
//!
//! Flow state is keyed by the packed pair key `(major << 16) | minor`
//! ([`pair`]; tx is source-major, rx destination-major) and lives in one
//! [`NodeFlows`] open-addressing table per major node: SplitMix64-hashed
//! linear probing over a power-of-two index whose entries point into a
//! slab of flow slots. Memory is proportional to the *active* pairs — the
//! invariant a real NIC lives under, its per-flow state bounded by scarce
//! NIC memory — instead of the dense `nodes²` table a wide-format machine
//! could never afford. An absent entry reads as a default flow, so the
//! layout is invisible to behaviour. The store's oracle lives in this
//! module's tests: a `BTreeMap` model driven through the same random
//! insert/get/remove/iterate sequences.
//!
//! **Eviction semantics.** A tx flow is *never* evicted: its `next_psn`
//! seeds every future stamp and its `rounds` budget must not silently
//! reset, so the slot stays live once a first transmission commits. An rx
//! flow is evicted exactly when it returns to its default state — its
//! pending ack drains while `expected` is still 0 (only gap or duplicate
//! arrivals ever reached it) — which a fresh default slot represents
//! identically. Long-running uniform traffic therefore converges to one
//! live tx slot per communicating pair and rx slots for in-progress
//! receives.
//!
//! **Determinism.** Table lookups are metered (`ScanStats::flow_probes`),
//! and the meter is invariant under the sharded cycle: every metered lookup
//! is driven by its major node's own phase work in per-node program order,
//! whichever view runs it, and a linear-probe lookup of an existing key
//! is unaffected by later inserts (they only fill cells off its probe
//! path). Timeout-list maintenance, whose neighbour lookups replay at a
//! different point of the cycle when it is sharded, is excluded from
//! the meter (see [`Delivery::link_tail`]), as are resize rehashes.
//!
//! ## Hot-set scheduling
//!
//! The per-cycle retransmission pump does **not** scan all active flows:
//! flows holding unacked data are linked on an intrusive *timeout list*
//! ordered by `last_send`. Every `last_send` update stamps the current
//! cycle and moves the flow to the tail, so the list stays sorted without
//! ever being sorted — the pump walks from the oldest end and stops at the
//! first flow that is not yet due. The flows due on one cycle are then
//! fired in ascending pair key, which is exactly the (src, dst) order of
//! the old dense scan, so retransmit copies enter each outbox
//! bit-identically. A flow joins the list when its first unacked message
//! is committed and leaves when its window fully acks or is abandoned. The
//! old per-fire outbox rescan ("copies from the previous round still
//! pending?") is a per-flow `pending_copies` counter maintained at outbox
//! push/pop. The dense scan survives in the machine's reference mode
//! ([`Machine::set_reference`](crate::Machine::set_reference)), examining
//! the dense `nodes²` cost.
//!
//! ## One protocol body, two views
//!
//! The protocol is written once, as free functions over the
//! [`DeliveryView`] trait, and runs against one of two views. The
//! whole-machine [`Delivery`] applies every effect in place: the machine's
//! one-domain cycle. Under the sharded cycle each spatial domain works
//! through a [`DeliveryRange`]: `tx`/outbox tables are source-major and
//! `rx` destination-major, so a domain's CPU-side sends and NI-side
//! receives touch only its own tables. Whatever is *not* sliceable — the
//! aggregate counters, the active-outbox set, and the intrusive timeout
//! list — is buffered as a [`DeliveryDelta`] and replayed by
//! [`Delivery::absorb_deltas`] in domain order, which is ascending node
//! order, i.e. exactly the order the one-domain cycle applies it in. The
//! timeout pump keeps its due-flow *collection* global (the list walk
//! meters `scanned_flows`), then fires the due flows in place or, given
//! enough of them and several domains, per domain in parallel.

use std::cell::Cell;
use std::collections::VecDeque;

use tcni_core::{payload_crc, E2eHeader, E2eKind, Message, NodeId, WireFormat};
use tcni_isa::MsgType;
use tcni_net::ScanStats;
use tcni_util::par::run_tasks;

use crate::outbox::{Outbox, OutboxDelta, OutboxRange, OutboxView};

/// Minimum due flows before the pump's fire phase goes parallel; below
/// this, per-task bookkeeping costs more than it saves.
const PAR_FIRE_MIN: usize = 8;

/// Null link of the intrusive timeout list. Links carry pair keys widened
/// to `u64`: the widest legal pair key (65535, 65535) is `u32::MAX`, so a
/// 32-bit sentinel would collide with a real flow on a 65536-node machine.
const NONE_LINK: u64 = u64::MAX;

/// Vacant cell of a [`NodeFlows`] probe index.
const EMPTY_SLOT: u32 = u32::MAX;

/// Slab slot on the free list (no pair owns it). `u64` for the same
/// sentinel-collision reason as [`NONE_LINK`].
const FREE_PAIR: u64 = u64::MAX;

/// Expect message for lookups of flows the timeout list proves live.
const LIVE: &str = "timeout-list flow is live";

/// Packs a (major, minor) node pair into the 32-bit flow key. Ascending
/// key order is lexicographic (major, minor) order — the dense scan's
/// (src, dst) fire order — because each index fits 16 bits.
#[inline]
fn pair(major: usize, minor: usize) -> u32 {
    debug_assert!(major < (1 << 16) && minor < (1 << 16));
    ((major as u32) << 16) | minor as u32
}

#[inline]
fn pair_major(pr: u32) -> usize {
    (pr >> 16) as usize
}

#[inline]
fn pair_minor(pr: u32) -> usize {
    (pr & 0xFFFF) as usize
}

/// SplitMix64 finalizer, spreading the 32-bit pair key over a
/// power-of-two bucket space. Hashing the *global* key (not a row-local
/// one) keeps serial and sharded probes on the same cells.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// Tuning knobs of the delivery protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveryConfig {
    /// Maximum unacknowledged messages per (src, dst) flow; a full window
    /// back-pressures the sender's NI output queue.
    pub window: usize,
    /// Cycles the oldest unacked message may wait before the flow
    /// retransmits (go-back-N).
    pub timeout: u64,
    /// Consecutive fruitless retransmit rounds before the flow abandons its
    /// window (bounded retransmit budget).
    pub retransmit_limit: u32,
}

impl Default for DeliveryConfig {
    /// Window 8, timeout 64 cycles, 32 retransmit rounds.
    fn default() -> DeliveryConfig {
        DeliveryConfig {
            window: 8,
            timeout: 64,
            retransmit_limit: 32,
        }
    }
}

/// Protocol counters (all monotone; window-difference for measurements).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeliveryStats {
    /// Messages admitted into the protocol (first transmissions committed).
    pub accepted: u64,
    /// Data copies queued for retransmission.
    pub retransmits: u64,
    /// Timeout rounds fired.
    pub timeout_rounds: u64,
    /// Acks queued by receivers.
    pub acks_sent: u64,
    /// Acks a receiver *would* have queued but coalesced into the one
    /// already pending for the flow instead (keeping the highest cumulative
    /// sequence number). Without coalescing, every data arrival on a
    /// congested outbox would enqueue another ack — an ack flood.
    pub acks_coalesced: u64,
    /// Acks consumed by senders.
    pub acks_received: u64,
    /// In-order first-time deliveries into interfaces (the protocol's
    /// goodput).
    pub delivered_unique: u64,
    /// Duplicate data arrivals consumed (already-delivered sequence number).
    pub dup_suppressed: u64,
    /// Out-of-order data arrivals consumed (a gap precedes them; go-back-N
    /// retransmission will resend them in order).
    pub out_of_order_dropped: u64,
    /// Arrivals whose payload failed the checksum, consumed silently.
    pub corrupt_dropped: u64,
    /// Messages abandoned after the retransmit budget ran out.
    pub abandoned: u64,
}

impl DeliveryStats {
    /// Adds another counter set into this one (per-domain deltas reduced in
    /// domain order by the parallel cycle).
    fn add(&mut self, o: &DeliveryStats) {
        self.accepted += o.accepted;
        self.retransmits += o.retransmits;
        self.timeout_rounds += o.timeout_rounds;
        self.acks_sent += o.acks_sent;
        self.acks_coalesced += o.acks_coalesced;
        self.acks_received += o.acks_received;
        self.delivered_unique += o.delivered_unique;
        self.dup_suppressed += o.dup_suppressed;
        self.out_of_order_dropped += o.out_of_order_dropped;
        self.corrupt_dropped += o.corrupt_dropped;
        self.abandoned += o.abandoned;
    }
}

/// What the receive side decided about an arrived protocol message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RxAction {
    /// In-order data: deliver to the interface (subject to `can_accept`).
    Deliver,
    /// Consume without delivering (ack, duplicate, out-of-order, corrupt).
    Consume,
}

#[derive(Debug)]
pub(crate) struct FlowTx {
    /// Next sequence number to assign.
    next_psn: u32,
    /// Sent but unacknowledged, ascending psn.
    unacked: VecDeque<(u32, Message)>,
    /// Cycle of the last (re)transmission or ack progress on this flow.
    last_send: u64,
    /// Consecutive timeout rounds without ack progress.
    rounds: u32,
    /// Retransmit copies of this flow's data currently sitting in the
    /// sender's outbox (maintained at push/pop; replaces the old per-pump
    /// outbox rescan).
    pending_copies: u32,
    /// Intrusive timeout-list links (pair keys; [`NONE_LINK`] at the ends).
    prev: u64,
    next: u64,
    /// Whether the flow is on the timeout list (⟺ `unacked` is non-empty).
    linked: bool,
}

impl Default for FlowTx {
    fn default() -> FlowTx {
        FlowTx {
            next_psn: 0,
            unacked: VecDeque::new(),
            last_send: 0,
            rounds: 0,
            pending_copies: 0,
            prev: NONE_LINK,
            next: NONE_LINK,
            linked: false,
        }
    }
}

#[derive(Debug, Default)]
pub(crate) struct FlowRx {
    /// Next sequence number expected (everything below is delivered).
    expected: u32,
    /// Whether an ack for this flow is already waiting in the receiver's
    /// outbox (newer cumulative acks coalesce into it).
    ack_pending: bool,
}

// --- sparse flow store -------------------------------------------------------

/// One major node's flow table: SplitMix64-hashed linear probing over a
/// power-of-two `index` whose cells hold slab slot numbers. Removed slots
/// go on a free list and are reset to `T::default()`, so a recycled slot
/// is indistinguishable from a fresh one. The table starts empty and
/// allocates its first 8-cell index on the first insert, so a silent node
/// costs a few pointers.
#[derive(Debug)]
pub(crate) struct NodeFlows<T> {
    /// Probe index: slab slot numbers, [`EMPTY_SLOT`] for vacant cells.
    /// Power-of-two length, load factor at most 1/2.
    index: Box<[u32]>,
    /// Flow slots, addressed by the index cells.
    slab: Vec<T>,
    /// The pair key owning each slab slot ([`FREE_PAIR`] when free).
    pair_of: Vec<u64>,
    /// Recycled slab slots.
    free: Vec<u32>,
    /// Live entries.
    live: u32,
    /// High-water mark of `live`.
    peak: u32,
    /// Probe steps spent on metered lookups (`Cell`: read paths through
    /// `&self` must count too; tables are reached through disjoint `&mut`
    /// slices per worker, so no `Sync` is ever required of the cell).
    probes: Cell<u64>,
}

impl<T: Default> NodeFlows<T> {
    fn new() -> NodeFlows<T> {
        NodeFlows {
            index: Box::new([]),
            slab: Vec::new(),
            pair_of: Vec::new(),
            free: Vec::new(),
            live: 0,
            peak: 0,
            probes: Cell::new(0),
        }
    }

    /// Index cell holding `pr`, metering one probe per cell examined when
    /// `METER` (unmetered lookups serve timeout-list maintenance and
    /// checks; see [`Delivery::link_tail`]). An empty table answers without
    /// probing.
    fn find<const METER: bool>(&self, pr: u32) -> Option<usize> {
        if self.index.is_empty() {
            return None;
        }
        let mask = self.index.len() - 1;
        let mut i = (splitmix64(u64::from(pr)) as usize) & mask;
        loop {
            if METER {
                self.probes.set(self.probes.get() + 1);
            }
            let slot = self.index[i];
            if slot == EMPTY_SLOT {
                return None;
            }
            if self.pair_of[slot as usize] == u64::from(pr) {
                return Some(i);
            }
            i = (i + 1) & mask;
        }
    }

    fn entry<const METER: bool>(&self, pr: u32) -> Option<&T> {
        let i = self.find::<METER>(pr)?;
        Some(&self.slab[self.index[i] as usize])
    }

    fn entry_mut<const METER: bool>(&mut self, pr: u32) -> Option<&mut T> {
        let slot = self.index[self.find::<METER>(pr)?] as usize;
        Some(&mut self.slab[slot])
    }

    fn get(&self, pr: u32) -> Option<&T> {
        self.entry::<true>(pr)
    }

    fn get_mut(&mut self, pr: u32) -> Option<&mut T> {
        self.entry_mut::<true>(pr)
    }

    fn get_quiet(&mut self, pr: u32) -> Option<&mut T> {
        self.entry_mut::<false>(pr)
    }

    fn peek(&self, pr: u32) -> Option<&T> {
        self.entry::<false>(pr)
    }

    fn get_or_insert(&mut self, pr: u32) -> &mut T {
        if let Some(i) = self.find::<true>(pr) {
            let slot = self.index[i] as usize;
            return &mut self.slab[slot];
        }
        if (self.live as usize + 1) * 2 > self.index.len() {
            self.grow();
        }
        let slot = match self.free.pop() {
            Some(s) => {
                debug_assert_eq!(self.pair_of[s as usize], FREE_PAIR);
                self.pair_of[s as usize] = u64::from(pr);
                s
            }
            None => {
                self.slab.push(T::default());
                self.pair_of.push(u64::from(pr));
                (self.slab.len() - 1) as u32
            }
        };
        let mask = self.index.len() - 1;
        let mut i = (splitmix64(u64::from(pr)) as usize) & mask;
        loop {
            self.probes.set(self.probes.get() + 1);
            if self.index[i] == EMPTY_SLOT {
                break;
            }
            i = (i + 1) & mask;
        }
        self.index[i] = slot;
        self.live += 1;
        self.peak = self.peak.max(self.live);
        &mut self.slab[slot as usize]
    }

    /// Doubles the probe index (at least 8 cells) and rehashes every live
    /// slot. Resize rehashes are excluded from the probe meter.
    fn grow(&mut self) {
        let cap = (self.index.len() * 2).max(8);
        let mut index = vec![EMPTY_SLOT; cap].into_boxed_slice();
        let mask = cap - 1;
        for (slot, &pr) in self.pair_of.iter().enumerate() {
            if pr == FREE_PAIR {
                continue;
            }
            let mut i = (splitmix64(pr) as usize) & mask;
            while index[i] != EMPTY_SLOT {
                i = (i + 1) & mask;
            }
            index[i] = slot as u32;
        }
        self.index = index;
    }

    /// Removes `pr`, resetting its slab slot to `T::default()` and closing
    /// the probe chain by backward-shift deletion (no tombstones, so probe
    /// lengths never degrade).
    fn remove(&mut self, pr: u32) {
        let Some(pos) = self.find::<true>(pr) else {
            debug_assert!(false, "remove of an absent flow");
            return;
        };
        let mask = self.index.len() - 1;
        let slot = self.index[pos] as usize;
        self.slab[slot] = T::default();
        self.pair_of[slot] = FREE_PAIR;
        self.free.push(slot as u32);
        self.live -= 1;
        let mut hole = pos;
        let mut j = pos;
        loop {
            j = (j + 1) & mask;
            self.probes.set(self.probes.get() + 1);
            let s = self.index[j];
            if s == EMPTY_SLOT {
                break;
            }
            let home = (splitmix64(self.pair_of[s as usize]) as usize) & mask;
            // `s` may shift back iff the hole lies on its probe path, i.e.
            // its home is at or before the hole (cyclic distance).
            if j.wrapping_sub(home) & mask >= j.wrapping_sub(hole) & mask {
                self.index[hole] = s;
                hole = j;
            }
        }
        self.index[hole] = EMPTY_SLOT;
    }

    /// Live entries in slab-slot order (deterministic: the slot layout is a
    /// pure function of the table's operation history, which the sharded
    /// tick replays identically). Callers who need key order sort.
    fn iter(&self) -> impl Iterator<Item = (u32, &T)> + '_ {
        self.pair_of
            .iter()
            .enumerate()
            .filter(|&(_, &pr)| pr != FREE_PAIR)
            .map(|(slot, &pr)| (pr as u32, &self.slab[slot]))
    }

    /// Checks the table against itself: `live` counts the slab slots that
    /// hold a pair, `peak` is at least `live`, and every held pair is found
    /// by its own (unmetered) index probe at a cell naming its slot. So the
    /// `active_flows` meter is the sum of the tables' entry counts.
    fn check(&self) -> Result<(), String> {
        let mut held = 0;
        for (slot, &pr) in self.pair_of.iter().enumerate() {
            if pr == FREE_PAIR {
                continue;
            }
            held += 1;
            let pr = pr as u32;
            let found = self.find::<false>(pr).map(|i| self.index[i] as usize);
            if found != Some(slot) {
                return Err(format!(
                    "flow {}->{} in slot {slot} is probed to {found:?}",
                    pair_major(pr),
                    pair_minor(pr)
                ));
            }
        }
        if held != self.live || self.peak < self.live {
            return Err(format!(
                "live={} peak={} but {held} slots hold a pair",
                self.live, self.peak
            ));
        }
        Ok(())
    }

    /// Adds this table's footprint to the scan meters.
    fn account(&self, s: &mut ScanStats) {
        s.active_flows += u64::from(self.live);
        s.peak_flows += u64::from(self.peak);
        s.flow_probes += self.probes.get();
    }
}

/// Protocol state for a whole machine. Driven by [`crate::Machine`]; exposed
/// read-only through [`Machine::delivery_stats`](crate::Machine::delivery_stats).
#[derive(Debug)]
pub struct Delivery {
    config: DeliveryConfig,
    stats: DeliveryStats,
    nodes: usize,
    /// The machine's wire format: protocol-originated messages (acks) are
    /// composed under it. [`E2eHeader`] carries full [`NodeId`]s, so no flow
    /// key is ever narrowed through a `u8` on its way into a header.
    format: WireFormat,
    /// Sender state, source-major: `tx[src]` holds flows keyed
    /// `pair(src, dst)`.
    tx: Vec<NodeFlows<FlowTx>>,
    /// Receiver state, destination-major: `rx[dst]` holds flows keyed
    /// `pair(dst, src)`.
    rx: Vec<NodeFlows<FlowRx>>,
    /// Per-node protocol traffic (acks, retransmits) awaiting injection.
    /// Drains at one message per node per cycle, ahead of fresh NI sends.
    outbox: Outbox,
    /// Total unacked messages across all flows.
    unacked_msgs: u64,
    /// Head/tail of the intrusive timeout list: flows with unacked data,
    /// oldest `last_send` first (see the module docs). Pair keys widened to
    /// `u64` ([`NONE_LINK`] when empty).
    to_head: u64,
    to_tail: u64,
    /// Reusable scratch of due pair keys (no allocation per pump in the
    /// steady state).
    due_scratch: Vec<u32>,
    /// Simulator effort meters (merged into `NetStats::scan` by the
    /// machine). Flow-footprint meters are computed on demand from the
    /// per-node tables; see [`scan_stats`](Self::scan_stats).
    scan: ScanStats,
    /// Cross-check mode: the pump examines the dense N² flow cost like the
    /// pre-timeout-list code. Behaviour is bit-identical; only the scan
    /// counters differ.
    dense_scan: bool,
}

impl Delivery {
    pub(crate) fn new(nodes: usize, config: DeliveryConfig, format: WireFormat) -> Delivery {
        assert!(config.window >= 1, "delivery window must be at least 1");
        assert!(
            nodes <= 1 << 16,
            "pair keys pack two 16-bit node indices ({nodes} nodes requested)"
        );
        Delivery {
            config,
            stats: DeliveryStats::default(),
            nodes,
            format,
            tx: (0..nodes).map(|_| NodeFlows::new()).collect(),
            rx: (0..nodes).map(|_| NodeFlows::new()).collect(),
            outbox: Outbox::new(nodes),
            unacked_msgs: 0,
            to_head: NONE_LINK,
            to_tail: NONE_LINK,
            due_scratch: Vec::new(),
            scan: ScanStats::default(),
            dense_scan: false,
        }
    }

    /// Protocol counters so far.
    pub fn stats(&self) -> DeliveryStats {
        self.stats
    }

    /// Flow-scan effort and footprint counters (merged into the machine's
    /// `NetStats::scan`): the pump meters plus, summed over the per-node
    /// sparse tables, live entries, high-water marks, and probe steps.
    pub(crate) fn scan_stats(&self) -> ScanStats {
        let mut s = self.scan;
        for t in &self.tx {
            t.account(&mut s);
        }
        for t in &self.rx {
            t.account(&mut s);
        }
        s
    }

    /// Enables or disables the dense-pump cross-check.
    pub(crate) fn set_dense_scan(&mut self, on: bool) {
        self.dense_scan = on;
    }

    /// Whether the protocol still has work in flight: pending outbox
    /// traffic or unacknowledged data. While true, the machine cannot be
    /// quiescent and must not fast-forward past timeouts.
    pub fn active(&self) -> bool {
        self.outbox.msgs() > 0 || self.unacked_msgs > 0
    }

    /// Messages buffered inside the protocol (unacked + outbox) — the
    /// protocol's contribution to queue residency.
    pub fn residency(&self) -> u64 {
        self.outbox.msgs() + self.unacked_msgs
    }

    /// The nodes whose outbox is non-empty, ascending.
    pub(crate) fn outbox_nodes(&self) -> impl Iterator<Item = usize> + '_ {
        self.outbox.nodes()
    }

    // --- timeout list ---------------------------------------------------------
    //
    // List maintenance looks flows up without metering them: under the
    // sharded cycle these operations replay in `absorb_deltas` after the
    // phase that recorded them, when neighbouring tables may have grown past
    // the state the one-domain cycle saw inline — metering them would make
    // `flow_probes` depend on the worker count.

    /// Appends flow `pr` at the tail (it has the newest `last_send`).
    fn link_tail(&mut self, pr: u32) {
        let tail = self.to_tail;
        let flow = self.tx[pair_major(pr)].get_quiet(pr).expect(LIVE);
        debug_assert!(!flow.linked, "double link");
        flow.linked = true;
        flow.prev = tail;
        flow.next = NONE_LINK;
        if tail == NONE_LINK {
            self.to_head = u64::from(pr);
        } else {
            let t = tail as u32;
            self.tx[pair_major(t)].get_quiet(t).expect(LIVE).next = u64::from(pr);
        }
        self.to_tail = u64::from(pr);
    }

    /// Removes flow `pr` from the list.
    fn unlink(&mut self, pr: u32) {
        let flow = self.tx[pair_major(pr)].get_quiet(pr).expect(LIVE);
        debug_assert!(flow.linked, "unlink of an unlinked flow");
        let (prev, next) = (flow.prev, flow.next);
        flow.linked = false;
        flow.prev = NONE_LINK;
        flow.next = NONE_LINK;
        if prev == NONE_LINK {
            self.to_head = next;
        } else {
            let p = prev as u32;
            self.tx[pair_major(p)].get_quiet(p).expect(LIVE).next = next;
        }
        if next == NONE_LINK {
            self.to_tail = prev;
        } else {
            let n = next as u32;
            self.tx[pair_major(n)].get_quiet(n).expect(LIVE).prev = prev;
        }
    }

    /// Collects the pair keys due for a timeout at `cycle`, ascending, and
    /// the number of flows examined.
    fn collect_due(&mut self, cycle: u64) -> (Vec<u32>, u64) {
        let mut due = std::mem::take(&mut self.due_scratch);
        debug_assert!(due.is_empty());
        let mut examined: u64 = 0;
        if self.dense_scan {
            // The cross-check examines the dense N² flow cost, preserving
            // the scheduler's conservation law (`scanned + skipped == dense
            // cost`).
            examined = (self.nodes * self.nodes) as u64;
            for t in &self.tx {
                for (pr, flow) in t.iter() {
                    if !flow.unacked.is_empty()
                        && cycle.saturating_sub(flow.last_send) >= self.config.timeout
                    {
                        due.push(pr);
                    }
                }
            }
        } else {
            // Walk from the oldest end; the list is sorted by `last_send`
            // (every update stamps the current cycle and moves the flow to
            // the tail), so the first not-yet-due flow ends the walk.
            let mut cur = self.to_head;
            while cur != NONE_LINK {
                examined += 1;
                let pr = cur as u32;
                let flow = self.tx[pair_major(pr)].get(pr).expect(LIVE);
                debug_assert!(!flow.unacked.is_empty(), "linked flow has no unacked");
                if cycle.saturating_sub(flow.last_send) < self.config.timeout {
                    break;
                }
                due.push(pr);
                cur = flow.next;
            }
        }
        // Fire in ascending pair key — the (src, dst) order of the dense
        // scan — so retransmit copies append to each outbox bit-identically
        // (the table iteration above is slab order, the list walk is
        // `last_send` order; both need the sort).
        due.sort_unstable();
        (due, examined)
    }

    /// Fires due retransmission timeouts (called once per cycle, before the
    /// injection phase), so the copies contend for this cycle's injection
    /// slots. `bounds` are the cycle's domain boundaries: due-flow
    /// collection (and the scan meters) is global, while firing runs in
    /// place or — with several domains and enough due flows — per domain in
    /// parallel. Sound because a flow's table is source-major (each due flow
    /// fires entirely inside its source's domain), the due list is ascending
    /// by pair key (so per-domain chunks are contiguous), and every global
    /// effect is buffered and replayed in domain order — which *is* the
    /// ascending-key fire order.
    pub(crate) fn pump(&mut self, cycle: u64, bounds: &[usize]) {
        // No flow holds unacked data: nothing can be due. Returning before
        // any counting keeps the scan counters identical between the naive
        // loop and the fast-forward (both only reach a non-trivial pump
        // while the protocol is active, which forces step-by-step cycles).
        if self.to_head == NONE_LINK {
            return;
        }
        let dense_cost = (self.nodes * self.nodes) as u64;
        let (mut due, examined) = self.collect_due(cycle);
        let domains = bounds.len().saturating_sub(1);
        if domains < 2 || due.len() < PAR_FIRE_MIN {
            for &pr in &due {
                fire_timeout(self, pr, cycle);
            }
        } else {
            let mut chunks: Vec<&[u32]> = Vec::with_capacity(domains);
            let mut rest: &[u32] = &due;
            for w in bounds.windows(2) {
                let cut = rest.partition_point(|&pr| pair_major(pr) < w[1]);
                let (head, tail) = rest.split_at(cut);
                chunks.push(head);
                rest = tail;
            }
            debug_assert!(rest.is_empty());
            let mut tasks: Vec<(DeliveryRange<'_>, &[u32])> =
                self.split_ranges(bounds).into_iter().zip(chunks).collect();
            run_tasks(&mut tasks, |_, (range, chunk)| {
                for &pr in *chunk {
                    fire_timeout(range, pr, cycle);
                }
            });
            let deltas: Vec<DeliveryDelta> =
                tasks.into_iter().map(|(r, _)| r.into_delta()).collect();
            self.absorb_deltas(deltas);
        }
        due.clear();
        self.due_scratch = due;
        self.scan.scanned_flows += examined;
        self.scan.skipped_work += dense_cost - examined;
    }

    /// Splits the protocol state into per-domain views for the sharded
    /// cycle. Domain `d` of `bounds` owns `tx`/outbox tables of its source
    /// nodes and `rx` tables of its destination nodes.
    pub(crate) fn split_ranges(&mut self, bounds: &[usize]) -> Vec<DeliveryRange<'_>> {
        debug_assert_eq!(bounds[0], 0);
        debug_assert_eq!(*bounds.last().expect("non-empty bounds"), self.nodes);
        let (config, format) = (self.config, self.format);
        let mut tx = self.tx.as_mut_slice();
        let mut rx = self.rx.as_mut_slice();
        let mut out = Vec::with_capacity(bounds.len().saturating_sub(1));
        for (w, outbox) in bounds.windows(2).zip(self.outbox.split(bounds)) {
            let (tx_head, tx_tail) = tx.split_at_mut(w[1] - w[0]);
            tx = tx_tail;
            let (rx_head, rx_tail) = rx.split_at_mut(w[1] - w[0]);
            rx = rx_tail;
            out.push(DeliveryRange {
                config,
                format,
                lo: w[0],
                tx: tx_head,
                rx: rx_head,
                outbox,
                stats: DeliveryStats::default(),
                unacked: 0,
                ops: Vec::new(),
            });
        }
        out
    }

    /// Replays per-domain deltas, in domain order. Because domains are
    /// contiguous ascending node ranges and each worker recorded its ops in
    /// its own visit order, the concatenation is exactly the ascending-node
    /// op sequence the one-domain cycle applies in place — the active-outbox
    /// set and the intrusive timeout list end up identical.
    pub(crate) fn absorb_deltas(&mut self, deltas: impl IntoIterator<Item = DeliveryDelta>) {
        for d in deltas {
            self.stats.add(&d.stats);
            self.unacked(d.unacked);
            self.outbox.absorb(d.outbox);
            for (pr, op) in d.ops {
                self.list(pr, op);
            }
        }
    }

    /// Checks the state the two views must keep consistent: a flow is on
    /// the timeout list iff its unacked window is non-empty, the list is
    /// ordered by `last_send`, the unacked and outbox totals match the
    /// tables and queues, the active-outbox set is exactly the nodes with
    /// queued traffic, each flow's `pending_copies` counts its queued data
    /// copies, and `ack_pending` holds iff an ack for the flow is queued.
    /// Every tx and rx table also passes its own check (`live`, `peak` and
    /// the probe index agree with the slab). Lookups here are unmetered.
    pub(crate) fn check_invariants(&self) -> Result<(), String> {
        fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
            ok.then_some(()).ok_or_else(what)
        }
        self.outbox.check("delivery")?;
        for (node, t) in self.tx.iter().enumerate() {
            t.check().map_err(|e| format!("tx table {node}: {e}"))?;
        }
        for (node, t) in self.rx.iter().enumerate() {
            t.check().map_err(|e| format!("rx table {node}: {e}"))?;
        }
        let name = |pr: u32| format!("flow {}->{}", pair_major(pr), pair_minor(pr));
        let queued = |node: usize, kind: E2eKind, peer: Option<usize>| {
            let hit = |m: &&Message| {
                matches!(m.e2e, Some(h) if h.kind == kind)
                    && peer.is_none_or(|p| m.dest().index() == p)
            };
            self.outbox.queue(node).iter().filter(hit).count()
        };
        let (mut unacked, mut linked) = (0, 0);
        for (pr, flow) in self.tx.iter().flat_map(NodeFlows::iter) {
            let (n, copies) = (flow.unacked.len(), flow.pending_copies as usize);
            ensure(flow.linked == (n > 0), || {
                format!("{}: {n} unacked", name(pr))
            })?;
            let queued = queued(pair_major(pr), E2eKind::Data, Some(pair_minor(pr)));
            ensure(queued == copies, || {
                format!("{}: {queued} copies", name(pr))
            })?;
            unacked += n as u64;
            linked += u64::from(flow.linked);
        }
        ensure(unacked == self.unacked_msgs, || {
            format!("{unacked} unacked")
        })?;
        let (mut cur, mut prev, mut last, mut len) = (self.to_head, NONE_LINK, 0, 0);
        while cur != NONE_LINK && len <= linked {
            let pr = cur as u32;
            let flow = self.tx[pair_major(pr)].peek(pr).filter(|f| f.linked);
            let flow = flow.ok_or_else(|| format!("{} listed, not linked", name(pr)))?;
            ensure(flow.prev == prev, || format!("{}: broken link", name(pr)))?;
            ensure(flow.last_send >= last, || {
                format!("{}: out of order", name(pr))
            })?;
            (last, prev, cur, len) = (flow.last_send, cur, flow.next, len + 1);
        }
        ensure(prev == self.to_tail && len == linked, || {
            format!("timeout list holds {len} of {linked} linked flows")
        })?;
        let mut awaited = 0;
        for (dst, t) in self.rx.iter().enumerate() {
            for (pr, flow) in t.iter() {
                let acks = queued(dst, E2eKind::Ack, Some(pair_minor(pr)));
                ensure(acks == usize::from(flow.ack_pending), || {
                    format!("{}: {acks} acks queued", name(pr))
                })?;
                awaited += acks;
            }
        }
        let acks = (0..self.nodes)
            .map(|n| queued(n, E2eKind::Ack, None))
            .sum::<usize>();
        ensure(acks == awaited, || {
            format!("{acks} acks queued, {awaited} awaited")
        })
    }
}

// --- the protocol body ---------------------------------------------------------

/// A deferred intrusive-timeout-list operation, applied in place by
/// [`Delivery`] and recorded in visit order by a [`DeliveryRange`] for
/// replay by [`Delivery::absorb_deltas`]. Workers never touch the
/// `prev`/`next`/`linked` links directly — those thread through tables
/// owned by other domains.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ListOp {
    /// The flow joins at the tail (first unacked message).
    LinkTail,
    /// The flow leaves (fully acked or abandoned).
    Unlink,
    /// The flow's `last_send` was refreshed: unlink, then link at the tail.
    MoveToTail,
}

/// The state surface the protocol body needs, implemented by the
/// whole-machine [`Delivery`] (every effect applied in place) and by a
/// domain's [`DeliveryRange`] (its own tables edited in place, machine-global
/// effects buffered). Node indices and pair keys are global under both.
pub(crate) trait DeliveryView {
    /// The outbox discipline matching the view.
    type Outbox: OutboxView;
    fn config(&self) -> DeliveryConfig;
    fn format(&self) -> WireFormat;
    /// Sender flows of `src`, keyed `pair(src, dst)`.
    fn tx(&mut self, src: usize) -> &mut NodeFlows<FlowTx>;
    /// Receiver flows of `dst`, keyed `pair(dst, src)`.
    fn rx(&mut self, dst: usize) -> &mut NodeFlows<FlowRx>;
    fn outbox(&mut self) -> &mut Self::Outbox;
    fn stats_mut(&mut self) -> &mut DeliveryStats;
    /// Adds `n` to the machine-wide unacked total.
    fn unacked(&mut self, n: i64);
    /// Applies (or records) a timeout-list operation on flow `pr`.
    fn list(&mut self, pr: u32, op: ListOp);
}

impl DeliveryView for Delivery {
    type Outbox = Outbox;
    #[inline]
    fn config(&self) -> DeliveryConfig {
        self.config
    }
    #[inline]
    fn format(&self) -> WireFormat {
        self.format
    }
    #[inline]
    fn tx(&mut self, src: usize) -> &mut NodeFlows<FlowTx> {
        &mut self.tx[src]
    }
    #[inline]
    fn rx(&mut self, dst: usize) -> &mut NodeFlows<FlowRx> {
        &mut self.rx[dst]
    }
    #[inline]
    fn outbox(&mut self) -> &mut Outbox {
        &mut self.outbox
    }
    #[inline]
    fn stats_mut(&mut self) -> &mut DeliveryStats {
        &mut self.stats
    }
    #[inline]
    fn unacked(&mut self, n: i64) {
        self.unacked_msgs = self
            .unacked_msgs
            .checked_add_signed(n)
            .expect("unacked total cannot go negative");
    }
    #[inline]
    fn list(&mut self, pr: u32, op: ListOp) {
        match op {
            ListOp::LinkTail => self.link_tail(pr),
            ListOp::Unlink => self.unlink(pr),
            ListOp::MoveToTail => {
                self.unlink(pr);
                self.link_tail(pr);
            }
        }
    }
}

/// Removes the head of `node`'s outbox after its injection, crediting the
/// flow it belongs to.
pub(crate) fn outbox_pop<V: DeliveryView>(v: &mut V, node: usize) {
    let Some(m) = v.outbox().pop(node) else {
        return;
    };
    match m.e2e {
        // A retransmit copy left the outbox: credit the flow's pending
        // counter (tx flows are never evicted, so the slot is live).
        Some(h) if h.kind == E2eKind::Data => {
            let pr = pair(node, m.dest().index());
            let flow = v.tx(node).get_mut(pr).expect("pending copy's flow is live");
            debug_assert!(flow.pending_copies > 0, "pop without a push");
            flow.pending_copies -= 1;
        }
        // The flow's pending ack left: the next arrival queues a fresh one
        // instead of coalescing. An rx flow whose state is all defaults
        // again (nothing ever delivered in order, no ack pending) is
        // evicted — its slot reads back identically.
        Some(h) if h.kind == E2eKind::Ack => {
            let pr = pair(node, m.dest().index());
            let rx = v.rx(node);
            let flow = rx.get_mut(pr).expect("pending ack's flow is live");
            flow.ack_pending = false;
            if flow.expected == 0 {
                rx.remove(pr);
            }
        }
        _ => {}
    }
}

/// Whether flow (src, dst) can take another first transmission.
pub(crate) fn can_admit<V: DeliveryView>(v: &mut V, src: usize, dst: usize) -> bool {
    let window = v.config().window;
    v.tx(src)
        .get(pair(src, dst))
        .is_none_or(|flow| flow.unacked.len() < window)
}

/// Stamps `msg` with the flow's next header. Pure with respect to flow
/// state: nothing advances until [`commit`], so a refused injection retries
/// with the same sequence number.
pub(crate) fn stamp<V: DeliveryView>(v: &mut V, src: usize, dst: usize, msg: &mut Message) {
    let psn = v
        .tx(src)
        .get(pair(src, dst))
        .map_or(0, |flow| flow.next_psn);
    let crc = payload_crc(&msg.words, msg.mtype);
    msg.e2e = Some(E2eHeader::data(NodeId::from_index(src), psn, crc));
}

/// Records an accepted first transmission of a stamped message.
pub(crate) fn commit<V: DeliveryView>(v: &mut V, src: usize, dst: usize, msg: Message, cycle: u64) {
    let pr = pair(src, dst);
    let table = v.tx(src);
    let flow = table.get_or_insert(pr);
    let hdr = msg.e2e.expect("committed message is stamped");
    debug_assert_eq!(hdr.psn, flow.next_psn);
    let was_empty = flow.unacked.is_empty();
    if was_empty {
        flow.last_send = cycle;
        flow.rounds = 0;
    }
    flow.unacked.push_back((hdr.psn, msg));
    flow.next_psn += 1;
    if was_empty {
        // Only the sender's own phase commits, at most once per flow per
        // cycle, so the pre-phase link flag is trustworthy under both views.
        debug_assert!(table.peek(pr).is_some_and(|fl| !fl.linked));
    }
    v.unacked(1);
    v.stats_mut().accepted += 1;
    if was_empty {
        // First unacked message: the flow joins the timeout list with the
        // newest stamp, i.e. at the tail.
        v.list(pr, ListOp::LinkTail);
    }
}

/// One due flow's timeout: requeue the window (go-back-N), or just reset
/// the timer if the previous round's copies are still queued, or abandon
/// once the budget is spent.
fn fire_timeout<V: DeliveryView>(v: &mut V, pr: u32, cycle: u64) {
    let src = pair_major(pr);
    // Copies from the previous round still await injection: the outbox is
    // congested, not the receiver unresponsive. Reset the timer without
    // burning a budget round.
    if v.tx(src).get_mut(pr).expect(LIVE).pending_copies > 0 {
        v.tx(src).get_mut(pr).expect(LIVE).last_send = cycle;
        v.list(pr, ListOp::MoveToTail);
        return;
    }
    {
        let flow = v.tx(src).get_mut(pr).expect(LIVE);
        flow.rounds += 1;
        flow.last_send = cycle;
    }
    v.stats_mut().timeout_rounds += 1;
    let limit = v.config().retransmit_limit;
    if v.tx(src).get_mut(pr).expect(LIVE).rounds > limit {
        // Budget exhausted: the receiver is unreachable. Abandon the window
        // rather than wedging the machine. The flow slot (and its spent
        // budget) stays live — see the eviction semantics.
        let len = v.tx(src).get_mut(pr).expect(LIVE).unacked.len() as u64;
        v.stats_mut().abandoned += len;
        v.unacked(-(len as i64));
        let flow = v.tx(src).get_mut(pr).expect(LIVE);
        flow.unacked.clear();
        flow.rounds = 0;
        v.list(pr, ListOp::Unlink);
        return;
    }
    // Go-back-N: requeue the whole window.
    let count = v.tx(src).get_mut(pr).expect(LIVE).unacked.len();
    for k in 0..count {
        let m = v.tx(src).get_mut(pr).expect(LIVE).unacked[k].1;
        v.outbox().push(src, m);
    }
    v.tx(src).get_mut(pr).expect(LIVE).pending_copies += count as u32;
    v.stats_mut().retransmits += count as u64;
    v.list(pr, ListOp::MoveToTail);
}

/// Classifies an arrived protocol message (pure; effects in
/// [`on_delivered`]/[`on_consumed`]).
pub(crate) fn rx_action<V: DeliveryView>(v: &mut V, dst: usize, msg: &Message) -> RxAction {
    let hdr = msg.e2e.expect("rx_action on a protocol message");
    if payload_crc(&msg.words, msg.mtype) != hdr.crc {
        return RxAction::Consume;
    }
    match hdr.kind {
        E2eKind::Ack => RxAction::Consume,
        E2eKind::Data => {
            let expected = v
                .rx(dst)
                .get(pair(dst, hdr.src.index()))
                .map_or(0, |flow| flow.expected);
            if hdr.psn == expected {
                RxAction::Deliver
            } else {
                RxAction::Consume
            }
        }
    }
}

/// Applies an in-order data delivery: advances the flow and queues the
/// cumulative ack.
pub(crate) fn on_delivered<V: DeliveryView>(v: &mut V, dst: usize, msg: &Message) {
    let hdr = msg.e2e.expect("delivered message has a header");
    let flow = v.rx(dst).get_or_insert(pair(dst, hdr.src.index()));
    debug_assert_eq!(hdr.psn, flow.expected);
    flow.expected += 1;
    v.stats_mut().delivered_unique += 1;
    queue_ack(v, dst, hdr.src.index());
}

/// Applies a consumed (non-delivered) arrival: ack bookkeeping for the
/// sender, re-acks for duplicates and gaps, counters for everything.
pub(crate) fn on_consumed<V: DeliveryView>(v: &mut V, dst: usize, msg: &Message, cycle: u64) {
    let hdr = msg.e2e.expect("consumed message has a header");
    if payload_crc(&msg.words, msg.mtype) != hdr.crc {
        // Unverifiable header: trust nothing in it, count and move on.
        v.stats_mut().corrupt_dropped += 1;
        return;
    }
    match hdr.kind {
        E2eKind::Ack => {
            // `dst` is the flow's sender (its table is source-major, so
            // local to `dst`'s domain); the header names the acker.
            // Non-creating on purpose: an ack for a flow that never
            // committed (possible only in synthetic scenarios) must not
            // materialise sender state.
            v.stats_mut().acks_received += 1;
            let pr = pair(dst, hdr.src.index());
            let Some(flow) = v.tx(dst).get_mut(pr) else {
                return;
            };
            let mut acked = 0;
            while flow.unacked.front().is_some_and(|&(psn, _)| psn < hdr.psn) {
                flow.unacked.pop_front();
                acked += 1;
            }
            if acked == 0 {
                return;
            }
            flow.rounds = 0;
            flow.last_send = cycle;
            // Fully acked: off the timeout list. Otherwise the timer
            // restarted at the newest stamp: tail.
            let op = if flow.unacked.is_empty() {
                ListOp::Unlink
            } else {
                ListOp::MoveToTail
            };
            v.unacked(-acked);
            v.list(pr, op);
        }
        E2eKind::Data => {
            let expected = v
                .rx(dst)
                .get(pair(dst, hdr.src.index()))
                .map_or(0, |flow| flow.expected);
            if hdr.psn < expected {
                v.stats_mut().dup_suppressed += 1;
            } else {
                v.stats_mut().out_of_order_dropped += 1;
            }
            // Either way, remind the sender where the flow stands (a lost
            // ack is recovered by the duplicate's re-ack).
            queue_ack(v, dst, hdr.src.index());
        }
    }
}

/// Queues (or refreshes) the cumulative ack from `receiver` back to the
/// flow's `sender`. At most one pending ack per flow lives in the outbox: a
/// newer cumulative ack *coalesces* into it (highest sequence number wins)
/// instead of enqueueing another — without this, every data arrival on a
/// congested outbox would add an ack (an ack flood).
fn queue_ack<V: DeliveryView>(v: &mut V, receiver: usize, sender: usize) {
    let pr = pair(receiver, sender);
    let psn = v.rx(receiver).get(pr).map_or(0, |f| f.expected);
    // Full node ids end to end: the ack names its flow without casts, and
    // is composed under the machine's wire format.
    let sender_id = NodeId::from_index(sender);
    let mut ack = Message::to_in(v.format(), sender_id, [0; 5], MsgType::default());
    let crc = payload_crc(&ack.words, ack.mtype);
    ack.e2e = Some(E2eHeader::ack(NodeId::from_index(receiver), psn, crc));
    if v.rx(receiver).get(pr).is_some_and(|f| f.ack_pending) {
        for m in v.outbox().queue_mut(receiver).iter_mut() {
            if matches!(m.e2e, Some(h) if h.kind == E2eKind::Ack) && m.dest() == sender_id {
                // Cumulative: only ever move the acked prefix forward
                // (`expected` is monotone, so `<=` always holds — the guard
                // is defense in depth).
                if m.e2e.expect("matched above").psn <= psn {
                    *m = ack;
                }
                v.stats_mut().acks_coalesced += 1;
                return;
            }
        }
        debug_assert!(false, "ack_pending set but no ack queued");
    }
    v.rx(receiver).get_or_insert(pr).ack_pending = true;
    v.outbox().push(receiver, ack);
    v.stats_mut().acks_sent += 1;
}

// --- the sharded view ------------------------------------------------------------

/// The machine-global effects a [`DeliveryRange`] buffered during one
/// sharded phase, replayed by [`Delivery::absorb_deltas`].
#[derive(Debug, Default)]
pub(crate) struct DeliveryDelta {
    stats: DeliveryStats,
    /// Net unacked message count change (acks/abandons make it negative).
    unacked: i64,
    /// Timeout-list operations (pair keys), in this domain's visit order.
    ops: Vec<(u32, ListOp)>,
    outbox: OutboxDelta,
}

/// One spatial domain's view of the protocol state during a sharded phase:
/// the domain's own `tx`/outbox tables (source-major) and `rx` tables
/// (destination-major), with every machine-global effect buffered.
/// Out-of-domain indices panic on the slice bounds.
pub(crate) struct DeliveryRange<'a> {
    config: DeliveryConfig,
    format: WireFormat,
    /// First node of the domain (row offset of the slices).
    lo: usize,
    tx: &'a mut [NodeFlows<FlowTx>],
    rx: &'a mut [NodeFlows<FlowRx>],
    outbox: OutboxRange<'a>,
    stats: DeliveryStats,
    unacked: i64,
    ops: Vec<(u32, ListOp)>,
}

impl DeliveryRange<'_> {
    /// Surrenders the buffered global effects.
    pub(crate) fn into_delta(self) -> DeliveryDelta {
        DeliveryDelta {
            stats: self.stats,
            unacked: self.unacked,
            ops: self.ops,
            outbox: self.outbox.into_delta(),
        }
    }
}

impl<'a> DeliveryView for DeliveryRange<'a> {
    type Outbox = OutboxRange<'a>;
    #[inline]
    fn config(&self) -> DeliveryConfig {
        self.config
    }
    #[inline]
    fn format(&self) -> WireFormat {
        self.format
    }
    #[inline]
    fn tx(&mut self, src: usize) -> &mut NodeFlows<FlowTx> {
        &mut self.tx[src - self.lo]
    }
    #[inline]
    fn rx(&mut self, dst: usize) -> &mut NodeFlows<FlowRx> {
        &mut self.rx[dst - self.lo]
    }
    #[inline]
    fn outbox(&mut self) -> &mut OutboxRange<'a> {
        &mut self.outbox
    }
    #[inline]
    fn stats_mut(&mut self) -> &mut DeliveryStats {
        &mut self.stats
    }
    #[inline]
    fn unacked(&mut self, n: i64) {
        self.unacked += n;
    }
    #[inline]
    fn list(&mut self, pr: u32, op: ListOp) {
        self.ops.push((pr, op));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(dst: u16, tag: u32) -> Message {
        Message::to(
            NodeId::new(dst),
            [0, tag, 0, 0, 0],
            MsgType::new(2).unwrap(),
        )
    }

    impl Delivery {
        /// Builds the header psn 0..N stamping used by unit tests without
        /// touching tx state.
        fn stamp_for_test(&self, src: u16, msg: &mut Message, psn: u32) {
            let crc = payload_crc(&msg.words, msg.mtype);
            msg.e2e = Some(E2eHeader::data(NodeId::new(src), psn, crc));
        }

        /// Oldest unacked (psn, message) of flow (src, dst), for scenario
        /// drivers (unmetered, so paired runs meter identically even when
        /// only one of them calls this).
        fn unacked_front(&self, src: usize, dst: usize) -> Option<(u32, Message)> {
            self.tx[src]
                .peek(pair(src, dst))
                .and_then(|fl| fl.unacked.front().copied())
        }

        /// The active-outbox set.
        fn active_sorted(&self) -> Vec<usize> {
            self.outbox.nodes().collect()
        }
    }

    #[test]
    fn stamp_commit_window_and_ack_roundtrip() {
        let mut d = Delivery::new(
            2,
            DeliveryConfig {
                window: 2,
                timeout: 10,
                retransmit_limit: 3,
            },
            WireFormat::Compact,
        );
        assert!(!d.active());
        // Fill the window.
        for tag in 0..2 {
            assert!(can_admit(&mut d, 0, 1));
            let mut m = data(1, tag);
            stamp(&mut d, 0, 1, &mut m);
            assert_eq!(m.e2e.unwrap().psn, tag);
            commit(&mut d, 0, 1, m, 5);
        }
        assert!(!can_admit(&mut d, 0, 1), "window full backs off");
        assert!(d.active());
        assert_eq!(d.residency(), 2);

        // Receiver takes psn 0 in order and acks cumulatively.
        let mut m0 = data(1, 0);
        d.stamp_for_test(0, &mut m0, 0);
        assert_eq!(rx_action(&mut d, 1, &m0), RxAction::Deliver);
        on_delivered(&mut d, 1, &m0);
        let ack = *d.outbox().front(1).expect("ack queued");
        assert_eq!(ack.dest(), NodeId::new(0));
        assert_eq!(ack.e2e.unwrap().psn, 1);

        // Sender consumes the ack: window slides.
        assert_eq!(rx_action(&mut d, 0, &ack), RxAction::Consume);
        on_consumed(&mut d, 0, &ack, 7);
        assert!(can_admit(&mut d, 0, 1));
        assert_eq!(d.stats().acks_received, 1);
        assert_eq!(d.stats().delivered_unique, 1);
    }

    #[test]
    fn duplicates_and_gaps_are_consumed_and_reacked() {
        let mut d = Delivery::new(2, DeliveryConfig::default(), WireFormat::Compact);
        let mut m0 = data(1, 7);
        d.stamp_for_test(0, &mut m0, 0);
        on_delivered(&mut d, 1, &m0);
        // The same psn again: duplicate.
        assert_eq!(rx_action(&mut d, 1, &m0), RxAction::Consume);
        on_consumed(&mut d, 1, &m0, 2);
        assert_eq!(d.stats().dup_suppressed, 1);
        // psn 5: a gap.
        let mut m5 = data(1, 8);
        d.stamp_for_test(0, &mut m5, 5);
        assert_eq!(rx_action(&mut d, 1, &m5), RxAction::Consume);
        on_consumed(&mut d, 1, &m5, 3);
        assert_eq!(d.stats().out_of_order_dropped, 1);
        // Exactly one coalesced ack is pending despite three arrivals.
        assert_eq!(d.stats().acks_sent, 1);
        assert_eq!(d.stats().acks_coalesced, 2, "two arrivals coalesced");
        assert_eq!(d.outbox().front(1).unwrap().e2e.unwrap().psn, 1);
        // Once the pending ack drains, the next arrival queues a fresh one.
        outbox_pop(&mut d, 1);
        on_consumed(&mut d, 1, &m0, 4);
        assert_eq!(d.stats().acks_sent, 2);
        assert_eq!(d.stats().acks_coalesced, 2);
    }

    #[test]
    fn coalesced_ack_keeps_the_highest_psn() {
        let mut d = Delivery::new(2, DeliveryConfig::default(), WireFormat::Compact);
        // Deliver psn 0 and 1 in order without draining the outbox: the
        // second cumulative ack (psn 2) must replace the first (psn 1).
        for psn in 0..2 {
            let mut m = data(1, psn);
            d.stamp_for_test(0, &mut m, psn);
            assert_eq!(rx_action(&mut d, 1, &m), RxAction::Deliver);
            on_delivered(&mut d, 1, &m);
        }
        assert_eq!(d.stats().acks_sent, 1);
        assert_eq!(d.stats().acks_coalesced, 1);
        assert_eq!(d.outbox().front(1).unwrap().e2e.unwrap().psn, 2);
    }

    #[test]
    fn corruption_fails_the_checksum_and_is_silent() {
        let mut d = Delivery::new(2, DeliveryConfig::default(), WireFormat::Compact);
        let mut m = data(1, 7);
        d.stamp_for_test(0, &mut m, 0);
        m.words[2] ^= 1 << 9; // fabric corruption after stamping
        assert_eq!(rx_action(&mut d, 1, &m), RxAction::Consume);
        on_consumed(&mut d, 1, &m, 1);
        assert_eq!(d.stats().corrupt_dropped, 1);
        assert!(d.outbox().front(1).is_none(), "no ack for garbage");
    }

    #[test]
    fn timeout_retransmits_the_window_then_abandons() {
        let cfg = DeliveryConfig {
            window: 4,
            timeout: 10,
            retransmit_limit: 2,
        };
        let mut d = Delivery::new(2, cfg, WireFormat::Compact);
        for tag in 0..2 {
            let mut m = data(1, tag);
            stamp(&mut d, 0, 1, &mut m);
            commit(&mut d, 0, 1, m, 0);
        }
        d.pump(5, &[0, d.nodes]);
        assert_eq!(d.stats().retransmits, 0, "not due yet");
        d.pump(10, &[0, d.nodes]);
        assert_eq!(d.stats().retransmits, 2, "whole window requeued");
        assert_eq!(d.stats().timeout_rounds, 1);
        // Copies still pending in the outbox: the next round requeues
        // nothing more.
        d.pump(20, &[0, d.nodes]);
        assert_eq!(d.stats().retransmits, 2);
        // Drain the outbox, then exhaust the budget.
        outbox_pop(&mut d, 0);
        outbox_pop(&mut d, 0);
        d.pump(30, &[0, d.nodes]);
        assert_eq!(d.stats().retransmits, 4);
        outbox_pop(&mut d, 0);
        outbox_pop(&mut d, 0);
        d.pump(40, &[0, d.nodes]);
        assert_eq!(d.stats().abandoned, 2, "budget exhausted");
        assert!(!d.active());
    }

    #[test]
    fn rx_state_is_evicted_when_it_returns_to_default() {
        let mut d = Delivery::new(2, DeliveryConfig::default(), WireFormat::Compact);
        // A gap arrival creates rx state only to carry the pending re-ack:
        // expected stays 0, so draining the ack returns the flow to its
        // default state and the slot is released.
        let mut m5 = data(1, 8);
        d.stamp_for_test(0, &mut m5, 5);
        on_consumed(&mut d, 1, &m5, 1);
        assert_eq!(d.scan_stats().active_flows, 1, "rx slot carries the ack");
        outbox_pop(&mut d, 1);
        assert_eq!(d.scan_stats().active_flows, 0, "default rx state evicted");
        assert_eq!(d.scan_stats().peak_flows, 1, "high-water mark survives");

        // An in-order delivery advances `expected`: that state is
        // load-bearing (it defines the flow's duplicate horizon) and must
        // survive the ack draining.
        let mut m0 = data(1, 7);
        d.stamp_for_test(0, &mut m0, 0);
        on_delivered(&mut d, 1, &m0);
        outbox_pop(&mut d, 1);
        assert_eq!(d.scan_stats().active_flows, 1, "advanced rx state stays");
        assert_eq!(
            rx_action(&mut d, 1, &m0),
            RxAction::Consume,
            "still a duplicate"
        );
    }

    #[test]
    fn used_tx_flows_are_never_evicted_and_keep_their_budget() {
        let cfg = DeliveryConfig {
            window: 4,
            timeout: 10,
            retransmit_limit: 2,
        };
        let mut d = Delivery::new(2, cfg, WireFormat::Compact);
        let mut m = data(1, 0);
        stamp(&mut d, 0, 1, &mut m);
        commit(&mut d, 0, 1, m, 0);
        // Burn the whole retransmit budget until the window abandons.
        let mut cycle = 0;
        while d.active() {
            cycle += 10;
            d.pump(cycle, &[0, d.nodes]);
            while d.outbox().front(0).is_some() {
                outbox_pop(&mut d, 0);
            }
        }
        assert_eq!(d.stats().abandoned, 1);
        // The spent flow keeps its slot: its sequence numbering must
        // survive (a fresh slot would re-stamp psn 0 and corrupt the
        // receiver's duplicate horizon).
        assert_eq!(d.scan_stats().active_flows, 1, "tx slot survives abandon");
        let mut m2 = data(1, 1);
        stamp(&mut d, 0, 1, &mut m2);
        assert_eq!(m2.e2e.unwrap().psn, 1, "psn continues, not reset");
        // Fully acked flows keep their slot too.
        commit(&mut d, 0, 1, m2, cycle);
        let mut ack = Message::to(NodeId::from_index(0), [0; 5], MsgType::default());
        let crc = payload_crc(&ack.words, ack.mtype);
        ack.e2e = Some(E2eHeader::ack(NodeId::from_index(1), 2, crc));
        on_consumed(&mut d, 0, &ack, cycle + 1);
        assert!(!d.active(), "window fully acked");
        assert_eq!(d.scan_stats().active_flows, 1, "tx slot survives full ack");
        let mut m3 = data(1, 2);
        stamp(&mut d, 0, 1, &mut m3);
        assert_eq!(m3.e2e.unwrap().psn, 2, "psn continues after full ack");
    }

    #[test]
    fn the_sparse_table_survives_churn() {
        // Insert/remove churn across growth: every surviving key reads its
        // own value, removed keys read absent, and the free list recycles
        // slots without leaking.
        let mut t: NodeFlows<FlowRx> = NodeFlows::new();
        assert!(t.get(pair(7, 7)).is_none(), "empty table answers clean");
        for minor in 0..64usize {
            t.get_or_insert(pair(3, minor)).expected = minor as u32 + 1;
        }
        assert_eq!(t.live, 64);
        assert_eq!(t.peak, 64);
        for minor in (0..64usize).step_by(2) {
            t.remove(pair(3, minor));
        }
        assert_eq!(t.live, 32);
        assert_eq!(t.peak, 64, "peak is a high-water mark");
        for minor in 0..64usize {
            let got = t.get(pair(3, minor));
            if minor % 2 == 0 {
                assert!(got.is_none(), "removed key {minor} still present");
            } else {
                assert_eq!(got.unwrap().expected, minor as u32 + 1);
            }
        }
        // Reinsert into recycled slots: state starts from default.
        for minor in (0..64usize).step_by(2) {
            assert_eq!(t.get_or_insert(pair(3, minor)).expected, 0);
        }
        assert_eq!(t.live, 64);
        assert_eq!(t.slab.len(), 64, "recycled slots, no slab growth");
        assert!(t.probes.get() > 0, "lookups were metered");
        t.check().unwrap();
    }

    /// The table check notices counts or an index that disagree with the
    /// slab.
    #[test]
    fn the_table_check_catches_a_drifted_table() {
        let mut t: NodeFlows<FlowRx> = NodeFlows::new();
        for minor in 0..6usize {
            t.get_or_insert(pair(1, minor));
        }
        t.remove(pair(1, 2));
        t.check().unwrap();
        t.live += 1;
        assert!(t.check().unwrap_err().contains("live=6"));
        t.live -= 1;
        t.peak = 1;
        assert!(t.check().unwrap_err().contains("peak=1"));
        t.peak = 6;
        let cell = t.find::<false>(pair(1, 4)).unwrap();
        t.index[cell] = EMPTY_SLOT;
        assert!(t.check().unwrap_err().contains("flow 1->4"));
    }

    /// The sparse table against a `BTreeMap` model: one random
    /// insert/get/get_or_insert/remove/iterate sequence must leave both
    /// with the same entries, values, and live/peak counts. Each case grows
    /// the table through several resizes, then churns and finally drains it
    /// with removals whose backward-shift deletions must keep every
    /// surviving key reachable along its probe chain.
    #[test]
    fn node_flows_match_a_btreemap_model() {
        use std::collections::BTreeMap;

        fn assert_same(t: &NodeFlows<FlowRx>, model: &BTreeMap<u32, u32>) {
            let mut got: Vec<(u32, u32)> = t.iter().map(|(k, f)| (k, f.expected)).collect();
            got.sort_unstable();
            let want: Vec<(u32, u32)> = model.iter().map(|(&k, &v)| (k, v)).collect();
            assert_eq!(got, want, "iteration");
            for (&k, &v) in model {
                assert_eq!(
                    t.peek(k).map(|f| f.expected),
                    Some(v),
                    "probe chain to {k:#x}"
                );
            }
        }

        tcni_check::check("node_flows_match_a_btreemap_model", 64, |rng| {
            let mut t: NodeFlows<FlowRx> = NodeFlows::new();
            let mut model: BTreeMap<u32, u32> = BTreeMap::new();
            let mut peak = 0;
            // Few majors and a pool larger than the table keeps absent-key
            // lookups common.
            let pool = rng.range(40, 600) as usize;
            let keys: Vec<u32> = (0..pool)
                .map(|_| pair(rng.index(4), rng.index(1 << 16)))
                .collect();
            let steps = 6 * pool;
            for step in 0..steps {
                let k = *rng.pick(&keys);
                match rng.below(10) {
                    0..=3 => {
                        let v = rng.u32();
                        t.get_or_insert(k).expected = v;
                        model.insert(k, v);
                    }
                    4 | 5 => {
                        let got = t.get(k).map(|f| f.expected);
                        assert_eq!(got, model.get(&k).copied(), "get {k:#x}");
                    }
                    6 => {
                        let got = t.get_or_insert(k).expected;
                        assert_eq!(got, *model.entry(k).or_insert(0), "get_or_insert {k:#x}");
                    }
                    // Removals are rare while the table grows (the first
                    // half), then dominate the churn.
                    _ if step < steps / 2 && rng.below(4) != 0 => {}
                    _ => {
                        if model.remove(&k).is_some() {
                            t.remove(k);
                        }
                    }
                }
                peak = peak.max(model.len());
                assert_eq!((t.live as usize, t.peak as usize), (model.len(), peak));
                if step % 97 == 0 {
                    assert_same(&t, &model);
                }
            }
            assert_same(&t, &model);
            // Drain in random order, re-proving every survivor each time.
            let mut rest: Vec<u32> = model.keys().copied().collect();
            while !rest.is_empty() {
                let k = rest.swap_remove(rng.index(rest.len()));
                t.remove(k);
                model.remove(&k);
                assert_same(&t, &model);
            }
            assert_eq!(t.live, 0);
            assert_eq!(t.slab.len(), t.free.len(), "every slot recycled");
        });
    }

    /// The intrusive timeout list and the dense N²-flow scan must fire the
    /// same retransmissions in the same order across interleaved commits,
    /// partial acks, congestion resets, and abandons.
    #[test]
    fn timeout_list_matches_dense_flow_scan() {
        let cfg = DeliveryConfig {
            window: 4,
            timeout: 8,
            retransmit_limit: 3,
        };
        let run = |dense: bool| -> (DeliveryStats, Vec<(usize, u32, u32)>) {
            let nodes = 5usize;
            let mut d = Delivery::new(nodes, cfg, WireFormat::Compact);
            d.set_dense_scan(dense);
            let mut drained = Vec::new();
            let mut x = 0xdead_beef_cafe_f00du64;
            for cycle in 0..400u64 {
                // Pseudo-random commits on a rotating set of flows.
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let src = ((x >> 33) % nodes as u64) as usize;
                let dst = ((x >> 13) % nodes as u64) as usize;
                if src != dst && can_admit(&mut d, src, dst) && cycle % 3 == 0 {
                    let mut m = data(dst as u16, cycle as u32);
                    stamp(&mut d, src, dst, &mut m);
                    commit(&mut d, src, dst, m, cycle);
                }
                d.pump(cycle, &[0, d.nodes]);
                // Drain one outbox message from a rotating node and record
                // it; occasionally ack a flow's oldest message.
                let node = (cycle % nodes as u64) as usize;
                if let Some(m) = d.outbox().front(node).copied() {
                    let h = m.e2e.unwrap();
                    drained.push((node, m.dest().index() as u32, h.psn));
                    outbox_pop(&mut d, node);
                }
                if cycle % 7 == 0 {
                    let sender = ((x >> 49) % nodes as u64) as usize;
                    let acker = ((x >> 41) % nodes as u64) as usize;
                    if sender != acker {
                        if let Some((psn, _)) = d.unacked_front(sender, acker) {
                            let mut ack =
                                Message::to(NodeId::from_index(sender), [0; 5], MsgType::default());
                            let crc = payload_crc(&ack.words, ack.mtype);
                            ack.e2e = Some(E2eHeader::ack(NodeId::from_index(acker), psn + 1, crc));
                            on_consumed(&mut d, sender, &ack, cycle);
                        }
                    }
                }
                d.check_invariants().unwrap();
            }
            (d.stats(), drained)
        };
        let (hot, hot_order) = run(false);
        let (dense, dense_order) = run(true);
        assert_eq!(hot, dense, "protocol counters must be bit-identical");
        assert_eq!(hot_order, dense_order, "outbox drain order must match");
        assert!(hot.retransmits > 0, "the scenario exercised timeouts");
        assert!(hot.abandoned > 0, "the scenario exercised abandons");
    }

    /// The sharded pump (global due collection, per-domain firing through
    /// range views, delta replay) must be bit-identical to the one-domain
    /// pump firing in place — counters, outbox drain order, active set, and
    /// scan meters alike.
    #[test]
    fn parallel_pump_matches_serial_pump() {
        let cfg = DeliveryConfig {
            window: 4,
            timeout: 8,
            retransmit_limit: 3,
        };
        let nodes = 8usize;
        let bounds = [0usize, 3, 5, 8];
        // Counters, scan meters, outbox drain order, active set.
        type Outcome = (DeliveryStats, ScanStats, Vec<(usize, u32, u32)>, Vec<usize>);
        let run = |par: bool| -> Outcome {
            let mut d = Delivery::new(nodes, cfg, WireFormat::Compact);
            let mut drained = Vec::new();
            // A burst across every source domain so one pump sees well over
            // PAR_FIRE_MIN due flows at once (the parallel fire path).
            for src in 0..nodes {
                for dst in [(src + 1) % nodes, (src + 3) % nodes] {
                    let mut m = data(dst as u16, (src * nodes + dst) as u32);
                    stamp(&mut d, src, dst, &mut m);
                    commit(&mut d, src, dst, m, 0);
                }
            }
            let mut x = 0xdead_beef_cafe_f00du64;
            for cycle in 0..400u64 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let src = ((x >> 33) % nodes as u64) as usize;
                let dst = ((x >> 13) % nodes as u64) as usize;
                if src != dst && can_admit(&mut d, src, dst) && cycle % 3 == 0 {
                    let mut m = data(dst as u16, cycle as u32);
                    stamp(&mut d, src, dst, &mut m);
                    commit(&mut d, src, dst, m, cycle);
                }
                if par {
                    d.pump(cycle, &bounds);
                } else {
                    d.pump(cycle, &[0, d.nodes]);
                }
                let node = (cycle % nodes as u64) as usize;
                if let Some(m) = d.outbox().front(node).copied() {
                    let h = m.e2e.unwrap();
                    drained.push((node, m.dest().index() as u32, h.psn));
                    outbox_pop(&mut d, node);
                }
                if cycle % 7 == 0 {
                    let sender = ((x >> 49) % nodes as u64) as usize;
                    let acker = ((x >> 41) % nodes as u64) as usize;
                    if sender != acker {
                        if let Some((psn, _)) = d.unacked_front(sender, acker) {
                            let mut ack =
                                Message::to(NodeId::from_index(sender), [0; 5], MsgType::default());
                            let crc = payload_crc(&ack.words, ack.mtype);
                            ack.e2e = Some(E2eHeader::ack(NodeId::from_index(acker), psn + 1, crc));
                            on_consumed(&mut d, sender, &ack, cycle);
                        }
                    }
                }
                d.check_invariants().unwrap();
            }
            (d.stats(), d.scan_stats(), drained, d.active_sorted())
        };
        // Force helper threads so the sharded path really runs concurrently.
        tcni_util::par::set_threads(3);
        let (ps, pscan, porder, pactive) = run(true);
        tcni_util::par::set_threads(0);
        let (ss, sscan, sorder, sactive) = run(false);
        assert_eq!(ss, ps, "protocol counters must be bit-identical");
        assert_eq!(sscan, pscan, "scan meters must be bit-identical");
        assert_eq!(sorder, porder, "outbox drain order must match");
        assert_eq!(sactive, pactive, "active-outbox set must match");
        assert!(ss.retransmits > 0, "the scenario exercised timeouts");
        assert!(ss.abandoned > 0, "the scenario exercised abandons");
    }
}
