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
//! **Metering.** Protocol lookups are metered (`ScanStats::flow_probes`);
//! timeout-list maintenance (see [`Delivery::link_tail`]), invariant checks
//! and resize rehashes are not.
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

use std::cell::Cell;
use std::collections::VecDeque;

use tcni_core::{payload_crc, E2eHeader, E2eKind, Message, NodeId, WireFormat};
use tcni_isa::MsgType;
use tcni_net::ScanStats;

use crate::outbox::Outbox;

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
/// power-of-two bucket space.
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
    /// `&self` must count too).
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
    /// pure function of the table's operation history). Callers who need
    /// key order sort.
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

    /// The head of `node`'s outbox.
    pub(crate) fn outbox_front(&self, node: usize) -> Option<&Message> {
        self.outbox.front(node)
    }

    // --- timeout list ---------------------------------------------------------
    //
    // List maintenance looks flows up without metering them: the meter
    // counts the protocol's own lookups only.

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

    /// Moves flow `pr`, whose `last_send` was just refreshed, to the tail.
    fn move_to_tail(&mut self, pr: u32) {
        self.unlink(pr);
        self.link_tail(pr);
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
    /// slots.
    pub(crate) fn pump(&mut self, cycle: u64) {
        // No flow holds unacked data: nothing can be due. Returning before
        // any counting keeps the scan counters identical between the naive
        // loop and the fast-forward (both only reach a non-trivial pump
        // while the protocol is active, which forces step-by-step cycles).
        if self.to_head == NONE_LINK {
            return;
        }
        let dense_cost = (self.nodes * self.nodes) as u64;
        let (mut due, examined) = self.collect_due(cycle);
        for &pr in &due {
            self.fire_timeout(pr, cycle);
        }
        due.clear();
        self.due_scratch = due;
        self.scan.scanned_flows += examined;
        self.scan.skipped_work += dense_cost - examined;
    }

    /// Checks the protocol's bookkeeping against itself: a flow is on
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

impl Delivery {
    /// Removes the head of `node`'s outbox after its injection, crediting the
    /// flow it belongs to.
    pub(crate) fn outbox_pop(&mut self, node: usize) {
        let Some(m) = self.outbox.pop(node) else {
            return;
        };
        match m.e2e {
            // A retransmit copy left the outbox: credit the flow's pending
            // counter (tx flows are never evicted, so the slot is live).
            Some(h) if h.kind == E2eKind::Data => {
                let pr = pair(node, m.dest().index());
                let flow = self.tx[node].get_mut(pr);
                let flow = flow.expect("pending copy's flow is live");
                debug_assert!(flow.pending_copies > 0, "pop without a push");
                flow.pending_copies -= 1;
            }
            // The flow's pending ack left: the next arrival queues a fresh one
            // instead of coalescing. An rx flow whose state is all defaults
            // again (nothing ever delivered in order, no ack pending) is
            // evicted — its slot reads back identically.
            Some(h) if h.kind == E2eKind::Ack => {
                let pr = pair(node, m.dest().index());
                let rx = &mut self.rx[node];
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
    pub(crate) fn can_admit(&self, src: usize, dst: usize) -> bool {
        self.tx[src]
            .get(pair(src, dst))
            .is_none_or(|flow| flow.unacked.len() < self.config.window)
    }

    /// Stamps `msg` with the flow's next header. Pure with respect to flow
    /// state: nothing advances until [`commit`](Self::commit), so a refused
    /// injection retries with the same sequence number.
    pub(crate) fn stamp(&self, src: usize, dst: usize, msg: &mut Message) {
        let psn = self.tx[src]
            .get(pair(src, dst))
            .map_or(0, |flow| flow.next_psn);
        let crc = payload_crc(&msg.words, msg.mtype);
        msg.e2e = Some(E2eHeader::data(NodeId::from_index(src), psn, crc));
    }

    /// Records an accepted first transmission of a stamped message.
    pub(crate) fn commit(&mut self, src: usize, dst: usize, msg: Message, cycle: u64) {
        let pr = pair(src, dst);
        let flow = self.tx[src].get_or_insert(pr);
        let hdr = msg.e2e.expect("committed message is stamped");
        debug_assert_eq!(hdr.psn, flow.next_psn);
        let was_empty = flow.unacked.is_empty();
        if was_empty {
            flow.last_send = cycle;
            flow.rounds = 0;
        }
        flow.unacked.push_back((hdr.psn, msg));
        flow.next_psn += 1;
        self.unacked_msgs += 1;
        self.stats.accepted += 1;
        if was_empty {
            // First unacked message: the flow joins the timeout list with the
            // newest stamp, i.e. at the tail.
            self.link_tail(pr);
        }
    }

    /// One due flow's timeout: requeue the window (go-back-N), or just reset
    /// the timer if the previous round's copies are still queued, or abandon
    /// once the budget is spent. Each step looks the flow up afresh, and
    /// every lookup moves the probe meter.
    fn fire_timeout(&mut self, pr: u32, cycle: u64) {
        let src = pair_major(pr);
        // Copies from the previous round still await injection: the outbox is
        // congested, not the receiver unresponsive. Reset the timer without
        // burning a budget round.
        if self.tx[src].get_mut(pr).expect(LIVE).pending_copies > 0 {
            self.tx[src].get_mut(pr).expect(LIVE).last_send = cycle;
            self.move_to_tail(pr);
            return;
        }
        {
            let flow = self.tx[src].get_mut(pr).expect(LIVE);
            flow.rounds += 1;
            flow.last_send = cycle;
        }
        self.stats.timeout_rounds += 1;
        if self.tx[src].get_mut(pr).expect(LIVE).rounds > self.config.retransmit_limit {
            // Budget exhausted: the receiver is unreachable. Abandon the window
            // rather than wedging the machine. The flow slot (and its spent
            // budget) stays live — see the eviction semantics.
            let len = self.tx[src].get_mut(pr).expect(LIVE).unacked.len() as u64;
            self.stats.abandoned += len;
            self.unacked_msgs -= len;
            let flow = self.tx[src].get_mut(pr).expect(LIVE);
            flow.unacked.clear();
            flow.rounds = 0;
            self.unlink(pr);
            return;
        }
        // Go-back-N: requeue the whole window.
        let count = self.tx[src].get_mut(pr).expect(LIVE).unacked.len();
        for k in 0..count {
            let m = self.tx[src].get_mut(pr).expect(LIVE).unacked[k].1;
            self.outbox.push(src, m);
        }
        self.tx[src].get_mut(pr).expect(LIVE).pending_copies += count as u32;
        self.stats.retransmits += count as u64;
        self.move_to_tail(pr);
    }

    /// Classifies an arrived protocol message (pure; effects in
    /// [`on_delivered`](Self::on_delivered)/[`on_consumed`](Self::on_consumed)).
    pub(crate) fn rx_action(&self, dst: usize, msg: &Message) -> RxAction {
        let hdr = msg.e2e.expect("rx_action on a protocol message");
        if payload_crc(&msg.words, msg.mtype) != hdr.crc {
            return RxAction::Consume;
        }
        match hdr.kind {
            E2eKind::Ack => RxAction::Consume,
            E2eKind::Data => {
                let expected = self.rx[dst]
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
    pub(crate) fn on_delivered(&mut self, dst: usize, msg: &Message) {
        let hdr = msg.e2e.expect("delivered message has a header");
        let flow = self.rx[dst].get_or_insert(pair(dst, hdr.src.index()));
        debug_assert_eq!(hdr.psn, flow.expected);
        flow.expected += 1;
        self.stats.delivered_unique += 1;
        self.queue_ack(dst, hdr.src.index());
    }

    /// Applies a consumed (non-delivered) arrival: ack bookkeeping for the
    /// sender, re-acks for duplicates and gaps, counters for everything.
    pub(crate) fn on_consumed(&mut self, dst: usize, msg: &Message, cycle: u64) {
        let hdr = msg.e2e.expect("consumed message has a header");
        if payload_crc(&msg.words, msg.mtype) != hdr.crc {
            // Unverifiable header: trust nothing in it, count and move on.
            self.stats.corrupt_dropped += 1;
            return;
        }
        match hdr.kind {
            E2eKind::Ack => {
                // `dst` is the flow's sender; the header names the acker.
                // Non-creating on purpose: an ack for a flow that never
                // committed (possible only in synthetic scenarios) must not
                // materialise sender state.
                self.stats.acks_received += 1;
                let pr = pair(dst, hdr.src.index());
                let Some(flow) = self.tx[dst].get_mut(pr) else {
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
                let drained = flow.unacked.is_empty();
                self.unacked_msgs -= acked;
                // Fully acked: off the timeout list. Otherwise the timer
                // restarted at the newest stamp: tail.
                if drained {
                    self.unlink(pr);
                } else {
                    self.move_to_tail(pr);
                }
            }
            E2eKind::Data => {
                let expected = self.rx[dst]
                    .get(pair(dst, hdr.src.index()))
                    .map_or(0, |flow| flow.expected);
                if hdr.psn < expected {
                    self.stats.dup_suppressed += 1;
                } else {
                    self.stats.out_of_order_dropped += 1;
                }
                // Either way, remind the sender where the flow stands (a lost
                // ack is recovered by the duplicate's re-ack).
                self.queue_ack(dst, hdr.src.index());
            }
        }
    }

    /// Queues (or refreshes) the cumulative ack from `receiver` back to the
    /// flow's `sender`. At most one pending ack per flow lives in the outbox: a
    /// newer cumulative ack *coalesces* into it (highest sequence number wins)
    /// instead of enqueueing another — without this, every data arrival on a
    /// congested outbox would add an ack (an ack flood).
    fn queue_ack(&mut self, receiver: usize, sender: usize) {
        let pr = pair(receiver, sender);
        let psn = self.rx[receiver].get(pr).map_or(0, |f| f.expected);
        // Full node ids end to end: the ack names its flow without casts, and
        // is composed under the machine's wire format.
        let sender_id = NodeId::from_index(sender);
        let mut ack = Message::to_in(self.format, sender_id, [0; 5], MsgType::default());
        let crc = payload_crc(&ack.words, ack.mtype);
        ack.e2e = Some(E2eHeader::ack(NodeId::from_index(receiver), psn, crc));
        if self.rx[receiver].get(pr).is_some_and(|f| f.ack_pending) {
            for m in self.outbox.queue_mut(receiver).iter_mut() {
                if matches!(m.e2e, Some(h) if h.kind == E2eKind::Ack) && m.dest() == sender_id {
                    // Cumulative: only ever move the acked prefix forward
                    // (`expected` is monotone, so `<=` always holds — the guard
                    // is defense in depth).
                    if m.e2e.expect("matched above").psn <= psn {
                        *m = ack;
                    }
                    self.stats.acks_coalesced += 1;
                    return;
                }
            }
            debug_assert!(false, "ack_pending set but no ack queued");
        }
        self.rx[receiver].get_or_insert(pr).ack_pending = true;
        self.outbox.push(receiver, ack);
        self.stats.acks_sent += 1;
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
            assert!(d.can_admit(0, 1));
            let mut m = data(1, tag);
            d.stamp(0, 1, &mut m);
            assert_eq!(m.e2e.unwrap().psn, tag);
            d.commit(0, 1, m, 5);
        }
        assert!(!d.can_admit(0, 1), "window full backs off");
        assert!(d.active());
        assert_eq!(d.residency(), 2);

        // Receiver takes psn 0 in order and acks cumulatively.
        let mut m0 = data(1, 0);
        d.stamp_for_test(0, &mut m0, 0);
        assert_eq!(d.rx_action(1, &m0), RxAction::Deliver);
        d.on_delivered(1, &m0);
        let ack = *d.outbox_front(1).expect("ack queued");
        assert_eq!(ack.dest(), NodeId::new(0));
        assert_eq!(ack.e2e.unwrap().psn, 1);

        // Sender consumes the ack: window slides.
        assert_eq!(d.rx_action(0, &ack), RxAction::Consume);
        d.on_consumed(0, &ack, 7);
        assert!(d.can_admit(0, 1));
        assert_eq!(d.stats().acks_received, 1);
        assert_eq!(d.stats().delivered_unique, 1);
    }

    #[test]
    fn duplicates_and_gaps_are_consumed_and_reacked() {
        let mut d = Delivery::new(2, DeliveryConfig::default(), WireFormat::Compact);
        let mut m0 = data(1, 7);
        d.stamp_for_test(0, &mut m0, 0);
        d.on_delivered(1, &m0);
        // The same psn again: duplicate.
        assert_eq!(d.rx_action(1, &m0), RxAction::Consume);
        d.on_consumed(1, &m0, 2);
        assert_eq!(d.stats().dup_suppressed, 1);
        // psn 5: a gap.
        let mut m5 = data(1, 8);
        d.stamp_for_test(0, &mut m5, 5);
        assert_eq!(d.rx_action(1, &m5), RxAction::Consume);
        d.on_consumed(1, &m5, 3);
        assert_eq!(d.stats().out_of_order_dropped, 1);
        // Exactly one coalesced ack is pending despite three arrivals.
        assert_eq!(d.stats().acks_sent, 1);
        assert_eq!(d.stats().acks_coalesced, 2, "two arrivals coalesced");
        assert_eq!(d.outbox_front(1).unwrap().e2e.unwrap().psn, 1);
        // Once the pending ack drains, the next arrival queues a fresh one.
        d.outbox_pop(1);
        d.on_consumed(1, &m0, 4);
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
            assert_eq!(d.rx_action(1, &m), RxAction::Deliver);
            d.on_delivered(1, &m);
        }
        assert_eq!(d.stats().acks_sent, 1);
        assert_eq!(d.stats().acks_coalesced, 1);
        assert_eq!(d.outbox_front(1).unwrap().e2e.unwrap().psn, 2);
    }

    #[test]
    fn corruption_fails_the_checksum_and_is_silent() {
        let mut d = Delivery::new(2, DeliveryConfig::default(), WireFormat::Compact);
        let mut m = data(1, 7);
        d.stamp_for_test(0, &mut m, 0);
        m.words[2] ^= 1 << 9; // fabric corruption after stamping
        assert_eq!(d.rx_action(1, &m), RxAction::Consume);
        d.on_consumed(1, &m, 1);
        assert_eq!(d.stats().corrupt_dropped, 1);
        assert!(d.outbox_front(1).is_none(), "no ack for garbage");
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
            d.stamp(0, 1, &mut m);
            d.commit(0, 1, m, 0);
        }
        d.pump(5);
        assert_eq!(d.stats().retransmits, 0, "not due yet");
        d.pump(10);
        assert_eq!(d.stats().retransmits, 2, "whole window requeued");
        assert_eq!(d.stats().timeout_rounds, 1);
        // Copies still pending in the outbox: the next round requeues
        // nothing more.
        d.pump(20);
        assert_eq!(d.stats().retransmits, 2);
        // Drain the outbox, then exhaust the budget.
        d.outbox_pop(0);
        d.outbox_pop(0);
        d.pump(30);
        assert_eq!(d.stats().retransmits, 4);
        d.outbox_pop(0);
        d.outbox_pop(0);
        d.pump(40);
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
        d.on_consumed(1, &m5, 1);
        assert_eq!(d.scan_stats().active_flows, 1, "rx slot carries the ack");
        d.outbox_pop(1);
        assert_eq!(d.scan_stats().active_flows, 0, "default rx state evicted");
        assert_eq!(d.scan_stats().peak_flows, 1, "high-water mark survives");

        // An in-order delivery advances `expected`: that state is
        // load-bearing (it defines the flow's duplicate horizon) and must
        // survive the ack draining.
        let mut m0 = data(1, 7);
        d.stamp_for_test(0, &mut m0, 0);
        d.on_delivered(1, &m0);
        d.outbox_pop(1);
        assert_eq!(d.scan_stats().active_flows, 1, "advanced rx state stays");
        assert_eq!(d.rx_action(1, &m0), RxAction::Consume, "still a duplicate");
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
        d.stamp(0, 1, &mut m);
        d.commit(0, 1, m, 0);
        // Burn the whole retransmit budget until the window abandons.
        let mut cycle = 0;
        while d.active() {
            cycle += 10;
            d.pump(cycle);
            while d.outbox_front(0).is_some() {
                d.outbox_pop(0);
            }
        }
        assert_eq!(d.stats().abandoned, 1);
        // The spent flow keeps its slot: its sequence numbering must
        // survive (a fresh slot would re-stamp psn 0 and corrupt the
        // receiver's duplicate horizon).
        assert_eq!(d.scan_stats().active_flows, 1, "tx slot survives abandon");
        let mut m2 = data(1, 1);
        d.stamp(0, 1, &mut m2);
        assert_eq!(m2.e2e.unwrap().psn, 1, "psn continues, not reset");
        // Fully acked flows keep their slot too.
        d.commit(0, 1, m2, cycle);
        let mut ack = Message::to(NodeId::from_index(0), [0; 5], MsgType::default());
        let crc = payload_crc(&ack.words, ack.mtype);
        ack.e2e = Some(E2eHeader::ack(NodeId::from_index(1), 2, crc));
        d.on_consumed(0, &ack, cycle + 1);
        assert!(!d.active(), "window fully acked");
        assert_eq!(d.scan_stats().active_flows, 1, "tx slot survives full ack");
        let mut m3 = data(1, 2);
        d.stamp(0, 1, &mut m3);
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
                if src != dst && d.can_admit(src, dst) && cycle % 3 == 0 {
                    let mut m = data(dst as u16, cycle as u32);
                    d.stamp(src, dst, &mut m);
                    d.commit(src, dst, m, cycle);
                }
                d.pump(cycle);
                // Drain one outbox message from a rotating node and record
                // it; occasionally ack a flow's oldest message.
                let node = (cycle % nodes as u64) as usize;
                if let Some(m) = d.outbox_front(node).copied() {
                    let h = m.e2e.unwrap();
                    drained.push((node, m.dest().index() as u32, h.psn));
                    d.outbox_pop(node);
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
                            d.on_consumed(sender, &ack, cycle);
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
}
