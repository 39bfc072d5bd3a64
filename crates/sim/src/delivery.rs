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
//! `std` [`HashMap`] per major node, hashed by [`DefaultHasher`] under its
//! fixed keys so that every run lays out and iterates the maps alike.
//! Memory is proportional to the *active* pairs — the invariant a real NIC
//! lives under, its per-flow state bounded by scarce NIC memory — instead
//! of the dense `nodes²` table a wide-format machine could never afford.
//! An absent entry reads as a default flow, so the layout is invisible to
//! behaviour.
//!
//! **Eviction semantics.** A tx flow is *never* evicted: its `next_psn`
//! seeds every future stamp and its `rounds` budget must not silently
//! reset, so the entry stays live once a first transmission commits. An rx
//! flow is evicted exactly when it returns to its default state — its
//! pending ack drains while `expected` is still 0 (only gap or duplicate
//! arrivals ever reached it) — which an absent entry represents
//! identically. Long-running uniform traffic therefore converges to one
//! live tx entry per communicating pair and rx entries for in-progress
//! receives.
//!
//! **Metering.** Each protocol lookup counts one `ScanStats::flow_probes`
//! (see [`FlowMeter`]); timer maintenance and invariant checks are not
//! metered. `active_flows` is the number of live entries over all maps and
//! `peak_flows` its machine-wide high-water mark.
//!
//! ## Hot-set scheduling
//!
//! The per-cycle retransmission pump does **not** scan all active flows:
//! each flow holding unacked data has exactly one `(last_send, pair)` entry
//! in an ordered timer set, and every `last_send` update replaces it. The
//! pump walks the set from the oldest stamp and stops at the first flow
//! that is not yet due. The pump runs every cycle while any timer exists,
//! so the flows due on one cycle share one stamp and the set yields them
//! in ascending pair key, the (src, dst) order of the dense scan:
//! retransmit copies enter each outbox bit-identically with no sort. A
//! flow gains its timer when its first unacked message is committed and
//! loses it when its window fully acks or is abandoned. Whether a flow's
//! copies from the previous round still wait in the outbox is a per-flow
//! `pending_copies` counter maintained at outbox push/pop. The dense scan
//! survives in the machine's reference mode
//! ([`Machine::set_reference`](crate::Machine::set_reference)), examining
//! the dense `nodes²` cost.
//!

use std::cell::Cell;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, DefaultHasher};

use tcni_core::{payload_crc, E2eHeader, E2eKind, Message, NodeId, WireFormat};
use tcni_isa::MsgType;
use tcni_net::ScanStats;

use crate::outbox::Outbox;

/// One major node's flows, keyed by pair key.
type FlowMap<T> = HashMap<u32, T, BuildHasherDefault<DefaultHasher>>;

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

#[derive(Debug, Default)]
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
    /// sender's outbox (maintained at push/pop).
    pending_copies: u32,
}

#[derive(Debug, Default)]
pub(crate) struct FlowRx {
    /// Next sequence number expected (everything below is delivered).
    expected: u32,
    /// Whether an ack for this flow is already waiting in the receiver's
    /// outbox (newer cumulative acks coalesce into it).
    ack_pending: bool,
}

/// The flow store's footprint and lookup meters. Every protocol lookup
/// goes through [`get`](Self::get), [`get_mut`](Self::get_mut) or
/// [`upsert`](Self::upsert) and counts once.
#[derive(Debug, Default)]
struct FlowMeter {
    /// Metered lookups (`Cell`: the pure `&self` lookups count too).
    lookups: Cell<u64>,
    /// Live entries over every tx and rx map.
    live: u64,
    /// High-water mark of `live`.
    peak: u64,
}

impl FlowMeter {
    fn count(&self) {
        self.lookups.set(self.lookups.get() + 1);
    }

    fn get<'m, T>(&self, map: &'m FlowMap<T>, pr: u32) -> Option<&'m T> {
        self.count();
        map.get(&pr)
    }

    fn get_mut<'m, T>(&self, map: &'m mut FlowMap<T>, pr: u32) -> Option<&'m mut T> {
        self.count();
        map.get_mut(&pr)
    }

    /// Flow `pr` of `map`, inserted in its default state if absent.
    fn upsert<'m, T: Default>(&mut self, map: &'m mut FlowMap<T>, pr: u32) -> &'m mut T {
        self.count();
        map.entry(pr).or_insert_with(|| {
            self.live += 1;
            self.peak = self.peak.max(self.live);
            T::default()
        })
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
    tx: Vec<FlowMap<FlowTx>>,
    /// Receiver state, destination-major: `rx[dst]` holds flows keyed
    /// `pair(dst, src)`.
    rx: Vec<FlowMap<FlowRx>>,
    /// Footprint and lookup meters of `tx` and `rx`.
    meter: FlowMeter,
    /// Per-node protocol traffic (acks, retransmits) awaiting injection.
    /// Drains at one message per node per cycle, ahead of fresh NI sends.
    outbox: Outbox,
    /// Total unacked messages across all flows.
    unacked_msgs: u64,
    /// `(last_send, pair)` of every tx flow with unacked data, oldest stamp
    /// first (see the module docs).
    timers: BTreeSet<(u64, u32)>,
    /// Reusable scratch of due pair keys (no allocation per pump in the
    /// steady state).
    due_scratch: Vec<u32>,
    /// The pump's effort meters (merged into `NetStats::scan` by the
    /// machine together with the flow meters; see
    /// [`scan_stats`](Self::scan_stats)).
    scan: ScanStats,
    /// Cross-check mode: the pump examines the dense N² flow cost.
    /// Behaviour is bit-identical; only the scan counters differ.
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
            tx: (0..nodes).map(|_| FlowMap::default()).collect(),
            rx: (0..nodes).map(|_| FlowMap::default()).collect(),
            meter: FlowMeter::default(),
            outbox: Outbox::new(nodes),
            unacked_msgs: 0,
            timers: BTreeSet::new(),
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
    /// `NetStats::scan`): the pump meters plus the flow store's live
    /// entries, their high-water mark, and its metered lookups.
    pub(crate) fn scan_stats(&self) -> ScanStats {
        ScanStats {
            active_flows: self.meter.live,
            peak_flows: self.meter.peak,
            flow_probes: self.meter.lookups.get(),
            ..self.scan
        }
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

    /// The first node at or after `from` whose outbox is non-empty.
    pub(crate) fn next_outbox_node(&self, from: usize) -> Option<usize> {
        self.outbox.next_node(from)
    }

    /// The head of `node`'s outbox.
    pub(crate) fn outbox_front(&self, node: usize) -> Option<&Message> {
        self.outbox.front(node)
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
            // cost`); map iteration is hash order, hence the sort.
            examined = (self.nodes * self.nodes) as u64;
            for t in &self.tx {
                for (&pr, flow) in t {
                    if !flow.unacked.is_empty()
                        && cycle.saturating_sub(flow.last_send) >= self.config.timeout
                    {
                        due.push(pr);
                    }
                }
            }
            due.sort_unstable();
        } else {
            // Walk from the oldest stamp; the first not-yet-due flow ends
            // the walk. The due flows share one stamp (see `check_timers`),
            // so they come out in pair-key order.
            for &(last_send, pr) in &self.timers {
                examined += 1;
                if cycle.saturating_sub(last_send) < self.config.timeout {
                    break;
                }
                due.push(pr);
            }
            debug_assert!(due.is_sorted(), "due timers out of pair order");
        }
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
        if self.timers.is_empty() {
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

    /// Checks, between cycles, that no timer is older than `cycle -
    /// max(timeout, 1)`, `cycle` being the next to run: a pump every cycle
    /// re-stamps or retires each timer as it falls due, so the flows due on
    /// one cycle share one stamp and the timer set yields them in pair order.
    pub(crate) fn check_timers(&self, cycle: u64) -> Result<(), String> {
        let horizon = cycle.saturating_sub(self.config.timeout.max(1));
        match self.timers.first() {
            Some(&(stamp, pr)) if stamp < horizon => Err(format!(
                "flow {}->{} overdue: stamped {stamp} before cycle {cycle}",
                pair_major(pr),
                pair_minor(pr)
            )),
            _ => Ok(()),
        }
    }

    /// Checks the protocol's bookkeeping against itself: the timer set
    /// holds exactly `(last_send, pair)` for every flow with unacked data,
    /// the live-flow meter counts the map entries, the unacked and outbox
    /// totals match the maps and queues, the active-outbox set is exactly
    /// the nodes with queued traffic, each flow's `pending_copies` counts
    /// its queued data copies, and `ack_pending` holds iff an ack for the
    /// flow is queued. Lookups here are unmetered.
    pub(crate) fn check_invariants(&self) -> Result<(), String> {
        fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
            ok.then_some(()).ok_or_else(what)
        }
        self.outbox.check("delivery")?;
        let entries = self.tx.iter().map(HashMap::len).sum::<usize>()
            + self.rx.iter().map(HashMap::len).sum::<usize>();
        let FlowMeter { live, peak, .. } = self.meter;
        ensure(entries as u64 == live && peak >= live, || {
            format!("{entries} flows but live={live} peak={peak}")
        })?;
        let name = |pr: u32| format!("flow {}->{}", pair_major(pr), pair_minor(pr));
        let queued = |node: usize, kind: E2eKind, peer: Option<usize>| {
            let hit = |m: &&Message| {
                matches!(m.e2e, Some(h) if h.kind == kind)
                    && peer.is_none_or(|p| m.dest().index() == p)
            };
            self.outbox.queue(node).iter().filter(hit).count()
        };
        let (mut unacked, mut timed) = (0, 0);
        for (&pr, flow) in self.tx.iter().flatten() {
            let (n, copies) = (flow.unacked.len(), flow.pending_copies as usize);
            let timer = self.timers.contains(&(flow.last_send, pr));
            ensure(timer == (n > 0), || {
                format!("{}: {n} unacked, timer {timer}", name(pr))
            })?;
            let queued = queued(pair_major(pr), E2eKind::Data, Some(pair_minor(pr)));
            ensure(queued == copies, || {
                format!("{}: {queued} copies", name(pr))
            })?;
            unacked += n as u64;
            timed += usize::from(timer);
        }
        ensure(unacked == self.unacked_msgs, || {
            format!("{unacked} unacked")
        })?;
        ensure(timed == self.timers.len(), || {
            format!("{} timers for {timed} timed flows", self.timers.len())
        })?;
        let mut awaited = 0;
        for (dst, t) in self.rx.iter().enumerate() {
            for (&pr, flow) in t {
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
        let pr = pair(node, m.dest().index());
        match m.e2e {
            // A retransmit copy left the outbox: credit the flow's pending
            // counter (tx flows are never evicted, so the entry is live).
            Some(h) if h.kind == E2eKind::Data => {
                let flow = self.meter.get_mut(&mut self.tx[node], pr);
                let flow = flow.expect("pending copy's flow is live");
                debug_assert!(flow.pending_copies > 0, "pop without a push");
                flow.pending_copies -= 1;
            }
            // The flow's pending ack left: the next arrival queues a fresh one
            // instead of coalescing. An rx flow whose state is all defaults
            // again (nothing ever delivered in order, no ack pending) is
            // evicted — its absent entry reads back identically.
            Some(h) if h.kind == E2eKind::Ack => {
                let rx = &mut self.rx[node];
                let flow = self
                    .meter
                    .get_mut(rx, pr)
                    .expect("pending ack's flow is live");
                flow.ack_pending = false;
                if flow.expected == 0 {
                    rx.remove(&pr);
                    self.meter.live -= 1;
                }
            }
            _ => {}
        }
    }

    /// Whether flow (src, dst) can take another first transmission.
    pub(crate) fn can_admit(&self, src: usize, dst: usize) -> bool {
        self.meter
            .get(&self.tx[src], pair(src, dst))
            .is_none_or(|flow| flow.unacked.len() < self.config.window)
    }

    /// Stamps `msg` with the flow's next header. Pure with respect to flow
    /// state: nothing advances until [`commit`](Self::commit), so a refused
    /// injection retries with the same sequence number.
    pub(crate) fn stamp(&self, src: usize, dst: usize, msg: &mut Message) {
        let psn = self
            .meter
            .get(&self.tx[src], pair(src, dst))
            .map_or(0, |flow| flow.next_psn);
        let crc = payload_crc(&msg.words, msg.mtype);
        msg.e2e = Some(E2eHeader::data(NodeId::from_index(src), psn, crc));
    }

    /// Records an accepted first transmission of a stamped message.
    pub(crate) fn commit(&mut self, src: usize, dst: usize, msg: Message, cycle: u64) {
        let pr = pair(src, dst);
        let flow = self.meter.upsert(&mut self.tx[src], pr);
        let hdr = msg.e2e.expect("committed message is stamped");
        debug_assert_eq!(hdr.psn, flow.next_psn);
        if flow.unacked.is_empty() {
            // First unacked message: the flow's timer starts.
            flow.last_send = cycle;
            flow.rounds = 0;
            self.timers.insert((cycle, pr));
        }
        flow.unacked.push_back((hdr.psn, msg));
        flow.next_psn += 1;
        self.unacked_msgs += 1;
        self.stats.accepted += 1;
    }

    /// One due flow's timeout: requeue the window (go-back-N), or just reset
    /// the timer if the previous round's copies are still queued, or abandon
    /// once the budget is spent. The flow is looked up (and metered) once.
    fn fire_timeout(&mut self, pr: u32, cycle: u64) {
        let src = pair_major(pr);
        let flow = self
            .meter
            .get_mut(&mut self.tx[src], pr)
            .expect("timed flow is live");
        self.timers.remove(&(flow.last_send, pr));
        flow.last_send = cycle;
        // Copies from the previous round still await injection: the outbox is
        // congested, not the receiver unresponsive. Reset the timer without
        // burning a budget round.
        if flow.pending_copies > 0 {
            self.timers.insert((cycle, pr));
            return;
        }
        flow.rounds += 1;
        self.stats.timeout_rounds += 1;
        if flow.rounds > self.config.retransmit_limit {
            // Budget exhausted: the receiver is unreachable. Abandon the window
            // rather than wedging the machine. The flow entry (and its spent
            // budget) stays live — see the eviction semantics.
            let len = flow.unacked.len() as u64;
            self.stats.abandoned += len;
            self.unacked_msgs -= len;
            flow.unacked.clear();
            flow.rounds = 0;
            return;
        }
        // Go-back-N: requeue the whole window.
        for &(_, m) in &flow.unacked {
            self.outbox.push(src, m);
        }
        let count = flow.unacked.len();
        flow.pending_copies += count as u32;
        self.stats.retransmits += count as u64;
        self.timers.insert((cycle, pr));
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
                let expected = self
                    .meter
                    .get(&self.rx[dst], pair(dst, hdr.src.index()))
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
        let flow = self
            .meter
            .upsert(&mut self.rx[dst], pair(dst, hdr.src.index()));
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
                let Some(flow) = self.meter.get_mut(&mut self.tx[dst], pr) else {
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
                // Progress restarts the timer at this cycle; a fully acked
                // flow has none.
                self.timers.remove(&(flow.last_send, pr));
                flow.rounds = 0;
                flow.last_send = cycle;
                if !flow.unacked.is_empty() {
                    self.timers.insert((cycle, pr));
                }
                self.unacked_msgs -= acked;
            }
            E2eKind::Data => {
                let expected = self
                    .meter
                    .get(&self.rx[dst], pair(dst, hdr.src.index()))
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
        let flow = self.meter.get(&self.rx[receiver], pr);
        let (psn, pending) = flow.map_or((0, false), |f| (f.expected, f.ack_pending));
        // Full node ids end to end: the ack names its flow without casts, and
        // is composed under the machine's wire format.
        let sender_id = NodeId::from_index(sender);
        let mut ack = Message::to_in(self.format, sender_id, [0; 5], MsgType::default());
        let crc = payload_crc(&ack.words, ack.mtype);
        ack.e2e = Some(E2eHeader::ack(NodeId::from_index(receiver), psn, crc));
        if pending {
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
        self.meter.upsert(&mut self.rx[receiver], pr).ack_pending = true;
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
                .get(&pair(src, dst))
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

    /// A pump skipped past a due timer leaves it overdue for the next
    /// cycle; pumping on the due cycle re-stamps it.
    #[test]
    fn the_timer_check_catches_a_skipped_pump() {
        let cfg = DeliveryConfig {
            window: 4,
            timeout: 10,
            retransmit_limit: 2,
        };
        let mut d = Delivery::new(2, cfg, WireFormat::Compact);
        let mut m = data(1, 0);
        d.stamp(0, 1, &mut m);
        d.commit(0, 1, m, 0);
        d.check_timers(10).unwrap();
        let err = d.check_timers(11).unwrap_err();
        assert!(err.contains("flow 0->1 overdue"), "{err}");
        d.pump(10);
        d.check_timers(11).unwrap();
    }

    #[test]
    fn a_fired_timeout_looks_its_flow_up_once() {
        let k = 3;
        let mut d = Delivery::new(2, DeliveryConfig::default(), WireFormat::Compact);
        let mut sent = Vec::new();
        for tag in 0..k {
            let mut m = data(1, tag);
            d.stamp(0, 1, &mut m);
            d.commit(0, 1, m, 0);
            sent.push(m);
        }
        let before = d.scan_stats().flow_probes;
        d.fire_timeout(pair(0, 1), 50);
        assert_eq!(d.scan_stats().flow_probes - before, 1, "one lookup");
        assert_eq!(d.stats().retransmits, u64::from(k));
        for m in &sent {
            assert_eq!(d.outbox_front(0), Some(m), "copies requeue in order");
            d.outbox_pop(0);
        }
        assert!(d.outbox_front(0).is_none());
    }

    #[test]
    fn rx_state_is_evicted_when_it_returns_to_default() {
        let mut d = Delivery::new(2, DeliveryConfig::default(), WireFormat::Compact);
        // A gap arrival creates rx state only to carry the pending re-ack:
        // expected stays 0, so draining the ack returns the flow to its
        // default state and the entry is evicted.
        let mut m5 = data(1, 8);
        d.stamp_for_test(0, &mut m5, 5);
        d.on_consumed(1, &m5, 1);
        assert_eq!(d.scan_stats().active_flows, 1, "rx entry carries the ack");
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
        // The spent flow keeps its entry: its sequence numbering must
        // survive (a fresh entry would re-stamp psn 0 and corrupt the
        // receiver's duplicate horizon).
        assert_eq!(d.scan_stats().active_flows, 1, "tx entry survives abandon");
        let mut m2 = data(1, 1);
        d.stamp(0, 1, &mut m2);
        assert_eq!(m2.e2e.unwrap().psn, 1, "psn continues, not reset");
        // Fully acked flows keep their entry too.
        d.commit(0, 1, m2, cycle);
        let mut ack = Message::to(NodeId::from_index(0), [0; 5], MsgType::default());
        let crc = payload_crc(&ack.words, ack.mtype);
        ack.e2e = Some(E2eHeader::ack(NodeId::from_index(1), 2, crc));
        d.on_consumed(0, &ack, cycle + 1);
        assert!(!d.active(), "window fully acked");
        assert_eq!(d.scan_stats().active_flows, 1, "tx entry survives full ack");
        let mut m3 = data(1, 2);
        d.stamp(0, 1, &mut m3);
        assert_eq!(m3.e2e.unwrap().psn, 2, "psn continues after full ack");
    }

    /// The invariant check notices a flow whose `last_send` moved without
    /// its timer, a timer no flow owns, and a live-flow meter that
    /// disagrees with the maps.
    #[test]
    fn the_check_catches_a_timer_that_missed_its_flow() {
        let mut d = Delivery::new(2, DeliveryConfig::default(), WireFormat::Compact);
        let mut m = data(1, 0);
        d.stamp(0, 1, &mut m);
        d.commit(0, 1, m, 3);
        d.check_invariants().unwrap();
        d.tx[0].get_mut(&pair(0, 1)).unwrap().last_send = 9;
        let err = d.check_invariants().unwrap_err();
        assert!(err.contains("flow 0->1: 1 unacked, timer false"), "{err}");
        d.tx[0].get_mut(&pair(0, 1)).unwrap().last_send = 3;
        d.check_invariants().unwrap();
        d.timers.insert((5, pair(1, 0)));
        let err = d.check_invariants().unwrap_err();
        assert!(err.contains("2 timers for 1 timed flows"), "{err}");
        d.timers.remove(&(5, pair(1, 0)));
        d.meter.live += 1;
        let err = d.check_invariants().unwrap_err();
        assert!(err.contains("1 flows but live=2"), "{err}");
    }

    /// The timer set and the dense N²-flow scan must fire the
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
                d.check_timers(cycle + 1).unwrap();
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
