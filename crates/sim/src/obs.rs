//! Message-lifecycle observability: per-message spans, per-node rollups,
//! and a versioned JSON export (`tcni-trace/1`).
//!
//! The paper's evaluation is cycle *accounting* — Table 1 attributes every
//! SEND/DISPATCH/PROCESS cycle — and debugging the simulator at scale needs
//! the same discipline applied to messages: where did each one wait, and for
//! how long? When enabled (see [`Machine::enable_obs`](crate::Machine::enable_obs)),
//! the machine stamps every accepted injection with a sequence number and
//! correlates four stages per message:
//!
//! ```text
//!   enqueued ──────► injected ──────► delivered ──────► dispatched
//!        output queue       fabric transit      input queue
//!          residency                              residency
//! ```
//!
//! All stamps are global machine cycles under the convention documented on
//! [`TraceEvent`](crate::TraceEvent): `delivered - injected` equals the
//! fabric-accounted latency in `NetStats::total_latency`.
//!
//! Like tracing, the layer costs the stepping loop one branch per use site
//! when disabled (the machine holds it as an `Option`), no allocation per
//! message in the steady state beyond the bounded span ring, and is
//! bit-identical under the quiescence fast-forward.

use std::collections::{HashMap, VecDeque};
use std::fmt;

use tcni_core::NiStats;
use tcni_cpu::CpuStats;
use tcni_net::{LinkReport, NetStats};

use crate::delivery::DeliveryStats;

/// The lifecycle of one message, all stamps in global machine cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgSpan {
    /// The sequence number stamped at injection (dense, ascending in
    /// injection order across the whole machine).
    pub seq: u32,
    /// Sending node.
    pub src: usize,
    /// Receiving node.
    pub dst: usize,
    /// Cycle the message entered the sender's output queue.
    pub enqueued: u64,
    /// Cycle the fabric accepted the injection.
    pub injected: u64,
    /// First cycle the receiver could observe the message (see
    /// [`TraceEvent`](crate::TraceEvent) for the convention).
    pub delivered: u64,
    /// Cycle the receiver consumed the message (left the input queue and
    /// message registers), or `None` if it was diverted to the privileged
    /// queue instead of dispatched.
    pub dispatched: Option<u64>,
    /// Whether the interface diverted the message to the privileged queue
    /// (wrong PIN or privileged message, §2.1.3).
    pub diverted: bool,
}

impl MsgSpan {
    /// Cycles spent in the sender's output queue.
    pub fn out_queue_cycles(&self) -> u64 {
        self.injected - self.enqueued
    }

    /// Cycles spent in the fabric (equals this message's contribution to
    /// `NetStats::total_latency`).
    pub fn transit_cycles(&self) -> u64 {
        self.delivered - self.injected
    }

    /// Cycles spent in the receiver's input queue before dispatch, if it was
    /// dispatched.
    pub fn in_queue_cycles(&self) -> Option<u64> {
        self.dispatched.map(|d| d - self.delivered)
    }
}

/// Per-node message aggregates, maintained for *every* message (even when
/// the bounded span ring has had to drop individual records).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MsgCounters {
    /// Messages this node injected into the fabric.
    pub sent: u64,
    /// Messages delivered to this node's interface.
    pub received: u64,
    /// Delivered messages the software has consumed.
    pub dispatched: u64,
    /// Delivered messages diverted to the privileged queue.
    pub diverted: u64,
    /// Outgoing messages dropped because their destination does not exist.
    pub bad_dest: u64,
    /// Total cycles sent messages spent in this node's output queue.
    pub out_queue_cycles: u64,
    /// Total fabric-transit cycles of messages delivered here.
    pub transit_cycles: u64,
    /// Total input-queue residency of messages dispatched here.
    pub in_queue_cycles: u64,
}

/// A message mid-flight between stages, keyed by `seq`.
#[derive(Debug, Clone, Copy)]
struct Partial {
    src: usize,
    enqueued: u64,
    injected: u64,
    delivered: u64,
}

/// Sentinel `src` for arrivals with no lifecycle stamps: messages injected
/// before observability was enabled, or fault-layer duplicates of a seq that
/// already completed delivery (possible when no E2E layer absorbs them).
/// They occupy real input-queue slots, so the depth mirror must carry them,
/// but they produce no span and touch no rollup counter.
const UNTRACKED: usize = usize::MAX;

/// The observability collector the machine drives from its stepping loop.
///
/// Mirrors queue depths instead of reaching into the interfaces: every
/// transition a message can make (enqueue, inject, deliver, dispatch) shows
/// up as a depth change at a known phase of the cycle, so the collector
/// needs only lengths from the machine — no NI plumbing changes.
#[derive(Debug)]
pub struct Obs {
    next_seq: u32,
    capacity: usize,
    /// Completed spans, most recent retained (ring, like [`crate::Trace`]).
    spans: VecDeque<MsgSpan>,
    spans_dropped: u64,
    /// Per-node enqueue cycles of messages currently in the output queue.
    out_enq: Vec<VecDeque<u64>>,
    /// Mirror of each node's output-queue depth.
    out_depth: Vec<usize>,
    /// Messages inside the fabric, seq → stage stamps.
    in_fabric: HashMap<u32, Partial>,
    /// Per-node delivered-but-not-dispatched messages, FIFO.
    in_queue: Vec<VecDeque<(u32, Partial)>>,
    /// Mirror of each node's input depth (queue + message registers).
    in_depth: Vec<usize>,
    rollups: Vec<MsgCounters>,
}

impl Obs {
    /// Creates a collector for `nodes` nodes retaining at most `capacity`
    /// completed spans.
    pub fn new(nodes: usize, capacity: usize) -> Obs {
        Obs {
            next_seq: 0,
            capacity,
            spans: VecDeque::with_capacity(capacity.min(4096)),
            spans_dropped: 0,
            out_enq: vec![VecDeque::new(); nodes],
            out_depth: vec![0; nodes],
            in_fabric: HashMap::new(),
            in_queue: vec![VecDeque::new(); nodes],
            in_depth: vec![0; nodes],
            rollups: vec![MsgCounters::default(); nodes],
        }
    }

    /// The sequence number the next accepted injection will carry.
    pub fn peek_seq(&self) -> u32 {
        self.next_seq
    }

    /// Completed spans, oldest retained first.
    pub fn spans(&self) -> impl ExactSizeIterator<Item = &MsgSpan> {
        self.spans.iter()
    }

    /// Completed spans evicted from the ring to stay within capacity.
    pub fn spans_dropped(&self) -> u64 {
        self.spans_dropped
    }

    /// Messages still between stages (in an output queue, the fabric, or an
    /// input queue) — their spans are not complete.
    pub fn spans_open(&self) -> u64 {
        (self.out_enq.iter().map(VecDeque::len).sum::<usize>()
            + self.in_fabric.len()
            + self.in_queue.iter().map(VecDeque::len).sum::<usize>()) as u64
    }

    /// Per-node message aggregates.
    pub fn rollups(&self) -> &[MsgCounters] {
        &self.rollups
    }

    fn finish(&mut self, span: MsgSpan) {
        if self.capacity == 0 {
            self.spans_dropped += 1;
            return;
        }
        if self.spans.len() >= self.capacity {
            self.spans.pop_front();
            self.spans_dropped += 1;
        }
        self.spans.push_back(span);
    }

    /// Called after a node's CPU phase with its current queue depths:
    /// depth increases on the output side are enqueues (stamped now), depth
    /// decreases on the input side are dispatches (completing spans).
    pub(crate) fn after_cpu_node(
        &mut self,
        node: usize,
        out_len: usize,
        in_depth: usize,
        cycle: u64,
    ) {
        while self.out_depth[node] < out_len {
            self.out_enq[node].push_back(cycle);
            self.out_depth[node] += 1;
        }
        debug_assert!(
            self.out_depth[node] == out_len,
            "output queue shrank outside inject"
        );
        while self.in_depth[node] > in_depth {
            self.in_depth[node] -= 1;
            if let Some((seq, p)) = self.in_queue[node].pop_front() {
                if p.src == UNTRACKED {
                    continue; // depth mirror only; no stamps to account
                }
                let m = &mut self.rollups[node];
                m.dispatched += 1;
                m.in_queue_cycles += cycle - p.delivered;
                self.finish(MsgSpan {
                    seq,
                    src: p.src,
                    dst: node,
                    enqueued: p.enqueued,
                    injected: p.injected,
                    delivered: p.delivered,
                    dispatched: Some(cycle),
                    diverted: false,
                });
            }
        }
        debug_assert!(
            self.in_depth[node] == in_depth,
            "input queue grew outside delivery"
        );
    }

    /// Called when the fabric accepted the injection of the message stamped
    /// `seq` from `node` during cycle `cycle`.
    pub(crate) fn on_inject(&mut self, node: usize, seq: u32, cycle: u64) {
        debug_assert_eq!(seq, self.next_seq);
        self.next_seq = self.next_seq.wrapping_add(1);
        let enqueued = self.out_enq[node].pop_front().unwrap_or(cycle);
        self.out_depth[node] = self.out_depth[node].saturating_sub(1);
        let m = &mut self.rollups[node];
        m.sent += 1;
        m.out_queue_cycles += cycle - enqueued;
        self.in_fabric.insert(
            seq,
            Partial {
                src: node,
                enqueued,
                injected: cycle,
                delivered: 0,
            },
        );
    }

    /// Called when `node`'s oldest outgoing message was dropped because its
    /// destination does not exist on the fabric.
    pub(crate) fn on_bad_dest(&mut self, node: usize) {
        self.out_enq[node].pop_front();
        self.out_depth[node] = self.out_depth[node].saturating_sub(1);
        self.rollups[node].bad_dest += 1;
    }

    /// Called when the message stamped `seq` entered `node`'s interface.
    /// `delivered` is the stamp cycle (the cycle *after* the one whose phase
    /// performed the hand-off); `diverted` whether the interface routed it to
    /// the privileged queue instead of the input queue.
    pub(crate) fn on_deliver(&mut self, node: usize, seq: u32, delivered: u64, diverted: bool) {
        let Some(mut p) = self.in_fabric.remove(&seq) else {
            // Untracked arrival (see [`UNTRACKED`]): it still consumes a real
            // input-queue slot, so mirror the depth; diverted copies never
            // touch the input queue, so there is nothing to mirror.
            if !diverted {
                self.in_queue[node].push_back((
                    seq,
                    Partial {
                        src: UNTRACKED,
                        enqueued: 0,
                        injected: 0,
                        delivered,
                    },
                ));
                self.in_depth[node] += 1;
            }
            return;
        };
        p.delivered = delivered;
        let m = &mut self.rollups[node];
        m.received += 1;
        m.transit_cycles += delivered - p.injected;
        if diverted {
            m.diverted += 1;
            self.finish(MsgSpan {
                seq,
                src: p.src,
                dst: node,
                enqueued: p.enqueued,
                injected: p.injected,
                delivered,
                dispatched: None,
                diverted: true,
            });
        } else {
            self.in_queue[node].push_back((seq, p));
            self.in_depth[node] += 1;
        }
    }
}

/// One node's line in an [`ObsReport`]: CPU counters, interface counters,
/// and message aggregates, joined.
#[derive(Debug, Clone, Copy)]
pub struct NodeRollup {
    /// Node index.
    pub node: usize,
    /// Processor counters (cycles, instructions, stall attribution).
    pub cpu: CpuStats,
    /// Interface counters (sends, receives, queue high-water marks).
    pub ni: NiStats,
    /// Message-lifecycle aggregates from the observability layer.
    pub msgs: MsgCounters,
}

/// A complete observability snapshot — the payload of the `tcni-trace/1`
/// JSON artifact and the human-readable summary.
#[derive(Debug, Clone)]
pub struct ObsReport {
    /// Elapsed global cycles at snapshot time.
    pub cycles: u64,
    /// Fabric kind: `"ideal"` or `"mesh"`.
    pub fabric: &'static str,
    /// Aggregate network statistics (histogram included).
    pub net: NetStats,
    /// Per-link mesh counters (empty on the ideal fabric).
    pub links: Vec<LinkReport>,
    /// Per-node rollups.
    pub nodes: Vec<NodeRollup>,
    /// Completed message spans (bounded; see `spans_dropped`).
    pub spans: Vec<MsgSpan>,
    /// Spans evicted from the bounded ring.
    pub spans_dropped: u64,
    /// Messages still between stages at snapshot time.
    pub spans_open: u64,
    /// Events evicted from the [`Trace`](crate::Trace) ring (`0` when the
    /// trace is complete, or when tracing is disabled).
    pub trace_dropped: u64,
    /// End-to-end delivery protocol counters, when the protocol is enabled.
    pub delivery: Option<DeliveryStats>,
}

/// The schema identifier embedded in the JSON export.
pub const TRACE_SCHEMA: &str = "tcni-trace/1";

fn push_num(out: &mut String, v: u64) {
    out.push_str(&v.to_string());
}

impl ObsReport {
    /// Serializes the snapshot as a `tcni-trace/1` JSON document.
    ///
    /// Hand-rolled (the workspace is dependency-free); the format is stable:
    /// consumers should check the `schema` field first.
    pub fn to_json(&self) -> String {
        let mut o = String::with_capacity(4096 + self.spans.len() * 96);
        o.push_str("{\n  \"schema\": \"");
        o.push_str(TRACE_SCHEMA);
        o.push_str("\",\n  \"cycles\": ");
        push_num(&mut o, self.cycles);
        o.push_str(",\n  \"fabric\": \"");
        o.push_str(self.fabric);
        o.push_str("\",\n  \"net\": {");
        o.push_str("\"injected\": ");
        push_num(&mut o, self.net.injected);
        o.push_str(", \"delivered\": ");
        push_num(&mut o, self.net.delivered);
        o.push_str(", \"inject_refusals\": ");
        push_num(&mut o, self.net.inject_refusals);
        o.push_str(", \"bad_dest\": ");
        push_num(&mut o, self.net.bad_dest);
        o.push_str(", \"total_latency\": ");
        push_num(&mut o, self.net.total_latency);
        o.push_str(", \"blocked_hops\": ");
        push_num(&mut o, self.net.blocked_hops);
        o.push_str(", \"in_flight_hwm\": ");
        push_num(&mut o, self.net.in_flight_hwm as u64);
        // Injected fault counts, distinct from `bad_dest`: a fault drop is a
        // deliverable message the fabric lost, not an unroutable one.
        o.push_str(", \"faults\": {\"dropped\": ");
        push_num(&mut o, self.net.faults.dropped);
        o.push_str(", \"duplicated\": ");
        push_num(&mut o, self.net.faults.duplicated);
        o.push_str(", \"corrupted\": ");
        push_num(&mut o, self.net.faults.corrupted);
        o.push_str(", \"stalls\": ");
        push_num(&mut o, self.net.faults.stalls);
        o.push_str("}, \"latency_hist\": {\"bucket_lo\": [");
        for i in 0..tcni_net::LatencyHist::BUCKETS {
            if i > 0 {
                o.push_str(", ");
            }
            push_num(&mut o, tcni_net::LatencyHist::bounds(i).0);
        }
        o.push_str("], \"counts\": [");
        for (i, &c) in self.net.latency_hist.buckets().iter().enumerate() {
            if i > 0 {
                o.push_str(", ");
            }
            push_num(&mut o, c);
        }
        o.push(']');
        for (label, pct) in [("p50", 50), ("p95", 95), ("p99", 99)] {
            o.push_str(", \"");
            o.push_str(label);
            o.push_str("\": ");
            match self.net.latency_hist.percentile(pct) {
                Some(v) => push_num(&mut o, v),
                None => o.push_str("null"),
            }
        }
        // Hot-set scheduler effort meters (channel + flow scans merged).
        o.push_str("}, \"scan\": {\"scanned_channels\": ");
        push_num(&mut o, self.net.scan.scanned_channels);
        o.push_str(", \"scanned_flows\": ");
        push_num(&mut o, self.net.scan.scanned_flows);
        o.push_str(", \"skipped_work\": ");
        push_num(&mut o, self.net.scan.skipped_work);
        o.push_str(", \"active_flows\": ");
        push_num(&mut o, self.net.scan.active_flows);
        o.push_str(", \"peak_flows\": ");
        push_num(&mut o, self.net.scan.peak_flows);
        o.push_str(", \"flow_probes\": ");
        push_num(&mut o, self.net.scan.flow_probes);
        o.push_str("}},\n  \"links\": [");
        for (i, l) in self.links.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str("\n    {\"node\": ");
            push_num(&mut o, l.node as u64);
            o.push_str(", \"dir\": \"");
            o.push_str(l.dir);
            o.push_str("\", \"hwm\": ");
            push_num(&mut o, l.stats.hwm as u64);
            o.push_str(", \"blocked\": ");
            push_num(&mut o, l.stats.blocked);
            o.push('}');
        }
        if !self.links.is_empty() {
            o.push_str("\n  ");
        }
        o.push_str("],\n  \"nodes\": [");
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str("\n    {\"node\": ");
            push_num(&mut o, n.node as u64);
            o.push_str(", \"cpu\": {\"cycles\": ");
            push_num(&mut o, n.cpu.cycles);
            o.push_str(", \"instructions\": ");
            push_num(&mut o, n.cpu.instructions);
            o.push_str(", \"operand_stalls\": ");
            push_num(&mut o, n.cpu.operand_stalls);
            o.push_str(", \"env_stalls\": ");
            push_num(&mut o, n.cpu.env_stalls);
            o.push_str("}, \"ni\": {\"sends\": ");
            push_num(&mut o, n.ni.sends);
            o.push_str(", \"scroll_outs\": ");
            push_num(&mut o, n.ni.scroll_outs);
            o.push_str(", \"receives\": ");
            push_num(&mut o, n.ni.receives);
            o.push_str(", \"send_stalls\": ");
            push_num(&mut o, n.ni.send_stalls);
            o.push_str(", \"overflows\": ");
            push_num(&mut o, n.ni.overflows);
            o.push_str(", \"diverted\": ");
            push_num(&mut o, n.ni.diverted);
            o.push_str(", \"input_hwm\": ");
            push_num(&mut o, n.ni.input_hwm as u64);
            o.push_str(", \"output_hwm\": ");
            push_num(&mut o, n.ni.output_hwm as u64);
            o.push_str("}, \"msgs\": {\"sent\": ");
            push_num(&mut o, n.msgs.sent);
            o.push_str(", \"received\": ");
            push_num(&mut o, n.msgs.received);
            o.push_str(", \"dispatched\": ");
            push_num(&mut o, n.msgs.dispatched);
            o.push_str(", \"diverted\": ");
            push_num(&mut o, n.msgs.diverted);
            o.push_str(", \"bad_dest\": ");
            push_num(&mut o, n.msgs.bad_dest);
            o.push_str(", \"out_queue_cycles\": ");
            push_num(&mut o, n.msgs.out_queue_cycles);
            o.push_str(", \"transit_cycles\": ");
            push_num(&mut o, n.msgs.transit_cycles);
            o.push_str(", \"in_queue_cycles\": ");
            push_num(&mut o, n.msgs.in_queue_cycles);
            o.push_str("}}");
        }
        if !self.nodes.is_empty() {
            o.push_str("\n  ");
        }
        o.push_str("],\n  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str("\n    {\"seq\": ");
            push_num(&mut o, u64::from(s.seq));
            o.push_str(", \"src\": ");
            push_num(&mut o, s.src as u64);
            o.push_str(", \"dst\": ");
            push_num(&mut o, s.dst as u64);
            o.push_str(", \"enqueued\": ");
            push_num(&mut o, s.enqueued);
            o.push_str(", \"injected\": ");
            push_num(&mut o, s.injected);
            o.push_str(", \"delivered\": ");
            push_num(&mut o, s.delivered);
            o.push_str(", \"dispatched\": ");
            match s.dispatched {
                Some(d) => push_num(&mut o, d),
                None => o.push_str("null"),
            }
            o.push_str(", \"diverted\": ");
            o.push_str(if s.diverted { "true" } else { "false" });
            o.push('}');
        }
        if !self.spans.is_empty() {
            o.push_str("\n  ");
        }
        o.push_str("],\n  \"spans_dropped\": ");
        push_num(&mut o, self.spans_dropped);
        o.push_str(",\n  \"spans_open\": ");
        push_num(&mut o, self.spans_open);
        o.push_str(",\n  \"trace_dropped\": ");
        push_num(&mut o, self.trace_dropped);
        if let Some(d) = &self.delivery {
            o.push_str(",\n  \"delivery\": {\"accepted\": ");
            push_num(&mut o, d.accepted);
            o.push_str(", \"retransmits\": ");
            push_num(&mut o, d.retransmits);
            o.push_str(", \"timeout_rounds\": ");
            push_num(&mut o, d.timeout_rounds);
            o.push_str(", \"acks_sent\": ");
            push_num(&mut o, d.acks_sent);
            o.push_str(", \"acks_coalesced\": ");
            push_num(&mut o, d.acks_coalesced);
            o.push_str(", \"acks_received\": ");
            push_num(&mut o, d.acks_received);
            o.push_str(", \"delivered_unique\": ");
            push_num(&mut o, d.delivered_unique);
            o.push_str(", \"dup_suppressed\": ");
            push_num(&mut o, d.dup_suppressed);
            o.push_str(", \"out_of_order_dropped\": ");
            push_num(&mut o, d.out_of_order_dropped);
            o.push_str(", \"corrupt_dropped\": ");
            push_num(&mut o, d.corrupt_dropped);
            o.push_str(", \"abandoned\": ");
            push_num(&mut o, d.abandoned);
            o.push('}');
        }
        o.push_str("\n}\n");
        o
    }
}

impl fmt::Display for ObsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "observability snapshot @ cycle {} ({} fabric)",
            self.cycles, self.fabric
        )?;
        writeln!(f, "  {}", self.net)?;
        write!(f, "  {}", self.net.latency_hist)?;
        writeln!(
            f,
            "  {:>4} {:>8} {:>8} {:>10} {:>10} {:>10} {:>10}",
            "node", "sent", "recvd", "out-queue", "transit", "in-queue", "env-stall"
        )?;
        for n in &self.nodes {
            writeln!(
                f,
                "  {:>4} {:>8} {:>8} {:>10} {:>10} {:>10} {:>10}",
                n.node,
                n.msgs.sent,
                n.msgs.received,
                n.msgs.out_queue_cycles,
                n.msgs.transit_cycles,
                n.msgs.in_queue_cycles,
                n.cpu.env_stalls,
            )?;
        }
        if !self.links.is_empty() {
            let mut hot: Vec<&LinkReport> = self.links.iter().filter(|l| l.stats.hwm > 0).collect();
            hot.sort_by_key(|l| std::cmp::Reverse((l.stats.blocked, l.stats.hwm)));
            writeln!(f, "  busiest links (hwm/blocked):")?;
            for l in hot.iter().take(8) {
                writeln!(
                    f,
                    "    n{:<3} {:<6} hwm={} blocked={}",
                    l.node, l.dir, l.stats.hwm, l.stats.blocked
                )?;
            }
        }
        writeln!(
            f,
            "  spans: {} recorded, {} dropped, {} open",
            self.spans.len(),
            self.spans_dropped,
            self.spans_open
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_arithmetic() {
        let s = MsgSpan {
            seq: 0,
            src: 0,
            dst: 1,
            enqueued: 2,
            injected: 5,
            delivered: 9,
            dispatched: Some(12),
            diverted: false,
        };
        assert_eq!(s.out_queue_cycles(), 3);
        assert_eq!(s.transit_cycles(), 4);
        assert_eq!(s.in_queue_cycles(), Some(3));
    }

    #[test]
    fn collector_tracks_a_lifecycle() {
        let mut obs = Obs::new(2, 16);
        // Cycle 3: node 0's CPU enqueues one message.
        obs.after_cpu_node(0, 1, 0, 3);
        assert_eq!(obs.spans_open(), 1);
        // Cycle 4: injection accepted.
        assert_eq!(obs.peek_seq(), 0);
        obs.on_inject(0, 0, 4);
        // Cycle 7 stamp: delivered into node 1's input queue.
        obs.on_deliver(1, 0, 7, false);
        // Cycle 9: node 1's CPU consumes it.
        obs.after_cpu_node(1, 0, 0, 9);
        assert_eq!(obs.spans_open(), 0);
        let spans: Vec<_> = obs.spans().copied().collect();
        assert_eq!(spans.len(), 1);
        let s = spans[0];
        assert_eq!(
            (s.enqueued, s.injected, s.delivered, s.dispatched),
            (3, 4, 7, Some(9))
        );
        let m = obs.rollups()[0];
        assert_eq!(m.sent, 1);
        assert_eq!(m.out_queue_cycles, 1);
        let m = obs.rollups()[1];
        assert_eq!((m.received, m.dispatched), (1, 1));
        assert_eq!(m.transit_cycles, 3);
        assert_eq!(m.in_queue_cycles, 2);
    }

    #[test]
    fn diverted_delivery_completes_without_dispatch() {
        let mut obs = Obs::new(1, 16);
        obs.after_cpu_node(0, 1, 0, 0);
        obs.on_inject(0, 0, 0);
        obs.on_deliver(0, 0, 1, true);
        assert_eq!(obs.spans_open(), 0);
        let s = *obs.spans().next().unwrap();
        assert!(s.diverted);
        assert_eq!(s.dispatched, None);
        assert_eq!(obs.rollups()[0].diverted, 1);
    }

    #[test]
    fn span_ring_keeps_most_recent() {
        let mut obs = Obs::new(1, 2);
        for i in 0..4u64 {
            obs.after_cpu_node(0, 1, 0, i);
            obs.on_inject(0, obs.peek_seq(), i);
            obs.on_deliver(0, i as u32, i + 1, true);
        }
        assert_eq!(obs.spans_dropped(), 2);
        let seqs: Vec<u32> = obs.spans().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![2, 3]);
    }

    #[test]
    fn report_json_is_versioned() {
        let report = ObsReport {
            cycles: 10,
            fabric: "ideal",
            net: NetStats::default(),
            links: Vec::new(),
            nodes: Vec::new(),
            spans: Vec::new(),
            spans_dropped: 0,
            spans_open: 0,
            trace_dropped: 3,
            delivery: None,
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"tcni-trace/1\""), "{json}");
        assert!(
            json.contains(
                "\"faults\": {\"dropped\": 0, \"duplicated\": 0, \"corrupted\": 0, \"stalls\": 0}"
            ),
            "{json}"
        );
        assert!(
            !json.contains("\"delivery\""),
            "absent when protocol is off"
        );
        assert!(json.contains("\"bucket_lo\": [0, 1, 2, 4, 8"), "{json}");
        // Percentiles of an empty histogram export as null, not fake zeros.
        assert!(json.contains("\"p50\": null, \"p95\": null, \"p99\": null"));
        assert!(json.contains("\"trace_dropped\": 3"), "{json}");
        assert!(!report.to_string().is_empty());
    }

    #[test]
    fn report_json_percentiles_follow_the_histogram() {
        let mut net = NetStats::default();
        for lat in [1, 1, 2, 5, 9] {
            net.latency_hist.record(lat);
        }
        let report = ObsReport {
            cycles: 1,
            fabric: "ideal",
            net,
            links: Vec::new(),
            nodes: Vec::new(),
            spans: Vec::new(),
            spans_dropped: 0,
            spans_open: 0,
            trace_dropped: 0,
            delivery: Some(DeliveryStats {
                accepted: 7,
                delivered_unique: 7,
                ..DeliveryStats::default()
            }),
        };
        let json = report.to_json();
        assert!(json.contains("\"p50\": 3"), "{json}");
        assert!(json.contains("\"p99\": 15"), "{json}");
        assert!(json.contains("\"delivery\": {\"accepted\": 7,"), "{json}");
        assert!(json.contains("\"delivered_unique\": 7"), "{json}");
    }
}
