//! Open- and closed-loop traffic injectors.
//!
//! An [`Injector`] is a [`CycleDriver`]: it plays the role of every node's
//! processor, driving the network interfaces through their architected API
//! (`write_reg` the O-registers, SEND; `msg_valid`/`read_reg`/NEXT on the
//! receive side) rather than reaching into the queues. Backpressure is
//! therefore the real thing — a full output queue refuses the send and the
//! message waits in the injector's bounded backlog.
//!
//! Two load models:
//!
//! * **Open loop** ([`LoopMode::Open`]): each node *offers* messages at a
//!   fixed rate (per-mille of a message per cycle), independent of how the
//!   machine is coping — the load model for saturation sweeps. Offers that
//!   find the backlog full are *shed* and counted, never silently dropped
//!   and never a panic.
//! * **Closed loop** ([`LoopMode::Closed`]): each node keeps up to `window`
//!   request/reply exchanges outstanding; a new request is generated only
//!   when a slot is free, so the network's own round-trip time throttles the
//!   offered load (the self-limiting regime of §2.1.1's stall policy).
//!
//! The injector also models the *processor occupancy* of messaging, per §4
//! model, using the paper's Table-1 costs (see [`ServiceCosts`]): a node
//! that just issued a 2-word SEND on the basic off-chip interface is busy
//! for its published cost and can neither send nor receive meanwhile. This
//! is what makes the six models separate in a synthetic sweep: cheaper
//! interfaces sustain higher per-node message rates before the processor
//! itself becomes the bottleneck.
//!
//! # Visiting only the nodes with work
//!
//! Under [`Machine::run_driven`](tcni_sim::Machine::run_driven) the injector
//! follows the [activity contract](tcni_sim::Activity): each cycle it visits
//! the nodes with input waiting (the machine's pending list) plus the nodes
//! a due-cycle calendar names, and reports the nodes it sent on. A node
//! needs a visit only when its state can change:
//!
//! * its open-loop accumulator reaches the next offer — computable, because
//!   the accumulator is integer arithmetic: `⌈(1000 − acc) / rate⌉` calls
//!   ahead;
//! * its backlog is non-empty and the processor is free (`busy_until`), or
//!   a SEND stalled on a full output queue (retried next cycle);
//! * a closed-loop window has room (a reply reopened it, or it is still
//!   filling: next cycle).
//!
//! Between visits a node's accumulator is caught up arithmetically, so
//! offers, destination draws, and shedding happen on exactly the calls they
//! would under a visit-every-node loop. Accrual counts driver calls, as it
//! always has; any break in the cycle sequence (`run` or `step` between
//! driven chunks, a fresh machine) and any call through plain
//! [`on_cycle`](CycleDriver::on_cycle) make the next active call visit every
//! node and rebuild the calendar, so mixing the entry points stays exact.

use std::collections::VecDeque;
use std::fmt;

use tcni_check::Rng;
use tcni_core::{InterfaceReg, MsgType, NetworkInterface, NodeId, SendMode, WireFormat};
use tcni_eval::paper;
use tcni_sim::{Activity, CycleDriver, Model, Node};

use crate::pattern::{Pattern, Topology};

/// Message-kind tag carried in the low bits of word 0 (the high bits are
/// the destination, per [`tcni_core::NodeId::into_word_bits`] — 8 of them
/// under the compact wire format, 16 under the wide one).
const KIND_ONEWAY: u32 = 1;
/// A closed-loop request; the receiver generates a [`KIND_REPLY`].
const KIND_REQUEST: u32 = 2;
/// A closed-loop reply; completes one outstanding exchange at the requester.
const KIND_REPLY: u32 = 3;
const KIND_MASK: u32 = 0xF;

/// The load model an [`Injector`] applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopMode {
    /// Fixed offered rate: each node offers `rate_pm` messages per 1000
    /// cycles (an integer accumulator — no floating point anywhere in the
    /// load path).
    Open {
        /// Offered rate in messages per mille cycles per node (`0..=1000`).
        rate_pm: u32,
    },
    /// Reply-driven: each node keeps at most `window` request/reply pairs
    /// outstanding.
    Closed {
        /// Per-node outstanding-exchange limit (≥ 1).
        window: u32,
    },
}

/// Per-node processor occupancy of messaging, in cycles, derived from the
/// paper's published Table 1 for the chosen §4 model.
///
/// `send` is the 2-word SEND cost (range midpoint, rounded); `recv` is
/// dispatch plus the 2-word message handler's processing cost. One shared
/// busy budget covers both directions — the node is a single processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceCosts {
    /// Cycles a node is busy after issuing one send.
    pub send: u64,
    /// Cycles a node is busy after consuming one message.
    pub recv: u64,
}

impl ServiceCosts {
    /// The costs for one of the six §4 models, from the published Table 1.
    pub fn for_model(model: Model) -> ServiceCosts {
        let idx = Model::ALL_SIX
            .iter()
            .position(|m| *m == model)
            .expect("every model is one of the six");
        let costs = paper::published()[idx];
        ServiceCosts {
            // Exact small integers through f64; `mid` of (2,4) is 3.0.
            send: costs.send[2].mid().round() as u64,
            recv: u64::from(costs.dispatch + costs.proc_send[2]),
        }
    }

    /// Unit costs — every action takes one cycle; makes the injector a pure
    /// fabric stressor with no processor model.
    pub fn unit() -> ServiceCosts {
        ServiceCosts { send: 1, recv: 1 }
    }
}

/// Aggregate injector counters (whole machine, since construction).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectCounters {
    /// Messages the load model generated (open: rate accrual; closed: window
    /// openings). Replies are not offers.
    pub offered: u64,
    /// Offers dropped because the per-node backlog was full (open loop only;
    /// closed loop never generates without capacity).
    pub shed: u64,
    /// Messages accepted by an interface SEND (includes replies).
    pub issued: u64,
    /// Messages consumed at receivers via NEXT (includes replies).
    pub consumed: u64,
    /// Replies generated by receivers (closed loop).
    pub replies: u64,
    /// Request/reply round trips completed at the requester (closed loop).
    pub completed: u64,
}

/// One queued-but-not-yet-sent message: the two words the send path writes
/// into O0/O1.
#[derive(Debug, Clone, Copy)]
struct Pending {
    w0: u32,
    w1: u32,
}

/// Per-node injector state.
#[derive(Debug)]
struct NodeState {
    /// Independent SplitMix64 stream — destination draws on one node never
    /// perturb another node's sequence, so results are independent of node
    /// evaluation order.
    rng: Rng,
    /// Open-loop rate accumulator, in per-mille of a message.
    acc: u32,
    /// First cycle the node's processor is free again.
    busy_until: u64,
    /// Generated messages waiting for the interface to accept them.
    /// Replies go to the front: servicing existing exchanges before opening
    /// new ones keeps closed-loop traffic deadlock-free.
    backlog: VecDeque<Pending>,
    /// Closed loop: exchanges generated and not yet completed by a reply.
    outstanding: u32,
    /// The driver call whose accrual `acc` includes.
    seen: u64,
    /// The cycle the calendar next visits this node at ([`NEVER`]: none).
    due: u64,
}

/// `NodeState::due` of a node with nothing scheduled.
const NEVER: u64 = u64::MAX;

/// Buckets of the due-cycle wheel (a power of two). A node due further
/// ahead than one turn stays in its bucket until its turn comes round.
const WHEEL: usize = 1024;

/// Why an [`InjectorConfig`] cannot drive a machine (see
/// [`Injector::try_new`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectorError {
    /// The destination pattern is not defined on the node grid (transpose
    /// on a non-square grid, or any pattern on a one-node grid).
    UnsupportedPattern {
        /// The pattern's [`key`](Pattern::key).
        pattern: &'static str,
        /// Grid width.
        width: usize,
        /// Grid height.
        height: usize,
    },
    /// The per-node backlog bound is zero.
    ZeroBacklog,
    /// The open-loop rate exceeds 1000 per mille.
    RateTooHigh {
        /// The configured rate.
        rate_pm: u32,
    },
    /// The closed-loop window is zero.
    ZeroWindow,
}

impl fmt::Display for InjectorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            InjectorError::UnsupportedPattern {
                pattern,
                width,
                height,
            } => write!(f, "{pattern} does not support a {width}x{height} grid"),
            InjectorError::ZeroBacklog => write!(f, "backlog bound must be >= 1"),
            InjectorError::RateTooHigh { rate_pm } => {
                write!(f, "open-loop rate is per-mille: 0..=1000 ({rate_pm} given)")
            }
            InjectorError::ZeroWindow => write!(f, "closed-loop window must be >= 1"),
        }
    }
}

impl std::error::Error for InjectorError {}

/// Configuration for an [`Injector`].
#[derive(Debug, Clone, Copy)]
pub struct InjectorConfig {
    /// Destination pattern.
    pub pattern: Pattern,
    /// Node grid.
    pub topo: Topology,
    /// Load model.
    pub mode: LoopMode,
    /// Master seed; each node derives an independent stream from it.
    pub seed: u64,
    /// Per-node backlog bound (open loop sheds beyond it). Must be ≥ 1.
    pub backlog_limit: usize,
    /// Processor occupancy per message action.
    pub costs: ServiceCosts,
    /// Wire format the injector encodes destinations in. Must match the
    /// machine's format (the builder auto-selects the smallest format that
    /// fits the node count, and so does [`InjectorConfig::new`]).
    pub format: WireFormat,
}

impl InjectorConfig {
    /// A reasonable default configuration for the given pattern, topology
    /// and load mode: seed 1, backlog 16, unit service costs.
    pub fn new(pattern: Pattern, topo: Topology, mode: LoopMode) -> InjectorConfig {
        InjectorConfig {
            pattern,
            topo,
            mode,
            seed: 1,
            backlog_limit: 16,
            costs: ServiceCosts::unit(),
            format: WireFormat::for_nodes(topo.nodes()).expect("Topology bounds the node count"),
        }
    }
}

/// The synthetic traffic driver. See the module docs for the load models
/// and for how it visits only the nodes with work.
#[derive(Debug)]
pub struct Injector {
    config: InjectorConfig,
    state: Vec<NodeState>,
    counters: InjectCounters,
    mtype: MsgType,
    /// Driver calls so far: the open-loop accrual clock.
    calls: u64,
    /// The cycle of the previous call.
    last_cycle: Option<u64>,
    /// The due-cycle wheel: bucket `c % WHEEL` lists nodes whose `due` may
    /// be `c` (stale entries are dropped when their bucket comes round).
    wheel: Vec<Vec<u32>>,
    /// Whether every node's `due` is in the wheel (false after a visit
    /// through plain `on_cycle`, which keeps no calendar).
    wheel_valid: bool,
    /// The nodes to visit this cycle.
    visit: VisitSet,
}

impl Injector {
    /// Creates an injector for every node of `config.topo`.
    ///
    /// # Panics
    ///
    /// Panics if the pattern does not support the topology, the backlog
    /// bound is zero, or the load parameters are out of range (see
    /// [`try_new`](Self::try_new) for the fallible form).
    pub fn new(config: InjectorConfig) -> Injector {
        match Injector::try_new(config) {
            Ok(inj) => inj,
            Err(e) => panic!("{e}"),
        }
    }

    /// Creates an injector for every node of `config.topo`, rejecting an
    /// unusable configuration with a typed error instead of panicking.
    ///
    /// # Errors
    ///
    /// [`InjectorError::UnsupportedPattern`] if the pattern does not support
    /// the topology, [`InjectorError::ZeroBacklog`] for a zero backlog
    /// bound, [`InjectorError::RateTooHigh`] for an open-loop rate above
    /// 1000‰, [`InjectorError::ZeroWindow`] for a zero closed-loop window.
    pub fn try_new(config: InjectorConfig) -> Result<Injector, InjectorError> {
        if !config.pattern.supports(&config.topo) {
            return Err(InjectorError::UnsupportedPattern {
                pattern: config.pattern.key(),
                width: config.topo.width,
                height: config.topo.height,
            });
        }
        if config.backlog_limit == 0 {
            return Err(InjectorError::ZeroBacklog);
        }
        match config.mode {
            LoopMode::Open { rate_pm } if rate_pm > 1000 => {
                return Err(InjectorError::RateTooHigh { rate_pm });
            }
            LoopMode::Closed { window: 0 } => return Err(InjectorError::ZeroWindow),
            _ => {}
        }
        let nodes = config.topo.nodes();
        let state = (0..nodes)
            .map(|i| NodeState {
                rng: Rng::new(node_seed(config.seed, i)),
                acc: 0,
                busy_until: 0,
                backlog: VecDeque::new(),
                outstanding: 0,
                seen: 0,
                due: NEVER,
            })
            .collect();
        Ok(Injector {
            config,
            state,
            counters: InjectCounters::default(),
            mtype: MsgType::new(2).expect("type 2 is a plain message type"),
            calls: 0,
            last_cycle: None,
            wheel: vec![Vec::new(); WHEEL],
            wheel_valid: false,
            visit: VisitSet::new(nodes),
        })
    }

    /// Aggregate counters since construction.
    pub fn counters(&self) -> InjectCounters {
        self.counters
    }

    /// Messages currently waiting in injector backlogs (whole machine) —
    /// the generator-side component of queue residency.
    pub fn backlog(&self) -> u64 {
        self.state.iter().map(|s| s.backlog.len() as u64).sum()
    }

    /// Closed loop: exchanges currently outstanding (whole machine).
    pub fn outstanding(&self) -> u64 {
        self.state.iter().map(|s| u64::from(s.outstanding)).sum()
    }

    /// Consumes the message in the input registers and reacts to its kind.
    /// Returns the node's new busy cost.
    fn receive(&mut self, i: usize, ni: &mut NetworkInterface) -> u64 {
        let w0 = ni.read_reg(InterfaceReg::I0).expect("I0 readable");
        let w1 = ni.read_reg(InterfaceReg::I1).expect("I1 readable");
        ni.next();
        self.counters.consumed += 1;
        match w0 & KIND_MASK {
            KIND_REQUEST => {
                // Reply to the requester (its index rode in word 1). Front
                // of the backlog: replies outrank new traffic.
                let dest = NodeId::from_index(w1 as usize);
                self.counters.replies += 1;
                self.state[i].backlog.push_front(Pending {
                    w0: dest.into_word_bits(self.config.format) | KIND_REPLY,
                    w1: i as u32,
                });
            }
            KIND_REPLY => {
                let st = &mut self.state[i];
                debug_assert!(st.outstanding > 0, "reply without a request");
                st.outstanding = st.outstanding.saturating_sub(1);
                self.counters.completed += 1;
            }
            _ => {} // one-way traffic: consuming it is the whole job
        }
        self.config.costs.recv
    }

    /// One cycle of one node. The node performs at most one costed action:
    /// receive (first priority), or hand the oldest backlog entry to the
    /// interface. Generation is bookkeeping, not a costed action — offered
    /// load accrues even while the processor is busy, which is what "open
    /// loop" means. Returns whether the node sent.
    fn node_cycle(&mut self, i: usize, cycle: u64, node: &mut Node) -> bool {
        // Generate.
        let call = self.calls;
        match self.config.mode {
            LoopMode::Open { rate_pm } => {
                let st = &mut self.state[i];
                // Catch up the calls since the last visit: none of them
                // reached an offer, or the calendar would have visited.
                let missed = u64::from(rate_pm) * (call - st.seen - 1);
                debug_assert!(
                    u64::from(st.acc) + missed < 1000,
                    "node {i} missed an offer"
                );
                st.acc += missed as u32;
                st.seen = call;
                st.acc += rate_pm;
                while st.acc >= 1000 {
                    st.acc -= 1000;
                    self.counters.offered += 1;
                    if st.backlog.len() >= self.config.backlog_limit {
                        self.counters.shed += 1;
                        continue;
                    }
                    if let Some(dest) = self.config.pattern.dest(i, &self.config.topo, &mut st.rng)
                    {
                        st.backlog.push_back(Pending {
                            w0: dest.into_word_bits(self.config.format) | KIND_ONEWAY,
                            w1: i as u32,
                        });
                    }
                }
            }
            LoopMode::Closed { window } => {
                let st = &mut self.state[i];
                if st.outstanding < window {
                    if let Some(dest) = self.config.pattern.dest(i, &self.config.topo, &mut st.rng)
                    {
                        self.counters.offered += 1;
                        st.outstanding += 1;
                        st.backlog.push_back(Pending {
                            w0: dest.into_word_bits(self.config.format) | KIND_REQUEST,
                            w1: i as u32,
                        });
                    }
                }
            }
        }
        // Act, if the processor is free.
        if cycle < self.state[i].busy_until {
            return false;
        }
        let ni = node.ni_mut();
        let (cost, sent) = if ni.msg_valid() {
            (self.receive(i, ni), false)
        } else if let Some(&p) = self.state[i].backlog.front() {
            if ni.send_would_stall() {
                return false; // full output queue: real backpressure, retry next cycle
            }
            ni.write_reg(InterfaceReg::O0, p.w0).expect("O0 writable");
            ni.write_reg(InterfaceReg::O1, p.w1).expect("O1 writable");
            ni.send(SendMode::Send, self.mtype).expect("send accepted");
            self.state[i].backlog.pop_front();
            self.counters.issued += 1;
            (self.config.costs.send, true)
        } else {
            return false;
        };
        self.state[i].busy_until = cycle + cost;
        sent
    }

    /// The next cycle after `cycle` at which node `i`'s state can change
    /// without input arriving ([`NEVER`] if none): its next offer, its
    /// backlog's next chance to send, or a closed-loop window with room.
    /// Input is the machine's pending list's business.
    fn next_due(&self, i: usize, cycle: u64) -> u64 {
        let st = &self.state[i];
        let mut due = match self.config.mode {
            LoopMode::Open { rate_pm } if rate_pm > 0 => {
                cycle + u64::from((1000 - st.acc).div_ceil(rate_pm))
            }
            // A node the pattern gives no partner never fills its window;
            // its visits change nothing, but are exact.
            LoopMode::Closed { window } if st.outstanding < window => cycle + 1,
            _ => NEVER,
        };
        if !st.backlog.is_empty() {
            due = due.min(st.busy_until.max(cycle + 1));
        }
        due
    }

    /// Puts node `i` on the wheel at its next due cycle, unless it is
    /// already there.
    fn schedule(&mut self, i: usize, cycle: u64) {
        let due = self.next_due(i, cycle);
        let st = &mut self.state[i];
        if due != st.due {
            st.due = due;
            if due != NEVER {
                self.wheel[due as usize % WHEEL].push(i as u32);
            }
        }
    }

    /// Visits every node, as the plain `on_cycle` loop does, reporting the
    /// senders; with an activity record, also rebuilds the wheel.
    fn visit_all(
        &mut self,
        cycle: u64,
        nodes: &mut [Node],
        mut activity: Option<&mut Activity<'_>>,
    ) {
        let schedule = activity.is_some();
        if schedule {
            self.wheel.iter_mut().for_each(Vec::clear);
        }
        let count = self.state.len();
        for (i, node) in nodes.iter_mut().enumerate().take(count) {
            let sent = self.node_cycle(i, cycle, node);
            if let Some(act) = activity.as_deref_mut() {
                if sent {
                    act.touch(i);
                }
                self.state[i].due = NEVER;
                self.schedule(i, cycle);
            }
        }
        self.wheel_valid = schedule;
    }

    /// Counts one driver call at `cycle`; returns whether it directly
    /// follows the previous one.
    fn tick_call(&mut self, cycle: u64) -> bool {
        self.calls += 1;
        let contiguous = self
            .last_cycle
            .is_some_and(|c| c.checked_add(1) == Some(cycle));
        self.last_cycle = Some(cycle);
        contiguous
    }
}

impl CycleDriver for Injector {
    fn on_cycle(&mut self, cycle: u64, nodes: &mut [Node]) -> bool {
        self.tick_call(cycle);
        self.visit_all(cycle, nodes, None);
        true
    }

    fn on_cycle_active(
        &mut self,
        cycle: u64,
        nodes: &mut [Node],
        activity: &mut Activity<'_>,
    ) -> bool {
        let contiguous = self.tick_call(cycle);
        let pending = match activity.pending() {
            Some(p) if contiguous && self.wheel_valid => p,
            _ => {
                self.visit_all(cycle, nodes, Some(activity));
                return true;
            }
        };
        let count = self.state.len().min(nodes.len());
        let mut visit = std::mem::take(&mut self.visit);
        for &i in pending.iter().take_while(|&&i| i < count) {
            visit.insert(i);
        }
        let state = &self.state;
        self.wheel[cycle as usize % WHEEL].retain(|&n| {
            let due = state[n as usize].due;
            if due == cycle {
                visit.insert(n as usize);
                false
            } else {
                // A node due a later turn of the wheel keeps its entry;
                // an entry whose node was rescheduled elsewhere is stale.
                due != NEVER && due > cycle && due as usize % WHEEL == cycle as usize % WHEEL
            }
        });
        for i in visit.drain() {
            if self.node_cycle(i, cycle, &mut nodes[i]) {
                activity.touch(i);
            }
            self.schedule(i, cycle);
        }
        self.visit = visit;
        true
    }
}

/// A set of node indices as a bitmap, drained in ascending order: the
/// drivers' per-cycle visit list, deduplicated and sorted for one word
/// per 64 nodes.
#[derive(Debug, Default)]
pub(crate) struct VisitSet(Vec<u64>);

impl VisitSet {
    /// An empty set over `nodes` nodes.
    pub(crate) fn new(nodes: usize) -> VisitSet {
        VisitSet(vec![0; nodes.div_ceil(64)])
    }

    pub(crate) fn insert(&mut self, node: usize) {
        self.0[node / 64] |= 1 << (node % 64);
    }

    /// Yields the members in ascending order, leaving the set empty.
    pub(crate) fn drain(&mut self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter_mut().enumerate().flat_map(|(w, word)| {
            let mut bits = std::mem::take(word);
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    w * 64 + b
                })
            })
        })
    }
}

/// Derives node `i`'s independent stream seed from the master seed
/// (SplitMix64's golden-ratio increment keeps the streams well separated).
fn node_seed(seed: u64, i: usize) -> u64 {
    seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcni_sim::{MachineBuilder, RunOutcome};

    fn machine(n: usize) -> tcni_sim::Machine {
        // Default program halts immediately: the injector is the only actor.
        MachineBuilder::new(n).build()
    }

    fn run(mut inj: Injector, n: usize, cycles: u64) -> (InjectCounters, tcni_net::NetStats) {
        let mut m = machine(n);
        assert_eq!(m.run_driven(&mut inj, cycles), RunOutcome::CycleLimit);
        (inj.counters(), m.net_stats())
    }

    #[test]
    fn open_loop_offers_at_the_configured_rate() {
        let topo = Topology::new(2, 2);
        let cfg = InjectorConfig::new(Pattern::Uniform, topo, LoopMode::Open { rate_pm: 250 });
        let cycles = 4000;
        let (c, stats) = run(Injector::new(cfg), topo.nodes(), cycles);
        // 4 nodes × 250/1000 × 4000 cycles = 4000 offers, exactly.
        assert_eq!(c.offered, 4000);
        assert_eq!(c.shed, 0, "light load sheds nothing");
        assert!(c.issued > 0 && stats.delivered > 0);
        assert_eq!(stats.bad_dest, 0);
        // Everything issued is eventually consumed (minus what is in flight).
        assert!(c.consumed <= c.issued);
        assert!(c.issued + 16 * 4 >= c.offered, "backlog bounds the gap");
    }

    #[test]
    fn open_loop_sheds_when_overdriven_instead_of_panicking() {
        let topo = Topology::new(2, 2);
        let mut cfg = InjectorConfig::new(Pattern::Uniform, topo, LoopMode::Open { rate_pm: 1000 });
        // An expensive processor model cannot keep up with 1 msg/cycle.
        cfg.costs = ServiceCosts { send: 10, recv: 10 };
        cfg.backlog_limit = 4;
        let (c, _) = run(Injector::new(cfg), topo.nodes(), 2000);
        assert!(c.shed > 0, "overdrive must shed");
        assert_eq!(c.offered, 4 * 2000);
        assert!(c.issued < c.offered);
    }

    #[test]
    fn closed_loop_respects_the_window_and_completes_round_trips() {
        let topo = Topology::new(2, 2);
        let cfg = InjectorConfig::new(Pattern::Neighbor, topo, LoopMode::Closed { window: 2 });
        let mut inj = Injector::new(cfg);
        let mut m = machine(topo.nodes());
        for _ in 0..10 {
            m.run_driven(&mut inj, 100);
            assert!(inj.outstanding() <= 2 * topo.nodes() as u64);
        }
        let c = inj.counters();
        assert!(c.completed > 0, "round trips complete");
        assert_eq!(c.shed, 0, "closed loop never sheds");
        assert!(c.replies >= c.completed);
        // Conservation: offers = completions + still-outstanding.
        assert_eq!(c.offered, c.completed + inj.outstanding());
    }

    #[test]
    fn model_costs_come_from_the_published_table() {
        // opt-reg: send2 mid((2,4)) = 3, dispatch 1 + proc_send2 3 = 4.
        let opt = ServiceCosts::for_model(Model::ALL_SIX[0]);
        assert_eq!(opt, ServiceCosts { send: 3, recv: 4 });
        // basic-off is strictly more expensive than opt-reg on both sides.
        let basic = ServiceCosts::for_model(Model::ALL_SIX[5]);
        assert!(basic.send > opt.send && basic.recv > opt.recv);
    }

    #[test]
    fn slower_models_deliver_less_at_the_same_offered_load() {
        let topo = Topology::new(2, 2);
        let run_with = |model| {
            let mut cfg =
                InjectorConfig::new(Pattern::Uniform, topo, LoopMode::Open { rate_pm: 600 });
            cfg.costs = ServiceCosts::for_model(model);
            let (c, stats) = run(Injector::new(cfg), topo.nodes(), 3000);
            (c, stats.delivered)
        };
        let (_, fast) = run_with(Model::ALL_SIX[0]); // opt-reg
        let (slow_c, slow) = run_with(Model::ALL_SIX[5]); // basic-off
        assert!(
            slow < fast,
            "basic-off ({slow}) should lag opt-reg ({fast}) at 0.6 msg/cycle/node"
        );
        assert!(slow_c.shed > 0, "the slow model saturates and sheds");
    }

    #[test]
    fn unusable_configs_are_typed_errors() {
        let square = Topology::new(2, 2);
        let ragged = Topology::new(3, 2);
        let open = |rate_pm| LoopMode::Open { rate_pm };
        let err = |cfg| Injector::try_new(cfg).map(|_| ()).unwrap_err();
        assert_eq!(
            err(InjectorConfig::new(Pattern::Transpose, ragged, open(5))),
            InjectorError::UnsupportedPattern {
                pattern: "transpose",
                width: 3,
                height: 2
            }
        );
        assert_eq!(
            err(InjectorConfig::new(
                Pattern::Uniform,
                Topology::new(1, 1),
                open(5)
            )),
            InjectorError::UnsupportedPattern {
                pattern: "uniform",
                width: 1,
                height: 1
            }
        );
        let mut cfg = InjectorConfig::new(Pattern::Uniform, square, open(5));
        cfg.backlog_limit = 0;
        assert_eq!(err(cfg), InjectorError::ZeroBacklog);
        assert_eq!(
            err(InjectorConfig::new(Pattern::Uniform, square, open(1001))),
            InjectorError::RateTooHigh { rate_pm: 1001 }
        );
        assert_eq!(
            err(InjectorConfig::new(
                Pattern::Uniform,
                square,
                LoopMode::Closed { window: 0 }
            )),
            InjectorError::ZeroWindow
        );
        // The boundaries themselves are fine, and `new` keeps panicking
        // with the error's message.
        assert!(
            Injector::try_new(InjectorConfig::new(Pattern::Uniform, square, open(1000))).is_ok()
        );
        let caught = std::panic::catch_unwind(|| {
            Injector::new(InjectorConfig::new(Pattern::Uniform, square, open(1001)))
        });
        let msg = caught.unwrap_err();
        let msg = msg.downcast_ref::<String>().expect("formatted panic");
        assert_eq!(
            msg,
            &InjectorError::RateTooHigh { rate_pm: 1001 }.to_string()
        );
    }

    #[test]
    fn injector_is_deterministic() {
        let topo = Topology::new(4, 2);
        let go = |seed| {
            let mut cfg = InjectorConfig::new(
                Pattern::Hotspot { hot_pm: 300 },
                topo,
                LoopMode::Open { rate_pm: 400 },
            );
            cfg.seed = seed;
            run(Injector::new(cfg), topo.nodes(), 2500)
        };
        assert_eq!(go(9), go(9));
        assert_ne!(go(9).0, go(10).0);
    }
}
