//! NIC-combining vs software-emulation collectives.
//!
//! The tentpole comparison for the in-network collective engine: the same
//! all-nodes barrier / broadcast / reduce rounds, run two ways on the same
//! mesh —
//!
//! * **NIC mode** ([`CollMode::Nic`]): the machine is built with the
//!   combining-tree [`Collective`](tcni_sim::Collective) engine; the driver
//!   latches one contribution per node per round
//!   ([`Node::coll_request`](tcni_sim::Node::coll_request)) and polls for
//!   posted completions. Combining happens *in the network interfaces*,
//!   one up-message per tree edge and one down-message per tree edge.
//! * **Software mode** ([`CollMode::Soft`]): the machine has no engine at
//!   all (so the run also proves the engine-off fast path carries real
//!   workloads); the driver emulates the textbook flat scheme over the
//!   architected interface — every node SENDs its contribution to the
//!   root, the root consumes them one per cycle, combines in software, and
//!   SENDs the result back to every node, one per cycle through its single
//!   output port.
//!
//! The *collective storm* load model fires rounds at a per-mille rate
//! ([`CollStormConfig::rate_pm`]; `0` = back-to-back). A round only starts
//! when the previous one has fully completed — storms that outrun the
//! machine are counted as [`CollPoint::deferred`] fires, never stacked.
//!
//! Everything is integer-arithmetic and seed-deterministic: the same
//! config yields a byte-identical [`CollReport`] at any `TCNI_THREADS`.

use std::collections::VecDeque;

use tcni_core::{CollectiveOp, InterfaceReg, MsgType, NetworkInterface, NodeId, SendMode};
use tcni_net::{CombiningTree, FabricConfig, FaultConfig};
use tcni_sim::{Activity, CycleDriver, DeliveryConfig, Machine, MachineBuilder, Node, RunOutcome};

use crate::inject::VisitSet;
use crate::pattern::Topology;
use crate::sweep::Fabric;

/// Which implementation of the collective a point measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollMode {
    /// In-network combining: the machine's [`Collective`](tcni_sim::Collective)
    /// engine over a mesh-embedded combining tree.
    Nic,
    /// Software emulation: flat gather/scatter through the root's processor
    /// over ordinary point-to-point interface traffic.
    Soft,
}

impl CollMode {
    /// Both modes, report order.
    pub const BOTH: [CollMode; 2] = [CollMode::Nic, CollMode::Soft];

    /// Short machine-readable name (stable; used in `tcni-coll/1` output).
    pub fn key(self) -> &'static str {
        match self {
            CollMode::Nic => "nic",
            CollMode::Soft => "soft",
        }
    }
}

/// Shared parameters for every point of a collective sweep.
#[derive(Debug, Clone, Copy)]
pub struct CollStormConfig {
    /// Node grid (and switched-fabric geometry).
    pub topo: Topology,
    /// The fabric under the storm. NIC mode embeds the matching combining
    /// tree: a grid tree on the mesh, a wrap-aware grid tree on the torus,
    /// and a star on the ring / fully-connected / ideal fabrics.
    pub fabric: Fabric,
    /// Master seed for the per-round contribution values.
    pub seed: u64,
    /// Rounds each point completes.
    pub rounds: u32,
    /// Combining-tree radix for NIC mode (see [`CombiningTree::mesh`]).
    pub radix: usize,
    /// Safety cap on cycles per point (a point that cannot finish its
    /// rounds within the cap stops there; `rounds_done` tells).
    pub max_cycles: u64,
    /// In-flight occupancy samples taken across the run (≥ 1).
    pub samples: u32,
    /// Uniform fault rate (per-mille) wrapping the mesh; nonzero requires
    /// [`delivery`](Self::delivery), exactly as in the load sweeps.
    pub fault_pm: u32,
    /// Whether the machine runs the end-to-end delivery protocol.
    pub delivery: bool,
}

impl CollStormConfig {
    /// Defaults: mesh fabric, seed 1, 32 rounds, radix 4, 200k-cycle cap,
    /// 8 samples, fault-free, no protocol.
    pub fn new(topo: Topology) -> CollStormConfig {
        CollStormConfig {
            topo,
            fabric: Fabric::Mesh,
            seed: 1,
            rounds: 32,
            radix: 4,
            max_cycles: 200_000,
            samples: 8,
            fault_pm: 0,
            delivery: false,
        }
    }
}

/// One measured {mode, op, rate} cell. All fixed-point fields are scaled
/// integers so the artifact is bit-identical across hosts and thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollPoint {
    /// The implementation measured.
    pub mode: CollMode,
    /// The collective operation.
    pub op: CollectiveOp,
    /// Storm rate in rounds per mille cycles (`0` = back-to-back).
    pub rate_pm: u32,
    /// Rounds that completed (equals the configured target unless the
    /// cycle cap cut the run short).
    pub rounds_done: u32,
    /// Cycles the point ran.
    pub cycles: u64,
    /// Mean completion latency ×100 (request latched → every node holds
    /// the result), or `None` if no round completed.
    pub lat_mean_x100: Option<u64>,
    /// Fastest completed round.
    pub lat_min: Option<u64>,
    /// Slowest completed round.
    pub lat_max: Option<u64>,
    /// Messages the fabric delivered over the whole point — the wire cost
    /// of the chosen scheme.
    pub fabric_delivered: u64,
    /// Mean sampled fabric in-flight occupancy ×100.
    pub inflight_mean_x100: u64,
    /// Peak sampled fabric in-flight occupancy.
    pub inflight_max: u64,
    /// Storm fires that found the previous round still running.
    pub deferred: u64,
    /// Completions whose value disagreed with the host-computed expected
    /// result (always 0 on a healthy machine; the cross-check that both
    /// schemes compute the *same* collective).
    pub wrong_results: u64,
    /// Engine combines folded at interfaces (NIC mode; 0 in software mode).
    pub combined: u64,
    /// Engine up-messages forwarded (NIC mode; 0 in software mode).
    pub forwarded_up: u64,
    /// Engine down-messages fanned out (NIC mode; 0 in software mode).
    pub fanned_down: u64,
}

/// The deterministic per-node contribution for a round — both modes use
/// this exact formula, so their results must agree bit for bit.
fn value_of(seed: u64, round: u32, node: usize) -> u32 {
    let x = seed
        ^ (u64::from(round).wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ ((node as u64).wrapping_add(1)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    (x >> 32) as u32 ^ (x as u32)
}

/// The result every node must end the round holding (root = node 0 in both
/// modes, matching [`CombiningTree::mesh`]).
fn expected_of(op: CollectiveOp, seed: u64, round: u32, nodes: usize) -> u32 {
    match op {
        CollectiveOp::Barrier => 0,
        CollectiveOp::Bcast => value_of(seed, round, 0),
        CollectiveOp::Sum | CollectiveOp::Min => (0..nodes)
            .map(|i| value_of(seed, round, i))
            .fold(op.identity(), |acc, v| op.combine(acc, v)),
    }
}

/// Round sequencing and latency bookkeeping shared by both drivers: the
/// storm accumulator, the open-round latch, and the completion statistics.
#[derive(Debug)]
struct Storm {
    op: CollectiveOp,
    seed: u64,
    rate_pm: u32,
    target: u32,
    nodes: usize,
    /// Per-mille storm accumulator (`rate_pm == 0` bypasses it).
    acc: u32,
    /// Fires waiting for the machine (capped at 1: a storm never stacks).
    credit: bool,
    round: u32,
    open: bool,
    started_at: u64,
    /// Nodes still to report the current round's result.
    awaiting: usize,
    expected: u32,
    rounds_done: u32,
    deferred: u64,
    wrong: u64,
    lat_sum: u64,
    lat_min: u64,
    lat_max: u64,
}

impl Storm {
    fn new(op: CollectiveOp, seed: u64, rate_pm: u32, target: u32, nodes: usize) -> Storm {
        assert!(rate_pm <= 1000, "storm rate is per-mille: 0..=1000");
        Storm {
            op,
            seed,
            rate_pm,
            target,
            nodes,
            acc: 0,
            credit: false,
            round: 0,
            open: false,
            started_at: 0,
            awaiting: 0,
            expected: 0,
            rounds_done: 0,
            deferred: 0,
            wrong: 0,
            lat_sum: 0,
            lat_min: u64::MAX,
            lat_max: 0,
        }
    }

    /// Accrues the storm rate; returns whether a new round should start
    /// this cycle (only when none is open).
    fn accrue(&mut self) -> bool {
        if self.rounds_done >= self.target {
            return false;
        }
        if self.rate_pm == 0 {
            return !self.open;
        }
        self.acc += self.rate_pm;
        if self.acc >= 1000 {
            self.acc -= 1000;
            if self.open || self.credit {
                // The machine is behind the storm: count it, don't stack.
                self.deferred += 1;
            } else {
                self.credit = true;
            }
        }
        if self.credit && !self.open {
            self.credit = false;
            return true;
        }
        false
    }

    fn start(&mut self, cycle: u64) {
        debug_assert!(!self.open);
        self.open = true;
        self.started_at = cycle;
        self.awaiting = self.nodes;
        self.expected = expected_of(self.op, self.seed, self.round, self.nodes);
    }

    /// One node reported the current round's result.
    fn collect(&mut self, value: u32, cycle: u64) {
        debug_assert!(self.open && self.awaiting > 0);
        if value != self.expected {
            self.wrong += 1;
        }
        self.awaiting -= 1;
        if self.awaiting == 0 {
            self.open = false;
            self.round += 1;
            self.rounds_done += 1;
            let lat = cycle - self.started_at;
            self.lat_sum += lat;
            self.lat_min = self.lat_min.min(lat);
            self.lat_max = self.lat_max.max(lat);
        }
    }

    fn finished(&self) -> bool {
        self.rounds_done >= self.target && !self.open
    }
}

/// The NIC-mode driver: latches contributions, polls completions. The
/// engine and the fabric do everything else.
#[derive(Debug)]
struct NicDriver {
    storm: Storm,
}

impl NicDriver {
    /// One cycle; returns whether a round started (every node latched a
    /// contribution).
    fn step(&mut self, cycle: u64, nodes: &mut [Node]) -> bool {
        // Collect completions first: a round can close and a new one fire
        // in the same cycle.
        for node in nodes.iter_mut() {
            while let Some(done) = node.coll_take_done() {
                self.storm.collect(done.value, cycle);
            }
        }
        if !self.storm.accrue() {
            return false;
        }
        let round = self.storm.round;
        let seed = self.storm.seed;
        let op = self.storm.op;
        self.storm.start(cycle);
        for (i, node) in nodes.iter_mut().enumerate() {
            node.coll_request(op, value_of(seed, round, i));
        }
        true
    }
}

impl CycleDriver for NicDriver {
    fn on_cycle(&mut self, cycle: u64, nodes: &mut [Node]) -> bool {
        self.step(cycle, nodes);
        !self.storm.finished()
    }

    fn on_cycle_active(
        &mut self,
        cycle: u64,
        nodes: &mut [Node],
        activity: &mut Activity<'_>,
    ) -> bool {
        if self.step(cycle, nodes) {
            (0..nodes.len()).for_each(|i| activity.touch(i));
        }
        !self.storm.finished()
    }
}

/// Message-kind tags for the software emulation (low bits of word 0, the
/// same convention as the load injector's kinds).
const KIND_CONTRIB: u32 = 5;
const KIND_RESULT: u32 = 6;
const KIND_MASK: u32 = 0xF;

/// One queued software-emulation send: the two words for O0/O1.
#[derive(Debug, Clone, Copy)]
struct Pending {
    w0: u32,
    w1: u32,
}

/// The software-mode driver: the flat gather/scatter baseline over the
/// architected interface, one costed action per node per cycle.
#[derive(Debug)]
struct SoftDriver {
    storm: Storm,
    format: tcni_core::WireFormat,
    mtype: MsgType,
    /// Per-node unsent messages (contributions at leaves, results at the
    /// root) waiting for the output queue.
    backlog: Vec<VecDeque<Pending>>,
    /// Root-side combine state for the open round.
    acc: u32,
    gathered: usize,
    /// The nodes with a non-empty backlog, ascending.
    backlogged: Vec<usize>,
    /// The nodes to visit this cycle.
    visit: VisitSet,
}

impl SoftDriver {
    fn new(storm: Storm, format: tcni_core::WireFormat) -> SoftDriver {
        let nodes = storm.nodes;
        SoftDriver {
            storm,
            format,
            mtype: MsgType::new(2).expect("type 2 is a plain message type"),
            backlog: vec![VecDeque::new(); nodes],
            acc: 0,
            gathered: 0,
            backlogged: Vec::new(),
            visit: VisitSet::new(nodes),
        }
    }

    /// The root folded every contribution: report its own completion and
    /// queue the scatter.
    fn root_finish(&mut self, cycle: u64) {
        let result = match self.storm.op {
            CollectiveOp::Barrier => 0,
            CollectiveOp::Bcast => value_of(self.storm.seed, self.storm.round, 0),
            CollectiveOp::Sum | CollectiveOp::Min => self.acc,
        };
        for i in 1..self.storm.nodes {
            let dest = NodeId::from_index(i);
            self.backlog[0].push_back(Pending {
                w0: dest.into_word_bits(self.format) | KIND_RESULT,
                w1: result,
            });
        }
        self.storm.collect(result, cycle);
    }

    /// Consumes the message in node `i`'s input registers.
    fn receive(&mut self, i: usize, cycle: u64, ni: &mut NetworkInterface) {
        let w0 = ni.read_reg(InterfaceReg::I0).expect("I0 readable");
        let w1 = ni.read_reg(InterfaceReg::I1).expect("I1 readable");
        ni.next();
        match w0 & KIND_MASK {
            KIND_CONTRIB => {
                debug_assert_eq!(i, 0, "contributions flow to the root");
                self.acc = self.storm.op.combine(self.acc, w1);
                self.gathered += 1;
                if self.gathered == self.storm.nodes - 1 {
                    self.root_finish(cycle);
                }
            }
            KIND_RESULT => self.storm.collect(w1, cycle),
            _ => unreachable!("the soft collective is the only traffic source"),
        }
    }

    /// Starts a round if the storm fires this cycle; returns whether it did
    /// (every leaf then holds a contribution to send).
    fn fire(&mut self, cycle: u64) -> bool {
        if !self.storm.accrue() {
            return false;
        }
        let round = self.storm.round;
        let seed = self.storm.seed;
        self.storm.start(cycle);
        // The root's own contribution is a local combine; everyone
        // else gathers to it over the wire.
        self.acc = self
            .storm
            .op
            .combine(self.storm.op.identity(), value_of(seed, round, 0));
        self.gathered = 0;
        if self.storm.nodes == 1 {
            self.root_finish(cycle);
        }
        let root = NodeId::from_index(0);
        for i in 1..self.storm.nodes {
            self.backlog[i].push_back(Pending {
                w0: root.into_word_bits(self.format) | KIND_CONTRIB,
                w1: value_of(seed, round, i),
            });
        }
        true
    }

    /// Node `i`'s one action this cycle: receive, else send the oldest
    /// backlog entry. Returns whether it sent.
    fn node_cycle(&mut self, i: usize, cycle: u64, node: &mut Node) -> bool {
        let ni = node.ni_mut();
        if ni.msg_valid() {
            self.receive(i, cycle, ni);
            return false;
        }
        let Some(&p) = self.backlog[i].front() else {
            return false;
        };
        if ni.send_would_stall() {
            return false; // full output queue: retry next cycle
        }
        ni.write_reg(InterfaceReg::O0, p.w0).expect("O0 writable");
        ni.write_reg(InterfaceReg::O1, p.w1).expect("O1 writable");
        ni.send(SendMode::Send, self.mtype).expect("send accepted");
        self.backlog[i].pop_front();
        true
    }

    /// Visits every node, reporting the senders to `activity` if given.
    fn visit_all(
        &mut self,
        cycle: u64,
        nodes: &mut [Node],
        mut activity: Option<&mut Activity<'_>>,
    ) {
        for (i, node) in nodes.iter_mut().enumerate() {
            if self.node_cycle(i, cycle, node) {
                if let Some(act) = activity.as_deref_mut() {
                    act.touch(i);
                }
            }
        }
        self.backlogged.clear();
        self.backlogged
            .extend((0..self.backlog.len()).filter(|&i| !self.backlog[i].is_empty()));
    }
}

impl CycleDriver for SoftDriver {
    fn on_cycle(&mut self, cycle: u64, nodes: &mut [Node]) -> bool {
        self.fire(cycle);
        self.visit_all(cycle, nodes, None);
        !self.storm.finished()
    }

    /// Visits the nodes with input waiting or a backlog to send — every
    /// node only in the cycle a round fires.
    fn on_cycle_active(
        &mut self,
        cycle: u64,
        nodes: &mut [Node],
        activity: &mut Activity<'_>,
    ) -> bool {
        let fired = self.fire(cycle);
        let Some(pending) = activity.pending().filter(|_| !fired) else {
            self.visit_all(cycle, nodes, Some(activity));
            return !self.storm.finished();
        };
        let mut visit = std::mem::take(&mut self.visit);
        for &i in pending.iter().chain(&self.backlogged) {
            visit.insert(i);
        }
        self.backlogged.clear();
        for i in visit.drain() {
            if self.node_cycle(i, cycle, &mut nodes[i]) {
                activity.touch(i);
            }
            if !self.backlog[i].is_empty() {
                self.backlogged.push(i);
            }
        }
        self.visit = visit;
        !self.storm.finished()
    }
}

/// Salt separating the fault schedule from the contribution values.
const COLL_FAULT_SALT: u64 = 0x5851_F42D_4C95_7F2D;

fn build_machine(mode: CollMode, cfg: &CollStormConfig) -> Machine {
    let topo = &cfg.topo;
    let mut b = MachineBuilder::new(topo.nodes());
    b = match cfg.fabric {
        Fabric::Ideal { latency } => b.network_ideal(latency),
        Fabric::Mesh => b.network_fabric(FabricConfig::new(topo.width, topo.height)),
        Fabric::Torus => b.network_fabric(FabricConfig::torus(topo.width, topo.height)),
        Fabric::Ring => b.network_fabric(FabricConfig::ring(topo.nodes())),
        Fabric::Full => b.network_fabric(FabricConfig::full(topo.nodes())),
    };
    if cfg.fault_pm > 0 {
        b = b.network_fault(FaultConfig::uniform(
            cfg.seed ^ COLL_FAULT_SALT,
            cfg.fault_pm,
        ));
    }
    if cfg.delivery {
        b = b.delivery(DeliveryConfig::default());
    }
    if mode == CollMode::Nic {
        // The tree that actually embeds in the chosen fabric: grid trees
        // follow the grid links (wrap-aware on the torus); topologies with
        // no grid at all take the geometry-free star.
        let tree = match cfg.fabric {
            Fabric::Ideal { .. } | Fabric::Mesh => {
                CombiningTree::mesh(topo.width, topo.height, cfg.radix)
            }
            Fabric::Torus => CombiningTree::torus(topo.width, topo.height, cfg.radix),
            Fabric::Ring | Fabric::Full => CombiningTree::star(topo.nodes()),
        };
        b = b.collective(tree);
    }
    b.build()
}

/// Runs one {mode, op, rate} point to completion (or the cycle cap).
pub fn run_coll_point(
    mode: CollMode,
    op: CollectiveOp,
    rate_pm: u32,
    cfg: &CollStormConfig,
) -> CollPoint {
    assert!(
        cfg.fault_pm == 0 || cfg.delivery,
        "a faulty fabric needs the delivery protocol (dropped messages \
         would wedge a collective round forever)"
    );
    let mut machine = build_machine(mode, cfg);
    let storm = Storm::new(op, cfg.seed, rate_pm, cfg.rounds, cfg.topo.nodes());
    let chunk = (cfg.max_cycles / u64::from(cfg.samples.max(1))).max(1);
    let (mut inflight_sum, mut inflight_max, mut samples) = (0u64, 0u64, 0u64);
    let mut run_chunks = |machine: &mut Machine, driver: &mut dyn DynDriver| loop {
        let left = cfg.max_cycles - machine.cycle();
        let outcome = driver.drive(machine, chunk.min(left));
        let inflight = machine.net_in_flight() as u64;
        inflight_sum += inflight;
        inflight_max = inflight_max.max(inflight);
        samples += 1;
        if outcome == RunOutcome::DriverStopped || machine.cycle() >= cfg.max_cycles {
            break;
        }
    };
    let storm = match mode {
        CollMode::Nic => {
            let mut driver = NicDriver { storm };
            run_chunks(&mut machine, &mut driver);
            driver.storm
        }
        CollMode::Soft => {
            let format = machine.wire_format();
            let mut driver = SoftDriver::new(storm, format);
            run_chunks(&mut machine, &mut driver);
            driver.storm
        }
    };
    let coll_stats = machine.collective_stats().unwrap_or_default();
    let done = storm.rounds_done;
    CollPoint {
        mode,
        op,
        rate_pm,
        rounds_done: done,
        cycles: machine.cycle(),
        lat_mean_x100: (done > 0).then(|| storm.lat_sum * 100 / u64::from(done)),
        lat_min: (done > 0).then_some(storm.lat_min),
        lat_max: (done > 0).then_some(storm.lat_max),
        fabric_delivered: machine.net_stats().delivered,
        inflight_mean_x100: inflight_sum * 100 / samples.max(1),
        inflight_max,
        deferred: storm.deferred,
        wrong_results: storm.wrong,
        combined: coll_stats.combined,
        forwarded_up: coll_stats.forwarded_up,
        fanned_down: coll_stats.fanned_down,
    }
}

/// Object-safe shim so [`run_coll_point`] can share its chunked run loop
/// across the two concrete driver types.
trait DynDriver {
    fn drive(&mut self, machine: &mut Machine, cycles: u64) -> RunOutcome;
}

impl DynDriver for NicDriver {
    fn drive(&mut self, machine: &mut Machine, cycles: u64) -> RunOutcome {
        machine.run_driven(self, cycles)
    }
}

impl DynDriver for SoftDriver {
    fn drive(&mut self, machine: &mut Machine, cycles: u64) -> RunOutcome {
        machine.run_driven(self, cycles)
    }
}

/// Runs the full grid: both modes × the given ops × the given storm rates,
/// in that nesting order.
pub fn run_coll_sweep(
    ops: &[CollectiveOp],
    rates_pm: &[u32],
    cfg: &CollStormConfig,
) -> Vec<CollPoint> {
    let mut points = Vec::with_capacity(2 * ops.len() * rates_pm.len());
    for mode in CollMode::BOTH {
        for &op in ops {
            for &rate_pm in rates_pm {
                points.push(run_coll_point(mode, op, rate_pm, cfg));
            }
        }
    }
    points
}

/// Schema identifier for the collective artifact.
pub const COLL_SCHEMA: &str = "tcni-coll/1";

/// A complete collective run: the shared storm parameters plus one point
/// per {mode, op, rate} cell, serialized as the versioned `tcni-coll/1`
/// JSON artifact.
///
/// Schema:
///
/// ```json
/// {
///   "schema": "tcni-coll/1",
///   "topology": {"width": W, "height": H, "nodes": N},
///   "seed": S, "rounds": R, "radix": K, "max_cycles": M,
///   "rates_pm": [...],
///   "points": [
///     {"mode": "nic", "op": "barrier", "rate_pm": r, "rounds_done": n,
///      "cycles": c, "lat_mean_x100": n-or-null, "lat_min": n-or-null,
///      "lat_max": n-or-null, "fabric_delivered": n,
///      "inflight_mean_x100": n, "inflight_max": n, "deferred": n,
///      "wrong_results": n, "combined": n, "forwarded_up": n,
///      "fanned_down": n}, ...]
/// }
/// ```
///
/// Non-mesh runs carry a top-level `"fabric"` key (`"torus"`, `"ring"`,
/// `"full"`, or `"ideal"`); mesh runs omit it, keeping pre-topology mesh
/// goldens byte-identical. Faulted runs additionally carry `"fault_pm"`
/// and `"delivery"` at the top level; fault-free runs omit both
/// (golden-enforced). Every numeric field is an integer, so same-config
/// runs serialize byte-identically at any `TCNI_THREADS`.
#[derive(Debug, Clone)]
pub struct CollReport {
    /// The shared storm parameters.
    pub config: CollStormConfig,
    /// The storm-rate axis the sweep walked.
    pub rates_pm: Vec<u32>,
    /// All points, in sweep order (mode-major, then op, then rate).
    pub points: Vec<CollPoint>,
}

impl CollReport {
    /// Serializes the report (see the type docs for the schema).
    pub fn to_json(&self) -> String {
        fn num(o: &mut String, v: u64) {
            o.push_str(&v.to_string());
        }
        fn opt(o: &mut String, v: Option<u64>) {
            match v {
                Some(v) => num(o, v),
                None => o.push_str("null"),
            }
        }
        let mut o = String::with_capacity(512 + self.points.len() * 256);
        o.push_str("{\n  \"schema\": \"");
        o.push_str(COLL_SCHEMA);
        o.push_str("\",\n  \"topology\": {\"width\": ");
        num(&mut o, self.config.topo.width as u64);
        o.push_str(", \"height\": ");
        num(&mut o, self.config.topo.height as u64);
        o.push_str(", \"nodes\": ");
        num(&mut o, self.config.topo.nodes() as u64);
        o.push_str("},\n  \"seed\": ");
        num(&mut o, self.config.seed);
        o.push_str(",\n  \"rounds\": ");
        num(&mut o, u64::from(self.config.rounds));
        o.push_str(",\n  \"radix\": ");
        num(&mut o, self.config.radix as u64);
        o.push_str(",\n  \"max_cycles\": ");
        num(&mut o, self.config.max_cycles);
        if self.config.fabric != Fabric::Mesh {
            o.push_str(",\n  \"fabric\": \"");
            o.push_str(self.config.fabric.key());
            o.push('"');
        }
        if self.config.fault_pm > 0 {
            o.push_str(",\n  \"fault_pm\": ");
            num(&mut o, u64::from(self.config.fault_pm));
            o.push_str(",\n  \"delivery\": ");
            o.push_str(if self.config.delivery {
                "true"
            } else {
                "false"
            });
        }
        o.push_str(",\n  \"rates_pm\": [");
        for (i, &r) in self.rates_pm.iter().enumerate() {
            if i > 0 {
                o.push_str(", ");
            }
            num(&mut o, u64::from(r));
        }
        o.push_str("],\n  \"points\": [");
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str("\n    {\"mode\": \"");
            o.push_str(p.mode.key());
            o.push_str("\", \"op\": \"");
            o.push_str(p.op.key());
            o.push_str("\", \"rate_pm\": ");
            num(&mut o, u64::from(p.rate_pm));
            o.push_str(", \"rounds_done\": ");
            num(&mut o, u64::from(p.rounds_done));
            o.push_str(", \"cycles\": ");
            num(&mut o, p.cycles);
            o.push_str(", \"lat_mean_x100\": ");
            opt(&mut o, p.lat_mean_x100);
            o.push_str(", \"lat_min\": ");
            opt(&mut o, p.lat_min);
            o.push_str(", \"lat_max\": ");
            opt(&mut o, p.lat_max);
            o.push_str(", \"fabric_delivered\": ");
            num(&mut o, p.fabric_delivered);
            o.push_str(", \"inflight_mean_x100\": ");
            num(&mut o, p.inflight_mean_x100);
            o.push_str(", \"inflight_max\": ");
            num(&mut o, p.inflight_max);
            o.push_str(", \"deferred\": ");
            num(&mut o, p.deferred);
            o.push_str(", \"wrong_results\": ");
            num(&mut o, p.wrong_results);
            o.push_str(", \"combined\": ");
            num(&mut o, p.combined);
            o.push_str(", \"forwarded_up\": ");
            num(&mut o, p.forwarded_up);
            o.push_str(", \"fanned_down\": ");
            num(&mut o, p.fanned_down);
            o.push('}');
        }
        if !self.points.is_empty() {
            o.push_str("\n  ");
        }
        o.push_str("]\n}\n");
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CollStormConfig {
        let mut c = CollStormConfig::new(Topology::new(4, 4));
        c.rounds = 8;
        c.max_cycles = 40_000;
        c
    }

    #[test]
    fn nic_point_completes_all_rounds_with_correct_results() {
        for op in CollectiveOp::ALL {
            let p = run_coll_point(CollMode::Nic, op, 0, &cfg());
            assert_eq!(p.rounds_done, 8, "{op:?}: {p:?}");
            assert_eq!(p.wrong_results, 0, "{op:?}: {p:?}");
            assert!(p.lat_mean_x100.is_some());
            assert!(p.combined > 0, "combines happen at interfaces: {p:?}");
            assert!(p.forwarded_up > 0 && p.fanned_down > 0, "{p:?}");
        }
    }

    #[test]
    fn soft_point_completes_all_rounds_with_correct_results() {
        for op in CollectiveOp::ALL {
            let p = run_coll_point(CollMode::Soft, op, 0, &cfg());
            assert_eq!(p.rounds_done, 8, "{op:?}: {p:?}");
            assert_eq!(p.wrong_results, 0, "{op:?}: {p:?}");
            assert_eq!(
                (p.combined, p.forwarded_up, p.fanned_down),
                (0, 0, 0),
                "no engine in software mode"
            );
        }
    }

    #[test]
    fn nic_combining_beats_the_flat_software_gather() {
        // The headline claim at 4×4; the 16×16 version is pinned by the
        // root-level collectives test.
        for op in [CollectiveOp::Barrier, CollectiveOp::Sum] {
            let nic = run_coll_point(CollMode::Nic, op, 0, &cfg());
            let soft = run_coll_point(CollMode::Soft, op, 0, &cfg());
            assert!(
                nic.lat_mean_x100 < soft.lat_mean_x100,
                "{op:?}: nic {:?} vs soft {:?}",
                nic.lat_mean_x100,
                soft.lat_mean_x100
            );
        }
    }

    #[test]
    fn storm_rate_defers_instead_of_stacking() {
        let mut c = cfg();
        c.rounds = 4;
        // 500 per-mille fires a round every 2 cycles — far faster than a
        // 16-node collective completes, so fires must be deferred.
        let p = run_coll_point(CollMode::Nic, CollectiveOp::Barrier, 500, &c);
        assert_eq!(p.rounds_done, 4);
        assert!(p.deferred > 0, "{p:?}");
    }

    #[test]
    fn points_are_deterministic() {
        let go = |mode| run_coll_point(mode, CollectiveOp::Min, 10, &cfg());
        assert_eq!(go(CollMode::Nic), go(CollMode::Nic));
        assert_eq!(go(CollMode::Soft), go(CollMode::Soft));
    }

    #[test]
    fn collectives_survive_a_faulty_fabric_under_the_protocol() {
        let mut c = cfg();
        c.rounds = 4;
        c.fault_pm = 30;
        c.delivery = true;
        for mode in CollMode::BOTH {
            let p = run_coll_point(mode, CollectiveOp::Sum, 0, &c);
            assert_eq!(p.rounds_done, 4, "{mode:?}: {p:?}");
            assert_eq!(p.wrong_results, 0, "{mode:?}: {p:?}");
        }
    }

    #[test]
    #[should_panic(expected = "needs the delivery protocol")]
    fn faults_without_the_protocol_are_rejected() {
        let mut c = cfg();
        c.fault_pm = 50;
        run_coll_point(CollMode::Nic, CollectiveOp::Barrier, 0, &c);
    }

    #[test]
    fn collectives_complete_on_every_switched_topology() {
        // The NIC engine rides whatever tree matches the fabric — grid on
        // mesh, wrap-aware grid on torus, star on ring/full — and every
        // one of them finishes its rounds with bit-correct results.
        for fabric in [Fabric::Mesh, Fabric::Torus, Fabric::Ring, Fabric::Full] {
            let mut c = cfg();
            c.fabric = fabric;
            c.rounds = 4;
            for mode in CollMode::BOTH {
                let p = run_coll_point(mode, CollectiveOp::Sum, 0, &c);
                assert_eq!(p.rounds_done, 4, "{fabric:?}/{mode:?}: {p:?}");
                assert_eq!(p.wrong_results, 0, "{fabric:?}/{mode:?}: {p:?}");
            }
        }
    }

    #[test]
    fn torus_collective_storm_survives_faults() {
        // The ISSUE acceptance point: an 8×8 torus collective storm under
        // 25‰ uniform faults (with the delivery protocol) never reports a
        // wrong result.
        let mut c = CollStormConfig::new(Topology::new(8, 8));
        c.fabric = Fabric::Torus;
        c.rounds = 4;
        c.max_cycles = 100_000;
        c.fault_pm = 25;
        c.delivery = true;
        for op in [CollectiveOp::Barrier, CollectiveOp::Sum] {
            let p = run_coll_point(CollMode::Nic, op, 0, &c);
            assert_eq!(p.rounds_done, 4, "{op:?}: {p:?}");
            assert_eq!(p.wrong_results, 0, "{op:?}: {p:?}");
            assert!(p.combined > 0, "combining happened in-network: {p:?}");
        }
    }

    #[test]
    fn non_mesh_reports_carry_the_fabric_key() {
        let mut c = cfg();
        c.fabric = Fabric::Torus;
        c.rounds = 2;
        let rates = vec![0];
        let points = run_coll_sweep(&[CollectiveOp::Barrier], &rates, &c);
        let report = CollReport {
            config: c,
            rates_pm: rates,
            points,
        };
        assert!(report.to_json().contains("\"fabric\": \"torus\""));
    }

    #[test]
    fn report_json_is_versioned_and_balanced() {
        let mut c = cfg();
        c.rounds = 2;
        let rates = vec![0];
        let points = run_coll_sweep(&[CollectiveOp::Barrier], &rates, &c);
        assert_eq!(points.len(), 2, "one per mode");
        let report = CollReport {
            config: c,
            rates_pm: rates,
            points,
        };
        let json = report.to_json();
        assert!(json.starts_with("{\n  \"schema\": \"tcni-coll/1\""));
        assert!(json.contains("\"mode\": \"nic\""));
        assert!(json.contains("\"mode\": \"soft\""));
        assert!(json.contains("\"op\": \"barrier\""));
        assert!(json.contains("\"lat_mean_x100\": "));
        assert!(!json.contains("fault_pm"), "fault-free runs omit the axis");
        assert!(
            !json.contains("\"fabric\""),
            "mesh runs omit the fabric key"
        );
        assert!(json.ends_with("]\n}\n"));
        let depth: i64 = json
            .chars()
            .map(|ch| match ch {
                '{' | '[' => 1,
                '}' | ']' => -1,
                _ => 0,
            })
            .sum();
        assert_eq!(depth, 0);
        assert_eq!(json, report.to_json(), "serialization is deterministic");
    }

    /// Drives one storm to its end in random chunks: through the activity
    /// path (checking the machine's invariants after every cycle), or —
    /// `full` — through a closure around `on_cycle`, which takes the
    /// provided full-visit fallback. Returns every observable.
    fn drive<D: CycleDriver + std::fmt::Debug>(
        mut m: Machine,
        mut d: D,
        full: bool,
        chunk_seed: u64,
    ) -> String {
        let mut chunks = tcni_check::Rng::new(chunk_seed);
        'run: while m.cycle() < 20_000 {
            let k = 1 + chunks.below(50);
            if full {
                let mut f = |c: u64, n: &mut [Node]| d.on_cycle(c, n);
                if m.run_driven(&mut f, k) == RunOutcome::DriverStopped {
                    break;
                }
                continue;
            }
            for _ in 0..k {
                let outcome = m.run_driven(&mut d, 1);
                m.check_invariants()
                    .unwrap_or_else(|e| panic!("cycle {}: {e}", m.cycle()));
                if outcome == RunOutcome::DriverStopped {
                    break 'run;
                }
            }
        }
        format!(
            "{d:?}\ncycle {} {:?} {:?} {:?} {:?}",
            m.cycle(),
            m.net_stats(),
            m.net_stats().scan,
            m.collective_stats(),
            m.delivery_stats()
        )
    }

    /// Both storm drivers visit only the nodes with input waiting or a
    /// backlog to send; they must match the full-visit path exactly, on
    /// every fabric, with and without faults.
    #[test]
    fn storm_drivers_match_the_full_visit_path() {
        tcni_check::check("storm_drivers_match_the_full_visit_path", 24, |rng| {
            let side = 2 + rng.index(4);
            let mut cfg = CollStormConfig::new(Topology::new(side, side));
            cfg.fabric = *rng.pick(&[
                Fabric::Ideal { latency: 2 },
                Fabric::Mesh,
                Fabric::Torus,
                Fabric::Ring,
                Fabric::Full,
            ]);
            cfg.seed = rng.u64();
            cfg.rounds = 3;
            if rng.bool() {
                cfg.fault_pm = 25;
                cfg.delivery = true;
            }
            let op = *rng.pick(&CollectiveOp::ALL);
            let rate = *rng.pick(&[0, 5, 50]);
            let chunk_seed = rng.u64();
            let nodes = cfg.topo.nodes();
            for mode in [CollMode::Nic, CollMode::Soft] {
                let run = |full: bool| {
                    let m = build_machine(mode, &cfg);
                    let storm = Storm::new(op, cfg.seed, rate, cfg.rounds, nodes);
                    match mode {
                        CollMode::Nic => drive(m, NicDriver { storm }, full, chunk_seed),
                        CollMode::Soft => {
                            let d = SoftDriver::new(storm, m.wire_format());
                            drive(m, d, full, chunk_seed)
                        }
                    }
                };
                assert_eq!(run(false), run(true), "{mode:?} {op:?} rate {rate} {cfg:?}");
            }
        });
    }
}
