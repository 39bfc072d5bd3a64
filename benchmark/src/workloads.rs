//! The four workloads and the pass loop that measures them.
//!
//! A run first builds its workload back to back, [`SETUPS`] times and for
//! at least [`SETUP_TIME`], timing each build and dropping it: `setup_s` is
//! their median (the first build also pays the kernel's first touch of the
//! process's memory). It then repeats *passes* until its time budget is
//! spent, at least [`MIN_PASSES`] of them, rotating through the pass kinds.
//! Every pass rebuilds the workload from the seed and replays the same
//! simulated schedule:
//!
//! 1. warm-up (driven meshes only, untimed);
//! 2. segment 1: timed windows at one worker; a traced pass wraps them in
//!    spans;
//! 3. segment 2: timed windows at two workers in a sharded pass and at one
//!    worker otherwise.
//!
//! Interference from other work on the host only ever adds time, so each
//! rate takes every window's fastest repetition across passes
//! ([`best_rate`]): `cycles_per_s` over segment 1, `cycles_per_s_w2` and
//! `util.w2_slowdown` over segment 2.
//!
//! Because the schedule is fixed, every pass must end with the same
//! simulated outputs whatever its worker count or tracing: the first
//! pass's fingerprint is the reference the later ones are checked against,
//! and the one compared with `expected.txt`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use tcni_bench::obs_run::ring_machine;
use tcni_core::CollectiveOp;
use tcni_cpu::CpuStats;
use tcni_isa::CostClass;
use tcni_net::{FabricConfig, FaultConfig, NetStats};
use tcni_sim::{DeliveryConfig, DeliveryStats, Machine, MachineBuilder, Model, RunOutcome};
use tcni_util::par::set_threads;
use tcni_workload::{
    run_coll_point, CollMode, CollPoint, CollStormConfig, InjectCounters, Injector, InjectorConfig,
    LoopMode, Pattern, Topology,
};

use crate::checks::{check_expected, Checks, Fingerprint, EXPECTED};
use crate::stats::{median, percentile, tail_percentile};
use crate::trace::{SpanLog, TimedDriver};

/// Back-to-back set-ups a run times at least, and for at least how long.
const SETUPS: usize = 5;
const SETUP_TIME: Duration = Duration::from_secs(1);

/// Passes a run makes whatever its budget.
const MIN_PASSES: usize = 3;

/// How a run is sized.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// Workload seed.
    pub seed: u64,
    /// Time budget of the run; passes beyond the first [`MIN_PASSES`] start
    /// only while it lasts.
    pub seconds: f64,
    /// Whether the rotation includes a traced pass.
    pub trace: bool,
    /// Scaled-down schedules, the minimum of passes and set-ups, invariant
    /// checks only.
    pub quick: bool,
}

/// What one workload run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Every metric the workload measured, by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Correctness checks.
    pub checks: Checks,
    /// Spans of the traced passes (empty unless tracing).
    pub spans: SpanLog,
}

/// Runs the named workload.
pub fn run(name: &str, s: &Settings) -> Option<Outcome> {
    let mut bench: Box<dyn Workload> = match name {
        "mesh128_sparse" => Box::new(Mesh::new(
            "mesh128_sparse",
            128,
            None,
            [1_000, 20, 100, 25],
            s,
        )),
        "mesh64_e2e_faulty" => Box::new(Mesh::new(
            "mesh64_e2e_faulty",
            64,
            Some(10),
            [2_000, 40, 100, 25],
            s,
        )),
        "ring16_isa" => Box::new(Ring::new(s)),
        "coll16_storm" => Box::new(Coll::new(s)),
        _ => return None,
    };
    let mut out = Outcome {
        values: BTreeMap::new(),
        checks: Checks::default(),
        spans: SpanLog::new(),
    };
    let mut samples = Samples::default();
    let start = Instant::now();
    set_threads(1);
    // Set-ups run before any pass: a build after a pass reuses memory the
    // allocator kept from it and skips the page faults a fresh process pays
    // (0.14 s against 0.55 s on mesh128_sparse).
    loop {
        samples.setup_s.push(bench.setup().as_secs_f64());
        let enough = samples.setup_s.len() >= SETUPS && start.elapsed() >= SETUP_TIME;
        if s.quick || enough {
            break;
        }
    }
    rotate(name, s, start, bench.as_mut(), &mut samples, &mut out);
    samples.finish(bench.nodes(), &mut out.values);
    Some(out)
}

/// The kinds of pass, in rotation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    /// Segment 2 at two workers.
    Sharded,
    /// Segment 2 at one worker.
    Serial,
    /// A serial pass whose segment 1 is traced.
    Traced,
}

impl Pass {
    fn seg2_workers(self) -> usize {
        match self {
            Pass::Sharded => 2,
            Pass::Serial | Pass::Traced => 1,
        }
    }
}

/// A workload as the pass loop drives it.
trait Workload {
    /// Nodes of the simulated machine.
    fn nodes(&self) -> usize;

    /// Builds the workload, up to its first simulated cycle, and drops it;
    /// returns the build time.
    fn setup(&self) -> Duration;

    /// Runs one pass and returns the fingerprint of its simulated outputs.
    /// The first pass also reports the workload's simulated results and
    /// per-layer counts into `values`.
    fn pass(&mut self, pass: Pass, first: bool, cx: &mut Cx<'_>) -> Fingerprint;
}

/// What a pass records into.
struct Cx<'a> {
    samples: &'a mut Samples,
    values: &'a mut BTreeMap<&'static str, f64>,
    checks: &'a mut Checks,
    log: &'a mut SpanLog,
}

/// Repeats passes: [`MIN_PASSES`] of them, then more while the last pass
/// of the next kind predicts that one more fits in the budget, which
/// counts from `start`.
fn rotate(
    name: &str,
    s: &Settings,
    start: Instant,
    bench: &mut dyn Workload,
    samples: &mut Samples,
    out: &mut Outcome,
) {
    // Under tracing every other pass is traced, so the traced and the
    // untraced windows that `trace.overhead` compares are as many and as
    // spread out in time.
    let rotation: &[Pass] = if s.trace {
        &[Pass::Sharded, Pass::Traced, Pass::Serial, Pass::Traced]
    } else {
        &[Pass::Sharded, Pass::Serial]
    };
    let budget = Duration::from_secs_f64(s.seconds);
    let mut last = [Duration::ZERO; 3];
    let mut reference: Option<Fingerprint> = None;
    let min_passes = MIN_PASSES.max(rotation.len());
    for (i, &kind) in rotation.iter().cycle().enumerate() {
        if i >= min_passes && (s.quick || start.elapsed() + last[kind as usize] > budget) {
            break;
        }
        let t = Instant::now();
        samples.start_pass(kind);
        let mut cx = Cx {
            samples: &mut *samples,
            values: &mut out.values,
            checks: &mut out.checks,
            log: &mut out.spans,
        };
        let fp = bench.pass(kind, i == 0, &mut cx);
        last[kind as usize] = t.elapsed();
        match &reference {
            None => {
                if !s.quick && !check_expected(&mut out.checks, EXPECTED, name, s.seed, &fp) {
                    eprintln!("# no stored expectation for {name} at seed {}", s.seed);
                }
                if s.seed == 1 && !s.quick {
                    eprint!("{}", fp.lines(name, "1"));
                }
                reference = Some(fp);
            }
            Some(r) => out.checks.check(
                fp == *r,
                format!("{name}: {kind:?} pass {i} differs from pass 0's simulated outputs"),
            ),
        }
    }
}

/// One timed window.
#[derive(Debug, Clone, Copy)]
struct Window {
    ns: u64,
    driver_ns: u64,
    cycles: u64,
}

/// Simulated cycles per host second over a schedule of windows that every
/// row repeats, taking each window's fastest repetition.
fn best_rate(rows: &[Vec<Window>]) -> Option<f64> {
    let n = rows.iter().map(Vec::len).min().filter(|&n| n > 0)?;
    let (mut ns, mut cycles) = (0u64, 0u64);
    for k in 0..n {
        ns += rows.iter().map(|r| r[k].ns).min()?;
        cycles += rows[0][k].cycles;
    }
    Some(cycles as f64 * 1e9 / ns as f64)
}

/// Host-time samples gathered across passes: one row of windows per pass
/// and segment.
#[derive(Debug, Default)]
struct Samples {
    /// Segment 1 of the untraced passes.
    seg1: Vec<Vec<Window>>,
    /// Segment 1 of the traced passes.
    traced: Vec<Vec<Window>>,
    /// Segment 2 at one worker and at two workers.
    seg2_w1: Vec<Vec<Window>>,
    seg2_w2: Vec<Vec<Window>>,
    /// Set-up times, in seconds.
    setup_s: Vec<f64>,
    /// Host µs per collective round, per traced window.
    us_per_round_nic: Vec<f64>,
    us_per_round_soft: Vec<f64>,
    /// The current pass's kind.
    kind: Option<Pass>,
}

impl Samples {
    fn start_pass(&mut self, kind: Pass) {
        self.kind = Some(kind);
        match kind {
            Pass::Traced => self.traced.push(Vec::new()),
            _ => self.seg1.push(Vec::new()),
        }
        match kind.seg2_workers() {
            1 => self.seg2_w1.push(Vec::new()),
            _ => self.seg2_w2.push(Vec::new()),
        }
    }

    fn row(rows: &mut [Vec<Window>]) -> &mut Vec<Window> {
        rows.last_mut().expect("start_pass opened a row")
    }

    fn seg1(&mut self, w: Window) {
        let rows = match self.kind {
            Some(Pass::Traced) => &mut self.traced,
            _ => &mut self.seg1,
        };
        Samples::row(rows).push(w);
    }

    fn seg2(&mut self, w: Window) {
        let rows = match self.kind.map(Pass::seg2_workers) {
            Some(1) => &mut self.seg2_w1,
            _ => &mut self.seg2_w2,
        };
        Samples::row(rows).push(w);
    }

    /// Derives the host-time metrics. Per-unit costs divide the machine's
    /// time per cycle by the per-cycle work counts the first pass put in
    /// `values`.
    fn finish(&self, nodes: usize, values: &mut BTreeMap<&'static str, f64>) {
        let rate = best_rate(&self.seg1);
        if let Some(r) = rate {
            values.insert("cycles_per_s", r);
            let per_cycle: Vec<f64> = self
                .seg1
                .iter()
                .flatten()
                .map(|w| w.ns as f64 / w.cycles as f64)
                .collect();
            values.insert("cycle_ns_p90", percentile(&per_cycle, 90));
            values.insert("info.seg1_windows", per_cycle.len() as f64);
            // The highest percentile the window count supports (p90 needs
            // 100 windows).
            let tail = tail_percentile(per_cycle.len()).map_or(0.0, f64::from);
            values.insert("info.tail_percentile", tail);
            values.insert("info.passes", (self.seg1.len() + self.traced.len()) as f64);
        }
        if let Some(w2) = best_rate(&self.seg2_w2) {
            values.insert("cycles_per_s_w2", w2);
            if let Some(w1) = best_rate(&self.seg2_w1) {
                values.insert("util.w2_slowdown", w1 / w2);
            }
        }
        if !self.setup_s.is_empty() {
            values.insert("setup_s", median(&self.setup_s));
            values.insert("info.setups", self.setup_s.len() as f64);
        }
        let traced = self.traced.iter().flatten();
        let (ns, driver_ns, cycles) = traced.fold((0, 0, 0), |(a, b, c), w| {
            (a + w.ns, b + w.driver_ns, c + w.cycles)
        });
        if cycles == 0 {
            return;
        }
        let driver = driver_ns as f64 / cycles as f64;
        let machine = (ns - driver_ns) as f64 / cycles as f64;
        values.insert("workload.driver_ns_per_cycle", driver);
        values.insert("sim.machine_ns_per_cycle", machine);
        values.insert("sim.ns_per_node_cycle", machine / nodes as f64);
        values.insert("sim.driver_share", driver_ns as f64 / ns as f64);
        if let (Some(untraced), Some(traced)) = (rate, best_rate(&self.traced)) {
            values.insert("trace.overhead", untraced / traced - 1.0);
        }
        for (per_cycle, cost) in [
            (
                "sim.delivery.flow_probes_per_cycle",
                "sim.delivery.ns_per_probe",
            ),
            (
                "net.scanned_channels_per_cycle",
                "net.ns_per_scanned_channel",
            ),
            ("info.instructions_per_cycle", "cpu.ns_per_instruction"),
        ] {
            if let Some(&work) = values.get(per_cycle).filter(|&&w| w > 0.0) {
                values.insert(cost, machine / work);
            }
        }
        if !self.us_per_round_nic.is_empty() {
            values.insert(
                "sim.collective.host_us_per_round_nic",
                median(&self.us_per_round_nic),
            );
            values.insert(
                "sim.collective.host_us_per_round_soft",
                median(&self.us_per_round_soft),
            );
        }
    }
}

/// Times `build`, dropping what it built after the clock stops.
fn time_build<T>(build: impl FnOnce() -> T) -> Duration {
    let t0 = Instant::now();
    let built = build();
    let d = t0.elapsed();
    drop(built);
    d
}

/// Nanoseconds between two instants.
fn ns(from: Instant, to: Instant) -> u64 {
    (to - from).as_nanos() as u64
}

/// The fabric's simulated outputs: every field that takes part in
/// `NetStats` equality.
fn push_net(fp: &mut Fingerprint, net: &NetStats, in_flight: usize) {
    fp.push("net.injected", net.injected);
    fp.push("net.delivered", net.delivered);
    fp.push("net.inject_refusals", net.inject_refusals);
    fp.push("net.bad_dest", net.bad_dest);
    fp.push("net.total_latency", net.total_latency);
    fp.push("net.blocked_hops", net.blocked_hops);
    fp.push("net.in_flight_hwm", net.in_flight_hwm as u64);
    fp.push("net.in_flight", in_flight as u64);
    for (i, &b) in net.latency_hist.buckets().iter().enumerate() {
        fp.push(format_args!("net.latency_hist.{i}"), b);
    }
    fp.push("net.fault.dropped", net.faults.dropped);
    fp.push("net.fault.duplicated", net.faults.duplicated);
    fp.push("net.fault.corrupted", net.faults.corrupted);
    fp.push("net.fault.stalls", net.faults.stalls);
}

/// The conservation law every fabric keeps, faults included.
fn check_conservation(checks: &mut Checks, name: &str, net: &NetStats, in_flight: usize) {
    checks.check(
        net.injected - net.faults.dropped == net.delivered + in_flight as u64,
        format!(
            "{name}: injected {} - dropped {} != delivered {} + in flight {in_flight}",
            net.injected, net.faults.dropped, net.delivered
        ),
    );
}

/// Layer counts over an interval of the run, from two snapshots of the
/// fabric.
fn net_layer(values: &mut BTreeMap<&'static str, f64>, a: &NetStats, b: &NetStats, cycles: u64) {
    let d = |x: u64, y: u64| (y - x) as f64;
    let injected = d(a.injected, b.injected);
    let refusals = d(a.inject_refusals, b.inject_refusals);
    values.insert("net.injected", injected);
    values.insert("net.delivered", d(a.delivered, b.delivered));
    values.insert("net.inject_refusals", refusals);
    if injected + refusals > 0.0 {
        values.insert("net.refusal_ratio", refusals / (injected + refusals));
    }
    values.insert("net.blocked_hops", d(a.blocked_hops, b.blocked_hops));
    values.insert("net.in_flight_hwm", b.in_flight_hwm as f64);
    values.insert(
        "net.scanned_channels_per_cycle",
        d(a.scan.scanned_channels, b.scan.scanned_channels) / cycles as f64,
    );
    values.insert(
        "net.skipped_work",
        d(a.scan.skipped_work, b.scan.skipped_work),
    );
    values.insert("net.fault.dropped", d(a.faults.dropped, b.faults.dropped));
    values.insert(
        "net.fault.duplicated",
        d(a.faults.duplicated, b.faults.duplicated),
    );
    values.insert(
        "net.fault.corrupted",
        d(a.faults.corrupted, b.faults.corrupted),
    );
    values.insert("net.fault.stalls", d(a.faults.stalls, b.faults.stalls));
}

// ---------------------------------------------------------------------------
// Driven meshes: mesh128_sparse and mesh64_e2e_faulty.

/// Salt separating the fault schedule's seed from the injector's.
const FAULT_SALT: u64 = 0xA076_1D64_78BD_642F;

/// A mesh driven by a uniform open-loop injector at 5/1000 per node, unit
/// service costs, optionally with the delivery protocol over a faulty
/// fabric.
struct Mesh {
    name: &'static str,
    side: usize,
    fault_pm: Option<u32>,
    seed: u64,
    warmup: u64,
    window: u64,
    seg1: usize,
    seg2: usize,
}

/// Everything the mesh checks and reports, at one instant.
struct MeshSnap {
    cycle: u64,
    net: NetStats,
    in_flight: usize,
    del: DeliveryStats,
    inj: InjectCounters,
    backlog: u64,
}

impl Mesh {
    /// A mesh run on the schedule `[warm-up cycles, cycles per window,
    /// segment-1 windows, segment-2 windows]`, or a scaled-down one.
    fn new(
        name: &'static str,
        side: usize,
        fault_pm: Option<u32>,
        schedule: [u64; 4],
        s: &Settings,
    ) -> Mesh {
        let [warmup, window, seg1, seg2] = if s.quick { [20, 5, 4, 2] } else { schedule };
        Mesh {
            name,
            side,
            fault_pm,
            seed: s.seed,
            warmup,
            window,
            seg1: seg1 as usize,
            seg2: seg2 as usize,
        }
    }

    /// Builds the machine and its injector (the timed set-up).
    fn build(&self) -> (Machine, Injector) {
        let mut b = MachineBuilder::new(self.side * self.side)
            .model(Model::ALL_SIX[0])
            .network_fabric(FabricConfig::new(self.side, self.side));
        if let Some(pm) = self.fault_pm {
            b = b
                .network_fault(FaultConfig::uniform(self.seed ^ FAULT_SALT, pm))
                .delivery(DeliveryConfig::default());
        }
        let machine = b.build();
        let mut config = InjectorConfig::new(
            Pattern::Uniform,
            Topology::new(self.side, self.side),
            LoopMode::Open { rate_pm: 5 },
        );
        config.seed = self.seed;
        config.format = machine.wire_format();
        (machine, Injector::new(config))
    }

    fn snap(m: &Machine, inj: &Injector) -> MeshSnap {
        MeshSnap {
            cycle: m.cycle(),
            net: m.net_stats(),
            in_flight: m.net_in_flight(),
            del: m.delivery_stats().unwrap_or_default(),
            inj: inj.counters(),
            backlog: inj.backlog(),
        }
    }

    /// One timed window of `run_driven`, traced as a child of the given
    /// span if any.
    fn window(
        &self,
        m: &mut Machine,
        inj: &mut Injector,
        trace: Option<(&mut SpanLog, usize)>,
    ) -> (Window, RunOutcome) {
        let before = m.cycle();
        let start = Instant::now();
        let (outcome, driver_ns, end) = match trace {
            None => {
                let outcome = m.run_driven(inj, self.window);
                (outcome, 0, Instant::now())
            }
            Some((log, parent)) => {
                let span = log.open("window", start, Some(parent));
                let mut timed = TimedDriver::new(inj, log, span, start);
                let outcome = m.run_driven(&mut timed, self.window);
                let end = Instant::now();
                let driver_ns = timed.finish(end);
                log.close(span, end);
                (outcome, driver_ns, end)
            }
        };
        let w = Window {
            ns: ns(start, end),
            driver_ns,
            cycles: m.cycle() - before,
        };
        (w, outcome)
    }

    /// Simulated results and per-layer counts over segment 1.
    fn report(&self, values: &mut BTreeMap<&'static str, f64>, a: &MeshSnap, b: &MeshSnap) {
        let cycles = b.cycle - a.cycle;
        let hist = b.net.latency_hist.since(&a.net.latency_hist);
        values.insert("sim_latency_p50", hist.percentile(50).unwrap_or(0) as f64);
        values.insert("sim_latency_p99", hist.percentile(99).unwrap_or(0) as f64);
        let unique = if self.fault_pm.is_some() {
            b.del.delivered_unique - a.del.delivered_unique
        } else {
            b.net.delivered - a.net.delivered
        };
        let nodes = (self.side * self.side) as f64;
        values.insert(
            "goodput_pm",
            unique as f64 * 1000.0 / (nodes * cycles as f64),
        );

        let d = |x: u64, y: u64| (y - x) as f64;
        let offered = d(a.inj.offered, b.inj.offered);
        let shed = d(a.inj.shed, b.inj.shed);
        values.insert("workload.offered", offered);
        values.insert("workload.issued", d(a.inj.issued, b.inj.issued));
        values.insert("workload.consumed", d(a.inj.consumed, b.inj.consumed));
        values.insert("workload.shed", shed);
        if offered > 0.0 {
            values.insert("workload.shed_ratio", shed / offered);
        }
        net_layer(values, &a.net, &b.net, cycles);
        if self.fault_pm.is_none() {
            return;
        }
        let (x, y) = (&a.del, &b.del);
        let accepted = d(x.accepted, y.accepted);
        let retransmits = d(x.retransmits, y.retransmits);
        values.insert("sim.delivery.accepted", accepted);
        values.insert("sim.delivery.retransmits", retransmits);
        if accepted > 0.0 {
            values.insert("sim.delivery.retransmit_ratio", retransmits / accepted);
        }
        values.insert(
            "sim.delivery.timeout_rounds",
            d(x.timeout_rounds, y.timeout_rounds),
        );
        values.insert("sim.delivery.acks_sent", d(x.acks_sent, y.acks_sent));
        values.insert(
            "sim.delivery.acks_coalesced",
            d(x.acks_coalesced, y.acks_coalesced),
        );
        values.insert(
            "sim.delivery.dup_suppressed",
            d(x.dup_suppressed, y.dup_suppressed),
        );
        values.insert(
            "sim.delivery.out_of_order_dropped",
            d(x.out_of_order_dropped, y.out_of_order_dropped),
        );
        values.insert(
            "sim.delivery.corrupt_dropped",
            d(x.corrupt_dropped, y.corrupt_dropped),
        );
        values.insert("sim.delivery.abandoned", d(x.abandoned, y.abandoned));
        let (s, t) = (&a.net.scan, &b.net.scan);
        values.insert(
            "sim.delivery.flow_probes_per_cycle",
            d(s.flow_probes, t.flow_probes) / cycles as f64,
        );
        values.insert("sim.delivery.peak_flows", t.peak_flows as f64);
        values.insert("sim.delivery.active_flows", t.active_flows as f64);
        values.insert(
            "sim.delivery.scanned_flows",
            d(s.scanned_flows, t.scanned_flows),
        );
    }

    fn check(&self, checks: &mut Checks, z: &MeshSnap) {
        let name = self.name;
        check_conservation(checks, name, &z.net, z.in_flight);
        checks.check(
            z.net.bad_dest == 0,
            format!("{name}: {} bad_dest", z.net.bad_dest),
        );
        checks.check(
            z.inj.offered == z.inj.shed + z.inj.issued + z.backlog,
            format!(
                "{name}: offered {} != shed {} + issued {} + backlog {}",
                z.inj.offered, z.inj.shed, z.inj.issued, z.backlog
            ),
        );
        if self.fault_pm.is_some() {
            checks.check(
                z.del.delivered_unique + z.del.abandoned <= z.del.accepted,
                format!(
                    "{name}: delivered_unique {} + abandoned {} > accepted {}",
                    z.del.delivered_unique, z.del.abandoned, z.del.accepted
                ),
            );
        }
    }

    fn fingerprint(z: &MeshSnap) -> Fingerprint {
        let mut fp = Fingerprint::default();
        fp.push("cycle", z.cycle);
        push_net(&mut fp, &z.net, z.in_flight);
        let d = &z.del;
        for (k, v) in [
            ("delivery.accepted", d.accepted),
            ("delivery.retransmits", d.retransmits),
            ("delivery.timeout_rounds", d.timeout_rounds),
            ("delivery.acks_sent", d.acks_sent),
            ("delivery.acks_coalesced", d.acks_coalesced),
            ("delivery.acks_received", d.acks_received),
            ("delivery.delivered_unique", d.delivered_unique),
            ("delivery.dup_suppressed", d.dup_suppressed),
            ("delivery.out_of_order_dropped", d.out_of_order_dropped),
            ("delivery.corrupt_dropped", d.corrupt_dropped),
            ("delivery.abandoned", d.abandoned),
            ("inject.offered", z.inj.offered),
            ("inject.shed", z.inj.shed),
            ("inject.issued", z.inj.issued),
            ("inject.consumed", z.inj.consumed),
            ("inject.backlog", z.backlog),
        ] {
            fp.push(k, v);
        }
        fp
    }
}

impl Workload for Mesh {
    fn nodes(&self) -> usize {
        self.side * self.side
    }

    fn setup(&self) -> Duration {
        time_build(|| self.build())
    }

    fn pass(&mut self, pass: Pass, first: bool, cx: &mut Cx<'_>) -> Fingerprint {
        let traced = pass == Pass::Traced;
        set_threads(1);
        let t0 = Instant::now();
        let (mut m, mut inj) = self.build();
        let t1 = Instant::now();
        let outcome = m.run_driven(&mut inj, self.warmup);
        let mut stray = usize::from(outcome != RunOutcome::CycleLimit);
        let t2 = Instant::now();
        let root = traced.then(|| {
            let root = cx.log.open("workload", t0, None);
            cx.log.push("setup", t0, t1, Some(root));
            cx.log.push("warmup", t1, t2, Some(root));
            root
        });

        let base = Mesh::snap(&m, &inj);
        for _ in 0..self.seg1 {
            let trace = root.map(|r| (&mut *cx.log, r));
            let (w, outcome) = self.window(&mut m, &mut inj, trace);
            stray += usize::from(outcome != RunOutcome::CycleLimit);
            cx.samples.seg1(w);
        }
        if let Some(r) = root {
            cx.log.close(r, Instant::now());
        }
        if first {
            self.report(cx.values, &base, &Mesh::snap(&m, &inj));
        }

        set_threads(pass.seg2_workers());
        for _ in 0..self.seg2 {
            let (w, outcome) = self.window(&mut m, &mut inj, None);
            stray += usize::from(outcome != RunOutcome::CycleLimit);
            cx.samples.seg2(w);
        }
        set_threads(1);

        cx.checks.check(
            stray == 0,
            format!(
                "{}: {stray} driven runs ended before their cycle limit",
                self.name
            ),
        );
        let end = Mesh::snap(&m, &inj);
        self.check(cx.checks, &end);
        Mesh::fingerprint(&end)
    }
}

// ---------------------------------------------------------------------------
// ring16_isa: instruction-level CPUs on the optimized on-chip model.

/// `ring_machine(16, 16, k)` run to quiescence in windows of
/// `Machine::run`; segment 1 is the first `seg1` windows, segment 2 the
/// rest of the run.
struct Ring {
    k: u32,
    window: u64,
    seg1: usize,
}

/// Summed processor counters of every node.
fn cpu_sum(m: &Machine) -> CpuStats {
    m.nodes()
        .iter()
        .fold(CpuStats::default(), |acc, n| acc + n.cpu().stats())
}

impl Ring {
    const SIDE: usize = 16;
    /// Windows after which a run that has not gone quiescent is a failure
    /// (ten times what the full-size ring needs).
    const MAX_WINDOWS: usize = 2_000;

    fn new(s: &Settings) -> Ring {
        if s.quick {
            Ring {
                k: 16,
                window: 20,
                seg1: 4,
            }
        } else {
            Ring {
                k: 8_000,
                window: 500,
                seg1: 100,
            }
        }
    }

    /// Runs one window; returns it with the outcome of `Machine::run`.
    fn window(
        &self,
        m: &mut Machine,
        trace: Option<(&mut SpanLog, usize)>,
    ) -> (Window, RunOutcome) {
        let before = m.cycle();
        let start = Instant::now();
        let outcome = m.run(self.window);
        let end = Instant::now();
        if let Some((log, parent)) = trace {
            let span = log.push("window", start, end, Some(parent));
            log.push("machine", start, end, Some(span));
        }
        let w = Window {
            ns: ns(start, end),
            driver_ns: 0,
            cycles: m.cycle() - before,
        };
        (w, outcome)
    }

    fn report(
        values: &mut BTreeMap<&'static str, f64>,
        m: &Machine,
        net0: &NetStats,
        cpu: &CpuStats,
        cycles: u64,
    ) {
        net_layer(values, net0, &m.net_stats(), cycles);
        values.insert("cpu.instructions", cpu.instructions as f64);
        values.insert(
            "info.instructions_per_cycle",
            cpu.instructions as f64 / cycles as f64,
        );
    }
}

impl Workload for Ring {
    fn nodes(&self) -> usize {
        Ring::SIDE * Ring::SIDE
    }

    fn setup(&self) -> Duration {
        time_build(|| ring_machine(Ring::SIDE, Ring::SIDE, self.k))
    }

    fn pass(&mut self, pass: Pass, first: bool, cx: &mut Cx<'_>) -> Fingerprint {
        let traced = pass == Pass::Traced;
        set_threads(1);
        let t0 = Instant::now();
        let mut m = ring_machine(Ring::SIDE, Ring::SIDE, self.k);
        let t1 = Instant::now();
        let root = traced.then(|| {
            let root = cx.log.open("workload", t0, None);
            cx.log.push("setup", t0, t1, Some(root));
            root
        });

        let net0 = m.net_stats();
        let mut outcome = RunOutcome::CycleLimit;
        let mut windows = 0;
        while windows < self.seg1 && outcome == RunOutcome::CycleLimit {
            let trace = root.map(|r| (&mut *cx.log, r));
            let (w, o) = self.window(&mut m, trace);
            cx.samples.seg1(w);
            outcome = o;
            windows += 1;
        }
        if let Some(r) = root {
            cx.log.close(r, Instant::now());
        }
        if first {
            Ring::report(cx.values, &m, &net0, &cpu_sum(&m), m.cycle());
        }

        set_threads(pass.seg2_workers());
        while outcome == RunOutcome::CycleLimit && windows < Ring::MAX_WINDOWS {
            let (w, o) = self.window(&mut m, None);
            cx.samples.seg2(w);
            outcome = o;
            windows += 1;
        }
        set_threads(1);

        let net = m.net_stats();
        let n = self.nodes() as u64;
        cx.checks.check(
            outcome == RunOutcome::Quiescent,
            format!("ring16_isa: run ended {outcome:?}, not Quiescent"),
        );
        cx.checks.check(
            net.delivered == n * u64::from(self.k),
            format!(
                "ring16_isa: delivered {} != 256 * {}",
                net.delivered, self.k
            ),
        );
        cx.checks.check(
            m.nodes().iter().all(|node| node.is_stopped()),
            "ring16_isa: a CPU is still running at quiescence",
        );
        check_conservation(cx.checks, "ring16_isa", &net, m.net_in_flight());
        if first {
            let hist = &net.latency_hist;
            let v = &mut *cx.values;
            v.insert("sim_latency_p50", hist.percentile(50).unwrap_or(0) as f64);
            v.insert("sim_latency_p99", hist.percentile(99).unwrap_or(0) as f64);
            let node_cycles = (n * m.cycle()) as f64;
            v.insert("goodput_pm", net.delivered as f64 * 1000.0 / node_cycles);
        }

        let cpu = cpu_sum(&m);
        let mut fp = Fingerprint::default();
        fp.push("cycle", m.cycle());
        fp.push("skipped_cycles", m.skipped_cycles());
        push_net(&mut fp, &net, m.net_in_flight());
        fp.push("cpu.cycles", cpu.cycles);
        fp.push("cpu.instructions", cpu.instructions);
        fp.push("cpu.operand_stalls", cpu.operand_stalls);
        fp.push("cpu.env_stalls", cpu.env_stalls);
        for (key, c) in [
            ("compute", CostClass::Compute),
            ("dispatch", CostClass::Dispatch),
            ("comm", CostClass::Communication),
        ] {
            fp.push(format_args!("cpu.{key}.cycles"), cpu.class(c).cycles);
            fp.push(
                format_args!("cpu.{key}.instructions"),
                cpu.class(c).instructions,
            );
        }
        fp
    }
}

// ---------------------------------------------------------------------------
// coll16_storm: the combining engine against the software baseline.

/// Back-to-back `Sum` storms on a 16×16 mesh through `run_coll_point`. A
/// window is one NIC-mode storm then one software-mode storm of `rounds`
/// rounds each; set-up is a zero-round point of each mode (build plus one
/// cycle), the part of `run_coll_point` that does not scale with rounds.
struct Coll {
    cfg: CollStormConfig,
    seg1: usize,
    seg2: usize,
}

impl Coll {
    fn new(s: &Settings) -> Coll {
        let mut cfg = CollStormConfig::new(Topology::new(16, 16));
        cfg.seed = s.seed;
        cfg.radix = 4;
        let (rounds, seg1, seg2) = if s.quick { (2, 2, 1) } else { (50, 25, 4) };
        cfg.rounds = rounds;
        Coll { cfg, seg1, seg2 }
    }

    fn window(&self, trace: Option<(&mut SpanLog, usize)>) -> (Window, [CollPoint; 2], [u64; 2]) {
        let t0 = Instant::now();
        let nic = run_coll_point(CollMode::Nic, CollectiveOp::Sum, 0, &self.cfg);
        let t1 = Instant::now();
        let soft = run_coll_point(CollMode::Soft, CollectiveOp::Sum, 0, &self.cfg);
        let t2 = Instant::now();
        if let Some((log, parent)) = trace {
            let span = log.push("window", t0, t2, Some(parent));
            log.push("coll_nic", t0, t1, Some(span));
            log.push("coll_soft", t1, t2, Some(span));
        }
        let w = Window {
            ns: ns(t0, t2),
            driver_ns: 0,
            cycles: nic.cycles + soft.cycles,
        };
        (w, [nic, soft], [ns(t0, t1), ns(t1, t2)])
    }

    fn report(&self, values: &mut BTreeMap<&'static str, f64>, [nic, soft]: &[CollPoint; 2]) {
        // Pooled over both modes, the round latencies put p50 among the NIC
        // rounds and p99 among the software rounds; each point's slowest
        // round bounds them from above (the histogram's convention).
        values.insert("sim_latency_p50", nic.lat_max.unwrap_or(0) as f64);
        values.insert("sim_latency_p99", soft.lat_max.unwrap_or(0) as f64);
        let rounds = f64::from(nic.rounds_done + soft.rounds_done);
        values.insert(
            "goodput_pm",
            rounds * 1000.0 / (nic.cycles + soft.cycles) as f64,
        );
        values.insert("sim.collective.combined", nic.combined as f64);
        values.insert("sim.collective.forwarded_up", nic.forwarded_up as f64);
        values.insert("sim.collective.fanned_down", nic.fanned_down as f64);
        values.insert(
            "sim.collective.deferred",
            (nic.deferred + soft.deferred) as f64,
        );
        values.insert("sim.collective.rounds_done", rounds);
        let mean = |p: &CollPoint| p.lat_mean_x100.unwrap_or(0) as f64 / 100.0;
        values.insert("sim.collective.round_cycles_nic", mean(nic));
        values.insert("sim.collective.round_cycles_soft", mean(soft));
        values.insert(
            "net.delivered",
            (nic.fabric_delivered + soft.fabric_delivered) as f64,
        );
    }

    fn fingerprint(points: &[CollPoint; 2]) -> Fingerprint {
        let mut fp = Fingerprint::default();
        for p in points {
            let mode = p.mode.key();
            let opt = |v: Option<u64>| v.unwrap_or(u64::MAX);
            for (k, v) in [
                ("rounds_done", u64::from(p.rounds_done)),
                ("cycles", p.cycles),
                ("lat_mean_x100", opt(p.lat_mean_x100)),
                ("lat_min", opt(p.lat_min)),
                ("lat_max", opt(p.lat_max)),
                ("fabric_delivered", p.fabric_delivered),
                ("inflight_mean_x100", p.inflight_mean_x100),
                ("inflight_max", p.inflight_max),
                ("deferred", p.deferred),
                ("wrong_results", p.wrong_results),
                ("combined", p.combined),
                ("forwarded_up", p.forwarded_up),
                ("fanned_down", p.fanned_down),
            ] {
                fp.push(format_args!("{mode}.{k}"), v);
            }
        }
        fp
    }
}

impl Workload for Coll {
    fn nodes(&self) -> usize {
        self.cfg.topo.nodes()
    }

    /// A zero-round point of each mode: `run_coll_point` builds the
    /// machine, runs one cycle and stops.
    fn setup(&self) -> Duration {
        let zero = CollStormConfig {
            rounds: 0,
            ..self.cfg
        };
        let t0 = Instant::now();
        for mode in CollMode::BOTH {
            run_coll_point(mode, CollectiveOp::Sum, 0, &zero);
        }
        t0.elapsed()
    }

    fn pass(&mut self, pass: Pass, first: bool, cx: &mut Cx<'_>) -> Fingerprint {
        let traced = pass == Pass::Traced;
        set_threads(1);
        let root = traced.then(|| cx.log.open("workload", Instant::now(), None));

        let mut reference: Option<[CollPoint; 2]> = None;
        let mut differing = 0;
        let mut keep = |points: [CollPoint; 2]| match &reference {
            None => reference = Some(points),
            Some(r) => differing += usize::from(*r != points),
        };
        for _ in 0..self.seg1 {
            let trace = root.map(|r| (&mut *cx.log, r));
            let (w, points, [nic_ns, soft_ns]) = self.window(trace);
            cx.samples.seg1(w);
            if traced {
                let per_round = 1e3 * f64::from(self.cfg.rounds);
                cx.samples.us_per_round_nic.push(nic_ns as f64 / per_round);
                cx.samples
                    .us_per_round_soft
                    .push(soft_ns as f64 / per_round);
            }
            keep(points);
        }
        if let Some(r) = root {
            cx.log.close(r, Instant::now());
        }
        set_threads(pass.seg2_workers());
        for _ in 0..self.seg2 {
            let (w, points, _) = self.window(None);
            cx.samples.seg2(w);
            keep(points);
        }
        set_threads(1);

        let points = reference.expect("a pass runs at least one window");
        cx.checks.check(
            differing == 0,
            format!("coll16_storm: {differing} storms differ from the pass's first"),
        );
        for p in &points {
            let mode = p.mode.key();
            cx.checks.check(
                p.wrong_results == 0,
                format!("coll16_storm {mode}: {} wrong results", p.wrong_results),
            );
            cx.checks.check(
                p.rounds_done == self.cfg.rounds,
                format!(
                    "coll16_storm {mode}: {} of {} rounds",
                    p.rounds_done, self.cfg.rounds
                ),
            );
        }
        if first {
            self.report(cx.values, &points);
        }
        Coll::fingerprint(&points)
    }
}
