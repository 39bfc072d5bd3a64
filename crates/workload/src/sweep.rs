//! Offered-load sweeps and saturation detection.
//!
//! A *point* is one steady-state measurement: build a machine, drive it with
//! an [`Injector`] through a warmup, then measure a fixed window and report
//! the window's delivered throughput, latency percentiles (from the fabric's
//! power-of-two histogram, [`LatencyHist::since`]-differenced against the
//! warmup snapshot) and queue residency. A *curve* walks the load axis —
//! offered rate for open loop, window size for closed loop — and marks the
//! saturation point.
//!
//! **Saturation rule** (documented in `EXPERIMENTS.md`). Point *i* is
//! saturated when either:
//!
//! * *Shedding* (open loop only) — at least 10% of the window's offers were
//!   shed at full backlogs: the generator could not even hand the traffic to
//!   the interface, which happens when the per-model processor occupancy is
//!   the bottleneck (the fabric itself may stay uncongested); or
//! * *Plateau and divergence*, measured against point *i−1* and the curve's
//!   first point — the marginal delivered count is less than half the
//!   marginal offered count (open loop; closed loop: doubling the window
//!   improves delivered count by less than 10%), **and** p99 latency or
//!   peak queue residency is at least 4× the first (uncongested) point's
//!   value.
//!
//! The conjunction in the second arm avoids both false positives (a plateau
//! caused by a pattern running out of destinations, with latency flat) and
//! false negatives (latency creep while throughput still scales); the
//! shedding arm catches processor-bound saturation the fabric never sees.

use tcni_net::{FabricConfig, FaultConfig, LatencyHist, NetStats};
use tcni_sim::{DeliveryConfig, DeliveryStats, Machine, MachineBuilder, Model};

use crate::inject::{InjectCounters, Injector, InjectorConfig, LoopMode, ServiceCosts};
use crate::pattern::{Pattern, Topology};

/// Which fabric a sweep cell instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fabric {
    /// The ideal fixed-latency network.
    Ideal {
        /// Constant fabric latency in cycles.
        latency: u64,
    },
    /// The 2-D wormhole mesh with finite buffers and backpressure.
    Mesh,
    /// The wrap-around 2-D torus (same grid, dateline-disciplined wrap
    /// links).
    Torus,
    /// The bidirectional ring over `width × height` nodes.
    Ring,
    /// The fully-connected fabric: every pair one hop apart.
    Full,
}

/// The ideal fabric's default latency for sweeps (matches the paper's
/// assumed low-latency network).
pub const DEFAULT_IDEAL_LATENCY: u64 = 2;

impl Fabric {
    /// Both fabrics, sweep default order.
    pub const BOTH: [Fabric; 2] = [
        Fabric::Ideal {
            latency: DEFAULT_IDEAL_LATENCY,
        },
        Fabric::Mesh,
    ];

    /// Short machine-readable name (stable; used in `tcni-load/1` output).
    pub fn key(&self) -> &'static str {
        match self {
            Fabric::Ideal { .. } => "ideal",
            Fabric::Mesh => "mesh",
            Fabric::Torus => "torus",
            Fabric::Ring => "ring",
            Fabric::Full => "full",
        }
    }

    /// Parses a fabric name as accepted by the `loadgen` CLI: `ideal`,
    /// `ideal:N` (explicit latency), or a switched topology — `mesh`,
    /// `torus`, `ring`, `full`.
    pub fn parse(s: &str) -> Option<Fabric> {
        Some(match s {
            "ideal" => Fabric::Ideal {
                latency: DEFAULT_IDEAL_LATENCY,
            },
            "mesh" => Fabric::Mesh,
            "torus" => Fabric::Torus,
            "ring" => Fabric::Ring,
            "full" => Fabric::Full,
            _ => Fabric::Ideal {
                latency: s.strip_prefix("ideal:")?.parse().ok()?,
            },
        })
    }
}

/// Sweep parameters shared by every cell of a run.
#[derive(Debug, Clone, Copy)]
pub struct SweepConfig {
    /// Node grid (and mesh geometry).
    pub topo: Topology,
    /// Master seed.
    pub seed: u64,
    /// Cycles run (and discarded) before the measurement window.
    pub warmup: u64,
    /// Measurement-window length in cycles.
    pub measure: u64,
    /// Residency samples taken across the window (≥ 1).
    pub samples: u32,
    /// Per-node injector backlog bound.
    pub backlog_limit: usize,
    /// Uniform fault rate applied to every fault kind (drop, duplicate,
    /// corrupt, stall) in per-mille; `0` leaves the fabric unwrapped and the
    /// run bit-identical to a pre-fault sweep. Nonzero rates require
    /// [`delivery`](Self::delivery) — without the protocol a corrupted or
    /// dropped message breaks the injector's request/reply bookkeeping.
    pub fault_pm: u32,
    /// Whether the machine runs the end-to-end delivery protocol.
    pub delivery: bool,
    /// Replace the per-model Table-1 service costs with
    /// [`ServiceCosts::unit`]: every send/receive occupies the node for one
    /// cycle, so the *fabric* is the only bottleneck. This is the topology
    /// sensitivity mode — on the paper models the processor occupancy caps
    /// per-node throughput well below any 16×16 fabric's bisection, hiding
    /// the mesh/torus difference the wrap links create.
    pub unit_costs: bool,
}

impl SweepConfig {
    /// Defaults: 4×4 grid, seed 1, 2000-cycle warmup, 6000-cycle window,
    /// 8 residency samples, backlog 16, Table-1 service costs.
    pub fn new(topo: Topology) -> SweepConfig {
        SweepConfig {
            topo,
            seed: 1,
            warmup: 2000,
            measure: 6000,
            samples: 8,
            backlog_limit: 16,
            fault_pm: 0,
            delivery: false,
            unit_costs: false,
        }
    }
}

/// One steady-state measurement. All quantities cover the measurement
/// window only (warmup excluded); fixed-point fields are scaled integers so
/// the artifact is bit-identical across hosts and thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointStats {
    /// The load-axis value: offered rate in per-mille (open loop) or window
    /// size (closed loop).
    pub load: u32,
    /// Window length in cycles.
    pub cycles: u64,
    /// Messages the load model generated.
    pub offered: u64,
    /// Offers shed at full backlogs (open loop).
    pub shed: u64,
    /// Messages accepted by interface SENDs (includes closed-loop replies).
    pub issued: u64,
    /// Messages the fabric delivered.
    pub delivered: u64,
    /// Messages consumed at receivers.
    pub consumed: u64,
    /// Closed-loop round trips completed.
    pub completed: u64,
    /// Delivered throughput in messages per node per 1000 cycles — the same
    /// unit as the open-loop offered rate, so the two axes are comparable.
    pub delivered_pm: u64,
    /// Mean fabric latency ×100, or `None` if the window delivered nothing.
    pub mean_latency_x100: Option<u64>,
    /// Window latency percentiles (upper-bound-of-bucket convention, see
    /// [`LatencyHist::percentile`]); `None` if the window delivered nothing.
    pub p50: Option<u64>,
    /// 95th percentile.
    pub p95: Option<u64>,
    /// 99th percentile.
    pub p99: Option<u64>,
    /// Mean sampled queue residency ×100 (injector backlogs + interface
    /// queues + fabric in-flight + delivery-protocol buffers).
    pub residency_mean_x100: u64,
    /// Peak sampled queue residency.
    pub residency_max: u64,
    /// Messages the fault layer dropped inside the window (`0` on a
    /// fault-free run).
    pub fault_dropped: u64,
    /// Messages the fault layer duplicated inside the window.
    pub fault_duplicated: u64,
    /// Messages the fault layer corrupted inside the window.
    pub fault_corrupted: u64,
    /// Transient port stalls the fault layer started inside the window.
    pub fault_stalls: u64,
    /// Data copies the delivery protocol queued for retransmission inside
    /// the window (`0` with the protocol off).
    pub retransmits: u64,
    /// Messages the delivery protocol abandoned (retransmit budget spent).
    pub abandoned: u64,
    /// Goodput in messages per node per 1000 cycles: unique in-order
    /// protocol deliveries when the protocol is on (duplicates and
    /// retransmitted copies excluded), otherwise identical to
    /// `delivered_pm`. The fault axis degrades this, not `delivered_pm`.
    pub goodput_pm: u64,
}

/// One throughput–latency curve: a load axis walked upward for a fixed
/// {model, fabric, pattern, loop mode} cell.
#[derive(Debug, Clone)]
pub struct Curve {
    /// The §4 interface model.
    pub model: Model,
    /// The fabric.
    pub fabric: Fabric,
    /// The traffic pattern.
    pub pattern: Pattern,
    /// `"open"` or `"closed"`.
    pub mode: &'static str,
    /// One point per load-axis value, in the order given.
    pub points: Vec<PointStats>,
    /// Index into `points` of the first saturated point, if any (see the
    /// module docs for the rule).
    pub saturation: Option<usize>,
    /// The uniform fault rate this curve ran under (per-mille; `0` =
    /// fault-free).
    pub fault_pm: u32,
    /// Whether the end-to-end delivery protocol was enabled.
    pub delivery: bool,
}

/// Total message-queue residency across the whole machine: generator
/// backlogs, interface input/output queues (and the input registers), and
/// messages inside the fabric.
fn residency(machine: &Machine, injector: &Injector) -> u64 {
    let queues: u64 = machine
        .nodes()
        .iter()
        .map(|n| {
            let ni = n.ni();
            (ni.output_len() + ni.input_len() + usize::from(ni.msg_valid())) as u64
        })
        .sum();
    injector.backlog() + queues + machine.net_in_flight() as u64 + machine.delivery_residency()
}

/// Salt separating the fault layer's fault schedule from the injector's
/// destination draws (both derive from the sweep's master seed).
const FAULT_SEED_SALT: u64 = 0x6C62_272E_07BB_0142;

/// Adds a workload machine's network to `b`: `fabric` over `topo`, then a
/// uniform `fault_pm` fault layer seeded `fault_seed` when `fault_pm > 0`,
/// then the delivery protocol when `delivery` is set. The load sweeps and
/// the collective storms both build through here.
pub(crate) fn with_network(
    b: MachineBuilder,
    topo: Topology,
    fabric: Fabric,
    fault_pm: u32,
    fault_seed: u64,
    delivery: bool,
) -> MachineBuilder {
    let mut b = match fabric {
        Fabric::Ideal { latency } => b.network_ideal(latency),
        Fabric::Mesh => b.network_fabric(FabricConfig::new(topo.width, topo.height)),
        Fabric::Torus => b.network_fabric(FabricConfig::torus(topo.width, topo.height)),
        Fabric::Ring => b.network_fabric(FabricConfig::ring(topo.nodes())),
        Fabric::Full => b.network_fabric(FabricConfig::full(topo.nodes())),
    };
    if fault_pm > 0 {
        b = b.network_fault(FaultConfig::uniform(fault_seed, fault_pm));
    }
    if delivery {
        b = b.delivery(DeliveryConfig::default());
    }
    b
}

/// Runs one steady-state point.
pub fn run_point(
    model: Model,
    fabric: Fabric,
    pattern: Pattern,
    mode: LoopMode,
    sweep: &SweepConfig,
) -> PointStats {
    assert!(
        sweep.fault_pm == 0 || sweep.delivery,
        "a faulty fabric needs the delivery protocol (corrupted or dropped \
         messages break the injector's request/reply bookkeeping)"
    );
    // CPUs halt at once: the injector is the machine's only actor.
    let b = MachineBuilder::new(sweep.topo.nodes()).model(model);
    let (pm, seed) = (sweep.fault_pm, sweep.seed ^ FAULT_SEED_SALT);
    let mut machine = with_network(b, sweep.topo, fabric, pm, seed, sweep.delivery).build();
    let mut injector = Injector::new(InjectorConfig {
        pattern,
        topo: sweep.topo,
        mode,
        seed: sweep.seed,
        backlog_limit: sweep.backlog_limit,
        costs: if sweep.unit_costs {
            ServiceCosts::unit()
        } else {
            ServiceCosts::for_model(model)
        },
        format: machine.wire_format(),
    });
    machine.run_driven(&mut injector, sweep.warmup);
    let base_stats: NetStats = machine.net_stats();
    let base_counts: InjectCounters = injector.counters();
    let base_hist: LatencyHist = base_stats.latency_hist;
    let base_delivery: DeliveryStats = machine.delivery_stats().unwrap_or_default();

    // The measurement window, chopped into residency-sampling chunks.
    let samples = sweep.samples.max(1);
    let chunk = (sweep.measure / u64::from(samples)).max(1);
    let mut run = 0;
    let (mut res_sum, mut res_max, mut res_n) = (0u64, 0u64, 0u64);
    while run < sweep.measure {
        let step = chunk.min(sweep.measure - run);
        machine.run_driven(&mut injector, step);
        run += step;
        let r = residency(&machine, &injector);
        res_sum += r;
        res_max = res_max.max(r);
        res_n += 1;
    }

    let stats = machine.net_stats();
    let counts = injector.counters();
    let hist = stats.latency_hist.since(&base_hist);
    let delivered = stats.delivered - base_stats.delivered;
    let total_latency = stats.total_latency - base_stats.total_latency;
    let faults = stats.faults.since(&base_stats.faults);
    let delivery = machine.delivery_stats().unwrap_or_default();
    let n = sweep.topo.nodes() as u64;
    let per_node_pm = |count: u64| {
        u64::try_from(u128::from(count) * 1000 / u128::from(sweep.measure * n))
            .expect("throughput fits")
    };
    PointStats {
        load: match mode {
            LoopMode::Open { rate_pm } => rate_pm,
            LoopMode::Closed { window } => window,
        },
        cycles: sweep.measure,
        offered: counts.offered - base_counts.offered,
        shed: counts.shed - base_counts.shed,
        issued: counts.issued - base_counts.issued,
        delivered,
        consumed: counts.consumed - base_counts.consumed,
        completed: counts.completed - base_counts.completed,
        delivered_pm: per_node_pm(delivered),
        mean_latency_x100: (delivered > 0).then(|| total_latency * 100 / delivered),
        p50: hist.percentile(50),
        p95: hist.percentile(95),
        p99: hist.percentile(99),
        residency_mean_x100: res_sum * 100 / res_n,
        residency_max: res_max,
        fault_dropped: faults.dropped,
        fault_duplicated: faults.duplicated,
        fault_corrupted: faults.corrupted,
        fault_stalls: faults.stalls,
        retransmits: delivery.retransmits - base_delivery.retransmits,
        abandoned: delivery.abandoned - base_delivery.abandoned,
        goodput_pm: if sweep.delivery {
            per_node_pm(delivery.delivered_unique - base_delivery.delivered_unique)
        } else {
            per_node_pm(delivered)
        },
    }
}

/// Applies the saturation rule (module docs) to a curve's points. `open`
/// selects the open-loop plateau test; the closed-loop test assumes the
/// load axis roughly doubles per point.
pub fn detect_saturation(points: &[PointStats], open: bool) -> Option<usize> {
    let first = points.first()?;
    let p99_floor = first.p99.unwrap_or(0).max(1);
    let res_floor = first.residency_max.max(1);
    for (i, cur) in points.iter().enumerate() {
        if open && cur.offered > 0 && cur.shed * 10 >= cur.offered {
            return Some(i);
        }
        let Some(prev) = i.checked_sub(1).map(|j| &points[j]) else {
            continue;
        };
        let plateau = if open {
            let d_off = cur.offered.saturating_sub(prev.offered);
            let d_del = cur.delivered.saturating_sub(prev.delivered);
            d_off > 0 && 2 * d_del < d_off
        } else {
            // Less than 10% more throughput for a bigger window.
            cur.delivered * 10 < prev.delivered * 11
        };
        let diverged = cur.p99.unwrap_or(0) >= 4 * p99_floor || cur.residency_max >= 4 * res_floor;
        if plateau && diverged {
            return Some(i);
        }
    }
    None
}

/// Walks an open-loop curve: one point per offered rate (per-mille,
/// ascending).
pub fn run_open_curve(
    model: Model,
    fabric: Fabric,
    pattern: Pattern,
    rates_pm: &[u32],
    sweep: &SweepConfig,
) -> Curve {
    let points: Vec<PointStats> = rates_pm
        .iter()
        .map(|&rate_pm| run_point(model, fabric, pattern, LoopMode::Open { rate_pm }, sweep))
        .collect();
    let saturation = detect_saturation(&points, true);
    Curve {
        model,
        fabric,
        pattern,
        mode: "open",
        points,
        saturation,
        fault_pm: sweep.fault_pm,
        delivery: sweep.delivery,
    }
}

/// Walks a closed-loop curve: one point per window size (ascending,
/// conventionally doubling).
pub fn run_closed_curve(
    model: Model,
    fabric: Fabric,
    pattern: Pattern,
    windows: &[u32],
    sweep: &SweepConfig,
) -> Curve {
    let points: Vec<PointStats> = windows
        .iter()
        .map(|&window| run_point(model, fabric, pattern, LoopMode::Closed { window }, sweep))
        .collect();
    let saturation = detect_saturation(&points, false);
    Curve {
        model,
        fabric,
        pattern,
        mode: "closed",
        points,
        saturation,
        fault_pm: sweep.fault_pm,
        delivery: sweep.delivery,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep() -> SweepConfig {
        let mut s = SweepConfig::new(Topology::new(2, 2));
        s.warmup = 500;
        s.measure = 2000;
        s.samples = 4;
        s
    }

    #[test]
    fn light_load_delivers_what_it_offers() {
        let p = run_point(
            Model::ALL_SIX[0],
            Fabric::Ideal { latency: 2 },
            Pattern::Uniform,
            LoopMode::Open { rate_pm: 100 },
            &sweep(),
        );
        assert_eq!(p.offered, 4 * 2000 * 100 / 1000);
        assert_eq!(p.shed, 0);
        // Steady state: the window delivers within a queue-depth of offers.
        assert!(p.delivered + 64 >= p.offered, "{p:?}");
        assert!(p.p50.is_some() && p.p99.is_some());
        assert!(p.p50 <= p.p99);
        assert_eq!(p.delivered_pm, p.delivered * 1000 / (4 * 2000));
    }

    #[test]
    fn open_curve_finds_saturation_on_the_mesh() {
        // basic-off: the shared send+recv occupancy caps per-node capacity
        // well under 100 per-mille; offering up to 800 must saturate.
        let curve = run_open_curve(
            Model::ALL_SIX[5],
            Fabric::Mesh,
            Pattern::Uniform,
            &[20, 200, 500, 800],
            &sweep(),
        );
        assert_eq!(curve.points.len(), 4);
        let sat = curve.saturation.expect("overdriven curve saturates");
        assert!(sat >= 1);
        let s = &curve.points[sat];
        assert!(s.shed > 0 || s.residency_max > curve.points[0].residency_max);
        // The load axis is monotone and throughput never exceeds offers.
        for w in curve.points.windows(2) {
            assert!(w[0].load < w[1].load);
        }
        for p in &curve.points {
            assert!(p.delivered <= p.offered + 64, "{p:?}");
        }
    }

    #[test]
    fn closed_curve_is_self_throttling() {
        let curve = run_closed_curve(
            Model::ALL_SIX[0],
            Fabric::Ideal { latency: 2 },
            Pattern::Neighbor,
            &[1, 2, 4],
            &sweep(),
        );
        for p in &curve.points {
            assert_eq!(p.shed, 0, "closed loop never sheds");
            assert!(p.completed > 0, "round trips complete: {p:?}");
        }
        // Bigger windows never hurt delivered throughput much; the curve is
        // (weakly) increasing until the round-trip pipe is full.
        assert!(curve.points[1].delivered + 16 >= curve.points[0].delivered);
    }

    #[test]
    fn points_are_deterministic() {
        let go = || {
            run_point(
                Model::ALL_SIX[3],
                Fabric::Mesh,
                Pattern::Hotspot { hot_pm: 300 },
                LoopMode::Open { rate_pm: 300 },
                &sweep(),
            )
        };
        assert_eq!(go(), go());
    }

    #[test]
    fn fault_free_points_report_zero_fault_activity() {
        let p = run_point(
            Model::ALL_SIX[0],
            Fabric::Ideal { latency: 2 },
            Pattern::Uniform,
            LoopMode::Open { rate_pm: 100 },
            &sweep(),
        );
        assert_eq!(
            (
                p.fault_dropped,
                p.fault_duplicated,
                p.fault_corrupted,
                p.fault_stalls
            ),
            (0, 0, 0, 0)
        );
        assert_eq!((p.retransmits, p.abandoned), (0, 0));
        assert_eq!(
            p.goodput_pm, p.delivered_pm,
            "no protocol: goodput is throughput"
        );
    }

    #[test]
    fn fault_axis_counts_faults_and_recovers_with_retransmits() {
        let mut s = sweep();
        s.measure = 4000;
        s.fault_pm = 100;
        s.delivery = true;
        for fabric in [Fabric::Ideal { latency: 2 }, Fabric::Mesh] {
            let p = run_point(
                Model::ALL_SIX[0],
                fabric,
                Pattern::Uniform,
                LoopMode::Open { rate_pm: 200 },
                &s,
            );
            let fault_total =
                p.fault_dropped + p.fault_duplicated + p.fault_corrupted + p.fault_stalls;
            assert!(fault_total > 0, "10% fault rates must fire: {p:?}");
            assert!(
                p.retransmits > 0,
                "drops must trigger retransmission: {p:?}"
            );
            assert!(p.goodput_pm > 0, "the protocol still makes progress: {p:?}");
            // Raw fabric deliveries include acks, duplicates, and
            // retransmitted copies; goodput counts none of them.
            assert!(p.goodput_pm < p.delivered_pm, "{p:?}");
        }
    }

    #[test]
    #[should_panic(expected = "needs the delivery protocol")]
    fn faults_without_the_protocol_are_rejected() {
        let mut s = sweep();
        s.fault_pm = 50;
        run_point(
            Model::ALL_SIX[0],
            Fabric::Ideal { latency: 2 },
            Pattern::Uniform,
            LoopMode::Open { rate_pm: 100 },
            &s,
        );
    }

    #[test]
    fn faulty_points_are_deterministic() {
        let go = || {
            let mut s = sweep();
            s.fault_pm = 80;
            s.delivery = true;
            run_point(
                Model::ALL_SIX[0],
                Fabric::Mesh,
                Pattern::Uniform,
                LoopMode::Open { rate_pm: 250 },
                &s,
            )
        };
        assert_eq!(go(), go());
    }

    #[test]
    fn fabric_parse_round_trips() {
        assert_eq!(Fabric::parse("ideal"), Some(Fabric::Ideal { latency: 2 }));
        assert_eq!(Fabric::parse("ideal:7"), Some(Fabric::Ideal { latency: 7 }));
        for (s, f) in [
            ("mesh", Fabric::Mesh),
            ("torus", Fabric::Torus),
            ("ring", Fabric::Ring),
            ("full", Fabric::Full),
        ] {
            assert_eq!(Fabric::parse(s), Some(f));
            assert_eq!(f.key(), s);
        }
        assert_eq!(Fabric::parse("hypercube"), None);
    }

    #[test]
    fn every_switched_topology_sweeps() {
        // The same steady-state point runs on every switched fabric; light
        // uniform load delivers on all of them, deterministically.
        for fabric in [Fabric::Mesh, Fabric::Torus, Fabric::Ring, Fabric::Full] {
            let go = || {
                run_point(
                    Model::ALL_SIX[0],
                    fabric,
                    Pattern::Uniform,
                    LoopMode::Open { rate_pm: 100 },
                    &sweep(),
                )
            };
            let p = go();
            assert!(p.delivered > 0, "{fabric:?} delivers: {p:?}");
            assert_eq!(p.shed, 0, "{fabric:?} light load never sheds");
            assert_eq!(p, go(), "{fabric:?} points are deterministic");
        }
    }
}
