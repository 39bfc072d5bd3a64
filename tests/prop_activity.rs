//! Activity-proportional driven cycles against the full-visit path.
//!
//! [`Machine::run_driven`] calls a driver through
//! [`CycleDriver::on_cycle_active`]: the [`Injector`] then visits only the
//! nodes in the machine's pending set plus the nodes its due-cycle
//! calendar names, and the nodes it sent on join the machine's outgoing
//! set instead of the machine re-deriving its sets from every node. The
//! oracle is the same injector behind a closure,
//! `|c, n| inj.on_cycle(c, n)`: a closure implements only `on_cycle`, so
//! it takes the provided fallback — every node visited, every set rebuilt,
//! each cycle. No switch in the product selects either path.
//!
//! Both machines run the same random schedule of driven chunks (1–50
//! cycles), `run`, `step`, and `node_mut` calls; the activity machine also
//! runs some chunks one cycle at a time and checks
//! [`Machine::check_invariants`] after every one of them (eject-ready set,
//! frontier, the running, outgoing and pending sets against every node,
//! delivery and collective bookkeeping). The pending set stays valid
//! across `run` and `step`, so a driven chunk after them starts from it.
//! The injector counters, network statistics with their scan meters,
//! delivery counters and trace must match byte for byte, across all five
//! patterns, open and closed loop, every fabric, faults with delivery, and
//! unit and Table-1 costs.
//!
//! [`Machine::run_driven`]: tcni::sim::Machine::run_driven
//! [`Machine::check_invariants`]: tcni::sim::Machine::check_invariants
//! [`CycleDriver::on_cycle_active`]: tcni::sim::CycleDriver::on_cycle_active

use tcni::net::{FabricConfig, FaultConfig};
use tcni::sim::{CycleDriver, DeliveryConfig, Machine, MachineBuilder, Model, Node};
use tcni::workload::{
    InjectCounters, Injector, InjectorConfig, LoopMode, Pattern, ServiceCosts, Topology,
};
use tcni_check::{check, Rng};

/// One randomly drawn configuration.
#[derive(Debug, Clone, Copy)]
struct Case {
    topo: Topology,
    /// 0 ideal, 1 mesh, 2 torus, 3 ring, 4 full.
    fabric: u8,
    fault_pm: Option<u32>,
    model: Model,
    config: InjectorConfig,
    traced: bool,
}

fn draw(rng: &mut Rng) -> Case {
    // Mostly small grids; sometimes more than 64 nodes so the bitmaps span
    // several words.
    let side = *rng.pick(&[2usize, 3, 4, 5, 9]);
    let pattern = *rng.pick(&[
        Pattern::Uniform,
        Pattern::Neighbor,
        Pattern::Transpose,
        Pattern::Complement,
        Pattern::Hotspot { hot_pm: 300 },
    ]);
    // Transpose needs a square grid; the others get a ragged one too.
    let height = if pattern == Pattern::Transpose || rng.bool() {
        side
    } else {
        side + 1
    };
    let topo = Topology::new(side, height);
    let mode = if rng.below(3) == 0 {
        LoopMode::Closed {
            window: 1 + rng.below(3) as u32,
        }
    } else {
        LoopMode::Open {
            rate_pm: *rng.pick(&[0, 1, 5, 333, 1000]),
        }
    };
    let model = *rng.pick(&Model::ALL_SIX);
    let mut config = InjectorConfig::new(pattern, topo, mode);
    config.seed = rng.u64();
    config.backlog_limit = 1 + rng.index(6);
    if rng.bool() {
        config.costs = ServiceCosts::for_model(model);
    }
    Case {
        topo,
        fabric: rng.below(5) as u8,
        fault_pm: rng.bool().then(|| *rng.pick(&[10u32, 40])),
        model,
        config,
        traced: rng.below(4) == 0,
    }
}

fn build(c: &Case) -> Machine {
    let (w, h) = (c.topo.width, c.topo.height);
    let n = c.topo.nodes();
    let mut b = MachineBuilder::new(n).model(c.model);
    b = match c.fabric {
        0 => b.network_ideal(2),
        1 => b.network_fabric(FabricConfig::new(w, h)),
        2 => b.network_fabric(FabricConfig::torus(w, h)),
        3 => b.network_fabric(FabricConfig::ring(n)),
        _ => b.network_fabric(FabricConfig::full(n)),
    };
    if let Some(pm) = c.fault_pm {
        b = b
            .network_fault(FaultConfig::uniform(c.config.seed ^ 0xFA17, pm))
            .delivery(DeliveryConfig::default());
    }
    let mut m = b.build();
    if c.traced {
        m.enable_trace(1 << 12);
    }
    m
}

/// One step of the shared schedule.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// A driven chunk; `stepwise` runs it one cycle at a time on the
    /// activity machine, checking invariants after each.
    Driven { cycles: u64, stepwise: bool },
    /// `Machine::run`: with every processor halted it advances only while
    /// protocol traffic settles.
    Run(u64),
    /// `Machine::step`: one undriven cycle (a gap in the driver's cycles).
    Step,
    /// `Machine::node_mut`, consuming the node's current input if any.
    Consume(usize),
}

fn schedule(rng: &mut Rng, nodes: usize) -> Vec<Op> {
    (0..12)
        .map(|_| match rng.below(8) {
            0 => Op::Run(rng.below(20)),
            1 => Op::Step,
            2 => Op::Consume(rng.index(nodes)),
            _ => Op::Driven {
                cycles: 1 + rng.below(50),
                stepwise: rng.bool(),
            },
        })
        .collect()
}

fn apply(m: &mut Machine, op: Op, drive: &mut dyn FnMut(&mut Machine, u64), checked: bool) {
    match op {
        Op::Driven { cycles, stepwise } if stepwise && checked => {
            for _ in 0..cycles {
                drive(m, 1);
                m.check_invariants()
                    .unwrap_or_else(|e| panic!("cycle {}: {e}", m.cycle()));
            }
        }
        Op::Driven { cycles, .. } => drive(m, cycles),
        Op::Run(cycles) => {
            m.run(cycles);
        }
        Op::Step => m.step(),
        Op::Consume(i) => {
            m.node_mut(i).ni_mut().next();
        }
    }
    if checked {
        m.check_invariants()
            .unwrap_or_else(|e| panic!("after {op:?} at cycle {}: {e}", m.cycle()));
    }
}

/// Everything the two paths must agree on.
fn observe(m: &Machine, inj: &Injector) -> String {
    let net = m.net_stats();
    let trace: Vec<String> = m
        .trace()
        .map(|t| t.events().map(|e| format!("{e:?}")).collect())
        .unwrap_or_default();
    format!(
        "cycle {}\ncounters {:?}\nbacklog {} outstanding {}\nnet {net:?}\nscan {:?}\n\
         in flight {}\ndelivery {:?}\ntrace {trace:?}",
        m.cycle(),
        inj.counters(),
        inj.backlog(),
        inj.outstanding(),
        net.scan,
        m.net_in_flight(),
        m.delivery_stats(),
    )
}

fn run_pair(c: &Case, ops: &[Op]) -> (String, String, InjectCounters) {
    let mut active = build(c);
    let mut oracle = build(c);
    let mut inj_a = Injector::new(c.config);
    let mut inj_o = Injector::new(c.config);
    for &op in ops {
        apply(
            &mut active,
            op,
            &mut |m, k| {
                m.run_driven(&mut inj_a, k);
            },
            true,
        );
        apply(
            &mut oracle,
            op,
            &mut |m, k| {
                let mut full = |cycle: u64, nodes: &mut [Node]| inj_o.on_cycle(cycle, nodes);
                m.run_driven(&mut full, k);
            },
            false,
        );
    }
    (
        observe(&active, &inj_a),
        observe(&oracle, &inj_o),
        inj_a.counters(),
    )
}

#[test]
fn activity_path_matches_the_full_visit_path() {
    check("activity_path_matches_the_full_visit_path", 128, |rng| {
        let c = draw(rng);
        let ops = schedule(rng, c.topo.nodes());
        let (active, oracle, _) = run_pair(&c, &ops);
        assert_eq!(active, oracle, "{c:?}\n{ops:?}");
    });
}

/// The sweep must actually exercise the calendar: a long open-loop run at a
/// low rate offers on schedule, with most nodes idle most cycles.
#[test]
fn sparse_open_loop_offers_exactly_on_schedule() {
    let topo = Topology::new(9, 9);
    let mut config = InjectorConfig::new(Pattern::Uniform, topo, LoopMode::Open { rate_pm: 7 });
    config.seed = 3;
    let c = Case {
        topo,
        fabric: 1,
        fault_pm: None,
        model: Model::ALL_SIX[0],
        config,
        traced: true,
    };
    let ops = [Op::Driven {
        cycles: 2000,
        stepwise: false,
    }];
    let (active, oracle, counters) = run_pair(&c, &ops);
    assert_eq!(active, oracle);
    // 81 nodes × 7/1000 × 2000 calls = 1134 offers, exactly.
    assert_eq!(counters.offered, 1134);
    assert!(counters.consumed > 1000, "{counters:?}");
}

/// A driver that implements only `on_cycle` still gets the full refresh.
#[test]
fn closure_drivers_keep_the_fallback() {
    struct Plain(Injector);
    impl CycleDriver for Plain {
        fn on_cycle(&mut self, cycle: u64, nodes: &mut [Node]) -> bool {
            self.0.on_cycle(cycle, nodes)
        }
    }
    let topo = Topology::new(4, 4);
    let config = InjectorConfig::new(Pattern::Neighbor, topo, LoopMode::Open { rate_pm: 200 });
    let c = Case {
        topo,
        fabric: 1,
        fault_pm: None,
        model: Model::ALL_SIX[0],
        config,
        traced: false,
    };
    let mut m = build(&c);
    let mut plain = Plain(Injector::new(config));
    for _ in 0..300 {
        m.run_driven(&mut plain, 1);
        m.check_invariants().unwrap();
    }
    assert!(plain.0.counters().consumed > 0);
}
