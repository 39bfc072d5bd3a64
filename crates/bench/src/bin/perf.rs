//! In-tree performance benches of the simulators (`cargo bench` replacement).
//!
//! Measures machine stepping (cycles/sec), mesh delivery (messages/sec),
//! the 16×16 topology sensitivity points, and the full Table 1 +
//! sensitivity pipeline (wall time, serial vs parallel), and writes the
//! results to `BENCH_simulator.json` (override the path with
//! `TCNI_BENCH_OUT`).
//!
//! ```text
//! cargo run --release -p tcni-bench --bin perf [-- --quick]
//! ```

use std::time::Instant;

use tcni_bench::perf::{bench, PipelineTiming, Report};
use tcni_core::{Message, NodeId, WireFormat};
use tcni_eval::sweep;
use tcni_eval::table1::Table1;
use tcni_isa::{Assembler, MsgType, Program, Reg};
use tcni_net::{Fabric, FabricConfig, Network};
use tcni_sim::{DeliveryConfig, Machine, MachineBuilder, Model};
use tcni_tam::programs;
use tcni_workload::{Injector, InjectorConfig, LoopMode, Pattern, Topology};

/// An infinite busy loop: the cheapest always-running processor.
fn spin_program() -> Program {
    let mut a = Assembler::new();
    a.label("l");
    a.br("l");
    a.nop();
    a.assemble().expect("spin assembles")
}

/// A program that halts after one arithmetic instruction.
fn halt_program() -> Program {
    let mut a = Assembler::new();
    a.addi(Reg::R2, Reg::R0, 1);
    a.halt();
    a.assemble().expect("halt assembles")
}

/// A machine of `n` spinning nodes on an ideal zero-latency network.
fn spin_machine(n: usize) -> Machine {
    MachineBuilder::new(n)
        .model(Model::ALL_SIX[0])
        .program_all(spin_program())
        .build()
}

/// 64 nodes of which 63 halt on their second cycle — isolates the
/// active-list optimization (stopped nodes must cost nothing per cycle).
fn mostly_halted_machine() -> Machine {
    let mut b = MachineBuilder::new(64).model(Model::ALL_SIX[0]);
    for i in 1..64 {
        b = b.program(i, halt_program());
    }
    b.program(0, spin_program()).build()
}

/// A 2-node mesh where node 1 halts immediately: node 0's burst clogs the
/// fabric and the producer env-stalls forever, so `run` spends its budget in
/// the fast-forward's network-only loop (or, with skip off, the naive loop
/// of the reference mode).
fn clogged_mesh_machine(skip: bool) -> Machine {
    let o0 = tcni_core::mapping::gpr_alias(tcni_core::InterfaceReg::O0);
    let o1 = tcni_core::mapping::gpr_alias(tcni_core::InterfaceReg::O1);
    let mut a = Assembler::new();
    a.li(Reg::R3, NodeId::new(1).into_word_bits(WireFormat::Compact));
    a.label("loop");
    a.mov(o0, Reg::R3);
    a.mov_ni(
        o1,
        Reg::R2,
        tcni_core::NiCmd::send(MsgType::new(2).unwrap()),
    );
    a.br("loop");
    a.nop();
    let producer = a.assemble().expect("producer assembles");
    let mut m = MachineBuilder::new(2)
        .model(Model::ALL_SIX[0])
        .ni_queues(4, 2)
        .program(0, producer)
        .program(1, halt_program())
        .network_fabric(FabricConfig::new(2, 1))
        .build();
    m.set_reference(!skip);
    m
}

/// Delivers `target` messages through a 4×4 mesh (all nodes sending to their
/// ring successor) and returns the delivered count.
fn mesh_traffic(target: u64) -> u64 {
    let mut mesh = Fabric::new(FabricConfig::new(4, 4));
    let n = mesh.node_count();
    let mtype = MsgType::new(1).expect("type 1");
    let mut delivered = 0u64;
    let mut payload = 0u32;
    while delivered < target {
        for src in 0..n {
            let dst = NodeId::from_index((src + 1) % n);
            let msg = Message::to(dst, [0, payload, 0, 0, 0], mtype);
            if mesh.inject(NodeId::from_index(src), msg).is_ok() {
                payload = payload.wrapping_add(1);
            }
        }
        mesh.tick();
        for dst in 0..n {
            while mesh.eject(NodeId::from_index(dst)).is_some() {
                delivered += 1;
            }
        }
    }
    delivered
}

/// The topology sensitivity point: a 256-node machine under a uniform 5‰
/// open-loop drive with the delivery protocol on, on a selectable switched
/// fabric (mesh / torus / ring).
fn topology_low_load(cfg_net: FabricConfig, cycles: u64) -> Machine {
    let mut machine = MachineBuilder::new(256)
        .model(Model::ALL_SIX[0])
        .network_fabric(cfg_net)
        .delivery(DeliveryConfig::default())
        .build();
    let mut config = InjectorConfig::new(
        Pattern::Uniform,
        Topology::new(16, 16),
        LoopMode::Open { rate_pm: 5 },
    );
    config.format = machine.wire_format();
    let mut injector = Injector::new(config);
    machine.run_driven(&mut injector, cycles);
    machine
}

/// The full evaluation pipeline: Table 1, the off-chip sweep, the feature
/// ablation, the queue sweep, and a Figure-12 expansion. This is what the
/// `table1`/`figure12`/`sweep` binaries run between them; `par_map` inside
/// each stage is what the serial-vs-parallel comparison exercises.
fn pipeline(counts: &tcni_tam::TamCounts) -> f64 {
    let t0 = Instant::now();
    let t = Table1::measure();
    std::hint::black_box(&t);
    std::hint::black_box(sweep::offchip_sweep(counts, &[2, 8]));
    std::hint::black_box(sweep::feature_ablation(counts));
    std::hint::black_box(sweep::queue_sweep(&[2, 4, 8, 16]));
    let fig = tcni_eval::figure12::Figure12::from_counts("bench", *counts, &t.models);
    std::hint::black_box(&fig);
    t0.elapsed().as_secs_f64() * 1e3
}

fn main() {
    let mut quick = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            other => {
                eprintln!("perf: unknown argument `{other}` (supported: --quick)");
                std::process::exit(2);
            }
        }
    }
    let out_path =
        std::env::var("TCNI_BENCH_OUT").unwrap_or_else(|_| "BENCH_simulator.json".into());
    let (cycles, warmup, reps) = if quick {
        (20_000u64, 1, 3)
    } else {
        (100_000u64, 2, 7)
    };
    let mesh_target = if quick { 2_000u64 } else { 20_000 };

    let mut report = Report::default();

    for n in [2usize, 16, 64] {
        let mut m = spin_machine(n);
        report.results.push(bench(
            &format!("machine_step/spin{n}"),
            "cycles/sec",
            cycles as f64,
            warmup,
            reps,
            || m.run(cycles),
        ));
    }
    {
        let mut m = mostly_halted_machine();
        report.results.push(bench(
            "machine_step/halted63of64",
            "cycles/sec",
            cycles as f64,
            warmup,
            reps,
            || m.run(cycles),
        ));
    }
    for (name, skip) in [
        ("machine_run/clogged_mesh_skip", true),
        ("machine_run/clogged_mesh_noskip", false),
    ] {
        let mut m = clogged_mesh_machine(skip);
        report.results.push(bench(
            name,
            "cycles/sec",
            cycles as f64,
            warmup,
            reps,
            || m.run(cycles),
        ));
    }
    report.results.push(bench(
        "mesh/delivered",
        "messages/sec",
        mesh_target as f64,
        warmup,
        reps,
        || mesh_traffic(mesh_target),
    ));
    // The topology sensitivity axis: the identical 16×16 uniform-5‰ point
    // on the mesh, the wrap-around torus, and the 256-node ring. Wall
    // clock tracks the per-topology simulation cost (the torus scans twice
    // the ports per node, the ring routes much longer paths); the counters
    // carry the simulated delivery latency, the pinned source for the
    // EXPERIMENTS.md mesh/torus/ring sensitivity table.
    for (name, cfg_net) in [
        ("topology/16x16_mesh_uniform5pm", FabricConfig::new(16, 16)),
        (
            "topology/16x16_torus_uniform5pm",
            FabricConfig::torus(16, 16),
        ),
        ("topology/16x16_ring_uniform5pm", FabricConfig::ring(256)),
    ] {
        let mut meas = bench(name, "cycles/sec", cycles as f64, warmup, reps, || {
            topology_low_load(cfg_net, cycles)
        });
        let machine = topology_low_load(cfg_net, cycles);
        let stats = machine.net_stats();
        meas.counters = vec![
            ("cycles".into(), machine.cycle()),
            ("delivered".into(), stats.delivered),
            ("total_latency".into(), stats.total_latency),
        ];
        report.results.push(meas);
    }

    for m in &report.results {
        println!("{}", m.summary());
    }

    // Pipeline wall time: one serial pass (workers forced to 1), one
    // parallel pass (automatic resolution). One rep each — the pipeline is
    // itself an aggregate of hundreds of machine runs, so a single pass is
    // already well averaged.
    let counts = programs::matmul::run(8, 4).expect("matmul runs").counts;
    tcni_util::par::set_threads(1);
    let serial_ms = pipeline(&counts);
    tcni_util::par::set_threads(0);
    let threads = tcni_util::par::threads();
    let parallel_ms = pipeline(&counts);
    let timing = PipelineTiming {
        serial_ms,
        parallel_ms,
        threads,
    };
    println!(
        "pipeline: serial {serial_ms:.1} ms, parallel {parallel_ms:.1} ms on {threads} workers (×{:.2})",
        timing.speedup()
    );
    report.pipeline = Some(timing);

    std::fs::write(&out_path, report.to_json()).expect("write report");
    println!("wrote {out_path}");
}
