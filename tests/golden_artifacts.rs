//! Golden-artifact regression tests: the regenerated paper artifacts —
//! the Table 1 grid, the Figure 12 panels, and a small `tcni-load/1`
//! sweep — are pinned byte-for-byte against snapshots in `tests/golden/`.
//!
//! A silent regression in any of these numbers used to pass tier-1; now it
//! fails here with a diff. All snapshots but one were taken from the
//! fault-free models, so they double as the guarantee that the
//! fault-injection layer and the delivery protocol are invisible when
//! disabled; `loadgen_e2e_faulty_16x16.json` pins the protocol itself, and
//! `netstats_ring_4x4.json` pins a `tcni-trace/1` run whose CPUs execute.
//! Three more pin the serializer branches the others leave dark: the
//! `delivery` block and fault counters of a `tcni-trace/1` run over a
//! faulty fabric, the empty `"links": []` of one on the ideal network, and
//! the `fabric`/`fault_pm`/`delivery` keys of a faulty torus `tcni-coll/1`
//! storm.
//!
//! ## Updating a snapshot (the bless workflow)
//!
//! When an intentional change moves an artifact, regenerate the snapshots
//! and commit the diff alongside the change that explains it:
//!
//! ```text
//! TCNI_BLESS=1 cargo test --test golden_artifacts
//! git diff tests/golden/   # review: every changed byte must be intended
//! ```
//!
//! Blessing rewrites only the files the tests exercise; never edit the
//! snapshots by hand.

use std::fmt::Write as _;
use std::path::PathBuf;

use tcni::core::{CollectiveOp, NodeId, WireFormat};
use tcni::eval::figure12::Figure12;
use tcni::eval::paper;
use tcni::eval::table1::Table1;
use tcni::net::{FabricConfig, FaultConfig};
use tcni::sim::{DeliveryConfig, MachineBuilder, Model};
use tcni::tam::programs;
use tcni::workload::{
    run_coll_sweep, run_open_curve, CollReport, CollStormConfig, Fabric, LoadReport, Pattern,
    SweepConfig, Topology,
};
use tcni_bench::obs_run;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `actual` against the named snapshot, or rewrites the snapshot
/// when `TCNI_BLESS` is set.
fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("TCNI_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, actual).expect("bless golden snapshot");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {}: {e}\n\
             generate it with: TCNI_BLESS=1 cargo test --test golden_artifacts",
            path.display()
        )
    });
    if expected != actual {
        // Point at the first diverging line so the failure is actionable
        // without an external diff tool.
        let line = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .map_or(expected.lines().count().min(actual.lines().count()), |i| i);
        panic!(
            "artifact {name} diverged from its golden snapshot at line {}.\n\
             expected: {:?}\n\
             actual:   {:?}\n\
             If the change is intentional, re-bless with\n\
             TCNI_BLESS=1 cargo test --test golden_artifacts\n\
             and commit the reviewed tests/golden/ diff.",
            line + 1,
            expected.lines().nth(line).unwrap_or("<eof>"),
            actual.lines().nth(line).unwrap_or("<eof>"),
        );
    }
}

/// The Table 1 grid: the measured table next to the published one. Pinning
/// both means any drift in the measured handler costs — or an accidental
/// edit to the transcribed paper numbers — fails the build.
#[test]
fn golden_table1() {
    let measured = Table1::measure();
    let published = Table1 {
        timing: tcni::cpu::TimingConfig::new(),
        models: paper::published(),
    };
    let mut out = String::new();
    let _ = writeln!(out, "== Table 1, measured ==\n");
    let _ = writeln!(out, "{measured}");
    let _ = writeln!(out, "== Table 1, as published (Henry & Joerg 1992) ==\n");
    let _ = write!(out, "{published}");
    assert_golden("table1.txt", &out);
}

/// The Figure 12 panels (measured costs) for both paper workloads and the
/// two extra programs, exactly as the `figure12` binary renders them.
#[test]
fn golden_figure12() {
    let costs = Table1::measure().models;
    let mut out = String::new();

    let matmul = programs::matmul::run(100, 64).expect("matmul runs");
    let fig = Figure12::from_counts("100×100 Matrix Multiply", matmul.counts, &costs);
    let _ = writeln!(out, "{fig}\n{}", fig.ascii_bars(64));

    let gamteb = programs::gamteb::run(16, 64, 0x6A3).expect("gamteb runs");
    let fig = Figure12::from_counts("16 Gamteb", gamteb.counts, &costs);
    let _ = writeln!(out, "{fig}\n{}", fig.ascii_bars(64));

    let fib = programs::fib::run(18, 64).expect("fib runs");
    let _ = writeln!(
        out,
        "{}",
        Figure12::from_counts("fib 18 (extra program)", fib.counts, &costs)
    );

    let nqueens = programs::nqueens::run(8, 64).expect("nqueens runs");
    let _ = write!(
        out,
        "{}",
        Figure12::from_counts("8-queens (extra program)", nqueens.counts, &costs)
    );
    assert_golden("figure12.txt", &out);
}

/// A small fault-free offered-load sweep, pinned as the serialized
/// `tcni-load/1` artifact: the whole loadgen pipeline (injectors, windows,
/// percentiles, saturation rule, JSON layout) in one byte-exact snapshot.
#[test]
fn golden_loadgen() {
    let mut sweep = SweepConfig::new(Topology::new(2, 2));
    sweep.warmup = 500;
    sweep.measure = 1500;
    sweep.samples = 4;
    let rates = vec![100, 400];
    let mut curves = Vec::new();
    for model in [Model::ALL_SIX[0], Model::ALL_SIX[3]] {
        for fabric in Fabric::BOTH {
            curves.push(run_open_curve(
                model,
                fabric,
                Pattern::Uniform,
                &rates,
                &sweep,
            ));
        }
    }
    let report = LoadReport {
        topo: sweep.topo,
        seed: sweep.seed,
        warmup: sweep.warmup,
        measure: sweep.measure,
        rates_pm: rates,
        windows: Vec::new(),
        fault_rates_pm: Vec::new(),
        curves,
    };
    assert_golden("loadgen.json", &report.to_json());
}

/// The topology sensitivity goldens: the same paper-scale 16×16 machine on
/// the wrap-around torus and on the 256-node ring, pinned as serialized
/// `tcni-load/1` artifacts. Together with `golden_loadgen` (mesh + ideal)
/// they pin "bit-identical at any thread count, dense vs hot-set, on every
/// topology": ci.sh reruns all of them at `TCNI_THREADS=1` and `=4` and the
/// bytes must not move.
#[test]
fn golden_loadgen_torus_16x16() {
    let mut sweep = SweepConfig::new(Topology::new(16, 16));
    sweep.warmup = 200;
    sweep.measure = 800;
    sweep.samples = 4;
    let rates = vec![5, 20];
    let curves = vec![run_open_curve(
        Model::ALL_SIX[3],
        Fabric::Torus,
        Pattern::Uniform,
        &rates,
        &sweep,
    )];
    let report = LoadReport {
        topo: sweep.topo,
        seed: sweep.seed,
        warmup: sweep.warmup,
        measure: sweep.measure,
        rates_pm: rates,
        windows: Vec::new(),
        fault_rates_pm: Vec::new(),
        curves,
    };
    assert_golden("loadgen_torus_16x16.json", &report.to_json());
}

/// The ring point of the topology golden suite (see
/// [`golden_loadgen_torus_16x16`]): 256 nodes on a bidirectional ring is
/// the high-diameter extreme of the topology axis.
#[test]
fn golden_loadgen_ring_16x16() {
    let mut sweep = SweepConfig::new(Topology::new(16, 16));
    sweep.warmup = 200;
    sweep.measure = 800;
    sweep.samples = 4;
    let rates = vec![5];
    let curves = vec![run_open_curve(
        Model::ALL_SIX[3],
        Fabric::Ring,
        Pattern::Uniform,
        &rates,
        &sweep,
    )];
    let report = LoadReport {
        topo: sweep.topo,
        seed: sweep.seed,
        warmup: sweep.warmup,
        measure: sweep.measure,
        rates_pm: rates,
        windows: Vec::new(),
        fault_rates_pm: Vec::new(),
        curves,
    };
    assert_golden("loadgen_ring_16x16.json", &report.to_json());
}

/// The delivery-protocol point: the 16×16 mesh over a 20/1000 faulty
/// fabric with the end-to-end protocol on, pinned as a serialized
/// `tcni-load/1` artifact. Its per-point retransmit, abandon and goodput
/// fields move if the flow store, the timeout scheduling or the ack
/// coalescing changes any protocol decision; the optimised-vs-reference
/// suites cannot catch such a change, because both modes share the flow
/// state.
#[test]
fn golden_loadgen_e2e_faulty_16x16() {
    let mut sweep = SweepConfig::new(Topology::new(16, 16));
    sweep.warmup = 200;
    sweep.measure = 800;
    sweep.samples = 4;
    sweep.fault_pm = 20;
    sweep.delivery = true;
    let rates = vec![5, 20];
    let curves = vec![run_open_curve(
        Model::ALL_SIX[3],
        Fabric::Mesh,
        Pattern::Uniform,
        &rates,
        &sweep,
    )];
    let report = LoadReport {
        topo: sweep.topo,
        seed: sweep.seed,
        warmup: sweep.warmup,
        measure: sweep.measure,
        rates_pm: rates,
        windows: Vec::new(),
        fault_rates_pm: vec![sweep.fault_pm],
        curves,
    };
    assert_golden("loadgen_e2e_faulty_16x16.json", &report.to_json());
}

/// The paper-scale collective comparison, pinned as the serialized
/// `tcni-coll/1` artifact: NIC combining vs the flat software emulation for
/// barrier and reduce on the 16×16 mesh. Every latency, occupancy, and
/// engine counter is byte-exact — and ci.sh re-runs this test at
/// `TCNI_THREADS=4`, pinning that the worker-count setting leaves the
/// machine's serial cycle alone.
#[test]
fn golden_collective() {
    let mut cfg = CollStormConfig::new(Topology::new(16, 16));
    cfg.rounds = 4;
    let ops = [CollectiveOp::Barrier, CollectiveOp::Sum];
    let rates = vec![0, 200];
    let points = run_coll_sweep(&ops, &rates, &cfg);
    let report = CollReport {
        config: cfg,
        rates_pm: rates,
        points,
    };
    assert_golden("collective_16x16.json", &report.to_json());
}

/// The instrumented ring (every CPU sends 8 messages to its successor and
/// consumes 8) on a 4×4 mesh, pinned as the `tcni-trace/1` artifact that
/// `netstats --width 4 --height 4 --msgs 8 --spans 16` writes. The other
/// goldens run either the counting path or driven machines whose CPUs halt
/// at cycle 0; this one pins what the cycle does while processors run:
/// queue-depth mirroring, span order, and the injection walk over running,
/// halting and draining nodes.
#[test]
fn golden_netstats_ring_4x4() {
    let report = obs_run::run_instrumented(obs_run::ring_machine(4, 4, 8), 16, 200_000);
    assert_golden("netstats_ring_4x4.json", &report.to_json());
}

/// The instrumented ring of [`golden_netstats_ring_4x4`] with the delivery
/// protocol over a 30/1000 faulty fabric: pins the `tcni-trace/1` export's
/// `delivery` block and non-zero `faults` counters, which no fault-free run
/// writes.
#[test]
fn golden_netstats_ring_4x4_faulty() {
    let (width, height, k) = (4, 4, 8);
    let n = width * height;
    let format = WireFormat::for_nodes(n).expect("a mesh fits the wide format");
    let mut b = MachineBuilder::new(n)
        .model(Model::ALL_SIX[1])
        .ni_queues(16, 16)
        .network_fabric(FabricConfig::new(width, height))
        .network_fault(FaultConfig::uniform(7, 30))
        .delivery(DeliveryConfig::default());
    for i in 0..n {
        let dest = NodeId::from_index((i + 1) % n);
        b = b.program(i, obs_run::ring_program(dest, k, format));
    }
    let report = obs_run::run_instrumented(b.build(), 16, 200_000);
    assert!(report.delivery.is_some() && report.net.faults.dropped > 0);
    assert_golden("netstats_ring_4x4_faulty.json", &report.to_json());
}

/// The two-node remote-read run that `table1 --obs` reports, on the ideal
/// network: pins the `tcni-trace/1` export with no per-link counters, whose
/// `links` array serializes as `[]`.
#[test]
fn golden_remote_read_ideal() {
    let report = obs_run::run_instrumented(
        obs_run::remote_read_machine(Model::ALL_SIX[0], 2),
        64,
        50_000,
    );
    assert!(report.links.is_empty());
    assert_golden("remote_read_ideal.json", &report.to_json());
}

/// The faulty 8×8 torus collective storm that `scripts/ci.sh` runs
/// (`loadgen --collective --topology torus --width 8 --height 8 --ops
/// barrier,sum --rounds 4 --fault 25`): pins the `tcni-coll/1` keys only a
/// non-mesh, faulted run writes (`fabric`, `fault_pm`, `delivery`). ci.sh
/// compares the binary's output with this snapshot at 1 and 4 workers.
#[test]
fn golden_collective_torus_8x8_faulty() {
    let mut cfg = CollStormConfig::new(Topology::new(8, 8));
    cfg.fabric = Fabric::Torus;
    cfg.rounds = 4;
    cfg.fault_pm = 25;
    cfg.delivery = true;
    let ops = [CollectiveOp::Barrier, CollectiveOp::Sum];
    let rates = vec![0];
    let points = run_coll_sweep(&ops, &rates, &cfg);
    let report = CollReport {
        config: cfg,
        rates_pm: rates,
        points,
    };
    assert_golden("collective_torus_8x8_faulty.json", &report.to_json());
}
