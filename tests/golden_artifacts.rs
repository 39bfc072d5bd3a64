//! Golden-artifact regression tests: the regenerated paper artifacts —
//! the Table 1 grid, the Figure 12 panels, and a small `tcni-load/1`
//! sweep — are pinned byte-for-byte against snapshots in `tests/golden/`.
//!
//! A silent regression in any of these numbers used to pass tier-1; now it
//! fails here with a diff. The snapshots were taken from the fault-free
//! models, so they double as the guarantee that the fault-injection layer
//! and the delivery protocol are invisible when disabled.
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

use tcni::core::CollectiveOp;
use tcni::eval::figure12::Figure12;
use tcni::eval::paper;
use tcni::eval::table1::Table1;
use tcni::sim::Model;
use tcni::tam::programs;
use tcni::workload::{
    run_coll_sweep, run_open_curve, CollReport, CollStormConfig, Fabric, LoadReport, Pattern,
    SweepConfig, Topology,
};

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
