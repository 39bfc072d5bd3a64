//! `--quick` drives every workload end to end through the real binary:
//! scaled-down schedules, invariant checks only.

use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "mesh128_sparse",
    "mesh64_e2e_faulty",
    "ring16_isa",
    "coll16_storm",
];

/// Runs the benchmark with `args` from a scratch directory (traced runs
/// write their spans under it) and returns its standard output.
fn run(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark starts");
    assert!(out.status.success(), "{out:?}");
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

/// The last line, checked for the result object's shape.
fn result_line(stdout: &str) -> &str {
    let last = stdout.lines().last().expect("some output");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{stdout}"
    );
    assert!(last.contains(", \"failed\": 0, \"metrics\": {"), "{last}");
    assert!(last.ends_with("}}"), "{last}");
    assert_eq!(last.matches('{').count(), last.matches('}').count());
    last
}

#[test]
fn quick_runs_every_workload_and_reports_every_end_to_end_metric() {
    let stdout = run(&["--quick", "--seed", "3"]);
    let last = result_line(&stdout);
    let manifest = run(&["--manifest"]);
    for w in WORKLOADS {
        for line in manifest.lines().skip_while(|l| !l.contains("end_to_end")) {
            let Some(rest) = line.split("\"name\": \"").nth(1) else {
                continue;
            };
            if line.contains("\"bound\"") {
                let metric = rest.split('"').next().expect("quoted name");
                assert!(
                    last.contains(&format!("\"{w}.{metric}\": {{\"value\": ")),
                    "{w}.{metric} missing from {last}"
                );
            }
        }
    }
}

#[test]
fn quick_trace_reports_every_layer_and_writes_spans() {
    let stdout = run(&["--quick", "--workload", "mesh64_e2e_faulty", "--trace", "1"]);
    let last = result_line(&stdout);
    for metric in [
        "workload.driver_ns_per_cycle",
        "sim.machine_ns_per_cycle",
        "sim.delivery.ns_per_probe",
        "net.fault.stalls",
        "cpu.ns_per_instruction",
        "trace.overhead",
    ] {
        assert!(
            last.contains(&format!("\"{metric}\": {{\"value\": ")),
            "{metric}: {last}"
        );
    }
    assert!(
        !last.contains("\"cycles_per_s\""),
        "end-to-end metrics stay out: {last}"
    );
    let trace = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("target/benchmark/trace-mesh64_e2e_faulty.json");
    let spans = std::fs::read_to_string(trace).expect("the traced run writes its spans");
    for name in [
        "\"workload\"",
        "\"window\"",
        "\"driver\"",
        "\"machine\"",
        "\"self_ns\"",
    ] {
        assert!(spans.contains(name), "{name}");
    }
}

#[test]
fn unknown_arguments_are_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("the benchmark starts");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
