//! The TCNI benchmark: four workloads measured end to end and layer by
//! layer, with the simulated outputs checked.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>] [--quick]
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --compare <runs A...> -- <runs B...>
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --manifest
//! ```
//!
//! Each workload runs in a child process of its own, so a panic counts as
//! a failed check and `peak_rss_mib` is that workload's alone. The output
//! is one line per metric, `<workload> <metric> <value> <unit>`, then one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}` with the
//! end-to-end metrics, or with the per-layer ones under `--trace 1`.
//! Without `--workload` every workload runs in turn. `--seconds` receives
//! the manifest's `run_seconds` from a harness that runs the manifest's
//! command, and defaults to it. See `README.md`.

mod checks;
mod compare;
mod metrics;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use checks::{check_expected, Fingerprint, EXPECTED};
use metrics::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use workloads::Settings;

const USAGE: &str = "usage: benchmark [--workload <name>] [--seed <n>] [--seconds <s>] \
                     [--trace <0|1>] [--quick]\n       benchmark --compare <runs A...> -- <runs B...>\n       \
                     benchmark --manifest";

/// Parsed run arguments.
#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    /// Set on the child process that runs one workload.
    child: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
        child: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.iter().any(|k| k.name == w) {
                    return Err(format!("unknown workload `{w}`"));
                }
                args.workload = Some(w.clone());
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--quick" => args.quick = true,
            "--child" => args.child = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.child && args.workload.is_none() {
        return Err("--child needs --workload".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--manifest") => {
            print!("{}", metrics::manifest_json());
            return ExitCode::SUCCESS;
        }
        Some("--compare") => return compare_runs(&argv[1..]),
        _ => {}
    }
    match parse_args(&argv) {
        Ok(args) if args.child => child(&args),
        Ok(args) => parent(&args),
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// `--compare A... -- B...`: reads both run sets and prints the verdicts.
fn compare_runs(argv: &[String]) -> ExitCode {
    let split = argv.iter().position(|a| a == "--");
    let (a, b) = match split {
        Some(i) if i > 0 && i + 1 < argv.len() => (&argv[..i], &argv[i + 1..]),
        _ => {
            eprintln!("benchmark: --compare needs run files on both sides of `--`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let load = |files: &[String]| -> Result<compare::RunSet, String> {
        let mut set = compare::RunSet::new();
        for f in files {
            let text = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
            compare::parse(&text, &mut set);
        }
        Ok(set)
    };
    match (load(a), load(b)) {
        (Ok(a), Ok(b)) => {
            print!("{}", compare::report(&a, &b));
            ExitCode::SUCCESS
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// The values and check counts one child reported.
#[derive(Debug, Default)]
struct ChildReport {
    values: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
}

/// Runs one workload in a child process and collects its report. A child
/// that cannot start or exits unsuccessfully adds one failed check.
fn run_child(name: &str, args: &Args) -> ChildReport {
    let mut report = ChildReport::default();
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    let output = match cmd.output() {
        Ok(output) => output,
        Err(e) => {
            eprintln!("benchmark: cannot start the {name} child: {e}");
            report.attempted = 1;
            report.failed = 1;
            return report;
        }
    };
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f[..] {
            ["value", key, v] => {
                if let Ok(v) = v.parse() {
                    report.values.insert(key.to_owned(), v);
                }
            }
            ["checks", a, f] => {
                report.attempted = a.parse().unwrap_or(0);
                report.failed = f.parse().unwrap_or(0);
            }
            _ => {}
        }
    }
    if !output.status.success() {
        eprintln!("benchmark: the {name} child failed: {}", output.status);
        report.attempted += 1;
        report.failed += 1;
    }
    report
}

/// Runs the selected workloads and prints their metrics and the result.
fn parent(args: &Args) -> ExitCode {
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# host nproc={nproc} host_threads={}",
        tcni_util::par::threads()
    );
    println!(
        "# run seed={} seconds={} trace={} quick={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.quick
    );
    let (selected, other) = if args.trace {
        (PER_LAYER, END_TO_END)
    } else {
        (END_TO_END, PER_LAYER)
    };
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut json = Vec::new();
    for &name in &names {
        let r = run_child(name, args);
        attempted += r.attempted;
        failed += r.failed;
        for m in selected {
            let value = match r.values.get(m.name) {
                Some(v) if v.is_finite() => *v,
                // A layer the workload does not exercise did no work.
                None if m.bound.is_none() => 0.0,
                _ => {
                    eprintln!("benchmark: {name} did not measure {}", m.name);
                    attempted += 1;
                    failed += 1;
                    continue;
                }
            };
            println!("{name} {} {value} {}", m.name, m.unit);
            let key = if names.len() == 1 {
                m.name.to_owned()
            } else {
                format!("{name}.{}", m.name)
            };
            json.push(format!(
                "\"{key}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.unit
            ));
        }
        for m in other {
            if let Some(v) = r.values.get(m.name) {
                println!("{name} {} {v} {}", m.name, m.unit);
            }
        }
        for (k, v) in r.values.iter().filter(|(k, _)| k.starts_with("info.")) {
            println!("# {name} {k} {v}");
        }
    }
    let attempted = attempted.max(1);
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        json.join(", ")
    );
    ExitCode::SUCCESS
}

/// The child: runs one workload and reports `value <name> <v>` lines and
/// a final `checks <attempted> <failed>` line.
fn child(args: &Args) -> ExitCode {
    // A child whose parent has gone (and so would never be waited for)
    // stops rather than run on unobserved.
    let parent = std::os::unix::process::parent_id();
    std::thread::spawn(move || loop {
        std::thread::sleep(std::time::Duration::from_millis(500));
        if std::os::unix::process::parent_id() != parent {
            std::process::exit(3);
        }
    });
    tcni_util::par::set_threads(1);
    let name = args.workload.as_deref().expect("parse_args requires it");
    let settings = Settings {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        quick: args.quick,
    };
    let mut out = workloads::run(name, &settings).expect("parse_args validated the name");

    // Accuracy against the paper's Table 1: untimed, and the same for
    // every workload and seed.
    let table = tcni_eval::table1::Table1::measure();
    let (exact, _, _) = tcni_bench::agreement(&table, &tcni_eval::paper::published());
    out.values.insert("table1_exact_cells", exact as f64);
    let mut fp = Fingerprint::default();
    fp.push("exact_cells", exact as u64);
    check_expected(&mut out.checks, EXPECTED, "table1", args.seed, &fp);

    if args.trace {
        let path = format!("target/benchmark/trace-{name}.json");
        let written = std::fs::create_dir_all("target/benchmark")
            .and_then(|()| std::fs::write(&path, out.spans.to_json(name)));
        out.checks
            .check(written.is_ok(), format_args!("writing {path}: {written:?}"));
    }
    out.values.insert("peak_rss_mib", peak_rss_mib());
    for (k, v) in &out.values {
        println!("value {k} {v}");
    }
    println!("checks {} {}", out.checks.attempted(), out.checks.failed());
    ExitCode::SUCCESS
}

/// This process's peak resident set (`VmHWM`), in MiB; 0 where the kernel
/// does not report it.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
