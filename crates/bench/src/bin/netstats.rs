//! The observability reporter: runs an instrumented mesh ring workload
//! (every node sends `--msgs` messages to its ring successor and consumes
//! as many), prints the human-readable summary, and writes the versioned
//! `tcni-trace/1` JSON artifact.
//!
//! ```text
//! cargo run --release -p tcni-bench --bin netstats \
//!     [-- --width 4 --height 4 --msgs 8 --spans 4096 --out TRACE_netstats.json]
//! ```

use tcni_bench::obs_run;

fn usage() -> ! {
    eprintln!(
        "usage: netstats [--width W] [--height H] [--msgs K] [--spans N] [--out PATH] [--quiet]"
    );
    std::process::exit(2);
}

fn main() {
    let mut width = 4usize;
    let mut height = 4usize;
    let mut msgs = 8u32;
    let mut spans = 4096usize;
    let mut out_path = String::from("TRACE_netstats.json");
    let mut quiet = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |what: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("netstats: {what} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--width" => width = take("--width").parse().unwrap_or_else(|_| usage()),
            "--height" => height = take("--height").parse().unwrap_or_else(|_| usage()),
            "--msgs" => msgs = take("--msgs").parse().unwrap_or_else(|_| usage()),
            "--spans" => spans = take("--spans").parse().unwrap_or_else(|_| usage()),
            "--out" => out_path = take("--out"),
            "--quiet" => quiet = true,
            _ => usage(),
        }
    }
    if width == 0 || height == 0 || msgs == 0 || width * height < 2 {
        eprintln!("netstats: need a mesh of ≥ 2 nodes and ≥ 1 message per node");
        std::process::exit(2);
    }

    let nodes = width * height;
    let budget = 200_000u64.max(u64::from(msgs) * nodes as u64 * 64);
    let report =
        obs_run::run_instrumented(obs_run::ring_machine(width, height, msgs), spans, budget);

    if !quiet {
        println!(
            "ring workload: {width}×{height} mesh, {msgs} messages per node ({} total)",
            nodes as u64 * u64::from(msgs)
        );
        print!("{report}");
    }
    // The artifact's internal consistency is part of the contract.
    assert_eq!(report.net.latency_hist.total(), report.net.delivered);
    tcni_bench::write_artifact(&out_path, &report.to_json());
    println!("wrote {out_path} (schema tcni-trace/1)");
}
