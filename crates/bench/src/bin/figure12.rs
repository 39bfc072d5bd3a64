//! Regenerates Figure 12 (experiments E2/E3/E5): dynamic cycle counts for
//! 100×100 Matrix Multiply and 16 Gamteb under the six interface models,
//! split into non-message work / dispatch / other communication, plus the
//! headline metrics the paper quotes.
//!
//! The workload panels are independent (each runs its own TAM interpreter)
//! and are computed in parallel; output order is fixed regardless.
//!
//! ```text
//! cargo run --release -p tcni-bench --bin figure12 \
//!     [-- matmul|gamteb|fib|nqueens|all] [--published] [--obs]
//! ```
//!
//! With `--obs`, additionally runs an instrumented 4×4 mesh ring workload,
//! prints the observability summary, and writes the `tcni-trace/1` artifact
//! to `TRACE_figure12.json` (see EXPERIMENTS.md, "instrumenting a run").

use tcni_bench::obs_run;
use tcni_eval::figure12::Figure12;
use tcni_eval::paper;
use tcni_eval::table1::{ModelCosts, Table1};
use tcni_tam::programs;

/// One panel's rendered output: (stderr sanity line, stdout body).
type PanelOutput = (String, String);
type Panel = Box<dyn FnOnce() -> PanelOutput + Send>;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let published = args.iter().any(|a| a == "--published");
    let obs = args.iter().any(|a| a == "--obs");
    let which = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("all");

    let costs: [ModelCosts; 6] = if published {
        println!("(expanding with the paper's published Table 1)");
        paper::published()
    } else {
        println!("(expanding with the measured Table 1; pass --published to use the paper's)");
        Table1::measure().models
    };

    let mut panels: Vec<Panel> = Vec::new();
    if which == "matmul" || which == "all" {
        panels.push(Box::new(move || {
            let out = programs::matmul::run(100, 64).expect("matmul runs");
            let sanity = format!(
                "matmul sanity: {:.2} flops/message (paper ≈3), {:.1}% message instructions (paper <10%)",
                out.counts.flops_per_message(),
                100.0 * out.counts.message_op_fraction()
            );
            let fig = Figure12::from_counts("100×100 Matrix Multiply", out.counts, &costs);
            (sanity, format!("\n{fig}\n{}", fig.ascii_bars(64)))
        }));
    }
    if which == "gamteb" || which == "all" {
        panels.push(Box::new(move || {
            let out = programs::gamteb::run(16, 64, 0x6A3).expect("gamteb runs");
            let sanity = format!(
                "gamteb sanity: {} photons → {} absorbed / {} escaped",
                out.total, out.absorbed, out.escaped
            );
            let fig = Figure12::from_counts("16 Gamteb", out.counts, &costs);
            (sanity, format!("\n{fig}\n{}", fig.ascii_bars(64)))
        }));
    }
    if which == "fib" || which == "all" {
        panels.push(Box::new(move || {
            let out = programs::fib::run(18, 64).expect("fib runs");
            let sanity = format!("fib sanity: fib(18) = {}", out.value);
            let fig = Figure12::from_counts("fib 18 (extra program)", out.counts, &costs);
            (sanity, format!("\n{fig}"))
        }));
    }
    if which == "nqueens" || which == "all" {
        panels.push(Box::new(move || {
            let out = programs::nqueens::run(8, 64).expect("nqueens runs");
            let sanity = format!("nqueens sanity: {} solutions for 8 queens", out.solutions);
            let fig = Figure12::from_counts("8-queens (extra program)", out.counts, &costs);
            (sanity, format!("\n{fig}"))
        }));
    }

    for (sanity, body) in tcni_util::par::par_map(panels, |panel| panel()) {
        eprintln!("{sanity}");
        println!("{body}");
    }

    if obs {
        println!("== instrumented mesh ring workload (--obs) ==\n");
        let report = obs_run::run_instrumented(obs_run::ring_machine(4, 4, 8), 4096, 200_000);
        print!("{report}");
        let path = "TRACE_figure12.json";
        tcni_bench::write_artifact(path, &report.to_json());
        println!("wrote {path} (schema tcni-trace/1)");
    }
}
