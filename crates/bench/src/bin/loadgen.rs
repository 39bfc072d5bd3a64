//! The synthetic load generator: sweeps offered load across {model ×
//! fabric × pattern} cells, prints a per-curve summary, and writes the
//! versioned `tcni-load/1` JSON artifact.
//!
//! ```text
//! cargo run --release -p tcni-bench --bin loadgen \
//!     [-- --models opt-reg,basic-reg --fabrics ideal,mesh \
//!         --patterns uniform,hotspot --rates 50,150,300,500,700 \
//!         --windows 1,2,4 --width 4 --height 4 --seed 1 \
//!         --warmup 2000 --measure 6000 --out BENCH_loadgen.json]
//! ```
//!
//! `--models all` selects all six §4 models; `--windows none` disables the
//! closed-loop curves; `--patterns` accepts `hotspot:NNN` for an explicit
//! per-mille skew and `--fabrics` accepts `ideal:N` for an explicit latency
//! plus the switched topologies `mesh`, `torus`, `ring`, and `full`.
//! `--topology NAME` pins the whole sweep to one fabric (shorthand for
//! `--fabrics NAME`; in `--collective` mode it picks the fabric under the
//! storm, with the combining tree that embeds in it). `--unit-costs`
//! replaces the Table-1 per-model service costs with one-cycle sends and
//! receives, making the fabric the only bottleneck — the mode the
//! topology saturation sensitivity table in `EXPERIMENTS.md` is measured
//! in.
//! `--fault-rates LIST` adds a fault axis: every cell is swept once per
//! per-mille fault rate (`0` is a valid baseline) with the end-to-end
//! delivery protocol enabled, and the artifact carries per-point fault
//! counters and `goodput_pm` (see `EXPERIMENTS.md`).
//! Worker threads come from `TCNI_THREADS` (default: available
//! parallelism); the artifact is byte-identical at any thread count.
//!
//! `--collective` switches to the in-network collective comparison and
//! emits `tcni-coll/1` instead: NIC-combining vs flat software emulation,
//! both modes × `--ops` × `--rates` (here *storm* rates in rounds per
//! mille cycles; `0` = back-to-back), `--rounds` rounds per point on the
//! `--width`×`--height` mesh with a radix-`--radix` combining tree.
//! `--fault PM` wraps the mesh in a fault layer (with the delivery
//! protocol) to show both schemes surviving an unreliable fabric.

use tcni_bench::load::{summarize, LoadgenConfig};
use tcni_core::CollectiveOp;
use tcni_sim::Model;
use tcni_workload::{
    run_coll_sweep, CollMode, CollReport, CollStormConfig, Fabric, Pattern, SweepConfig, Topology,
};

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--models LIST|all] [--fabrics LIST] [--topology NAME] \
         [--patterns LIST] [--rates LIST] [--windows LIST|none] \
         [--fault-rates LIST] [--unit-costs] [--width W] [--height H] \
         [--seed S] [--warmup N] [--measure N] [--samples N] [--out PATH] \
         [--quiet]\n\
       \x20      loadgen --collective [--ops LIST|all] [--rates LIST] [--rounds N] \
         [--radix K] [--max-cycles N] [--fault PM] [--topology NAME] [--width W] \
         [--height H] [--seed S] [--samples N] [--out PATH] [--quiet]"
    );
    std::process::exit(2);
}

fn parse_list<T>(s: &str, what: &str, parse: impl Fn(&str) -> Option<T>) -> Vec<T> {
    s.split(',')
        .map(|item| {
            parse(item.trim()).unwrap_or_else(|| {
                eprintln!("loadgen: bad {what} entry {item:?}");
                usage()
            })
        })
        .collect()
}

fn parse_model(s: &str) -> Option<Model> {
    Model::ALL_SIX.into_iter().find(|m| m.key() == s)
}

fn main() {
    let mut width = 4usize;
    let mut height = 4usize;
    let mut seed = 1u64;
    let mut warmup = 2000u64;
    let mut measure = 6000u64;
    let mut samples = 8u32;
    let mut models: Option<Vec<Model>> = None;
    let mut fabrics: Option<Vec<Fabric>> = None;
    let mut topology: Option<Fabric> = None;
    let mut patterns: Option<Vec<Pattern>> = None;
    let mut rates: Option<Vec<u32>> = None;
    let mut windows: Option<Vec<u32>> = None;
    let mut fault_rates: Option<Vec<u32>> = None;
    let mut out_path: Option<String> = None;
    let mut quiet = false;
    let mut unit_costs = false;
    let mut collective = false;
    let mut ops: Option<Vec<CollectiveOp>> = None;
    let mut rounds = 32u32;
    let mut radix = 4usize;
    let mut max_cycles = 200_000u64;
    let mut fault_pm = 0u32;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |what: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("loadgen: {what} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--collective" => collective = true,
            "--ops" => {
                let v = take("--ops");
                ops = Some(if v == "all" {
                    CollectiveOp::ALL.to_vec()
                } else {
                    parse_list(&v, "op", CollectiveOp::parse)
                });
            }
            "--rounds" => rounds = take("--rounds").parse().unwrap_or_else(|_| usage()),
            "--radix" => radix = take("--radix").parse().unwrap_or_else(|_| usage()),
            "--max-cycles" => max_cycles = take("--max-cycles").parse().unwrap_or_else(|_| usage()),
            "--fault" => fault_pm = take("--fault").parse().unwrap_or_else(|_| usage()),
            "--models" => {
                let v = take("--models");
                models = Some(if v == "all" {
                    Model::ALL_SIX.to_vec()
                } else {
                    parse_list(&v, "model", parse_model)
                });
            }
            "--fabrics" => fabrics = Some(parse_list(&take("--fabrics"), "fabric", Fabric::parse)),
            "--topology" => {
                let v = take("--topology");
                topology = Some(Fabric::parse(&v).unwrap_or_else(|| {
                    eprintln!("loadgen: unknown topology {v:?}");
                    usage()
                }));
            }
            "--patterns" => {
                patterns = Some(parse_list(&take("--patterns"), "pattern", Pattern::parse))
            }
            "--rates" => rates = Some(parse_list(&take("--rates"), "rate", |s| s.parse().ok())),
            "--fault-rates" => {
                fault_rates = Some(parse_list(&take("--fault-rates"), "fault rate", |s| {
                    s.parse().ok()
                }))
            }
            "--windows" => {
                let v = take("--windows");
                windows = Some(if v == "none" {
                    Vec::new()
                } else {
                    parse_list(&v, "window", |s| s.parse().ok())
                });
            }
            "--width" => width = take("--width").parse().unwrap_or_else(|_| usage()),
            "--height" => height = take("--height").parse().unwrap_or_else(|_| usage()),
            "--seed" => seed = take("--seed").parse().unwrap_or_else(|_| usage()),
            "--warmup" => warmup = take("--warmup").parse().unwrap_or_else(|_| usage()),
            "--measure" => measure = take("--measure").parse().unwrap_or_else(|_| usage()),
            "--samples" => samples = take("--samples").parse().unwrap_or_else(|_| usage()),
            "--out" => out_path = Some(take("--out")),
            "--quiet" => quiet = true,
            "--unit-costs" => unit_costs = true,
            _ => usage(),
        }
    }
    if width == 0 || height == 0 || width * height < 2 || width * height > 65536 {
        eprintln!("loadgen: need a 2..=65536-node grid");
        std::process::exit(2);
    }
    if measure == 0 {
        eprintln!("loadgen: --measure must be positive");
        std::process::exit(2);
    }

    if collective {
        let mut cfg = CollStormConfig::new(Topology::new(width, height));
        if let Some(fabric) = topology {
            cfg.fabric = fabric;
        }
        cfg.seed = seed;
        cfg.rounds = rounds;
        cfg.radix = radix;
        cfg.max_cycles = max_cycles;
        cfg.samples = samples;
        cfg.fault_pm = fault_pm;
        cfg.delivery = fault_pm > 0;
        let ops = ops.unwrap_or_else(|| vec![CollectiveOp::Barrier, CollectiveOp::Sum]);
        let rates = rates.unwrap_or_else(|| vec![0]);
        if radix < 2 || rounds == 0 || rates.iter().any(|&r| r > 1000) {
            eprintln!("loadgen: --radix >= 2, --rounds >= 1, --rates per-mille (0..=1000)");
            std::process::exit(2);
        }
        let points = run_coll_sweep(&ops, &rates, &cfg);
        if !quiet {
            println!(
                "collective sweep: {width}×{height} {}, radix-{radix} tree, {rounds} rounds per point",
                cfg.fabric.key()
            );
            for p in &points {
                println!(
                    "  {:<4} {:<7} rate {:>4}: {} rounds in {} cycles, lat mean {} min {} max {}, wire {} msgs",
                    p.mode.key(),
                    p.op.key(),
                    p.rate_pm,
                    p.rounds_done,
                    p.cycles,
                    p.lat_mean_x100.map_or_else(|| "-".into(), |v| format!("{}.{:02}", v / 100, v % 100)),
                    p.lat_min.map_or_else(|| "-".into(), |v| v.to_string()),
                    p.lat_max.map_or_else(|| "-".into(), |v| v.to_string()),
                    p.fabric_delivered,
                );
            }
            for &op in &ops {
                let lat = |mode: CollMode| {
                    points
                        .iter()
                        .find(|p| p.mode == mode && p.op == op && p.rate_pm == rates[0])
                        .and_then(|p| p.lat_mean_x100)
                };
                if let (Some(nic), Some(soft)) = (lat(CollMode::Nic), lat(CollMode::Soft)) {
                    println!(
                        "  {}: NIC combining {}.{:02}x faster than software at rate {}",
                        op.key(),
                        soft / nic.max(1),
                        (soft * 100 / nic.max(1)) % 100,
                        rates[0],
                    );
                }
            }
        }
        let report = CollReport {
            config: cfg,
            rates_pm: rates,
            points,
        };
        let out_path = out_path.unwrap_or_else(|| "BENCH_collective.json".into());
        tcni_bench::write_artifact(&out_path, &report.to_json());
        println!("wrote {out_path} (schema tcni-coll/1)");
        return;
    }

    let mut sweep = SweepConfig::new(Topology::new(width, height));
    sweep.seed = seed;
    sweep.warmup = warmup;
    sweep.measure = measure;
    sweep.samples = samples;
    sweep.unit_costs = unit_costs;
    let mut config = LoadgenConfig::new(sweep);
    if let Some(models) = models {
        config.models = models;
    }
    if let Some(fabrics) = fabrics {
        config.fabrics = fabrics;
    }
    if let Some(fabric) = topology {
        config.fabrics = vec![fabric];
    }
    if let Some(patterns) = patterns {
        config.patterns = patterns;
    }
    if let Some(rates) = rates {
        config.rates_pm = rates;
    }
    if let Some(windows) = windows {
        config.windows = windows;
    }
    if let Some(fault_rates) = fault_rates {
        config.fault_rates_pm = fault_rates;
    }
    if config.rates_pm.windows(2).any(|w| w[0] >= w[1]) {
        eprintln!("loadgen: --rates must be strictly ascending");
        std::process::exit(2);
    }
    if config.fault_rates_pm.windows(2).any(|w| w[0] >= w[1])
        || config.fault_rates_pm.iter().any(|&r| r > 1000)
    {
        eprintln!("loadgen: --fault-rates must be strictly ascending per-mille (0..=1000)");
        std::process::exit(2);
    }

    let report = config.run();
    if !quiet {
        println!(
            "offered-load sweep: {width}×{height} grid, {} curve(s), warmup {warmup} + measure {measure} cycles per point",
            report.curves.len()
        );
        print!("{}", summarize(&report));
    }
    let out_path = out_path.unwrap_or_else(|| "BENCH_loadgen.json".into());
    tcni_bench::write_artifact(&out_path, &report.to_json());
    println!("wrote {out_path} (schema tcni-load/1)");
}
