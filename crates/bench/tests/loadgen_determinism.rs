//! The load generator's bit-identity contract: the `tcni-load/1` artifact
//! of a sweep is a pure function of its configuration — independent of the
//! worker-thread count and repeatable run to run.
//!
//! This lives in its own integration-test binary because it mutates the
//! process-global `TCNI_THREADS` override via [`par::set_threads`]; the
//! tests here serialize on [`threads_lock`] for the same reason.

use std::sync::{Mutex, MutexGuard};

use tcni_bench::load::LoadgenConfig;
use tcni_util::par;
use tcni_workload::{Pattern, SweepConfig, Topology};

/// Serializes tests that flip the process-global thread override.
fn threads_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn small_sweep(seed: u64) -> String {
    let mut sweep = SweepConfig::new(Topology::new(2, 2));
    sweep.seed = seed;
    sweep.warmup = 200;
    sweep.measure = 1000;
    sweep.samples = 2;
    let mut cfg = LoadgenConfig::new(sweep);
    cfg.patterns = vec![Pattern::Uniform, Pattern::Hotspot { hot_pm: 300 }];
    cfg.rates_pm = vec![100, 500];
    cfg.windows = vec![2];
    cfg.run().to_json()
}

#[test]
fn artifact_is_bit_identical_across_thread_counts_and_runs() {
    let _guard = threads_lock();
    par::set_threads(1);
    let serial = small_sweep(42);
    par::set_threads(4);
    let parallel = small_sweep(42);
    let repeat = small_sweep(42);
    assert_eq!(
        serial, parallel,
        "TCNI_THREADS=1 vs 4 must serialize identically"
    );
    assert_eq!(
        parallel, repeat,
        "same-seed runs must serialize identically"
    );
    assert!(serial.contains("\"schema\": \"tcni-load/1\""));
    // A different seed is a genuinely different experiment.
    assert_ne!(serial, small_sweep(43));
}
