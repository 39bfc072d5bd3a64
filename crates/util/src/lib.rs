//! # tcni-util — shared threading substrate
//!
//! The one place the workspace reads and clamps `TCNI_THREADS`, and the one
//! place it spawns worker threads. Two layers consume it:
//!
//! * the evaluation pipeline (`tcni-eval` and the bench bins) fans
//!   independent measurements out with [`par::par_map`];
//! * the machine simulator (`tcni-sim`) shards a *single* machine's cycle
//!   across spatial domains with [`par::run_tasks`], which keeps a
//!   persistent pool alive so the per-cycle fork/join costs microseconds,
//!   not a thread spawn.
//!
//! This crate deliberately contains the workspace's only `unsafe` code, all
//! of it in [`par`]: the lifetime erasure inside the worker pool, and the
//! `SendPtr` through which [`par::run_tasks`] hands each worker its own
//! element of the task slice. Everything it exports is a safe API with the
//! soundness argument documented at the `unsafe` block, so `tcni-net` and
//! `tcni-sim` can stay `#![forbid(unsafe_code)]` while sharing one audited
//! substrate.
#![warn(missing_docs)]

pub mod par;
