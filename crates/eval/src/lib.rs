//! # tcni-eval — the paper's evaluation, regenerated
//!
//! This crate reproduces §4 of Henry & Joerg (ASPLOS 1992):
//!
//! * [`table1`] — the per-message cost table, **measured** by executing real
//!   handler programs (from [`handlers`]) on the `tcni-cpu` cycle simulator
//!   coupled to the `tcni-core` interface under all six models;
//! * [`paper`] — the published Table 1, for side-by-side comparison;
//! * [`figure12`] — the program-level evaluation: dynamic TAM counts from
//!   `tcni-tam` expanded into 88100 cycles per model, split into
//!   {non-message work, dispatch, other communication};
//! * [`sweep`] — the §4.2.3 off-chip-latency sensitivity experiment and the
//!   ablation studies (queue sizing, individual optimizations).
//!
//! Every measurement point (model × timing × workload) is independent, so
//! the harness fans them out across threads with [`tcni_util::par::par_map`];
//! set `TCNI_THREADS=1` or call [`tcni_util::par::set_threads`]`(1)` for the
//! serial path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figure12;
pub mod handlers;
pub mod harness;
pub mod paper;
pub mod protocol;
pub mod sweep;
pub mod table1;
