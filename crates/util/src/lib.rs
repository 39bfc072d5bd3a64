//! # tcni-util — shared threading substrate
//!
//! The one place the workspace reads and clamps `TCNI_THREADS`, and the one
//! place it spawns worker threads: the evaluation pipeline (`tcni-eval` and
//! the bench bins) fans independent measurements out with
//! [`par::par_map`]. The machine simulator's cycle is serial; it spawns no
//! thread of its own.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod par;
