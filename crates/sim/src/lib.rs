//! # tcni-sim — the multicomputer simulator
//!
//! Couples the substrates of the TCNI reproduction into whole machines: each
//! node is a `tcni-cpu` processor, a `tcni-core` network interface, and local
//! memory; nodes are connected by a `tcni-net` fabric. The coupling follows
//! one of the three §3 implementations of the paper (off-chip cache, on-chip
//! cache, register file), at either feature level, giving the six evaluation
//! [`Model`]s of §4.
//!
//! ```
//! use tcni_sim::{MachineBuilder, Model};
//!
//! // A 4-node machine, optimized register-mapped interface.
//! let machine = MachineBuilder::new(4).model(Model::ALL_SIX[0]).build();
//! assert_eq!(machine.node_count(), 4);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod collective;
mod delivery;
mod driver;
mod env;
pub mod json;
mod machine;
mod model;
mod node;
mod obs;
mod outbox;
mod trace;

pub use collective::{CollDone, Collective, CollectiveStats};
pub use delivery::{Delivery, DeliveryConfig, DeliveryStats};
pub use driver::{Activity, CycleDriver};
pub use env::NodeEnv;
pub use machine::{BuildError, Machine, MachineBuilder, RunOutcome, TreeMismatch};
pub use model::{Model, NiMapping};
pub use node::Node;
pub use obs::{MsgCounters, MsgSpan, NodeRollup, Obs, ObsReport, TRACE_SCHEMA};
pub use trace::{Trace, TraceEvent};
