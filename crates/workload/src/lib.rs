//! # tcni-workload — synthetic traffic and offered-load characterization
//!
//! The paper evaluates the tightly-coupled interface on real programs (TAM,
//! Table 1, Figure 12); this crate adds the complementary *synthetic* axis:
//! parameterized traffic patterns driven into the same six §4 interface
//! models over the same two fabrics, swept across offered load to find where
//! each configuration saturates.
//!
//! * [`Pattern`] / [`Topology`] — deterministic destination generators:
//!   uniform-random, nearest-neighbour, transpose, complement, hotspot.
//! * [`Injector`] — a [`tcni_sim::CycleDriver`] that plays every node's
//!   processor: open-loop (fixed offered rate, bounded backlog, shedding
//!   counted) or closed-loop (outstanding-window, reply-driven), with
//!   per-model processor occupancy from the published Table 1.
//! * [`run_open_curve`] / [`run_closed_curve`] — steady-state measurement
//!   windows over warmed-up machines, latency percentiles from the fabric
//!   histograms, and rule-based saturation detection.
//! * [`LoadReport`] — the versioned `tcni-load/1` JSON artifact.
//! * [`run_coll_sweep`] / [`CollReport`] — NIC-combining vs software
//!   collectives (barrier / broadcast / reduce) under a collective-storm
//!   load model, emitted as the versioned `tcni-coll/1` artifact.
//!
//! Everything is integer-arithmetic and seed-deterministic: the same seed
//! yields a byte-identical artifact on any host at any thread count.
//!
//! ## Example
//!
//! ```
//! use tcni_sim::Model;
//! use tcni_workload::{run_open_curve, Fabric, Pattern, SweepConfig, Topology};
//!
//! let mut sweep = SweepConfig::new(Topology::new(2, 2));
//! sweep.warmup = 200;
//! sweep.measure = 400;
//! let curve = run_open_curve(
//!     Model::ALL_SIX[0],
//!     Fabric::Ideal { latency: 2 },
//!     Pattern::Uniform,
//!     &[100, 300],
//!     &sweep,
//! );
//! assert_eq!(curve.points.len(), 2);
//! assert!(curve.points[0].delivered > 0);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coll;
mod inject;
mod pattern;
mod report;
mod sweep;

pub use coll::{
    run_coll_point, run_coll_sweep, CollMode, CollPoint, CollReport, CollStormConfig, COLL_SCHEMA,
};
pub use inject::{InjectCounters, Injector, InjectorConfig, InjectorError, LoopMode, ServiceCosts};
pub use pattern::{Pattern, Topology, DEFAULT_HOT_PM};
pub use report::{LoadReport, LOAD_SCHEMA};
pub use sweep::{
    detect_saturation, run_closed_curve, run_open_curve, run_point, Curve, Fabric, PointStats,
    SweepConfig, DEFAULT_IDEAL_LATENCY,
};
