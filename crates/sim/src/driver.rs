//! External cycle drivers: synthetic "processors" plugged into the machine
//! loop.
//!
//! The paper's evaluation runs real programs on the simulated CPUs, but the
//! offered-load/latency characterization (the `tcni-workload` crate) needs
//! the opposite: nodes whose traffic is *synthesized* at a controlled rate,
//! with the architected network interfaces, queues, and fabric unchanged. A
//! [`CycleDriver`] is that synthetic processor: once per global cycle, before
//! the network phases, it may operate any node's interface — compose and
//! SEND messages, consume arrived ones with NEXT — through exactly the same
//! `NetworkInterface` API the instruction-driven models use.
//!
//! [`Machine::run_driven`](crate::Machine::run_driven) threads a driver
//! through the stepping loop. Everything downstream of the interfaces —
//! injection arbitration, fabric ticks, backpressure, delivery, statistics,
//! tracing, observability — is the ordinary machine loop; the driver only
//! replaces the instruction stream.
//!
//! # The activity contract
//!
//! A driven cycle should cost what its traffic costs, not what the machine
//! size costs. Two facts make that possible, and they travel through
//! [`CycleDriver::on_cycle_active`] as an [`Activity`]:
//!
//! * **What the machine tells the driver:** [`Activity::pending`], the
//!   ascending list of nodes whose input registers may hold a message
//!   (every node with [`msg_valid`](tcni_core::NetworkInterface::msg_valid)
//!   set is on it; a few extras may be). `None` means the machine does not
//!   know — the first driven cycle, or after [`Machine::node_mut`], `step`
//!   or `run` — and the driver must look at every node.
//! * **What the driver tells the machine:** [`Activity::touch`] for every
//!   node whose interface it queued an outgoing message on or whose
//!   [`coll_request`](Node::coll_request) latch it set. The machine then
//!   merges those nodes into its injection lists instead of re-deriving
//!   the lists from every node. A driver that cannot name its nodes, or
//!   that changed a processor's run state, calls [`Activity::touch_all`].
//!
//! The provided [`on_cycle_active`](CycleDriver::on_cycle_active) calls
//! [`on_cycle`](CycleDriver::on_cycle) and then `touch_all`: a driver that
//! implements only `on_cycle` (closures, wrappers) keeps working unchanged
//! and pays the old per-cycle O(nodes) refresh.
//!
//! [`Machine::node_mut`]: crate::Machine::node_mut

use crate::node::Node;

/// A synthetic per-cycle actor driving node interfaces from outside the
/// instruction set.
///
/// Called at the top of every machine cycle (the position of the processor
/// phase). Implementations typically enqueue outgoing messages via
/// [`NetworkInterface::write_reg`](tcni_core::NetworkInterface::write_reg) +
/// [`send`](tcni_core::NetworkInterface::send) and drain arrived ones via
/// [`next`](tcni_core::NetworkInterface::next) — respecting whatever pacing
/// discipline they model.
pub trait CycleDriver {
    /// One driver step for global cycle `cycle` over all nodes.
    ///
    /// Return `false` to stop the run after this cycle's network phases
    /// (e.g. when a measurement window is complete);
    /// [`Machine::run_driven`](crate::Machine::run_driven) then returns
    /// [`RunOutcome::DriverStopped`](crate::RunOutcome::DriverStopped).
    fn on_cycle(&mut self, cycle: u64, nodes: &mut [Node]) -> bool;

    /// One driver step that also exchanges the cycle's activity with the
    /// machine (see [`Activity`]): `activity` names the nodes with input
    /// waiting, and collects the nodes the driver queued traffic on.
    /// [`Machine::run_driven`](crate::Machine::run_driven) calls this, not
    /// [`on_cycle`](Self::on_cycle).
    ///
    /// The default runs `on_cycle` and reports every node touched.
    fn on_cycle_active(
        &mut self,
        cycle: u64,
        nodes: &mut [Node],
        activity: &mut Activity<'_>,
    ) -> bool {
        activity.touch_all();
        self.on_cycle(cycle, nodes)
    }
}

/// A closure is a driver: `|cycle, nodes| { ...; true }`.
impl<F: FnMut(u64, &mut [Node]) -> bool> CycleDriver for F {
    fn on_cycle(&mut self, cycle: u64, nodes: &mut [Node]) -> bool {
        self(cycle, nodes)
    }
}

/// One driven cycle's activity, exchanged between the machine and a
/// [`CycleDriver`] — the activity contract.
///
/// The machine fills in [`pending`](Self::pending): every node whose input
/// registers hold a message is on it, or it is `None` and the driver must
/// look at every node. The driver reports with [`touch`](Self::touch) every
/// node it queued an outgoing message on or latched a collective request
/// at; a driver that cannot name them, or that changed a processor's run
/// state, calls [`touch_all`](Self::touch_all), and the machine re-derives
/// its lists from every node.
#[derive(Debug)]
pub struct Activity<'a> {
    pending: Option<&'a [usize]>,
    touched: &'a mut Vec<usize>,
    all: bool,
}

impl<'a> Activity<'a> {
    /// An activity record over the machine's pending-input list (`None`:
    /// unknown) that collects touched nodes into `touched`.
    pub(crate) fn new(pending: Option<&'a [usize]>, touched: &'a mut Vec<usize>) -> Activity<'a> {
        touched.clear();
        Activity {
            pending,
            touched,
            all: false,
        }
    }

    /// The nodes whose input registers may hold a message, ascending — a
    /// superset of the nodes with `msg_valid` set — or `None` when the
    /// machine does not know and the driver must look at every node.
    pub fn pending(&self) -> Option<&[usize]> {
        self.pending
    }

    /// Reports that the driver queued an outgoing message on `node`'s
    /// interface or latched a collective request there. Repeats and any
    /// order are fine.
    pub fn touch(&mut self, node: usize) {
        self.touched.push(node);
    }

    /// Reports that the driver may have changed any node (the fallback: the
    /// machine re-derives its lists from every node).
    pub fn touch_all(&mut self) {
        self.all = true;
    }

    /// Whether [`touch_all`](Self::touch_all) was called.
    pub(crate) fn all(&self) -> bool {
        self.all
    }
}
