//! Table 1, measured: "the number of 88100 RISC processor cycles it takes
//! each network interface implementation to send a message, to dispatch an
//! arrived message to the appropriate message handler, and to process a
//! message."
//!
//! Every cell is produced by executing the corresponding handler program on
//! the cycle simulator and reading the attributed cycle counters; the
//! staging code also *validates* each handler's architectural effect (the
//! right message sent, the right memory mutated), so the table doubles as a
//! protocol test suite.

use std::fmt;

use tcni_core::mapping::NI_WINDOW_BASE;
use tcni_core::InterfaceReg;
use tcni_cpu::TimingConfig;
use tcni_isa::CostClass;
use tcni_sim::{Model, NiMapping};

use crate::handlers::{dispatch, processing, sending, ProcCase, SendKind};
use crate::harness::{layout, measure, regs, Ctx, MeasureRun};
use crate::protocol;

/// A measured cost, possibly a range (register-mapped sending, where the
/// cost depends on whether values are computed directly into the output
/// registers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostRange {
    /// Best case.
    pub min: u32,
    /// Worst case.
    pub max: u32,
}

impl CostRange {
    /// A fixed (non-range) cost.
    pub fn fixed(v: u32) -> CostRange {
        CostRange { min: v, max: v }
    }

    /// A range cost.
    pub fn range(min: u32, max: u32) -> CostRange {
        CostRange { min, max }
    }

    /// The midpoint, used by the Figure-12 expansion ("we expect that the
    /// cost will typically be in the low to middle part of this range" —
    /// §4.1; we take the middle).
    pub fn mid(&self) -> f64 {
        f64::from(self.min + self.max) / 2.0
    }
}

impl fmt::Display for CostRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.min == self.max {
            write!(f, "{}", self.min)
        } else {
            write!(f, "{}-{}", self.min, self.max)
        }
    }
}

/// Measured costs for one of the six models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelCosts {
    /// SENDING: Send(0/1/2 words).
    pub send: [CostRange; 3],
    /// SENDING: Read request.
    pub read: CostRange,
    /// SENDING: Write.
    pub write: CostRange,
    /// SENDING: PRead request.
    pub pread: CostRange,
    /// SENDING: PWrite.
    pub pwrite: CostRange,
    /// DISPATCHING.
    pub dispatch: u32,
    /// PROCESSING: Send(0/1/2 words).
    pub proc_send: [u32; 3],
    /// PROCESSING: Read.
    pub proc_read: u32,
    /// PROCESSING: Write.
    pub proc_write: u32,
    /// PROCESSING: PRead (full).
    pub proc_pread_full: u32,
    /// PROCESSING: PRead (empty).
    pub proc_pread_empty: u32,
    /// PROCESSING: PRead (deferred).
    pub proc_pread_deferred: u32,
    /// PROCESSING: PWrite (empty).
    pub proc_pwrite_empty: u32,
    /// PROCESSING: PWrite (deferred) = base + slope·n.
    pub proc_pwrite_deferred_base: u32,
    /// Per-reader slope of the deferred PWrite.
    pub proc_pwrite_deferred_slope: u32,
}

impl ModelCosts {
    /// Sending cost of a kind.
    pub fn sending(&self, kind: SendKind) -> CostRange {
        match kind {
            SendKind::Send(k) => self.send[k],
            SendKind::Read => self.read,
            SendKind::Write => self.write,
            SendKind::PRead => self.pread,
            SendKind::PWrite => self.pwrite,
        }
    }
}

/// The whole measured table: the six models in Table-1 column order.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// The timing configuration measured under.
    pub timing: TimingConfig,
    /// Costs per model (see [`Model::ALL_SIX`] for order).
    pub models: [ModelCosts; 6],
}

impl Table1 {
    /// Measures the table under the paper's baseline timing.
    pub fn measure() -> Table1 {
        Table1::measure_with(TimingConfig::new())
    }

    /// Measures the table under an explicit timing configuration (the
    /// off-chip latency sweep of §4.2.3 uses this). The six models are
    /// measured in parallel (each on its own private simulator).
    pub fn measure_with(timing: TimingConfig) -> Table1 {
        let models = tcni_util::par::par_map_array(Model::ALL_SIX, |m| {
            measure_model(Ctx::from_model(m), timing)
        });
        Table1 { timing, models }
    }

    /// Measures the table for an arbitrary feature set at every placement —
    /// the per-optimization ablation. Returns placements in
    /// [`NiMapping::ALL`] order (off-chip, on-chip, register).
    pub fn measure_features(
        features: tcni_core::FeatureSet,
        timing: TimingConfig,
    ) -> [ModelCosts; 3] {
        tcni_util::par::par_map_array(NiMapping::ALL, |mapping| {
            measure_model(Ctx { mapping, features }, timing)
        })
    }

    /// The costs for a model.
    pub fn model(&self, model: Model) -> &ModelCosts {
        let idx = Model::ALL_SIX
            .iter()
            .position(|m| *m == model)
            .expect("one of the six models");
        &self.models[idx]
    }
}

fn stage_common(
    ctx: Ctx,
) -> impl Fn(&mut tcni_cpu::Cpu, &mut tcni_core::NetworkInterface, &mut tcni_cpu::MemEnv) {
    move |cpu, ni, _mem| {
        cpu.set_reg(regs::NI_BASE, NI_WINDOW_BASE);
        cpu.set_reg(regs::TABLE_BASE, layout::TABLE);
        cpu.set_reg(regs::FOUR, 4);
        cpu.set_reg(regs::ONE, 1);
        cpu.set_reg(regs::TWO, 2);
        cpu.set_reg(regs::FREE, layout::NODES);
        if ctx.features.hw_dispatch {
            ni.write_reg(InterfaceReg::IpBase, layout::TABLE)
                .expect("IpBase writable with hardware dispatch");
        }
    }
}

/// Measures one SENDING cell, validating the emitted message.
fn measure_sending(ctx: Ctx, timing: TimingConfig, kind: SendKind, best: bool) -> u32 {
    let program = sending::program(ctx, kind, best);
    let common = stage_common(ctx);
    let run = measure(ctx, timing, &program, |cpu, ni, mem| {
        common(cpu, ni, mem);
        let (r2, r3, r5, r6, r8) = sending::expect::staged(kind);
        cpu.set_reg(tcni_isa::Reg::R2, r2);
        cpu.set_reg(tcni_isa::Reg::R3, r3);
        cpu.set_reg(tcni_isa::Reg::R5, r5);
        cpu.set_reg(tcni_isa::Reg::R6, r6);
        cpu.set_reg(tcni_isa::Reg::R8, r8);
    });
    let mut ni = run.ni;
    let sent = ni
        .pop_outgoing()
        .expect("probe must send exactly one message");
    assert!(
        ni.pop_outgoing().is_none(),
        "probe must send exactly one message"
    );
    let expected = sending::expect::message(kind, ctx.features.encoded_types);
    assert_eq!(sent.words, expected.words, "{kind:?} message payload");
    assert_eq!(sent.mtype, expected.mtype, "{kind:?} message type");
    run.cpu.stats().class(CostClass::Communication).cycles as u32
}

/// Measures the DISPATCHING row with a typed (Read) message.
fn measure_dispatch(ctx: Ctx, timing: TimingConfig) -> u32 {
    let mut a = tcni_isa::Assembler::new();
    dispatch::emit(&mut a, ctx);
    a.org(layout::slot(protocol::TYPE_READ));
    a.set_class(CostClass::Compute);
    a.halt();
    let program = a.assemble().expect("dispatch probe assembles");
    let common = stage_common(ctx);
    let run = measure(ctx, timing, &program, |cpu, ni, mem| {
        common(cpu, ni, mem);
        let probe = processing::probe(ctx, ProcCase::Read);
        ni.push_incoming(probe.incoming).expect("empty input queue");
    });
    run.cycles(CostClass::Dispatch) as u32
}

/// Measures one PROCESSING cell, validating the handler's effect.
fn measure_processing(ctx: Ctx, timing: TimingConfig, case: ProcCase) -> u32 {
    let probe = processing::probe(ctx, case);
    let common = stage_common(ctx);
    let incoming = probe.incoming;
    let run = measure(ctx, timing, &probe.program, |cpu, ni, mem| {
        common(cpu, ni, mem);
        processing::stage_memory(mem, case);
        ni.push_incoming(incoming).expect("empty input queue");
    });
    validate_processing(&run, case, &incoming);
    run.cycles(CostClass::Communication) as u32
}

fn validate_processing(run: &MeasureRun, case: ProcCase, incoming: &tcni_core::Message) {
    let mut ni = run.ni.clone();
    assert!(
        !ni.msg_valid(),
        "{case:?}: handler must consume the message (NEXT)"
    );
    match case {
        ProcCase::Send(k) => {
            if k >= 1 {
                assert_eq!(run.mem.peek(layout::FRAME + 8), 0xD0, "{case:?}: payload 0");
            }
            if k >= 2 {
                assert_eq!(
                    run.mem.peek(layout::FRAME + 12),
                    0xD1,
                    "{case:?}: payload 1"
                );
            }
            assert_eq!(
                run.cpu.reg(tcni_isa::Reg::R2),
                layout::FRAME,
                "{case:?}: FP in thread reg"
            );
        }
        ProcCase::Read => {
            let reply = ni.pop_outgoing().expect("Read must reply");
            assert_eq!(reply.words[0], incoming.words[1], "reply to requester FP");
            assert_eq!(reply.words[1], incoming.words[2], "reply handler IP");
            assert_eq!(reply.words[2], 0x1234, "the requested value");
        }
        ProcCase::Write => {
            assert_eq!(run.mem.peek(layout::DATUM), 0xBEEF);
            assert!(ni.pop_outgoing().is_none(), "Write sends nothing");
        }
        ProcCase::PReadFull => {
            let reply = ni.pop_outgoing().expect("full PRead must reply");
            assert_eq!(reply.words[2], 0x5678);
        }
        ProcCase::PReadEmpty => {
            assert!(ni.pop_outgoing().is_none(), "deferral sends nothing");
            assert_eq!(run.mem.peek(layout::CELL), protocol::tag::DEFERRED);
            assert_eq!(run.mem.peek(layout::CELL + 4), layout::NODES);
            assert_eq!(run.mem.peek(layout::NODES + 4), incoming.words[1]);
            assert_eq!(run.mem.peek(layout::NODES + 8), incoming.words[2]);
            assert_eq!(
                run.cpu.reg(regs::FREE),
                layout::NODES + protocol::node::SIZE,
                "free list advanced"
            );
        }
        ProcCase::PReadDeferred => {
            assert!(ni.pop_outgoing().is_none());
            assert_eq!(
                run.mem.peek(layout::CELL + 4),
                layout::NODES,
                "new node prepended"
            );
            assert_eq!(
                run.mem.peek(layout::NODES),
                layout::NODES + 0x40,
                "new node links to the old head"
            );
        }
        ProcCase::PWriteEmpty => {
            assert!(ni.pop_outgoing().is_none());
            assert_eq!(run.mem.peek(layout::CELL), protocol::tag::FULL);
            assert_eq!(run.mem.peek(layout::CELL + 4), 0xABCD);
        }
        ProcCase::PWriteDeferred(n) => {
            assert_eq!(run.mem.peek(layout::CELL), protocol::tag::FULL);
            assert_eq!(run.mem.peek(layout::CELL + 4), 0xABCD);
            for i in 0..n {
                let reply = ni
                    .pop_outgoing()
                    .unwrap_or_else(|| panic!("reply {i} of {n}"));
                assert_eq!(reply.words[2], 0xABCD, "forwarded value");
                assert_eq!(
                    reply.words[0] & 0x00FF_FFFF,
                    0x800 + i * 0x10,
                    "reader {i} FP"
                );
                assert_eq!(reply.words[1], 0x9100 + i * 4, "reader {i} IP");
            }
            assert!(ni.pop_outgoing().is_none(), "exactly n replies");
        }
    }
}

fn measure_model(ctx: Ctx, timing: TimingConfig) -> ModelCosts {
    let send_range = |kind| {
        if ctx.mapping == NiMapping::RegisterFile {
            CostRange::range(
                measure_sending(ctx, timing, kind, true),
                measure_sending(ctx, timing, kind, false),
            )
        } else {
            CostRange::fixed(measure_sending(ctx, timing, kind, false))
        }
    };
    // Deferred PWrite: sweep n to fit base + slope·n and verify linearity.
    let pw = |n| measure_processing(ctx, timing, ProcCase::PWriteDeferred(n));
    let (c1, c2, c3) = (pw(1), pw(2), pw(3));
    let slope = c2 - c1;
    let base = c1 - slope;
    assert_eq!(c3, base + 3 * slope, "deferred PWrite must be linear in n");

    ModelCosts {
        send: [
            send_range(SendKind::Send(0)),
            send_range(SendKind::Send(1)),
            send_range(SendKind::Send(2)),
        ],
        read: send_range(SendKind::Read),
        write: send_range(SendKind::Write),
        pread: send_range(SendKind::PRead),
        pwrite: send_range(SendKind::PWrite),
        dispatch: measure_dispatch(ctx, timing),
        proc_send: [
            measure_processing(ctx, timing, ProcCase::Send(0)),
            measure_processing(ctx, timing, ProcCase::Send(1)),
            measure_processing(ctx, timing, ProcCase::Send(2)),
        ],
        proc_read: measure_processing(ctx, timing, ProcCase::Read),
        proc_write: measure_processing(ctx, timing, ProcCase::Write),
        proc_pread_full: measure_processing(ctx, timing, ProcCase::PReadFull),
        proc_pread_empty: measure_processing(ctx, timing, ProcCase::PReadEmpty),
        proc_pread_deferred: measure_processing(ctx, timing, ProcCase::PReadDeferred),
        proc_pwrite_empty: measure_processing(ctx, timing, ProcCase::PWriteEmpty),
        proc_pwrite_deferred_base: base,
        proc_pwrite_deferred_slope: slope,
    }
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let header = [
            "", "Register", "On-chip", "Off-chip", "Register", "On-chip", "Off-chip",
        ];
        writeln!(
            f,
            "{:<24} {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9}",
            "", "Optimized", "", "", "Basic", "", ""
        )?;
        writeln!(
            f,
            "{:<24} {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9}",
            header[0], header[1], header[2], header[3], header[4], header[5], header[6]
        )?;
        let row = |f: &mut fmt::Formatter<'_>,
                   label: &str,
                   get: &dyn Fn(&ModelCosts) -> String|
         -> fmt::Result {
            writeln!(
                f,
                "{:<24} {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9}",
                label,
                get(&self.models[0]),
                get(&self.models[1]),
                get(&self.models[2]),
                get(&self.models[3]),
                get(&self.models[4]),
                get(&self.models[5]),
            )
        };
        writeln!(f, "SENDING")?;
        for kind in SendKind::ALL {
            row(f, &format!("  {}", kind.label()), &|m| {
                m.sending(kind).to_string()
            })?;
        }
        writeln!(f, "DISPATCHING")?;
        row(f, "  -", &|m| m.dispatch.to_string())?;
        writeln!(f, "PROCESSING")?;
        for k in 0..3 {
            row(f, &format!("  Send ({k} words)"), &|m| {
                m.proc_send[k].to_string()
            })?;
        }
        row(f, "  Read", &|m| m.proc_read.to_string())?;
        row(f, "  Write", &|m| m.proc_write.to_string())?;
        row(f, "  PRead (full)", &|m| m.proc_pread_full.to_string())?;
        row(f, "  PRead (empty)", &|m| m.proc_pread_empty.to_string())?;
        row(f, "  PRead (deferred)", &|m| {
            m.proc_pread_deferred.to_string()
        })?;
        row(f, "  PWrite (empty)", &|m| m.proc_pwrite_empty.to_string())?;
        row(f, "  PWrite (deferred)", &|m| {
            format!(
                "{}+{}n",
                m.proc_pwrite_deferred_base, m.proc_pwrite_deferred_slope
            )
        })?;
        Ok(())
    }
}
