//! Sensitivity and ablation experiments.
//!
//! * [`offchip_sweep`] — §4.2.3: "Figure 12 assumes a two cycle latency for
//!   reads from the off-chip interface. If, however, the latency is
//!   increased to 8 cycles instead of 2, then the communication costs of the
//!   off-chip optimized model will double. As a result, relegating the
//!   network interface off-chip will not remain a viable alternative…"
//! * [`feature_ablation`] — experiment A2 of DESIGN.md: enable each §2.2
//!   optimization alone and expand the same program counts, attributing the
//!   savings to individual mechanisms.
//! * [`queue_sweep`] — experiment A1: a producer/consumer machine run under
//!   varying output-queue capacities, showing how buffering absorbs bursts
//!   (§2.1.1 flow control made quantitative).

use tcni_core::mapping::gpr_alias;
use tcni_core::{FeatureLevel, FeatureSet, InterfaceReg, NiCmd, NodeId, WireFormat};
use tcni_cpu::TimingConfig;
use tcni_isa::{AluOp, Assembler, Cond, CostClass, MsgType, Reg};
use tcni_net::FabricConfig;
use tcni_sim::{MachineBuilder, Model, NiMapping, RunOutcome};
use tcni_tam::TamCounts;

use crate::figure12::{breakdown, Breakdown, NonMessageCosts};
use crate::table1::Table1;

/// One point of the off-chip latency sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OffchipPoint {
    /// Extra cycles an off-chip NI load needs before its value is usable.
    pub load_extra: u32,
    /// The optimized off-chip model's breakdown at this latency.
    pub optimized_offchip: Breakdown,
    /// The basic off-chip model's breakdown at this latency.
    pub basic_offchip: Breakdown,
}

/// Sweeps the off-chip load latency, re-measuring Table 1 at each point and
/// expanding the same dynamic counts. Points are measured in parallel.
pub fn offchip_sweep(counts: &TamCounts, extras: &[u32]) -> Vec<OffchipPoint> {
    let base = NonMessageCosts::new();
    tcni_util::par::par_map(extras.to_vec(), |e| {
        let t = Table1::measure_with(TimingConfig::new().with_offchip_load_extra(e));
        OffchipPoint {
            load_extra: e,
            optimized_offchip: breakdown(counts, t.model(Model::ALL_SIX[2]), &base),
            basic_offchip: breakdown(counts, t.model(Model::ALL_SIX[5]), &base),
        }
    })
}

/// One row of the per-optimization ablation.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Which mechanisms were enabled.
    pub label: String,
    /// The feature set.
    pub features: FeatureSet,
    /// Communication cycles per placement, in [`NiMapping::ALL`] order
    /// (off-chip, on-chip, register).
    pub comm: [f64; 3],
}

/// Measures the cost table under each optimization alone (and the two
/// corners) and expands `counts`, isolating each mechanism's contribution.
pub fn feature_ablation(counts: &TamCounts) -> Vec<AblationRow> {
    let base = NonMessageCosts::new();
    let sets: [(&str, FeatureSet); 6] = [
        ("none (basic)", FeatureSet::BASIC),
        (
            "encoded types only",
            FeatureSet {
                encoded_types: true,
                ..FeatureSet::BASIC
            },
        ),
        (
            "reply/forward only",
            FeatureSet {
                reply_forward: true,
                ..FeatureSet::BASIC
            },
        ),
        (
            "hw dispatch only",
            FeatureSet {
                hw_dispatch: true,
                ..FeatureSet::BASIC
            },
        ),
        (
            "boundary checks only",
            FeatureSet {
                boundary_checks: true,
                ..FeatureSet::BASIC
            },
        ),
        ("all (optimized)", FeatureSet::OPTIMIZED),
    ];
    tcni_util::par::par_map(sets.to_vec(), |(label, features)| {
        let per_mapping = Table1::measure_features(features, TimingConfig::new());
        let comm = std::array::from_fn(|i| {
            let b = breakdown(counts, &per_mapping[i], &base);
            b.comm()
        });
        AblationRow {
            label: label.to_owned(),
            features,
            comm,
        }
    })
}

/// The 88110MP experiment (extension A3): Table 1 re-measured under dual
/// issue. The paper's industrial implementation "is dual issue and the
/// network interface can execute two coprocessor network instructions per
/// cycle" — pairing independent interface accesses shortens the
/// memory-mapped handler sequences.
pub fn dual_issue_tables() -> (Table1, Table1) {
    let single = Table1::measure_with(TimingConfig::new());
    let dual = Table1::measure_with(TimingConfig::new().with_dual_issue());
    (single, dual)
}

/// One point of the queue-capacity ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuePoint {
    /// Output- and input-queue capacity in messages.
    pub capacity: usize,
    /// Machine cycles to deliver and process the whole burst.
    pub cycles: u64,
    /// Producer cycles lost stalling on a full output queue.
    pub producer_env_stalls: u64,
}

const BURST: u16 = 48;
const QUEUE_MSG_TYPE: u8 = 2;

fn producer_program() -> tcni_isa::Program {
    let o0 = gpr_alias(InterfaceReg::O0);
    let o1 = gpr_alias(InterfaceReg::O1);
    let mut a = Assembler::new();
    a.set_class(CostClass::Communication);
    a.ori(Reg::R2, Reg::R0, BURST);
    a.li(Reg::R3, NodeId::new(1).into_word_bits(WireFormat::Compact));
    a.label("loop");
    a.mov(o0, Reg::R3);
    a.mov_ni(
        o1,
        Reg::R2,
        NiCmd::send(MsgType::new(QUEUE_MSG_TYPE).unwrap()),
    );
    a.alu(AluOp::Sub, Reg::R2, Reg::R2, 1u16);
    a.bcnd(Cond::Ne0, Reg::R2, "loop");
    a.nop();
    a.halt();
    a.assemble().expect("producer assembles")
}

fn consumer_program() -> tcni_isa::Program {
    let msgip = gpr_alias(InterfaceReg::MsgIp);
    let mut a = Assembler::new();
    // Host stages IpBase = 0x4000 and r8 = BURST.
    a.label("dispatch");
    a.set_class(CostClass::Dispatch);
    a.jmp(msgip);
    a.set_class(CostClass::Compute);
    a.nop();
    a.br("dispatch");
    a.nop();
    a.org(0x4000); // type-0 slot: nothing arrived yet
    a.br("dispatch");
    a.nop();
    a.org(0x4000 + u32::from(QUEUE_MSG_TYPE) * 16);
    a.set_class(CostClass::Communication);
    // Per-message work: slow enough that the producer can outrun us.
    for _ in 0..6 {
        a.nop();
    }
    a.mov_ni(Reg::R5, Reg::R0, NiCmd::next());
    a.addi(Reg::R6, Reg::R6, 1);
    a.alu(AluOp::CmpEq, Reg::R7, Reg::R6, Reg::R8);
    a.bcnd(Cond::Ne0, Reg::R7, "done");
    a.nop();
    a.br("dispatch");
    a.nop();
    a.label("done");
    a.halt();
    a.assemble().expect("consumer assembles")
}

/// Runs the producer/consumer burst under each queue capacity.
///
/// # Panics
///
/// Panics if a run fails to quiesce (would indicate a flow-control bug).
pub fn queue_sweep(capacities: &[usize]) -> Vec<QueuePoint> {
    tcni_util::par::par_map(capacities.to_vec(), |cap| {
        let model = Model::new(NiMapping::RegisterFile, FeatureLevel::Optimized);
        // A finite-buffered fabric, so congestion genuinely backs up
        // into the sender's output queue (§2.1.1).
        let mut machine = MachineBuilder::new(2)
            .model(model)
            .ni_queues(cap, cap)
            .program(0, producer_program())
            .program(1, consumer_program())
            .network_fabric(FabricConfig::new(2, 1))
            .build();
        machine
            .node_mut(1)
            .ni_mut()
            .write_reg(InterfaceReg::IpBase, 0x4000)
            .expect("IpBase writable");
        machine
            .node_mut(1)
            .cpu_mut()
            .set_reg(Reg::R8, u32::from(BURST));
        let outcome = machine.run(200_000);
        assert_eq!(
            outcome,
            RunOutcome::Quiescent,
            "queue sweep cap={cap}: {outcome:?}"
        );
        assert_eq!(
            machine.node(1).cpu().reg(Reg::R6),
            u32::from(BURST),
            "all messages processed"
        );
        QueuePoint {
            capacity: cap,
            cycles: machine.cycle(),
            producer_env_stalls: machine.node(0).cpu().stats().env_stalls,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcni_tam::programs;

    fn counts() -> TamCounts {
        programs::matmul::run(8, 4).unwrap().counts
    }

    #[test]
    fn offchip_latency_roughly_doubles_offchip_comm() {
        let c = counts();
        let pts = offchip_sweep(&c, &[2, 8]);
        let ratio = pts[1].optimized_offchip.comm() / pts[0].optimized_offchip.comm();
        assert!(
            (1.5..=2.6).contains(&ratio),
            "§4.2.3 predicts roughly doubled communication cost, got ×{ratio:.2}"
        );
        // Compute work is untouched by interface latency.
        assert_eq!(
            pts[0].optimized_offchip.compute,
            pts[1].optimized_offchip.compute
        );
    }

    #[test]
    fn each_feature_alone_helps_and_all_beat_each() {
        let c = counts();
        let rows = feature_ablation(&c);
        let basic = rows[0].comm;
        let all = rows[5].comm;
        for (i, row) in rows.iter().enumerate().skip(1).take(3) {
            for (p, (got, base)) in row.comm.iter().zip(basic.iter()).enumerate() {
                assert!(
                    got <= &(base + 1e-9),
                    "feature {} must not hurt at placement {p}: {got} vs basic {base}",
                    row.label,
                );
            }
            let helps_somewhere = row
                .comm
                .iter()
                .zip(basic.iter())
                .any(|(g, b)| g < &(b - 1e-9));
            assert!(helps_somewhere, "feature {i} ({}) never helps", row.label);
        }
        for (p, (a, b)) in all.iter().zip(basic.iter()).enumerate() {
            assert!(a < b, "all features must beat basic at {p}");
        }
    }

    #[test]
    fn deeper_queues_absorb_bursts() {
        let pts = queue_sweep(&[2, 16]);
        assert!(
            pts[1].producer_env_stalls <= pts[0].producer_env_stalls,
            "{pts:?}"
        );
        assert!(
            pts[0].producer_env_stalls > 0,
            "shallow queues must stall: {pts:?}"
        );
        assert!(pts[1].cycles <= pts[0].cycles + 8, "{pts:?}");
    }
}
