//! Complete two-node remote-read programs for every model — the paper's
//! §2.1.4 example as runnable machine code, used by integration tests and
//! mirrored (with narration) in `examples/quickstart.rs`.

use tcni_core::mapping::{cmd_addr, gpr_alias, reg_addr, NI_WINDOW_BASE};
use tcni_core::{FeatureLevel, InterfaceReg, MsgType, NiCmd, NodeId, WireFormat};
use tcni_isa::{AluOp, Assembler, Cond, Program, Reg};
use tcni_sim::{Model, NiMapping};

use crate::protocol::TYPE_READ;

/// Handler-table base used by these programs.
pub const TABLE: u32 = 0x4000;
/// Server memory address served by the Read handler.
pub const REMOTE_ADDR: u32 = 0x100;
/// Requester memory address where the reply value lands.
pub const RESULT_ADDR: u32 = 0x80;
/// Frame pointer the requester names in its reply word (Read word 1).
const REPLY_FP: u32 = 0x200;

fn ty(n: u8) -> MsgType {
    MsgType::new(n).unwrap()
}

fn off(addr: u32) -> i16 {
    (addr - NI_WINDOW_BASE) as i16
}

fn slot(t: u8) -> u32 {
    TABLE + u32::from(t) * 16
}

fn emit_dispatch(a: &mut Assembler, model: Model) {
    match (model.level, model.mapping) {
        (FeatureLevel::Optimized, NiMapping::RegisterFile) => {
            a.label("dispatch");
            a.jmp(gpr_alias(InterfaceReg::MsgIp));
            a.nop();
            a.br("dispatch");
            a.nop();
        }
        (FeatureLevel::Optimized, _) => {
            a.label("dispatch");
            a.ld(Reg::R3, Reg::R9, off(reg_addr(InterfaceReg::MsgIp)));
            a.jmp(Reg::R3);
            a.nop();
            a.br("dispatch");
            a.nop();
        }
        (FeatureLevel::Basic, NiMapping::RegisterFile) => {
            a.label("dispatch");
            a.maski(Reg::R3, gpr_alias(InterfaceReg::Status), 1);
            a.bcnd(Cond::Eq0, Reg::R3, "dispatch");
            a.nop();
            a.shli(Reg::R5, gpr_alias(InterfaceReg::input(4)), 4);
            a.alu(AluOp::Or, Reg::R6, Reg::R10, Reg::R5);
            a.jmp(Reg::R6);
            a.nop();
        }
        (FeatureLevel::Basic, _) => {
            a.label("dispatch");
            a.ld(Reg::R2, Reg::R9, off(reg_addr(InterfaceReg::Status)));
            a.ld(Reg::R5, Reg::R9, off(reg_addr(InterfaceReg::I4)));
            a.maski(Reg::R3, Reg::R2, 1);
            a.bcnd(Cond::Eq0, Reg::R3, "dispatch");
            a.nop();
            a.shli(Reg::R6, Reg::R5, 4);
            a.alu(AluOp::Or, Reg::R7, Reg::R10, Reg::R6);
            a.jmp(Reg::R7);
            a.nop();
        }
    }
}

fn emit_setup(a: &mut Assembler, model: Model) {
    if model.mapping.is_memory_mapped() {
        a.li(Reg::R9, NI_WINDOW_BASE);
    }
    a.li(Reg::R10, TABLE);
    if model.level == FeatureLevel::Optimized {
        match model.mapping {
            NiMapping::RegisterFile => {
                a.mov(gpr_alias(InterfaceReg::IpBase), Reg::R10);
            }
            _ => {
                a.st(Reg::R10, Reg::R9, off(reg_addr(InterfaceReg::IpBase)));
            }
        }
    }
}

/// Builds the server: serves exactly one Read request, then halts.
pub fn server(model: Model) -> Program {
    let mut a = Assembler::new();
    emit_setup(&mut a, model);
    emit_dispatch(&mut a, model);
    a.org(slot(0));
    a.br("dispatch");
    a.nop();
    a.org(slot(TYPE_READ));
    match (model.level, model.mapping) {
        (FeatureLevel::Optimized, NiMapping::RegisterFile) => {
            a.ld_r_ni(
                gpr_alias(InterfaceReg::O2),
                gpr_alias(InterfaceReg::input(0)),
                Reg::R0,
                NiCmd::reply(ty(0)).with_next(),
            );
            a.halt();
        }
        (FeatureLevel::Basic, NiMapping::RegisterFile) => {
            a.mov(
                gpr_alias(InterfaceReg::O0),
                gpr_alias(InterfaceReg::input(1)),
            );
            a.mov(
                gpr_alias(InterfaceReg::O1),
                gpr_alias(InterfaceReg::input(2)),
            );
            a.mov(gpr_alias(InterfaceReg::O4), Reg::R0);
            a.ld_r_ni(
                gpr_alias(InterfaceReg::O2),
                gpr_alias(InterfaceReg::input(0)),
                Reg::R0,
                NiCmd::send(ty(0)).with_next(),
            );
            a.halt();
        }
        (FeatureLevel::Optimized, _) => {
            a.ld(Reg::R4, Reg::R9, off(reg_addr(InterfaceReg::I0)));
            a.ld(Reg::R5, Reg::R4, 0);
            a.st(
                Reg::R5,
                Reg::R9,
                off(cmd_addr(InterfaceReg::O2, NiCmd::reply(ty(0)).with_next())),
            );
            a.halt();
        }
        (FeatureLevel::Basic, _) => {
            a.ld(Reg::R2, Reg::R9, off(reg_addr(InterfaceReg::I1)));
            a.ld(Reg::R3, Reg::R9, off(reg_addr(InterfaceReg::I2)));
            a.ld(Reg::R4, Reg::R9, off(reg_addr(InterfaceReg::I0)));
            a.st(Reg::R2, Reg::R9, off(reg_addr(InterfaceReg::O0)));
            a.st(Reg::R3, Reg::R9, off(reg_addr(InterfaceReg::O1)));
            a.ld(Reg::R5, Reg::R4, 0);
            a.st(Reg::R5, Reg::R9, off(reg_addr(InterfaceReg::O2)));
            a.st(
                Reg::R0,
                Reg::R9,
                off(cmd_addr(InterfaceReg::O4, NiCmd::send(ty(0)).with_next())),
            );
            a.halt();
        }
    }
    a.assemble().expect("server assembles")
}

/// Builds the requester for node `self_node`: sends a Read to
/// `server_node` whose reply word names `self_node`, receives the reply,
/// stores the value at [`RESULT_ADDR`], and halts.
pub fn requester(model: Model, self_node: NodeId, server_node: NodeId) -> Program {
    let build = |reply_ip: u32| -> Program {
        let mut a = Assembler::new();
        emit_setup(&mut a, model);
        a.li(
            Reg::R2,
            server_node.into_word_bits(WireFormat::Compact) | REMOTE_ADDR,
        );
        a.li(
            Reg::R3,
            self_node.into_word_bits(WireFormat::Compact) | REPLY_FP,
        );
        a.li(Reg::R5, reply_ip);
        match model.mapping {
            NiMapping::RegisterFile => {
                if model.level == FeatureLevel::Basic {
                    a.ori(gpr_alias(InterfaceReg::O4), Reg::R0, u16::from(TYPE_READ));
                }
                a.mov(gpr_alias(InterfaceReg::O0), Reg::R2);
                a.mov(gpr_alias(InterfaceReg::O1), Reg::R3);
                a.mov_ni(
                    gpr_alias(InterfaceReg::O2),
                    Reg::R5,
                    NiCmd::send(ty(TYPE_READ)),
                );
            }
            _ => {
                a.st(Reg::R2, Reg::R9, off(reg_addr(InterfaceReg::O0)));
                a.st(Reg::R3, Reg::R9, off(reg_addr(InterfaceReg::O1)));
                if model.level == FeatureLevel::Basic {
                    a.st(Reg::R5, Reg::R9, off(reg_addr(InterfaceReg::O2)));
                    a.ori(Reg::R6, Reg::R0, u16::from(TYPE_READ));
                    a.st(
                        Reg::R6,
                        Reg::R9,
                        off(cmd_addr(InterfaceReg::O4, NiCmd::send(ty(TYPE_READ)))),
                    );
                } else {
                    a.st(
                        Reg::R5,
                        Reg::R9,
                        off(cmd_addr(InterfaceReg::O2, NiCmd::send(ty(TYPE_READ)))),
                    );
                }
            }
        }
        emit_dispatch(&mut a, model);
        a.org(slot(0));
        if model.level == FeatureLevel::Basic {
            // Basic id-0 slot: generic thread invoker (jump through word 1).
            match model.mapping {
                NiMapping::RegisterFile => {
                    a.jmp(gpr_alias(InterfaceReg::input(1)));
                    a.nop();
                }
                _ => {
                    a.ld(Reg::R6, Reg::R9, off(reg_addr(InterfaceReg::I1)));
                    a.jmp(Reg::R6);
                    a.nop();
                }
            }
        } else {
            a.br("dispatch");
            a.nop();
        }
        a.org(slot(0) + 0x400);
        a.label("reply_handler");
        match model.mapping {
            NiMapping::RegisterFile => {
                a.st(
                    gpr_alias(InterfaceReg::input(2)),
                    Reg::R0,
                    RESULT_ADDR as i16,
                );
                a.mov_ni(Reg::R2, Reg::R2, NiCmd::next());
            }
            _ => {
                a.ld(
                    Reg::R7,
                    Reg::R9,
                    off(cmd_addr(InterfaceReg::I2, NiCmd::next())),
                );
                a.st(Reg::R7, Reg::R0, RESULT_ADDR as i16);
            }
        }
        a.halt();
        a.assemble().expect("requester assembles")
    };
    let pass1 = build(0);
    let ip = pass1.resolve("reply_handler").expect("label defined");
    let pass2 = build(ip);
    debug_assert_eq!(pass2.resolve("reply_handler"), Some(ip));
    pass2
}
