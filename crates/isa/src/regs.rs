//! Register files and cross-ISA state transformation (§5 "Applications'
//! Compiler and Linker").
//!
//! Applications are "compiled in a way that makes them amenable to
//! migration, such that they can continue executing on another ISA-CPU
//! carrying over the existing application state minus the CPU-state
//! that is converted". The Popcorn compiler aligns stack layouts and
//! restricts migration to equivalence points (function boundaries), so
//! only the *register* state needs conversion. This module provides the
//! two register files, the ISA-neutral state at an equivalence point,
//! and the bidirectional transformation with its cost.

use crate::format::IsaKind;
use stramash_sim::Cycles;

/// Instructions the runtime executes to transform the register state at
/// a migration point (unmarshal + ABI re-mapping; UNIFICO-class
/// transformations are in the hundreds of instructions).
pub const TRANSFORM_INSNS: u64 = 320;

/// The x86-64 integer register file (System V ABI ordering).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct X86RegFile {
    /// rax, rbx, rcx, rdx, rsi, rdi, rbp, rsp, r8–r15.
    pub gpr: [u64; 16],
    /// Instruction pointer.
    pub rip: u64,
    /// Flags register.
    pub rflags: u64,
}

/// x86-64 GPR indices used by the transformation.
pub mod x86_reg {
    /// Return value.
    pub const RAX: usize = 0;
    /// First argument (SysV).
    pub const RDI: usize = 5;
    /// Second argument.
    pub const RSI: usize = 4;
    /// Third argument.
    pub const RDX: usize = 3;
    /// Frame pointer.
    pub const RBP: usize = 6;
    /// Stack pointer.
    pub const RSP: usize = 7;
}

/// The AArch64 integer register file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArmRegFile {
    /// x0–x30.
    pub x: [u64; 31],
    /// Stack pointer.
    pub sp: u64,
    /// Program counter.
    pub pc: u64,
    /// Processor state (NZCV etc.).
    pub pstate: u64,
}

/// AArch64 register indices used by the transformation (AAPCS64).
pub mod arm_reg {
    /// Return value / first argument.
    pub const X0: usize = 0;
    /// Second argument.
    pub const X1: usize = 1;
    /// Third argument.
    pub const X2: usize = 2;
    /// Frame pointer.
    pub const X29: usize = 29;
    /// Link register.
    pub const X30: usize = 30;
}

/// A register file of either ISA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegFile {
    /// x86-64 registers.
    X86(X86RegFile),
    /// AArch64 registers.
    Arm(ArmRegFile),
}

impl RegFile {
    /// The ISA the registers belong to.
    #[must_use]
    pub fn isa(&self) -> IsaKind {
        match self {
            RegFile::X86(_) => IsaKind::X86_64,
            RegFile::Arm(_) => IsaKind::Aarch64,
        }
    }
}

/// The ISA-neutral machine state at a Popcorn equivalence point: the
/// quantities both ABIs agree on at a function boundary. Everything
/// else (callee-saved registers) has already been spilled to the
/// common-layout stack by the migration-aware compiler.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MachineState {
    /// Program counter, as an address in the (ISA-independent) common
    /// virtual address space.
    pub pc: u64,
    /// Stack pointer (the stacks share one layout).
    pub sp: u64,
    /// Frame pointer.
    pub fp: u64,
    /// Return value / first three argument slots.
    pub args: [u64; 3],
    /// Condition flags, in a neutral NZCV encoding.
    pub flags: u64,
}

/// Extracts the neutral state from a register file (the "marshal" half
/// of the transformation).
#[must_use]
pub fn capture(regs: &RegFile) -> MachineState {
    match regs {
        RegFile::X86(r) => MachineState {
            pc: r.rip,
            sp: r.gpr[x86_reg::RSP],
            fp: r.gpr[x86_reg::RBP],
            args: [r.gpr[x86_reg::RDI], r.gpr[x86_reg::RSI], r.gpr[x86_reg::RDX]],
            flags: r.rflags & 0xff,
        },
        RegFile::Arm(r) => MachineState {
            pc: r.pc,
            sp: r.sp,
            fp: r.x[arm_reg::X29],
            args: [r.x[arm_reg::X0], r.x[arm_reg::X1], r.x[arm_reg::X2]],
            flags: r.pstate & 0xff,
        },
    }
}

/// Materialises the neutral state into a destination-ISA register file
/// (the "unmarshal" half).
#[must_use]
pub fn materialize(state: &MachineState, isa: IsaKind) -> RegFile {
    match isa {
        IsaKind::X86_64 => {
            let mut r = X86RegFile { rip: state.pc, rflags: state.flags, ..Default::default() };
            r.gpr[x86_reg::RSP] = state.sp;
            r.gpr[x86_reg::RBP] = state.fp;
            r.gpr[x86_reg::RDI] = state.args[0];
            r.gpr[x86_reg::RSI] = state.args[1];
            r.gpr[x86_reg::RDX] = state.args[2];
            RegFile::X86(r)
        }
        IsaKind::Aarch64 => {
            let mut r = ArmRegFile {
                pc: state.pc,
                sp: state.sp,
                pstate: state.flags,
                ..Default::default()
            };
            r.x[arm_reg::X29] = state.fp;
            r.x[arm_reg::X0] = state.args[0];
            r.x[arm_reg::X1] = state.args[1];
            r.x[arm_reg::X2] = state.args[2];
            RegFile::Arm(r)
        }
    }
}

/// Transforms a register file to the other ISA, returning the new file
/// and the runtime cost of the conversion (charged at the migration
/// destination).
#[must_use]
pub fn transform(regs: &RegFile, to: IsaKind) -> (RegFile, u64) {
    if regs.isa() == to {
        return (*regs, 0);
    }
    (materialize(&capture(regs), to), TRANSFORM_INSNS)
}

/// Serialized size of the migration payload: the neutral state plus the
/// common-layout callee-saved spill area the compiler reserves.
#[must_use]
pub fn migration_payload_bytes() -> u32 {
    let neutral = std::mem::size_of::<MachineState>() as u32;
    let spill_area = 1024; // callee-saved + FP state in the common layout
    let fp_regs = 32 * 16; // 32 vector registers, 128-bit lanes
    neutral + spill_area + fp_regs
}

/// A migration-cost descriptor used by the OS layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationCostModel {
    /// Message payload bytes for the shipped state.
    pub payload_bytes: u32,
    /// Instructions of state transformation at the destination.
    pub transform_insns: u64,
}

impl MigrationCostModel {
    /// The Popcorn-toolchain model used by both OS designs.
    #[must_use]
    pub fn popcorn_toolchain() -> Self {
        MigrationCostModel {
            payload_bytes: migration_payload_bytes(),
            transform_insns: TRANSFORM_INSNS,
        }
    }

    /// Transformation time in cycles at fixed IPC 1.
    #[must_use]
    pub fn transform_cycles(&self) -> Cycles {
        Cycles::new(self.transform_insns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_x86() -> RegFile {
        let mut r = X86RegFile { rip: 0x40_1000, rflags: 0b100_0101, ..Default::default() };
        r.gpr[x86_reg::RSP] = 0x7fff_0000;
        r.gpr[x86_reg::RBP] = 0x7fff_0040;
        r.gpr[x86_reg::RDI] = 11;
        r.gpr[x86_reg::RSI] = 22;
        r.gpr[x86_reg::RDX] = 33;
        RegFile::X86(r)
    }

    #[test]
    fn capture_extracts_abi_state() {
        let s = capture(&sample_x86());
        assert_eq!(s.pc, 0x40_1000);
        assert_eq!(s.sp, 0x7fff_0000);
        assert_eq!(s.fp, 0x7fff_0040);
        assert_eq!(s.args, [11, 22, 33]);
        assert_eq!(s.flags, 0b100_0101);
    }

    #[test]
    fn transform_x86_to_arm_maps_abi_registers() {
        let (arm, cost) = transform(&sample_x86(), IsaKind::Aarch64);
        assert_eq!(cost, TRANSFORM_INSNS);
        let RegFile::Arm(r) = arm else { panic!("expected Arm registers") };
        assert_eq!(r.pc, 0x40_1000);
        assert_eq!(r.sp, 0x7fff_0000);
        assert_eq!(r.x[arm_reg::X29], 0x7fff_0040);
        assert_eq!(r.x[arm_reg::X0], 11);
        assert_eq!(r.x[arm_reg::X1], 22);
        assert_eq!(r.x[arm_reg::X2], 33);
    }

    #[test]
    fn round_trip_preserves_neutral_state() {
        let original = sample_x86();
        let (arm, _) = transform(&original, IsaKind::Aarch64);
        let (back, _) = transform(&arm, IsaKind::X86_64);
        assert_eq!(capture(&back), capture(&original));
        assert_eq!(back.isa(), IsaKind::X86_64);
    }

    #[test]
    fn same_isa_transform_is_free() {
        let original = sample_x86();
        let (same, cost) = transform(&original, IsaKind::X86_64);
        assert_eq!(cost, 0);
        assert_eq!(same, original);
    }

    #[test]
    fn payload_size_is_kilobyte_scale() {
        let m = MigrationCostModel::popcorn_toolchain();
        assert!((1024..8192).contains(&m.payload_bytes), "got {}", m.payload_bytes);
        assert_eq!(m.transform_cycles().raw(), TRANSFORM_INSNS);
    }
}
