//! The cost of the cross-ISA register-state transformation (§5
//! "Applications' Compiler and Linker").
//!
//! Applications are "compiled in a way that makes them amenable to
//! migration, such that they can continue executing on another ISA-CPU
//! carrying over the existing application state minus the CPU-state
//! that is converted". The Popcorn compiler aligns stack layouts and
//! restricts migration to equivalence points (function boundaries), so
//! only the *register* state needs conversion. The OS layers charge
//! that conversion as a shipped payload and a fixed instruction count
//! at the destination; the register values themselves are not modelled.

use stramash_sim::Cycles;

/// Instructions the runtime executes to transform the register state at
/// a migration point (unmarshal + ABI re-mapping; UNIFICO-class
/// transformations are in the hundreds of instructions).
pub const TRANSFORM_INSNS: u64 = 320;

/// Serialized size of the migration payload: the ISA-neutral state at
/// an equivalence point (pc, sp, fp, three argument slots and the flags:
/// 56 bytes), the common-layout callee-saved spill area (1024 bytes) and
/// the 32 128-bit vector registers (512 bytes).
pub const MIGRATION_PAYLOAD_BYTES: u32 = 56 + 1024 + 32 * 16;

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
            payload_bytes: MIGRATION_PAYLOAD_BYTES,
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

    #[test]
    fn payload_size_is_kilobyte_scale() {
        // 1592 bytes: the Popcorn toolchain's state, pinned so the
        // migration message size cannot drift.
        let m = MigrationCostModel::popcorn_toolchain();
        assert_eq!(m.payload_bytes, 1592);
        assert_eq!(m.transform_insns, 320);
        assert_eq!(m.transform_cycles().raw(), 320);
    }
}
