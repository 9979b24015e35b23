//! Per-target machine models for the POSET-RL reproduction.
//!
//! This crate is the measurement substrate of the whole system: the RL
//! reward (Eqns 1–3 of the paper) is defined in terms of `clang -c` object
//! size and `llvm-mca` static throughput, and every environment step calls
//! into the models here. Three models are provided, for two targets each
//! (x86-64 and AArch64, the architectures the paper evaluates on):
//!
//! - [`size::object_size`] — an instruction-selection lowering that maps
//!   each IR instruction to an encoded byte count (variable-length on
//!   x86-64, fixed 4-byte units on AArch64) and adds the data sections,
//!   standing in for `clang -c` + `size`;
//! - [`mca::analyze`] — a static pipeline simulator in the style of
//!   `llvm-mca`: per-target latency and port tables, a dispatch-width
//!   bound, and a non-pipelined divider, producing per-block cycle
//!   estimates summed flat (the reward signal);
//! - [`runtime::dynamic_cycles`] — interpreter profile counts weighted by
//!   the per-target cost tables, standing in for wall-clock runs on the
//!   paper's Xeon / Cortex-A72 machines — with [`runtime::static_cycles`]
//!   as the purely static, frequency-weighted diagnostic twin.
//!
//! All models are pure functions of the module: deterministic, total, and
//! free of global state, so rewards are exactly reproducible.

use serde::{Deserialize, Serialize};
use std::fmt;

pub mod mca;
pub mod runtime;
pub mod size;
mod tables;

/// A compilation target.
///
/// The paper evaluates on an Intel Xeon W-2133 (x86-64) and a Broadcom
/// BCM2711 Cortex-A72 (AArch64); the cost tables in this crate model those
/// two microarchitecture classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TargetArch {
    /// 64-bit x86: variable-length encoding, wide dispatch.
    X86_64,
    /// 64-bit Arm: fixed 4-byte encoding, narrower dispatch.
    AArch64,
}

impl TargetArch {
    /// Both supported targets (iteration order: x86-64 first, as in the
    /// paper's tables).
    pub const ALL: [TargetArch; 2] = [TargetArch::X86_64, TargetArch::AArch64];

    /// Canonical lowercase target name.
    pub fn name(self) -> &'static str {
        match self {
            TargetArch::X86_64 => "x86-64",
            TargetArch::AArch64 => "aarch64",
        }
    }
}

impl fmt::Display for TargetArch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arch_names_and_display_agree() {
        for arch in TargetArch::ALL {
            assert_eq!(arch.to_string(), arch.name());
        }
        assert_eq!(TargetArch::X86_64.name(), "x86-64");
        assert_eq!(TargetArch::AArch64.name(), "aarch64");
    }

    #[test]
    fn arch_serializes_for_configs() {
        // TargetArch is embedded in the serializable EnvConfig and in the
        // experiment result rows; round-trip through JSON.
        for arch in TargetArch::ALL {
            let json = serde_json::to_string(&arch).unwrap();
            let back: TargetArch = serde_json::from_str(&json).unwrap();
            assert_eq!(arch, back);
        }
    }

    #[test]
    fn all_lists_both_targets_once() {
        assert_eq!(TargetArch::ALL.len(), 2);
        assert_ne!(TargetArch::ALL[0], TargetArch::ALL[1]);
    }
}
