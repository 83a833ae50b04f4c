//! The chip resource model.
//!
//! A behavioural stand-in for the constraints a Tofino-class backend
//! enforces (paper §5: "the PHV size depends on the VLIW length, which
//! may be too small for a given kernel", "chip constraints are not
//! publicly available" — ours are, right here). `ncl-p4` allocates
//! stages against this model and the pipeline validates against it at
//! load time, playing the role of the proprietary P4 backend's
//! accept/reject step.

use std::fmt;

/// Resource limits of a simulated switch chip.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ResourceModel {
    /// Physical match-action stages per pass.
    pub stages: usize,
    /// VLIW ALU ops per stage (across all tables in the stage).
    pub ops_per_stage: usize,
    /// Tables per stage.
    pub tables_per_stage: usize,
    /// PHV budget for header fields, bytes.
    pub phv_header_bytes: usize,
    /// PHV budget for metadata fields, bytes.
    pub phv_metadata_bytes: usize,
    /// Micro-ops (reads + writes) one fused RegisterAction may issue
    /// against its array per pass. A Tofino-style stateful ALU performs
    /// one *access* per pass but evaluates a small predicated
    /// read/modify/write program against it; this bounds that program.
    pub reg_accesses_per_pass: usize,
    /// Maximum recirculation passes (0 = single pass only).
    pub max_recirc: usize,
    /// SRAM bytes per stage for register arrays and exact tables.
    pub sram_bytes_per_stage: usize,
    /// TCAM entries per stage for ternary/LPM tables.
    pub tcam_entries_per_stage: usize,
}

impl Default for ResourceModel {
    /// Defaults roughly shaped after a Tofino-1 profile (documented in
    /// DESIGN.md §4.5).
    fn default() -> Self {
        ResourceModel {
            stages: 12,
            ops_per_stage: 64,
            tables_per_stage: 8,
            phv_header_bytes: 512,
            phv_metadata_bytes: 256,
            reg_accesses_per_pass: 4,
            max_recirc: 4,
            sram_bytes_per_stage: 1 << 20, // 1 MiB
            tcam_entries_per_stage: 2048,
        }
    }
}

impl ResourceModel {
    /// A small test chip (stress recirculation quickly).
    pub fn tiny() -> Self {
        ResourceModel {
            stages: 4,
            ops_per_stage: 8,
            tables_per_stage: 2,
            phv_header_bytes: 64,
            phv_metadata_bytes: 32,
            reg_accesses_per_pass: 2,
            max_recirc: 2,
            sram_bytes_per_stage: 1 << 14,
            tcam_entries_per_stage: 64,
        }
    }

    /// Total usable logical stages including recirculation.
    pub fn logical_stages(&self) -> usize {
        self.stages * (self.max_recirc + 1)
    }
}

/// A violated constraint found at pipeline load time.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ResourceViolation {
    /// More logical stages than the chip can offer even with maximal
    /// recirculation.
    TooManyStages {
        /// Stages required.
        required: usize,
        /// Stages available (including recirculation).
        available: usize,
    },
    /// A stage packs more ALU ops than the VLIW width.
    OpsPerStage {
        /// Stage index.
        stage: usize,
        /// Ops found.
        found: usize,
        /// Budget.
        budget: usize,
    },
    /// A stage holds too many tables.
    TablesPerStage {
        /// Stage index.
        stage: usize,
        /// Tables found.
        found: usize,
        /// Budget.
        budget: usize,
    },
    /// Header PHV overflow.
    PhvHeader {
        /// Bytes used.
        used: usize,
        /// Budget.
        budget: usize,
    },
    /// Metadata PHV overflow.
    PhvMetadata {
        /// Bytes used.
        used: usize,
        /// Budget.
        budget: usize,
    },
    /// A register array is accessed from more than one stage per pass.
    RegisterMultiStage {
        /// Array name.
        array: String,
        /// Stages (within one pass) that touch it.
        stages: Vec<usize>,
    },
    /// A register array's fused RegisterAction issues more micro-ops
    /// than the stateful ALU supports.
    RegisterAccesses {
        /// Array name.
        array: String,
        /// Micro-ops found in one stage.
        found: usize,
        /// Budget.
        budget: usize,
    },
    /// A stage's register arrays overflow its SRAM.
    SramPerStage {
        /// Stage index.
        stage: usize,
        /// Bytes required.
        used: usize,
        /// Budget.
        budget: usize,
    },
    /// A stage's ternary entries overflow its TCAM.
    TcamPerStage {
        /// Stage index.
        stage: usize,
        /// Entries required.
        used: usize,
        /// Budget.
        budget: usize,
    },
}

impl fmt::Display for ResourceViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceViolation::TooManyStages {
                required,
                available,
            } => write!(
                f,
                "program needs {required} stages but the chip offers {available} \
                 (including recirculation)"
            ),
            ResourceViolation::OpsPerStage {
                stage,
                found,
                budget,
            } => write!(
                f,
                "stage {stage}: {found} VLIW ops exceed the budget of {budget}"
            ),
            ResourceViolation::TablesPerStage {
                stage,
                found,
                budget,
            } => write!(
                f,
                "stage {stage}: {found} tables exceed the budget of {budget}"
            ),
            ResourceViolation::PhvHeader { used, budget } => {
                write!(f, "header PHV needs {used} bytes, budget {budget}")
            }
            ResourceViolation::PhvMetadata { used, budget } => {
                write!(f, "metadata PHV needs {used} bytes, budget {budget}")
            }
            ResourceViolation::RegisterMultiStage { array, stages } => write!(
                f,
                "register array '{array}' accessed from stages {stages:?} in one pass; \
                 arrays bind to a single stage"
            ),
            ResourceViolation::RegisterAccesses {
                array,
                found,
                budget,
            } => write!(
                f,
                "register array '{array}': {found} stateful micro-ops in one stage, budget {budget}"
            ),
            ResourceViolation::SramPerStage {
                stage,
                used,
                budget,
            } => write!(f, "stage {stage}: SRAM {used} bytes exceeds {budget}"),
            ResourceViolation::TcamPerStage {
                stage,
                used,
                budget,
            } => write!(f, "stage {stage}: TCAM {used} entries exceeds {budget}"),
        }
    }
}

impl std::error::Error for ResourceViolation {}

/// A full resource-usage report (exercised by E6).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ResourceReport {
    /// Logical stages used.
    pub stages_used: usize,
    /// Recirculation passes required.
    pub recirc_passes: usize,
    /// Ops per stage.
    pub ops_by_stage: Vec<usize>,
    /// Tables per stage.
    pub tables_by_stage: Vec<usize>,
    /// Header PHV bytes.
    pub phv_header_bytes: usize,
    /// Metadata PHV bytes.
    pub phv_metadata_bytes: usize,
    /// SRAM bytes per physical stage: each register access charges its
    /// whole array to the stage it runs in.
    pub sram_by_stage: Vec<usize>,
    /// Violations (empty = accepted).
    pub violations: Vec<ResourceViolation>,
}

impl ResourceReport {
    /// Whether the program fits the chip.
    pub fn accepted(&self) -> bool {
        self.violations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_sane() {
        let m = ResourceModel::default();
        assert_eq!(m.logical_stages(), 12 * 5);
        assert!(m.ops_per_stage >= 32);
    }

    #[test]
    fn tiny_is_smaller() {
        let t = ResourceModel::tiny();
        let d = ResourceModel::default();
        assert!(t.stages < d.stages);
        assert!(t.logical_stages() < d.logical_stages());
    }

    #[test]
    fn violation_messages() {
        let v = ResourceViolation::TooManyStages {
            required: 99,
            available: 60,
        };
        assert!(v.to_string().contains("99"));
        let v = ResourceViolation::RegisterMultiStage {
            array: "accum".into(),
            stages: vec![1, 3],
        };
        assert!(v.to_string().contains("accum"));
    }

    #[test]
    fn report_accepted() {
        let mut r = ResourceReport::default();
        assert!(r.accepted());
        r.violations.push(ResourceViolation::PhvHeader {
            used: 600,
            budget: 512,
        });
        assert!(!r.accepted());
    }
}
