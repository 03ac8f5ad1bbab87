//! Programs and the label-resolving program builder.

use crate::inst::{AluOp, Inst};
use crate::reg::XReg;
use std::collections::HashMap;
use std::fmt;

/// A complete, label-resolved instruction sequence.
///
/// The program counter is an index into the instruction list; execution
/// starts at index 0 and terminates at [`Inst::Halt`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    name: String,
    insts: Vec<Inst>,
    labels: HashMap<String, u32>,
}

impl Program {
    /// The program's name (used in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The instructions.
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// `true` if the program contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// `true` if some instruction may read the vector length
    /// ([`Inst::may_read_vlen`]); `false` for a scalar-only program, whose
    /// emulation is the same at every vector length.
    pub fn may_read_vlen(&self) -> bool {
        self.insts.iter().any(Inst::may_read_vlen)
    }

    /// Fetches the instruction at `pc`, if in range.
    pub fn fetch(&self, pc: u32) -> Option<Inst> {
        self.insts.get(pc as usize).copied()
    }

    /// Resolves a label to its instruction index.
    pub fn label(&self, name: &str) -> Option<u32> {
        self.labels.get(name).copied()
    }

    /// Iterates over `(label, index)` pairs in unspecified order.
    pub fn labels(&self) -> impl Iterator<Item = (&str, u32)> {
        self.labels.iter().map(|(k, v)| (k.as_str(), *v))
    }
}

/// Error produced when finalizing a [`ProgramBuilder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// A branch referenced a label that was never defined.
    UndefinedLabel(String),
    /// The same label was defined twice.
    DuplicateLabel(String),
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            ProgramError::DuplicateLabel(l) => write!(f, "duplicate label `{l}`"),
        }
    }
}

impl std::error::Error for ProgramError {}

/// Builds a [`Program`], resolving symbolic branch labels.
///
/// Branch-emitting helpers take a label name; labels may be referenced
/// before they are defined. [`build`](Self::build) verifies every reference.
///
/// ```rust
/// use uve_isa::{ProgramBuilder, Inst, XReg, AluOp, BrCond};
///
/// # fn main() -> Result<(), uve_isa::ProgramError> {
/// let mut b = ProgramBuilder::new("count");
/// b.li(XReg::A0, 10);
/// b.label("loop");
/// b.push(Inst::AluImm { op: AluOp::Add, rd: XReg::A0, rs1: XReg::A0, imm: -1 });
/// b.branch(BrCond::Ne, XReg::A0, XReg::ZERO, "loop");
/// b.push(Inst::Halt);
/// let prog = b.build()?;
/// assert_eq!(prog.label("loop"), Some(1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ProgramBuilder {
    name: String,
    insts: Vec<Inst>,
    labels: HashMap<String, u32>,
    fixups: Vec<(usize, String)>,
    duplicate: Option<String>,
}

impl ProgramBuilder {
    /// Starts a new program with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            insts: Vec::new(),
            labels: HashMap::new(),
            fixups: Vec::new(),
            duplicate: None,
        }
    }

    /// Current instruction index (where the next instruction will land).
    pub fn here(&self) -> u32 {
        self.insts.len() as u32
    }

    /// Appends an instruction.
    pub fn push(&mut self, inst: Inst) -> &mut Self {
        self.insts.push(inst);
        self
    }

    /// Defines `label` at the current position.
    pub fn label(&mut self, label: impl Into<String>) -> &mut Self {
        let label = label.into();
        if self.labels.insert(label.clone(), self.here()).is_some() {
            self.duplicate.get_or_insert(label);
        }
        self
    }

    /// Appends a branch-family instruction whose target will be resolved to
    /// `label` at build time. The instruction's current target is ignored.
    pub fn push_branch(&mut self, inst: Inst, label: impl Into<String>) -> &mut Self {
        debug_assert!(inst.is_branch());
        self.fixups.push((self.insts.len(), label.into()));
        self.insts.push(inst);
        self
    }

    /// Appends a scalar conditional branch to `label`.
    pub fn branch(
        &mut self,
        cond: crate::inst::BrCond,
        rs1: XReg,
        rs2: XReg,
        label: impl Into<String>,
    ) -> &mut Self {
        self.push_branch(
            Inst::Branch {
                cond,
                rs1,
                rs2,
                target: 0,
            },
            label,
        )
    }

    /// Appends an unconditional jump to `label`.
    pub fn jump(&mut self, label: impl Into<String>) -> &mut Self {
        self.push_branch(
            Inst::Jal {
                rd: XReg::ZERO,
                target: 0,
            },
            label,
        )
    }

    /// Appends a stream-state branch to `label`.
    pub fn stream_branch(
        &mut self,
        cond: crate::inst::StreamCond,
        u: crate::reg::VReg,
        label: impl Into<String>,
    ) -> &mut Self {
        self.push_branch(Inst::SsBranch { cond, u, target: 0 }, label)
    }

    /// Appends a predicate branch to `label`.
    pub fn pred_branch(
        &mut self,
        cond: crate::inst::PredCond,
        p: crate::reg::PReg,
        label: impl Into<String>,
    ) -> &mut Self {
        self.push_branch(Inst::BrPred { cond, p, target: 0 }, label)
    }

    /// Loads an arbitrary 64-bit constant into `rd`, expanding to the
    /// minimal `lui`/`addi`/shift sequence (1–5 instructions).
    pub fn li(&mut self, rd: XReg, value: i64) -> &mut Self {
        if (-2048..2048).contains(&value) {
            self.push(Inst::AluImm {
                op: AluOp::Add,
                rd,
                rs1: XReg::ZERO,
                imm: value as i32,
            });
        } else if (-(1i64 << 31)..(1i64 << 31)).contains(&value) {
            // lui + addi, RISC-V style with sign-compensation.
            let lo = ((value << 52) >> 52) as i32; // low 12 bits, sign-extended
            let hi = ((value - lo as i64) >> 12) as i32;
            self.push(Inst::Lui { rd, imm: hi });
            if lo != 0 {
                self.push(Inst::AluImm {
                    op: AluOp::Add,
                    rd,
                    rs1: rd,
                    imm: lo,
                });
            }
        } else {
            // Build the upper half, shift, then or in the lower 32 bits.
            let hi = value >> 32;
            let lo = value & 0xffff_ffff;
            self.li(rd, hi);
            self.push(Inst::AluImm {
                op: AluOp::Sll,
                rd,
                rs1: rd,
                imm: 32,
            });
            if lo != 0 {
                // lo may exceed 12 bits; assemble it in t6 and or it in.
                let mid = (lo >> 12) & 0xf_ffff;
                let low = lo & 0xfff;
                if mid != 0 {
                    self.push(Inst::Lui {
                        rd: XReg::T6,
                        imm: mid as i32,
                    });
                    if low != 0 {
                        self.push(Inst::AluImm {
                            op: AluOp::Or,
                            rd: XReg::T6,
                            rs1: XReg::T6,
                            imm: low as i32,
                        });
                    }
                    self.push(Inst::Alu {
                        op: AluOp::Or,
                        rd,
                        rs1: rd,
                        rs2: XReg::T6,
                    });
                } else if low != 0 {
                    self.push(Inst::AluImm {
                        op: AluOp::Or,
                        rd,
                        rs1: rd,
                        imm: low as i32,
                    });
                }
            }
        }
        self
    }

    /// Appends `rd = rs` (register move).
    pub fn mv(&mut self, rd: XReg, rs: XReg) -> &mut Self {
        self.push(Inst::AluImm {
            op: AluOp::Add,
            rd,
            rs1: rs,
            imm: 0,
        })
    }

    /// Resolves labels and finalizes the program.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError::UndefinedLabel`] if a branch references an
    /// unknown label, or [`ProgramError::DuplicateLabel`] for double
    /// definitions.
    pub fn build(mut self) -> Result<Program, ProgramError> {
        if let Some(l) = self.duplicate {
            return Err(ProgramError::DuplicateLabel(l));
        }
        for (idx, label) in &self.fixups {
            let target = *self
                .labels
                .get(label)
                .ok_or_else(|| ProgramError::UndefinedLabel(label.clone()))?;
            self.insts[*idx].set_branch_target(target);
        }
        Ok(Program {
            name: self.name,
            insts: self.insts,
            labels: self.labels,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::BrCond;

    #[test]
    fn forward_and_backward_labels_resolve() {
        let mut b = ProgramBuilder::new("t");
        b.branch(BrCond::Eq, XReg::A0, XReg::ZERO, "end");
        b.label("loop");
        b.push(Inst::Nop);
        b.branch(BrCond::Ne, XReg::A0, XReg::ZERO, "loop");
        b.label("end");
        b.push(Inst::Halt);
        let p = b.build().unwrap();
        assert_eq!(p.fetch(0).unwrap().branch_target(), Some(3));
        assert_eq!(p.fetch(2).unwrap().branch_target(), Some(1));
        assert_eq!(p.label("end"), Some(3));
    }

    #[test]
    fn undefined_label_errors() {
        let mut b = ProgramBuilder::new("t");
        b.jump("nowhere");
        assert_eq!(
            b.build().unwrap_err(),
            ProgramError::UndefinedLabel("nowhere".into())
        );
    }

    #[test]
    fn duplicate_label_errors() {
        let mut b = ProgramBuilder::new("t");
        b.label("a");
        b.push(Inst::Nop);
        b.label("a");
        assert_eq!(
            b.build().unwrap_err(),
            ProgramError::DuplicateLabel("a".into())
        );
    }

    #[test]
    fn li_small() {
        let mut b = ProgramBuilder::new("t");
        b.li(XReg::A0, 42);
        let p = b.build().unwrap();
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn li_medium_uses_lui() {
        let mut b = ProgramBuilder::new("t");
        b.li(XReg::A0, 0x12345);
        let p = b.build().unwrap();
        assert!(p.len() >= 2);
    }

    #[test]
    fn program_accessors() {
        let mut b = ProgramBuilder::new("demo");
        b.push(Inst::Halt);
        let p = b.build().unwrap();
        assert_eq!(p.name(), "demo");
        assert_eq!(p.len(), 1);
        assert!(!p.is_empty());
        assert!(p.fetch(1).is_none());
    }
}
