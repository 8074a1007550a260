//! ARM (RISC) vs x86 (CISC) instruction-set comparison model.
//!
//! CSc 3210 teaches Intel x86; the Pi exposes students to ARM. The course
//! asks them to compare the two in terms of data movement, instruction
//! encoding, immediate-value representation, and memory layout. This
//! module models a small common instruction vocabulary and an encoder for
//! each ISA so those comparisons can be computed, not just asserted.

/// Abstract operations shared by both toy encoders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbstractInsn {
    /// reg = immediate constant.
    LoadImmediate {
        /// The constant being materialised.
        value: u32,
    },
    /// reg = memory\[addr\].
    LoadMemory,
    /// memory\[addr\] = reg.
    StoreMemory,
    /// reg = reg + reg.
    AddRegisters,
    /// reg = reg + memory\[addr\] — only CISC can fold the load.
    AddMemoryOperand,
    /// Unconditional branch.
    Branch,
}

/// Which of the two course ISAs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsaFamily {
    /// ARM (RISC): fixed 4-byte encodings, load/store architecture.
    Arm,
    /// x86 (CISC): variable 1–15-byte encodings, memory operands.
    X86,
}

/// How one abstract instruction lowers onto a concrete ISA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lowering {
    /// Number of machine instructions emitted.
    pub instruction_count: usize,
    /// Total encoded bytes.
    pub encoded_bytes: usize,
    /// Whether any instruction accesses memory.
    pub touches_memory: bool,
}

/// ARM's "modified immediate": an 8-bit value rotated right by an even
/// amount within 32 bits. Returns true if `value` can be encoded in a
/// single `MOV`.
pub fn arm_encodable_immediate(value: u32) -> bool {
    (0..16).any(|r| {
        let rotated = value.rotate_left(2 * r);
        rotated <= 0xFF
    })
}

/// Lowers an abstract instruction for the given ISA.
///
/// The byte counts follow the architecture manuals' common cases:
/// every ARM (A32) instruction is 4 bytes; typical x86 register ALU ops
/// are 2–3 bytes, memory-operand forms 3–7, and a `mov reg, imm32` is 5.
pub fn lower(insn: AbstractInsn, isa: IsaFamily) -> Lowering {
    match (isa, insn) {
        (IsaFamily::Arm, AbstractInsn::LoadImmediate { value }) => {
            if arm_encodable_immediate(value) {
                Lowering {
                    instruction_count: 1,
                    encoded_bytes: 4,
                    touches_memory: false,
                }
            } else {
                // MOVW + MOVT pair (or a literal-pool load on ARMv6).
                Lowering {
                    instruction_count: 2,
                    encoded_bytes: 8,
                    touches_memory: false,
                }
            }
        }
        (IsaFamily::Arm, AbstractInsn::LoadMemory | AbstractInsn::StoreMemory) => Lowering {
            instruction_count: 1,
            encoded_bytes: 4,
            touches_memory: true,
        },
        (IsaFamily::Arm, AbstractInsn::AddRegisters | AbstractInsn::Branch) => Lowering {
            instruction_count: 1,
            encoded_bytes: 4,
            touches_memory: false,
        },
        // Load/store architecture: the memory operand needs an explicit
        // LDR before the ADD.
        (IsaFamily::Arm, AbstractInsn::AddMemoryOperand) => Lowering {
            instruction_count: 2,
            encoded_bytes: 8,
            touches_memory: true,
        },
        (IsaFamily::X86, AbstractInsn::LoadImmediate { .. }) => Lowering {
            instruction_count: 1,
            encoded_bytes: 5, // mov r32, imm32
            touches_memory: false,
        },
        (IsaFamily::X86, AbstractInsn::LoadMemory | AbstractInsn::StoreMemory) => Lowering {
            instruction_count: 1,
            encoded_bytes: 6, // mov r32, [base+disp32]
            touches_memory: true,
        },
        (IsaFamily::X86, AbstractInsn::AddRegisters) => Lowering {
            instruction_count: 1,
            encoded_bytes: 2, // add r32, r32
            touches_memory: false,
        },
        // CISC folds the load into the ALU op.
        (IsaFamily::X86, AbstractInsn::AddMemoryOperand) => Lowering {
            instruction_count: 1,
            encoded_bytes: 6,
            touches_memory: true,
        },
        (IsaFamily::X86, AbstractInsn::Branch) => Lowering {
            instruction_count: 1,
            encoded_bytes: 5, // jmp rel32
            touches_memory: false,
        },
    }
}

/// Totals for a whole abstract program on one ISA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramComparison {
    /// ISA being summarised.
    pub isa: IsaFamily,
    /// Total machine instructions.
    pub instructions: usize,
    /// Total code bytes.
    pub bytes: usize,
    /// Instructions that touch memory.
    pub memory_touching: usize,
    /// Whether every instruction had the same encoded size (the RISC
    /// fixed-width property the course highlights).
    pub fixed_width: bool,
}

/// Lowers an abstract program and tallies the comparison data.
pub fn compare_program(program: &[AbstractInsn], isa: IsaFamily) -> ProgramComparison {
    let mut instructions = 0;
    let mut bytes = 0;
    let mut memory_touching = 0;
    let mut widths = std::collections::HashSet::new();
    for &insn in program {
        let l = lower(insn, isa);
        instructions += l.instruction_count;
        bytes += l.encoded_bytes;
        if l.touches_memory {
            memory_touching += l.instruction_count;
        }
        // Per-machine-instruction width (uniform within a lowering).
        widths.insert(l.encoded_bytes / l.instruction_count);
    }
    ProgramComparison {
        isa,
        instructions,
        bytes,
        memory_touching,
        fixed_width: widths.len() <= 1,
    }
}

/// Qualitative ISA facts the course worksheet expects, keyed for tests.
pub fn isa_fact(isa: IsaFamily, topic: &str) -> Option<&'static str> {
    match (isa, topic) {
        (IsaFamily::Arm, "data_movement") => {
            Some("load/store architecture: only LDR/STR touch memory; ALU ops are register-register")
        }
        (IsaFamily::X86, "data_movement") => {
            Some("most ALU instructions accept a memory operand; MOV moves between registers and memory")
        }
        (IsaFamily::Arm, "encoding") => Some("fixed 32-bit instruction encoding (A32)"),
        (IsaFamily::X86, "encoding") => Some("variable 1-15 byte instruction encoding"),
        (IsaFamily::Arm, "immediates") => {
            Some("8-bit immediate rotated right by an even amount; large constants need MOVW/MOVT or literal pools")
        }
        (IsaFamily::X86, "immediates") => Some("full-width 8/16/32-bit immediates embedded in the instruction"),
        (IsaFamily::Arm, "registers") => Some("16 general-purpose registers visible (r0-r15)"),
        (IsaFamily::X86, "registers") => Some("8 general-purpose registers in IA-32 (eax..edi)"),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_program() -> Vec<AbstractInsn> {
        vec![
            AbstractInsn::LoadImmediate { value: 42 },
            AbstractInsn::LoadMemory,
            AbstractInsn::AddMemoryOperand,
            AbstractInsn::AddRegisters,
            AbstractInsn::StoreMemory,
            AbstractInsn::Branch,
        ]
    }

    #[test]
    fn arm_immediates_rotate() {
        assert!(arm_encodable_immediate(0xFF));
        assert!(arm_encodable_immediate(0xFF00)); // 0xFF rotated
        assert!(arm_encodable_immediate(0x3FC));
        assert!(arm_encodable_immediate(0xC000_003F)); // wraps around
        assert!(!arm_encodable_immediate(0x101)); // needs 9 significant bits
        assert!(!arm_encodable_immediate(0x1234_5678));
    }

    #[test]
    fn large_constant_needs_two_arm_instructions() {
        let l = lower(
            AbstractInsn::LoadImmediate { value: 0x1234_5678 },
            IsaFamily::Arm,
        );
        assert_eq!(l.instruction_count, 2);
        let x = lower(
            AbstractInsn::LoadImmediate { value: 0x1234_5678 },
            IsaFamily::X86,
        );
        assert_eq!(x.instruction_count, 1);
        assert_eq!(x.encoded_bytes, 5);
    }

    #[test]
    fn arm_is_fixed_width_x86_is_not() {
        let arm = compare_program(&sample_program(), IsaFamily::Arm);
        let x86 = compare_program(&sample_program(), IsaFamily::X86);
        assert!(arm.fixed_width, "every A32 instruction is 4 bytes");
        assert!(!x86.fixed_width, "x86 widths vary (2..6 bytes here)");
    }

    #[test]
    fn risc_needs_more_instructions_for_memory_alu() {
        // The load/store property: ADD with a memory operand is one x86
        // instruction but an LDR+ADD pair on ARM.
        let arm = lower(AbstractInsn::AddMemoryOperand, IsaFamily::Arm);
        let x86 = lower(AbstractInsn::AddMemoryOperand, IsaFamily::X86);
        assert_eq!(arm.instruction_count, 2);
        assert_eq!(x86.instruction_count, 1);
    }

    #[test]
    fn program_totals_are_consistent() {
        let arm = compare_program(&sample_program(), IsaFamily::Arm);
        // 1 (imm 42 fits) + 1 + 2 + 1 + 1 + 1 = 7 instructions, 28 bytes.
        assert_eq!(arm.instructions, 7);
        assert_eq!(arm.bytes, 28);
        assert_eq!(arm.memory_touching, 4); // LDR, (LDR of AddMem), ADDmem-load, STR
        let x86 = compare_program(&sample_program(), IsaFamily::X86);
        assert_eq!(x86.instructions, 6);
        assert_eq!(x86.bytes, 30);
        assert!(
            x86.instructions < arm.instructions,
            "CISC needs fewer instructions for the same work"
        );
    }

    #[test]
    fn facts_cover_the_worksheet_topics() {
        for topic in ["data_movement", "encoding", "immediates", "registers"] {
            assert!(isa_fact(IsaFamily::Arm, topic).is_some(), "{topic}");
            assert!(isa_fact(IsaFamily::X86, topic).is_some(), "{topic}");
        }
        assert!(isa_fact(IsaFamily::Arm, "unknown").is_none());
    }
}
