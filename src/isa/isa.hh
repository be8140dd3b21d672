/**
 * @file
 * A small MIPS-R3000-like register ISA.
 *
 * The paper's evaluation assumes "the MIPS R3000 instruction set ... but
 * with single cycle (unit latency) instruction execution" (Section 5.1).
 * Only the dependence and control-flow structure of the ISA matters to the
 * ILP models, so this subset keeps the R3000 shape: 32 general registers
 * with r0 hard-wired to zero, three-address ALU ops, immediate forms,
 * loads/stores with base+displacement addressing, two-source conditional
 * branches, unconditional jumps, and a halt pseudo-op.
 *
 * Programs are containers of basic blocks; control transfers name target
 * blocks rather than raw addresses, which gives the control-flow analyses
 * (src/cfg) an exact CFG for free.
 */

#ifndef DEE_ISA_ISA_HH
#define DEE_ISA_ISA_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dee
{

/** Architectural register index; r0 reads as zero and ignores writes. */
using RegId = std::uint8_t;

/** Number of architectural registers (MIPS-like). */
constexpr RegId kNumRegs = 32;

/** Register that always reads zero. */
constexpr RegId kZeroReg = 0;

/** Identifies a basic block within a Program. */
using BlockId = std::uint32_t;

/** Identifies a static instruction within a Program (flattened order). */
using StaticId = std::uint32_t;

/** Marker for "no register operand". */
constexpr RegId kNoReg = 0xff;

/** Instruction operations. */
enum class Opcode : std::uint8_t
{
    // Three-address register ALU.
    Add, Sub, Mul, Div, And, Or, Xor, Sll, Srl, Slt,
    // Register-immediate ALU.
    AddI, AndI, OrI, XorI, SltI, ShlI, ShrI,
    // rd = imm.
    LoadImm,
    // rd = mem[rs1 + imm].
    Load,
    // mem[rs1 + imm] = rs2.
    Store,
    // Conditional branches on two registers; taken -> target block.
    BranchEq, BranchNe, BranchLt, BranchGe,
    // Unconditional transfer to target block.
    Jump,
    // Stop execution.
    Halt,
    // No operation.
    Nop,
};

/** Broad classes used by the timing models and statistics. */
enum class OpClass : std::uint8_t
{
    IntAlu,
    Load,
    Store,
    CondBranch,
    Jump,
    Halt,
    Nop,
};

/** Number of OpClass values (a table indexed by class). */
constexpr std::size_t kNumOpClasses = 7;

/** Returns the class of an opcode. */
constexpr OpClass
opClass(Opcode op)
{
    switch (op) {
      case Opcode::Load:
        return OpClass::Load;
      case Opcode::Store:
        return OpClass::Store;
      case Opcode::BranchEq:
      case Opcode::BranchNe:
      case Opcode::BranchLt:
      case Opcode::BranchGe:
        return OpClass::CondBranch;
      case Opcode::Jump:
        return OpClass::Jump;
      case Opcode::Halt:
        return OpClass::Halt;
      case Opcode::Nop:
        return OpClass::Nop;
      default:
        return OpClass::IntAlu;
    }
}

/** True for the conditional-branch opcodes. */
bool isCondBranch(Opcode op);

/** True for any control transfer (conditional branch or jump). */
bool isControl(Opcode op);

/** Mnemonic, e.g. "add". */
const char *opcodeName(Opcode op);

/**
 * One static instruction.
 *
 * Operand usage by class:
 *  - register ALU:   rd <- rs1 op rs2
 *  - immediate ALU:  rd <- rs1 op imm
 *  - LoadImm:        rd <- imm
 *  - Load:           rd <- mem[rs1 + imm]
 *  - Store:          mem[rs1 + imm] <- rs2
 *  - branches:       compare rs1, rs2; taken -> block 'target'
 *  - Jump:           -> block 'target'
 */
struct Instruction
{
    Opcode op = Opcode::Nop;
    RegId rd = kNoReg;
    RegId rs1 = kNoReg;
    RegId rs2 = kNoReg;
    std::int64_t imm = 0;
    BlockId target = 0;

    /** Destination register, or kNoReg if none. */
    RegId dest() const;

    /** Source registers actually read (r0 reads are still returned). */
    std::vector<RegId> sources() const;
};

/** Straight-line code ending implicitly (fallthrough) or in control. */
struct BasicBlock
{
    std::vector<Instruction> instrs;

    /**
     * True if the last instruction transfers control (branch/jump/halt).
     * Blocks without a terminator fall through to the next block id.
     */
    bool hasTerminator() const;
};

/**
 * A whole program: basic blocks, entry at block 0.
 *
 * Flattened static ids number instructions in block order; they index the
 * per-static-instruction structures (branch predictors, IQ rows, CFG).
 */
class Program
{
  public:
    Program() = default;

    /** Appends a block and returns its id. */
    BlockId addBlock(BasicBlock block);

    std::size_t numBlocks() const { return blocks_.size(); }
    const BasicBlock &block(BlockId id) const;
    BasicBlock &block(BlockId id);

    /** Total static instruction count across all blocks. */
    std::size_t numInstrs() const;

    /** Static id of instruction `index` in block `id`. */
    StaticId staticId(BlockId id, std::size_t index) const;

    /** Inverse of staticId(). */
    std::pair<BlockId, std::size_t> locate(StaticId sid) const;

    /** Instruction by static id. */
    const Instruction &instr(StaticId sid) const;

    /**
     * Validates structural invariants: targets in range, a terminator on
     * the last block, register ids legal. Fatal on violation (these are
     * builder/user errors, not internal bugs).
     */
    void validate() const;

    /** Multi-line disassembly of the whole program. */
    std::string disassemble() const;

  private:
    void rebuildIndex() const;

    std::vector<BasicBlock> blocks_;
    // Lazy flattened index: first static id of each block.
    mutable std::vector<StaticId> blockStart_;
    mutable bool indexDirty_ = true;
};

/** Disassembles one instruction. */
std::string disassemble(const Instruction &inst);

} // namespace dee

#endif // DEE_ISA_ISA_HH
