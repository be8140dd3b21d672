/**
 * @file
 * Functional ("golden model") interpreter.
 *
 * Executes a Program sequentially, producing both the final architectural
 * state and the dynamic Trace that drives the ILP simulators. The Levo
 * machine model validates its architectural results against this
 * interpreter — the same role the sequential machine plays as the
 * speedup-1.0 baseline in the paper.
 */

#ifndef DEE_EXEC_INTERP_HH
#define DEE_EXEC_INTERP_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/logging.hh"
#include "isa/isa.hh"
#include "trace/trace.hh"

namespace dee
{

/** Architectural state: registers and word-granular sparse memory. */
struct MachineState
{
    std::vector<std::int64_t> regs = std::vector<std::int64_t>(kNumRegs, 0);
    std::unordered_map<std::uint64_t, std::int64_t> memory;

    std::int64_t
    readReg(RegId r) const
    {
        dee_assert(r < kNumRegs, "register ", int{r}, " out of range");
        return r == kZeroReg ? 0 : regs[r];
    }

    void
    writeReg(RegId r, std::int64_t v)
    {
        dee_assert(r < kNumRegs, "register ", int{r}, " out of range");
        if (r != kZeroReg)
            regs[r] = v;
    }

    std::int64_t readMem(std::uint64_t addr) const;
    void writeMem(std::uint64_t addr, std::int64_t v);
};

/** Pure instruction semantics shared by the interpreter and Levo. */
namespace semantics
{

/** ALU result for register and immediate forms. Division by zero is 0. */
std::int64_t alu(Opcode op, std::int64_t a, std::int64_t b);

/** Branch condition outcome. */
bool branchTaken(Opcode op, std::int64_t a, std::int64_t b);

} // namespace semantics

/**
 * One static instruction, decoded for stepping by static id. Static
 * ids number instructions in block order, so the fallthrough successor
 * is always sid + 1 (empty blocks hold no ids), and a control transfer
 * lands on the first id at or after its target block's start: a
 * transfer to an empty block falls through to the next instruction.
 */
struct DecodedStep
{
    std::int64_t imm = 0;
    StaticId next = 0;   ///< fallthrough successor (numInstrs past the end)
    StaticId target = 0; ///< taken-branch / jump successor
    BlockId block = 0;
    Opcode op = Opcode::Nop;
    OpClass cls = OpClass::Nop;
    RegId rd = kNoReg;
    RegId dest = kNoReg; ///< Instruction::dest(), what the trace records
    RegId rs1 = kNoReg;
    RegId rs2 = kNoReg;
    bool backward = false;   ///< conditional branch to this block or earlier
    bool blockStart = false; ///< first instruction of its block
};

// The trace capture loop reads one step per executed instruction: the
// flags live in what would otherwise be padding.
static_assert(sizeof(DecodedStep) == 32, "DecodedStep outgrew 32 bytes");

/**
 * Validates @p program (fatal on a malformed one) and decodes it into
 * one step per static id: the interpreter and the Levo machine both
 * step through this table instead of looking blocks up.
 */
std::vector<DecodedStep> decodeProgram(const Program &program);

/** Outcome of an interpreter run. */
struct ExecResult
{
    Trace trace;            ///< Dynamic trace (if capture was enabled).
    MachineState state;     ///< Final architectural state.
    std::uint64_t steps = 0;///< Instructions executed.
    bool halted = false;    ///< Reached Halt (vs. hitting the step cap).
};

/**
 * Sequential interpreter over a validated Program.
 *
 * The constructor decodes the program once (decodeProgram()), so run()
 * steps from static id to static id without looking blocks up, and
 * writes the trace's compact store directly: the entry id of each
 * (static instruction, branch outcome) pair is assigned on its first
 * execution and read from a flat table after.
 */
class Interpreter
{
  public:
    /** Keeps only the decode, so passing a temporary (e.g.
     *  builder.build()) is safe. */
    explicit Interpreter(const Program &program);

    /**
     * Runs from block 0 until Halt or max_instrs.
     *
     * @param max_instrs step cap (guards generator bugs / long loops)
     * @param capture_trace disable to save memory when only the final
     *                      state matters
     */
    ExecResult run(std::uint64_t max_instrs = 1'000'000,
                   bool capture_trace = true) const;

  private:
    std::vector<DecodedStep> steps_; ///< indexed by static id
};

} // namespace dee

#endif // DEE_EXEC_INTERP_HH
