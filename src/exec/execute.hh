/**
 * @file
 * The one executor: instruction semantics over a decoded program.
 *
 * decodeProgram() turns a Program into one 32-byte DecodedStep per
 * static id, with its register operands resolved to slots of a local
 * register file (RegFile). executeStep() runs one step: a single
 * switch on the opcode, holding the only copy of the ALU, memory and
 * branch semantics. The interpreter (Interpreter::run) and the Levo
 * machine (LevoMachine::run) both step through it; Levo times each step
 * around the outcome it returns.
 *
 * Memory is word-granular over dense address ids (WordMemory, on the
 * shared AddressIds table), so no step hashes into a node-allocating
 * map. A loop keeps its register file and memory local and writes them
 * into MachineState once, at the end of the run (publishState()).
 */

#ifndef DEE_EXEC_EXECUTE_HH
#define DEE_EXEC_EXECUTE_HH

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/address_ids.hh"
#include "common/logging.hh"
#include "isa/isa.hh"

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

/**
 * A run's register file: slot r holds register r, and slot 0 (r0)
 * stays 0 because no step writes it. A step that writes r0, or no
 * register, writes kWriteSink instead, which no step reads.
 */
constexpr std::uint8_t kWriteSink = kNumRegs;
using RegFile = std::array<std::int64_t, kNumRegs + 1>;

/**
 * One static instruction, decoded for stepping by static id. Static
 * ids number instructions in block order, so the fallthrough successor
 * is always sid + 1 (empty blocks hold no ids), and a control transfer
 * lands on the first id at or after its target block's start: a
 * transfer to an empty block falls through to the next instruction.
 *
 * The register slots are what executeStep() reads and writes: a read
 * of r0 or of no register reads slot 0, and a load reads no rs2. The
 * raw rs1, rs2 and dest are what the trace records.
 */
struct DecodedStep
{
    /** The immediate. An ALU op that reads rs2 holds 0 here, so that
     *  its second operand is regs[src2] + imm in either form. */
    std::int64_t imm = 0;
    /** Successor unless a conditional branch is taken: the fallthrough
     *  (numInstrs past the end), or a jump's target. */
    StaticId next = 0;
    StaticId target = 0; ///< taken-branch / jump successor
    BlockId block = 0;
    Opcode op = Opcode::Nop;
    OpClass cls = OpClass::Nop;
    RegId dest = kNoReg; ///< Instruction::dest(), what the trace records
    RegId rs1 = kNoReg;
    RegId rs2 = kNoReg;
    std::uint8_t src1 = 0;          ///< RegFile slot read as rs1
    std::uint8_t src2 = 0;          ///< RegFile slot read as rs2
    std::uint8_t dst = kWriteSink;  ///< RegFile slot written
    bool backward = false;   ///< conditional branch to this block or earlier
    bool blockStart = false; ///< first instruction of its block
};

// The trace capture loop reads one step per executed instruction: the
// flags and slots live in what would otherwise be padding.
static_assert(sizeof(DecodedStep) == 32, "DecodedStep outgrew 32 bytes");

/**
 * Validates @p program (fatal on a malformed one) and decodes it into
 * one step per static id: the interpreter and the Levo machine both
 * step through this table instead of looking blocks up.
 */
std::vector<DecodedStep> decodeProgram(const Program &program);

/**
 * Word-granular memory of one run: a value per AddressIds id. A word
 * is numbered by its first store, so the table holds written words
 * only; a word never stored has id 0, which reads 0 and which no store
 * writes. The accessors are inlined into executeStep(), so that a load
 * or store makes no call.
 */
class WordMemory
{
  public:
    /** The id of @p addr's word, or 0 if no store has written it. */
    [[gnu::always_inline]] std::uint32_t
    find(std::uint64_t addr) const
    {
        return ids_.find(addr);
    }

    /** The id of @p addr's word, numbered on its first store. */
    [[gnu::always_inline]] std::uint32_t
    idOf(std::uint64_t addr)
    {
        const std::uint32_t id = ids_.idOf(addr);
        if (id == values_.size()) [[unlikely]]
            addWord();
        return id;
    }

    std::int64_t load(std::uint32_t id) const { return values_[id]; }
    void store(std::uint32_t id, std::int64_t value) { values_[id] = value; }

    /** Ids numbered so far plus id 0: the size of a table indexed by
     *  id. */
    std::uint32_t size() const { return ids_.count(); }

    /** Adds every written word to @p memory. */
    void publish(std::unordered_map<std::uint64_t, std::int64_t> &memory)
        const;

  private:
    [[gnu::noinline]] void addWord() { values_.push_back(0); }

    AddressIds ids_;
    std::vector<std::int64_t> values_ = std::vector<std::int64_t>(1, 0);
};

/** Writes a finished run's registers and written words into
 *  @p state. */
void publishState(const RegFile &regs, const WordMemory &memory,
                  MachineState &state);

/** What executing one step tells its loop. A Halt step ends the run
 *  after its loop has recorded it. */
struct StepOutcome
{
    StaticId next = 0;        ///< the static id that runs next
    /** The word id of a store, or of a load of a stored word; else 0. */
    std::uint32_t addrId = 0;
    std::uint64_t addr = 0;   ///< a load's or store's address, else 0
    bool taken = false;       ///< a conditional branch's outcome
};

/**
 * Executes @p s on @p regs and @p mem. Arithmetic wraps modulo 2^64,
 * shift amounts are taken mod 64, division by zero gives 0 and
 * INT64_MIN / -1 wraps to INT64_MIN. Every step writes its dst slot
 * (the sink when it writes no register).
 */
[[gnu::always_inline]] inline StepOutcome
executeStep(const DecodedStep &s, RegFile &regs, WordMemory &mem)
{
    const std::int64_t a = regs[s.src1];
    const std::int64_t rb = regs[s.src2];
    const auto ua = static_cast<std::uint64_t>(a);
    const auto ub =
        static_cast<std::uint64_t>(rb) + static_cast<std::uint64_t>(s.imm);
    const auto b = static_cast<std::int64_t>(ub);

    StepOutcome out;
    std::int64_t value = 0;
    switch (s.op) {
      case Opcode::Add:
      case Opcode::AddI:
        value = static_cast<std::int64_t>(ua + ub);
        break;
      case Opcode::Sub:
        value = static_cast<std::int64_t>(ua - ub);
        break;
      case Opcode::Mul:
        value = static_cast<std::int64_t>(ua * ub);
        break;
      case Opcode::Div:
        // a / -1 is -a, which wraps at INT64_MIN instead of trapping.
        value = b == 0    ? 0
                : b == -1 ? static_cast<std::int64_t>(0 - ua)
                          : a / b;
        break;
      case Opcode::And:
      case Opcode::AndI:
        value = a & b;
        break;
      case Opcode::Or:
      case Opcode::OrI:
        value = a | b;
        break;
      case Opcode::Xor:
      case Opcode::XorI:
        value = a ^ b;
        break;
      case Opcode::Sll:
      case Opcode::ShlI:
        value = static_cast<std::int64_t>(ua << (ub & 63));
        break;
      case Opcode::Srl:
      case Opcode::ShrI:
        value = static_cast<std::int64_t>(ua >> (ub & 63));
        break;
      case Opcode::Slt:
      case Opcode::SltI:
        value = a < b ? 1 : 0;
        break;
      case Opcode::LoadImm:
        value = s.imm;
        break;
      case Opcode::Load:
        out.addr = ua + static_cast<std::uint64_t>(s.imm);
        out.addrId = mem.find(out.addr);
        value = mem.load(out.addrId);
        break;
      case Opcode::Store:
        out.addr = ua + static_cast<std::uint64_t>(s.imm);
        out.addrId = mem.idOf(out.addr);
        mem.store(out.addrId, rb);
        break;
      case Opcode::BranchEq:
        out.taken = a == rb;
        break;
      case Opcode::BranchNe:
        out.taken = a != rb;
        break;
      case Opcode::BranchLt:
        out.taken = a < rb;
        break;
      case Opcode::BranchGe:
        out.taken = a >= rb;
        break;
      case Opcode::Jump:
      case Opcode::Halt:
      case Opcode::Nop:
        break;
    }
    out.next = out.taken ? s.target : s.next;
    regs[s.dst] = value;
    return out;
}

} // namespace dee

#endif // DEE_EXEC_EXECUTE_HH
