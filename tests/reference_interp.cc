#include "reference_interp.hh"

#include <limits>

#include "common/logging.hh"

namespace dee
{

std::int64_t
referenceAlu(Opcode op, std::int64_t a, std::int64_t b)
{
    const auto ua = static_cast<std::uint64_t>(a);
    switch (op) {
      case Opcode::Add:
      case Opcode::AddI:
        return static_cast<std::int64_t>(
            ua + static_cast<std::uint64_t>(b));
      case Opcode::Sub:
        return static_cast<std::int64_t>(
            ua - static_cast<std::uint64_t>(b));
      case Opcode::Mul:
        return static_cast<std::int64_t>(
            ua * static_cast<std::uint64_t>(b));
      case Opcode::Div:
        if (b == 0)
            return 0;
        if (a == std::numeric_limits<std::int64_t>::min() && b == -1)
            return a;
        return a / b;
      case Opcode::And:
      case Opcode::AndI:
        return a & b;
      case Opcode::Or:
      case Opcode::OrI:
        return a | b;
      case Opcode::Xor:
      case Opcode::XorI:
        return a ^ b;
      case Opcode::Sll:
      case Opcode::ShlI:
        return static_cast<std::int64_t>(ua << (b & 63));
      case Opcode::Srl:
      case Opcode::ShrI:
        return static_cast<std::int64_t>(ua >> (b & 63));
      case Opcode::Slt:
      case Opcode::SltI:
        return a < b ? 1 : 0;
      default:
        dee_panic("referenceAlu() with non-ALU opcode ", opcodeName(op));
    }
}

bool
referenceBranchTaken(Opcode op, std::int64_t a, std::int64_t b)
{
    switch (op) {
      case Opcode::BranchEq:
        return a == b;
      case Opcode::BranchNe:
        return a != b;
      case Opcode::BranchLt:
        return a < b;
      case Opcode::BranchGe:
        return a >= b;
      default:
        dee_panic("referenceBranchTaken() with non-branch opcode ",
                  opcodeName(op));
    }
}

ReferenceResult
referenceRun(const Program &program, std::uint64_t max_instrs,
             const std::function<void(const TraceRecord &)> &record)
{
    program.validate();
    ReferenceResult result;
    MachineState &st = result.state;

    // The next instruction is instruction i of block b; running off a
    // block's end falls through to the next block's first instruction.
    BlockId b = 0;
    std::size_t i = 0;
    while (result.steps < max_instrs) {
        while (i == program.block(b).instrs.size()) {
            ++b;
            i = 0;
            dee_assert(b < program.numBlocks(), "fell off program end");
        }
        const Instruction &inst = program.block(b).instrs[i];
        ++result.steps;

        TraceRecord rec;
        rec.sid = program.staticId(b, i);
        rec.block = b;
        rec.op = inst.op;
        rec.rd = inst.dest();
        rec.rs1 = inst.rs1;
        rec.rs2 = inst.rs2;

        BlockId next_b = b;
        std::size_t next_i = i + 1;
        switch (opClass(inst.op)) {
          case OpClass::IntAlu: {
            std::int64_t value;
            if (inst.op == Opcode::LoadImm) {
                value = inst.imm;
            } else if (inst.rs2 != kNoReg) {
                value = referenceAlu(inst.op, st.readReg(inst.rs1),
                                     st.readReg(inst.rs2));
            } else {
                value = referenceAlu(inst.op, st.readReg(inst.rs1),
                                     inst.imm);
            }
            st.writeReg(inst.rd, value);
            break;
          }
          case OpClass::Load:
            rec.memAddr = static_cast<std::uint64_t>(st.readReg(inst.rs1)) +
                          static_cast<std::uint64_t>(inst.imm);
            st.writeReg(inst.rd, st.readMem(rec.memAddr));
            break;
          case OpClass::Store:
            rec.memAddr = static_cast<std::uint64_t>(st.readReg(inst.rs1)) +
                          static_cast<std::uint64_t>(inst.imm);
            st.writeMem(rec.memAddr, st.readReg(inst.rs2));
            break;
          case OpClass::CondBranch:
            rec.isBranch = true;
            rec.taken = referenceBranchTaken(inst.op, st.readReg(inst.rs1),
                                             st.readReg(inst.rs2));
            rec.backward = inst.target <= b;
            if (rec.taken) {
                next_b = inst.target;
                next_i = 0;
            }
            break;
          case OpClass::Jump:
            next_b = inst.target;
            next_i = 0;
            break;
          case OpClass::Halt:
            result.halted = true;
            break;
          case OpClass::Nop:
            break;
        }
        record(rec);
        if (result.halted)
            break;
        b = next_b;
        i = next_i;
    }
    return result;
}

} // namespace dee
