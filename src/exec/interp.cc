#include "exec/interp.hh"

#include "common/logging.hh"

namespace dee
{

std::int64_t
MachineState::readMem(std::uint64_t addr) const
{
    auto it = memory.find(addr);
    return it == memory.end() ? 0 : it->second;
}

void
MachineState::writeMem(std::uint64_t addr, std::int64_t v)
{
    memory[addr] = v;
}

namespace semantics
{

std::int64_t
alu(Opcode op, std::int64_t a, std::int64_t b)
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
        return b == 0 ? 0 : a / b;
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
        dee_panic("alu() called with non-ALU opcode ", opcodeName(op));
    }
}

bool
branchTaken(Opcode op, std::int64_t a, std::int64_t b)
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
        dee_panic("branchTaken() with non-branch opcode ",
                  opcodeName(op));
    }
}

} // namespace semantics

std::vector<DecodedStep>
decodeProgram(const Program &program)
{
    program.validate();

    std::vector<StaticId> block_start(program.numBlocks() + 1, 0);
    for (BlockId b = 0; b < program.numBlocks(); ++b) {
        block_start[b + 1] =
            block_start[b] +
            static_cast<StaticId>(program.block(b).instrs.size());
    }
    std::vector<DecodedStep> steps;
    steps.reserve(program.numInstrs());
    for (BlockId b = 0; b < program.numBlocks(); ++b) {
        for (const Instruction &inst : program.block(b).instrs) {
            DecodedStep s;
            s.imm = inst.imm;
            s.next = static_cast<StaticId>(steps.size() + 1);
            s.block = b;
            s.op = inst.op;
            s.cls = opClass(inst.op);
            s.rd = inst.rd;
            s.dest = inst.dest();
            s.rs1 = inst.rs1;
            s.rs2 = inst.rs2;
            if (s.cls == OpClass::CondBranch || s.cls == OpClass::Jump)
                s.target = block_start[inst.target];
            s.backward = s.cls == OpClass::CondBranch && inst.target <= b;
            s.blockStart = steps.size() == block_start[b];
            steps.push_back(s);
        }
    }
    return steps;
}

Interpreter::Interpreter(const Program &program)
    : steps_(decodeProgram(program))
{
}

ExecResult
Interpreter::run(std::uint64_t max_instrs, bool capture_trace) const
{
    ExecResult result;
    MachineState &st = result.state;
    RecordStore &records = result.trace.records;

    // Entry id of each (static id, taken) pair once it has executed.
    constexpr std::uint32_t kUnseen = UINT32_MAX;
    std::vector<std::uint32_t> entry_of(
        capture_trace ? 2 * steps_.size() : 0, kUnseen);

    StaticId sid = 0;
    while (result.steps < max_instrs) {
        dee_assert(sid < steps_.size(),
                   "fell off program end (validate missed it)");
        const DecodedStep &s = steps_[sid];
        ++result.steps;

        StaticId next = s.next;
        std::uint64_t addr = 0;
        bool taken = false;

        switch (s.cls) {
          case OpClass::IntAlu: {
            std::int64_t value;
            if (s.op == Opcode::LoadImm) {
                value = s.imm;
            } else if (s.rs2 != kNoReg) {
                value = semantics::alu(s.op, st.readReg(s.rs1),
                                       st.readReg(s.rs2));
            } else {
                value = semantics::alu(s.op, st.readReg(s.rs1), s.imm);
            }
            st.writeReg(s.rd, value);
            break;
          }
          case OpClass::Load:
            addr = static_cast<std::uint64_t>(st.readReg(s.rs1) + s.imm);
            st.writeReg(s.rd, st.readMem(addr));
            break;
          case OpClass::Store:
            addr = static_cast<std::uint64_t>(st.readReg(s.rs1) + s.imm);
            st.writeMem(addr, st.readReg(s.rs2));
            break;
          case OpClass::CondBranch:
            taken = semantics::branchTaken(s.op, st.readReg(s.rs1),
                                           st.readReg(s.rs2));
            if (taken)
                next = s.target;
            break;
          case OpClass::Jump:
            next = s.target;
            break;
          case OpClass::Halt:
            result.halted = true;
            break;
          case OpClass::Nop:
            break;
        }

        if (capture_trace) {
            std::uint32_t &entry = entry_of[2 * sid + (taken ? 1 : 0)];
            if (entry == kUnseen) {
                TraceRecord tuple;
                tuple.sid = sid;
                tuple.block = s.block;
                tuple.op = s.op;
                tuple.rd = s.dest;
                tuple.rs1 = s.rs1;
                tuple.rs2 = s.rs2;
                tuple.isBranch = s.cls == OpClass::CondBranch;
                tuple.taken = taken;
                tuple.backward = s.backward;
                entry = records.addEntry(tuple);
            }
            records.append(entry, addr);
        }
        if (result.halted)
            break;
        sid = next;
    }

    // Releases up to a chunk of id slack and the address vectors' growth.
    records.shrink_to_fit();
    result.trace.numStatic = static_cast<std::uint32_t>(steps_.size());
    return result;
}

} // namespace dee
