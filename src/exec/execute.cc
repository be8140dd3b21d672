#include "exec/execute.hh"

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
    // Slot 0 stands for r0 and for no register alike.
    const auto read_slot = [](RegId r) -> std::uint8_t {
        return r == kNoReg ? 0 : r;
    };
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
            s.dest = inst.dest();
            s.rs1 = inst.rs1;
            s.rs2 = inst.rs2;
            s.src1 = read_slot(inst.rs1);
            s.src2 = s.cls == OpClass::Load ? 0 : read_slot(inst.rs2);
            s.dst = s.dest == kNoReg ? kWriteSink : s.dest;
            // An ALU op names its second operand by rs2 when it has
            // one, and by its immediate otherwise.
            if (s.cls == OpClass::IntAlu && inst.op != Opcode::LoadImm &&
                inst.rs2 != kNoReg)
                s.imm = 0;
            if (s.cls == OpClass::CondBranch || s.cls == OpClass::Jump)
                s.target = block_start[inst.target];
            if (s.cls == OpClass::Jump)
                s.next = s.target;
            s.backward = s.cls == OpClass::CondBranch && inst.target <= b;
            s.blockStart = steps.size() == block_start[b];
            steps.push_back(s);
        }
    }
    return steps;
}

void
WordMemory::publish(
    std::unordered_map<std::uint64_t, std::int64_t> &memory) const
{
    ids_.forEach([&](std::uint64_t addr, std::uint32_t id) {
        memory.emplace(addr, values_[id]);
    });
}

void
publishState(const RegFile &regs, const WordMemory &memory,
             MachineState &state)
{
    state.regs.assign(regs.begin(), regs.begin() + kNumRegs);
    memory.publish(state.memory);
}

} // namespace dee
