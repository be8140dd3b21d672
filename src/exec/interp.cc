#include "exec/interp.hh"

#include "common/logging.hh"

namespace dee
{

Interpreter::Interpreter(const Program &program)
    : steps_(decodeProgram(program))
{
}

// Aligned to a cache line, so that where the linker places the loop
// does not move with unrelated code.
[[gnu::aligned(64)]] ExecResult
Interpreter::run(std::uint64_t max_instrs, bool capture_trace) const
{
    ExecResult result;
    RecordStore &records = result.trace.records;
    RegFile regs{};
    WordMemory mem;

    // Entry id of each (static id, taken) pair once it has executed.
    constexpr std::uint32_t kUnseen = UINT32_MAX;
    std::vector<std::uint32_t> entry_of(
        capture_trace ? 2 * steps_.size() : 0, kUnseen);

    // Locals, not members: the trace's byte stores could alias them,
    // which would reload each of them once per instruction.
    const DecodedStep *const steps = steps_.data();
    const std::size_t num_steps = steps_.size();
    std::uint32_t *const entries = entry_of.data();
    std::uint64_t executed = 0;
    StaticId sid = 0;
    while (executed < max_instrs) {
        dee_assert(sid < num_steps,
                   "fell off program end (validate missed it)");
        const DecodedStep &s = steps[sid];
        ++executed;
        const StepOutcome out = executeStep(s, regs, mem);

        if (capture_trace) {
            std::uint32_t &entry = entries[2 * sid + (out.taken ? 1 : 0)];
            if (entry == kUnseen) {
                TraceRecord tuple;
                tuple.sid = sid;
                tuple.block = s.block;
                tuple.op = s.op;
                tuple.rd = s.dest;
                tuple.rs1 = s.rs1;
                tuple.rs2 = s.rs2;
                tuple.isBranch = s.cls == OpClass::CondBranch;
                tuple.taken = out.taken;
                tuple.backward = s.backward;
                entry = records.addEntry(tuple);
            }
            records.append(entry, out.addr);
        }
        if (s.op == Opcode::Halt) {
            result.halted = true;
            break;
        }
        sid = out.next;
    }

    result.steps = executed;
    publishState(regs, mem, result.state);
    // Releases up to a chunk of id slack and the address vectors' growth.
    records.shrink_to_fit();
    result.trace.numStatic = static_cast<std::uint32_t>(steps_.size());
    return result;
}

} // namespace dee
