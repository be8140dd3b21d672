/**
 * @file
 * The sequential interpreter as an executable specification, kept as
 * the differential oracle for the library's Interpreter (exec/interp.hh)
 * and its one executor (exec/execute.hh).
 *
 * referenceRun() walks the Program block by block, with no decode, no
 * register slots and no address ids: every register goes through
 * MachineState's checked readReg()/writeReg() and every load and store
 * through its hash map. test_exec requires the library's run to match
 * it in every trace record field, the final registers and memory, the
 * step count and the halt flag. Nothing outside tests/ links it.
 */

#ifndef DEE_TESTS_REFERENCE_INTERP_HH
#define DEE_TESTS_REFERENCE_INTERP_HH

#include <cstdint>
#include <functional>

#include "exec/execute.hh"
#include "isa/isa.hh"
#include "trace/trace.hh"

namespace dee
{

/** The reference run's outcome, but its trace. */
struct ReferenceResult
{
    MachineState state;
    std::uint64_t steps = 0;
    bool halted = false;
};

/** The specified ALU result: wrapping arithmetic, shift amounts mod
 *  64, x / 0 = 0 and INT64_MIN / -1 = INT64_MIN. */
std::int64_t referenceAlu(Opcode op, std::int64_t a, std::int64_t b);

/** The specified conditional-branch outcome. */
bool referenceBranchTaken(Opcode op, std::int64_t a, std::int64_t b);

/**
 * Runs @p program from block 0 until Halt or @p max_instrs steps,
 * handing each executed instruction's trace record to @p record in
 * execution order.
 */
ReferenceResult
referenceRun(const Program &program, std::uint64_t max_instrs,
             const std::function<void(const TraceRecord &)> &record);

} // namespace dee

#endif // DEE_TESTS_REFERENCE_INTERP_HH
