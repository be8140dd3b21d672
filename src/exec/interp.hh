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
#include <vector>

#include "exec/execute.hh"
#include "isa/isa.hh"
#include "trace/trace.hh"

namespace dee
{

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
 * steps from static id to static id through executeStep() without
 * looking blocks up, and writes the trace's compact store directly: the
 * entry id of each (static instruction, branch outcome) pair is
 * assigned on its first execution and read from a flat table after.
 * tests/reference_interp.cc holds the executable specification run()
 * is checked against.
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
