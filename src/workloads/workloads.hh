/**
 * @file
 * Synthetic SPECint92-profile workloads.
 *
 * The paper evaluates five SPECint92 integer programs (cc1, compress,
 * eqntott, espresso, xlisp). Those binaries and inputs are not available
 * offline, so each generator below emits a real program in the repo ISA
 * whose *trace-level* characteristics are calibrated to the published
 * behaviour of its namesake — the three properties the ILP models are
 * sensitive to:
 *
 *  1. branch predictability under the classic 2-bit counter (the paper's
 *     per-benchmark p; suite average ~0.905),
 *  2. dataflow parallelism, which bounds the Oracle speedup (eqntott's
 *     enormous independent inner loops vs. compress's serial hash chain),
 *  3. branch density / branch-path length (~5 instructions per path).
 *
 * Mechanisms used, per workload:
 *  - cc1:      branchy if-trees and switch ladders over hash-mixed data,
 *              a serial statement-state chain, short pointer chases —
 *              low ILP, low predictability.
 *  - compress: one long loop carrying a serial hash state, hit/miss
 *              branches against an evolving in-memory table.
 *  - eqntott:  doubly nested loops whose inner bodies are independent
 *              across iterations (bit-vector comparison style) — huge
 *              oracle ILP, highly skewed branches.
 *  - espresso: nested cube/word loops on computed masks — high ILP,
 *              predictable mask tests.
 *  - xlisp:    interpreter-ish main loop with per-iteration serial
 *              evaluation chains and a GC-counter carried dependence —
 *              middling ILP and predictability.
 *
 * All generators are deterministic for a given (workload, scale, seed).
 * Seed 0 is the calibrated template exactly as the committed baselines
 * expect; a nonzero seed re-derives the generators' data constants
 * (initial serial state, hash-mix salts) from its own SplitMix64
 * stream, so distinct draws of a randomized test get decorrelated
 * programs instead of silently reusing one stream (see
 * runner::cellSeed for how those tests derive their seeds).
 */

#ifndef DEE_WORKLOADS_WORKLOADS_HH
#define DEE_WORKLOADS_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/isa.hh"

namespace dee
{

/** The five benchmark profiles of the paper's Section 5. */
enum class WorkloadId
{
    Cc1,
    Compress,
    Eqntott,
    Espresso,
    Xlisp,
};

/** Paper-style lowercase name, e.g. "eqntott". */
const char *workloadName(WorkloadId id);

/** All five, in the paper's order. */
std::vector<WorkloadId> allWorkloads();

/** Workload by name; fatal on unknown names. */
WorkloadId workloadByName(const std::string &name);

/**
 * Builds the program for a workload.
 *
 * @param scale linear work multiplier; scale 1 traces are roughly
 *        60-120k dynamic instructions, and trace length grows about
 *        linearly with scale.
 * @param seed 0 = the calibrated template; nonzero perturbs the
 *        generator's data constants deterministically (see file
 *        comment).
 */
Program makeWorkload(WorkloadId id, int scale = 1,
                     std::uint64_t seed = 0);

/**
 * The sixth SPECint92 program, sc (spreadsheet), which the paper
 * *excluded*: "The sc benchmark was not included as it was
 * significantly more predictable than the others." Provided so the
 * exclusion can be demonstrated (see bench/sc_exclusion); not part of
 * allWorkloads()/makeSuite().
 */
Program makeExcludedScLike(int scale = 1, std::uint64_t seed = 0);

} // namespace dee

#endif // DEE_WORKLOADS_WORKLOADS_HH
