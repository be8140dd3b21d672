/**
 * @file
 * Ready-to-simulate benchmark instances: program + CFG + trace.
 *
 * makeSuite() is the reproduction's equivalent of the paper's "five of
 * the six SPECint92 programs" input set: it generates each workload,
 * analyses its CFG (for the CD models), and runs the interpreter to
 * capture the dynamic trace that every ILP model consumes.
 */

#ifndef DEE_WORKLOADS_SUITE_HH
#define DEE_WORKLOADS_SUITE_HH

#include <string>
#include <vector>

#include "cfg/cfg.hh"
#include "trace/trace.hh"
#include "workloads/workloads.hh"

namespace dee
{

/** One benchmark ready for simulation. */
struct BenchmarkInstance
{
    WorkloadId id;
    std::string name;
    Program program;
    Cfg cfg;
    Trace trace;
};

/**
 * Generates, analyses and traces one workload.
 *
 * @param scale workload scale (see makeWorkload)
 * @param max_instrs interpreter step cap — the analogue of the paper's
 *        "up to 100 million instructions" truncation rule
 * @param seed workload seed (see makeWorkload; 0 = the calibrated
 *        template)
 */
BenchmarkInstance makeInstance(WorkloadId id, int scale,
                               std::uint64_t max_instrs = 50'000'000,
                               std::uint64_t seed = 0);

/** All five instances at the same scale and the same seed (the
 *  randomized tests derive per-draw seeds with runner::cellSeed). */
std::vector<BenchmarkInstance> makeSuite(int scale,
                                         std::uint64_t max_instrs =
                                             50'000'000,
                                         std::uint64_t seed = 0);

} // namespace dee

#endif // DEE_WORKLOADS_SUITE_HH
