/**
 * @file
 * Randomized property tests for the static-bounds engine: the proven
 * bounds must be *facts about the program semantics*, not artifacts
 * of its encoding, so a semantics-preserving transformation must not
 * change them.
 *
 * xform::unroll replicates counted-loop bodies (Section 4.2's
 * machine-code filter) without changing any architectural result.
 * Across ~50 seed-perturbed workload variants (drawn through the
 * runner's per-cell seed derivation, like test_runner_properties):
 *
 *  - the interval fixpoint still terminates on the unrolled program,
 *  - the critical-path lower bound is invariant — minTrip counts
 *    *counter increments*, and unrolling moves increments between
 *    static sites without adding or removing any,
 *  - every counted loop survives, matched by counter register, with
 *    its trip bound intact and its body no smaller (the replicated
 *    body can only widen it).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/absint/bounds.hh"
#include "cfg/cfg.hh"
#include "runner/seed.hh"
#include "workloads/workloads.hh"
#include "xform/unroll.hh"

namespace dee
{
namespace
{

using analysis::absint::analyzeProgram;
using analysis::absint::LoopBound;
using analysis::absint::StaticBounds;

constexpr int kNumDraws = 50;

StaticBounds
boundsOf(const Program &program)
{
    const Cfg cfg(program);
    return analyzeProgram(program, cfg).bounds;
}

TEST(AbsintProperties, BoundsInvariantUnderUnrollOnPerturbedWorkloads)
{
    const std::vector<WorkloadId> ids = allWorkloads();
    int unrolled_total = 0;
    for (int draw = 0; draw < kNumDraws; ++draw) {
        const WorkloadId id =
            ids[static_cast<std::size_t>(draw) % ids.size()];
        const std::uint64_t seed = runner::cellSeed(
            static_cast<std::uint64_t>(draw), workloadName(id),
            "absint-property", 1);
        const Program original = makeWorkload(id, 1, seed);
        const StaticBounds before = boundsOf(original);
        const std::string ctx = "draw " + std::to_string(draw) +
                                " (" + workloadName(id) + " seed " +
                                std::to_string(seed) + ")";
        ASSERT_TRUE(before.converged) << ctx;

        UnrollOptions options;
        options.factor = 2;
        options.maxBodyInstrs = 256; // let every workload loop unroll
        UnrollReport report;
        const Program transformed =
            unrollProgram(original, options, &report);
        unrolled_total += report.loopsUnrolled;
        const StaticBounds after = boundsOf(transformed);

        ASSERT_TRUE(after.converged) << ctx;
        // The bound is a semantic fact: encoding changes cannot move
        // it.
        EXPECT_EQ(after.cpLowerBound, before.cpLowerBound) << ctx;

        // Every counted loop survives the transformation, matched by
        // its counter register.
        std::map<int, const LoopBound *> by_counter;
        for (const LoopBound &l : after.loops)
            if (l.counted)
                by_counter[l.counter] = &l;
        for (const LoopBound &l : before.loops) {
            if (!l.counted)
                continue;
            const auto it = by_counter.find(l.counter);
            ASSERT_NE(it, by_counter.end())
                << ctx << " counter r" << int(l.counter);
            const LoopBound &u = *it->second;
            EXPECT_EQ(u.minTrip, l.minTrip)
                << ctx << " counter r" << int(l.counter);
            EXPECT_EQ(u.mandatory, l.mandatory)
                << ctx << " counter r" << int(l.counter);
            // Replication can only add body instructions per serial
            // counter step.
            EXPECT_GE(u.bodyInstrs, l.bodyInstrs)
                << ctx << " counter r" << int(l.counter);
        }
    }
    // The property is vacuous if the filter never fired.
    EXPECT_GT(unrolled_total, 0);
}

TEST(AbsintProperties, RepeatedAnalysisIsDeterministic)
{
    // Same program, same bounds, bit for bit — the manifests diff
    // these values across runs.
    for (WorkloadId id : allWorkloads()) {
        const Program program = makeWorkload(id, 1, 7);
        const StaticBounds a = boundsOf(program);
        const StaticBounds b = boundsOf(program);
        EXPECT_EQ(a.cpLowerBound, b.cpLowerBound) << workloadName(id);
        EXPECT_EQ(a.toJson().dump(), b.toJson().dump())
            << workloadName(id);
    }
}

} // namespace
} // namespace dee
