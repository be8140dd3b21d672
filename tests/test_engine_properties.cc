/**
 * @file
 * Property tests for the data-oriented fast engine.
 *
 * Two families:
 *
 *   - The paper's dominance invariants, asserted through the public
 *     runModel() — which always runs the fast kernels — on
 *     seed-perturbed workloads: Oracle dominates every constrained
 *     model, DEE >= SP at equal resources in every control-dependency
 *     regime, and relaxing control dependencies never hurts
 *     (*-CD-MF >= *-CD >= base). The fast kernels are bit-exact
 *     against the reference ones (test_engine_differential.cc), so
 *     these are really model-semantics checks — but they must keep
 *     holding on the production path, which never links the
 *     reference kernels.
 *
 *   - The word-parallel BitVec64 operations the engine's per-path
 *     sets are built on, cross-checked against a naive std::set
 *     oracle on randomized masks: and/or/andNot, popcount and
 *     ascending forEachSet scans.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "bpred/bpred.hh"
#include "common/bit_matrix.hh"
#include "core/sim/models.hh"
#include "runner/seed.hh"
#include "workloads/suite.hh"

namespace dee
{
namespace
{

// ------------------------------------------- dominance on the fast engine

constexpr int kNumDraws = 20;
constexpr int kEt = 32;
constexpr std::uint64_t kMaxInstrs = 20'000;

BenchmarkInstance
drawInstance(int draw)
{
    const std::vector<WorkloadId> ids = allWorkloads();
    const WorkloadId id =
        ids[static_cast<std::size_t>(draw) % ids.size()];
    const std::uint64_t seed = runner::cellSeed(
        0xFA57E26u + static_cast<std::uint64_t>(draw),
        workloadName(id), "engine_property", 1);
    return makeInstance(id, 1, kMaxInstrs, seed);
}

double
fastSpeedup(ModelKind kind, const BenchmarkInstance &inst, int e_t)
{
    TwoBitPredictor pred(inst.trace.numStatic);
    return runModel(kind, inst.trace, &inst.cfg, pred, e_t).speedup;
}

TEST(EngineProperties, DominanceInvariantsHoldOnFastEngine)
{
    for (int draw = 0; draw < kNumDraws; ++draw) {
        const BenchmarkInstance inst = drawInstance(draw);
        ASSERT_FALSE(inst.trace.empty()) << "draw " << draw;

        const double oracle = fastSpeedup(ModelKind::Oracle, inst, 0);
        const double sp = fastSpeedup(ModelKind::SP, inst, kEt);
        const double dee = fastSpeedup(ModelKind::DEE, inst, kEt);
        const double sp_cd = fastSpeedup(ModelKind::SP_CD, inst, kEt);
        const double dee_cd =
            fastSpeedup(ModelKind::DEE_CD, inst, kEt);
        const double sp_cd_mf =
            fastSpeedup(ModelKind::SP_CD_MF, inst, kEt);
        const double dee_cd_mf =
            fastSpeedup(ModelKind::DEE_CD_MF, inst, kEt);

        const std::string ctx =
            "draw " + std::to_string(draw) + " (" + inst.name + ")";
        // Oracle is the dataflow limit (same 0.999 tie-break
        // tolerance as the reference-engine property suite).
        for (double v : {sp, dee, sp_cd, dee_cd, sp_cd_mf, dee_cd_mf})
            EXPECT_GE(oracle, v * 0.999) << ctx;
        // DEE >= SP at equal resources, in every CD regime.
        EXPECT_GE(dee, sp * 0.999) << ctx;
        EXPECT_GE(dee_cd, sp_cd * 0.999) << ctx;
        EXPECT_GE(dee_cd_mf, sp_cd_mf * 0.999) << ctx;
        // Relaxing control dependencies never hurts.
        EXPECT_GE(sp_cd, sp * 0.999) << ctx;
        EXPECT_GE(sp_cd_mf, sp_cd * 0.999) << ctx;
        EXPECT_GE(dee_cd, dee * 0.999) << ctx;
        EXPECT_GE(dee_cd_mf, dee_cd * 0.999) << ctx;
    }
}

// ------------------------------------- bit-set ops vs a set oracle

/** Naive reference: the set of indices a BitVec64 should contain. */
using IndexSet = std::set<std::size_t>;

IndexSet
randomSet(std::mt19937_64 &rng, std::size_t size, double density)
{
    IndexSet out;
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    for (std::size_t i = 0; i < size; ++i) {
        if (coin(rng) < density)
            out.insert(i);
    }
    return out;
}

BitVec64
toBits(const IndexSet &set, std::size_t size)
{
    BitVec64 v(size);
    for (std::size_t i : set)
        v.set(i);
    return v;
}

IndexSet
toSet(const BitVec64 &v)
{
    IndexSet out;
    v.forEachSet([&out](std::size_t i) {
        // forEachSet guarantees ascending order; inserting at end()
        // would silently reorder, so assert it instead.
        EXPECT_TRUE(out.empty() || *out.rbegin() < i);
        out.insert(i);
    });
    return out;
}

TEST(BitVecProperties, OpsMatchSetOracleOnRandomMasks)
{
    std::mt19937_64 rng(0xB17F1E1Du);
    // Sizes straddle the word boundaries the engine's scans must get
    // right: sub-word, exact words, and off-by-a-few around them.
    const std::size_t sizes[] = {1,  5,  63, 64, 65,
                                 127, 128, 200, 511, 513};
    for (const std::size_t size : sizes) {
        for (const double density : {0.02, 0.5, 0.97}) {
            const IndexSet sa = randomSet(rng, size, density);
            const IndexSet sb = randomSet(rng, size, 1.0 - density);
            const BitVec64 a = toBits(sa, size);
            const BitVec64 b = toBits(sb, size);
            const std::string ctx = "size " + std::to_string(size) +
                                    " density " +
                                    std::to_string(density);

            EXPECT_EQ(a.popcount(), sa.size()) << ctx;
            EXPECT_EQ(toSet(a), sa) << ctx;

            // Next set bit, from every start up to one past the end.
            for (std::size_t from = 0; from <= size; ++from) {
                const auto next = sa.lower_bound(from);
                EXPECT_EQ(a.nextSet(from),
                          next == sa.end() ? size : *next)
                    << ctx << " from " << from;
            }

            // Intersection.
            IndexSet s_and;
            for (std::size_t i : sa) {
                if (sb.count(i) != 0)
                    s_and.insert(i);
            }
            BitVec64 v_and = a;
            v_and.andWith(b);
            EXPECT_EQ(toSet(v_and), s_and) << ctx;
            EXPECT_EQ(v_and.popcount(), s_and.size()) << ctx;

            // Union.
            IndexSet s_or = sa;
            s_or.insert(sb.begin(), sb.end());
            BitVec64 v_or = a;
            v_or.orWith(b);
            EXPECT_EQ(toSet(v_or), s_or) << ctx;

            // Difference (a \ b).
            IndexSet s_diff;
            for (std::size_t i : sa) {
                if (sb.count(i) == 0)
                    s_diff.insert(i);
            }
            BitVec64 v_diff = a;
            v_diff.andNotWith(b);
            EXPECT_EQ(toSet(v_diff), s_diff) << ctx;

            // Point updates agree with set insert/erase.
            BitVec64 v_mut = a;
            IndexSet s_mut = sa;
            std::uniform_int_distribution<std::size_t> pick(0,
                                                            size - 1);
            for (int k = 0; k < 32; ++k) {
                const std::size_t i = pick(rng);
                if (k % 2 == 0) {
                    v_mut.set(i);
                    s_mut.insert(i);
                } else {
                    v_mut.reset(i);
                    s_mut.erase(i);
                }
                EXPECT_EQ(v_mut.test(i), s_mut.count(i) != 0) << ctx;
            }
            EXPECT_EQ(toSet(v_mut), s_mut) << ctx;
        }
    }
}

TEST(BitVecProperties, ClearEmptiesAndKeepsSize)
{
    std::mt19937_64 rng(7);
    BitVec64 v = toBits(randomSet(rng, 300, 0.4), 300);
    ASSERT_GT(v.popcount(), 0u);
    v.clear();
    EXPECT_EQ(v.size(), 300u);
    EXPECT_EQ(v.popcount(), 0u);
}

} // namespace
} // namespace dee
