/**
 * @file
 * Tests for PreparedTrace (src/trace/prepared.hh), the per-trace view
 * every simulation cell of a trace shares:
 *
 *  - every prepared fact equals an independent recomputation from the
 *    records, on all five workloads at scales 1 and 4 and on synthetic
 *    stores with 1-, 2- and 4-byte entry ids: path bounds
 *    (segmentPaths), exit branches, the per-entry decode, memory ids
 *    (one per load or store in trace order, numbering the distinct
 *    addresses in first-touch order, on few addresses and on many) and
 *    join points (the backward sweep WindowSim::run used to make per
 *    cell);
 *  - the view holds no per-record array and 4 bytes per path: its
 *    bytes() stay within a budget of memory ops, paths and store
 *    entries; a trace of 2^32 records or more is refused;
 *  - the characteristic accuracy runModel() takes from its own
 *    predictor pass is bit-equal to characteristicAccuracy() for every
 *    predictor makePredictor() knows, and is published the same way;
 *  - concurrent first use, copy/move semantics, the content-keyed join
 *    cache, silence towards the registry/tracer/profile, and the
 *    immutability check (death test).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <latch>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bpred/bpred.hh"
#include "core/sim/models.hh"
#include "core/sim/window_sim.hh"
#include "obs/isolate.hh"
#include "trace/prepared.hh"
#include "workloads/suite.hh"

namespace dee
{
namespace
{

constexpr std::uint64_t kMaxInstrs = 2'000'000;

/** One instance per (workload, scale), built on first use. */
const BenchmarkInstance &
instance(WorkloadId id, int scale)
{
    static std::map<std::pair<WorkloadId, int>,
                    std::unique_ptr<BenchmarkInstance>>
        cache;
    auto &slot = cache[{id, scale}];
    if (!slot) {
        slot = std::make_unique<BenchmarkInstance>(
            makeInstance(id, scale, kMaxInstrs));
    }
    return *slot;
}

std::uint8_t
expectedSlot(RegId r, std::uint8_t none)
{
    return (r == kNoReg || r == kZeroReg) ? none : r;
}

/** The join-point sweep WindowSim::run() made for every CD cell. */
std::vector<DynIndex>
sweepJoinPoints(const Trace &trace, const Cfg &cfg)
{
    const auto &records = trace.records;
    const std::vector<BranchPath> paths = segmentPaths(trace);
    const DynIndex n = records.size();
    std::vector<DynIndex> join_idx(paths.size(), n);
    std::vector<DynIndex> next_occ(cfg.numBlocks() + 1, n);
    for (std::uint64_t k = paths.size(); k-- > 0;) {
        if (paths[k].endsInBranch) {
            const DynIndex b = paths[k].branchIndex();
            const BlockId ipdom = cfg.ipostdom(records[b].block);
            if (ipdom < cfg.numBlocks())
                join_idx[k] = next_occ[ipdom];
        }
        for (DynIndex i = paths[k].end; i-- > paths[k].begin;)
            next_occ[records[i].block] = i;
    }
    return join_idx;
}

class PreparedFacts
    : public ::testing::TestWithParam<std::pair<WorkloadId, int>>
{
};

/**
 * Checks every fact of @p trace's view but the join points against
 * the records, read one by one through RecordStore::operator[]: path
 * bounds (segmentPaths), exit branches, each record's entry id and
 * decode, and the memory ids (one per load or store in trace order,
 * numbering the distinct addresses in first-touch order from 1).
 */
void
expectViewMatchesRecords(const Trace &trace)
{
    const auto &records = trace.records;
    const PreparedTrace &prep = trace.prepared();
    ASSERT_EQ(prep.size(), records.size());
    ASSERT_TRUE(prep.describes(trace));
    EXPECT_EQ(prep.idWidth(), records.idWidth());

    // Path bounds and exit branches.
    const std::vector<BranchPath> paths = segmentPaths(trace);
    ASSERT_EQ(prep.numPaths(), paths.size());
    std::uint64_t branches = 0;
    for (std::uint64_t k = 0; k < paths.size(); ++k) {
        const BranchPath p = prep.path(k);
        ASSERT_EQ(p.begin, paths[k].begin) << "path " << k;
        ASSERT_EQ(p.end, paths[k].end) << "path " << k;
        ASSERT_EQ(p.endsInBranch, paths[k].endsInBranch) << "path " << k;
        if (!paths[k].endsInBranch)
            continue;
        ++branches;
        const TraceRecord &b = records[paths[k].branchIndex()];
        const PathExit &e = prep.exit(k);
        ASSERT_EQ(e.sid, b.sid) << "path " << k;
        ASSERT_EQ(e.block, b.block) << "path " << k;
        ASSERT_EQ(e.taken, b.taken) << "path " << k;
        ASSERT_EQ(e.backward, b.backward) << "path " << k;
    }
    EXPECT_EQ(prep.numBranches(), branches);

    // The entry decode matches every record; each load or store takes
    // exactly one memory id, in trace order, and other records none.
    const std::vector<std::uint32_t> &mem_ids = prep.memIds();
    ASSERT_FALSE(mem_ids.empty());
    EXPECT_EQ(mem_ids.back(), 0u) << "no trailing 0 after the last id";
    std::size_t cursor = 0;
    std::unordered_map<std::uint64_t, std::uint32_t> id_of_addr;
    for (std::uint64_t i = 0; i < records.size(); ++i) {
        const TraceRecord &rec = records[i];
        ASSERT_EQ(prep.entryId(i), records.id(i)) << i;
        ASSERT_LT(prep.entryId(i), prep.entryDecode().size()) << i;
        const DecodedInstr &d = prep.entryDecode()[prep.entryId(i)];
        ASSERT_EQ(d.src1, expectedSlot(rec.rs1, kZeroSlot)) << i;
        ASSERT_EQ(d.src2, expectedSlot(rec.rs2, kZeroSlot)) << i;
        ASSERT_EQ(d.dst, expectedSlot(rec.rd, kSinkSlot)) << i;
        ASSERT_EQ(d.cls, opClass(rec.op)) << i;
        if (d.cls != OpClass::Load && d.cls != OpClass::Store)
            continue;
        ASSERT_LT(cursor + 1, mem_ids.size()) << "ids ran out at " << i;
        const auto next = static_cast<std::uint32_t>(id_of_addr.size() + 1);
        const std::uint32_t first_touch =
            id_of_addr.emplace(rec.memAddr, next).first->second;
        ASSERT_EQ(mem_ids[cursor++], first_touch) << i;
    }
    EXPECT_EQ(cursor + 1, mem_ids.size()) << "ids left over";
    EXPECT_EQ(prep.numMemIds(), id_of_addr.size() + 1);
}

TEST_P(PreparedFacts, MatchIndependentRecomputation)
{
    const auto [id, scale] = GetParam();
    const BenchmarkInstance &inst = instance(id, scale);
    const Trace &trace = inst.trace;
    expectViewMatchesRecords(trace);

    // Join points, and the cache keyed by ipostdom contents: a copy of
    // the Cfg at another address hits the same entry.
    const PreparedTrace &prep = trace.prepared();
    const std::vector<std::uint32_t> &join = prep.joinIndex(inst.cfg);
    const std::vector<DynIndex> swept = sweepJoinPoints(trace, inst.cfg);
    EXPECT_TRUE(std::equal(join.begin(), join.end(), swept.begin(),
                           swept.end()));
    const Cfg cfg_copy = inst.cfg;
    EXPECT_EQ(&prep.joinIndex(cfg_copy), &join);
    EXPECT_EQ(&trace.prepared(), &prep);
}

std::vector<std::pair<WorkloadId, int>>
factCases()
{
    std::vector<std::pair<WorkloadId, int>> cases;
    for (WorkloadId id : allWorkloads()) {
        cases.emplace_back(id, 1);
        cases.emplace_back(id, 4);
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloadsScales1And4, PreparedFacts,
    ::testing::ValuesIn(factCases()),
    [](const ::testing::TestParamInfo<std::pair<WorkloadId, int>> &info) {
        return std::string(workloadName(info.param.first)) + "_scale" +
               std::to_string(info.param.second);
    });

TEST(PreparedTrace, HoldsNoPerRecordArray)
{
    // The view adds per record only a load or store's memory id; the
    // rest is per path (a 4-byte bound), per store entry (decode, exit)
    // or fixed. An array with one entry per record, or a copy of each
    // path's exit, breaks the budget.
    for (const auto &[id, scale] : factCases()) {
        const Trace &trace = instance(id, scale).trace;
        const PreparedTrace &prep = trace.prepared();
        const TraceStats stats = computeStats(trace);
        const std::uint64_t mem_ops = stats.loads + stats.stores;
        const std::uint64_t entries = trace.records.entries().size();
        const std::uint64_t budget = 4 * mem_ops + 8 * prep.numPaths() +
                                     16 * entries + 4096;
        EXPECT_LE(prep.bytes(), budget)
            << workloadName(id) << " scale " << scale << ": "
            << prep.size() << " records, " << mem_ops
            << " loads/stores, " << prep.numPaths() << " paths, "
            << entries << " entries";
        EXPECT_GE(prep.bytes(), 4 * mem_ops)
            << workloadName(id) << " scale " << scale
            << ": bytes() leaves out memIds()";
    }
}

/**
 * Appends to @p trace @p count records of tuples (one sid each)
 * [@p first, @p last): each of [@p first, @p last) once in order, then
 * random ones. Every fifth tuple is a branch (an entry per outcome),
 * every fifth a load and every fifth a store, on @p addresses distinct
 * addresses.
 */
void
appendTuples(Trace &trace, std::uint32_t first, std::uint32_t last,
             std::uint64_t count, std::uint64_t addresses,
             std::mt19937_64 &rng)
{
    const auto reg = [](std::uint32_t v) {
        return v % 9 == 0 ? kNoReg : static_cast<RegId>(v % kNumRegs);
    };
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint32_t k =
            first + static_cast<std::uint32_t>(
                        i < last - first ? i : rng() % (last - first));
        TraceRecord r;
        r.sid = k;
        r.block = k / 3;
        r.rd = reg(k);
        r.rs1 = reg(k / 7);
        r.rs2 = reg(k / 11);
        switch (k % 5) {
          case 0:
            r.op = Opcode::BranchEq;
            r.rd = kNoReg;
            r.isBranch = true;
            r.taken = rng() % 2 == 0;
            r.backward = k % 2 == 0;
            break;
          case 1:
            r.op = Opcode::Load;
            r.memAddr = 8 * (rng() % addresses);
            break;
          case 2:
            r.op = Opcode::Store;
            r.rd = kNoReg;
            r.memAddr = 8 * (rng() % addresses);
            break;
          default:
            r.op = Opcode::Add;
        }
        trace.records.push_back(r);
    }
    trace.numStatic = std::max(trace.numStatic, last);
}

TEST(PreparedTrace, AgreesWithTheRecordsAtEveryIdWidth)
{
    // One store grown past 256 and then 65,536 entries, each stage over
    // more than one id chunk: a copy taken at each id width (a copy
    // starts unprepared) gets its own view, read back against the
    // records.
    std::mt19937_64 rng(11);
    Trace trace;
    std::uint32_t tuples = 0;
    for (const auto &[more, width] :
         {std::pair{200u, 1u}, std::pair{3'000u, 2u},
          std::pair{70'000u, 4u}}) {
        appendTuples(trace, tuples, more,
                     std::max<std::uint64_t>(more,
                                             RecordStore::kChunkRecords) +
                         17'000,
                     5'000, rng);
        tuples = more;
        ASSERT_EQ(trace.records.idWidth(), width);
        const Trace copy = trace;
        SCOPED_TRACE("entry ids " + std::to_string(width) + " bytes wide");
        expectViewMatchesRecords(copy);
    }
}

TEST(PreparedTrace, MemoryIdsNumberAddressesInFirstTouchOrder)
{
    // Many loads and stores on few addresses, then on many, so the
    // address table doubles over and over while ids are handed out:
    // each id is still its address's rank in first-touch order.
    std::mt19937_64 rng(5);
    Trace few;
    appendTuples(few, 0, 40, 400'000, 37, rng);
    expectViewMatchesRecords(few);
    EXPECT_EQ(few.prepared().numMemIds(), 38u);

    Trace many;
    appendTuples(many, 0, 40, 400'000, 100'000, rng);
    expectViewMatchesRecords(many);
    EXPECT_GT(many.prepared().numMemIds(), 50'000u);
}

TEST(PreparedTraceDeathTest, RefusesTracesOf2To32RecordsOrMore)
{
    // Path bounds and join points are 32-bit record indices; the check
    // runs before anything is sized, on the record count alone.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    checkPreparable(0);
    checkPreparable(UINT32_MAX);
    EXPECT_EXIT(checkPreparable(std::uint64_t{1} << 32),
                ::testing::ExitedWithCode(1),
                "4294967296 records cannot be prepared.*fewer than 2\\^32");
    EXPECT_EXIT(checkPreparable(UINT64_MAX), ::testing::ExitedWithCode(1),
                "cannot be prepared");
}

/** What one call published under bpred.<predictor>.* in its own
 *  registry (the predictor's name folded into one path segment). */
struct AccuracyLeaves
{
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t samples = 0;
    double accuracy = 0.0;
};

AccuracyLeaves
accuracyLeaves(obs::Registry &reg)
{
    AccuracyLeaves out;
    for (const std::string &path : reg.paths()) {
        const std::string suffix = ".accuracy";
        if (path.rfind("bpred.", 0) != 0 || path.size() < suffix.size() ||
            path.compare(path.size() - suffix.size(), suffix.size(),
                         suffix) != 0)
            continue;
        EXPECT_EQ(out.samples, 0u) << "second accuracy leaf " << path;
        const std::string prefix =
            path.substr(0, path.size() - suffix.size());
        out.branches = reg.counter(prefix + ".branches");
        out.mispredicts = reg.counter(prefix + ".mispredicts");
        const RunningStat &stat = reg.stat(path);
        out.samples = stat.count();
        out.accuracy = stat.min(); // the one sample, bit for bit
    }
    return out;
}

std::uint64_t
bits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

TEST(PreparedAccuracy, RunModelPMatchesCharacteristicAccuracyForEveryPredictor)
{
    const std::vector<std::string> names = {
        "2bit", "1bit", "taken", "btfnt", "oracle", "gshare", "pap",
        "tournament"};
    for (WorkloadId id : allWorkloads()) {
        const BenchmarkInstance &inst = instance(id, 1);
        for (const std::string &name : names) {
            SCOPED_TRACE(std::string(workloadName(id)) + " / " + name);
            const auto pred = makePredictor(name, inst.trace.numStatic);

            obs::CellSink ref_sink;
            double p_ref;
            {
                const obs::IsolationScope scope(ref_sink);
                p_ref = characteristicAccuracy(inst.trace, *pred);
            }

            // The p runModel() sizes its tree from: the clamped
            // accuracy of the cell's own predictor pass.
            const PathPredictions own = predictPaths(inst.trace, *pred);
            EXPECT_EQ(bits(std::clamp(own.accuracy(), 0.5, 0.995)),
                      bits(p_ref));

            // runModel() publishes exactly what the replay published,
            // once per window cell and never for the Oracle.
            obs::CellSink cell_sink;
            {
                const obs::IsolationScope scope(cell_sink);
                runModel(ModelKind::DEE_CD_MF, inst.trace, &inst.cfg, *pred,
                         16);
            }
            const AccuracyLeaves ref = accuracyLeaves(ref_sink.registry);
            const AccuracyLeaves cell = accuracyLeaves(cell_sink.registry);
            EXPECT_EQ(ref.samples, 1u);
            EXPECT_EQ(cell.samples, 1u);
            EXPECT_EQ(cell.branches, ref.branches);
            EXPECT_EQ(cell.mispredicts, ref.mispredicts);
            EXPECT_EQ(bits(cell.accuracy), bits(ref.accuracy));
            EXPECT_EQ(bits(std::clamp(cell.accuracy, 0.5, 0.995)),
                      bits(p_ref));

            obs::CellSink oracle_sink;
            {
                const obs::IsolationScope scope(oracle_sink);
                runModel(ModelKind::Oracle, inst.trace, &inst.cfg, *pred,
                         0);
            }
            for (const std::string &path : oracle_sink.registry.paths())
                EXPECT_NE(path.rfind("bpred.", 0), 0u) << path;
        }
    }
}

TEST(PreparedTrace, ConcurrentFirstUseSharesOneView)
{
    BenchmarkInstance inst = makeInstance(WorkloadId::Compress, 2,
                                          kMaxInstrs);
    const Trace &trace = inst.trace;
    constexpr int kThreads = 8;
    std::vector<const PreparedTrace *> seen(kThreads, nullptr);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            start.arrive_and_wait();
            seen[static_cast<std::size_t>(t)] = &trace.prepared();
        });
    }
    for (std::thread &th : threads)
        th.join();
    for (const PreparedTrace *view : seen)
        EXPECT_EQ(view, seen.front());
    EXPECT_EQ(seen.front(), &trace.prepared());
    EXPECT_EQ(seen.front()->size(), trace.size());
}

TEST(PreparedTrace, ConcurrentJoinIndexSharesOneEntry)
{
    const BenchmarkInstance &inst = instance(WorkloadId::Xlisp, 1);
    const PreparedTrace &prep = inst.trace.prepared();
    constexpr int kThreads = 8;
    std::vector<const std::vector<std::uint32_t> *> seen(kThreads,
                                                         nullptr);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            start.arrive_and_wait();
            seen[static_cast<std::size_t>(t)] = &prep.joinIndex(inst.cfg);
        });
    }
    for (std::thread &th : threads)
        th.join();
    for (const auto *join : seen)
        EXPECT_EQ(join, seen.front());
}

TEST(PreparedTrace, CopyStartsUnpreparedMoveKeepsTheView)
{
    BenchmarkInstance inst = makeInstance(WorkloadId::Eqntott, 1,
                                          kMaxInstrs);
    const PreparedTrace *view = &inst.trace.prepared();

    const Trace copy = inst.trace;
    const PreparedTrace &copy_view = copy.prepared();
    EXPECT_NE(&copy_view, view);
    EXPECT_TRUE(copy_view.describes(copy));
    EXPECT_EQ(copy_view.numPaths(), view->numPaths());

    const Trace moved = std::move(inst.trace);
    EXPECT_EQ(&moved.prepared(), view);
}

TEST(PreparedTrace, PreparationPublishesNothing)
{
    const BenchmarkInstance built = makeInstance(WorkloadId::Espresso, 1,
                                                 kMaxInstrs);
    obs::CellSink sink;
    {
        const obs::IsolationScope scope(sink);
        const PreparedTrace &prep = built.trace.prepared();
        (void)prep.joinIndex(built.cfg);
    }
    EXPECT_EQ(sink.registry.size(), 0u);
    EXPECT_EQ(sink.tracer.recorded(), 0u);
    EXPECT_TRUE(sink.profiles.scopes().empty());
}

TEST(PreparedTraceDeathTest, AppendAfterPreparationIsCaught)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    BenchmarkInstance inst = makeInstance(WorkloadId::Cc1, 1, kMaxInstrs);
    // Room for one more record, so the append below keeps the buffer
    // and only the size check can catch it.
    inst.trace.records.reserve(inst.trace.records.size() + 1);
    TwoBitPredictor pred(inst.trace.numStatic);
    const SimResult before =
        runModel(ModelKind::SP, inst.trace, &inst.cfg, pred, 8);
    EXPECT_EQ(before.instructions, inst.trace.size());
    EXPECT_DEATH(
        {
            inst.trace.records.push_back(inst.trace.records.back());
            (void)runModel(ModelKind::SP, inst.trace, &inst.cfg, pred, 8);
        },
        "trace records changed after the trace was prepared");
    EXPECT_DEATH(
        {
            inst.trace.records.shrink_to_fit();
            (void)oracleSim(inst.trace);
        },
        "trace records changed after the trace was prepared");
}

} // namespace
} // namespace dee
