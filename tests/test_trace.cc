/**
 * @file
 * Unit tests for src/trace: path segmentation, statistics, and the
 * binary trace file round trip.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "trace/trace.hh"
#include "trace/trace_io.hh"

namespace dee
{
namespace
{

TraceRecord
alu(StaticId sid)
{
    TraceRecord r;
    r.sid = sid;
    r.op = Opcode::Add;
    r.rd = 1;
    r.rs1 = 2;
    r.rs2 = 3;
    return r;
}

TraceRecord
branch(StaticId sid, bool taken, bool backward = false)
{
    TraceRecord r;
    r.sid = sid;
    r.op = Opcode::BranchEq;
    r.rs1 = 1;
    r.rs2 = 2;
    r.isBranch = true;
    r.taken = taken;
    r.backward = backward;
    return r;
}

Trace
sampleTrace()
{
    Trace t;
    t.numStatic = 10;
    t.records = {alu(0), alu(1), branch(2, true),  // path 0
                 alu(3), branch(4, false),         // path 1
                 alu(5), alu(6)};                  // trailing path
    return t;
}

TEST(SegmentPaths, SplitsAtBranches)
{
    const Trace t = sampleTrace();
    const auto paths = segmentPaths(t);
    ASSERT_EQ(paths.size(), 3u);
    EXPECT_EQ(paths[0].begin, 0u);
    EXPECT_EQ(paths[0].end, 3u);
    EXPECT_TRUE(paths[0].endsInBranch);
    EXPECT_EQ(paths[0].branchIndex(), 2u);
    EXPECT_EQ(paths[1].size(), 2u);
    EXPECT_TRUE(paths[1].endsInBranch);
    EXPECT_EQ(paths[2].size(), 2u);
    EXPECT_FALSE(paths[2].endsInBranch);
}

TEST(SegmentPaths, EmptyTrace)
{
    Trace t;
    EXPECT_TRUE(segmentPaths(t).empty());
}

TEST(SegmentPaths, AllBranches)
{
    Trace t;
    t.records = {branch(0, true), branch(1, false), branch(2, true)};
    const auto paths = segmentPaths(t);
    ASSERT_EQ(paths.size(), 3u);
    for (const auto &p : paths) {
        EXPECT_EQ(p.size(), 1u);
        EXPECT_TRUE(p.endsInBranch);
    }
}

TEST(SegmentPaths, CoverageIsExactPartition)
{
    const Trace t = sampleTrace();
    const auto paths = segmentPaths(t);
    DynIndex expect_begin = 0;
    for (const auto &p : paths) {
        EXPECT_EQ(p.begin, expect_begin);
        expect_begin = p.end;
    }
    EXPECT_EQ(expect_begin, t.records.size());
}

TEST(TraceStats, Counts)
{
    Trace t = sampleTrace();
    TraceRecord load;
    load.op = Opcode::Load;
    load.memAddr = 8;
    t.records.push_back(load);
    TraceRecord store;
    store.op = Opcode::Store;
    store.memAddr = 8;
    t.records.push_back(store);

    const TraceStats s = computeStats(t);
    EXPECT_EQ(s.instructions, 9u);
    EXPECT_EQ(s.condBranches, 2u);
    EXPECT_EQ(s.taken, 1u);
    EXPECT_EQ(s.loads, 1u);
    EXPECT_EQ(s.stores, 1u);
    EXPECT_NEAR(s.branchFraction, 2.0 / 9.0, 1e-12);
    EXPECT_NEAR(s.meanPathLength, 4.5, 1e-12);
}

TEST(TraceStats, RenderContainsKeyFields)
{
    const TraceStats s = computeStats(sampleTrace());
    const std::string out = s.render();
    EXPECT_NE(out.find("instructions"), std::string::npos);
    EXPECT_NE(out.find("cond branches"), std::string::npos);
}

class TraceIoTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // One file per test: ctest -j runs each case as its own
        // process, all at once.
        path_ = ::testing::TempDir() + "dee_trace_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                ".bin";
    }

    void
    TearDown() override
    {
        std::remove(path_.c_str());
    }

    std::string path_;
};

TEST_F(TraceIoTest, RoundTripPreservesEverything)
{
    Trace t = sampleTrace();
    t.records[0].memAddr = 0x1234567890abcdefull;
    t.records[2].backward = true;
    writeTrace(t, path_);
    const Trace u = readTrace(path_);

    EXPECT_EQ(u.numStatic, t.numStatic);
    ASSERT_EQ(u.records.size(), t.records.size());
    for (std::size_t i = 0; i < t.records.size(); ++i) {
        const auto &a = t.records[i];
        const auto &b = u.records[i];
        EXPECT_EQ(a.sid, b.sid);
        EXPECT_EQ(a.block, b.block);
        EXPECT_EQ(a.op, b.op);
        EXPECT_EQ(a.rd, b.rd);
        EXPECT_EQ(a.rs1, b.rs1);
        EXPECT_EQ(a.rs2, b.rs2);
        EXPECT_EQ(a.memAddr, b.memAddr);
        EXPECT_EQ(a.isBranch, b.isBranch);
        EXPECT_EQ(a.taken, b.taken);
        EXPECT_EQ(a.backward, b.backward);
    }
}

TEST_F(TraceIoTest, RoundTripEmptyTrace)
{
    Trace t;
    t.numStatic = 3;
    writeTrace(t, path_);
    const Trace u = readTrace(path_);
    EXPECT_EQ(u.numStatic, 3u);
    EXPECT_TRUE(u.records.empty());
}

TEST_F(TraceIoTest, LargeTraceRoundTrip)
{
    Trace t;
    t.numStatic = 100;
    for (int i = 0; i < 20000; ++i) {
        TraceRecord r = alu(static_cast<StaticId>(i % 100));
        r.memAddr = static_cast<std::uint64_t>(i) * 977;
        if (i % 7 == 0)
            r = branch(static_cast<StaticId>(i % 100), i % 14 == 0);
        t.records.push_back(r);
    }
    writeTrace(t, path_);
    const Trace u = readTrace(path_);
    ASSERT_EQ(u.records.size(), t.records.size());
    for (std::size_t i = 0; i < t.records.size(); i += 997) {
        EXPECT_EQ(u.records[i].sid, t.records[i].sid);
        EXPECT_EQ(u.records[i].memAddr, t.records[i].memAddr);
        EXPECT_EQ(u.records[i].taken, t.records[i].taken);
    }
}

TEST_F(TraceIoTest, RejectsGarbageFile)
{
    std::FILE *f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("this is definitely not a DEE trace file at all", f);
    std::fclose(f);
    EXPECT_EXIT(readTrace(path_), ::testing::ExitedWithCode(1),
                "not a DEETRAC1");
}

TEST_F(TraceIoTest, RejectsMissingFile)
{
    EXPECT_EXIT(readTrace("/nonexistent/nope.bin"),
                ::testing::ExitedWithCode(1), "cannot open");
}

TEST_F(TraceIoTest, RejectsTruncatedFile)
{
    Trace t = sampleTrace();
    writeTrace(t, path_);
    // Truncate mid-records.
    std::FILE *f = std::fopen(path_.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
    ASSERT_EQ(truncate(path_.c_str(), 30), 0);
    EXPECT_EXIT(readTrace(path_), ::testing::ExitedWithCode(1),
                "truncated");
}

} // namespace
} // namespace dee
