/**
 * @file
 * Unit tests for src/trace: path segmentation, statistics, the compact
 * record store, and the binary trace file round trip.
 *
 *  - the store reads back 100k random records exactly through every
 *    read path, a copy, a move and a file round trip;
 *  - the store's entry ids widen from 1 to 2 to 4 bytes as its entries
 *    pass 256 and 65,536, and every record reads back unchanged;
 *  - every record the interpreter captures agrees with its program, at
 *    1-byte ids (the benchmarks) and 2-byte ids, and a benchmark's
 *    store holds at most 2.5 bytes per record;
 *  - eight threads reading one trace see the same records;
 *  - readTrace() turns hostile files (a huge record count, registers,
 *    opcodes and sids out of range, seeded byte flips and truncations)
 *    into errors or into traces every consumer completes on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <latch>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "bpred/bpred.hh"
#include "core/sim/models.hh"
#include "exec/interp.hh"
#include "isa/assembler.hh"
#include "trace/trace.hh"
#include "trace/trace_io.hh"
#include "workloads/suite.hh"
#include "workloads/workloads.hh"

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

/** Every field of @p a equals @p b's. */
bool
sameRecord(const TraceRecord &a, const TraceRecord &b)
{
    return a.sid == b.sid && a.block == b.block && a.op == b.op &&
           a.rd == b.rd && a.rs1 == b.rs1 && a.rs2 == b.rs2 &&
           a.memAddr == b.memAddr && a.isBranch == b.isBranch &&
           a.taken == b.taken && a.backward == b.backward;
}

/** Order-sensitive digest of every field of every record. */
std::uint64_t
mixRecord(std::uint64_t h, const TraceRecord &r)
{
    for (const std::uint64_t v :
         {std::uint64_t{r.sid}, std::uint64_t{r.block},
          static_cast<std::uint64_t>(r.op), std::uint64_t{r.rd},
          std::uint64_t{r.rs1}, std::uint64_t{r.rs2}, r.memAddr,
          std::uint64_t{r.isBranch} | std::uint64_t{r.taken} << 1 |
              std::uint64_t{r.backward} << 2}) {
        h = (h ^ v) * 0x100000001b3ull;
    }
    return h;
}

TEST_F(TraceIoTest, RoundTripPreservesEverything)
{
    Trace t;
    t.numStatic = 10;
    TraceRecord with_addr = alu(0);
    with_addr.memAddr = 0x1234567890abcdefull;
    TraceRecord backward_branch = branch(2, true, true);
    t.records = {with_addr, alu(1), backward_branch, alu(3),
                 branch(4, false), alu(5), alu(6)};
    writeTrace(t, path_);
    Trace u;
    std::string err;
    ASSERT_TRUE(readTrace(path_, &u, &err)) << err;

    EXPECT_EQ(u.numStatic, t.numStatic);
    ASSERT_EQ(u.records.size(), t.records.size());
    EXPECT_EQ(u.records[0].memAddr, 0x1234567890abcdefull);
    EXPECT_TRUE(u.records[2].backward);
    for (std::size_t i = 0; i < t.records.size(); ++i)
        EXPECT_TRUE(sameRecord(t.records[i], u.records[i])) << i;
}

TEST_F(TraceIoTest, RoundTripEmptyTrace)
{
    Trace t;
    t.numStatic = 3;
    writeTrace(t, path_);
    Trace u;
    std::string err;
    ASSERT_TRUE(readTrace(path_, &u, &err)) << err;
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
    Trace u;
    std::string err;
    ASSERT_TRUE(readTrace(path_, &u, &err)) << err;
    ASSERT_EQ(u.records.size(), t.records.size());
    for (std::size_t i = 0; i < t.records.size(); i += 997) {
        EXPECT_EQ(u.records[i].sid, t.records[i].sid);
        EXPECT_EQ(u.records[i].memAddr, t.records[i].memAddr);
        EXPECT_EQ(u.records[i].taken, t.records[i].taken);
    }
}

/**
 * Reads @p path, expecting readTrace() to fail with a message that
 * contains @p what; returns the message.
 */
std::string
rejection(const std::string &path, const std::string &what)
{
    Trace t;
    std::string err;
    EXPECT_FALSE(readTrace(path, &t, &err));
    EXPECT_NE(err.find(what), std::string::npos) << err;
    return err;
}

/** Overwrites @p bytes of @p path at @p offset. */
void
patchFile(const std::string &path, long offset,
          const std::vector<unsigned char> &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
}

/** Header offsets: magic 0, numStatic 8, count 12; record k at 20+24k. */
constexpr long kNumStaticAt = 8;
constexpr long kCountAt = 12;
constexpr long kFirstRecordAt = 20;

TEST_F(TraceIoTest, RejectsGarbageFile)
{
    std::FILE *f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("this is definitely not a DEE trace file at all", f);
    std::fclose(f);
    rejection(path_, "not a DEETRAC1");
}

TEST_F(TraceIoTest, RejectsMissingFile)
{
    rejection("/nonexistent/nope.bin", "cannot open");
}

TEST_F(TraceIoTest, RejectsTruncatedFile)
{
    Trace t = sampleTrace();
    writeTrace(t, path_);
    // Truncate mid-records.
    ASSERT_EQ(truncate(path_.c_str(), 30), 0);
    rejection(path_, "truncated");
}

TEST_F(TraceIoTest, RejectsHugeRecordCountBeforeAllocating)
{
    // A bare header claiming 2^60 records: nothing may be sized by it.
    Trace t;
    t.numStatic = 10;
    writeTrace(t, path_);
    patchFile(path_, kCountAt, {0, 0, 0, 0, 0, 0, 0, 0x10});
    const std::string err = rejection(path_, "truncated");
    EXPECT_NE(err.find("1152921504606846976 records"), std::string::npos)
        << err;
}

TEST_F(TraceIoTest, RejectsOutOfRangeRegister)
{
    writeTrace(sampleTrace(), path_);
    patchFile(path_, kFirstRecordAt + 9, {200}); // rd of record 0
    rejection(path_, "invalid register 200 in record 0");
}

TEST_F(TraceIoTest, RejectsSidPastNumStatic)
{
    writeTrace(sampleTrace(), path_); // numStatic 10
    patchFile(path_, kFirstRecordAt + 24 * 3, {10, 0, 0, 0}); // sid
    rejection(path_, "static id past numStatic 10 in record 3");
}

TEST_F(TraceIoTest, RejectsUnknownOpcode)
{
    writeTrace(sampleTrace(), path_);
    patchFile(path_, kFirstRecordAt + 24 + 8,
              {static_cast<unsigned char>(Opcode::Nop) + 1});
    rejection(path_, "invalid opcode");
}

TEST_F(TraceIoTest, RejectsNumStaticAboveTheLimit)
{
    writeTrace(sampleTrace(), path_);
    patchFile(path_, kNumStaticAt, {0, 0, 0, 0x80});
    rejection(path_, "above the limit");
}

TEST_F(TraceIoTest, SurvivesSeededMutations)
{
    // Byte flips (header included) and truncations of a valid scale-1
    // trace file: each mutant is an error, or a trace that statistics,
    // predictor accuracy and the CFG-free models all complete on.
    const BenchmarkInstance inst =
        makeInstance(WorkloadId::Compress, 1, 3000);
    writeTrace(inst.trace, path_);
    std::vector<char> original;
    {
        std::ifstream in(path_, std::ios::binary);
        original.assign(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>());
    }
    ASSERT_GT(original.size(), 1000u);

    std::mt19937_64 rng(20251017);
    int rejected = 0;
    int accepted = 0;
    for (int m = 0; m < 300; ++m) {
        std::vector<char> bytes = original;
        if (m % 4 == 3) {
            bytes.resize(rng() % bytes.size());
        } else {
            const int flips = 1 + static_cast<int>(rng() % 4);
            for (int k = 0; k < flips; ++k) {
                // A third of the flips land in the header or the
                // first record.
                const std::size_t span =
                    rng() % 3 == 0 ? kFirstRecordAt + 24 : bytes.size();
                bytes[rng() % span] ^=
                    static_cast<char>(1 + rng() % 255);
            }
        }
        {
            std::ofstream out(path_, std::ios::binary | std::ios::trunc);
            out.write(bytes.data(),
                      static_cast<std::streamsize>(bytes.size()));
        }
        Trace t;
        std::string err;
        if (!readTrace(path_, &t, &err)) {
            EXPECT_FALSE(err.empty()) << "mutant " << m;
            ++rejected;
            continue;
        }
        ++accepted;
        const TraceStats stats = computeStats(t);
        EXPECT_EQ(stats.instructions, t.size()) << "mutant " << m;
        TwoBitPredictor meter(t.numStatic);
        EXPECT_LE(measureAccuracy(t, meter).accuracy, 1.0);
        for (const ModelKind kind : {ModelKind::EE, ModelKind::SP,
                                     ModelKind::DEE, ModelKind::Oracle}) {
            TwoBitPredictor pred(t.numStatic);
            const SimResult r = runModel(kind, t, nullptr, pred, 16);
            EXPECT_EQ(r.instructions, t.size())
                << "mutant " << m << " " << modelName(kind);
        }
    }
    // Both outcomes occur, so neither half of the contract is vacuous.
    EXPECT_GT(rejected, 0);
    EXPECT_GT(accepted, 0);
}

TEST_F(TraceIoTest, CompactStoreIsLosslessOnRandomRecords)
{
    // Sids repeat with different ops and flags; non-memory ops carry
    // addresses and some loads carry address 0.
    std::mt19937_64 rng(7);
    auto reg = [&] {
        return rng() % 5 == 0 ? kNoReg
                              : static_cast<RegId>(rng() % kNumRegs);
    };
    std::vector<TraceRecord> expect(100'000);
    for (TraceRecord &r : expect) {
        r.sid = static_cast<StaticId>(rng() % 64);
        r.block = static_cast<BlockId>(rng() % 16);
        r.op = static_cast<Opcode>(
            rng() % (static_cast<unsigned>(Opcode::Nop) + 1));
        r.rd = reg();
        r.rs1 = reg();
        r.rs2 = reg();
        r.memAddr = rng() % 3 == 0 ? 0 : rng();
        r.isBranch = rng() % 2 == 0;
        r.taken = rng() % 2 == 0;
        r.backward = rng() % 2 == 0;
    }
    Trace t;
    t.numStatic = 64;
    for (const TraceRecord &r : expect)
        t.records.push_back(r);
    ASSERT_EQ(t.size(), expect.size());
    EXPECT_LT(t.records.entries().size(), expect.size());

    auto expectAll = [&](const Trace &u, const char *how) {
        ASSERT_EQ(u.size(), expect.size()) << how;
        for (std::size_t i = 0; i < expect.size(); ++i)
            ASSERT_TRUE(sameRecord(u[i], expect[i])) << how << " " << i;
        std::size_t i = 0;
        for (const TraceRecord &r : u.records)
            ASSERT_TRUE(sameRecord(r, expect[i++])) << how << " " << i;
        EXPECT_EQ(i, expect.size()) << how;
        EXPECT_TRUE(sameRecord(u.records.back(), expect.back())) << how;
    };
    expectAll(t, "operator[]");
    const Trace copy = t;
    expectAll(copy, "copy");
    Trace moved = std::move(t);
    expectAll(moved, "move");

    writeTrace(moved, path_);
    Trace read;
    std::string err;
    ASSERT_TRUE(readTrace(path_, &read, &err)) << err;
    expectAll(read, "file");
}

TEST(RecordStore, VectorStyleApi)
{
    RecordStore store;
    store = {alu(0), branch(1, true)};
    EXPECT_EQ(store.size(), 2u);
    EXPECT_TRUE(store.back().taken);
    store.reserve(100);
    EXPECT_GE(store.capacity(), 100u);
    store.push_back(alu(0)); // reuses the first entry
    EXPECT_EQ(store.entries().size(), 2u);
    store.shrink_to_fit();
    EXPECT_EQ(store.capacity(), 3u);
    store.clear();
    EXPECT_TRUE(store.empty());
    EXPECT_TRUE(store.entries().empty());
}

TEST(RecordStore, WidensItsIdsAt256And65536Entries)
{
    // Records over a growing set of tuples, one sid each: under 256
    // entries (1-byte ids) over several id chunks, then past 256 entries
    // (2 bytes), then past 65,536 (4 bytes). A branch tuple makes an
    // entry per outcome. Every record must read back unchanged after
    // each re-encoding, and the widths change exactly at the edges.
    const auto tuple = [](std::uint32_t k, std::uint64_t i) {
        TraceRecord r = k % 5 == 4 ? branch(k, i % 3 == 0, k % 2 == 0)
                                   : alu(k);
        r.block = k / 7;
        if (k % 5 == 1) {
            r.op = Opcode::Load;
            r.memAddr = 8 * (i % 1000);
        }
        return r;
    };
    RecordStore store;
    std::vector<TraceRecord> expect;
    const auto append = [&](std::uint32_t k) {
        const TraceRecord r = tuple(k, expect.size());
        store.push_back(r);
        expect.push_back(r);
    };
    const auto expectAll = [&](unsigned width, const char *phase) {
        EXPECT_EQ(store.idWidth(), width) << phase;
        ASSERT_EQ(store.size(), expect.size()) << phase;
        for (std::size_t i = 0; i < expect.size(); ++i) {
            ASSERT_TRUE(sameRecord(store[i], expect[i]))
                << phase << " record " << i;
            ASSERT_EQ(store.entries()[store.id(i)].sid, expect[i].sid)
                << phase << " record " << i;
        }
    };

    for (std::uint64_t i = 0; i < 150'000; ++i)
        append(static_cast<std::uint32_t>(i % 200));
    ASSERT_LE(store.entries().size(), 256u);
    expectAll(1, "under 256 entries");
    for (std::uint32_t k = 200; store.entries().size() < 256; ++k)
        append(k);
    EXPECT_EQ(store.idWidth(), 1u) << "256 entries fit a byte";
    for (std::uint32_t k = 0; k < 1000; ++k)
        append(k);
    EXPECT_GT(store.entries().size(), 256u);
    expectAll(2, "past 256 entries");

    std::uint32_t k = 1000;
    while (store.entries().size() < 65'536)
        append(k++);
    EXPECT_EQ(store.idWidth(), 2u) << "65,536 entries fit two bytes";
    for (std::uint32_t n = 0; n < 4'000; ++n)
        append(k++);
    EXPECT_GT(store.entries().size(), 65'536u);
    expectAll(4, "past 65,536 entries");
    EXPECT_GE(store.capacity(), store.size());
}

TEST(RecordStore, ConcurrentReadersSeeTheSameRecords)
{
    const BenchmarkInstance inst = makeInstance(WorkloadId::Xlisp, 1);
    const Trace &trace = inst.trace;
    std::uint64_t expect = 0;
    for (std::size_t i = 0; i < trace.size(); ++i)
        expect = mixRecord(expect, trace[i]);

    constexpr int kThreads = 8;
    std::vector<std::uint64_t> by_index(kThreads, 0);
    std::vector<std::uint64_t> by_range(kThreads, 0);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int k = 0; k < kThreads; ++k) {
        threads.emplace_back([&, k] {
            start.arrive_and_wait();
            std::uint64_t h = 0;
            for (std::size_t i = 0; i < trace.size(); ++i)
                h = mixRecord(h, trace.records[i]);
            by_index[k] = h;
            h = 0;
            for (const TraceRecord &r : trace.records)
                h = mixRecord(h, r);
            by_range[k] = h;
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (int k = 0; k < kThreads; ++k) {
        EXPECT_EQ(by_index[k], expect) << "thread " << k;
        EXPECT_EQ(by_range[k], expect) << "thread " << k;
    }
}

/**
 * Checks that every record of @p trace, captured from @p program,
 * agrees with its static instruction, and that capture changes nothing
 * the program computes.
 */
void
expectCaptureAgrees(const Program &program, const Trace &trace,
                    const std::string &name)
{
    ASSERT_EQ(trace.numStatic, program.numInstrs());
    std::uint64_t mem_ops = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const TraceRecord rec = trace[i];
        const Instruction &ins = program.instr(rec.sid);
        const BlockId block = program.locate(rec.sid).first;
        const OpClass cls = opClass(ins.op);
        ASSERT_EQ(rec.op, ins.op) << name << " " << i;
        ASSERT_EQ(rec.rd, ins.dest()) << name << " " << i;
        ASSERT_EQ(rec.rs1, ins.rs1) << name << " " << i;
        ASSERT_EQ(rec.rs2, ins.rs2) << name << " " << i;
        ASSERT_EQ(rec.block, block) << name << " " << i;
        ASSERT_EQ(rec.isBranch, cls == OpClass::CondBranch)
            << name << " " << i;
        ASSERT_EQ(rec.backward, rec.isBranch && ins.target <= block)
            << name << " " << i;
        if (cls == OpClass::Load || cls == OpClass::Store)
            ++mem_ops;
        else
            ASSERT_EQ(rec.memAddr, 0u) << name << " " << i;
    }
    EXPECT_GT(mem_ops, 0u) << name;

    const Interpreter interp(program);
    const ExecResult with = interp.run(50'000'000, true);
    const ExecResult without = interp.run(50'000'000, false);
    EXPECT_EQ(with.steps, trace.size()) << name;
    EXPECT_EQ(without.steps, with.steps) << name;
    EXPECT_EQ(without.halted, with.halted) << name;
    EXPECT_EQ(without.state.regs, with.state.regs) << name;
    EXPECT_EQ(without.state.memory, with.state.memory) << name;
    EXPECT_TRUE(without.trace.empty()) << name;
}

TEST(CapturedRecords, AgreeWithTheirProgram)
{
    for (const int scale : {1, 4}) {
        for (const WorkloadId id : allWorkloads()) {
            const BenchmarkInstance inst = makeInstance(id, scale);
            EXPECT_EQ(inst.trace.records.idWidth(), 1u) << inst.name;
            expectCaptureAgrees(inst.program, inst.trace, inst.name);
        }
    }
}

TEST(CapturedRecords, TwoByteIdsAgreeWithTheirProgram)
{
    // 60 blocks of five instructions in a loop: 300 static
    // instructions and 360 (instruction, outcome) entries, past what
    // 1-byte ids hold, over several id chunks.
    std::string src = "B0:\n    li r1, 0\n    li r2, 500\n"
                      "    li r3, 4096\n";
    constexpr int kBlocks = 60;
    for (int k = 0; k < kBlocks; ++k) {
        src += "B" + std::to_string(k + 1) + ":\n";
        src += "    addi r4, r4, " + std::to_string(2 * k + 1) + "\n";
        src += "    lw r5, " + std::to_string(8 * k) + "(r3)\n";
        src += "    sw r4, " + std::to_string(8 * (k + 1)) + "(r3)\n";
        src += "    andi r6, r4, " + std::to_string(1 << (k % 3)) + "\n";
        src += "    beq r6, r0, B" + std::to_string(k + 2) + "\n";
    }
    src += "B" + std::to_string(kBlocks + 1) +
           ":\n    addi r1, r1, 1\n    blt r1, r2, B1\n";
    src += "B" + std::to_string(kBlocks + 2) + ":\n    halt\n";
    const Program program = parseAssembly(src);
    ASSERT_GT(program.numInstrs(), 256u);
    const ExecResult run = Interpreter(program).run(50'000'000, true);
    ASSERT_TRUE(run.halted);
    EXPECT_EQ(run.trace.records.idWidth(), 2u);
    EXPECT_GT(run.trace.records.entries().size(), 256u);
    EXPECT_GT(run.trace.size(), 2 * RecordStore::kChunkRecords);
    expectCaptureAgrees(program, run.trace, "300 static instructions");
}

TEST(CapturedRecords, StoreHoldsAtMostTwoAndAHalfBytesPerRecord)
{
    for (const int scale : {4, 32}) {
        for (const WorkloadId id : allWorkloads()) {
            const ExecResult run = Interpreter(makeWorkload(id, scale))
                                       .run(50'000'000, true);
            ASSERT_TRUE(run.halted) << workloadName(id) << " " << scale;
            const double per_record =
                static_cast<double>(run.trace.records.bytes()) /
                static_cast<double>(run.trace.size());
            EXPECT_LE(per_record, 2.5)
                << workloadName(id) << " at scale " << scale;
        }
    }
}

} // namespace
} // namespace dee
