/**
 * @file
 * Tests for the Levo machine model (src/levo): differential functional
 * correctness against the sequential interpreter, timing sanity, DEE
 * path coverage, window refills, loop capture, and configuration
 * effects (the paper's Section 4 machine).
 */

#include <gtest/gtest.h>

#include <array>
#include <limits>

#include "exec/interp.hh"
#include "isa/assembler.hh"
#include "isa/builder.hh"
#include "levo/levo.hh"
#include "workloads/random_program.hh"
#include "workloads/workloads.hh"

namespace dee
{
namespace
{

/** Runs both machines and checks the final architectural state. */
void
expectStateMatch(const Program &p, const LevoConfig &config,
                 std::uint64_t max_instrs = 2'000'000)
{
    Cfg cfg(p);
    Interpreter interp(p);
    const ExecResult ref = interp.run(max_instrs, false);
    LevoMachine machine(p, cfg, config);
    const LevoResult out = machine.run(max_instrs);

    EXPECT_EQ(out.halted, ref.halted);
    EXPECT_EQ(out.instructions, ref.steps);
    for (int r = 0; r < kNumRegs; ++r)
        EXPECT_EQ(out.finalState.regs[r], ref.state.regs[r])
            << "r" << r;
    EXPECT_EQ(out.finalState.memory.size(), ref.state.memory.size());
    for (const auto &[addr, val] : ref.state.memory)
        EXPECT_EQ(out.finalState.readMem(addr), val) << "addr " << addr;
}

Program
sumLoop(std::int64_t n)
{
    ProgramBuilder pb;
    const BlockId init = pb.newBlock();
    const BlockId body = pb.newBlock();
    const BlockId done = pb.newBlock();
    pb.switchTo(init);
    pb.loadImm(1, 0);
    pb.loadImm(2, n);
    pb.loadImm(3, 0);
    pb.switchTo(body);
    pb.aluImm(Opcode::AddI, 1, 1, 1);
    pb.alu(Opcode::Add, 3, 3, 1);
    pb.branch(Opcode::BranchLt, 1, 2, body);
    pb.switchTo(done);
    pb.store(3, kZeroReg, 64);
    pb.halt();
    return pb.build();
}

TEST(LevoFunctional, SumLoopMatchesInterpreter)
{
    expectStateMatch(sumLoop(50), LevoConfig{});
}

TEST(LevoFunctional, TinyIqStillCorrect)
{
    LevoConfig config;
    config.iqRows = 4;
    config.columns = 2;
    config.deePaths = 0;
    expectStateMatch(sumLoop(50), config);
}

TEST(LevoFunctional, EmptyTargetBlockMatchesInterpreter)
{
    // b0: li r1,3; j b1 / b1: (empty) / b2: addi r1,r1,-1;
    // bne r1,r0,b1 / b3: halt. Every transfer lands on the empty b1
    // and falls through to b2, as in the interpreter.
    ProgramBuilder pb;
    const BlockId b0 = pb.newBlock();
    const BlockId b1 = pb.newBlock();
    const BlockId b2 = pb.newBlock();
    const BlockId b3 = pb.newBlock();
    pb.switchTo(b0);
    pb.loadImm(1, 3);
    pb.jump(b1);
    pb.switchTo(b2);
    pb.aluImm(Opcode::AddI, 1, 1, -1);
    pb.branch(Opcode::BranchNe, 1, kZeroReg, b1);
    pb.switchTo(b3);
    pb.halt();
    const Program p = pb.build();
    EXPECT_EQ(Interpreter(p).run().steps, 9u);
    expectStateMatch(p, LevoConfig{});
}

TEST(LevoFunctional, DivOverflowWrapsAsInTheInterpreter)
{
    // INT64_MIN / -1, which trapped (SIGFPE) before it wrapped.
    const Program p = parseAssembly(R"(B0:
    li r1, 1
    shli r1, r1, 63
    li r2, 0
    addi r2, r2, -1
    div r3, r1, r2
    halt
)");
    expectStateMatch(p, LevoConfig{});
    const LevoResult r = LevoMachine(p, Cfg(p), LevoConfig{}).run();
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(r.finalState.regs[3], std::numeric_limits<std::int64_t>::min());
}

class LevoWorkloads : public ::testing::TestWithParam<WorkloadId>
{
};

TEST_P(LevoWorkloads, StateMatchesInterpreter)
{
    expectStateMatch(makeWorkload(GetParam(), 1), LevoConfig{},
                     5'000'000);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, LevoWorkloads, ::testing::ValuesIn(allWorkloads()),
    [](const ::testing::TestParamInfo<WorkloadId> &info) {
        return std::string(workloadName(info.param));
    });

class LevoRandom : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(LevoRandom, StateMatchesInterpreter)
{
    Rng rng(GetParam());
    expectStateMatch(makeRandomProgram(rng), LevoConfig{});
}

TEST_P(LevoRandom, SmallMachineStateMatches)
{
    Rng rng(GetParam());
    LevoConfig config;
    config.iqRows = 8;
    config.columns = 2;
    config.deePaths = 1;
    expectStateMatch(makeRandomProgram(rng), config);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LevoRandom,
                         ::testing::Values(3, 7, 11, 19, 42, 101, 202,
                                           303));

TEST(LevoTiming, IpcAboveOneOnParallelLoop)
{
    // The captured sum loop has cross-iteration ILP through renaming:
    // Levo should beat the sequential machine.
    Program p = sumLoop(500);
    Cfg cfg(p);
    LevoMachine machine(p, cfg, LevoConfig{});
    const LevoResult r = machine.run();
    EXPECT_GT(r.ipc, 1.0);
    EXPECT_LE(r.ipc, static_cast<double>(LevoConfig{}.iqRows));
}

TEST(LevoTiming, CyclesAtLeastDataflowHeight)
{
    // A strictly serial chain cannot run faster than one op per cycle.
    ProgramBuilder pb;
    pb.newBlock();
    pb.loadImm(1, 1);
    for (int i = 0; i < 50; ++i)
        pb.aluImm(Opcode::AddI, 1, 1, 1);
    pb.halt();
    Program p = pb.build();
    Cfg cfg(p);
    LevoMachine machine(p, cfg, LevoConfig{});
    const LevoResult r = machine.run();
    EXPECT_GE(r.cycles, 51u);
    EXPECT_EQ(r.finalState.regs[1], 51);
}

TEST(LevoTiming, PerRowPeSerializesInstances)
{
    // One static instruction iterated m+k times: the row's single PE
    // bounds throughput to one instance per cycle.
    Program p = sumLoop(100);
    Cfg cfg(p);
    LevoMachine machine(p, cfg, LevoConfig{});
    const LevoResult r = machine.run();
    // 100 iterations of the same 3 rows: at least ~100 cycles.
    EXPECT_GE(r.cycles, 100u);
}

TEST(LevoStats, PendingBranchesAndUtilization)
{
    Program p = sumLoop(200);
    Cfg cfg(p);
    LevoMachine machine(p, cfg, LevoConfig{});
    const LevoResult r = machine.run();
    EXPECT_GE(r.peakPendingBranches, 1u);
    EXPECT_LE(r.peakPendingBranches, r.branches);
    EXPECT_GT(r.meanRowUtilization, 0.0);
    EXPECT_LE(r.meanRowUtilization, 1.0)
        << "one PE per row bounds per-row throughput";
}

TEST(LevoStats, LoopCaptureDetected)
{
    Program p = sumLoop(100);
    Cfg cfg(p);
    LevoMachine machine(p, cfg, LevoConfig{});
    const LevoResult r = machine.run();
    // The whole 6-instruction loop fits a 32-row IQ.
    EXPECT_GT(r.backwardTakenBranches, 90u);
    EXPECT_DOUBLE_EQ(r.loopCaptureFraction(), 1.0);
    EXPECT_EQ(r.refills, 0u);
}

TEST(LevoStats, UncapturedLoopRefills)
{
    // A loop body longer than the IQ forces linear-mode refills.
    ProgramBuilder pb;
    const BlockId init = pb.newBlock();
    const BlockId body = pb.newBlock();
    const BlockId done = pb.newBlock();
    pb.switchTo(init);
    pb.loadImm(1, 0);
    pb.loadImm(2, 20);
    pb.switchTo(body);
    for (int i = 0; i < 40; ++i) // 40 > 16 rows
        pb.aluImm(Opcode::AddI, 3, 3, 1);
    pb.aluImm(Opcode::AddI, 1, 1, 1);
    pb.branch(Opcode::BranchLt, 1, 2, body);
    pb.switchTo(done);
    pb.halt();
    Program p = pb.build();
    Cfg cfg(p);
    LevoConfig config;
    config.iqRows = 16;
    LevoMachine machine(p, cfg, config);
    const LevoResult r = machine.run();
    EXPECT_GT(r.refills, 19u);
    EXPECT_DOUBLE_EQ(r.loopCaptureFraction(), 0.0);
    EXPECT_EQ(r.finalState.regs[3], 800);
}

TEST(LevoStats, VePredicationOnForwardBranches)
{
    // if (i & 1) skip-then, inside a loop: taken forward branches must
    // virtually execute the skipped rows.
    ProgramBuilder pb;
    const BlockId init = pb.newBlock();
    const BlockId head = pb.newBlock();
    const BlockId then_blk = pb.newBlock();
    const BlockId latch = pb.newBlock();
    const BlockId done = pb.newBlock();
    pb.switchTo(init);
    pb.loadImm(1, 0);
    pb.loadImm(2, 50);
    pb.switchTo(head);
    pb.aluImm(Opcode::AndI, 3, 1, 1);
    pb.branch(Opcode::BranchNe, 3, kZeroReg, latch); // skip on odd
    pb.switchTo(then_blk);
    pb.aluImm(Opcode::AddI, 4, 4, 1);
    pb.switchTo(latch);
    pb.aluImm(Opcode::AddI, 1, 1, 1);
    pb.branch(Opcode::BranchLt, 1, 2, head);
    pb.switchTo(done);
    pb.halt();
    Program p = pb.build();
    Cfg cfg(p);
    LevoMachine machine(p, cfg, LevoConfig{});
    const LevoResult r = machine.run();
    EXPECT_GT(r.vePredications, 20u);
    EXPECT_EQ(r.finalState.regs[4], 25);
}

TEST(LevoDee, CoverageReducesCycles)
{
    // An unpredictable-branch loop: DEE paths should absorb most
    // mispredictions and beat the no-DEE machine.
    ProgramBuilder pb;
    const BlockId init = pb.newBlock();
    const BlockId head = pb.newBlock();
    const BlockId then_blk = pb.newBlock();
    const BlockId latch = pb.newBlock();
    const BlockId done = pb.newBlock();
    pb.switchTo(init);
    pb.loadImm(1, 0);
    pb.loadImm(2, 400);
    pb.loadImm(31, 0x9e3779b97f4a7c15ll);
    pb.switchTo(head);
    pb.alu(Opcode::Mul, 5, 1, 31);
    pb.aluImm(Opcode::ShrI, 5, 5, 33);
    pb.aluImm(Opcode::AndI, 5, 5, 1); // pseudo-random bit
    pb.branch(Opcode::BranchNe, 5, kZeroReg, latch);
    pb.switchTo(then_blk);
    pb.aluImm(Opcode::AddI, 4, 4, 3);
    pb.switchTo(latch);
    pb.aluImm(Opcode::AddI, 1, 1, 1);
    pb.branch(Opcode::BranchLt, 1, 2, head);
    pb.switchTo(done);
    pb.halt();
    Program p = pb.build();
    Cfg cfg(p);

    LevoConfig with_dee;
    with_dee.deePaths = 3;
    LevoConfig without_dee = with_dee;
    without_dee.deePaths = 0;

    const LevoResult a = LevoMachine(p, cfg, with_dee).run();
    const LevoResult b = LevoMachine(p, cfg, without_dee).run();
    EXPECT_GT(a.deeCovered, 0u);
    EXPECT_EQ(b.deeCovered, 0u);
    EXPECT_LT(a.cycles, b.cycles);
    // Functional result identical either way.
    EXPECT_EQ(a.finalState.regs[4], b.finalState.regs[4]);
}

TEST(LevoConfigTest, TransistorEstimateScales)
{
    LevoConfig base; // 32x8, 3 DEE paths
    const double base_m = base.transistorEstimateMillions();
    EXPECT_GT(base_m, 10.0);

    LevoConfig big = base;
    big.deePaths = 11;
    big.deeColumns = 2;
    EXPECT_NEAR(big.transistorEstimateMillions() - base_m,
                11.0 * 2.0 - 3.0, 1e-9)
        << "each extra 1-column DEE path ~ 1M transistors";
}

TEST(LevoConfigTest, RejectsBadGeometry)
{
    Program p = sumLoop(5);
    Cfg cfg(p);
    LevoConfig bad;
    bad.iqRows = 0;
    EXPECT_EXIT(LevoMachine(p, cfg, bad), ::testing::ExitedWithCode(1),
                "at least 1x1");
}

TEST(LevoPredictors, AlternativePredictorsWork)
{
    Program p = makeWorkload(WorkloadId::Compress, 1);
    Cfg cfg(p);
    for (const char *name : {"2bit", "pap", "gshare", "oracle"}) {
        LevoConfig config;
        config.predictor = name;
        LevoMachine machine(p, cfg, config);
        const LevoResult r = machine.run(200'000);
        EXPECT_GT(r.ipc, 0.5) << name;
        if (std::string(name) == "oracle") {
            EXPECT_EQ(r.mispredicted, 0u);
        }
    }
}

TEST(LevoPredictors, OracleBeatsTwoBit)
{
    Program p = makeWorkload(WorkloadId::Cc1, 1);
    Cfg cfg(p);
    LevoConfig two_bit;
    LevoConfig oracle = two_bit;
    oracle.predictor = "oracle";
    const LevoResult a = LevoMachine(p, cfg, two_bit).run(500'000);
    const LevoResult b = LevoMachine(p, cfg, oracle).run(500'000);
    EXPECT_LE(b.cycles, a.cycles);
}

// --- Golden pin ---------------------------------------------------------

/** One pinned run: every LevoResult field render() prints, the exact
 *  loop-capture counts behind its fraction, and the account's slots
 *  per class (SlotClass order). */
struct GoldenRun
{
    const char *render;
    std::uint64_t captured;
    std::uint64_t backward;
    std::array<std::uint64_t, obs::kNumSlotClasses> slots;
};

/** The 32x8 machine with 0, 3 one-column and 11 two-column DEE paths
 *  (perfbench's levo_sweep design points). */
std::vector<LevoConfig>
goldenPoints()
{
    LevoConfig none;
    none.deePaths = 0;
    LevoConfig three;
    three.deePaths = 3;
    three.deeColumns = 1;
    LevoConfig eleven;
    eleven.deePaths = 11;
    eleven.deeColumns = 2;
    return {none, three, eleven};
}

/** FNV-1a, 64-bit. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Runs @p config on @p p, checks it against the interpreter and
 *  @p want, and returns the result. */
LevoResult
expectGolden(const Program &p, const LevoConfig &config,
             const GoldenRun &want, const std::string &what)
{
    SCOPED_TRACE(what);
    const LevoResult r = LevoMachine(p, Cfg(p), config).run();
    const ExecResult ref = Interpreter(p).run(10'000'000, false);
    EXPECT_EQ(r.halted, ref.halted);
    EXPECT_EQ(r.instructions, ref.steps);
    EXPECT_EQ(r.finalState.regs, ref.state.regs);
    EXPECT_EQ(r.finalState.memory, ref.state.memory);

    EXPECT_EQ(r.render(), want.render);
    EXPECT_EQ(r.capturedLoopBranches, want.captured);
    EXPECT_EQ(r.backwardTakenBranches, want.backward);
    for (std::size_t c = 0; c < obs::kNumSlotClasses; ++c) {
        const auto cls = static_cast<obs::SlotClass>(c);
        EXPECT_EQ(r.account.slots(cls), want.slots[c])
            << obs::slotClassName(cls);
    }
    return r;
}

TEST(LevoGolden, EveryFieldMatchesParent)
{
    // Scale-1 workloads (allWorkloads() order) x goldenPoints(). A
    // change to Levo's timing rules must re-pin these on purpose;
    // a refactor must leave every one of them as it is.
    const GoldenRun kRuns[5][3] = {
        {
            {"instructions=36636 cycles=17107 ipc=2.14158 "
             "branches=4506 mispredicted=551 deeCovered=0 "
             "refills=1800 columnStalls=0 vePredications=6873 "
             "loopCapture=0.0654886 peakPending=2 "
             "rowUtil=0.0669244 waste=0.485948 useful=0.0669244 "
             "halted",
             63, 962,
             {36636, 34633, 0, 0, 111183, 0, 364972}},
            {"instructions=36636 cycles=15471 ipc=2.36804 "
             "branches=4506 mispredicted=551 deeCovered=551 "
             "refills=1800 columnStalls=0 vePredications=6873 "
             "loopCapture=0.0654886 peakPending=3 "
             "rowUtil=0.0740014 waste=0 useful=0.0740014 halted",
             63, 962,
             {36636, 0, 0, 0, 103959, 16870, 337607}},
            {"instructions=36636 cycles=15471 ipc=2.36804 "
             "branches=4506 mispredicted=551 deeCovered=551 "
             "refills=1800 columnStalls=0 vePredications=6873 "
             "loopCapture=0.0654886 peakPending=3 "
             "rowUtil=0.0740014 waste=0 useful=0.0740014 halted",
             63, 962,
             {36636, 0, 0, 0, 103959, 16870, 337607}},
        },
        {
            {"instructions=75167 cycles=17660 ipc=4.25634 "
             "branches=9600 mispredicted=1355 deeCovered=0 "
             "refills=2 columnStalls=78 vePredications=9142 "
             "loopCapture=0.999687 peakPending=3 rowUtil=0.133011 "
             "waste=0.527362 useful=0.133011 halted",
             3198, 3199,
             {75167, 83870, 0, 4446, 128, 0, 401509}},
            {"instructions=75167 cycles=5746 ipc=13.0816 "
             "branches=9600 mispredicted=1355 deeCovered=1355 "
             "refills=2 columnStalls=585 vePredications=9142 "
             "loopCapture=0.999687 peakPending=3 rowUtil=0.408801 "
             "waste=0 useful=0.408801 halted",
             3198, 3199,
             {75167, 0, 0, 31244, 126, 19565, 57770}},
            {"instructions=75167 cycles=5746 ipc=13.0816 "
             "branches=9600 mispredicted=1355 deeCovered=1355 "
             "refills=2 columnStalls=585 vePredications=9142 "
             "loopCapture=0.999687 peakPending=3 rowUtil=0.408801 "
             "waste=0 useful=0.408801 halted",
             3198, 3199,
             {75167, 0, 0, 31244, 126, 19565, 57770}},
        },
        {
            {"instructions=128752 cycles=43504 ipc=2.95954 "
             "branches=11443 mispredicted=503 deeCovered=0 "
             "refills=4863 columnStalls=0 vePredications=13426 "
             "loopCapture=0 peakPending=3 rowUtil=0.0924857 "
             "waste=0.188371 useful=0.0924857 halted",
             0, 2251,
             {128752, 29882, 0, 0, 290710, 0, 942784}},
            {"instructions=128752 cycles=42225 ipc=3.04919 "
             "branches=11443 mispredicted=503 deeCovered=281 "
             "refills=4863 columnStalls=0 vePredications=13426 "
             "loopCapture=0 peakPending=3 rowUtil=0.0952872 "
             "waste=0.0920681 useful=0.0952872 halted",
             0, 2251,
             {128752, 13056, 0, 0, 284070, 8296, 917026}},
            {"instructions=128752 cycles=42225 ipc=3.04919 "
             "branches=11443 mispredicted=503 deeCovered=281 "
             "refills=4863 columnStalls=0 vePredications=13426 "
             "loopCapture=0 peakPending=3 rowUtil=0.0952872 "
             "waste=0.0920681 useful=0.0952872 halted",
             0, 2251,
             {128752, 13056, 0, 0, 284070, 8296, 917026}},
        },
        {
            {"instructions=109993 cycles=33443 ipc=3.28897 "
             "branches=8103 mispredicted=754 deeCovered=0 "
             "refills=5105 columnStalls=0 vePredications=9313 "
             "loopCapture=0 peakPending=3 rowUtil=0.10278 "
             "waste=0.291574 useful=0.10278 halted",
             0, 2552,
             {109993, 45271, 0, 0, 298568, 0, 616344}},
            {"instructions=109993 cycles=30866 ipc=3.56357 "
             "branches=8103 mispredicted=754 deeCovered=750 "
             "refills=5105 columnStalls=0 vePredications=9313 "
             "loopCapture=0 peakPending=4 rowUtil=0.111361 "
             "waste=0.00221341 useful=0.111361 halted",
             0, 2552,
             {109993, 244, 0, 0, 288650, 22028, 566797}},
            {"instructions=109993 cycles=30854 ipc=3.56495 "
             "branches=8103 mispredicted=754 deeCovered=754 "
             "refills=5105 columnStalls=0 vePredications=9313 "
             "loopCapture=0 peakPending=5 rowUtil=0.111405 waste=0 "
             "useful=0.111405 halted",
             0, 2552,
             {109993, 0, 0, 0, 288554, 22152, 566629}},
        },
        {
            {"instructions=339243 cycles=83925 ipc=4.04222 "
             "branches=53570 mispredicted=5888 deeCovered=0 "
             "refills=3399 columnStalls=99 vePredications=77472 "
             "loopCapture=0.871083 peakPending=4 rowUtil=0.126319 "
             "waste=0.516266 useful=0.126319 halted",
             11480, 13179,
             {339243, 362058, 0, 1287, 208060, 0, 1774952}},
            {"instructions=339243 cycles=60323 ipc=5.62378 "
             "branches=53570 mispredicted=5888 deeCovered=3802 "
             "refills=3399 columnStalls=348 vePredications=77472 "
             "loopCapture=0.871083 peakPending=4 rowUtil=0.175743 "
             "waste=0.273784 useful=0.175743 halted",
             11480, 13179,
             {339243, 127895, 0, 7337, 203845, 72030, 1179986}},
            {"instructions=339243 cycles=43877 ipc=7.73168 "
             "branches=53570 mispredicted=5888 deeCovered=5873 "
             "refills=3399 columnStalls=1609 vePredications=77472 "
             "loopCapture=0.871083 peakPending=4 rowUtil=0.241615 "
             "waste=0.00277788 useful=0.241615 halted",
             11480, 13179,
             {339243, 945, 0, 27661, 203277, 104609, 728329}},
        },
    };
    const std::vector<WorkloadId> ids = allWorkloads();
    ASSERT_EQ(ids.size(), 5u);
    const std::vector<LevoConfig> points = goldenPoints();
    for (std::size_t w = 0; w < ids.size(); ++w) {
        const Program p = makeWorkload(ids[w], 1);
        for (std::size_t c = 0; c < points.size(); ++c) {
            expectGolden(p, points[c], kRuns[w][c],
                         std::string(workloadName(ids[w])) + " point " +
                             std::to_string(c));
        }
    }

    // The speculation profile, through a 64-bit hash of its JSON.
    // Profiling changes no timing, so the run matches its unprofiled
    // pin (compress, 3 one-column DEE paths).
    ASSERT_EQ(ids[1], WorkloadId::Compress);
    LevoConfig profiled = points[1];
    profiled.gatherProfile = true;
    const LevoResult r =
        expectGolden(makeWorkload(WorkloadId::Compress, 1), profiled,
                     kRuns[1][1], "compress profiled");
    EXPECT_FALSE(r.profile.empty());
    EXPECT_EQ(fnv1a(r.profile.toJson().dump()), 3679797326643712614ull);
}

} // namespace
} // namespace dee
