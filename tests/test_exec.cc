/**
 * @file
 * Unit tests for src/exec: the executor's ALU, memory and branch
 * semantics, interpreter control flow, trace capture, architectural
 * state, and the interpreter against its executable specification
 * (tests/reference_interp.cc).
 */

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>
#include <tuple>

#include "common/random.hh"
#include "exec/interp.hh"
#include "isa/assembler.hh"
#include "isa/builder.hh"
#include "reference_interp.hh"
#include "workloads/random_program.hh"
#include "workloads/workloads.hh"

namespace dee
{
namespace
{

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();

/** Decodes @p inst (block 0, then a halt block) and executes it once
 *  on @p regs. */
StepOutcome
executeOnce(const Instruction &inst, RegFile &regs)
{
    Program p;
    p.addBlock(BasicBlock{{inst}});
    p.addBlock(BasicBlock{{Instruction{Opcode::Halt}}});
    WordMemory mem;
    return executeStep(decodeProgram(p)[0], regs, mem);
}

/** `op r3, r1, r2` with r1 = @p a and r2 = @p b; returns r3. */
std::int64_t
alu(Opcode op, std::int64_t a, std::int64_t b)
{
    RegFile regs{};
    regs[1] = a;
    regs[2] = b;
    executeOnce(Instruction{op, 3, 1, 2, 0, 0}, regs);
    return regs[3];
}

/** `op r1, r2, B1` with r1 = @p a and r2 = @p b; returns the outcome. */
bool
branchTaken(Opcode op, std::int64_t a, std::int64_t b)
{
    RegFile regs{};
    regs[1] = a;
    regs[2] = b;
    return executeOnce(Instruction{op, kNoReg, 1, 2, 0, 1}, regs).taken;
}

TEST(AluSemantics, Arithmetic)
{
    EXPECT_EQ(alu(Opcode::Add, 2, 3), 5);
    EXPECT_EQ(alu(Opcode::Sub, 2, 3), -1);
    EXPECT_EQ(alu(Opcode::Mul, -4, 3), -12);
    EXPECT_EQ(alu(Opcode::Div, 7, 2), 3);
    EXPECT_EQ(alu(Opcode::Div, 7, 0), 0) << "div-by-0 is 0";
}

TEST(AluSemantics, Bitwise)
{
    EXPECT_EQ(alu(Opcode::And, 0b1100, 0b1010), 0b1000);
    EXPECT_EQ(alu(Opcode::Or, 0b1100, 0b1010), 0b1110);
    EXPECT_EQ(alu(Opcode::Xor, 0b1100, 0b1010), 0b0110);
    EXPECT_EQ(alu(Opcode::Sll, 1, 4), 16);
    EXPECT_EQ(alu(Opcode::Srl, 16, 4), 1);
    EXPECT_EQ(alu(Opcode::Slt, -1, 0), 1);
    EXPECT_EQ(alu(Opcode::Slt, 0, 0), 0);
}

TEST(AluSemantics, ShiftAmountsAreMasked)
{
    EXPECT_EQ(alu(Opcode::Sll, 1, 64), 1);
    EXPECT_EQ(alu(Opcode::Srl, 2, 65), 1);
}

TEST(AluSemantics, OverflowWraps)
{
    const std::int64_t max = std::numeric_limits<std::int64_t>::max();
    EXPECT_EQ(alu(Opcode::Add, max, 1), kMin);
}

TEST(AluSemantics, DivOverflowWraps)
{
    EXPECT_EQ(alu(Opcode::Div, kMin, -1), kMin);
    EXPECT_EQ(alu(Opcode::Div, 7, -1), -7);
    EXPECT_EQ(alu(Opcode::Div, -7, 2), -3);
    EXPECT_EQ(alu(Opcode::Div, kMin, 1), kMin);
}

TEST(AluSemantics, SecondOperandIsRs2WhenNamedAndTheImmediateOtherwise)
{
    RegFile regs{};
    regs[1] = 10;
    regs[2] = 3;
    // A register-form opcode with no rs2 takes the immediate, and an
    // immediate-form opcode with an rs2 takes the register.
    executeOnce(Instruction{Opcode::Sub, 3, 1, kNoReg, 4, 0}, regs);
    EXPECT_EQ(regs[3], 6);
    executeOnce(Instruction{Opcode::AddI, 4, 1, 2, 100, 0}, regs);
    EXPECT_EQ(regs[4], 13);
    executeOnce(Instruction{Opcode::AddI, 5, 1, kZeroReg, 100, 0}, regs);
    EXPECT_EQ(regs[5], 10) << "rs2 = r0 reads 0, not the immediate";
}

TEST(AluSemantics, WritesToR0GoToTheSink)
{
    RegFile regs{};
    regs[1] = 5;
    executeOnce(Instruction{Opcode::Add, kZeroReg, 1, 1, 0, 0}, regs);
    EXPECT_EQ(regs[kZeroReg], 0);
    EXPECT_EQ(regs[kWriteSink], 10);
}

TEST(BranchSemantics, AllConditions)
{
    EXPECT_TRUE(branchTaken(Opcode::BranchEq, 3, 3));
    EXPECT_FALSE(branchTaken(Opcode::BranchEq, 3, 4));
    EXPECT_TRUE(branchTaken(Opcode::BranchNe, 3, 4));
    EXPECT_TRUE(branchTaken(Opcode::BranchLt, -1, 0));
    EXPECT_FALSE(branchTaken(Opcode::BranchLt, 0, 0));
    EXPECT_TRUE(branchTaken(Opcode::BranchGe, 0, 0));
}

TEST(WordMemory, NumbersWordsOnTheirFirstStore)
{
    WordMemory mem;
    EXPECT_EQ(mem.find(0xdeadbeef), 0u) << "a load numbers nothing";
    EXPECT_EQ(mem.load(0), 0) << "a word never stored reads 0";
    const std::uint32_t a = mem.idOf(8);
    const std::uint32_t b = mem.idOf(0xdeadbeef);
    EXPECT_EQ(a, 1u);
    EXPECT_EQ(b, 2u);
    EXPECT_EQ(mem.idOf(8), a);
    EXPECT_EQ(mem.find(0xdeadbeef), b);
    EXPECT_EQ(mem.size(), 3u);
    mem.store(a, -7);
    mem.store(b, 5);
    EXPECT_EQ(mem.load(a), -7);
    std::unordered_map<std::uint64_t, std::int64_t> memory;
    mem.publish(memory);
    EXPECT_EQ(memory, (std::unordered_map<std::uint64_t, std::int64_t>{
                          {8, -7}, {0xdeadbeef, 5}}));
}

TEST(MachineState, ZeroRegisterSemantics)
{
    MachineState st;
    st.writeReg(kZeroReg, 42);
    EXPECT_EQ(st.readReg(kZeroReg), 0);
    st.writeReg(5, 42);
    EXPECT_EQ(st.readReg(5), 42);
}

TEST(MachineState, SparseMemoryDefaultsToZero)
{
    MachineState st;
    EXPECT_EQ(st.readMem(0xdeadbeef), 0);
    st.writeMem(0xdeadbeef, -7);
    EXPECT_EQ(st.readMem(0xdeadbeef), -7);
}

Program
sumLoop(std::int64_t n)
{
    // r3 = sum(1..n) via a loop; also store the result at address 100.
    ProgramBuilder pb;
    const BlockId init = pb.newBlock();
    const BlockId body = pb.newBlock();
    const BlockId done = pb.newBlock();
    pb.switchTo(init);
    pb.loadImm(1, 0);  // i
    pb.loadImm(2, n);  // limit
    pb.loadImm(3, 0);  // sum
    pb.switchTo(body);
    pb.aluImm(Opcode::AddI, 1, 1, 1);
    pb.alu(Opcode::Add, 3, 3, 1);
    pb.branch(Opcode::BranchLt, 1, 2, body);
    pb.switchTo(done);
    pb.store(3, kZeroReg, 100);
    pb.halt();
    return pb.build();
}

TEST(Interpreter, LoopComputesSum)
{
    Program p = sumLoop(10);
    Interpreter interp(p);
    ExecResult r = interp.run();
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(r.state.regs[3], 55);
    EXPECT_EQ(r.state.readMem(100), 55);
}

TEST(Interpreter, TraceLengthMatchesSteps)
{
    Program p = sumLoop(10);
    Interpreter interp(p);
    ExecResult r = interp.run();
    EXPECT_EQ(r.trace.records.size(), r.steps);
    // 3 init + 10*3 loop + store + halt = 35
    EXPECT_EQ(r.steps, 35u);
}

TEST(Interpreter, TraceBranchOutcomes)
{
    Program p = sumLoop(3);
    Interpreter interp(p);
    ExecResult r = interp.run();
    int taken = 0, not_taken = 0;
    for (const auto &rec : r.trace.records) {
        if (!rec.isBranch)
            continue;
        EXPECT_TRUE(rec.backward);
        rec.taken ? ++taken : ++not_taken;
    }
    EXPECT_EQ(taken, 2);     // two back-edges taken
    EXPECT_EQ(not_taken, 1); // final exit
}

TEST(Interpreter, TraceRecordsMemAddresses)
{
    Program p = sumLoop(2);
    Interpreter interp(p);
    ExecResult r = interp.run();
    bool saw_store = false;
    for (const auto &rec : r.trace.records) {
        if (opClass(rec.op) == OpClass::Store) {
            saw_store = true;
            EXPECT_EQ(rec.memAddr, 100u);
        }
    }
    EXPECT_TRUE(saw_store);
}

TEST(Interpreter, StepCapTruncates)
{
    Program p = sumLoop(1000000);
    Interpreter interp(p);
    ExecResult r = interp.run(100);
    EXPECT_FALSE(r.halted);
    EXPECT_EQ(r.steps, 100u);
}

TEST(Interpreter, CaptureDisabledStillComputes)
{
    Program p = sumLoop(10);
    Interpreter interp(p);
    ExecResult r = interp.run(1'000'000, false);
    EXPECT_TRUE(r.halted);
    EXPECT_TRUE(r.trace.records.empty());
    EXPECT_EQ(r.state.regs[3], 55);
}

TEST(Interpreter, ForwardBranchSkipsThen)
{
    ProgramBuilder pb;
    const BlockId b0 = pb.newBlock();
    const BlockId b1 = pb.newBlock();
    const BlockId b2 = pb.newBlock();
    pb.switchTo(b0);
    pb.loadImm(1, 1);
    pb.branch(Opcode::BranchEq, 1, 1, b2); // always taken
    pb.switchTo(b1);
    pb.loadImm(2, 99); // skipped
    pb.switchTo(b2);
    pb.halt();
    Interpreter interp(pb.build());
    ExecResult r = interp.run();
    EXPECT_EQ(r.state.regs[2], 0);
    // Forward branch: backward flag must be false.
    for (const auto &rec : r.trace.records) {
        if (rec.isBranch) {
            EXPECT_FALSE(rec.backward);
        }
    }
}

TEST(Interpreter, JumpTransfersControl)
{
    ProgramBuilder pb;
    const BlockId b0 = pb.newBlock();
    const BlockId b1 = pb.newBlock();
    const BlockId b2 = pb.newBlock();
    pb.switchTo(b0);
    pb.jump(b2);
    pb.switchTo(b1);
    pb.loadImm(2, 99); // unreachable
    pb.switchTo(b2);
    pb.halt();
    Interpreter interp(pb.build());
    ExecResult r = interp.run();
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(r.state.regs[2], 0);
    EXPECT_EQ(r.steps, 2u);
}

TEST(Interpreter, EmptyBlockFallsThrough)
{
    ProgramBuilder pb;
    const BlockId b0 = pb.newBlock();
    pb.newBlock(); // b1 left empty
    const BlockId b2 = pb.newBlock();
    pb.switchTo(b0);
    pb.loadImm(1, 7);
    pb.switchTo(b2);
    pb.halt();
    Interpreter interp(pb.build());
    ExecResult r = interp.run();
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(r.state.regs[1], 7);
}

TEST(Interpreter, NumStaticRecorded)
{
    Program p = sumLoop(2);
    Interpreter interp(p);
    ExecResult r = interp.run();
    EXPECT_EQ(r.trace.numStatic, p.numInstrs());
}

/** INT64_MIN / -1, which trapped (SIGFPE) before it wrapped. */
const char *const kDivOverflow = R"(B0:
    li r1, 1
    shli r1, r1, 63
    li r2, 0
    addi r2, r2, -1
    div r3, r1, r2
    halt
)";

TEST(Interpreter, DivOverflowWraps)
{
    const ExecResult r = Interpreter(parseAssembly(kDivOverflow)).run();
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(r.state.regs[1], kMin);
    EXPECT_EQ(r.state.regs[2], -1);
    EXPECT_EQ(r.state.regs[3], kMin);
}

// --- The interpreter against its executable specification -------------

bool
sameRecord(const TraceRecord &a, const TraceRecord &b)
{
    return a.sid == b.sid && a.block == b.block && a.op == b.op &&
           a.rd == b.rd && a.rs1 == b.rs1 && a.rs2 == b.rs2 &&
           a.memAddr == b.memAddr && a.isBranch == b.isBranch &&
           a.taken == b.taken && a.backward == b.backward;
}

std::string
describe(const TraceRecord &r)
{
    std::ostringstream oss;
    oss << "{sid " << r.sid << ", block " << r.block << ", "
        << opcodeName(r.op) << ", rd " << int{r.rd} << ", rs1 "
        << int{r.rs1} << ", rs2 " << int{r.rs2} << ", addr " << r.memAddr
        << ", branch " << r.isBranch << ", taken " << r.taken
        << ", backward " << r.backward << "}";
    return oss.str();
}

/**
 * Runs @p program on the Interpreter, with and without trace capture,
 * and on the reference (referenceRun()), and expects every trace record
 * field, the final registers and memory, the step count and the halt
 * flag to agree. Reports the first differing record only.
 */
void
expectMatchesReference(const Program &program, std::uint64_t max_instrs,
                       const std::string &what)
{
    const Interpreter interp(program);
    const ExecResult got = interp.run(max_instrs);
    const RecordStore &records = got.trace.records;
    std::uint64_t i = 0;
    bool differed = false;
    const ReferenceResult want =
        referenceRun(program, max_instrs, [&](const TraceRecord &rec) {
            if (!differed &&
                (i >= records.size() || !sameRecord(records[i], rec))) {
                differed = true;
                ADD_FAILURE()
                    << what << ": record " << i << " is "
                    << (i < records.size() ? describe(records[i])
                                           : std::string("missing"))
                    << ", the reference's is " << describe(rec);
            }
            ++i;
        });
    EXPECT_EQ(records.size(), i) << what;
    EXPECT_EQ(got.steps, want.steps) << what;
    EXPECT_EQ(got.halted, want.halted) << what;
    EXPECT_EQ(got.state.regs, want.state.regs) << what;
    EXPECT_EQ(got.state.memory, want.state.memory) << what;

    const ExecResult plain = interp.run(max_instrs, false);
    EXPECT_EQ(plain.steps, want.steps) << what << " without capture";
    EXPECT_EQ(plain.halted, want.halted) << what << " without capture";
    EXPECT_EQ(plain.state.regs, want.state.regs) << what
                                                 << " without capture";
    EXPECT_EQ(plain.state.memory, want.state.memory)
        << what << " without capture";
}

class InterpreterReference
    : public ::testing::TestWithParam<std::tuple<WorkloadId, int>>
{
};

TEST_P(InterpreterReference, WorkloadsMatchOnSeeds0To3)
{
    const auto [id, scale] = GetParam();
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
        expectMatchesReference(makeWorkload(id, scale, seed), 50'000'000,
                               std::string(workloadName(id)) + " seed " +
                                   std::to_string(seed));
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, InterpreterReference,
    ::testing::Combine(::testing::ValuesIn(allWorkloads()),
                       ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<std::tuple<WorkloadId, int>> &info) {
        return std::string(workloadName(std::get<0>(info.param))) +
               "_scale" + std::to_string(std::get<1>(info.param));
    });

TEST(InterpreterReferenceRandom, TwoHundredRandomProgramsMatch)
{
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
        Rng rng(seed);
        expectMatchesReference(makeRandomProgram(rng), 2'000'000,
                               "random program " + std::to_string(seed));
    }
}

TEST(InterpreterReferenceCorners, WritesToR0)
{
    expectMatchesReference(parseAssembly(R"(B0:
    li r0, 5
    addi r0, r0, 7
    li r1, 3
    add r0, r1, r1
    sw r1, 16(r0)
    lw r0, 16(r0)
    add r2, r0, r1
    slt r3, r0, r1
    halt
)"),
                           100, "r0 writes");
}

TEST(InterpreterReferenceCorners, LoadsOfUnwrittenWordsStayOutOfMemory)
{
    const Program p = parseAssembly(R"(B0:
    li r1, 40
    lw r2, 100(r0)
    lw r3, -8(r1)
    sw r1, 0(r1)
    lw r4, 0(r1)
    lw r5, 8(r1)
    halt
)");
    expectMatchesReference(p, 100, "unwritten loads");
    const ExecResult r = Interpreter(p).run();
    EXPECT_EQ(r.state.memory,
              (std::unordered_map<std::uint64_t, std::int64_t>{{40, 40}}));
    EXPECT_EQ(r.state.regs[4], 40);
}

TEST(InterpreterReferenceCorners, ShiftsOf64AndMore)
{
    expectMatchesReference(parseAssembly(R"(B0:
    li r1, 1
    li r2, 64
    sll r3, r1, r2
    li r2, 127
    sll r4, r1, r2
    srl r5, r4, r2
    shli r6, r1, 65
    shri r7, r4, 64
    li r2, -1
    sll r8, r1, r2
    srl r9, r8, r2
    halt
)"),
                           100, "shifts");
}

TEST(InterpreterReferenceCorners, SecondOperandFollowsRs2)
{
    // Forms the assembler cannot write: a register-form opcode with no
    // rs2 and immediate-form opcodes with one.
    Program p;
    p.addBlock(BasicBlock{{
        Instruction{Opcode::LoadImm, 1, kNoReg, kNoReg, 10, 0},
        Instruction{Opcode::LoadImm, 2, kNoReg, kNoReg, 3, 0},
        Instruction{Opcode::Sub, 3, 1, kNoReg, 4, 0},
        Instruction{Opcode::AddI, 4, 1, 2, 100, 0},
        Instruction{Opcode::ShlI, 5, 2, kZeroReg, 9, 0},
        Instruction{Opcode::Halt},
    }});
    expectMatchesReference(p, 100, "operand forms");
    EXPECT_EQ(Interpreter(p).run().state.regs[4], 13);
}

TEST(InterpreterReferenceCorners, StepCapsEndRunsMidProgram)
{
    const Program p = sumLoop(1000);
    for (const std::uint64_t cap : {1u, 2u, 17u, 100u, 2999u})
        expectMatchesReference(p, cap, "cap " + std::to_string(cap));
}

TEST(InterpreterReferenceCorners, DivOverflow)
{
    expectMatchesReference(parseAssembly(kDivOverflow), 100,
                           "div overflow");
}

} // namespace
} // namespace dee
