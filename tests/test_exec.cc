/**
 * @file
 * Unit tests for src/exec: ALU/branch semantics, interpreter control
 * flow, trace capture, architectural state.
 */

#include <gtest/gtest.h>

#include "exec/interp.hh"
#include "isa/builder.hh"

namespace dee
{
namespace
{

TEST(AluSemantics, Arithmetic)
{
    EXPECT_EQ(semantics::alu(Opcode::Add, 2, 3), 5);
    EXPECT_EQ(semantics::alu(Opcode::Sub, 2, 3), -1);
    EXPECT_EQ(semantics::alu(Opcode::Mul, -4, 3), -12);
    EXPECT_EQ(semantics::alu(Opcode::Div, 7, 2), 3);
    EXPECT_EQ(semantics::alu(Opcode::Div, 7, 0), 0) << "div-by-0 is 0";
}

TEST(AluSemantics, Bitwise)
{
    EXPECT_EQ(semantics::alu(Opcode::And, 0b1100, 0b1010), 0b1000);
    EXPECT_EQ(semantics::alu(Opcode::Or, 0b1100, 0b1010), 0b1110);
    EXPECT_EQ(semantics::alu(Opcode::Xor, 0b1100, 0b1010), 0b0110);
    EXPECT_EQ(semantics::alu(Opcode::Sll, 1, 4), 16);
    EXPECT_EQ(semantics::alu(Opcode::Srl, 16, 4), 1);
    EXPECT_EQ(semantics::alu(Opcode::Slt, -1, 0), 1);
    EXPECT_EQ(semantics::alu(Opcode::Slt, 0, 0), 0);
}

TEST(AluSemantics, ShiftAmountsAreMasked)
{
    EXPECT_EQ(semantics::alu(Opcode::Sll, 1, 64), 1);
    EXPECT_EQ(semantics::alu(Opcode::Srl, 2, 65), 1);
}

TEST(AluSemantics, OverflowWraps)
{
    const std::int64_t max = std::numeric_limits<std::int64_t>::max();
    EXPECT_EQ(semantics::alu(Opcode::Add, max, 1),
              std::numeric_limits<std::int64_t>::min());
}

TEST(BranchSemantics, AllConditions)
{
    EXPECT_TRUE(semantics::branchTaken(Opcode::BranchEq, 3, 3));
    EXPECT_FALSE(semantics::branchTaken(Opcode::BranchEq, 3, 4));
    EXPECT_TRUE(semantics::branchTaken(Opcode::BranchNe, 3, 4));
    EXPECT_TRUE(semantics::branchTaken(Opcode::BranchLt, -1, 0));
    EXPECT_FALSE(semantics::branchTaken(Opcode::BranchLt, 0, 0));
    EXPECT_TRUE(semantics::branchTaken(Opcode::BranchGe, 0, 0));
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

} // namespace
} // namespace dee
