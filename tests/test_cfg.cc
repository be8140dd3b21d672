/**
 * @file
 * Unit tests for src/cfg: CFG edges and postdominators on diamonds,
 * loops, jumps and branches whose arms coincide.
 */

#include <gtest/gtest.h>

#include "cfg/cfg.hh"
#include "isa/builder.hh"

namespace dee
{
namespace
{

/**
 * Diamond:
 *   B0: beq -> B2 (else), fallthrough B1 (then)
 *   B1: then, falls into B2? No: B1 then-block falls to B2 join.
 *   B2: join, halt
 */
Program
diamond()
{
    ProgramBuilder pb;
    const BlockId b0 = pb.newBlock();
    const BlockId b1 = pb.newBlock();
    const BlockId b2 = pb.newBlock();
    pb.switchTo(b0);
    pb.branch(Opcode::BranchEq, 1, 2, b2);
    pb.switchTo(b1);
    pb.aluImm(Opcode::AddI, 3, 3, 1);
    pb.switchTo(b2);
    pb.halt();
    return pb.build();
}

TEST(CfgDiamond, Edges)
{
    Program p = diamond();
    Cfg cfg(p);
    EXPECT_EQ(cfg.numBlocks(), 3u);
    const auto &s0 = cfg.successors(0);
    ASSERT_EQ(s0.size(), 2u);
    EXPECT_EQ(s0[0], 1u);
    EXPECT_EQ(s0[1], 2u);
    ASSERT_EQ(cfg.successors(1).size(), 1u);
    EXPECT_EQ(cfg.successors(1)[0], 2u);
    ASSERT_EQ(cfg.successors(2).size(), 1u);
    EXPECT_EQ(cfg.successors(2)[0], cfg.exitNode());
}

TEST(CfgDiamond, Postdominators)
{
    Program p = diamond();
    Cfg cfg(p);
    EXPECT_EQ(cfg.ipostdom(0), 2u); // join postdominates the branch
    EXPECT_EQ(cfg.ipostdom(1), 2u);
    EXPECT_EQ(cfg.ipostdom(2), cfg.exitNode());
    EXPECT_TRUE(cfg.postdominates(2, 0));
    EXPECT_FALSE(cfg.postdominates(1, 0)); // then-side is avoidable
    EXPECT_TRUE(cfg.postdominates(cfg.exitNode(), 0));
}

/**
 * Loop:
 *   B0: init, falls into B1
 *   B1: body; blt -> B1 (backward), fallthrough B2
 *   B2: halt
 */
Program
loop()
{
    ProgramBuilder pb;
    const BlockId b0 = pb.newBlock();
    const BlockId b1 = pb.newBlock();
    const BlockId b2 = pb.newBlock();
    pb.switchTo(b0);
    pb.loadImm(1, 0);
    pb.loadImm(2, 10);
    pb.switchTo(b1);
    pb.aluImm(Opcode::AddI, 1, 1, 1);
    pb.branch(Opcode::BranchLt, 1, 2, b1);
    pb.switchTo(b2);
    pb.halt();
    return pb.build();
}

TEST(CfgLoop, PostdominatorsSkipLoop)
{
    Program p = loop();
    Cfg cfg(p);
    EXPECT_EQ(cfg.ipostdom(1), 2u);
    EXPECT_EQ(cfg.ipostdom(0), 1u);
}

TEST(CfgJumpOnly, JumpHasSingleSuccessor)
{
    ProgramBuilder pb;
    const BlockId b0 = pb.newBlock();
    const BlockId b1 = pb.newBlock();
    const BlockId b2 = pb.newBlock();
    pb.switchTo(b0);
    pb.jump(b2);
    pb.switchTo(b1);
    pb.nop(); // unreachable
    pb.switchTo(b2);
    pb.halt();
    Program p = pb.build();
    Cfg cfg(p);
    ASSERT_EQ(cfg.successors(0).size(), 1u);
    EXPECT_EQ(cfg.successors(0)[0], 2u);
}

TEST(CfgBranchToFallthrough, DeduplicatedEdge)
{
    ProgramBuilder pb;
    const BlockId b0 = pb.newBlock();
    const BlockId b1 = pb.newBlock();
    pb.switchTo(b0);
    pb.branch(Opcode::BranchEq, 1, 2, b1); // target == fallthrough
    pb.switchTo(b1);
    pb.halt();
    Program p = pb.build();
    Cfg cfg(p);
    EXPECT_EQ(cfg.successors(0).size(), 1u);
}

} // namespace
} // namespace dee
