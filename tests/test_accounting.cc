/**
 * @file
 * Tests for the cycle-accounting layer (src/obs/accounting.hh): the
 * CycleAccount arithmetic, SlotLedger classification rules, and — the
 * load-bearing property — the closed accounting identity
 * sum(categories) == PEs x cycles on every one of the paper's eight
 * ILP models and on the Levo machine.
 */

#include <gtest/gtest.h>

#include <unordered_map>

#include "bpred/bpred.hh"
#include "core/sim/models.hh"
#include "isa/builder.hh"
#include "levo/levo.hh"
#include "obs/accounting.hh"
#include "obs/registry.hh"
#include "workloads/suite.hh"

namespace dee
{
namespace
{

using obs::confidenceBucket;
using obs::CycleAccount;
using obs::kNumConfidenceBuckets;
using obs::kNumSlotClasses;
using obs::SlotClass;
using obs::SlotLedger;

// --- CycleAccount arithmetic --------------------------------------------

TEST(CycleAccount, IdentityAndFractions)
{
    CycleAccount acct;
    acct.setDenominator(4, 10); // 40 slots
    acct.add(SlotClass::Useful, 20);
    acct.addSquashed(8, 1);
    acct.addSquashed(2, 3);
    acct.add(SlotClass::FetchStall, 4);
    acct.add(SlotClass::Idle, 6);

    ASSERT_TRUE(acct.valid());
    EXPECT_EQ(acct.totalSlots(), 40u);
    std::string why;
    EXPECT_TRUE(acct.identityHolds(&why)) << why;
    EXPECT_EQ(acct.slots(SlotClass::SquashedSpec), 10u);
    EXPECT_EQ(acct.squashedInBucket(1), 8u);
    EXPECT_EQ(acct.squashedInBucket(3), 2u);
    EXPECT_DOUBLE_EQ(acct.wasteFraction(), 10.0 / 30.0);
    EXPECT_DOUBLE_EQ(acct.usefulFraction(), 0.5);

    // Break the identity; the diagnostic names the mismatch.
    acct.add(SlotClass::Idle, 1);
    EXPECT_FALSE(acct.identityHolds(&why));
    EXPECT_NE(why.find("41"), std::string::npos) << why;
}

TEST(CycleAccount, BucketSumMustMatchSquashedClass)
{
    CycleAccount acct;
    acct.setDenominator(1, 4);
    acct.add(SlotClass::Useful, 1);
    // Squash counted in the class total but not via addSquashed: the
    // per-bucket attribution no longer covers the class.
    acct.add(SlotClass::SquashedSpec, 3);
    std::string why;
    EXPECT_FALSE(acct.identityHolds(&why));
    EXPECT_NE(why.find("bucket"), std::string::npos) << why;
}

TEST(CycleAccount, MergeAccumulatesClassesAndDenominator)
{
    CycleAccount a;
    a.setDenominator(2, 5);
    a.add(SlotClass::Useful, 6);
    a.addSquashed(4, 0);

    CycleAccount b;
    b.setDenominator(4, 3);
    b.add(SlotClass::Useful, 10);
    b.add(SlotClass::Idle, 2);

    a.merge(b);
    EXPECT_EQ(a.peSlotCycles(), 22u);
    EXPECT_EQ(a.slots(SlotClass::Useful), 16u);
    EXPECT_EQ(a.slots(SlotClass::SquashedSpec), 4u);
    EXPECT_EQ(a.slots(SlotClass::Idle), 2u);
    EXPECT_TRUE(a.identityHolds());
}

TEST(CycleAccount, PublishAccumulatesCountersAndDerivesRatios)
{
    obs::Registry reg;
    CycleAccount acct;
    acct.setDenominator(2, 4);
    acct.add(SlotClass::Useful, 4);
    acct.addSquashed(2, 2);
    acct.add(SlotClass::Idle, 2);
    acct.publish(reg, "window");
    acct.publish(reg, "window"); // second run accumulates

    EXPECT_EQ(reg.counter("acct.window.useful"), 8u);
    EXPECT_EQ(reg.counter("acct.window.squashed_spec"), 4u);
    EXPECT_EQ(reg.counter("acct.window.squashed_conf.90to97"), 4u);
    EXPECT_EQ(reg.counter("acct.window.pe_slot_cycles"), 16u);
    // Ratios are not registry entries: a reader derives them from the
    // accumulated counters, as CycleAccount does for merged runs.
    EXPECT_FALSE(reg.contains("acct.window.waste_fraction"));
    EXPECT_FALSE(reg.contains("acct.window.useful_fraction"));
    CycleAccount both = acct;
    both.merge(acct);
    EXPECT_DOUBLE_EQ(both.wasteFraction(), 4.0 / 12.0);
    EXPECT_DOUBLE_EQ(both.usefulFraction(), 0.5);
}

TEST(ConfidenceBuckets, BoundariesMatchTheDocumentedRanges)
{
    EXPECT_EQ(confidenceBucket(0.0), 0u);
    EXPECT_EQ(confidenceBucket(0.74), 0u);
    EXPECT_EQ(confidenceBucket(0.75), 1u);
    EXPECT_EQ(confidenceBucket(0.89), 1u);
    EXPECT_EQ(confidenceBucket(0.90), 2u);
    EXPECT_EQ(confidenceBucket(0.9699), 2u);
    EXPECT_EQ(confidenceBucket(0.97), 3u);
    EXPECT_EQ(confidenceBucket(1.0), 3u);
}

// --- SlotLedger classification ------------------------------------------

TEST(SlotLedger, ResidueRulesFetchStallVersusIdle)
{
    // 2 PEs, 4 cycles. Cycle 0: full. Cycle 1: half (idle residue).
    // Cycle 2: empty, unmarked (fetch stall). Cycle 3: full.
    SlotLedger ledger(2);
    ledger.issue(0);
    ledger.issue(0);
    ledger.issue(1);
    ledger.issue(3);
    ledger.issue(3);
    const CycleAccount acct = ledger.finalize(4);
    ASSERT_TRUE(acct.valid());
    EXPECT_EQ(acct.pes(), 2u);
    EXPECT_EQ(acct.slots(SlotClass::Useful), 5u);
    EXPECT_EQ(acct.slots(SlotClass::Idle), 1u);
    EXPECT_EQ(acct.slots(SlotClass::FetchStall), 2u);
    EXPECT_TRUE(acct.identityHolds());
}

TEST(SlotLedger, MarkPriorityAndBucketAttribution)
{
    // 1 PE, 6 cycles, nothing issued. Cycles 0-3 starved; cycles 2-5
    // squashed (bucket 1) — squash outranks starved on the overlap.
    SlotLedger ledger(1);
    ledger.mark(SlotClass::ResourceStarved, 0, 4);
    ledger.mark(SlotClass::SquashedSpec, 2, 6, 1);
    const CycleAccount acct = ledger.finalize(6);
    ASSERT_TRUE(acct.valid());
    EXPECT_EQ(acct.slots(SlotClass::ResourceStarved), 2u);
    EXPECT_EQ(acct.slots(SlotClass::SquashedSpec), 4u);
    EXPECT_EQ(acct.squashedInBucket(1), 4u);
    EXPECT_EQ(acct.slots(SlotClass::FetchStall), 0u);
    EXPECT_TRUE(acct.identityHolds());

    // The reverse order must classify identically (priority, not
    // mark order, decides).
    SlotLedger reversed(1);
    reversed.mark(SlotClass::SquashedSpec, 2, 6, 1);
    reversed.mark(SlotClass::ResourceStarved, 0, 4);
    const CycleAccount same = reversed.finalize(6);
    EXPECT_EQ(same.slots(SlotClass::SquashedSpec), 4u);
    EXPECT_EQ(same.slots(SlotClass::ResourceStarved), 2u);

    // Site attribution follows the winning mark and changes no class
    // or bucket: a ledger that keeps sites and one that drops them
    // give the same account.
    SlotLedger with_sites(1, 0, /*attribute_sites=*/true);
    SlotLedger without_sites(1);
    for (SlotLedger *l : {&with_sites, &without_sites}) {
        l->issue(1);
        l->mark(SlotClass::ResourceStarved, 0, 4);
        l->mark(SlotClass::SquashedSpec, 2, 6, 1, /*site=*/7);
        l->mark(SlotClass::SquashedSpec, 4, 8, 2, /*site=*/9);
    }
    std::unordered_map<std::uint32_t, std::uint64_t> by_site;
    const CycleAccount sited = with_sites.finalize(8, nullptr, &by_site);
    const CycleAccount siteless = without_sites.finalize(8);
    ASSERT_TRUE(sited.valid());
    for (std::size_t c = 0; c < obs::kNumSlotClasses; ++c) {
        const auto cls = static_cast<SlotClass>(c);
        EXPECT_EQ(sited.slots(cls), siteless.slots(cls))
            << obs::slotClassName(cls);
    }
    for (std::size_t b = 0; b < obs::kNumConfidenceBuckets; ++b)
        EXPECT_EQ(sited.squashedInBucket(b), siteless.squashedInBucket(b));
    EXPECT_EQ(sited.pes(), siteless.pes());
    EXPECT_EQ(sited.peSlotCycles(), siteless.peSlotCycles());
    // Cycles 2-5 go to site 7, which marked them first; 6-7 to site 9.
    EXPECT_EQ(by_site[7], 4u);
    EXPECT_EQ(by_site[9], 2u);
    EXPECT_EQ(sited.slots(SlotClass::SquashedSpec), 6u);
}

TEST(SlotLedgerDeathTest, SiteAttributionNeedsASitedLedger)
{
    SlotLedger ledger(1);
    ledger.mark(SlotClass::SquashedSpec, 0, 2, 0, /*site=*/3);
    std::unordered_map<std::uint32_t, std::uint64_t> by_site;
    EXPECT_DEATH((void)ledger.finalize(2, nullptr, &by_site),
                 "squash attribution from a ledger built without sites");
}

TEST(SlotLedger, LevoClassesRefillAndCopyBack)
{
    SlotLedger ledger(2);
    ledger.issue(0);
    ledger.mark(SlotClass::RefillStall, 1, 3);
    ledger.mark(SlotClass::CopyBack, 3, 4);
    // Copy-back outranks refill where they overlap.
    ledger.mark(SlotClass::RefillStall, 3, 4);
    const CycleAccount acct = ledger.finalize(4);
    ASSERT_TRUE(acct.valid());
    EXPECT_EQ(acct.slots(SlotClass::RefillStall), 4u);
    EXPECT_EQ(acct.slots(SlotClass::CopyBack), 2u);
    EXPECT_EQ(acct.slots(SlotClass::Useful), 1u);
    EXPECT_EQ(acct.slots(SlotClass::Idle), 1u);
    EXPECT_TRUE(acct.identityHolds());
}

TEST(SlotLedger, DerivesPeakPesWhenUnlimited)
{
    SlotLedger ledger(0);
    ledger.issue(0);
    ledger.issue(0);
    ledger.issue(0);
    ledger.issue(1);
    const CycleAccount acct = ledger.finalize(2);
    ASSERT_TRUE(acct.valid());
    EXPECT_EQ(acct.pes(), 3u);
    EXPECT_EQ(acct.peSlotCycles(), 6u);
    EXPECT_EQ(acct.slots(SlotClass::Useful), 4u);
    EXPECT_EQ(acct.slots(SlotClass::Idle), 2u);
}

TEST(SlotLedger, NegativeAndEmptyMarksAreClampedOrDropped)
{
    SlotLedger ledger(1);
    ledger.issue(2);
    ledger.mark(SlotClass::ResourceStarved, -5, 1); // clamped to [0,1)
    ledger.mark(SlotClass::ResourceStarved, 2, 2);  // empty: dropped
    const CycleAccount acct = ledger.finalize(3);
    ASSERT_TRUE(acct.valid());
    EXPECT_EQ(acct.slots(SlotClass::ResourceStarved), 1u);
    EXPECT_EQ(acct.slots(SlotClass::Useful), 1u);
    EXPECT_EQ(acct.slots(SlotClass::FetchStall), 1u);
}

TEST(SlotLedger, RunsPastTheCycleCapSkipGracefully)
{
    obs::Registry &global = obs::Registry::global();
    const std::uint64_t global_before = global.counter("acct.skipped_runs");

    SlotLedger ledger(1);
    ledger.issue(0);
    ledger.issue(static_cast<std::int64_t>(SlotLedger::kMaxCycles) + 7);
    EXPECT_FALSE(ledger.active());
    const CycleAccount acct =
        ledger.finalize(SlotLedger::kMaxCycles + 8);
    EXPECT_FALSE(acct.valid());
    // Finalizing publishes nothing; publishing the skipped run's
    // account counts the skip and nothing else.
    EXPECT_EQ(global.counter("acct.skipped_runs"), global_before);
    obs::Registry reg;
    acct.publish(reg, "window");
    EXPECT_EQ(reg.counter("acct.skipped_runs"), 1u);
    EXPECT_EQ(reg.size(), 1u);
}

TEST(SlotLedger, IssueCountsCoverTheBoundOrFallBack)
{
    SlotLedger ledger(0);
    ledger.issue(1);
    std::uint32_t *counts = ledger.issueCounts(5);
    ASSERT_NE(counts, nullptr);
    EXPECT_GE(ledger.issuedPerCycle().size(), 5u);
    EXPECT_EQ(counts[1], 1u) << "growing kept the counts";
    ++counts[1];
    ++counts[4];
    EXPECT_EQ(ledger.peakIssue(), 2u);

    // A bound at the limit hands out nothing and leaves the ledger
    // active: only a cycle issued past the limit deactivates it.
    const auto limit = static_cast<std::int64_t>(SlotLedger::kMaxCycles);
    EXPECT_EQ(ledger.issueCounts(limit), nullptr);
    EXPECT_TRUE(ledger.active());
    ledger.issue(limit);
    EXPECT_FALSE(ledger.active());
    EXPECT_EQ(ledger.issueCounts(5), nullptr);

    SlotLedger counted(0);
    ++counted.issueCounts(3)[2];
    counted.mark(SlotClass::SquashedSpec, 0, 4);
    const CycleAccount acct = counted.finalize(3);
    ASSERT_TRUE(acct.valid());
    EXPECT_EQ(acct.slots(SlotClass::Useful), 1u);
    EXPECT_EQ(acct.slots(SlotClass::SquashedSpec), 2u);
}

// --- The identity on every model ----------------------------------------

class ModelAccounting : public ::testing::TestWithParam<ModelKind>
{
  protected:
    static const BenchmarkInstance &
    instance()
    {
        static const BenchmarkInstance inst =
            makeInstance(WorkloadId::Compress, 1);
        return inst;
    }
};

TEST_P(ModelAccounting, IdentityHoldsAndUsefulEqualsInstructions)
{
    const ModelKind kind = GetParam();
    const auto &inst = instance();
    TwoBitPredictor pred(inst.trace.numStatic);
    const SimResult r =
        runModel(kind, inst.trace, &inst.cfg, pred, 16);

    ASSERT_TRUE(r.account.valid()) << modelName(kind);
    std::string why;
    EXPECT_TRUE(r.account.identityHolds(&why))
        << modelName(kind) << ": " << why;
    EXPECT_EQ(r.account.cycles(), r.cycles);
    // Unlimited PEs: every issue lands in a slot, so useful slots ==
    // instructions.
    EXPECT_EQ(r.account.slots(SlotClass::Useful), r.instructions);
    if (kind == ModelKind::Oracle) {
        EXPECT_EQ(r.account.slots(SlotClass::SquashedSpec), 0u);
    } else if (r.mispredicted > 0) {
        EXPECT_GT(r.account.slots(SlotClass::SquashedSpec), 0u)
            << modelName(kind);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllEight, ModelAccounting, ::testing::ValuesIn(allModels()),
    [](const ::testing::TestParamInfo<ModelKind> &info) {
        std::string name = modelName(info.param);
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

TEST(ModelAccounting, ExplicitPeLimitKeepsTheIdentity)
{
    const auto inst = makeInstance(WorkloadId::Compress, 1);
    TwoBitPredictor pred(inst.trace.numStatic);
    ModelRunOptions options;
    options.peLimit = 4;
    const SimResult r = runModel(ModelKind::DEE_CD_MF, inst.trace,
                                 &inst.cfg, pred, 16, options);
    ASSERT_TRUE(r.account.valid());
    std::string why;
    EXPECT_TRUE(r.account.identityHolds(&why)) << why;
    EXPECT_EQ(r.account.pes(), 4u);
    EXPECT_EQ(r.account.peSlotCycles(), 4 * r.cycles);
    EXPECT_EQ(r.account.slots(SlotClass::Useful), r.instructions);
}

TEST(ModelAccounting, OptOutLeavesAccountInvalid)
{
    const auto inst = makeInstance(WorkloadId::Compress, 1);
    TwoBitPredictor pred(inst.trace.numStatic);
    ModelRunOptions options;
    options.gatherAccounting = false;
    const SimResult r = runModel(ModelKind::DEE, inst.trace, &inst.cfg,
                                 pred, 16, options);
    EXPECT_FALSE(r.account.valid());
}

// --- The identity on the Levo machine -----------------------------------

Program
levoSumLoop(std::int64_t n)
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

TEST(LevoAccounting, IdentityHoldsWithCopyBacksAndRefills)
{
    const Program p = levoSumLoop(200);
    Cfg cfg(p);
    LevoConfig config;
    config.iqRows = 4; // forces window moves between blocks
    LevoMachine machine(p, cfg, config);
    const LevoResult r = machine.run();

    ASSERT_TRUE(r.account.valid());
    std::string why;
    EXPECT_TRUE(r.account.identityHolds(&why)) << why;
    EXPECT_EQ(r.account.pes(),
              static_cast<std::uint64_t>(config.iqRows));
    EXPECT_EQ(r.account.cycles(), r.cycles);
    EXPECT_EQ(r.account.slots(SlotClass::Useful), r.instructions);
    // The run refilled the window, so refill slots must be charged.
    ASSERT_GT(r.refills, 0u);
    EXPECT_GT(r.account.slots(SlotClass::RefillStall), 0u);
}

TEST(LevoAccounting, CoveredMispredictChargesCopyBack)
{
    const Program p = levoSumLoop(100);
    Cfg cfg(p);
    LevoConfig config; // default 32x8, 3 DEE paths
    LevoMachine machine(p, cfg, config);
    const LevoResult r = machine.run();

    ASSERT_TRUE(r.account.valid());
    ASSERT_GT(r.deeCovered, 0u);
    EXPECT_GT(r.account.slots(SlotClass::CopyBack), 0u);
    std::string why;
    EXPECT_TRUE(r.account.identityHolds(&why)) << why;
}

TEST(LevoAccounting, OptOutLeavesAccountInvalid)
{
    const Program p = levoSumLoop(50);
    Cfg cfg(p);
    LevoConfig config;
    config.gatherAccounting = false;
    const LevoResult r = LevoMachine(p, cfg, config).run();
    EXPECT_FALSE(r.account.valid());
    EXPECT_GT(r.instructions, 0u);
}

} // namespace
} // namespace dee
