/**
 * @file
 * Tests for the speculation profiler (src/obs/profile/): the per-branch
 * attribution identity on every ILP model and on Levo, loop headers on
 * a handcrafted nested-loop program, folded-stack output, the bounded
 * branch table, dee.run.v9 manifest round-trips, per-branch squashed
 * slots under the regression gate, lint profile annotation, and the
 * bench heartbeat.
 */

#include <gtest/gtest.h>

#include "analysis/lint.hh"
#include "bpred/bpred.hh"
#include "cfg/cfg.hh"
#include "core/sim/models.hh"
#include "exec/interp.hh"
#include "isa/builder.hh"
#include "levo/levo.hh"
#include "obs/heartbeat.hh"
#include "obs/manifest.hh"
#include "obs/manifest_diff.hh"
#include "obs/profile/profile.hh"
#include "obs/registry.hh"
#include "workloads/suite.hh"

namespace dee
{
namespace
{

using obs::checkManifest;
using obs::GateItem;
using obs::Json;
using obs::kNoSite;
using obs::LoadedManifest;
using obs::parseManifest;
using obs::ProfileStore;
using obs::SlotClass;
using obs::SpeculationProfile;

// --- The attribution identity on every model ----------------------------

class ModelProfile : public ::testing::TestWithParam<ModelKind>
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

TEST_P(ModelProfile, SquashAttributionMatchesTheAccount)
{
    const ModelKind kind = GetParam();
    const auto &inst = instance();
    ProfileStore::global().clear();

    const obs::ScopedProfilingRequest profiling;
    TwoBitPredictor pred(inst.trace.numStatic);
    ModelRunOptions options;
    options.profileWorkload = "compress";
    const SimResult r =
        runModel(kind, inst.trace, &inst.cfg, pred, 16, options);

    std::string why;
    EXPECT_TRUE(r.profile.attributionMatches(r.account, &why))
        << modelName(kind) << ": " << why;

    if (kind == ModelKind::Oracle) {
        // Oracle never speculates: no profile, no squash to attribute.
        EXPECT_EQ(r.profile.totalSquashedSlots(), 0u);
        return;
    }

    ASSERT_TRUE(r.account.valid()) << modelName(kind);
    EXPECT_EQ(r.profile.totalSquashedSlots(),
              r.account.slots(SlotClass::SquashedSpec))
        << modelName(kind);
    EXPECT_EQ(r.profile.totalMispredicts(), r.mispredicted)
        << modelName(kind);
    EXPECT_FALSE(r.profile.empty()) << modelName(kind);
    // Every conditional branch execution was recorded somewhere.
    EXPECT_EQ(r.profile.totalExecutions(), r.branches)
        << modelName(kind);

    // The run landed in the store under "<workload>.<model>".
    const std::string scope =
        std::string("compress.") + modelName(kind);
    EXPECT_NE(ProfileStore::global().find(scope), nullptr) << scope;
}

INSTANTIATE_TEST_SUITE_P(
    AllEight, ModelProfile, ::testing::ValuesIn(allModels()),
    [](const ::testing::TestParamInfo<ModelKind> &info) {
        std::string name = modelName(info.param);
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

TEST(ModelProfile, OptOutLeavesProfileEmpty)
{
    const auto inst = makeInstance(WorkloadId::Compress, 1);
    ProfileStore::global().clear();
    TwoBitPredictor pred(inst.trace.numStatic);
    const SimResult r =
        runModel(ModelKind::DEE_CD_MF, inst.trace, &inst.cfg, pred, 16);
    EXPECT_TRUE(r.profile.empty());
    EXPECT_TRUE(ProfileStore::global().empty());
}

// --- The identity on Levo -----------------------------------------------

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

TEST(LevoProfile, SquashAttributionMatchesTheAccount)
{
    const Program p = sumLoop(200);
    Cfg cfg(p);
    ProfileStore::global().clear();

    LevoConfig config;
    config.iqRows = 4; // forces refills alongside mispredicts
    const obs::ScopedProfilingRequest profiling;
    const LevoResult r = LevoMachine(p, cfg, config).run();

    ASSERT_TRUE(r.account.valid());
    std::string why;
    EXPECT_TRUE(r.profile.attributionMatches(r.account, &why)) << why;
    EXPECT_EQ(r.profile.totalSquashedSlots(),
              r.account.slots(SlotClass::SquashedSpec));
    ASSERT_GT(r.mispredicted, 0u);
    EXPECT_EQ(r.profile.totalMispredicts(), r.mispredicted);
    EXPECT_NE(ProfileStore::global().find("levo"), nullptr);
    ProfileStore::global().clear();
}

TEST(LevoProfile, CoveredMispredictsCountDeeSlotCycles)
{
    const Program p = sumLoop(100);
    Cfg cfg(p);
    ProfileStore::global().clear();
    const LevoConfig config; // default 32x8, 3 DEE paths
    const obs::ScopedProfilingRequest profiling;
    const LevoResult r = LevoMachine(p, cfg, config).run();
    ASSERT_GT(r.deeCovered, 0u);
    std::uint64_t dee_cycles = 0;
    for (const auto &[pc, site] : r.profile.sites())
        dee_cycles += site.deeSlotCycles;
    EXPECT_GT(dee_cycles, 0u);
    ProfileStore::global().clear();
}

// --- Loop headers on a handcrafted nested loop -------------------------

/** Two nested counted loops: inner branch at depth 2, outer at 1. */
Program
nestedLoops(std::int64_t outer_n, std::int64_t inner_n)
{
    ProgramBuilder pb;
    const BlockId init = pb.newBlock();
    const BlockId outer = pb.newBlock();
    const BlockId inner = pb.newBlock();
    const BlockId latch = pb.newBlock();
    const BlockId done = pb.newBlock();
    pb.switchTo(init);
    pb.loadImm(1, 0);       // outer counter
    pb.loadImm(4, outer_n);
    pb.loadImm(5, inner_n);
    pb.switchTo(outer);
    pb.loadImm(2, 0);       // inner counter
    pb.switchTo(inner);
    pb.alu(Opcode::Add, 3, 3, 2);
    pb.aluImm(Opcode::AddI, 2, 2, 1);
    pb.branch(Opcode::BranchLt, 2, 5, inner);
    pb.switchTo(latch);
    pb.aluImm(Opcode::AddI, 1, 1, 1);
    pb.branch(Opcode::BranchLt, 1, 4, outer);
    pb.switchTo(done);
    pb.store(3, kZeroReg, 64);
    pb.halt();
    return pb.build();
}

TEST(LoopHeaders, NestedLoopBranchesListTheirEnclosingHeaders)
{
    const Program p = nestedLoops(8, 12);
    const Cfg cfg(p);
    const ExecResult exec = Interpreter(p).run();
    ASSERT_TRUE(exec.halted);
    ProfileStore::global().clear();

    const obs::ScopedProfilingRequest profiling;
    TwoBitPredictor pred(exec.trace.numStatic);
    ModelRunOptions options;
    options.profileWorkload = "nested";
    const SimResult r = runModel(ModelKind::DEE_CD_MF, exec.trace, &cfg,
                                 pred, 16, options);
    ProfileStore::global().clear();

    // Blocks (ProgramBuilder order): 0 init, 1 outer header, 2 inner
    // header/body, 3 latch, 4 done.
    const obs::BranchSiteProfile *inner_site = nullptr;
    const obs::BranchSiteProfile *outer_site = nullptr;
    for (const auto &[pc, site] : r.profile.sites()) {
        if (site.block == 2)
            inner_site = &site;
        if (site.block == 3)
            outer_site = &site;
    }
    ASSERT_NE(inner_site, nullptr);
    ASSERT_NE(outer_site, nullptr);

    // Inner branch: inside both loops, outermost header (B1) first.
    ASSERT_EQ(inner_site->loopHeaders.size(), 2u);
    EXPECT_EQ(inner_site->loopHeaders[0], 1);
    EXPECT_EQ(inner_site->loopHeaders[1], 2);
    // Outer latch branch: only inside the outer loop.
    ASSERT_EQ(outer_site->loopHeaders.size(), 1u);
    EXPECT_EQ(outer_site->loopHeaders[0], 1);
}

// --- Folded stacks (flamegraph input) -----------------------------------

TEST(FoldedStacks, GoldenOutput)
{
    SpeculationProfile prof;
    prof.recordExecution(3, 2, /*mispredicted=*/true, 0);
    prof.attributeSquash({{3u, 10u}, {kNoSite, 2u}});
    prof.setLoopHeaders({{}, {}, {1, 2}});

    std::string out;
    prof.appendFoldedStacks("compress.DEE", &out);
    EXPECT_EQ(out,
              "compress.DEE;loop_B1;loop_B2;branch_0x3 10\n"
              "compress.DEE;unattributed 2\n");

    // Zero-squash sites contribute no frame.
    SpeculationProfile quiet;
    quiet.recordExecution(9, 0, false, 3);
    std::string none;
    quiet.appendFoldedStacks("s", &none);
    EXPECT_EQ(none, "");
}

// --- The bounded branch table ------------------------------------------

TEST(ProfileJson, BranchOtherKeepsTheTailsResolveLatency)
{
    // kTopSites + 1 sites: every site but the last squashes, so the
    // quiet last one is the site folded into "branch_other".
    constexpr std::uint32_t kSites = SpeculationProfile::kTopSites + 1;
    SpeculationProfile prof;
    for (std::uint32_t pc = 0; pc < kSites; ++pc) {
        prof.recordExecution(pc, 0, /*mispredicted=*/false, 3);
        prof.recordResolveLatency(pc, 1);
        if (pc + 1 < kSites)
            prof.attributeSquash({{pc, 10u}});
    }
    prof.recordResolveLatency(kSites - 1, 3);
    prof.recordResolveLatency(kSites - 1, 100);

    const Json doc = prof.toJson();
    EXPECT_EQ(doc.find("sites_serialized")->asInt(),
              static_cast<std::int64_t>(SpeculationProfile::kTopSites));
    const Json *other = doc.find("branch_other");
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(other->find("sites")->asInt(), 1);
    const Json *latency = other->find("resolve_latency");
    ASSERT_NE(latency, nullptr);
    // Only the folded site's three resolutions, bucket by bucket.
    std::int64_t total = 0;
    for (std::size_t k = 0; k < obs::kNumLatencyBuckets; ++k) {
        const Json *bucket = latency->find(obs::latencyBucketName(k));
        ASSERT_NE(bucket, nullptr) << obs::latencyBucketName(k);
        total += bucket->asInt();
    }
    EXPECT_EQ(total, 3);
    EXPECT_EQ(latency->find("le1")->asInt(), 1);
    EXPECT_EQ(latency->find("le4")->asInt(), 1);
    EXPECT_EQ(latency->find("gt64")->asInt(), 1);
}

// --- Manifest round-trip -----------------------------------------------

TEST(ManifestV3, ProfileSectionRoundTrips)
{
    ProfileStore::global().clear();
    SpeculationProfile prof;
    prof.recordExecution(5, 1, true, 2);
    prof.attributeSquash({{5u, 100u}});
    prof.setMeta("compress", "DEE");
    ProfileStore::global().merge("compress.DEE", prof);

    obs::Registry reg;
    obs::Manifest manifest("test_tool");
    const Json doc = manifest.toJson(reg);
    EXPECT_EQ(doc.find("schema")->asString(), "dee.run.v9");

    LoadedManifest back;
    std::string err;
    ASSERT_TRUE(parseManifest(doc.dump(2), "t.json", &back, &err))
        << err;
    double value = 0.0;
    ASSERT_TRUE(back.metric(
        "profile.compress.DEE.branches.0x5.squashed_slots", &value));
    EXPECT_DOUBLE_EQ(value, 100.0);
    ASSERT_TRUE(back.metric(
        "profile.compress.DEE.branches.0x5.mispredicts", &value));
    EXPECT_DOUBLE_EQ(value, 1.0);
    const Json *scope_doc =
        back.doc.find("profile")->find("compress.DEE");
    ASSERT_NE(scope_doc, nullptr);
    EXPECT_EQ(scope_doc->find("workload")->asString(), "compress");
    EXPECT_EQ(scope_doc->find("model")->asString(), "DEE");
    ProfileStore::global().clear();
}

TEST(ManifestV3, V2DocumentsAreRejected)
{
    // The schema tag alone decides: a full manifest, profile section
    // and all, is refused once it claims to be v2.
    ProfileStore::global().clear();
    SpeculationProfile prof;
    prof.recordExecution(5, 1, true, 2);
    prof.setMeta("compress", "DEE");
    ProfileStore::global().merge("compress.DEE", prof);
    obs::Registry reg;
    Json doc = obs::Manifest("test_tool").toJson(reg);
    ProfileStore::global().clear();
    ASSERT_NE(doc.find("profile"), nullptr);
    doc["schema"] = Json("dee.run.v2");

    LoadedManifest v2;
    std::string err;
    EXPECT_FALSE(parseManifest(doc.dump(2), "v2.json", &v2, &err));
    EXPECT_NE(err.find("dee.run.v2"), std::string::npos) << err;
    EXPECT_TRUE(v2.metrics.empty());
}

// --- Per-branch squashed slots under the regression gate ----------------

std::string
profileManifestText(std::uint64_t hot_slots, bool with_new_site)
{
    Json b = Json::object();
    b["block"] = Json(2);
    b["squashed_slots"] = Json(hot_slots);
    Json branches = Json::object();
    branches["0x7"] = std::move(b);
    if (with_new_site) {
        Json nb = Json::object();
        nb["block"] = Json(3);
        nb["squashed_slots"] = Json(static_cast<std::uint64_t>(500));
        branches["0x9"] = std::move(nb);
    }
    Json scope = Json::object();
    scope["workload"] = Json("compress");
    scope["branches"] = std::move(branches);
    Json prof = Json::object();
    prof["compress.DEE"] = std::move(scope);
    Json doc = Json::object();
    doc["schema"] = Json("dee.run.v9");
    doc["tool"] = Json("unit_test");
    doc["profile"] = std::move(prof);
    return doc.dump(2);
}

LoadedManifest
loadText(const std::string &text, const std::string &label)
{
    LoadedManifest m;
    std::string err;
    EXPECT_TRUE(parseManifest(text, label, &m, &err)) << err;
    return m;
}

TEST(ProfileDiff, GrowthBeyondBothThresholdsFailsNamingThePc)
{
    const LoadedManifest base =
        loadText(profileManifestText(100, false), "base");
    const LoadedManifest grown =
        loadText(profileManifestText(300, false), "cand");
    const std::vector<GateItem> items = checkManifest(base, grown);
    ASSERT_EQ(items.size(), 1u);
    EXPECT_TRUE(items[0].fail);
    EXPECT_EQ(items[0].line(),
              "FAIL profile.compress.DEE.branches.0x7.squashed_slots: "
              "baseline 100, candidate 300");
}

TEST(ProfileDiff, OneSlotGrowthAndImprovementsFail)
{
    // Squash attribution is deterministic, so there is no slot floor:
    // one slot more, or fewer, is a behaviour change.
    const LoadedManifest base =
        loadText(profileManifestText(100, false), "base");
    for (const std::uint64_t slots :
         {std::uint64_t{101}, std::uint64_t{10}}) {
        const std::vector<GateItem> items = checkManifest(
            base, loadText(profileManifestText(slots, false), "cand"));
        ASSERT_EQ(items.size(), 1u) << slots;
        EXPECT_EQ(items[0].metric,
                  "profile.compress.DEE.branches.0x7.squashed_slots");
    }
}

TEST(ProfileDiff, NewHotSiteFails)
{
    const LoadedManifest base =
        loadText(profileManifestText(100, false), "base");
    const LoadedManifest with_new =
        loadText(profileManifestText(100, true), "cand");
    // Both leaves of the new branch (block, squashed_slots) fail.
    const std::vector<GateItem> items = checkManifest(base, with_new);
    ASSERT_EQ(items.size(), 2u);
    for (const GateItem &item : items) {
        EXPECT_TRUE(item.fail);
        EXPECT_EQ(item.metric.rfind("profile.compress.DEE.branches.0x9.",
                                    0),
                  0u)
            << item.metric;
        EXPECT_NE(item.detail.find("baseline missing"), std::string::npos);
    }
}

// --- Lint profile annotation --------------------------------------------

TEST(LintAnnotate, HotFindingsLeadAndCarrySlotCounts)
{
    analysis::LintReport report;
    report.subject = "compress scale=1";
    analysis::Finding cold;
    cold.code = analysis::FindingCode::EmptyBlock;
    cold.block = 7;
    cold.message = "cold";
    analysis::Finding hot;
    hot.code = analysis::FindingCode::WriteToZeroReg;
    hot.block = 2;
    hot.message = "hot";
    report.findings = {cold, hot};

    Json doc;
    std::string err;
    ASSERT_TRUE(
        Json::parse(profileManifestText(100, false), &doc, &err))
        << err;
    const std::size_t annotated =
        analysis::annotateWithProfile(&report, *doc.find("profile"));
    EXPECT_EQ(annotated, 1u);
    ASSERT_EQ(report.findings.size(), 2u);
    EXPECT_EQ(report.findings[0].block, 2u);
    EXPECT_NE(report.findings[0].message.find("100 squashed slots"),
              std::string::npos);
    EXPECT_EQ(report.findings[1].message, "cold");
}

// --- Heartbeat ----------------------------------------------------------

TEST(Heartbeat, StatusLineReportsProgressAndTotals)
{
    obs::Heartbeat hb("bench", /*enabled=*/false);
    hb.setTotal(10);
    hb.tick();
    hb.tick(4);
    EXPECT_EQ(hb.done(), 5u);
    const std::string line = hb.statusLine();
    EXPECT_EQ(line.rfind("bench: 5/10", 0), 0u) << line;
    EXPECT_NE(line.find("/s"), std::string::npos) << line;
}

} // namespace
} // namespace dee
