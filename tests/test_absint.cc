/**
 * @file
 * Tests for the abstract-interpretation static-bounds engine
 * (analysis/absint): fixpoint termination, pinned critical-path
 * bounds and counted-loop facts, the bound's soundness against the
 * Oracle, finding emission on hand-built defect programs, finding
 * normalization, the manifest static_bounds section, and the
 * static<->dynamic cross-check gates (xcheck.hh) driven by hand-built
 * manifest documents.
 *
 * The pinned numbers are the calibrated seed-0 templates; they are
 * deliberately exact — the workload generators are deterministic, and
 * a silent change to a proven bound is exactly what these tests exist
 * to catch.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/absint/bounds.hh"
#include "analysis/absint/xcheck.hh"
#include "analysis/lint.hh"
#include "bpred/bpred.hh"
#include "cfg/cfg.hh"
#include "core/sim/models.hh"
#include "isa/builder.hh"
#include "obs/isolate.hh"
#include "obs/json.hh"
#include "obs/manifest.hh"
#include "workloads/suite.hh"
#include "workloads/workloads.hh"

namespace dee
{
namespace
{

using analysis::Finding;
using analysis::FindingCode;
using analysis::absint::AbsintResult;
using analysis::absint::analyzeProgram;
using analysis::absint::crossCheckManifest;
using analysis::absint::LoopBound;
using analysis::absint::StaticBounds;
using analysis::absint::staticBoundsSection;
using analysis::absint::XcheckResult;
using obs::Json;

AbsintResult
analyzeWorkload(WorkloadId id, int scale, std::uint64_t seed = 0)
{
    const Program program = makeWorkload(id, scale, seed);
    const Cfg cfg(program);
    return analyzeProgram(program, cfg);
}

bool
hasFinding(const std::vector<Finding> &findings, FindingCode code)
{
    return std::any_of(findings.begin(), findings.end(),
                       [code](const Finding &f) {
                           return f.code == code;
                       });
}

/* ------------------------------------------------------------------ */
/* Fixpoint termination (the acceptance criterion: every workload,    */
/* scales 1-3, plus the excluded sc-like generator).                  */
/* ------------------------------------------------------------------ */

TEST(Absint, FixpointsTerminateOnEveryWorkloadAtScales1To3)
{
    for (int scale = 1; scale <= 3; ++scale) {
        for (WorkloadId id : allWorkloads()) {
            const AbsintResult r = analyzeWorkload(id, scale);
            EXPECT_TRUE(r.bounds.converged)
                << workloadName(id) << " scale " << scale;
            EXPECT_FALSE(hasFinding(r.findings,
                                    FindingCode::AbsintNoConvergence))
                << workloadName(id) << " scale " << scale;
            EXPECT_GE(r.bounds.cpLowerBound, 1)
                << workloadName(id) << " scale " << scale;
        }
        const Program excluded = makeExcludedScLike(scale, 0);
        const Cfg cfg(excluded);
        const AbsintResult r = analyzeProgram(excluded, cfg);
        EXPECT_TRUE(r.bounds.converged) << "excluded scale " << scale;
    }
}

TEST(Absint, FixpointsTerminateOnPerturbedSeeds)
{
    // Seeds perturb the generators' constants; widening must still
    // bound every chain.
    for (std::uint64_t seed : {1ull, 42ull, 0xdeadbeefull}) {
        for (WorkloadId id : allWorkloads()) {
            const AbsintResult r = analyzeWorkload(id, 1, seed);
            EXPECT_TRUE(r.bounds.converged)
                << workloadName(id) << " seed " << seed;
        }
    }
}

/* ------------------------------------------------------------------ */
/* Pinned bounds on the calibrated templates.                         */
/* ------------------------------------------------------------------ */

struct PinnedBound
{
    const char *name;
    std::int64_t cpScale1;
    std::int64_t cpScale16;
    std::size_t loops;
};

// Critical-path lower bounds proven from the mandatory counted loops'
// serial counter chains. eqntott/espresso scale sub-linearly (their
// outer trip counts are scale-invariant); cc1/compress/xlisp are
// linear in scale.
constexpr PinnedBound kPinned[] = {
    {"cc1", 900, 14400, 2},   {"compress", 3200, 51200, 1},
    {"eqntott", 60, 60, 3},   {"espresso", 55, 64, 3},
    {"xlisp", 850, 13600, 2},
};

TEST(Absint, CriticalPathLowerBoundsPinned)
{
    for (const PinnedBound &p : kPinned) {
        const WorkloadId id = workloadByName(p.name);
        const AbsintResult s1 = analyzeWorkload(id, 1);
        EXPECT_EQ(s1.bounds.cpLowerBound, p.cpScale1) << p.name;
        EXPECT_EQ(s1.bounds.loops.size(), p.loops) << p.name;
        EXPECT_TRUE(s1.bounds.converged) << p.name;
        for (const LoopBound &l : s1.bounds.loops) {
            EXPECT_TRUE(l.counted) << p.name << " B" << l.header;
            EXPECT_TRUE(l.mandatory) << p.name << " B" << l.header;
            EXPECT_GT(l.minTrip, 0) << p.name << " B" << l.header;
            EXPECT_GT(l.bodyInstrs, 0u) << p.name << " B" << l.header;
        }
        const AbsintResult s16 = analyzeWorkload(id, 16);
        EXPECT_EQ(s16.bounds.cpLowerBound, p.cpScale16) << p.name;
    }
}

TEST(Absint, CpLowerBoundIsSoundAgainstTheOracle)
{
    // The whole point of the bound: no model — the dataflow Oracle
    // included — finishes a completed run in fewer cycles.
    for (WorkloadId id : allWorkloads()) {
        const BenchmarkInstance inst = makeInstance(id, 1);
        const StaticBounds bounds =
            analyzeWorkload(id, 1).bounds;
        TwoBitPredictor pred(inst.trace.numStatic);
        const SimResult oracle =
            runModel(ModelKind::Oracle, inst.trace, &inst.cfg, pred, 0);
        EXPECT_GE(oracle.cycles,
                  static_cast<std::uint64_t>(bounds.cpLowerBound))
            << inst.name;
    }
}

/* ------------------------------------------------------------------ */
/* Finding emission on hand-built defect programs.                    */
/* ------------------------------------------------------------------ */

TEST(AbsintFindings, ProvableDivisionByZero)
{
    ProgramBuilder pb;
    pb.switchTo(pb.newBlock());
    pb.loadImm(1, 7);
    pb.loadImm(2, 0);
    pb.alu(Opcode::Div, 3, 1, 2);
    pb.halt();
    const Program p = pb.build();
    const Cfg cfg(p);
    EXPECT_TRUE(hasFinding(analyzeProgram(p, cfg).findings,
                           FindingCode::IntervalDivByZero));
}

TEST(AbsintFindings, ShiftAmountOutsideRange)
{
    ProgramBuilder pb;
    pb.switchTo(pb.newBlock());
    pb.loadImm(1, 1);
    pb.aluImm(Opcode::ShlI, 2, 1, 70);
    pb.halt();
    const Program p = pb.build();
    const Cfg cfg(p);
    EXPECT_TRUE(hasFinding(analyzeProgram(p, cfg).findings,
                           FindingCode::ShiftRangeExceeded));
}

TEST(AbsintFindings, StaticallyOneSidedBranch)
{
    ProgramBuilder pb;
    const BlockId b0 = pb.newBlock();
    const BlockId b1 = pb.newBlock();
    const BlockId b2 = pb.newBlock();
    pb.switchTo(b0);
    pb.loadImm(1, 5);
    pb.branch(Opcode::BranchEq, 1, kZeroReg, b2); // 5 == 0: never
    pb.switchTo(b1);
    pb.nop();
    pb.switchTo(b2);
    pb.halt();
    const Program p = pb.build();
    const Cfg cfg(p);
    EXPECT_TRUE(hasFinding(analyzeProgram(p, cfg).findings,
                           FindingCode::BranchAlwaysSame));
}

TEST(AbsintFindings, LoopWithNoProvableBound)
{
    // The counter advances by a loaded value, so no minimum trip
    // count is provable and the loop is not a counted loop.
    ProgramBuilder pb;
    const BlockId b0 = pb.newBlock();
    const BlockId b1 = pb.newBlock();
    const BlockId b2 = pb.newBlock();
    pb.switchTo(b0);
    pb.loadImm(1, 0);
    pb.loadImm(2, 10);
    pb.switchTo(b1);
    pb.load(3, kZeroReg, 0x200);
    pb.alu(Opcode::Add, 1, 1, 3);
    pb.branch(Opcode::BranchLt, 1, 2, b1);
    pb.switchTo(b2);
    pb.halt();
    const Program p = pb.build();
    const Cfg cfg(p);
    const AbsintResult r = analyzeProgram(p, cfg);
    EXPECT_TRUE(
        hasFinding(r.findings, FindingCode::LoopBoundUnknown));
    EXPECT_TRUE(r.bounds.converged); // widening still terminates
}

TEST(AbsintFindings, CalibratedWorkloadsAreFindingFree)
{
    for (WorkloadId id : allWorkloads())
        EXPECT_TRUE(analyzeWorkload(id, 1).findings.empty())
            << workloadName(id);
}

TEST(AbsintFindings, NormalizeSortsAndDeduplicates)
{
    auto make = [](FindingCode code, BlockId block,
                   std::int32_t instr) {
        Finding f;
        f.code = code;
        f.block = block;
        f.instr = instr;
        f.message = "m";
        return f;
    };
    const std::vector<Finding> base{
        make(FindingCode::IntervalDivByZero, 3, 1),
        make(FindingCode::ShiftRangeExceeded, 1, 0),
        make(FindingCode::IntervalDivByZero, 3, 1), // dup
        make(FindingCode::LoopBoundUnknown, 2, -1),
        make(FindingCode::ShiftRangeExceeded, 1, 0), // dup
    };
    std::vector<Finding> a = base;
    std::vector<Finding> b{base[3], base[0], base[4], base[2],
                           base[1]};
    analysis::normalizeFindings(&a);
    analysis::normalizeFindings(&b);
    ASSERT_EQ(a.size(), 3u);
    ASSERT_EQ(b.size(), 3u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].code, b[i].code) << i;
        EXPECT_EQ(a[i].block, b[i].block) << i;
        EXPECT_EQ(a[i].instr, b[i].instr) << i;
    }
}

/* ------------------------------------------------------------------ */
/* The manifest static_bounds section.                                */
/* ------------------------------------------------------------------ */

TEST(AbsintSection, SectionCarriesEveryWorkloadAndPinnedBounds)
{
    const Json sec = staticBoundsSection(allWorkloads(), 1, 0);
    ASSERT_TRUE(sec.isObject());
    ASSERT_NE(sec.find("schema"), nullptr);
    EXPECT_EQ(sec.find("schema")->asString(), "dee.bounds.v1");
    ASSERT_NE(sec.find("scale"), nullptr);
    EXPECT_EQ(static_cast<int>(sec.find("scale")->asDouble()), 1);
    ASSERT_NE(sec.find("lint"), nullptr);
    const Json *wls = sec.find("workloads");
    ASSERT_NE(wls, nullptr);
    for (const PinnedBound &p : kPinned) {
        const Json *wl = wls->find(p.name);
        ASSERT_NE(wl, nullptr) << p.name;
        const Json *cp = wl->find("cp_lower_bound");
        ASSERT_NE(cp, nullptr) << p.name;
        EXPECT_EQ(static_cast<std::int64_t>(cp->asDouble()),
                  p.cpScale1)
            << p.name;
    }
}

/* ------------------------------------------------------------------ */
/* The static<->dynamic cross-check gates, on hand-built manifests.   */
/* ------------------------------------------------------------------ */

Json
docWithPerfScope(const std::string &workload,
                 const std::string &model, double runs, double cycles)
{
    Json scope = Json::object();
    scope["runs"] = runs;
    scope["sim_cycles"] = cycles;
    Json byModel = Json::object();
    byModel[model] = std::move(scope);
    Json byWl = Json::object();
    byWl[workload] = std::move(byModel);
    Json stats = Json::object();
    stats["perf"] = std::move(byWl);
    Json config = Json::object();
    config["scale"] = std::int64_t{1};
    config["seed"] = std::int64_t{0};
    Json doc = Json::object();
    doc["config"] = std::move(config);
    doc["stats"] = std::move(stats);
    return doc;
}

bool
anyFailureContains(const XcheckResult &res, const std::string &needle)
{
    return std::any_of(res.failures.begin(), res.failures.end(),
                       [&](const std::string &f) {
                           return f.find(needle) != std::string::npos;
                       });
}

TEST(AbsintXcheck, HonestCyclesPassTheCriticalPathGate)
{
    // compress scale 1 has cp_lower 3200; a 5000-cycle mean is legal.
    const XcheckResult res = crossCheckManifest(
        docWithPerfScope("compress", "SP", 1.0, 5000.0));
    EXPECT_TRUE(res.ok()) << res.renderText();
    EXPECT_GE(res.checks, 1u);
}

TEST(AbsintXcheck, DeflatedCyclesFailTheCriticalPathGate)
{
    const XcheckResult res = crossCheckManifest(
        docWithPerfScope("compress", "SP", 1.0, 100.0));
    EXPECT_FALSE(res.ok());
    EXPECT_TRUE(anyFailureContains(res, "cycles_vs_cp_lower"));
    EXPECT_TRUE(
        anyFailureContains(res, "static_bounds.compress.SP"));
}

TEST(AbsintXcheck, ImpossibleOracleIpcFailsTheDataflowGate)
{
    Json doc = docWithPerfScope("compress", "Oracle", 1.0, 100.0);
    doc["stats"]["perf"]["compress"]["Oracle"]["sim_instructions"] =
        50000.0;
    const XcheckResult res = crossCheckManifest(doc);
    EXPECT_TRUE(
        anyFailureContains(res, "oracle_ipc_vs_dataflow_limit"));
}

TEST(AbsintXcheck, EveryRealModelNameIsRecognized)
{
    // xcheck.cc restates the model taxonomy because dee_analysis does
    // not link the simulator; this is the drift guard. A name the
    // checker does not recognize produces a "no recognized model
    // suffix" note and no check.
    std::vector<std::string> names;
    for (ModelKind kind : allModels())
        names.push_back(modelName(kind));
    names.push_back("Levo");
    EXPECT_EQ(names.size(), 9u); // 8 sim models + Levo
    for (const std::string &name : names) {
        const XcheckResult res = crossCheckManifest(
            docWithPerfScope("compress", name, 1.0, 1e9));
        EXPECT_EQ(res.checks, 1u) << name;
        EXPECT_TRUE(res.notes.empty())
            << name << ": " << res.renderText();
        EXPECT_TRUE(res.ok()) << name << ": " << res.renderText();
    }
    const XcheckResult bogus = crossCheckManifest(
        docWithPerfScope("compress", "Bogus", 1.0, 1e9));
    EXPECT_EQ(bogus.checks, 0u);
    EXPECT_FALSE(bogus.notes.empty());
}

TEST(AbsintXcheck, ChecksEveryScopeOfARealManifest)
{
    // The perf scopes xcheck reads are the ones a real run writes:
    // every model through runModel, the manifest built as a tool
    // builds it. One critical-path check per model plus Oracle's IPC
    // check; a manifest whose perf scopes went missing would pass with
    // no check at all.
    const BenchmarkInstance inst = makeInstance(WorkloadId::Compress, 1);
    obs::CellSink sink;
    Json doc;
    {
        obs::IsolationScope scope(sink);
        for (ModelKind kind : allModels()) {
            TwoBitPredictor pred(inst.trace.numStatic);
            ModelRunOptions options;
            options.profileWorkload = inst.name;
            runModel(kind, inst.trace, &inst.cfg, pred, 8, options);
        }
        obs::Manifest manifest("xcheck_test");
        manifest.config()["scale"] = std::int64_t{1};
        manifest.config()["seed"] = std::int64_t{0};
        doc = manifest.toJson(sink.registry);
    }
    const XcheckResult res = crossCheckManifest(doc);
    EXPECT_TRUE(res.ok()) << res.renderText();
    EXPECT_EQ(res.checks, 9u) << res.renderText();
}

Json
profileDoc(const std::string &workload, const std::string &model)
{
    Json doc = Json::object();
    Json config = Json::object();
    config["scale"] = std::int64_t{1};
    config["seed"] = std::int64_t{0};
    doc["config"] = std::move(config);
    Json scope = Json::object();
    scope["workload"] = workload;
    scope["model"] = model;
    Json profile = Json::object();
    profile[workload + "." + model] = std::move(scope);
    doc["profile"] = std::move(profile);
    return doc;
}

Json &
profileScope(Json &doc, const std::string &workload,
             const std::string &model)
{
    return doc["profile"][workload + "." + model];
}

TEST(AbsintXcheck, SinglePathModelsMayOwnNoDeeSlots)
{
    Json doc = profileDoc("compress", "SP");
    profileScope(doc, "compress", "SP")["dee_slot_cycles"] = 4.0;
    const XcheckResult res = crossCheckManifest(doc);
    EXPECT_TRUE(anyFailureContains(res, "dee_residency"));

    profileScope(doc, "compress", "SP")["dee_slot_cycles"] = 0.0;
    EXPECT_TRUE(crossCheckManifest(doc).ok());
}

TEST(AbsintXcheck, EagerResidencyIsBoundedByEtMaxTimesCycles)
{
    // E_T_max = 4 and 10000 simulated cycles bound the DEE slot-cycle
    // total at 40000.
    Json doc = docWithPerfScope("compress", "DEE", 1.0, 10000.0);
    Json ets = Json::array();
    ets.push(Json(1.0));
    ets.push(Json(4.0));
    Json results = Json::object();
    results["ets"] = std::move(ets);
    doc["results"] = std::move(results);
    Json scope = Json::object();
    scope["workload"] = "compress";
    scope["model"] = "DEE";
    scope["dee_slot_cycles"] = 40100.0;
    Json profile = Json::object();
    profile["compress.DEE"] = std::move(scope);
    doc["profile"] = std::move(profile);

    const XcheckResult over = crossCheckManifest(doc);
    EXPECT_TRUE(anyFailureContains(over, "dee_residency"))
        << over.renderText();

    profileScope(doc, "compress", "DEE")["dee_slot_cycles"] = 39000.0;
    const XcheckResult under = crossCheckManifest(doc);
    EXPECT_TRUE(under.ok()) << under.renderText();
}

Json
brandedBranchDoc(double executions, double mispredicts)
{
    // compress's banded loop-test branch is sid 0x20 (block B6,
    // minTrip 3200): under the stock 2-bit predictor its mispredict
    // rate is statically bounded near zero.
    Json doc = profileDoc("compress", "SP");
    Json row = Json::object();
    row["pc"] = static_cast<double>(0x20);
    row["executions"] = executions;
    row["mispredicts"] = mispredicts;
    Json branches = Json::object();
    branches["0x20"] = std::move(row);
    profileScope(doc, "compress", "SP")["branches"] =
        std::move(branches);
    return doc;
}

TEST(AbsintXcheck, MonotoneBranchMispredictBandIsEnforced)
{
    const XcheckResult bad =
        crossCheckManifest(brandedBranchDoc(3200.0, 3200.0));
    EXPECT_TRUE(anyFailureContains(bad, "branch_0x20.mispredict_band"))
        << bad.renderText();

    const XcheckResult good =
        crossCheckManifest(brandedBranchDoc(3200.0, 3.0));
    EXPECT_TRUE(good.ok()) << good.renderText();
}

TEST(AbsintXcheck, MispredictsNeverExceedExecutions)
{
    const XcheckResult res =
        crossCheckManifest(brandedBranchDoc(10.0, 11.0));
    EXPECT_TRUE(
        anyFailureContains(res, "branch_0x20.mispredict_sanity"));
}

TEST(AbsintXcheck, PredictorOverrideSkipsTheBandChecks)
{
    Json doc = brandedBranchDoc(3200.0, 3200.0);
    doc["config"]["predictor"] = std::string("static");
    const XcheckResult res = crossCheckManifest(doc);
    EXPECT_FALSE(anyFailureContains(res, "mispredict_band"))
        << res.renderText();
    EXPECT_FALSE(res.notes.empty());
}

TEST(AbsintXcheck, SpecTreeCumulativeProbabilityIsCeiled)
{
    Json doc = profileDoc("compress", "DEE");
    Json row = Json::object();
    row["pc"] = static_cast<double>(0x20);
    row["cp_mean"] = 0.9999; // above the 0.995 accuracy clamp
    row["assignments"] = 5.0;
    Json branches = Json::object();
    branches["0x20"] = std::move(row);
    profileScope(doc, "compress", "DEE")["branches"] =
        std::move(branches);
    const XcheckResult res = crossCheckManifest(doc);
    EXPECT_TRUE(anyFailureContains(res, "branch_0x20.spec_cp_bound"))
        << res.renderText();
}

TEST(AbsintXcheck, EmptyManifestNotesNothingCheckable)
{
    const XcheckResult res = crossCheckManifest(Json::object());
    EXPECT_EQ(res.checks, 0u);
    EXPECT_TRUE(res.ok());
    EXPECT_FALSE(res.notes.empty());
}

} // namespace
} // namespace dee
