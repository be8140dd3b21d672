#include "analysis/lint.hh"

#include <algorithm>
#include <iomanip>
#include <numeric>
#include <sstream>
#include <unordered_map>

#include "analysis/verifier.hh"
#include "cfg/cfg.hh"
#include "common/logging.hh"
#include "obs/registry.hh"
#include "workloads/profiles.hh"

namespace dee::analysis
{

std::string
LintReport::renderText() const
{
    std::ostringstream oss;
    oss << "== lint: " << subject << " ==\n";
    for (const Finding &f : findings)
        oss << "  " << f.render() << "\n";

    const std::size_t errors =
        countAtSeverity(findings, Severity::Error);
    const std::size_t warnings =
        countAtSeverity(findings, Severity::Warning);
    oss << "  " << errors << " error(s), " << warnings
        << " warning(s)\n";

    if (profiled) {
        oss << std::fixed << std::setprecision(3);
        oss << "  profile: blocks=" << profile.blocks
            << " instrs=" << profile.instrs
            << " branch_density=" << profile.branchDensity
            << " loops=" << profile.loopCount << " nest="
            << profile.maxLoopNest << "\n"
            << "           mean_dep_distance="
            << profile.meanDepDistance
            << " max_block_ilp=" << profile.maxBlockIlp
            << " serialized_ilp=" << profile.serializedIlpBound
            << "\n";
    }
    if (boundsComputed) {
        oss << "  bounds: cp_lower=" << bounds.cpLowerBound
            << " spec_cp_max=" << bounds.specCpMax
            << " converged=" << (bounds.converged ? 1 : 0) << "\n";
    }
    return oss.str();
}

obs::Json
LintReport::toJson() const
{
    obs::Json j = obs::Json::object();
    j["subject"] = subject;
    j["clean"] = clean();
    obs::Json arr = obs::Json::array();
    for (const Finding &f : findings)
        arr.push(f.toJson());
    j["findings"] = std::move(arr);
    if (profiled)
        j["profile"] = profile.toJson();
    if (boundsComputed)
        j["bounds"] = bounds.toJson();
    return j;
}

LintReport
lintProgram(const std::string &subject, const Program &program)
{
    LintReport report;
    report.subject = subject;
    report.findings = verifyProgram(program);

    // The structural analyses (Cfg, dominators, loops) assume the
    // soundness the verifier just checked; only profile programs that
    // passed.
    if (!anyError(report.findings)) {
        const Cfg cfg(program);
        report.profile = measureStaticProfile(program, cfg);
        report.profiled = true;
        absint::AbsintResult absres = absint::analyzeProgram(program, cfg);
        report.bounds = std::move(absres.bounds);
        report.boundsComputed = true;
        report.findings.insert(report.findings.end(),
                               absres.findings.begin(),
                               absres.findings.end());
    }
    normalizeFindings(&report.findings);
    return report;
}

LintReport
lintWorkload(WorkloadId id, int scale, std::uint64_t seed)
{
    std::ostringstream subject;
    subject << workloadName(id) << " scale=" << scale;
    if (seed != 0)
        subject << " seed=" << seed;
    LintReport report =
        lintProgram(subject.str(), makeWorkload(id, scale, seed));
    if (report.profiled) {
        const std::vector<Finding> drift = crossCheckProfile(
            report.profile, declaredStaticProfile(id));
        report.findings.insert(report.findings.end(), drift.begin(),
                               drift.end());
    }
    // The critical-path lower bound is a function of the loop-limit
    // immediates, so it is only declared at the calibrated template
    // (scale 1, seed 0).
    if (report.boundsComputed && scale == 1 && seed == 0) {
        const PropertyRange declared =
            declaredStaticProfile(id).cpLowerScale1;
        const double measured =
            static_cast<double>(report.bounds.cpLowerBound);
        if (!declared.contains(measured)) {
            std::ostringstream msg;
            msg << "cp_lower_bound measured " << measured
                << " outside declared range [" << declared.lo << ", "
                << declared.hi << "]";
            report.findings.push_back(
                {FindingCode::ProfileDrift, Finding::kNoBlock,
                 Finding::kNoInstr, msg.str()});
        }
    }
    normalizeFindings(&report.findings);
    return report;
}

std::size_t
annotateWithProfile(LintReport *report,
                    const obs::Json &profile_section)
{
    dee_assert(report != nullptr, "annotateWithProfile needs a report");
    if (!profile_section.isObject())
        return 0;

    // The subject's first token names the workload ("eqntott scale=4"
    // -> "eqntott"); profile scopes are "<workload>.<model>".
    const std::string workload =
        report->subject.substr(0, report->subject.find(' '));

    std::unordered_map<std::int64_t, std::uint64_t> heat;
    for (const auto &[scope, prof] : profile_section.members()) {
        if (!prof.isObject())
            continue;
        bool matches = scope == workload ||
                       scope.rfind(workload + ".", 0) == 0;
        if (const obs::Json *wl = prof.find("workload");
            !matches && wl != nullptr &&
            wl->kind() == obs::Json::Kind::String)
            matches = wl->asString() == workload;
        if (!matches)
            continue;
        const obs::Json *branches = prof.find("branches");
        if (branches == nullptr || !branches->isObject())
            continue;
        for (const auto &[pc, b] : branches->members()) {
            (void)pc;
            if (!b.isObject())
                continue;
            const obs::Json *block = b.find("block");
            const obs::Json *slots = b.find("squashed_slots");
            if (block == nullptr || !block->isNumber() ||
                slots == nullptr || !slots->isNumber())
                continue;
            heat[static_cast<std::int64_t>(block->asDouble())] +=
                static_cast<std::uint64_t>(slots->asDouble());
        }
    }
    if (heat.empty())
        return 0;

    std::size_t annotated = 0;
    std::vector<std::uint64_t> finding_heat(report->findings.size(), 0);
    for (std::size_t i = 0; i < report->findings.size(); ++i) {
        Finding &f = report->findings[i];
        if (f.block == Finding::kNoBlock)
            continue;
        const auto it = heat.find(static_cast<std::int64_t>(f.block));
        if (it == heat.end() || it->second == 0)
            continue;
        finding_heat[i] = it->second;
        f.message += " [profile: " + std::to_string(it->second) +
                     " squashed slots]";
        ++annotated;
    }

    // Hot findings first, hottest leading; ties and cold findings keep
    // their original relative order.
    std::vector<std::size_t> order(report->findings.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&finding_heat](std::size_t a, std::size_t b) {
                         return finding_heat[a] > finding_heat[b];
                     });
    std::vector<Finding> ranked;
    ranked.reserve(report->findings.size());
    for (const std::size_t i : order)
        ranked.push_back(std::move(report->findings[i]));
    report->findings = std::move(ranked);
    return annotated;
}

void
recordLintStats(const LintReport &report)
{
    obs::Registry &reg = obs::Registry::global();
    ++reg.counter("lint.programs");
    reg.counter("lint.errors") +=
        countAtSeverity(report.findings, Severity::Error);
    reg.counter("lint.warnings") +=
        countAtSeverity(report.findings, Severity::Warning);
    reg.counter("lint.info") +=
        countAtSeverity(report.findings, Severity::Info);
    for (const Finding &f : report.findings) {
        ++reg.counter(std::string("lint.findings.") +
                      findingCodeName(f.code));
    }
}

} // namespace dee::analysis
