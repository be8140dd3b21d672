/**
 * @file
 * dee_lint: static verifier + analysis pass over DEE programs.
 *
 * Lints the five workload generators at several scales (default), or
 * any assembled program (--asm), cross-checking measured static
 * profiles against each generator's declared ranges, and audits the
 * speculation-tree builders against Theorem 1's structural invariants.
 * Exits non-zero when any Error-severity finding (or tree violation)
 * is present, so CI can gate on it.
 *
 * With --profile-annotate MANIFEST.json, findings anchored to blocks
 * that a speculation profile (dee.run.v9 "profile" section) shows as
 * hot are ranked first and annotated with their squashed-slot counts,
 * so the warnings most worth fixing lead the report.
 *
 * With --xcheck MANIFEST.json, the measured side of a run manifest is
 * checked against freshly computed static bounds (mean cycles vs the
 * critical-path lower bound, Oracle IPC vs the dataflow limit,
 * mispredict rates vs the predicted band, cp_mean vs the Theorem-1
 * ceiling, DEE slot residency) — any escape is a FAIL line and a
 * non-zero exit.
 *
 * With --baseline BASELINE.json (a committed `dee_lint --json` run),
 * error findings absent from the baseline fail the run, so CI catches
 * newly introduced defects even when the baseline itself is not clean.
 *
 * Examples:
 *   dee_lint                                  # all workloads, scales 1,4,16
 *   dee_lint --workloads eqntott,xlisp --scales 2
 *   dee_lint --asm prog.s --json true
 *   dee_lint --workloads compress --profile-annotate out.json
 *   dee_lint --workloads none --check-trees false --xcheck run.json
 *   dee_lint --max-warn 40 --baseline tools/baselines/lint.json
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/absint/xcheck.hh"
#include "analysis/invariants.hh"
#include "analysis/lint.hh"
#include "common/cli.hh"
#include "common/logging.hh"
#include "core/tree/spec_tree.hh"
#include "isa/assembler.hh"
#include "obs/manifest_diff.hh"
#include "obs/registry.hh"

namespace
{

using namespace dee;
using namespace dee::analysis;

std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> out;
    std::istringstream iss(csv);
    std::string item;
    while (std::getline(iss, item, ',')) {
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

/** One tree-builder audit: structural violations + optimality gap. */
struct TreeAudit
{
    std::string builder;
    double p = 0.0;
    int budget = 0;
    std::vector<std::string> violations;
    double gap = 0.0;
    /** Greedy trees must have a non-negative gap (Theorem 1). */
    bool gapChecked = false;

    bool failed() const
    {
        return !violations.empty() || (gapChecked && gap < -1e-9);
    }
};

std::vector<TreeAudit>
auditTrees()
{
    std::vector<TreeAudit> audits;
    const double ps[] = {0.7, 0.905, 0.95};
    const int budgets[] = {7, 15, 31};
    for (const double p : ps) {
        for (const int e_t : budgets) {
            struct Builder
            {
                const char *name;
                SpecTree tree;
                bool greedy;
            };
            const Builder builders[] = {
                {"single_path", SpecTree::singlePath(p, e_t), false},
                {"eager", SpecTree::eager(p, e_t), false},
                {"dee_greedy", SpecTree::deeGreedy(p, e_t), true},
                {"dee_static", SpecTree::deeStatic(p, e_t), false},
            };
            for (const Builder &b : builders) {
                TreeAudit audit;
                audit.builder = b.name;
                audit.p = p;
                audit.budget = e_t;
                audit.violations = specTreeViolations(b.tree);
                audit.gap = greedyOptimalityGap(b.tree, p);
                audit.gapChecked = b.greedy;
                audits.push_back(std::move(audit));
            }
        }
    }
    return audits;
}

obs::Json
auditToJson(const TreeAudit &a)
{
    obs::Json j = obs::Json::object();
    j["builder"] = a.builder;
    j["p"] = a.p;
    j["budget"] = a.budget;
    j["gap"] = a.gap;
    j["gap_checked"] = a.gapChecked;
    j["failed"] = a.failed();
    obs::Json v = obs::Json::array();
    for (const std::string &msg : a.violations)
        v.push(msg);
    j["violations"] = std::move(v);
    return j;
}

/** "subject|code|block|instr" — the identity of one error finding for
 *  baseline comparison (messages may legitimately vary). */
std::string
findingKey(const std::string &subject, const std::string &code,
           std::int64_t block, std::int64_t instr)
{
    std::ostringstream oss;
    oss << subject << "|" << code << "|" << block << "|" << instr;
    return oss.str();
}

/** Error-finding keys of a `dee_lint --json` document. */
std::set<std::string>
baselineErrorKeys(const obs::Json &doc)
{
    std::set<std::string> keys;
    const obs::Json *subjects = doc.find("subjects");
    if (subjects == nullptr || !subjects->isArray())
        return keys;
    for (const obs::Json &subject : subjects->items()) {
        const obs::Json *name = subject.find("subject");
        const obs::Json *findings = subject.find("findings");
        if (name == nullptr || findings == nullptr ||
            !findings->isArray())
            continue;
        for (const obs::Json &f : findings->items()) {
            const obs::Json *sev = f.find("severity");
            const obs::Json *code = f.find("code");
            if (sev == nullptr || code == nullptr ||
                sev->asString() != "error")
                continue;
            const obs::Json *block = f.find("block");
            const obs::Json *instr = f.find("instr");
            keys.insert(findingKey(
                name->asString(), code->asString(),
                block != nullptr && block->isNumber()
                    ? static_cast<std::int64_t>(block->asDouble())
                    : -1,
                instr != nullptr && instr->isNumber()
                    ? static_cast<std::int64_t>(instr->asDouble())
                    : -1));
        }
    }
    return keys;
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli("Static verifier and analysis pass for DEE programs.");
    cli.flag("workloads", "all",
             "comma list of generators to lint, 'all', or 'none'");
    cli.flag("scales", "1,4,16", "comma list of workload scales");
    cli.flag("asm", "", "lint an assembly file instead of generators");
    cli.flag("json", "false", "emit a single JSON document");
    cli.flag("check-trees", "true",
             "audit the speculation-tree builders (Theorem 1)");
    cli.flag("stats", "false", "dump the lint.* stats registry");
    cli.flag("profile-annotate", "",
             "rank findings by speculation heat using the \"profile\" "
             "section of this dee.run.v9 manifest");
    cli.flag("seed", "0", "workload generator seed");
    cli.flag("xcheck", "",
             "cross-check this run manifest's measured values against "
             "the static bounds; FAIL lines exit non-zero");
    cli.flag("max-warn", "-1",
             "fail when warnings exceed this budget (-1 = no budget)");
    cli.flag("baseline", "",
             "committed `dee_lint --json` document; error findings "
             "not present in it fail the run");
    cli.parse(argc, argv);

    const bool json = cli.boolean("json");
    const std::uint64_t seed = static_cast<std::uint64_t>(
        std::strtoull(cli.str("seed").c_str(), nullptr, 10));

    std::vector<LintReport> reports;
    if (!cli.str("asm").empty()) {
        reports.push_back(lintProgram(cli.str("asm"),
                                      parseAssemblyFileUnchecked(
                                          cli.str("asm"))));
    } else if (cli.str("workloads") != "none") {
        std::vector<WorkloadId> ids;
        if (cli.str("workloads") == "all") {
            ids = allWorkloads();
        } else {
            for (const std::string &name : splitList(cli.str("workloads")))
                ids.push_back(workloadByName(name));
        }
        std::vector<int> scales;
        for (const std::string &s : splitList(cli.str("scales"))) {
            const int scale = std::atoi(s.c_str());
            if (scale <= 0)
                dee_fatal("bad scale '", s, "'");
            scales.push_back(scale);
        }
        for (const WorkloadId id : ids)
            for (const int scale : scales)
                reports.push_back(lintWorkload(id, scale, seed));
    }
    if (!cli.str("profile-annotate").empty()) {
        obs::LoadedManifest manifest;
        std::string err;
        if (!obs::loadManifestFile(cli.str("profile-annotate"),
                                   &manifest, &err))
            dee_fatal("--profile-annotate: ", err);
        const obs::Json *profile = manifest.doc.find("profile");
        if (profile == nullptr) {
            dee_inform("--profile-annotate: manifest has no "
                       "\"profile\" section (run with --profile?); "
                       "findings keep their static order");
        } else {
            std::size_t annotated = 0;
            for (LintReport &report : reports)
                annotated += annotateWithProfile(&report, *profile);
            dee_inform("--profile-annotate: ", annotated,
                       " finding(s) matched hot branches");
        }
    }
    for (const LintReport &report : reports)
        recordLintStats(report);

    std::vector<TreeAudit> audits;
    if (cli.boolean("check-trees"))
        audits = auditTrees();

    absint::XcheckResult xcheck;
    const bool xchecked = !cli.str("xcheck").empty();
    if (xchecked) {
        obs::LoadedManifest manifest;
        std::string err;
        if (!obs::loadManifestFile(cli.str("xcheck"), &manifest, &err))
            dee_fatal("--xcheck: ", err);
        xcheck = absint::crossCheckManifest(manifest.doc);
    }

    // Error findings the committed baseline does not already carry.
    std::vector<std::string> new_errors;
    if (!cli.str("baseline").empty()) {
        std::ifstream in(cli.str("baseline"));
        if (!in)
            dee_fatal("--baseline: cannot open '", cli.str("baseline"),
                      "'");
        std::stringstream buf;
        buf << in.rdbuf();
        obs::Json base;
        std::string err;
        if (!obs::Json::parse(buf.str(), &base, &err))
            dee_fatal("--baseline: ", err);
        const std::set<std::string> known = baselineErrorKeys(base);
        for (const LintReport &report : reports) {
            for (const Finding &f : report.findings) {
                if (f.severity() != Severity::Error)
                    continue;
                const std::string key = findingKey(
                    report.subject, findingCodeName(f.code),
                    f.block == Finding::kNoBlock
                        ? -1
                        : static_cast<std::int64_t>(f.block),
                    f.instr);
                if (known.count(key) == 0)
                    new_errors.push_back(key);
            }
        }
    }

    std::size_t errors = 0;
    std::size_t warnings = 0;
    for (const LintReport &report : reports) {
        errors += countAtSeverity(report.findings, Severity::Error);
        warnings += countAtSeverity(report.findings, Severity::Warning);
    }
    std::size_t tree_failures = 0;
    for (const TreeAudit &a : audits)
        tree_failures += a.failed() ? 1 : 0;

    const long max_warn = std::strtol(cli.str("max-warn").c_str(),
                                      nullptr, 10);
    const bool over_warn_budget =
        max_warn >= 0 && warnings > static_cast<std::size_t>(max_warn);

    // With a baseline, pre-existing errors are the baseline's problem;
    // only *new* ones (plus everything else) dirty the run.
    const bool errors_gate =
        cli.str("baseline").empty() ? errors != 0 : !new_errors.empty();
    const bool clean = !errors_gate && tree_failures == 0 &&
                       xcheck.ok() && !over_warn_budget;

    if (json) {
        obs::Json doc = obs::Json::object();
        obs::Json subjects = obs::Json::array();
        for (const LintReport &report : reports)
            subjects.push(report.toJson());
        doc["subjects"] = std::move(subjects);
        obs::Json trees = obs::Json::array();
        for (const TreeAudit &a : audits)
            trees.push(auditToJson(a));
        doc["trees"] = std::move(trees);
        doc["errors"] = static_cast<std::int64_t>(errors);
        doc["warnings"] = static_cast<std::int64_t>(warnings);
        doc["tree_failures"] = static_cast<std::int64_t>(tree_failures);
        if (xchecked) {
            obs::Json x = obs::Json::object();
            obs::Json fails = obs::Json::array();
            for (const std::string &f : xcheck.failures)
                fails.push(f);
            x["failures"] = std::move(fails);
            obs::Json notes = obs::Json::array();
            for (const std::string &n : xcheck.notes)
                notes.push(n);
            x["notes"] = std::move(notes);
            x["checks"] =
                static_cast<std::int64_t>(xcheck.checks);
            doc["xcheck"] = std::move(x);
        }
        if (!cli.str("baseline").empty()) {
            obs::Json fresh = obs::Json::array();
            for (const std::string &key : new_errors)
                fresh.push(key);
            doc["baseline_new_errors"] = std::move(fresh);
        }
        doc["clean"] = clean;
        std::cout << doc.dump(2) << "\n";
    } else {
        for (const LintReport &report : reports)
            std::cout << report.renderText();
        if (!audits.empty()) {
            std::cout << "== tree audit: " << audits.size()
                      << " builder instances ==\n";
            for (const TreeAudit &a : audits) {
                if (!a.failed())
                    continue;
                std::cout << "  FAIL " << a.builder << " p=" << a.p
                          << " e_t=" << a.budget << "\n";
                for (const std::string &msg : a.violations)
                    std::cout << "    " << msg << "\n";
                if (a.gapChecked && a.gap < -1e-9)
                    std::cout << "    optimality gap " << a.gap
                              << " < 0\n";
            }
            std::cout << "  " << tree_failures << " failure(s)\n";
        }
        if (xchecked) {
            std::cout << "== xcheck: " << cli.str("xcheck") << " ==\n"
                      << xcheck.renderText();
        }
        for (const std::string &key : new_errors)
            std::cout << "NEW error vs baseline: " << key << "\n";
        if (over_warn_budget) {
            std::cout << "warning budget exceeded: " << warnings
                      << " > --max-warn " << max_warn << "\n";
        }
        std::cout << "dee_lint: " << reports.size() << " subject(s), "
                  << errors << " error(s), " << warnings
                  << " warning(s)" << (clean ? " -- clean" : " -- DIRTY")
                  << "\n";
    }

    if (cli.boolean("stats"))
        std::cout << obs::Registry::global().renderText();

    return clean ? EXIT_SUCCESS : EXIT_FAILURE;
}
