#include "analysis/absint/xcheck.hh"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/absint/bounds.hh"
#include "cfg/cfg.hh"
#include "workloads/workloads.hh"

namespace dee::analysis::absint
{

namespace
{

using obs::Json;

/* The model taxonomy. dee_analysis deliberately does not link the
 * simulator library, so the names are restated here; test_absint
 * cross-checks this list against core/sim's modelName() so the two can
 * never drift silently. */
bool
isSinglePathModel(const std::string &m)
{
    return m == "SP" || m == "SP-CD" || m == "SP-CD-MF";
}

bool
isEagerModel(const std::string &m)
{
    return m == "EE" || m == "DEE" || m == "DEE-CD" ||
           m == "DEE-CD-MF";
}

bool
isKnownModel(const std::string &m)
{
    return isSinglePathModel(m) || isEagerModel(m) || m == "Oracle" ||
           m == "Levo";
}

/** Numeric member lookup; false when absent or non-numeric. */
bool
numberField(const Json &node, const std::string &key, double *out)
{
    const Json *v = node.find(key);
    if (v == nullptr || !v->isNumber())
        return false;
    *out = v->asDouble();
    return true;
}

/** Reads a config value that the Session stores as a CLI string but a
 *  hand-built manifest may carry as a number. */
bool
configInt(const Json *config, const std::string &key,
          std::int64_t *out)
{
    if (config == nullptr || !config->isObject())
        return false;
    const Json *v = config->find(key);
    if (v == nullptr)
        return false;
    if (v->isNumber()) {
        *out = static_cast<std::int64_t>(v->asDouble());
        return true;
    }
    if (v->kind() != Json::Kind::String)
        return false;
    const std::string &s = v->asString();
    if (s.empty())
        return false;
    char *end = nullptr;
    const long long parsed = std::strtoll(s.c_str(), &end, 10);
    if (end == nullptr || *end != '\0')
        return false;
    *out = parsed;
    return true;
}

std::vector<std::string>
splitDots(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (true) {
        const std::size_t dot = s.find('.', start);
        if (dot == std::string::npos) {
            out.push_back(s.substr(start));
            return out;
        }
        out.push_back(s.substr(start, dot - start));
        start = dot + 1;
    }
}

std::string
fmtNum(double v)
{
    std::ostringstream oss;
    oss.precision(12);
    oss << v;
    return oss.str();
}

/** Shared context for one crossCheckManifest() call. */
struct Checker
{
    XcheckResult res;
    std::set<std::string> workloadNames;
    std::map<std::pair<std::string, int>, StaticBounds> cache;
    std::int64_t scale = 1;
    std::int64_t seed = 0;
    std::string cfgWorkload;
    bool bandEligible = true;
    /** perf scope path -> (runs, sim_cycles); feeds the residency
     *  checks, which need cycles the profile section does not carry. */
    std::map<std::string, std::pair<double, double>> perfScopes;

    const StaticBounds &boundsFor(const std::string &wl)
    {
        const auto key = std::make_pair(wl, static_cast<int>(scale));
        auto it = cache.find(key);
        if (it == cache.end()) {
            const Program program =
                makeWorkload(workloadByName(wl),
                             static_cast<int>(scale),
                             static_cast<std::uint64_t>(seed));
            const Cfg cfg(program);
            it = cache
                     .emplace(key,
                              analyzeProgram(program, cfg).bounds)
                     .first;
        }
        return it->second;
    }

    void fail(const std::string &wl, const std::string &model,
              const std::string &check, const std::string &detail,
              const std::string &scope)
    {
        res.failures.push_back("FAIL static_bounds." + wl + "." +
                               model + "." + check + ": " + detail +
                               " (scope " + scope + ")");
    }

    void note(const std::string &text) { res.notes.push_back(text); }

    /** Maps a scope to its workload, or empty + a note. */
    std::string workloadOf(const std::string &scope,
                           const std::string &hint)
    {
        if (!hint.empty() && workloadNames.count(hint) != 0)
            return hint;
        const std::string head = scope.substr(0, scope.find('.'));
        if (workloadNames.count(head) != 0)
            return head;
        if (workloadNames.count(cfgWorkload) != 0)
            return cfgWorkload;
        note("scope '" + scope +
             "' not mapped to a workload; skipped");
        return std::string();
    }
};

/** Checks one perf scope (an object with a numeric "runs"). */
void
checkPerfScope(Checker &ck, const std::string &path, const Json &node)
{
    double runs = 0.0;
    double cycles = 0.0;
    double instrs = 0.0;
    numberField(node, "runs", &runs);
    const bool have_cycles = numberField(node, "sim_cycles", &cycles);
    numberField(node, "sim_instructions", &instrs);
    ck.perfScopes[path] = {runs, cycles};
    if (runs <= 0.0 || !have_cycles)
        return;

    const std::vector<std::string> tokens = splitDots(path);
    const std::string model = tokens.back();
    if (!isKnownModel(model)) {
        ck.note("perf scope '" + path +
                "' has no recognized model suffix; skipped");
        return;
    }
    const std::string wl = ck.workloadOf(path, std::string());
    if (wl.empty())
        return;
    const StaticBounds &bounds = ck.boundsFor(wl);
    const double cp = static_cast<double>(bounds.cpLowerBound);

    // (a) No model — Oracle and Levo included — can finish a run in
    // fewer cycles than the serial counter chains demand.
    const double mean_cycles = cycles / runs;
    ++ck.res.checks;
    if (mean_cycles + 0.5 < cp) {
        ck.fail(wl, model, "cycles_vs_cp_lower",
                "measured mean cycles " + fmtNum(mean_cycles) +
                    " < static critical-path lower bound " +
                    fmtNum(cp),
                path);
    }

    // (b) The Oracle's IPC is the dataflow limit; the static bound says
    // it cannot exceed instructions-per-run over the critical path.
    if (model == "Oracle" && cycles > 0.0 && instrs > 0.0) {
        const double ipc = instrs / cycles;
        const double limit = (instrs / runs) / cp;
        ++ck.res.checks;
        if (ipc > limit + 1e-9) {
            ck.fail(wl, model, "oracle_ipc_vs_dataflow_limit",
                    "measured IPC " + fmtNum(ipc) +
                        " > static dataflow limit " + fmtNum(limit),
                    path);
        }
    }
}

/** Walks stats.perf, treating any object that carries a numeric
 *  "runs" as one metered scope. */
void
walkPerfScopes(Checker &ck, const std::string &prefix, const Json &node)
{
    for (const auto &[name, child] : node.members()) {
        if (!child.isObject())
            continue;
        const std::string path =
            prefix.empty() ? name : prefix + "." + name;
        const Json *runs = child.find("runs");
        if (runs != nullptr && runs->isNumber())
            checkPerfScope(ck, path, child);
        else
            walkPerfScopes(ck, path, child);
    }
}

/** Checks one profile scope: mispredict bands, cp ceiling, residency. */
void
checkProfileScope(Checker &ck, const std::string &scopeName,
                  const Json &p, double et_max)
{
    std::string hint;
    std::string model;
    if (const Json *w = p.find("workload");
        w != nullptr && w->kind() == Json::Kind::String)
        hint = w->asString();
    if (const Json *m = p.find("model");
        m != nullptr && m->kind() == Json::Kind::String)
        model = m->asString();
    if (model.empty())
        model = splitDots(scopeName).back();
    if (!isKnownModel(model)) {
        ck.note("profile scope '" + scopeName +
                "' has no recognized model; skipped");
        return;
    }
    const std::string wl = ck.workloadOf(scopeName, hint);
    if (wl.empty())
        return;
    const StaticBounds &bounds = ck.boundsFor(wl);

    std::map<std::uint64_t, const BranchBound *> by_sid;
    for (const BranchBound &b : bounds.branches)
        by_sid[b.sid] = &b;

    // Levo carries its own confidence/prediction machinery, so only
    // the sanity check applies to its branch rows.
    const bool stock_predictor = ck.bandEligible && model != "Levo";

    if (const Json *branches = p.find("branches");
        branches != nullptr && branches->isObject()) {
        for (const auto &[pcKey, b] : branches->members()) {
            if (!b.isObject())
                continue;
            double pc = 0.0;
            if (!numberField(b, "pc", &pc))
                continue;
            double exec = 0.0;
            double misp = 0.0;
            const bool have_exec =
                numberField(b, "executions", &exec);
            const bool have_misp =
                numberField(b, "mispredicts", &misp);

            // Universal sanity: a site cannot mispredict more often
            // than it executes.
            if (have_exec && have_misp) {
                ++ck.res.checks;
                if (misp > exec) {
                    ck.fail(wl, model,
                            "branch_" + pcKey + ".mispredict_sanity",
                            "measured mispredicts " + fmtNum(misp) +
                                " > executions " + fmtNum(exec),
                            scopeName);
                }
            }

            // (c) Provably-monotone loop tests under the stock 2-bit
            // predictor must stay inside the predicted band.
            const auto it =
                by_sid.find(static_cast<std::uint64_t>(pc));
            const BranchBound *bb =
                it == by_sid.end() ? nullptr : it->second;
            if (stock_predictor && bb != nullptr && bb->banded &&
                have_exec && have_misp && exec >= 16.0) {
                const double rate = misp / exec;
                ++ck.res.checks;
                if (rate > bb->mispredictHi + 1e-9) {
                    ck.fail(wl, model,
                            "branch_" + pcKey + ".mispredict_band",
                            "measured mispredict rate " +
                                fmtNum(rate) +
                                " > static band " +
                                fmtNum(bb->mispredictHi),
                            scopeName);
                }
            }

            // (d) Theorem 1: cp = p^depth with p clamped to 0.995, so
            // no assignment population can average above the ceiling.
            double cp_mean = 0.0;
            double assignments = 0.0;
            if (model != "Levo" &&
                numberField(b, "cp_mean", &cp_mean) &&
                numberField(b, "assignments", &assignments) &&
                assignments > 0.0) {
                ++ck.res.checks;
                if (cp_mean > bounds.specCpMax + 1e-6) {
                    ck.fail(wl, model,
                            "branch_" + pcKey + ".spec_cp_bound",
                            "measured cp_mean " + fmtNum(cp_mean) +
                                " > static cumulative-probability "
                                "bound " +
                                fmtNum(bounds.specCpMax),
                            scopeName);
                }
            }
        }
    }

    // (e) DEE residency. Single-path models own no DEE slots at all;
    // eager models own at most E_T_max slot-cycles per simulated cycle.
    double dee_slot = 0.0;
    if (!numberField(p, "dee_slot_cycles", &dee_slot))
        return;
    if (isSinglePathModel(model)) {
        ++ck.res.checks;
        if (dee_slot != 0.0) {
            ck.fail(wl, model, "dee_residency",
                    "measured dee_slot_cycles " + fmtNum(dee_slot) +
                        " > static single-path bound 0",
                    scopeName);
        }
    } else if (isEagerModel(model) && et_max > 0.0) {
        const auto it = ck.perfScopes.find(scopeName);
        if (it == ck.perfScopes.end() || it->second.second <= 0.0) {
            ck.note("profile scope '" + scopeName +
                    "' has no matching perf scope; residency bound "
                    "skipped");
            return;
        }
        const double bound = et_max * it->second.second;
        ++ck.res.checks;
        if (dee_slot > bound + 0.5) {
            ck.fail(wl, model, "dee_residency",
                    "measured dee_slot_cycles " + fmtNum(dee_slot) +
                        " > static bound E_T_max*cycles " +
                        fmtNum(bound),
                    scopeName);
        }
    }
}

/** Largest numeric element of any "ets" array found under results. */
double
findEtMax(const Json *results)
{
    if (results == nullptr)
        return 0.0;
    double best = 0.0;
    if (results->isObject()) {
        for (const auto &[name, child] : results->members()) {
            if (name == "ets" && child.isArray()) {
                for (const Json &v : child.items())
                    if (v.isNumber() && v.asDouble() > best)
                        best = v.asDouble();
            } else {
                best = std::max(best, findEtMax(&child));
            }
        }
    } else if (results->isArray()) {
        for (const Json &v : results->items())
            best = std::max(best, findEtMax(&v));
    }
    return best;
}

} // namespace

std::string
XcheckResult::renderText() const
{
    std::ostringstream oss;
    for (const std::string &f : failures)
        oss << f << "\n";
    for (const std::string &n : notes)
        oss << "note: " << n << "\n";
    oss << "xcheck: " << checks << " bound(s) checked, "
        << failures.size() << " failure(s), " << notes.size()
        << " note(s)\n";
    return oss.str();
}

XcheckResult
crossCheckManifest(const obs::Json &doc)
{
    Checker ck;
    for (const WorkloadId id : allWorkloads())
        ck.workloadNames.insert(workloadName(id));

    const Json *config = doc.find("config");
    if (!configInt(config, "scale", &ck.scale) || ck.scale < 1)
        ck.scale = 1;
    if (!configInt(config, "seed", &ck.seed) || ck.seed < 0)
        ck.seed = 0;
    if (config != nullptr && config->isObject()) {
        if (const Json *w = config->find("workload");
            w != nullptr && w->kind() == Json::Kind::String)
            ck.cfgWorkload = w->asString();
        if (config->find("predictor") != nullptr) {
            ck.bandEligible = false;
            ck.note("config overrides the predictor; mispredict-band "
                    "checks skipped");
        }
    }
    const Json *results = doc.find("results");
    if (results != nullptr && results->isObject() &&
        results->find("predictors") != nullptr && ck.bandEligible) {
        ck.bandEligible = false;
        ck.note("run swept predictors; mispredict-band checks "
                "skipped");
    }

    // Perf scopes first: checks (a)/(b), plus the cycle totals the
    // residency bound (e) needs.
    const Json *stats = doc.find("stats");
    const Json *scopes = stats != nullptr ? stats->find("perf") : nullptr;
    if (scopes != nullptr && scopes->isObject())
        walkPerfScopes(ck, std::string(), *scopes);

    const double et_max = findEtMax(results);
    const Json *profile = doc.find("profile");
    if (profile != nullptr && profile->isObject()) {
        for (const auto &[scopeName, p] : profile->members()) {
            if (p.isObject())
                checkProfileScope(ck, scopeName, p, et_max);
        }
    }

    if (ck.res.checks == 0)
        ck.note("manifest carried no checkable perf/profile scopes");
    return ck.res;
}

} // namespace dee::analysis::absint
