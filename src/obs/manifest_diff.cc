#include "obs/manifest_diff.hh"

#include <cmath>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.hh"
#include "common/table.hh"

namespace dee::obs
{

namespace
{

/**
 * Calls @p visit(path, leaf) for every value under @p node that is not
 * an object or array, in document order; array elements use their
 * index as the path segment.
 */
template <typename Visit>
void
forEachLeaf(const Json &node, const std::string &prefix, Visit &visit)
{
    const auto child = [&prefix](const std::string &segment) {
        return prefix.empty() ? segment : prefix + "." + segment;
    };
    if (node.isObject()) {
        for (const auto &[key, value] : node.members())
            forEachLeaf(value, child(key), visit);
    } else if (node.isArray()) {
        std::size_t i = 0;
        for (const Json &item : node.items())
            forEachLeaf(item, child(std::to_string(i++)), visit);
    } else {
        visit(prefix, node);
    }
}

} // namespace

bool
LoadedManifest::metric(const std::string &key, double *value) const
{
    for (const auto &[metric_path, v] : metrics) {
        if (metric_path == key) {
            if (value)
                *value = v;
            return true;
        }
    }
    return false;
}

void
flattenNumeric(const Json &node, const std::string &prefix,
               std::vector<std::pair<std::string, double>> *out)
{
    dee_assert(out != nullptr, "flattenNumeric needs an output vector");
    auto visit = [out](const std::string &path, const Json &leaf) {
        if (leaf.isNumber())
            out->emplace_back(path, leaf.asDouble());
    };
    forEachLeaf(node, prefix, visit);
}

bool
parseManifest(const std::string &text, const std::string &path,
              LoadedManifest *out, std::string *err)
{
    dee_assert(out != nullptr, "parseManifest needs an output struct");
    Json doc;
    std::string parse_err;
    if (!Json::parse(text, &doc, &parse_err)) {
        if (err)
            *err = path + ": " + parse_err;
        return false;
    }
    if (!doc.isObject()) {
        if (err)
            *err = path + ": manifest root is not an object";
        return false;
    }
    const Json *schema = doc.find("schema");
    if (schema == nullptr ||
        schema->kind() != Json::Kind::String) {
        if (err)
            *err = path + ": missing \"schema\" string";
        return false;
    }
    if (schema->asString() != "dee.run.v7") {
        if (err)
            *err = path + ": unsupported schema '" + schema->asString() +
                   "' (expected dee.run.v7; rerun the tool to "
                   "regenerate it)";
        return false;
    }

    out->path = path;
    out->metrics.clear();
    // Flatten the sections that carry comparable numbers; "schema",
    // "tool" and "config" are identity, not metrics.
    for (const char *section : {"results", "accounting", "trace",
                                "profile", "static_bounds", "hotspots",
                                "stats"}) {
        if (const Json *sub = doc.find(section))
            flattenNumeric(*sub, section, &out->metrics);
    }
    if (const Json *wall = doc.find("wall_clock_ms");
        wall != nullptr && wall->isNumber())
        out->metrics.emplace_back("wall_clock_ms", wall->asDouble());
    out->doc = std::move(doc);
    return true;
}

bool
loadManifestFile(const std::string &path, LoadedManifest *out,
                 std::string *err)
{
    std::ifstream in(path);
    if (!in) {
        if (err)
            *err = path + ": cannot open";
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    return parseManifest(buf.str(), path, out, err);
}

bool
globMatch(const std::string &pattern, const std::string &text)
{
    // Iterative '*' matcher with single-point backtracking.
    std::size_t p = 0, t = 0;
    std::size_t star = std::string::npos, mark = 0;
    while (t < text.size()) {
        if (p < pattern.size() &&
            (pattern[p] == text[t])) {
            ++p;
            ++t;
        } else if (p < pattern.size() && pattern[p] == '*') {
            star = p++;
            mark = t;
        } else if (star != std::string::npos) {
            p = star + 1;
            t = ++mark;
        } else {
            return false;
        }
    }
    while (p < pattern.size() && pattern[p] == '*')
        ++p;
    return p == pattern.size();
}

Json
withoutHostMeasured(const Json &doc)
{
    // Host timings, machine resources and sampler output: they differ
    // from run to run by nature, and nothing simulated lives under them.
    static const std::unordered_set<std::string> kHostMeasured = {
        "run_ms",    "wall_clock_ms", "runner",    "jobs",     "perf",
        "host_perf", "telemetry",     "heartbeat", "hotspots", "hot",
    };
    if (doc.isObject()) {
        Json out = Json::object();
        for (const auto &[key, value] : doc.members()) {
            if (kHostMeasured.count(key) == 0)
                out[key] = withoutHostMeasured(value);
        }
        return out;
    }
    if (doc.isArray()) {
        Json out = Json::array();
        for (const Json &item : doc.items())
            out.push(withoutHostMeasured(item));
        return out;
    }
    return doc;
}

std::string
GateItem::line() const
{
    return (fail ? "FAIL " : "WARN ") + metric + ": " + detail;
}

namespace
{

/** Relative growth of a host phase's self share that warns, before its
 *  counting error is added. */
constexpr double kHotspotThreshold = 0.25;

/** Phases with fewer candidate self samples never warn: a share
 *  counted from a handful of samples is noise. */
constexpr double kHotspotMinSamples = 50.0;

/** Every leaf of @p doc outside the host-measured keys as (dotted
 *  path, JSON text), in document order. */
std::vector<std::pair<std::string, std::string>>
exactLeaves(const Json &doc)
{
    std::vector<std::pair<std::string, std::string>> leaves;
    auto visit = [&leaves](const std::string &path, const Json &leaf) {
        leaves.emplace_back(path, leaf.dump());
    };
    forEachLeaf(withoutHostMeasured(doc), "", visit);
    return leaves;
}

/** The sampled phases of @p doc's "hotspots" section; null when the
 *  run did not sample. */
const Json *
hotspotPhases(const Json &doc)
{
    const Json *section = doc.find("hotspots");
    const Json *phases =
        section != nullptr ? section->find("phases") : nullptr;
    return phases != nullptr && phases->isObject() ? phases : nullptr;
}

/** A numeric member of a phase entry; 0 when either is absent. */
double
phaseNumber(const Json *entry, const char *key)
{
    const Json *value = entry != nullptr ? entry->find(key) : nullptr;
    return value != nullptr && value->isNumber() ? value->asDouble()
                                                 : 0.0;
}

/**
 * Appends a WARN for every candidate host phase whose self share grew
 * by more than kHotspotThreshold plus its 3-sigma counting error. Both
 * shares are Poisson count estimates, so a 60-sample phase needs a far
 * bigger jump than a 600-sample one; the threshold alone carries the
 * run-to-run drift (scheduling, frequency) that counting error
 * ignores. A phase new to the candidate counts its whole share as
 * growth.
 */
void
appendHotspotWarnings(const Json &baseline, const Json &candidate,
                      std::vector<GateItem> *items)
{
    const Json *base_phases = hotspotPhases(baseline);
    const Json *cand_phases = hotspotPhases(candidate);
    if (base_phases == nullptr || cand_phases == nullptr)
        return;
    for (const auto &[phase, entry] : cand_phases->members()) {
        const double cand_self = phaseNumber(&entry, "self");
        if (cand_self < kHotspotMinSamples)
            continue;
        const Json *base_entry = base_phases->find(phase);
        const double base_self = phaseNumber(base_entry, "self");
        const double base_pct = phaseNumber(base_entry, "self_pct");
        const double cand_pct = phaseNumber(&entry, "self_pct");
        const double growth =
            (cand_pct - base_pct) / (base_pct > 0.0 ? base_pct : 100.0);
        const double noise =
            3.0 * std::sqrt((base_self > 0.0 ? 1.0 / base_self : 0.0) +
                            1.0 / cand_self);
        if (growth <= kHotspotThreshold + noise)
            continue;
        items->push_back(
            {false, "hotspots.phases." + phase + ".self_pct",
             "host self share " + Table::fmt(base_pct, 2) + "% -> " +
                 Table::fmt(cand_pct, 2) + "% (" +
                 Table::fmtPercent(growth, 2) + ", tolerance " +
                 Table::fmtPercent(kHotspotThreshold, 2) +
                 " + 3-sigma " + Table::fmtPercent(noise, 2) + ")"});
    }
}

} // namespace

std::vector<GateItem>
checkManifest(const LoadedManifest &baseline,
              const LoadedManifest &candidate)
{
    const auto base = exactLeaves(baseline.doc);
    const auto cand = exactLeaves(candidate.doc);
    // Candidate leaves not yet matched to a baseline leaf.
    std::unordered_map<std::string, const std::string *> unmatched;
    unmatched.reserve(cand.size());
    for (const auto &[path, text] : cand)
        unmatched.emplace(path, &text);

    std::vector<GateItem> items;
    for (const auto &[path, text] : base) {
        const auto it = unmatched.find(path);
        if (it == unmatched.end()) {
            items.push_back(
                {true, path, "baseline " + text + ", candidate missing"});
            continue;
        }
        if (*it->second != text) {
            items.push_back({true, path,
                             "baseline " + text + ", candidate " +
                                 *it->second});
        }
        unmatched.erase(it);
    }
    for (const auto &[path, text] : cand) {
        if (unmatched.count(path) != 0) {
            items.push_back(
                {true, path, "baseline missing, candidate " + text});
        }
    }
    appendHotspotWarnings(baseline.doc, candidate.doc, &items);
    return items;
}

namespace
{

/** Short column label: strip directories and a trailing ".json". */
std::string
columnLabel(const std::string &path)
{
    std::string label = path;
    if (const std::size_t slash = label.find_last_of('/');
        slash != std::string::npos)
        label = label.substr(slash + 1);
    if (label.size() > 5 &&
        label.compare(label.size() - 5, 5, ".json") == 0)
        label = label.substr(0, label.size() - 5);
    return label;
}

} // namespace

std::string
renderManifestDiff(const std::vector<LoadedManifest> &manifests,
                   const std::string &filter)
{
    dee_assert(!manifests.empty(), "nothing to diff");

    // Row order: first manifest's document order, then metrics only
    // later manifests have, in theirs.
    std::vector<std::string> order;
    for (const LoadedManifest &m : manifests) {
        for (const auto &[path, value] : m.metrics) {
            (void)value;
            if (!filter.empty() && !globMatch(filter, path))
                continue;
            bool known = false;
            for (const std::string &seen : order) {
                if (seen == path) {
                    known = true;
                    break;
                }
            }
            if (!known)
                order.push_back(path);
        }
    }

    std::vector<std::string> headers{"metric"};
    for (const LoadedManifest &m : manifests)
        headers.push_back(columnLabel(m.path));
    const bool pairwise = manifests.size() == 2;
    if (pairwise)
        headers.push_back("delta");

    Table table(std::move(headers));
    for (const std::string &path : order) {
        std::vector<std::string> row{path};
        double first = 0.0, second = 0.0;
        bool have_first = false, have_second = false;
        for (std::size_t i = 0; i < manifests.size(); ++i) {
            double value = 0.0;
            if (manifests[i].metric(path, &value)) {
                row.push_back(Table::fmt(value, 6));
                if (i == 0) {
                    first = value;
                    have_first = true;
                } else if (i == 1) {
                    second = value;
                    have_second = true;
                }
            } else {
                row.push_back("-");
            }
        }
        if (pairwise) {
            if (have_first && have_second && first != 0.0) {
                row.push_back(Table::fmtPercent(
                    (second - first) / std::fabs(first), 2));
            } else {
                row.push_back("-");
            }
        }
        table.addRow(std::move(row));
    }
    return table.render();
}

} // namespace dee::obs
