/**
 * @file
 * Manifest loading, flattening, diffing and the regression gate.
 *
 * The testable core of tools/dee_report: load dee.run.v7 manifests,
 * flatten every numeric leaf to a dotted metric path
 * ("results.benchmarks.cc1.DEE.3", "accounting.window.waste_fraction"),
 * render an aligned side-by-side diff, and gate a candidate manifest
 * against a baseline.
 *
 * The gate has one rule per kind of value. Everything the simulator
 * computes is deterministic at any --jobs, so every leaf outside the
 * host-measured keys (see withoutHostMeasured()) must equal the
 * baseline exactly. Host-measured values are not compared, except the
 * hotspot sampler's per-phase self shares, which get an advisory
 * Poisson check (see checkManifest()).
 */

#ifndef DEE_OBS_MANIFEST_DIFF_HH
#define DEE_OBS_MANIFEST_DIFF_HH

#include <string>
#include <utility>
#include <vector>

#include "obs/json.hh"

namespace dee::obs
{

/** One parsed manifest plus its flattened numeric metrics. */
struct LoadedManifest
{
    std::string path; ///< where it was read from (label in diffs)
    Json doc;         ///< the full document

    /** Every numeric leaf as (dotted path, value), document order. */
    std::vector<std::pair<std::string, double>> metrics;

    /** Looks up a flattened metric; false if absent. */
    bool metric(const std::string &key, double *value) const;
};

/**
 * Parses @p text as a dee.run.v7 manifest document; older schema
 * versions are rejected (regenerate them with the current tools).
 * @return true on success; false with *err describing the failure.
 */
bool parseManifest(const std::string &text, const std::string &path,
                   LoadedManifest *out, std::string *err);

/** parseManifest() over a file's contents. */
bool loadManifestFile(const std::string &path, LoadedManifest *out,
                      std::string *err);

/**
 * Appends every numeric leaf under @p node to @p out as
 * ("prefix.sub.path", value); array elements use their index as the
 * segment. Bools, strings and nulls are skipped.
 */
void flattenNumeric(const Json &node, const std::string &prefix,
                    std::vector<std::pair<std::string, double>> *out);

/** '*'-wildcard match over dotted metric paths (matches any chars). */
bool globMatch(const std::string &pattern, const std::string &text);

/**
 * @p doc without its host-measured values: every object member, at any
 * depth, whose key is run_ms, wall_clock_ms, runner, jobs, perf,
 * host_perf, telemetry, heartbeat, hotspots or hot. What remains is a
 * pure function of the simulated inputs, byte-identical across --jobs
 * values and engines. No tool writes host_perf or heartbeat any more;
 * they stay in the set because the committed baseline still carries
 * both sections, and a gate against it must skip them.
 */
Json withoutHostMeasured(const Json &doc);

/** One line of the regression gate's verdict. */
struct GateItem
{
    bool fail = true;   ///< false for an advisory WARN
    std::string metric; ///< the dotted leaf path
    std::string detail; ///< both values, and the tolerance of a WARN

    /** "FAIL <metric>: <detail>" or "WARN <metric>: <detail>". */
    std::string line() const;
};

/**
 * Gates @p candidate against @p baseline. Every leaf (number, string,
 * bool or null) of withoutHostMeasured() that changed, or exists on one
 * side only, is a FAIL item carrying both values as JSON text. A
 * hotspots.phases.<phase>.self_pct share that grew by more than 25%
 * plus its 3-sigma Poisson counting error, 3 * sqrt(1/base_self +
 * 1/cand_self), over a phase with at least 50 candidate self samples,
 * is a WARN item: host shares move with the machine, so they advise
 * and never fail. Items come in baseline document order, then added
 * leaves, then warnings; an empty result means the runs agree.
 */
std::vector<GateItem> checkManifest(const LoadedManifest &baseline,
                                    const LoadedManifest &candidate);

/**
 * Side-by-side diff of every metric matching @p filter (empty matches
 * all) across @p manifests, in first-manifest document order with
 * later-only metrics appended. With exactly two manifests a relative
 * "delta" column is added.
 */
std::string renderManifestDiff(
    const std::vector<LoadedManifest> &manifests,
    const std::string &filter = "");

} // namespace dee::obs

#endif // DEE_OBS_MANIFEST_DIFF_HH
