/**
 * @file
 * Machine-readable run manifests.
 *
 * Every bench/example can emit one JSON document describing the run:
 * which tool, what configuration, the results it computed (per-model
 * speedups, claim tables, ...), a snapshot of the stats registry, and
 * the wall-clock time. Manifests are what perf-trajectory tracking and
 * regression diffing consume; the schema is versioned so downstream
 * parsers can evolve.
 *
 *     {
 *       "schema": "dee.run.v9",
 *       "tool": "fig5_speedups",
 *       "config": { ... },
 *       "results": { ... },
 *       "trace": { "recorded": ..., "dropped": ..., "buffered": ... },
 *       "profile": { ... },        // ProfileStore::toJson(); {} when off
 *       "static_bounds": { ... },  // analysis/absint section; {} when
 *                                  // the tool published none
 *       "hotspots": { "enabled": ..., "interval_ms": ...,
 *                     "samples": ..., "attributed": ...,
 *                     "attributed_pct": ..., "phases": { ... } },
 *       "stats": { ... },          // Registry::toJson(): counters and
 *                                  // running stats only; cycle
 *                                  // accounts under stats.acct, host
 *                                  // throughput under stats.perf
 *       "wall_clock_ms": 123.4
 *     }
 *
 * v2 added the "accounting" and "trace" sections on top of v1; v3
 * adds the "profile" section (per-branch speculation attribution);
 * v4's "host_perf" section is gone: host throughput per
 * <workload>.<model> scope (obs/perf/perf.hh) and peak RSS /
 * page-fault totals live once, under stats.perf; v5 adds the
 * "telemetry" section — the live sampler's per-series sample counts
 * and min/max/last summaries ({"enabled": false} when telemetry was
 * off); v6 adds "static_bounds" — the abstract interpreter's
 * per-workload bounds (analysis/absint/bounds.hh), installed via
 * setStaticBoundsSection() by tools that call
 * analysis::absint::publishStaticBounds(), and the static side of
 * dee_lint --xcheck; v7 adds "hotspots" — the host hot-path sampler's
 * per-phase CPU attribution and top folded host stacks
 * (obs/hotspot/hotspot.hh), {"enabled": false} when the sampler never
 * ran; v8 keeps each number once: it drops the "accounting" section
 * (a copy of stats.acct), trace.enabled, the registry's prof.*, hot.*,
 * bounds.* and trace.* mirrors of other sections, and every stored
 * ratio (acct.* fractions, prof.* latency percentiles, perf.* kips and
 * mcps); v9 drops the "telemetry" section with the sampler that wrote
 * it (every series it summarized is reported once elsewhere: cells in
 * stats.runner, instructions and peak RSS in stats.perf, phase shares
 * in "hotspots"); later v9 writers dropped, without a bump, leaves
 * only an HTML report read: each profile scope's "hot_paths", "loops"
 * and "loop_depth", and the hotspots section's list of heaviest folded
 * stacks (--hotspot-out's file holds them all). The reader
 * (obs/manifest_diff.hh) accepts v9 only: regenerate an older document
 * by rerunning the tool that wrote it.
 */

#ifndef DEE_OBS_MANIFEST_HH
#define DEE_OBS_MANIFEST_HH

#include <chrono>
#include <string>

#include "obs/json.hh"
#include "obs/registry.hh"

namespace dee::obs
{

/** Builder for one run's manifest document. */
class Manifest
{
  public:
    /** @param tool the emitting binary's name. */
    explicit Manifest(std::string tool);

    /** The emitting binary's name, as passed at construction. */
    const std::string &tool() const { return tool_; }

    /** Mutable "config" object: flag values, workload scale, ... */
    Json &config() { return config_; }

    /** Mutable "results" object: whatever the tool computed. */
    Json &results() { return results_; }

    /** Convenience setter: config()[key] = value. */
    template <typename T>
    void
    setConfig(const std::string &key, T value)
    {
        config_[key] = Json(value);
    }

    /**
     * The complete document, stats snapshotted from @p registry and
     * wall clock measured since construction.
     */
    Json toJson(const Registry &registry = Registry::global()) const;

    /** Pretty-printed toJson() to a file; fatal if unwritable. */
    void write(const std::string &path,
               const Registry &registry = Registry::global()) const;

  private:
    std::string tool_;
    Json config_ = Json::object();
    Json results_ = Json::object();
    std::chrono::steady_clock::time_point start_;
};

/**
 * Installs the process-wide "static_bounds" manifest section (v6).
 *
 * The obs layer cannot depend on src/analysis, so the section arrives
 * as an opaque Json: analysis::absint::publishStaticBounds() builds it
 * and calls this. Every Manifest::toJson() after the call embeds a
 * copy; before any call the section is an empty object. Thread-safe.
 */
void setStaticBoundsSection(Json section);

/** A copy of the installed section (empty object when none). */
Json staticBoundsSectionCopy();

} // namespace dee::obs

#endif // DEE_OBS_MANIFEST_HH
