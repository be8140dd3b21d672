#include "obs/manifest.hh"

#include <fstream>
#include <mutex>

#include "common/logging.hh"
#include "obs/hotspot/hotspot.hh"
#include "obs/profile/profile.hh"
#include "obs/trace_event.hh"

namespace dee::obs
{

namespace
{

/* The "static_bounds" section is computed by src/analysis (which this
 * layer must not depend on) and installed process-wide so every
 * manifest emitted afterwards carries it. */
std::mutex g_static_bounds_mutex;
Json g_static_bounds = Json::object();

} // namespace

void
setStaticBoundsSection(Json section)
{
    const std::lock_guard<std::mutex> lock(g_static_bounds_mutex);
    g_static_bounds = std::move(section);
}

Json
staticBoundsSectionCopy()
{
    const std::lock_guard<std::mutex> lock(g_static_bounds_mutex);
    return g_static_bounds;
}

Manifest::Manifest(std::string tool)
    : tool_(std::move(tool)), start_(std::chrono::steady_clock::now())
{
}

Json
Manifest::toJson(const Registry &registry) const
{
    Json root = Json::object();
    root["schema"] = Json("dee.run.v9");
    root["tool"] = Json(tool_);
    root["config"] = config_;
    root["results"] = results_;

    // v2: tracer health, so consumers can tell a truncated trace (ring
    // wrapped, events dropped) from a complete one.
    const Tracer &tracer = Tracer::global();
    Json trace = Json::object();
    trace["recorded"] = Json(tracer.recorded());
    trace["dropped"] = Json(tracer.dropped());
    trace["buffered"] = Json(static_cast<std::uint64_t>(tracer.size()));
    root["trace"] = std::move(trace);

    // v3: the speculation profile — per-branch attribution collected by
    // runs that enabled profiling. Empty object when nothing profiled,
    // so v2-era consumers that ignore unknown sections keep working.
    const ProfileStore &profiles = ProfileStore::global();
    root["profile"] = profiles.empty() ? Json::object()
                                       : profiles.toJson();

    // v6: the abstract interpreter's static bounds, installed by
    // analysis::absint::publishStaticBounds(); empty object when the
    // tool published none, so older consumers keep working.
    root["static_bounds"] = staticBoundsSectionCopy();

    // v7: the host hotspot sampler's per-phase CPU attribution —
    // {"enabled": false} when the sampler never ran, the stopped
    // report (phases, shares, top folded host stacks) otherwise.
    root["hotspots"] = hotspot::Sampler::process().sectionJson();

    root["stats"] = registry.toJson();
    const auto now = std::chrono::steady_clock::now();
    root["wall_clock_ms"] = Json(
        std::chrono::duration<double, std::milli>(now - start_).count());
    return root;
}

void
Manifest::write(const std::string &path, const Registry &registry) const
{
    std::ofstream out(path);
    if (!out)
        dee_fatal("cannot open manifest output file '", path, "'");
    out << toJson(registry).dump(2) << "\n";
    if (!out.good())
        dee_fatal("error writing manifest file '", path, "'");
}

} // namespace dee::obs
