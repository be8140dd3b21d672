#include "obs/session.hh"

#include <cmath>
#include <cstdio>
#include <fstream>

#include "common/logging.hh"
#include "obs/hotspot/hotspot.hh"
#include "obs/perf/perf.hh"
#include "obs/profile/profile.hh"

namespace dee::obs
{

namespace
{

/** Output paths are written at exit, after a potentially long run —
 *  reject unwritable ones up front instead. */
void
checkWritable(const std::string &path, const char *what)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        dee_fatal("cannot open ", what, " file '", path, "'");
}

/** The hotspot period must be a finite number of milliseconds above
 *  0: NaN passes a plain "<= 0" test, and NaN or a huge value
 *  overflows the sampler's integer timer conversion. */
void
checkInterval(double ms)
{
    if (!std::isfinite(ms) || ms <= 0.0)
        dee_fatal("--hotspot-interval must be a finite number > 0 ms "
                  "(got ", ms, ")");
}

} // namespace

void
declareFlags(Cli &cli)
{
    cli.flag("json", "",
             "write a JSON run manifest (config, results, stats "
             "snapshot, wall clock) to this path");
    cli.flag("trace-out", "",
             "enable cycle-level tracing and write trace_event "
             "JSON-Lines to this path (view in Perfetto)");
    cli.flag("stats", "false",
             "dump the stats registry as text to stderr at exit");
    cli.flag("profile", "false",
             "collect the per-branch speculation profile in every "
             "simulator run (adds the manifest's \"profile\" section)");
    cli.flag("profile-out", "",
             "write the collected speculation profile as folded stacks "
             "to this path (flamegraph input); implies --profile");
    cli.flag("hotspots", "false",
             "start the host hot-path sampling profiler (adds the "
             "manifest's \"hotspots\" section)");
    cli.flag("hotspot-out", "",
             "write host samples as folded stacks to this path "
             "(flamegraph input); implies --hotspots");
    cli.flag("hotspot-interval", "2",
             "hotspot sampler per-thread CPU-time period in "
             "milliseconds");
}

SessionOptions
SessionOptions::fromCli(const Cli &cli)
{
    SessionOptions options;
    options.jsonPath = cli.str("json");
    options.traceOutPath = cli.str("trace-out");
    options.dumpStats = cli.boolean("stats");
    options.profileOutPath = cli.str("profile-out");
    options.profile =
        cli.boolean("profile") || !options.profileOutPath.empty();
    options.hotspotOutPath = cli.str("hotspot-out");
    options.hotspots =
        cli.boolean("hotspots") || !options.hotspotOutPath.empty();
    options.hotspotIntervalMs = cli.real("hotspot-interval");
    return options;
}

Session::Session(std::string tool, SessionOptions options)
    : options_(std::move(options)), manifest_(std::move(tool))
{
    // Flag values first: a bad one must not truncate any output file.
    if (options_.hotspots)
        checkInterval(options_.hotspotIntervalMs);
    if (!options_.jsonPath.empty())
        checkWritable(options_.jsonPath, "run manifest");
    if (!options_.traceOutPath.empty()) {
        checkWritable(options_.traceOutPath, "trace output");
        Tracer::global().enable();
    }
    if (!options_.profileOutPath.empty())
        checkWritable(options_.profileOutPath, "profile output");
    if (options_.profile)
        requestProfiling(true);
    if (options_.hotspots) {
        if (!options_.hotspotOutPath.empty())
            checkWritable(options_.hotspotOutPath, "hotspot output");
        hotspot::Options hopts;
        hopts.intervalMs = options_.hotspotIntervalMs;
        hotspot::Sampler::process().start(hopts);
    }
}

Session::Session(std::string tool, const Cli &cli)
    : Session(std::move(tool), SessionOptions::fromCli(cli))
{
    for (const auto &[name, value] : cli.values()) {
        // The observability flags themselves are not configuration.
        if (name == "json" || name == "trace-out" || name == "stats" ||
            name == "profile" || name == "profile-out" ||
            name == "hotspots" || name == "hotspot-out" ||
            name == "hotspot-interval")
            continue;
        manifest_.setConfig(name, value);
    }
}

Session::~Session()
{
    // Stop the hotspot sampler first: stop folds every thread's
    // samples into the report the manifest's "hotspots" section reads.
    if (options_.hotspots)
        hotspot::Sampler::process().stop();
    // Host memory pressure (peak RSS, page faults) is a whole-process
    // reading — take it once, at exit, into perf.host.* so manifests
    // and stats dumps carry it.
    perf::publishHostResources(Registry::global());
    if (!options_.traceOutPath.empty()) {
        Tracer &tracer = Tracer::global();
        tracer.writeFile(options_.traceOutPath);
        dee_inform("wrote ", tracer.size(), " trace events (",
                   tracer.dropped(), " dropped) to ",
                   options_.traceOutPath);
        tracer.disable();
    }
    if (options_.dumpStats) {
        std::fputs(Registry::global().renderText().c_str(), stderr);
        std::fflush(stderr);
    }
    if (!options_.profileOutPath.empty()) {
        const std::string stacks = ProfileStore::global().foldedStacks();
        std::ofstream out(options_.profileOutPath, std::ios::trunc);
        if (out)
            out << stacks;
        if (!out.good()) {
            dee_inform("error writing profile output '",
                       options_.profileOutPath, "'");
        } else {
            dee_inform("wrote folded speculation stacks to ",
                       options_.profileOutPath);
        }
    }
    if (options_.profile)
        requestProfiling(false);
    if (!options_.hotspotOutPath.empty()) {
        const std::string stacks =
            hotspot::Sampler::process().report().foldedStacks();
        std::ofstream out(options_.hotspotOutPath, std::ios::trunc);
        if (out)
            out << stacks;
        if (!out.good()) {
            dee_inform("error writing hotspot output '",
                       options_.hotspotOutPath, "'");
        } else {
            dee_inform("wrote folded host hotspot stacks to ",
                       options_.hotspotOutPath);
        }
    }
    if (!options_.jsonPath.empty()) {
        manifest_.write(options_.jsonPath);
        dee_inform("wrote run manifest to ", options_.jsonPath);
    }
}

} // namespace dee::obs
