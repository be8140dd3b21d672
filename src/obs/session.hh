/**
 * @file
 * One-stop observability wiring for bench/example binaries.
 *
 * A tool declares the standard flags before parsing, then opens a
 * Session; the Session enables tracing when requested, exposes the run
 * Manifest to fill in, and on destruction writes the trace file, dumps
 * the stats registry, and writes the manifest:
 *
 *     dee::Cli cli("...");
 *     dee::obs::declareFlags(cli);        // --json --trace-out --stats
 *     cli.parse(argc, argv);
 *     dee::obs::Session session("fig5_speedups", cli);
 *     ...
 *     session.manifest().results()["speedups"] = ...;
 *     return 0;                           // outputs written here
 *
 * Flags:
 *   --json PATH       write the run manifest (config + results + stats
 *                     snapshot + wall clock) as JSON to PATH
 *   --trace-out PATH  enable the cycle-level tracer and write its ring
 *                     as JSON-Lines trace_event records to PATH
 *   --stats BOOL      dump the stats registry as text to stderr at exit
 *   --profile BOOL    collect the per-branch speculation profile in
 *                     every simulator run (lands in the manifest's
 *                     "profile" section; see obs/profile/profile.hh)
 *   --profile-out PATH  write the collected profile as folded stacks
 *                     ("frame;frame count" lines, flamegraph.pl /
 *                     speedscope compatible) to PATH; implies --profile
 *   --hotspots BOOL   start the host hot-path sampling profiler
 *                     (per-phase CPU attribution in the manifest's
 *                     "hotspots" section; see obs/hotspot/hotspot.hh)
 *   --hotspot-out PATH  write the host samples as folded stacks
 *                     ("host;scope.phase;sym;..;sym count" lines,
 *                     flamegraph.pl / dee_prof compatible) to PATH;
 *                     implies --hotspots
 *   --hotspot-interval MS  per-thread CPU-time sampling period (a
 *                     finite number > 0 when hotspots are on)
 */

#ifndef DEE_OBS_SESSION_HH
#define DEE_OBS_SESSION_HH

#include <string>

#include "common/cli.hh"
#include "obs/manifest.hh"
#include "obs/trace_event.hh"

namespace dee::obs
{

/** Declares --json, --trace-out, --stats, --profile, --profile-out
 *  and the --hotspot* flags on @p cli. */
void declareFlags(Cli &cli);

/** Parsed values of the standard observability flags. */
struct SessionOptions
{
    std::string jsonPath;     ///< empty: no manifest
    std::string traceOutPath; ///< empty: tracer stays off
    bool dumpStats = false;   ///< text registry dump to stderr at exit
    bool profile = false;     ///< collect speculation profiles
    std::string profileOutPath; ///< folded-stack output; implies profile
    bool hotspots = false;    ///< start the host hotspot sampler
    std::string hotspotOutPath; ///< folded stacks; implies hotspots
    double hotspotIntervalMs = 2.0; ///< CPU-time sampling period

    /** Reads the declareFlags() flags back from a parsed Cli. */
    static SessionOptions fromCli(const Cli &cli);
};

/** RAII run scope: enables tracing up front, emits outputs at exit. */
class Session
{
  public:
    /** @param tool the binary name recorded in the manifest. */
    Session(std::string tool, SessionOptions options);

    /** Convenience: options from the Cli, and every flag value copied
     *  into the manifest's config section. */
    Session(std::string tool, const Cli &cli);

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /** Writes trace / stats / manifest outputs as requested. */
    ~Session();

    Manifest &manifest() { return manifest_; }
    const SessionOptions &options() const { return options_; }

  private:
    SessionOptions options_;
    Manifest manifest_;
};

} // namespace dee::obs

#endif // DEE_OBS_SESSION_HH
