/**
 * @file
 * dee_report: diff dee.run.v7 manifests and gate on regressions.
 *
 * Usage:
 *   dee_report MANIFEST...                    side-by-side metric diff
 *   dee_report --filter 'results.*' A B      restrict rows by glob
 *   dee_report --check --baseline BASE CAND  exit 1 unless every
 *                                            simulated leaf of CAND
 *                                            equals BASE's
 *
 * --check prints one FAIL line per leaf outside the host-measured keys
 * that changed, vanished or appeared, with both values, and one
 * advisory WARN line per host hotspot phase whose CPU self share grew
 * past its Poisson noise floor (obs/manifest_diff.hh has the rules).
 *
 * Exit status: 0 clean (warnings included), 1 when any leaf differs,
 * 2 usage / load errors.
 *
 * Manifest paths are positional; the repo's Cli only does --flag pairs,
 * so parsing here is hand-rolled over argv.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/manifest_diff.hh"

namespace
{

using dee::obs::checkManifest;
using dee::obs::GateItem;
using dee::obs::LoadedManifest;
using dee::obs::loadManifestFile;
using dee::obs::renderManifestDiff;

void
usage(std::FILE *to)
{
    std::fputs(
        "usage: dee_report [options] MANIFEST.json [MANIFEST.json...]\n"
        "\n"
        "Diffs dee.run.v7 manifests metric by metric; with --check,\n"
        "fails unless every simulated leaf of one candidate equals the\n"
        "baseline exactly (host-measured timings are skipped; host\n"
        "hotspot shares that grew print advisory WARN lines).\n"
        "\n"
        "options:\n"
        "  --filter GLOB     only diff metrics matching GLOB\n"
        "  --check           gate one candidate against --baseline\n"
        "                    (exit 1 when any leaf differs)\n"
        "  --baseline PATH   baseline manifest for --check\n"
        "  --help            this text\n",
        to);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string filter;
    std::string baseline_path;
    bool check = false;
    std::vector<std::string> paths;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(stdout);
            return 0;
        } else if (arg == "--check") {
            check = true;
        } else if (arg == "--filter" || arg == "--baseline") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "dee_report: %s needs a value\n",
                             arg.c_str());
                return 2;
            }
            (arg == "--filter" ? filter : baseline_path) = argv[++i];
        } else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "dee_report: unknown flag '%s'\n",
                         arg.c_str());
            usage(stderr);
            return 2;
        } else {
            paths.push_back(arg);
        }
    }

    auto load = [](const std::string &path) {
        LoadedManifest m;
        std::string err;
        if (!loadManifestFile(path, &m, &err)) {
            std::fprintf(stderr, "dee_report: %s\n", err.c_str());
            std::exit(2);
        }
        return m;
    };

    if (check) {
        if (baseline_path.empty() || paths.size() != 1) {
            std::fputs("dee_report: --check needs --baseline PATH and "
                       "exactly one candidate manifest\n",
                       stderr);
            return 2;
        }
        const LoadedManifest baseline = load(baseline_path);
        const LoadedManifest candidate = load(paths[0]);
        const std::vector<GateItem> items =
            checkManifest(baseline, candidate);
        std::size_t failed = 0;
        for (const GateItem &item : items) {
            std::printf("%s\n", item.line().c_str());
            failed += item.fail ? 1 : 0;
        }
        if (failed > 0) {
            std::printf("FAIL: %zu leaf(s) differ from %s\n", failed,
                        baseline_path.c_str());
            return 1;
        }
        std::printf("OK: %s matches %s (%zu host-phase warning(s))\n",
                    paths[0].c_str(), baseline_path.c_str(),
                    items.size());
        return 0;
    }

    if (paths.empty()) {
        usage(stderr);
        return 2;
    }
    std::vector<LoadedManifest> manifests;
    manifests.reserve(paths.size());
    for (const std::string &path : paths)
        manifests.push_back(load(path));
    std::fputs(renderManifestDiff(manifests, filter).c_str(), stdout);
    return 0;
}
