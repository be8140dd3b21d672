/**
 * @file
 * dee_top: terminal dashboard over a recorded telemetry stream.
 *
 * Usage:
 *   dee_top --replay telemetry.jsonl            render the final frame
 *   dee_top --replay telemetry.jsonl --once     one JSON summary, exit
 *
 * Reads a --telemetry-out JSONL stream (schema dee.telemetry.v1) and
 * renders the run's final frame: cell progress (with an ETA while
 * cells remain), a KIPS sparkline, live RSS, per-worker utilization
 * bars and the host hot-phase shares. Useful for post-mortems and CI
 * artifacts.
 *
 * --once skips the frame and prints one machine-readable JSON document
 * to stdout (per-series count/min/max/last reconstructed from the
 * stream), so scripts and CI probes can assert on it with a JSON
 * parser instead of scraping text.
 *
 * Exit status: 0 on success, 2 on usage/load errors.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "obs/json.hh"
#include "obs/telemetry/telemetry.hh"

using dee::obs::Json;
using dee::obs::telemetry::SeriesSummary;

namespace
{

void
usage(std::FILE *to)
{
    std::fputs(
        "usage: dee_top --replay FILE [--once]\n"
        "\n"
        "Terminal dashboard over a --telemetry-out JSONL stream\n"
        "(schema dee.telemetry.v1) recorded by a dee bench run.\n"
        "\n"
        "options:\n"
        "  --replay FILE          render a recorded JSONL stream\n"
        "  --once                 print one machine-readable JSON\n"
        "                         document to stdout and exit\n"
        "  --help                 this text\n",
        to);
}

// ---- rendering ----------------------------------------------------------

std::string
bar(double fraction, std::size_t width)
{
    fraction = std::max(0.0, std::min(1.0, fraction));
    const std::size_t fill =
        static_cast<std::size_t>(std::lround(fraction *
                                             static_cast<double>(width)));
    std::string out;
    out.reserve(width);
    for (std::size_t i = 0; i < width; ++i)
        out.push_back(i < fill ? '#' : '.');
    return out;
}

/** ASCII sparkline of @p values scaled to their own min..max. */
std::string
sparkline(const std::vector<double> &values)
{
    static const char kLevels[] = " .:-=+*#%@";
    const std::size_t levels = sizeof(kLevels) - 2;
    if (values.empty())
        return "";
    double lo = values[0], hi = values[0];
    for (const double v : values) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    std::string out;
    out.reserve(values.size());
    for (const double v : values) {
        const double f = hi > lo ? (v - lo) / (hi - lo) : 0.5;
        const std::size_t idx = static_cast<std::size_t>(
            std::lround(f * static_cast<double>(levels)));
        out.push_back(kLevels[idx]);
    }
    return out;
}

double
seriesLast(const Json &snapshot, const std::string &name)
{
    const Json *series = snapshot.find("series");
    if (series == nullptr)
        return 0.0;
    const Json *node = series->find(name);
    if (node == nullptr)
        return 0.0;
    const Json *last = node->find("last");
    return last != nullptr ? last->asDouble() : 0.0;
}

bool
seriesHas(const Json &snapshot, const std::string &name)
{
    const Json *series = snapshot.find("series");
    return series != nullptr && series->find(name) != nullptr;
}

/** Renders one dashboard frame from a snapshot document (and an
 *  optional recent-KIPS window for the sparkline) to @p to. */
void
renderFrame(std::FILE *to, const Json &snapshot,
            const std::vector<double> &kips_window)
{
    const Json *tool = snapshot.find("tool");
    const double t_ms =
        snapshot.find("t_ms") != nullptr
            ? snapshot.find("t_ms")->asDouble()
            : 0.0;
    std::fprintf(to, "dee_top — %s  (t=%.1fs, %lld samples)\n",
                 tool != nullptr ? tool->asString().c_str() : "?",
                 t_ms / 1e3,
                 snapshot.find("samples") != nullptr
                     ? static_cast<long long>(
                           snapshot.find("samples")->asInt())
                     : 0LL);

    // Cell progress + ETA.
    const double done = seriesLast(snapshot, "cells.done");
    const double total = seriesLast(snapshot, "cells.total");
    std::fprintf(to, "cells    [%s] %.0f/%.0f",
                 bar(total > 0 ? done / total : 0.0, 32).c_str(), done,
                 total);
    // The last ETA sample predates the last finished cell, so a
    // finished run shows none.
    if (done < total && seriesHas(snapshot, "cells.eta_s"))
        std::fprintf(to, "  eta %.1fs",
                     seriesLast(snapshot, "cells.eta_s"));
    std::fputc('\n', to);

    // Simulated instruction throughput.
    std::fprintf(to, "sim      %.0f instrs",
                 seriesLast(snapshot, "sim.instructions"));
    if (seriesHas(snapshot, "sim.kips"))
        std::fprintf(to, ", %.1f KIPS",
                     seriesLast(snapshot, "sim.kips"));
    if (!kips_window.empty())
        std::fprintf(to, "  [%s]", sparkline(kips_window).c_str());
    std::fputc('\n', to);

    // Host probes.
    if (seriesHas(snapshot, "host.rss_kb")) {
        std::fprintf(to, "host     rss %.1f MiB\n",
                     seriesLast(snapshot, "host.rss_kb") / 1024.0);
    }

    // Per-worker utilization bars (runner.worker.<i>.util).
    const Json *series = snapshot.find("series");
    if (series != nullptr) {
        for (const auto &[name, node] : series->members()) {
            if (name.rfind("runner.worker.", 0) != 0 ||
                name.size() < 5 ||
                name.compare(name.size() - 5, 5, ".util") != 0)
                continue;
            const std::string worker =
                name.substr(14, name.size() - 14 - 5);
            const Json *last = node.find("last");
            const double util =
                last != nullptr ? last->asDouble() : 0.0;
            const double tasks = seriesLast(
                snapshot, "runner.worker." + worker + ".tasks");
            const double steals = seriesLast(
                snapshot, "runner.worker." + worker + ".steals");
            std::fprintf(to,
                         "worker%-2s [%s] %3.0f%%  %.0f tasks, "
                         "%.0f stolen\n",
                         worker.c_str(), bar(util, 24).c_str(),
                         util * 100.0, tasks, steals);
        }
    }

    // Host hot-phase self shares (hot.<scope>.<phase> series from the
    // sampling profiler); absent series — an old stream or a run
    // without --hotspots — simply render no panel.
    if (series != nullptr) {
        std::vector<std::pair<std::string, double>> hot_phases;
        for (const auto &[name, node] : series->members()) {
            if (name.rfind("hot.", 0) != 0 || name == "hot.samples")
                continue;
            const Json *last = node.find("last");
            hot_phases.emplace_back(
                name.substr(4), last != nullptr ? last->asDouble()
                                                : 0.0);
        }
        std::sort(hot_phases.begin(), hot_phases.end(),
                  [](const auto &a, const auto &b) {
                      return a.second != b.second ? a.second > b.second
                                                  : a.first < b.first;
                  });
        if (hot_phases.size() > 6)
            hot_phases.resize(6);
        if (!hot_phases.empty()) {
            std::fprintf(to, "hotspots %.0f host samples\n",
                         seriesLast(snapshot, "hot.samples"));
            for (const auto &[phase, share] : hot_phases) {
                std::fprintf(to, "  %-22s [%s] %5.1f%%\n",
                             phase.c_str(),
                             bar(share / 100.0, 24).c_str(), share);
            }
        }
    }
}

// ---- replay mode --------------------------------------------------------

/**
 * Reconstructs a summary document from a dee.telemetry.v1 JSONL
 * stream: per-series count/min/max/last built from the "sample"
 * records (the "finish" summary is used when present), tool and
 * interval from "start".
 */
bool
loadReplay(const std::string &path, Json *snapshot,
           std::vector<double> *kips_window, std::string *err)
{
    std::ifstream in(path);
    if (!in) {
        *err = "cannot open '" + path + "'";
        return false;
    }

    Json out = Json::object();
    out["schema"] = Json("dee.telemetry.v1");
    out["tool"] = Json("?");
    out["replayed_from"] = Json(path);

    std::map<std::string, SeriesSummary> summaries;
    Json finish_series = Json::object();
    bool have_finish = false;
    double last_t = 0.0;
    std::uint64_t samples = 0;

    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        Json doc;
        std::string perr;
        if (!Json::parse(line, &doc, &perr)) {
            *err = path + ":" + std::to_string(lineno) + ": " + perr;
            return false;
        }
        const Json *event = doc.find("event");
        if (event == nullptr)
            continue;
        if (event->asString() == "start") {
            if (const Json *tool = doc.find("tool"))
                out["tool"] = *tool;
            if (const Json *iv = doc.find("interval_ms"))
                out["interval_ms"] = *iv;
        } else if (event->asString() == "sample") {
            ++samples;
            if (const Json *t = doc.find("t_ms"))
                last_t = t->asDouble();
            const Json *series = doc.find("series");
            if (series == nullptr)
                continue;
            for (const auto &[name, node] : series->members()) {
                const double v = node.asDouble();
                summaries[name].add(v);
                if (name == "sim.kips")
                    kips_window->push_back(v);
            }
        } else if (event->asString() == "finish") {
            if (const Json *t = doc.find("t_ms"))
                last_t = t->asDouble();
            if (const Json *series = doc.find("series")) {
                finish_series = *series;
                have_finish = true;
            }
        }
    }
    if (samples == 0 && !have_finish) {
        *err = path + ": no dee.telemetry.v1 sample records";
        return false;
    }

    out["t_ms"] = Json(last_t);
    out["samples"] = Json(samples);
    if (have_finish) {
        out["series"] = std::move(finish_series);
    } else {
        Json series = Json::object();
        for (const auto &[name, summary] : summaries)
            series[name] = summary.toJson();
        out["series"] = std::move(series);
    }
    // Keep the sparkline to a screen-width window.
    if (kips_window->size() > 60)
        kips_window->erase(kips_window->begin(),
                           kips_window->end() - 60);
    *snapshot = std::move(out);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string replay_path;
    bool once = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(stdout);
            return 0;
        } else if (arg == "--replay") {
            if (i + 1 >= argc) {
                std::fputs("dee_top: --replay needs a value\n", stderr);
                return 2;
            }
            replay_path = argv[++i];
        } else if (arg == "--once") {
            once = true;
        } else {
            std::fprintf(stderr, "dee_top: unknown argument '%s'\n",
                         arg.c_str());
            usage(stderr);
            return 2;
        }
    }
    if (replay_path.empty()) {
        std::fputs("dee_top: --replay is required\n", stderr);
        usage(stderr);
        return 2;
    }

    Json snapshot;
    std::vector<double> kips_window;
    std::string err;
    if (!loadReplay(replay_path, &snapshot, &kips_window, &err)) {
        std::fprintf(stderr, "dee_top: %s\n", err.c_str());
        return 2;
    }
    if (once)
        std::fprintf(stdout, "%s\n", snapshot.dump(2).c_str());
    else
        renderFrame(stdout, snapshot, kips_window);
    return 0;
}
