/**
 * @file
 * dee_top: terminal dashboard over the live telemetry endpoint.
 *
 * Usage:
 *   dee_top --socket /tmp/dee.sock              attach to a live run
 *   dee_top --replay telemetry.jsonl            render a recorded run
 *   dee_top --socket /tmp/dee.sock --once       one JSON snapshot, exit
 *   dee_top --replay telemetry.jsonl --once     reconstructed snapshot
 *
 * In live mode the tool connects to a --telemetry-socket endpoint
 * (retrying until --connect-timeout-ms while the run boots), polls a
 * snapshot plus the sim.kips series tail every --refresh-ms, and
 * redraws a full-screen dashboard: cell progress with ETA, a KIPS
 * sparkline, per-worker utilization bars, issue-slot class shares, and
 * the top squashed-slot branch sites. When the run finishes and the
 * endpoint disappears, dee_top prints the final frame and exits 0.
 *
 * Replay mode reconstructs the same picture from a --telemetry-out
 * JSONL stream (schema dee.telemetry.v1) and renders the final frame —
 * useful for post-mortems and CI artifacts where no socket exists.
 *
 * --once skips the ANSI screen handling and prints one machine-
 * readable JSON document to stdout (the live snapshot, or a summary
 * reconstructed from the stream), so scripts and CI probes can assert
 * on it with a JSON parser instead of scraping escape codes.
 *
 * Exit status: 0 on success, 2 on usage/connect/load errors.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#define DEE_TOP_HAVE_UNIX_SOCKETS 1
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#else
#define DEE_TOP_HAVE_UNIX_SOCKETS 0
#endif

#include <chrono>

#include "obs/json.hh"

using dee::obs::Json;

namespace
{

void
usage(std::FILE *to)
{
    std::fputs(
        "usage: dee_top (--socket PATH | --replay FILE) [options]\n"
        "\n"
        "Terminal dashboard over dee live telemetry: attach to a\n"
        "--telemetry-socket endpoint of a running bench, or replay a\n"
        "--telemetry-out JSONL stream (schema dee.telemetry.v1).\n"
        "\n"
        "options:\n"
        "  --socket PATH          unix socket of a live run\n"
        "  --replay FILE          render a recorded JSONL stream\n"
        "  --once                 print one machine-readable JSON\n"
        "                         document to stdout and exit\n"
        "  --refresh-ms N         live redraw period (default 500)\n"
        "  --connect-timeout-ms N keep retrying the socket this long\n"
        "                         (default 5000)\n"
        "  --help                 this text\n",
        to);
}

// ---- tiny line-oriented unix-socket client ------------------------------

#if DEE_TOP_HAVE_UNIX_SOCKETS

class SocketClient
{
  public:
    ~SocketClient() { close(); }

    bool
    connectTo(const std::string &path)
    {
        close();
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd_ < 0)
            return false;
        struct sockaddr_un addr;
        std::memset(&addr, 0, sizeof(addr));
        addr.sun_family = AF_UNIX;
        if (path.size() >= sizeof(addr.sun_path)) {
            close();
            return false;
        }
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        if (::connect(fd_, reinterpret_cast<struct sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            close();
            return false;
        }
        return true;
    }

    bool connected() const { return fd_ >= 0; }

    /** One request line out, one reply line back. */
    bool
    request(const std::string &line, std::string *reply)
    {
        if (fd_ < 0)
            return false;
        std::string out = line;
        out.push_back('\n');
        std::size_t sent = 0;
        while (sent < out.size()) {
            const ssize_t n =
                ::send(fd_, out.data() + sent, out.size() - sent, 0);
            if (n <= 0) {
                close();
                return false;
            }
            sent += static_cast<std::size_t>(n);
        }
        reply->clear();
        // The buffer may already hold a complete line from a previous
        // oversized read; drain it before recv'ing more.
        for (;;) {
            const std::size_t nl = inbuf_.find('\n');
            if (nl != std::string::npos) {
                *reply = inbuf_.substr(0, nl);
                inbuf_.erase(0, nl + 1);
                return true;
            }
            char buf[4096];
            const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
            if (n <= 0) {
                close();
                return false;
            }
            inbuf_.append(buf, static_cast<std::size_t>(n));
        }
    }

  private:
    void
    close()
    {
        if (fd_ >= 0) {
            ::close(fd_);
            fd_ = -1;
        }
        inbuf_.clear();
    }

    int fd_ = -1;
    std::string inbuf_;
};

#endif // DEE_TOP_HAVE_UNIX_SOCKETS

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
    if (seriesHas(snapshot, "cells.eta_s"))
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

    // Issue-slot class shares from the merged accounting totals.
    if (series != nullptr) {
        double slot_total = 0.0;
        std::vector<std::pair<std::string, double>> classes;
        for (const auto &[name, node] : series->members()) {
            if (name.rfind("acct.", 0) != 0)
                continue;
            const Json *last = node.find("last");
            const double v = last != nullptr ? last->asDouble() : 0.0;
            classes.emplace_back(name.substr(5), v);
            slot_total += v;
        }
        if (slot_total > 0.0) {
            std::fputs("slots    ", to);
            for (const auto &[cls, v] : classes)
                std::fprintf(to, "%s %.1f%%  ", cls.c_str(),
                             100.0 * v / slot_total);
            std::fputc('\n', to);
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

    // Hottest squashed-slot branch sites.
    const Json *sites = snapshot.find("top_squash_sites");
    if (sites != nullptr && sites->isArray() && sites->size() > 0) {
        std::fputs("squash   ", to);
        for (const Json &site : sites->items()) {
            const Json *pc = site.find("site");
            const Json *slots = site.find("slots");
            if (pc != nullptr && slots != nullptr)
                std::fprintf(to, "%s:%lld  ", pc->asString().c_str(),
                             static_cast<long long>(slots->asInt()));
        }
        std::fputc('\n', to);
    }
}

// ---- replay mode --------------------------------------------------------

/**
 * Reconstructs a snapshot-shaped document from a dee.telemetry.v1
 * JSONL stream: per-series count/min/max/last built from the "sample"
 * records (the "finish" summary is used when present — it also covers
 * ring-evicted history), tool and interval from "start".
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
    out["active"] = Json(false);
    out["replayed_from"] = Json(path);

    struct Summary
    {
        std::uint64_t count = 0;
        double min = 0.0, max = 0.0, last = 0.0;
    };
    std::map<std::string, Summary> summaries;
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
                Summary &s = summaries[name];
                if (s.count == 0) {
                    s.min = v;
                    s.max = v;
                } else {
                    s.min = std::min(s.min, v);
                    s.max = std::max(s.max, v);
                }
                s.last = v;
                ++s.count;
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
        for (const auto &[name, s] : summaries) {
            Json node = Json::object();
            node["count"] = Json(s.count);
            node["min"] = Json(s.min);
            node["max"] = Json(s.max);
            node["last"] = Json(s.last);
            series[name] = std::move(node);
        }
        out["series"] = std::move(series);
    }
    // Keep the sparkline to a screen-width window.
    if (kips_window->size() > 60)
        kips_window->erase(kips_window->begin(),
                           kips_window->end() - 60);
    *snapshot = std::move(out);
    return true;
}

#if DEE_TOP_HAVE_UNIX_SOCKETS

/** Pulls the recent sim.kips window over the socket (best effort). */
void
fetchKipsWindow(SocketClient &client, std::vector<double> *window)
{
    std::string reply;
    if (!client.request("tail sim.kips 60", &reply))
        return;
    Json doc;
    if (!Json::parse(reply, &doc, nullptr))
        return;
    const Json *values = doc.find("v");
    if (values == nullptr || !values->isArray())
        return;
    window->clear();
    for (const Json &v : values->items())
        window->push_back(v.asDouble());
}

#endif // DEE_TOP_HAVE_UNIX_SOCKETS

} // namespace

int
main(int argc, char **argv)
{
    std::string socket_path;
    std::string replay_path;
    bool once = false;
    long refresh_ms = 500;
    long connect_timeout_ms = 5000;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "dee_top: %s needs a value\n",
                             flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage(stdout);
            return 0;
        } else if (arg == "--socket") {
            socket_path = value("--socket");
        } else if (arg == "--replay") {
            replay_path = value("--replay");
        } else if (arg == "--once") {
            once = true;
        } else if (arg == "--refresh-ms") {
            refresh_ms = std::atol(value("--refresh-ms"));
        } else if (arg == "--connect-timeout-ms") {
            connect_timeout_ms = std::atol(value("--connect-timeout-ms"));
        } else {
            std::fprintf(stderr, "dee_top: unknown argument '%s'\n",
                         arg.c_str());
            usage(stderr);
            return 2;
        }
    }
    if (socket_path.empty() == replay_path.empty()) {
        std::fputs("dee_top: exactly one of --socket or --replay is "
                   "required\n",
                   stderr);
        usage(stderr);
        return 2;
    }

    // ---- replay ---------------------------------------------------------
    if (!replay_path.empty()) {
        Json snapshot;
        std::vector<double> kips_window;
        std::string err;
        if (!loadReplay(replay_path, &snapshot, &kips_window, &err)) {
            std::fprintf(stderr, "dee_top: %s\n", err.c_str());
            return 2;
        }
        if (once) {
            std::fprintf(stdout, "%s\n", snapshot.dump(2).c_str());
        } else {
            renderFrame(stdout, snapshot, kips_window);
        }
        return 0;
    }

    // ---- live -----------------------------------------------------------
#if !DEE_TOP_HAVE_UNIX_SOCKETS
    std::fputs("dee_top: unix sockets are not available on this "
               "platform; use --replay\n",
               stderr);
    return 2;
#else
    SocketClient client;
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(connect_timeout_ms);
    while (!client.connectTo(socket_path)) {
        if (std::chrono::steady_clock::now() >= deadline) {
            std::fprintf(stderr,
                         "dee_top: cannot connect to '%s' within "
                         "%ld ms\n",
                         socket_path.c_str(), connect_timeout_ms);
            return 2;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }

    bool drew_frame = false;
    for (;;) {
        std::string reply;
        if (!client.request("snapshot", &reply)) {
            // Endpoint gone: the observed run finished. Keep the last
            // frame on screen and leave quietly once we drew anything.
            if (drew_frame) {
                std::fputs("dee_top: run finished (endpoint closed)\n",
                           stdout);
                return 0;
            }
            std::fprintf(stderr, "dee_top: lost connection to '%s'\n",
                         socket_path.c_str());
            return 2;
        }
        Json snapshot;
        std::string err;
        if (!Json::parse(reply, &snapshot, &err)) {
            std::fprintf(stderr, "dee_top: bad snapshot reply: %s\n",
                         err.c_str());
            return 2;
        }
        if (once) {
            std::fprintf(stdout, "%s\n", snapshot.dump(2).c_str());
            return 0;
        }
        std::vector<double> kips_window;
        fetchKipsWindow(client, &kips_window);
        // Home the cursor and clear: one flicker-free redraw per poll.
        std::fputs("\x1b[H\x1b[2J", stdout);
        renderFrame(stdout, snapshot, kips_window);
        std::fflush(stdout);
        drew_frame = true;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(refresh_ms));
    }
#endif // DEE_TOP_HAVE_UNIX_SOCKETS
}
