#include "obs/telemetry/telemetry.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "obs/hotspot/hotspot.hh"

namespace dee::obs::telemetry
{

// ---- SeriesSummary ------------------------------------------------------

void
SeriesSummary::add(double value)
{
    if (count == 0) {
        min = value;
        max = value;
    } else {
        min = std::min(min, value);
        max = std::max(max, value);
    }
    last = value;
    ++count;
}

Json
SeriesSummary::toJson() const
{
    Json node = Json::object();
    node["count"] = Json(count);
    node["min"] = Json(min);
    node["max"] = Json(max);
    node["last"] = Json(last);
    return node;
}

// ---- host probes --------------------------------------------------------

std::uint64_t
currentRssKb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.compare(0, 6, "VmRSS:") != 0)
            continue;
        std::istringstream iss(line.substr(6));
        std::uint64_t kb = 0;
        iss >> kb;
        return kb;
    }
    return 0;
}

// ---- Hub ----------------------------------------------------------------

Hub &
Hub::process()
{
    static Hub hub;
    return hub;
}

Hub::Hub() = default;

Hub::~Hub()
{
    stop();
}

bool
Hub::start(const Options &options)
{
    if (active()) {
        dee_warn("telemetry already running; ignoring start()");
        return false;
    }
    if (!std::isfinite(options.intervalMs) || options.intervalMs <= 0.0) {
        dee_warn("telemetry interval must be a finite number > 0 ms (got ",
                 options.intervalMs, "); telemetry stays off");
        return false;
    }

    options_ = options;
    start_ = std::chrono::steady_clock::now();
    {
        std::lock_guard<std::mutex> lock(dataMutex_);
        series_.clear();
        ticks_ = 0;
    }
    cellsTotal_.store(0, std::memory_order_relaxed);
    cellsDone_.store(0, std::memory_order_relaxed);
    instructions_.store(0, std::memory_order_relaxed);
    prevTickMs_ = 0.0;
    prevInstructions_ = 0;

    if (!options_.jsonlPath.empty()) {
        std::FILE *f = std::fopen(options_.jsonlPath.c_str(), "w");
        if (f == nullptr) {
            dee_warn("cannot open telemetry stream '",
                     options_.jsonlPath, "'; stream disabled");
        } else {
            jsonl_ = f;
            Json head = Json::object();
            head["schema"] = Json("dee.telemetry.v1");
            head["event"] = Json("start");
            head["tool"] = Json(options_.tool);
            head["interval_ms"] = Json(options_.intervalMs);
            writeJsonlLine(head.dump());
        }
    }

    stopRequested_ = false;
    everStarted_ = true;
    active_.store(true, std::memory_order_release);
    sampler_ = std::thread([this] { samplerLoop(); });
    return true;
}

void
Hub::stop()
{
    if (!active())
        return;
    {
        std::lock_guard<std::mutex> lock(wakeMutex_);
        stopRequested_ = true;
    }
    wake_.notify_all();
    if (sampler_.joinable())
        sampler_.join();
    // One final sample after every producer has finished, so the
    // stream and the manifest summary end on the settled state.
    tick();
    active_.store(false, std::memory_order_release);
    if (jsonl_ != nullptr) {
        Json foot = Json::object();
        foot["schema"] = Json("dee.telemetry.v1");
        foot["event"] = Json("finish");
        foot["t_ms"] = Json(elapsedMs());
        {
            std::lock_guard<std::mutex> lock(dataMutex_);
            foot["samples"] = Json(ticks_);
            foot["series"] = seriesJsonLocked();
        }
        writeJsonlLine(foot.dump());
        std::fclose(static_cast<std::FILE *>(jsonl_));
        jsonl_ = nullptr;
        dee_inform("wrote telemetry stream to ", options_.jsonlPath);
    }
}

void
Hub::addCells(std::uint64_t n)
{
    if (active())
        cellsTotal_.fetch_add(n, std::memory_order_relaxed);
}

void
Hub::cellDone()
{
    if (active())
        cellsDone_.fetch_add(1, std::memory_order_relaxed);
}

void
Hub::addInstructions(std::uint64_t n)
{
    if (active())
        instructions_.fetch_add(n, std::memory_order_relaxed);
}

std::uint64_t
Hub::addSource(std::function<void(std::map<std::string, double> &)> fn)
{
    std::lock_guard<std::mutex> lock(sourceMutex_);
    const std::uint64_t id = nextSourceId_++;
    sources_.emplace_back(id, std::move(fn));
    return id;
}

void
Hub::removeSource(std::uint64_t id)
{
    std::lock_guard<std::mutex> lock(sourceMutex_);
    for (std::size_t i = 0; i < sources_.size(); ++i) {
        if (sources_[i].first == id) {
            sources_.erase(sources_.begin() +
                           static_cast<std::ptrdiff_t>(i));
            return;
        }
    }
}

std::uint64_t
Hub::samples() const
{
    std::lock_guard<std::mutex> lock(dataMutex_);
    return ticks_;
}

double
Hub::elapsedMs() const
{
    if (!everStarted_)
        return 0.0;
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
}

void
Hub::samplerLoop()
{
    std::unique_lock<std::mutex> lock(wakeMutex_);
    // Capped at ~11 days, so that wait_for's conversion to integer
    // clock ticks cannot overflow.
    const auto interval = std::chrono::duration<double, std::milli>(
        std::min(options_.intervalMs, 1e9));
    while (!stopRequested_) {
        wake_.wait_for(lock, interval,
                       [this] { return stopRequested_; });
        if (stopRequested_)
            break;
        lock.unlock();
        tick();
        lock.lock();
    }
}

void
Hub::tick()
{
    const double t = elapsedMs();
    std::map<std::string, double> vals;

    // Progress and instruction throughput from the hook atomics.
    const std::uint64_t total =
        cellsTotal_.load(std::memory_order_relaxed);
    const std::uint64_t done =
        cellsDone_.load(std::memory_order_relaxed);
    const std::uint64_t instrs =
        instructions_.load(std::memory_order_relaxed);
    vals["cells.total"] = static_cast<double>(total);
    vals["cells.done"] = static_cast<double>(done);
    if (done > 0 && total > done && t > 0.0) {
        const double rate = static_cast<double>(done) / (t / 1e3);
        vals["cells.eta_s"] = static_cast<double>(total - done) / rate;
    }
    vals["sim.instructions"] = static_cast<double>(instrs);
    {
        // Instantaneous KIPS over the last tick interval; sequential
        // access only (sampler thread, then the post-join final tick).
        const double dt_ms = t - prevTickMs_;
        if (dt_ms > 0.0 && instrs >= prevInstructions_) {
            vals["sim.kips"] =
                static_cast<double>(instrs - prevInstructions_) / dt_ms;
        }
        prevTickMs_ = t;
        prevInstructions_ = instrs;
    }
    if (const std::uint64_t rss = currentRssKb(); rss > 0)
        vals["host.rss_kb"] = static_cast<double>(rss);

    // Host hot-phase self shares from the hotspot sampler's lock-free
    // live table, skipped entirely (no empty series) while that
    // sampler is off.
    if (hotspot::Sampler::process().active()) {
        const auto hot_counts = hotspot::liveSelfCounts();
        double hot_total = 0.0;
        for (const auto &[key, self] : hot_counts)
            hot_total += static_cast<double>(self);
        vals["hot.samples"] = static_cast<double>(
            hotspot::Sampler::process().liveSamples());
        if (hot_total > 0.0) {
            for (const auto &[key, self] : hot_counts) {
                if (self > 0) {
                    vals["hot." + key] =
                        static_cast<double>(self) / hot_total * 100.0;
                }
            }
        }
    }

    // Registered sources (per-worker pool tallies while a sweep runs).
    {
        std::lock_guard<std::mutex> lock(sourceMutex_);
        for (auto &[id, fn] : sources_)
            fn(vals);
    }

    {
        std::lock_guard<std::mutex> lock(dataMutex_);
        for (const auto &[name, value] : vals)
            series_[name].add(value);
        ++ticks_;
    }

    if (jsonl_ != nullptr) {
        Json line = Json::object();
        line["event"] = Json("sample");
        line["t_ms"] = Json(t);
        Json series = Json::object();
        for (const auto &[name, value] : vals)
            series[name] = Json(value);
        line["series"] = std::move(series);
        writeJsonlLine(line.dump());
    }
}

void
Hub::writeJsonlLine(const std::string &line)
{
    std::lock_guard<std::mutex> lock(jsonlMutex_);
    if (jsonl_ == nullptr)
        return;
    auto *f = static_cast<std::FILE *>(jsonl_);
    std::fputs(line.c_str(), f);
    std::fputc('\n', f);
    std::fflush(f);
}

Json
Hub::seriesJsonLocked() const
{
    Json series = Json::object();
    for (const auto &[name, summary] : series_)
        series[name] = summary.toJson();
    return series;
}

Json
Hub::summaryJson() const
{
    Json out = Json::object();
    if (!everStarted_) {
        out["enabled"] = Json(false);
        return out;
    }
    std::lock_guard<std::mutex> lock(dataMutex_);
    out["enabled"] = Json(true);
    out["interval_ms"] = Json(options_.intervalMs);
    out["samples"] = Json(ticks_);
    out["series"] = seriesJsonLocked();
    return out;
}

} // namespace dee::obs::telemetry
