#include "obs/telemetry/telemetry.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "obs/hotspot/hotspot.hh"
#include "obs/profile/profile.hh"
#include "obs/registry.hh"
#include "obs/telemetry/stats_server.hh"

namespace dee::obs::telemetry
{

// ---- Series -------------------------------------------------------------

Series::Series(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity)
{
}

void
Series::add(double t_ms, double value)
{
    if (ring_.size() != capacity_)
        ring_.resize(capacity_);
    ring_[head_] = {t_ms, value};
    head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
    if (size_ < capacity_)
        ++size_;
    if (summary_.count == 0) {
        summary_.min = value;
        summary_.max = value;
    } else {
        summary_.min = std::min(summary_.min, value);
        summary_.max = std::max(summary_.max, value);
    }
    summary_.last = value;
    ++summary_.count;
}

std::vector<Sample>
Series::tail(std::size_t n) const
{
    const std::size_t take = std::min(n, size_);
    std::vector<Sample> out;
    out.reserve(take);
    // Oldest of the requested window first: walk back `take` slots
    // from the write head, then forward.
    std::size_t idx = (head_ + capacity_ - take) % capacity_;
    for (std::size_t i = 0; i < take; ++i) {
        out.push_back(ring_[idx]);
        idx = idx + 1 == capacity_ ? 0 : idx + 1;
    }
    return out;
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
    if (!compiledIn()) {
        dee_warn("telemetry requested but compiled out "
                 "(DEE_OBS_TELEMETRY_ENABLED=0)");
        return false;
    }
    if (active()) {
        dee_warn("telemetry already running; ignoring start()");
        return false;
    }
    if (options.intervalMs <= 0.0) {
        dee_warn("telemetry interval must be > 0 ms (got ",
                 options.intervalMs, "); telemetry stays off");
        return false;
    }

    options_ = options;
    start_ = std::chrono::steady_clock::now();
    {
        std::lock_guard<std::mutex> lock(dataMutex_);
        series_.clear();
        topSquashSites_.clear();
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

    if (!options_.socketPath.empty()) {
        server_ = std::make_unique<StatsServer>(*this);
        if (!server_->start(options_.socketPath))
            server_.reset();
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
    // One final sample with the registry lock taken for real, so the
    // stream and the manifest summary end on fully merged state.
    tick(/*final=*/true);
    active_.store(false, std::memory_order_release);
    if (server_) {
        server_->stop();
        server_.reset();
    }
    if (jsonl_ != nullptr) {
        Json foot = Json::object();
        foot["schema"] = Json("dee.telemetry.v1");
        foot["event"] = Json("finish");
        foot["t_ms"] = Json(elapsedMs());
        {
            std::lock_guard<std::mutex> lock(dataMutex_);
            foot["samples"] = Json(ticks_);
            Json series = Json::object();
            for (const auto &[name, s] : series_) {
                Json node = Json::object();
                node["count"] = Json(s.summary().count);
                node["min"] = Json(s.summary().min);
                node["max"] = Json(s.summary().max);
                node["last"] = Json(s.summary().last);
                series[name] = std::move(node);
            }
            foot["series"] = std::move(series);
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
Hub::addEmitter(std::function<void()> fn)
{
    std::lock_guard<std::mutex> lock(sourceMutex_);
    const std::uint64_t id = nextSourceId_++;
    emitters_.emplace_back(id, std::move(fn));
    return id;
}

void
Hub::removeEmitter(std::uint64_t id)
{
    std::lock_guard<std::mutex> lock(sourceMutex_);
    for (std::size_t i = 0; i < emitters_.size(); ++i) {
        if (emitters_[i].first == id) {
            emitters_.erase(emitters_.begin() +
                            static_cast<std::ptrdiff_t>(i));
            return;
        }
    }
}

void
Hub::record(const std::string &name, double value)
{
    if (!active())
        return;
    const double t = elapsedMs();
    std::lock_guard<std::mutex> lock(dataMutex_);
    series_.try_emplace(name, options_.seriesCapacity)
        .first->second.add(t, value);
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
    const auto interval = std::chrono::duration<double, std::milli>(
        options_.intervalMs);
    while (!stopRequested_) {
        wake_.wait_for(lock, interval,
                       [this] { return stopRequested_; });
        if (stopRequested_)
            break;
        lock.unlock();
        tick(/*final=*/false);
        lock.lock();
    }
}

namespace
{

/** True when @p path is "acct.<scope>.<class>" for @p cls. */
bool
isAcctClassPath(const std::string &path, const char *cls)
{
    if (path.compare(0, 5, "acct.") != 0)
        return false;
    const std::string suffix = std::string(".") + cls;
    return path.size() > suffix.size() &&
           path.compare(path.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

const char *const kAcctClasses[] = {
    "useful",          "squashed_spec", "fetch_stall",
    "resource_starved", "refill_stall",  "copy_back",
    "idle",
};

} // namespace

void
Hub::tick(bool final)
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

    // Host hot-phase self shares from the sampler's lock-free live
    // table — no registry lock needed, and skipped entirely (no empty
    // series) while the sampler is off.
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

    // Registry-derived series: only when no producer is mutating the
    // process registry right now (the final tick waits for the lock —
    // every producer has finished by then).
    std::vector<std::pair<std::string, std::uint64_t>> top_sites;
    bool have_registry = false;
    {
        std::unique_lock<std::mutex> reg_lock(registryMutex_,
                                              std::defer_lock);
        if (final)
            reg_lock.lock();
        else if (!reg_lock.try_lock())
            reg_lock.release();
        if (reg_lock.owns_lock()) {
            have_registry = true;
            const Registry &registry = Registry::process();
            double acct[sizeof(kAcctClasses) /
                        sizeof(kAcctClasses[0])] = {};
            for (const std::string &path : registry.paths()) {
                for (std::size_t c = 0;
                     c < sizeof(kAcctClasses) / sizeof(kAcctClasses[0]);
                     ++c) {
                    if (isAcctClassPath(path, kAcctClasses[c])) {
                        if (const std::uint64_t *v =
                                registry.findCounter(path))
                            acct[c] += static_cast<double>(*v);
                    }
                }
            }
            for (std::size_t c = 0;
                 c < sizeof(kAcctClasses) / sizeof(kAcctClasses[0]);
                 ++c) {
                if (acct[c] > 0.0)
                    vals[std::string("acct.") + kAcctClasses[c]] =
                        acct[c];
            }

            // Top squashed-slot branch sites, aggregated over every
            // merged scope (what dee_top's hot-sites row shows).
            std::map<std::uint32_t, std::uint64_t> by_pc;
            for (const auto &[scope, profile] :
                 ProfileStore::process().scopes()) {
                for (const auto &[pc, site] : profile.sites()) {
                    if (site.squashedSlots > 0)
                        by_pc[pc] += site.squashedSlots;
                }
            }
            top_sites.reserve(by_pc.size());
            for (const auto &[pc, slots] : by_pc) {
                std::ostringstream name;
                name << "0x" << std::hex << pc;
                top_sites.emplace_back(name.str(), slots);
            }
            std::sort(top_sites.begin(), top_sites.end(),
                      [](const auto &a, const auto &b) {
                          return a.second != b.second
                                     ? a.second > b.second
                                     : a.first < b.first;
                      });
            if (top_sites.size() > 8)
                top_sites.resize(8);
        }
    }

    {
        std::lock_guard<std::mutex> lock(dataMutex_);
        for (const auto &[name, value] : vals) {
            series_.try_emplace(name, options_.seriesCapacity)
                .first->second.add(t, value);
        }
        if (have_registry)
            topSquashSites_ = std::move(top_sites);
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

    if (!final) {
        // Fire the emitters (Heartbeat progress lines) on the sampler
        // clock, after this tick's samples landed, so a stderr line
        // can never describe state telemetry has not yet seen.
        std::lock_guard<std::mutex> lock(sourceMutex_);
        for (auto &[id, fn] : emitters_)
            fn();
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
Hub::snapshotJson() const
{
    const double t = elapsedMs();
    std::lock_guard<std::mutex> lock(dataMutex_);
    return snapshotJsonLocked(t);
}

Json
Hub::snapshotJsonLocked(double t_ms) const
{
    Json out = Json::object();
    out["schema"] = Json("dee.telemetry.v1");
    out["tool"] = Json(options_.tool);
    out["active"] = Json(active());
    out["t_ms"] = Json(t_ms);
    out["samples"] = Json(ticks_);
    out["interval_ms"] = Json(options_.intervalMs);

    Json progress = Json::object();
    progress["cells_done"] =
        Json(cellsDone_.load(std::memory_order_relaxed));
    progress["cells_total"] =
        Json(cellsTotal_.load(std::memory_order_relaxed));
    progress["instructions"] =
        Json(instructions_.load(std::memory_order_relaxed));
    out["progress"] = std::move(progress);

    Json series = Json::object();
    for (const auto &[name, s] : series_) {
        Json node = Json::object();
        node["count"] = Json(s.summary().count);
        node["min"] = Json(s.summary().min);
        node["max"] = Json(s.summary().max);
        node["last"] = Json(s.summary().last);
        series[name] = std::move(node);
    }
    out["series"] = std::move(series);

    Json sites = Json::array();
    for (const auto &[site, slots] : topSquashSites_) {
        Json node = Json::object();
        node["site"] = Json(site);
        node["slots"] = Json(slots);
        sites.push(std::move(node));
    }
    out["top_squash_sites"] = std::move(sites);
    return out;
}

std::vector<Sample>
Hub::seriesTail(const std::string &name, std::size_t n) const
{
    std::lock_guard<std::mutex> lock(dataMutex_);
    const auto it = series_.find(name);
    if (it == series_.end())
        return {};
    return it->second.tail(n);
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
    Json series = Json::object();
    for (const auto &[name, s] : series_) {
        Json node = Json::object();
        node["count"] = Json(s.summary().count);
        node["min"] = Json(s.summary().min);
        node["max"] = Json(s.summary().max);
        node["last"] = Json(s.summary().last);
        series[name] = std::move(node);
    }
    out["series"] = std::move(series);
    return out;
}

} // namespace dee::obs::telemetry
