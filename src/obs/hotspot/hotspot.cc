#include "obs/hotspot/hotspot.hh"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "common/logging.hh"

#if defined(__linux__) && defined(__GLIBC__)
#define DEE_HOTSPOT_PLATFORM 1
#else
#define DEE_HOTSPOT_PLATFORM 0
#endif

#if DEE_HOTSPOT_PLATFORM
#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <signal.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

// glibc only gained the POSIX spelling of the thread-directed-timer
// field in 2.38; reach into the union on older libcs (Linux ABI).
#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif
#endif // DEE_HOTSPOT_PLATFORM

namespace dee::obs::hotspot
{

namespace
{

const char *const kPhaseNames[kNumPhases] = {
    "fetch", "tree_move", "issue", "resolve", "copy_back", "merge",
    "other",
};

/* ---- interned scope table ---------------------------------------- */

/* Lock-free: markers intern on the push path, the handler only reads
 * indices. Slots are claimed once and never released; a full table
 * routes every later scope to the last slot (bounded misattribution,
 * never allocation). */
std::atomic<const char *> g_scope_names[kMaxScopes] = {};

/* ---- per-thread state -------------------------------------------- */

/**
 * The marker stack lives in TLS as lock-free atomics: the owning
 * thread writes it from push/pop, its own signal handler reads it, and
 * (in the one pathological case — a pending signal outliving
 * timer_delete into a reused ThreadState) a foreign handler may read
 * it, so every field a handler touches is an atomic.
 */
struct TlsStack
{
    std::atomic<std::uint16_t> entries[kMaxPhaseDepth];
    std::atomic<std::uint32_t> depth;
    /* push fast path: last interned (pointer, index) pair */
    const char *lastScope;
    std::uint8_t lastIdx;
};

/**
 * One thread's registration with the running sampler: the sample
 * buffer its timer fills. Pooled and never freed (see the header's
 * signal-safety rules); `armed` is the handler's permission to touch
 * anything beyond `inHandler`.
 */
struct ThreadState
{
    std::vector<RawSample> ring; ///< preallocated; handler writes only
    std::atomic<std::uint32_t> head{0}; ///< claimed slots (may exceed
                                        ///< ring.size(): the excess is
                                        ///< the drop count)
    std::atomic<int> inHandler{0};
    std::atomic<bool> armed{false};
    std::atomic<TlsStack *> stack{nullptr};
#if DEE_HOTSPOT_PLATFORM
    timer_t timer{};
#endif
    bool timerLive = false; ///< guarded by g_mutex
};

std::atomic<std::uint64_t> g_generation{0};

/** Registration / lifecycle lock — never taken by the handler. */
std::mutex g_mutex;
/* The current generation's registrations and the reusable ones. Both
 * lists are never destroyed, so every pooled ThreadState stays
 * reachable for the life of the process — through static destruction
 * too, where a leak checker would otherwise find its last pointers
 * gone. */
std::vector<ThreadState *> &g_states = *new std::vector<ThreadState *>;
std::vector<ThreadState *> &g_free_pool = *new std::vector<ThreadState *>;
Options g_options;                       ///< guarded by g_mutex
bool g_ever_started = false;
bool g_handler_installed = false;

/** Collected output of the last start()/stop() cycle. */
std::mutex g_report_mutex;
Report g_report;

thread_local TlsStack t_stack; /* zero-initialized TLS */
thread_local std::uint64_t t_generation = 0;

/** Thread-exit hook: disarm this thread's timer so no further signals
 *  target a dying tid, and detach the (soon invalid) TLS stack. */
struct TlsReaper
{
    ~TlsReaper()
    {
        const std::lock_guard<std::mutex> lock(g_mutex);
        for (ThreadState *state : g_states) {
            if (state->stack.load(std::memory_order_relaxed) !=
                &t_stack)
                continue;
            state->armed.store(false, std::memory_order_relaxed);
#if DEE_HOTSPOT_PLATFORM
            if (state->timerLive) {
                timer_delete(state->timer);
                state->timerLive = false;
            }
#endif
            while (state->inHandler.load(std::memory_order_acquire) !=
                   0) {
            }
            state->stack.store(nullptr, std::memory_order_relaxed);
        }
    }
};

thread_local TlsReaper t_reaper;

#if DEE_HOTSPOT_PLATFORM

/* ---- the signal handler ------------------------------------------ */

extern "C" void
deeHotspotHandler(int, siginfo_t *info, void *)
{
    if (info == nullptr || info->si_code != SI_TIMER ||
        info->si_value.sival_ptr == nullptr)
        return;
    auto *state = static_cast<ThreadState *>(info->si_value.sival_ptr);
    state->inHandler.fetch_add(1, std::memory_order_acquire);
    if (state->armed.load(std::memory_order_relaxed)) {
        /* Snapshot the marker stack first: attribution must not
         * depend on whether frame capture below succeeds. */
        std::uint16_t stack_copy[kMaxPhaseDepth];
        std::uint32_t depth = 0;
        TlsStack *stk = state->stack.load(std::memory_order_relaxed);
        if (stk != nullptr) {
            depth = stk->depth.load(std::memory_order_relaxed);
            if (depth > kMaxPhaseDepth)
                depth = kMaxPhaseDepth;
            std::atomic_signal_fence(std::memory_order_acquire);
            for (std::uint32_t i = 0; i < depth; ++i)
                stack_copy[i] =
                    stk->entries[i].load(std::memory_order_relaxed);
        }

        const std::uint32_t idx =
            state->head.fetch_add(1, std::memory_order_relaxed);
        if (idx < state->ring.size()) {
            RawSample &out = state->ring[idx];
            out.depth = static_cast<std::uint8_t>(depth);
            for (std::uint32_t i = 0; i < depth; ++i)
                out.phaseStack[i] = stack_copy[i];
            /* backtrace sees [0]=this handler, [1]=the kernel
             * trampoline — skip both so frames start at the
             * interrupted function. */
            constexpr int kSkip = 2;
            void *buf[kMaxFrames + kSkip];
            const int n =
                backtrace(buf, static_cast<int>(kMaxFrames + kSkip));
            const int kept = n > kSkip ? n - kSkip : 0;
            for (int i = 0; i < kept; ++i)
                out.frames[i] = buf[i + kSkip];
            out.numFrames = static_cast<std::uint8_t>(kept);
        }
    }
    state->inHandler.fetch_sub(1, std::memory_order_release);
}

pid_t
currentTid()
{
    return static_cast<pid_t>(syscall(SYS_gettid));
}

/**
 * Creates and arms this thread's CPU-time interval timer, delivering
 * SIGPROF with the ThreadState as the signal payload (the handler
 * never touches TLS itself). Caller holds g_mutex.
 */
bool
armThreadTimer(ThreadState *state, double interval_ms)
{
    struct sigevent sev = {};
    sev.sigev_notify = SIGEV_THREAD_ID;
    sev.sigev_signo = SIGPROF;
    sev.sigev_value.sival_ptr = state;
    sev.sigev_notify_thread_id = currentTid();
    if (timer_create(CLOCK_THREAD_CPUTIME_ID, &sev, &state->timer) !=
        0)
        return false;
    state->timerLive = true;
    state->armed.store(true, std::memory_order_relaxed);

    // Clamped before the cast: past ~11 days the period would
    // overflow a long count of nanoseconds.
    const long interval_ns =
        static_cast<long>(std::clamp(interval_ms * 1e6, 1e5, 1e15));
    struct itimerspec its = {};
    its.it_value.tv_sec = interval_ns / 1000000000L;
    its.it_value.tv_nsec = interval_ns % 1000000000L;
    its.it_interval = its.it_value;
    timer_settime(state->timer, 0, &its, nullptr);
    return true;
}

#endif // DEE_HOTSPOT_PLATFORM

/**
 * Registers the calling thread with the running sampler: takes a
 * pooled ThreadState (or makes one), points it at this thread's
 * marker stack and arms its timer. No-op when the sampler stopped in
 * the meantime or the platform cannot sample.
 */
void
registerThread()
{
#if DEE_HOTSPOT_PLATFORM
    const std::lock_guard<std::mutex> lock(g_mutex);
    if (!detail::g_active.load(std::memory_order_relaxed))
        return; /* stop() raced the registration */
    t_generation = g_generation.load(std::memory_order_relaxed);
    for (ThreadState *state : g_states)
        if (state->stack.load(std::memory_order_relaxed) == &t_stack)
            return; /* already registered this generation */

    ThreadState *state;
    if (!g_free_pool.empty()) {
        state = g_free_pool.back();
        g_free_pool.pop_back();
    } else {
        state = new ThreadState;
    }
    state->ring.resize(g_options.ringCapacity);
    state->head.store(0, std::memory_order_relaxed);
    state->stack.store(&t_stack, std::memory_order_relaxed);
    if (!armThreadTimer(state, g_options.intervalMs)) {
        state->stack.store(nullptr, std::memory_order_relaxed);
        g_free_pool.push_back(state);
        return;
    }
    g_states.push_back(state);
#endif
}

void
touchReaper()
{
    /* ODR-use the reaper so its destructor registers before the
     * thread can exit with a live timer. */
    static_cast<void>(&t_reaper);
}

/* ---- symbolization (offline only) -------------------------------- */

#if DEE_HOTSPOT_PLATFORM

/** One /proc/self/maps executable mapping, for the dladdr fallback. */
struct MapsEntry
{
    std::uintptr_t lo = 0;
    std::uintptr_t hi = 0;
    std::string name;
};

std::vector<MapsEntry>
readSelfMaps()
{
    std::vector<MapsEntry> maps;
    std::ifstream in("/proc/self/maps");
    std::string line;
    while (std::getline(in, line)) {
        std::uintptr_t lo = 0;
        std::uintptr_t hi = 0;
        char perms[8] = {};
        int name_off = -1;
        if (std::sscanf(line.c_str(),
                        "%" SCNxPTR "-%" SCNxPTR " %7s %*s %*s %*s %n",
                        &lo, &hi, perms, &name_off) < 3)
            continue;
        if (std::strchr(perms, 'x') == nullptr)
            continue;
        MapsEntry entry;
        entry.lo = lo;
        entry.hi = hi;
        if (name_off > 0 &&
            static_cast<std::size_t>(name_off) < line.size())
            entry.name = line.substr(
                static_cast<std::size_t>(name_off));
        maps.push_back(std::move(entry));
    }
    return maps;
}

std::string
basenameOf(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? path
                                      : path.substr(slash + 1);
}

std::string
demangle(const char *name)
{
    int status = 0;
    char *out =
        abi::__cxa_demangle(name, nullptr, nullptr, &status);
    if (status != 0 || out == nullptr) {
        std::free(out);
        return name;
    }
    std::string result(out);
    std::free(out);
    return result;
}

/** Shared symbolizer state for one buildReport() call. */
class Symbolizer
{
  public:
    const std::string &
    resolve(void *addr)
    {
        auto it = cache_.find(addr);
        if (it != cache_.end())
            return it->second;
        return cache_.emplace(addr, resolveUncached(addr))
            .first->second;
    }

  private:
    std::string
    resolveUncached(void *addr)
    {
        Dl_info info = {};
        if (dladdr(addr, &info) != 0 && info.dli_sname != nullptr)
            return demangle(info.dli_sname);
        if (dladdr(addr, &info) != 0 && info.dli_fname != nullptr &&
            info.dli_fbase != nullptr) {
            char buf[32];
            std::snprintf(buf, sizeof buf, "+0x%zx",
                          static_cast<std::size_t>(
                              reinterpret_cast<std::uintptr_t>(addr) -
                              reinterpret_cast<std::uintptr_t>(
                                  info.dli_fbase)));
            return basenameOf(info.dli_fname) + buf;
        }
        if (!mapsLoaded_) {
            maps_ = readSelfMaps();
            mapsLoaded_ = true;
        }
        const auto a = reinterpret_cast<std::uintptr_t>(addr);
        for (const MapsEntry &entry : maps_) {
            if (a < entry.lo || a >= entry.hi)
                continue;
            char buf[32];
            std::snprintf(buf, sizeof buf, "+0x%zx",
                          static_cast<std::size_t>(a - entry.lo));
            return (entry.name.empty() ? std::string("anon")
                                       : basenameOf(entry.name)) +
                   buf;
        }
        char buf[32];
        std::snprintf(buf, sizeof buf, "0x%zx",
                      static_cast<std::size_t>(a));
        return buf;
    }

    std::unordered_map<void *, std::string> cache_;
    std::vector<MapsEntry> maps_;
    bool mapsLoaded_ = false;
};

/** Frames the sampler's own machinery contributes are noise. */
bool
isSamplerFrame(const std::string &symbol)
{
    return symbol.find("deeHotspotHandler") != std::string::npos ||
           symbol.find("__restore_rt") != std::string::npos;
}

#endif // DEE_HOTSPOT_PLATFORM

std::string
phaseKey(std::uint16_t entry)
{
    return std::string(scopeName(entryScope(entry))) + "." +
           phaseName(entryPhase(entry));
}

} // namespace

/* ---- small public helpers ---------------------------------------- */

const char *
phaseName(Phase phase)
{
    const auto idx = static_cast<std::size_t>(phase);
    dee_assert(idx < kNumPhases, "bad hotspot phase ", idx);
    return kPhaseNames[idx];
}

std::uint8_t
internScope(const char *scope)
{
    for (std::size_t i = 0; i < kMaxScopes; ++i) {
        const char *cur =
            g_scope_names[i].load(std::memory_order_acquire);
        if (cur == nullptr) {
            const char *expected = nullptr;
            if (g_scope_names[i].compare_exchange_strong(
                    expected, scope, std::memory_order_acq_rel))
                return static_cast<std::uint8_t>(i);
            cur = expected;
        }
        if (cur == scope || std::strcmp(cur, scope) == 0)
            return static_cast<std::uint8_t>(i);
    }
    return kMaxScopes - 1; /* full: share the last slot */
}

const char *
scopeName(std::uint8_t idx)
{
    if (idx >= kMaxScopes)
        return "?";
    const char *name =
        g_scope_names[idx].load(std::memory_order_acquire);
    return name != nullptr ? name : "?";
}

/* ---- marker slow paths ------------------------------------------- */

namespace detail
{

std::atomic<bool> g_active{false};

void
pushPhase(const char *scope, Phase phase)
{
    TlsStack &stk = t_stack;
    if (t_generation != g_generation.load(std::memory_order_relaxed)) {
        touchReaper();
        registerThread();
    }
    std::uint8_t idx;
    if (scope == stk.lastScope) {
        idx = stk.lastIdx;
    } else {
        idx = internScope(scope);
        stk.lastScope = scope;
        stk.lastIdx = idx;
    }
    const std::uint32_t depth =
        stk.depth.load(std::memory_order_relaxed);
    if (depth < kMaxPhaseDepth) {
        stk.entries[depth].store(packEntry(idx, phase),
                                 std::memory_order_relaxed);
        /* entry before depth, for the same-thread signal handler */
        std::atomic_signal_fence(std::memory_order_release);
    }
    stk.depth.store(depth + 1, std::memory_order_relaxed);
}

void
popPhase()
{
    TlsStack &stk = t_stack;
    const std::uint32_t depth =
        stk.depth.load(std::memory_order_relaxed);
    if (depth > 0)
        stk.depth.store(depth - 1, std::memory_order_relaxed);
}

} // namespace detail

/* ---- report building --------------------------------------------- */

double
Report::attributedPct() const
{
    if (totalSamples == 0)
        return 0.0;
    return 100.0 * static_cast<double>(attributed) /
           static_cast<double>(totalSamples);
}

Json
Report::toJson() const
{
    Json root = Json::object();
    root["enabled"] = Json(true);
    root["interval_ms"] = Json(intervalMs);
    root["samples"] = Json(totalSamples);
    root["attributed"] = Json(attributed);
    root["attributed_pct"] = Json(attributedPct());
    root["dropped"] = Json(dropped);
    root["threads"] = Json(threads);

    Json phase_obj = Json::object();
    for (const auto &[key, stat] : phases) {
        Json entry = Json::object();
        entry["self"] = Json(stat.self);
        entry["total"] = Json(stat.total);
        entry["pct"] = Json(stat.pct);
        entry["self_pct"] = Json(stat.selfPct);
        phase_obj[key] = std::move(entry);
    }
    root["phases"] = std::move(phase_obj);

    Json stacks = Json::array();
    for (const auto &[stack, count] : topStacks) {
        Json entry = Json::object();
        entry["stack"] = Json(stack);
        entry["count"] = Json(count);
        stacks.push(std::move(entry));
    }
    root["top_stacks"] = std::move(stacks);
    return root;
}

std::string
Report::renderTable() const
{
    std::ostringstream out;
    out << "host hotspot phases (" << totalSamples << " samples, "
        << threads << " thread(s), ";
    char pct[32];
    std::snprintf(pct, sizeof pct, "%.1f%%", attributedPct());
    out << pct << " attributed, " << dropped << " dropped)\n";
    std::size_t width = std::strlen("unattributed");
    for (const auto &[key, stat] : phases)
        width = std::max(width, key.size());
    /* heaviest self share first */
    std::vector<std::pair<std::string, PhaseStat>> rows(
        phases.begin(), phases.end());
    std::sort(rows.begin(), rows.end(),
              [](const auto &a, const auto &b) {
                  if (a.second.self != b.second.self)
                      return a.second.self > b.second.self;
                  return a.first < b.first;
              });
    for (const auto &[key, stat] : rows) {
        char line[128];
        std::snprintf(line, sizeof line,
                      "  %-*s  self %6.2f%%  total %6.2f%%  (%" PRIu64
                      " samples)\n",
                      static_cast<int>(width), key.c_str(),
                      stat.selfPct, stat.pct, stat.self);
        out << line;
    }
    if (totalSamples > attributed) {
        char line[128];
        std::snprintf(line, sizeof line,
                      "  %-*s  self %6.2f%%\n",
                      static_cast<int>(width), "unattributed",
                      100.0 - attributedPct());
        out << line;
    }
    return out.str();
}

std::string
Report::foldedStacks() const
{
    std::ostringstream out;
    for (const auto &[stack, count] : topStacks)
        out << stack << " " << count << "\n";
    return out.str();
}

Report
buildReport(const std::vector<RawSample> &samples,
            std::uint64_t dropped, std::uint64_t threads,
            double intervalMs, bool symbolize, std::size_t maxStacks)
{
    Report report;
    report.totalSamples = samples.size();
    report.dropped = dropped;
    report.threads = threads;
    report.intervalMs = intervalMs;

#if DEE_HOTSPOT_PLATFORM
    Symbolizer symbols;
#else
    symbolize = false;
#endif

    std::map<std::string, std::uint64_t> folds;
    std::string fold_key;
    for (const RawSample &sample : samples) {
        const std::uint32_t depth =
            std::min<std::uint32_t>(sample.depth, kMaxPhaseDepth);
        if (depth > 0)
            ++report.attributed;

        /* total: each distinct open phase once per sample */
        for (std::uint32_t i = 0; i < depth; ++i) {
            bool repeated = false;
            for (std::uint32_t j = 0; j < i && !repeated; ++j)
                repeated = sample.phaseStack[j] == sample.phaseStack[i];
            if (!repeated)
                ++report.phases[phaseKey(sample.phaseStack[i])].total;
        }
        if (depth > 0)
            ++report.phases[phaseKey(sample.phaseStack[depth - 1])]
                  .self;

        /* fold the host stack, rooted at the innermost phase */
        fold_key = "host;";
        fold_key += depth > 0 ? phaseKey(sample.phaseStack[depth - 1])
                              : "unattributed";
#if DEE_HOTSPOT_PLATFORM
        if (symbolize && sample.numFrames > 0) {
            /* frames are innermost-first; flamegraphs fold
             * outermost-first */
            for (int i = sample.numFrames - 1; i >= 0; --i) {
                const std::string &sym =
                    symbols.resolve(sample.frames[i]);
                if (isSamplerFrame(sym))
                    continue;
                fold_key += ';';
                /* the fold separator must stay unambiguous */
                for (const char c : sym)
                    fold_key += c == ';' ? ':' : c;
            }
        }
#endif
        ++folds[fold_key];
    }

    const double total =
        report.totalSamples > 0
            ? static_cast<double>(report.totalSamples)
            : 1.0;
    for (auto &[key, stat] : report.phases) {
        stat.pct = 100.0 * static_cast<double>(stat.total) / total;
        stat.selfPct = 100.0 * static_cast<double>(stat.self) / total;
    }

    report.topStacks.assign(folds.begin(), folds.end());
    std::sort(report.topStacks.begin(), report.topStacks.end(),
              [](const auto &a, const auto &b) {
                  if (a.second != b.second)
                      return a.second > b.second;
                  return a.first < b.first;
              });
    if (report.topStacks.size() > maxStacks)
        report.topStacks.resize(maxStacks);
    return report;
}

/* ---- the Sampler ------------------------------------------------- */

Sampler &
Sampler::process()
{
    static Sampler sampler;
    return sampler;
}

bool
Sampler::supported()
{
    return DEE_HOTSPOT_PLATFORM != 0;
}

bool
Sampler::active() const
{
    return detail::g_active.load(std::memory_order_relaxed);
}

bool
Sampler::everStarted() const
{
    const std::lock_guard<std::mutex> lock(g_mutex);
    return g_ever_started;
}

bool
Sampler::start(const Options &options)
{
    if (!std::isfinite(options.intervalMs) || options.intervalMs <= 0.0) {
        dee_warn("hotspot interval must be a finite number > 0 ms (got ",
                 options.intervalMs, "); --hotspots ignored");
        return false;
    }
    if (!supported()) {
        dee_inform("hotspot sampler unsupported on this platform; "
                   "--hotspots ignored");
        return false;
    }
#if DEE_HOTSPOT_PLATFORM
    {
        const std::lock_guard<std::mutex> lock(g_mutex);
        if (detail::g_active.load(std::memory_order_relaxed)) {
            dee_inform("hotspot sampler already running");
            return false;
        }
        options_ = options;
        g_options = options;
        g_ever_started = true;
        g_generation.fetch_add(1, std::memory_order_relaxed);

        /* backtrace's first call may dlopen (allocates) — get that
         * out of the way before any handler runs */
        void *prime[4];
        backtrace(prime, 4);

        if (!g_handler_installed) {
            struct sigaction sa = {};
            sa.sa_sigaction = deeHotspotHandler;
            sa.sa_flags = SA_SIGINFO | SA_RESTART;
            sigemptyset(&sa.sa_mask);
            if (sigaction(SIGPROF, &sa, nullptr) != 0) {
                dee_inform("hotspot sampler: sigaction(SIGPROF) "
                           "failed; --hotspots ignored");
                return false;
            }
            /* Stays installed for the process lifetime: restoring the
             * default action would turn a late pending timer signal
             * into process termination. */
            g_handler_installed = true;
        }
        detail::g_active.store(true, std::memory_order_relaxed);
    }
    /* Register the calling thread immediately so single-threaded
     * tools sample from the first instruction, markers or not. */
    touchReaper();
    registerThread();
    return true;
#else
    return false;
#endif
}

void
Sampler::stop()
{
#if DEE_HOTSPOT_PLATFORM
    const std::lock_guard<std::mutex> lock(g_mutex);
    if (!detail::g_active.load(std::memory_order_relaxed))
        return;
    detail::g_active.store(false, std::memory_order_relaxed);

    for (ThreadState *state : g_states) {
        state->armed.store(false, std::memory_order_relaxed);
        if (state->timerLive) {
            timer_delete(state->timer);
            state->timerLive = false;
        }
    }
    /* Wait out in-flight handlers; after this every claimed ring slot
     * is fully written. */
    for (ThreadState *state : g_states)
        while (state->inHandler.load(std::memory_order_acquire) != 0) {
        }

    std::vector<RawSample> collected;
    std::uint64_t dropped = 0;
    const std::uint64_t threads = g_states.size();
    for (ThreadState *state : g_states) {
        const std::uint32_t claimed =
            state->head.load(std::memory_order_acquire);
        const auto kept = static_cast<std::uint32_t>(std::min<
            std::size_t>(claimed, state->ring.size()));
        collected.insert(collected.end(), state->ring.begin(),
                         state->ring.begin() + kept);
        dropped += claimed - kept;
        state->stack.store(nullptr, std::memory_order_relaxed);
        g_free_pool.push_back(state);
    }
    g_states.clear();

    Report report = buildReport(collected, dropped, threads,
                                options_.intervalMs,
                                /*symbolize=*/true);
    {
        const std::lock_guard<std::mutex> report_lock(g_report_mutex);
        g_report = std::move(report);
    }
#endif
}

const Report &
Sampler::report() const
{
    /* Callers read after stop(); the lock only orders the assignment
     * above with a racing first read. */
    const std::lock_guard<std::mutex> lock(g_report_mutex);
    return g_report;
}

Json
Sampler::sectionJson() const
{
    {
        const std::lock_guard<std::mutex> lock(g_mutex);
        if (!g_ever_started) {
            Json root = Json::object();
            root["enabled"] = Json(false);
            return root;
        }
    }
    return report().toJson();
}

} // namespace dee::obs::hotspot
