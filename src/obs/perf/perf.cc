#include "obs/perf/perf.hh"

#if __has_include(<sys/resource.h>)
#define DEE_PERF_HAVE_GETRUSAGE 1
#include <sys/resource.h>
#else
#define DEE_PERF_HAVE_GETRUSAGE 0
#endif

namespace dee::obs::perf
{

ThroughputMeter::ThroughputMeter(std::string scope)
    : scope_(std::move(scope)), registry_(Registry::global()),
      start_(std::chrono::steady_clock::now())
{
}

double
ThroughputMeter::elapsedMs() const
{
    const auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(now - start_)
        .count();
}

ThroughputMeter::~ThroughputMeter()
{
    publish();
}

namespace
{

/** perf.<scope>.kips et al. from the scope's accumulated state; the
 *  single formula both publish() and refreshPerfScalars() use, so a
 *  post-merge refresh reproduces publish-time values bit for bit. */
void
deriveScopeScalars(Registry &registry, const std::string &prefix)
{
    const std::uint64_t *instrs =
        registry.findCounter(prefix + ".sim_instructions");
    const std::uint64_t *cycles =
        registry.findCounter(prefix + ".sim_cycles");
    const RunningStat *wall = registry.findStat(prefix + ".run_ms");
    const double ms = wall != nullptr ? wall->sum() : 0.0;
    if (ms <= 0.0)
        return;
    // instructions per host millisecond == kilo-instructions per host
    // second; same for cycles and mcps after the /1000.
    if (instrs != nullptr)
        registry.scalar(prefix + ".kips") = static_cast<double>(*instrs) / ms;
    if (cycles != nullptr) {
        registry.scalar(prefix + ".mcps") =
            static_cast<double>(*cycles) / ms / 1000.0;
    }
}

} // namespace

void
ThroughputMeter::publish()
{
    const double ms = elapsedMs();
    const std::string prefix = "perf." + scope_;
    ++registry_.counter(prefix + ".runs");
    registry_.counter(prefix + ".sim_instructions") += instructions_;
    registry_.counter(prefix + ".sim_cycles") += cycles_;
    registry_.stat(prefix + ".run_ms").add(ms);
    deriveScopeScalars(registry_, prefix);
}

void
publishHostResources(Registry &registry)
{
#if DEE_PERF_HAVE_GETRUSAGE
    struct rusage usage;
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return;
    // ru_maxrss is KiB on Linux; macOS reports bytes, normalized here
    // so perf.host.peak_rss_kb means the same thing everywhere.
#if defined(__APPLE__)
    const auto peak_rss_kb =
        static_cast<std::uint64_t>(usage.ru_maxrss) / 1024;
#else
    const auto peak_rss_kb = static_cast<std::uint64_t>(usage.ru_maxrss);
#endif
    registry.counter("perf.host.peak_rss_kb") = peak_rss_kb;
    registry.counter("perf.host.major_faults") =
        static_cast<std::uint64_t>(usage.ru_majflt);
    registry.counter("perf.host.minor_faults") =
        static_cast<std::uint64_t>(usage.ru_minflt);
#else
    (void)registry;
#endif // DEE_PERF_HAVE_GETRUSAGE
}

void
refreshPerfScalars(Registry &registry)
{
    static const std::string kPrefix = "perf.";
    static const std::string kSuffix = ".sim_instructions";
    for (const std::string &path : registry.paths()) {
        if (path.compare(0, kPrefix.size(), kPrefix) != 0)
            continue;
        if (path.size() <= kPrefix.size() + kSuffix.size() ||
            path.compare(path.size() - kSuffix.size(), kSuffix.size(),
                         kSuffix) != 0)
            continue;
        deriveScopeScalars(registry,
                           path.substr(0, path.size() - kSuffix.size()));
    }
}

} // namespace dee::obs::perf
