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

void
ThroughputMeter::publish()
{
    const double ms = elapsedMs();
    const std::string prefix = "perf." + scope_;
    ++registry_.counter(prefix + ".runs");
    registry_.counter(prefix + ".sim_instructions") += instructions_;
    registry_.counter(prefix + ".sim_cycles") += cycles_;
    registry_.stat(prefix + ".run_ms").add(ms);
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

} // namespace dee::obs::perf
