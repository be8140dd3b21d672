#include "obs/heartbeat.hh"

#include <cstdio>
#include <sstream>

namespace dee::obs
{

Heartbeat::Heartbeat(std::string label, bool enabled,
                     double min_interval_s)
    : label_(std::move(label)), enabled_(enabled),
      minIntervalS_(min_interval_s),
      start_(std::chrono::steady_clock::now()), lastEmit_(start_)
{
}

void
Heartbeat::tick(std::uint64_t units)
{
    tick(units, 0);
}

void
Heartbeat::tick(std::uint64_t units, std::uint64_t instructions)
{
    std::lock_guard<std::mutex> lock(mutex_);
    done_ += units;
    instructions_ += instructions;
    if (!enabled_)
        return;
    const auto now = std::chrono::steady_clock::now();
    const double since_emit =
        std::chrono::duration<double>(now - lastEmit_).count();
    if (since_emit < minIntervalS_)
        return;
    lastEmit_ = now;
    std::fprintf(stderr, "%s\n", statusLineLocked().c_str());
}

void
Heartbeat::finish()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!enabled_)
        return;
    std::fprintf(stderr, "%s (done)\n", statusLineLocked().c_str());
}

std::string
Heartbeat::statusLine() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return statusLineLocked();
}

std::string
Heartbeat::statusLineLocked() const
{
    const double elapsed =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start_)
            .count();
    const double rate =
        elapsed > 0.0 ? static_cast<double>(done_) / elapsed : 0.0;

    std::ostringstream oss;
    oss << label_ << ": " << done_;
    if (total_ > 0)
        oss << "/" << total_;
    oss << " units, " << std::fixed;
    oss.precision(1);
    oss << rate << "/s";
    if (instructions_ > 0 && elapsed > 0.0) {
        const double kips =
            static_cast<double>(instructions_) / elapsed / 1e3;
        oss << ", " << kips << " KIPS";
    }
    if (total_ > 0 && rate > 0.0 && done_ < total_) {
        const double eta =
            static_cast<double>(total_ - done_) / rate;
        oss << ", eta " << eta << "s";
    }
    return oss.str();
}

} // namespace dee::obs
