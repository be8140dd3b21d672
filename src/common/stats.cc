#include "common/stats.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace dee
{

void
RunningStat::add(double x)
{
    if (count_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    if (logging_)
        samples_.push_back(x);
}

void
RunningStat::merge(const RunningStat &other)
{
    if (other.count_ == 0)
        return;
    if (const std::vector<double> *log = other.sampleLog()) {
        dee_assert(log->size() == other.count_,
                   "RunningStat sample log out of sync: ", log->size(),
                   " samples for count ", other.count_);
        for (const double x : *log)
            add(x);
        return;
    }
    // Moment combination (Chan et al.); exact for count/sum/min/max,
    // mathematically correct but not replay-bit-identical for
    // mean/variance.
    if (count_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
    } else {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }
    const double na = static_cast<double>(count_);
    const double nb = static_cast<double>(other.count_);
    const double delta = other.mean_ - mean_;
    const double n = na + nb;
    m2_ += other.m2_ + delta * delta * na * nb / n;
    mean_ += delta * nb / n;
    count_ += other.count_;
    sum_ += other.sum_;
    if (logging_)
        dee_fatal("cannot moment-merge into a sample-logging "
                  "RunningStat (the log would go stale)");
}

double
RunningStat::mean() const
{
    return count_ == 0 ? 0.0 : mean_;
}

double
RunningStat::min() const
{
    return count_ == 0 ? 0.0 : min_;
}

double
RunningStat::max() const
{
    return count_ == 0 ? 0.0 : max_;
}

double
RunningStat::variance() const
{
    return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_);
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

double
arithmeticMean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    return sum / static_cast<double>(xs.size());
}

double
geometricMean(const std::vector<double> &xs)
{
    dee_assert(!xs.empty(), "geometricMean of empty sample");
    double log_sum = 0.0;
    for (double x : xs) {
        dee_assert(x > 0.0, "geometricMean requires positive samples");
        log_sum += std::log(x);
    }
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

double
harmonicMean(const std::vector<double> &xs)
{
    dee_assert(!xs.empty(), "harmonicMean of empty sample");
    double recip_sum = 0.0;
    for (double x : xs) {
        dee_assert(x > 0.0, "harmonicMean requires positive samples");
        recip_sum += 1.0 / x;
    }
    return static_cast<double>(xs.size()) / recip_sum;
}

} // namespace dee
