/**
 * @file
 * Small statistics toolkit used throughout the simulators and benches.
 *
 * The paper reports harmonic means over benchmarks (its Figure 5 summary
 * graph), so this module provides running moments and the three
 * Pythagorean means.
 */

#ifndef DEE_COMMON_STATS_HH
#define DEE_COMMON_STATS_HH

#include <cstdint>
#include <vector>

namespace dee
{

/** Single-pass accumulator for count/mean/min/max/variance (Welford). */
class RunningStat
{
  public:
    void add(double x);

    std::uint64_t count() const { return count_; }
    double mean() const;
    double min() const;
    double max() const;
    /** Population variance; 0 for fewer than two samples. */
    double variance() const;
    double stddev() const;
    double sum() const { return sum_; }

    /**
     * Keeps every future add()'ed sample in an ordered log, so this
     * stat can later be merge()d into another *bit-exactly* — the
     * target replays the log through add(), which is indistinguishable
     * from having received the samples directly. Used by the parallel
     * runner's per-cell registries (obs/isolate.hh); cells see a
     * handful of samples each, so the log stays tiny.
     */
    void enableSampleLog() { logging_ = true; }

    /** The replay log, or null when enableSampleLog() was never on. */
    const std::vector<double> *sampleLog() const
    {
        return logging_ ? &samples_ : nullptr;
    }

    /**
     * Folds @p other into this stat. When @p other carries a sample
     * log the merge is an exact replay (bit-identical to sequential
     * add()s in log order); otherwise the moments are combined with
     * the parallel Welford formulas, which is mathematically right but
     * not bit-identical to a sequential accumulation.
     */
    void merge(const RunningStat &other);

  private:
    std::uint64_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
    bool logging_ = false;
    std::vector<double> samples_;
};

/** Arithmetic mean of a sample vector; 0 for an empty vector. */
double arithmeticMean(const std::vector<double> &xs);

/** Geometric mean; all samples must be > 0. */
double geometricMean(const std::vector<double> &xs);

/**
 * Harmonic mean; all samples must be > 0.
 *
 * This is the summary statistic the paper uses for its "Harmonic Mean"
 * graph and for the espresso multi-input datum.
 */
double harmonicMean(const std::vector<double> &xs);

} // namespace dee

#endif // DEE_COMMON_STATS_HH
