#include "bpred/bpred.hh"

#include <cctype>
#include <sstream>

#include "common/logging.hh"
#include "obs/registry.hh"

namespace dee
{

namespace
{

/** Weakly-taken power-on state for 2-bit counters. */
constexpr std::uint8_t kWeakTaken = 2;

std::uint8_t
bumpCounter(std::uint8_t c, bool taken)
{
    if (taken)
        return c < 3 ? c + 1 : 3;
    return c > 0 ? c - 1 : 0;
}

} // namespace

// --- TwoBitPredictor -----------------------------------------------------

TwoBitPredictor::TwoBitPredictor(std::uint32_t num_static)
    : numStatic_(num_static), counters_(num_static, kWeakTaken)
{
    dee_assert(num_static > 0, "TwoBitPredictor needs a non-empty table");
}

bool
TwoBitPredictor::predict(const BranchQuery &q)
{
    dee_assert(q.sid < numStatic_, "branch sid out of predictor range");
    return counters_[q.sid] >= 2;
}

void
TwoBitPredictor::update(const BranchQuery &q, bool taken)
{
    dee_assert(q.sid < numStatic_, "branch sid out of predictor range");
    counters_[q.sid] = bumpCounter(counters_[q.sid], taken);
}

void
TwoBitPredictor::reset()
{
    counters_.assign(counters_.size(), kWeakTaken);
}

std::unique_ptr<BranchPredictor>
TwoBitPredictor::clone() const
{
    return std::make_unique<TwoBitPredictor>(numStatic_);
}

// --- OneBitPredictor -----------------------------------------------------

OneBitPredictor::OneBitPredictor(std::uint32_t num_static)
    : numStatic_(num_static), lastTaken_(num_static, 1)
{
    dee_assert(num_static > 0, "OneBitPredictor needs a non-empty table");
}

bool
OneBitPredictor::predict(const BranchQuery &q)
{
    dee_assert(q.sid < numStatic_, "branch sid out of predictor range");
    return lastTaken_[q.sid] != 0;
}

void
OneBitPredictor::update(const BranchQuery &q, bool taken)
{
    dee_assert(q.sid < numStatic_, "branch sid out of predictor range");
    lastTaken_[q.sid] = taken ? 1 : 0;
}

void
OneBitPredictor::reset()
{
    lastTaken_.assign(lastTaken_.size(), 1);
}

std::unique_ptr<BranchPredictor>
OneBitPredictor::clone() const
{
    return std::make_unique<OneBitPredictor>(numStatic_);
}

// --- Static predictors ---------------------------------------------------

std::unique_ptr<BranchPredictor>
AlwaysTakenPredictor::clone() const
{
    return std::make_unique<AlwaysTakenPredictor>();
}

std::unique_ptr<BranchPredictor>
BtfntPredictor::clone() const
{
    return std::make_unique<BtfntPredictor>();
}

std::unique_ptr<BranchPredictor>
OraclePredictor::clone() const
{
    return std::make_unique<OraclePredictor>();
}

// --- GsharePredictor -----------------------------------------------------

GsharePredictor::GsharePredictor(unsigned log_table_size,
                                 unsigned history_bits)
    : logSize_(log_table_size), historyBits_(history_bits),
      counters_(std::size_t{1} << log_table_size, kWeakTaken)
{
    dee_assert(log_table_size >= 1 && log_table_size <= 24,
               "gshare table size out of range");
    dee_assert(history_bits <= 32, "gshare history too long");
}

std::size_t
GsharePredictor::index(const BranchQuery &q) const
{
    const std::uint64_t mask = (std::uint64_t{1} << logSize_) - 1;
    const std::uint64_t hist_mask =
        historyBits_ >= 64 ? ~0ull : ((std::uint64_t{1} << historyBits_) - 1);
    return static_cast<std::size_t>((q.sid ^ (history_ & hist_mask)) &
                                    mask);
}

bool
GsharePredictor::predict(const BranchQuery &q)
{
    return counters_[index(q)] >= 2;
}

void
GsharePredictor::update(const BranchQuery &q, bool taken)
{
    auto &c = counters_[index(q)];
    c = bumpCounter(c, taken);
    history_ = (history_ << 1) | (taken ? 1 : 0);
}

void
GsharePredictor::reset()
{
    history_ = 0;
    counters_.assign(counters_.size(), kWeakTaken);
}

std::unique_ptr<BranchPredictor>
GsharePredictor::clone() const
{
    return std::make_unique<GsharePredictor>(logSize_, historyBits_);
}

std::string
GsharePredictor::name() const
{
    std::ostringstream oss;
    oss << "gshare(" << logSize_ << "," << historyBits_ << ")";
    return oss.str();
}

// --- PApPredictor --------------------------------------------------------

PApPredictor::PApPredictor(std::uint32_t num_static, unsigned history_bits)
    : numStatic_(num_static), historyBits_(history_bits),
      histories_(num_static, 0),
      counters_(std::size_t{num_static} << history_bits, kWeakTaken)
{
    dee_assert(num_static > 0, "PApPredictor needs a non-empty table");
    dee_assert(history_bits >= 1 && history_bits <= 12,
               "PAp history length out of range");
}

bool
PApPredictor::predict(const BranchQuery &q)
{
    dee_assert(q.sid < numStatic_, "branch sid out of predictor range");
    const std::size_t idx =
        (std::size_t{q.sid} << historyBits_) | histories_[q.sid];
    return counters_[idx] >= 2;
}

void
PApPredictor::update(const BranchQuery &q, bool taken)
{
    dee_assert(q.sid < numStatic_, "branch sid out of predictor range");
    const std::size_t idx =
        (std::size_t{q.sid} << historyBits_) | histories_[q.sid];
    counters_[idx] = bumpCounter(counters_[idx], taken);
    const std::uint16_t mask =
        static_cast<std::uint16_t>((1u << historyBits_) - 1);
    histories_[q.sid] =
        static_cast<std::uint16_t>(((histories_[q.sid] << 1) |
                                    (taken ? 1 : 0)) & mask);
}

void
PApPredictor::reset()
{
    histories_.assign(histories_.size(), 0);
    counters_.assign(counters_.size(), kWeakTaken);
}

std::unique_ptr<BranchPredictor>
PApPredictor::clone() const
{
    return std::make_unique<PApPredictor>(numStatic_, historyBits_);
}

std::string
PApPredictor::name() const
{
    std::ostringstream oss;
    oss << "pap(" << historyBits_ << ")";
    return oss.str();
}

// --- TournamentPredictor ---------------------------------------------------

TournamentPredictor::TournamentPredictor(std::uint32_t num_static,
                                         unsigned gshare_log_size,
                                         unsigned gshare_history)
    : numStatic_(num_static), gshareLogSize_(gshare_log_size),
      gshareHistory_(gshare_history), local_(num_static),
      global_(gshare_log_size, gshare_history),
      chooser_(num_static, kWeakTaken)
{
}

bool
TournamentPredictor::predict(const BranchQuery &q)
{
    dee_assert(q.sid < numStatic_, "branch sid out of predictor range");
    return chooser_[q.sid] >= 2 ? global_.predict(q)
                                : local_.predict(q);
}

void
TournamentPredictor::update(const BranchQuery &q, bool taken)
{
    dee_assert(q.sid < numStatic_, "branch sid out of predictor range");
    const bool local_right = local_.predict(q) == taken;
    const bool global_right = global_.predict(q) == taken;
    // Train the chooser toward whichever component was right.
    if (local_right != global_right)
        chooser_[q.sid] = bumpCounter(chooser_[q.sid], global_right);
    local_.update(q, taken);
    global_.update(q, taken);
}

void
TournamentPredictor::reset()
{
    local_.reset();
    global_.reset();
    chooser_.assign(chooser_.size(), kWeakTaken);
}

std::unique_ptr<BranchPredictor>
TournamentPredictor::clone() const
{
    return std::make_unique<TournamentPredictor>(
        numStatic_, gshareLogSize_, gshareHistory_);
}

// --- Factory and measurement ---------------------------------------------

std::unique_ptr<BranchPredictor>
makePredictor(const std::string &name, std::uint32_t num_static)
{
    if (name == "2bit")
        return std::make_unique<TwoBitPredictor>(num_static);
    if (name == "1bit")
        return std::make_unique<OneBitPredictor>(num_static);
    if (name == "taken")
        return std::make_unique<AlwaysTakenPredictor>();
    if (name == "btfnt")
        return std::make_unique<BtfntPredictor>();
    if (name == "oracle")
        return std::make_unique<OraclePredictor>();
    if (name == "gshare")
        return std::make_unique<GsharePredictor>(14, 8);
    if (name == "pap")
        return std::make_unique<PApPredictor>(num_static, 2);
    if (name == "tournament")
        return std::make_unique<TournamentPredictor>(num_static);
    dee_fatal("unknown predictor '", name,
              "' (try: 2bit 1bit taken btfnt oracle gshare pap "
              "tournament)");
}

AccuracyReport
measureAccuracy(const Trace &trace, BranchPredictor &pred)
{
    AccuracyReport report;
    // The 2-bit predictor (the paper's default, and what every cell of
    // the figure sweeps runs) reads neither backwardness nor ground
    // truth, so its measurement devirtualizes into one table access per
    // branch record. Other predictors take the generic virtual path.
    if (auto *twobit = dynamic_cast<TwoBitPredictor *>(&pred)) {
        for (const auto &rec : trace.records) {
            if (!rec.isBranch)
                continue;
            ++report.branches;
            if (twobit->predictThenUpdate(rec.sid, rec.taken) ==
                rec.taken)
                ++report.correct;
        }
    } else {
        for (const auto &rec : trace.records) {
            if (!rec.isBranch)
                continue;
            BranchQuery q;
            q.sid = rec.sid;
            q.backward = rec.backward;
            q.actual = rec.taken;
            const bool predicted = pred.predict(q);
            pred.update(q, rec.taken);
            ++report.branches;
            if (predicted == rec.taken)
                ++report.correct;
        }
    }
    if (report.branches > 0) {
        report.accuracy = static_cast<double>(report.correct) /
                          static_cast<double>(report.branches);
    }

    publishAccuracy(pred.name(), report);
    return report;
}

void
publishAccuracy(const std::string &name, const AccuracyReport &report)
{
    // Per-predictor accuracy bookkeeping, e.g. bpred.2bit.mispredicts.
    // A parameterized name becomes one registry path segment:
    // "gshare(14,8)" publishes under bpred.gshare_14_8.
    std::string segment;
    for (const char c : name) {
        if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
            c == '-') {
            segment.push_back(c);
        } else if (!segment.empty() && segment.back() != '_') {
            segment.push_back('_');
        }
    }
    while (!segment.empty() && segment.back() == '_')
        segment.pop_back();
    const std::string prefix = "bpred." + segment;
    obs::Registry &reg = obs::Registry::global();
    reg.counter(prefix + ".branches") += report.branches;
    reg.counter(prefix + ".mispredicts") +=
        report.branches - report.correct;
    reg.stat(prefix + ".accuracy").add(report.accuracy);
}

ConfidenceEstimator::ConfidenceEstimator(std::uint32_t num_static)
    : seen_(num_static, 0), right_(num_static, 0)
{
}

void
ConfidenceEstimator::record(StaticId sid, bool correct)
{
    if (sid >= seen_.size())
        return;
    ++seen_[sid];
    if (correct)
        ++right_[sid];
}

double
ConfidenceEstimator::estimate(StaticId sid) const
{
    if (sid >= seen_.size() || seen_[sid] == 0)
        return 1.0;
    // Laplace smoothing with one optimistic pseudo-sample: a single
    // early mispredict should not brand a branch low-confidence.
    return (static_cast<double>(right_[sid]) + 1.0) /
           (static_cast<double>(seen_[sid]) + 1.0);
}

} // namespace dee
