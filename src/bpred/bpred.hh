/**
 * @file
 * Branch predictor suite.
 *
 * The paper's simulations use "the classic 2-bit saturating up/down
 * counter method [Smith 81] ... initialized to the non-saturated taken
 * state" with one predictor per static instruction (Levo keeps one
 * predictor per IQ row). Section 4.3 also discusses PAp two-level
 * adaptive prediction [Yeh & Patt 93] with 2-bit history registers as the
 * realizable alternative. Both are provided here, alongside simple static
 * schemes and an oracle, plus the accuracy meter used by step 1 of the
 * static-tree heuristic ("measure the characteristic branch prediction
 * accuracy p").
 */

#ifndef DEE_BPRED_BPRED_HH
#define DEE_BPRED_BPRED_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "isa/isa.hh"
#include "trace/trace.hh"

namespace dee
{

/** Everything a predictor may inspect when predicting one branch. */
struct BranchQuery
{
    StaticId sid = 0;    ///< Static branch identity.
    bool backward = false; ///< Branch targets an earlier block.
    bool actual = false; ///< Ground truth — only OraclePredictor reads it.
};

/** Direction predictor interface. Predict first, then update with truth. */
class BranchPredictor
{
  public:
    virtual ~BranchPredictor() = default;

    /** Predicted direction for this branch instance. */
    virtual bool predict(const BranchQuery &q) = 0;

    /** Trains with the resolved direction. */
    virtual void update(const BranchQuery &q, bool taken) = 0;

    /** Restores the power-on state. */
    virtual void reset() = 0;

    /** Fresh instance with identical configuration (power-on state). */
    virtual std::unique_ptr<BranchPredictor> clone() const = 0;

    virtual std::string name() const = 0;
};

/**
 * Classic 2-bit saturating up/down counter per static branch.
 *
 * Counter states 0..3; >= 2 predicts taken. Power-on state is 2, the
 * paper's "non-saturated taken state".
 */
class TwoBitPredictor : public BranchPredictor
{
  public:
    /** @param num_static number of static instructions (table size) */
    explicit TwoBitPredictor(std::uint32_t num_static);

    bool predict(const BranchQuery &q) override;
    void update(const BranchQuery &q, bool taken) override;
    void reset() override;
    std::unique_ptr<BranchPredictor> clone() const override;
    std::string name() const override { return "2bit"; }

    /** Static ids the counter table covers. */
    std::uint32_t numStatic() const { return numStatic_; }

    /**
     * Fused predict-then-train for one resolved instance, inlined for
     * the simulator's devirtualized predictor pass. Identical state
     * evolution and return value to predict(q) followed by
     * update(q, taken).
     */
    bool
    predictThenUpdate(StaticId sid, bool taken)
    {
        dee_assert(sid < numStatic_, "branch sid out of predictor range");
        std::uint8_t &c = counters_[sid];
        const bool predicted = c >= 2;
        if (taken)
            c = c < 3 ? c + 1 : 3;
        else
            c = c > 0 ? c - 1 : 0;
        return predicted;
    }

  private:
    std::uint32_t numStatic_;
    std::vector<std::uint8_t> counters_;
};

/** Last-outcome (1-bit) predictor per static branch; power-on taken. */
class OneBitPredictor : public BranchPredictor
{
  public:
    explicit OneBitPredictor(std::uint32_t num_static);

    bool predict(const BranchQuery &q) override;
    void update(const BranchQuery &q, bool taken) override;
    void reset() override;
    std::unique_ptr<BranchPredictor> clone() const override;
    std::string name() const override { return "1bit"; }

  private:
    std::uint32_t numStatic_;
    std::vector<std::uint8_t> lastTaken_;
};

/** Predicts every branch taken. */
class AlwaysTakenPredictor : public BranchPredictor
{
  public:
    bool predict(const BranchQuery &) override { return true; }
    void update(const BranchQuery &, bool) override {}
    void reset() override {}
    std::unique_ptr<BranchPredictor> clone() const override;
    std::string name() const override { return "taken"; }
};

/** Backward-taken / forward-not-taken static heuristic. */
class BtfntPredictor : public BranchPredictor
{
  public:
    bool predict(const BranchQuery &q) override { return q.backward; }
    void update(const BranchQuery &, bool) override {}
    void reset() override {}
    std::unique_ptr<BranchPredictor> clone() const override;
    std::string name() const override { return "btfnt"; }
};

/** Perfect prediction (reads the ground truth). */
class OraclePredictor : public BranchPredictor
{
  public:
    bool predict(const BranchQuery &q) override { return q.actual; }
    void update(const BranchQuery &, bool) override {}
    void reset() override {}
    std::unique_ptr<BranchPredictor> clone() const override;
    std::string name() const override { return "oracle"; }
};

/**
 * Gshare: global history XOR branch id indexes a shared counter table.
 */
class GsharePredictor : public BranchPredictor
{
  public:
    /** @param log_table_size log2 of the counter table size
     *  @param history_bits global history length */
    GsharePredictor(unsigned log_table_size, unsigned history_bits);

    bool predict(const BranchQuery &q) override;
    void update(const BranchQuery &q, bool taken) override;
    void reset() override;
    std::unique_ptr<BranchPredictor> clone() const override;
    std::string name() const override;

  private:
    std::size_t index(const BranchQuery &q) const;

    unsigned logSize_;
    unsigned historyBits_;
    std::uint64_t history_ = 0;
    std::vector<std::uint8_t> counters_;
};

/**
 * PAp two-level adaptive predictor (Yeh & Patt): per-branch history
 * register selecting a per-branch pattern history table of 2-bit
 * counters. The paper proposes this for Levo with 2-bit histories and
 * one PHT per IQ row.
 */
class PApPredictor : public BranchPredictor
{
  public:
    /** @param num_static static instruction count
     *  @param history_bits per-branch history register length */
    PApPredictor(std::uint32_t num_static, unsigned history_bits);

    bool predict(const BranchQuery &q) override;
    void update(const BranchQuery &q, bool taken) override;
    void reset() override;
    std::unique_ptr<BranchPredictor> clone() const override;
    std::string name() const override;

  private:
    std::uint32_t numStatic_;
    unsigned historyBits_;
    std::vector<std::uint16_t> histories_;
    std::vector<std::uint8_t> counters_; // numStatic * 2^historyBits
};

/**
 * Tournament predictor: a per-branch 2-bit chooser selects between a
 * local 2-bit counter and a global-history gshare component (the
 * Alpha-21264 style hybrid; here as the "more implementation hardware"
 * end of the paper's 90-96% contemporary-predictor range).
 */
class TournamentPredictor : public BranchPredictor
{
  public:
    TournamentPredictor(std::uint32_t num_static,
                        unsigned gshare_log_size = 14,
                        unsigned gshare_history = 8);

    bool predict(const BranchQuery &q) override;
    void update(const BranchQuery &q, bool taken) override;
    void reset() override;
    std::unique_ptr<BranchPredictor> clone() const override;
    std::string name() const override { return "tournament"; }

  private:
    std::uint32_t numStatic_;
    unsigned gshareLogSize_;
    unsigned gshareHistory_;
    TwoBitPredictor local_;
    GsharePredictor global_;
    std::vector<std::uint8_t> chooser_; ///< >=2 selects global
};

/** Creates a predictor by name: 2bit, 1bit, taken, btfnt, oracle,
 *  gshare, pap, tournament. Fatal on unknown names. */
std::unique_ptr<BranchPredictor>
makePredictor(const std::string &name, std::uint32_t num_static);

/**
 * Running per-static-branch confidence: the measured accuracy of the
 * predictor on each static branch so far, Laplace-smoothed toward the
 * optimistic power-on prior (a branch never seen predicts as well as
 * hardware allows — matching the paper's treatment of unseen branches
 * as accuracy 1.0).
 *
 * Cycle accounting uses this to attribute squashed speculative work to
 * confidence buckets: waste behind a low-confidence branch is exactly
 * the work DEE's side paths rescue, waste behind a high-confidence
 * branch is the residual no placement heuristic can dodge.
 */
class ConfidenceEstimator
{
  public:
    explicit ConfidenceEstimator(std::uint32_t num_static);

    /** Records one resolved prediction for the branch at @p sid. */
    void record(StaticId sid, bool correct);

    /** Smoothed accuracy estimate in (0, 1]; 1.0 before any sample. */
    double estimate(StaticId sid) const;

    std::uint64_t
    samples(StaticId sid) const
    {
        return sid < seen_.size() ? seen_[sid] : 0;
    }

    /** Static-id table size (the profiler's site-id space). */
    std::size_t numStatic() const { return seen_.size(); }

  private:
    std::vector<std::uint32_t> seen_;
    std::vector<std::uint32_t> right_;
};

/** Result of measuring a predictor over one trace. */
struct AccuracyReport
{
    std::uint64_t branches = 0;
    std::uint64_t correct = 0;
    /** Fraction correct — the heuristic's characteristic p. */
    double accuracy = 0.0;
};

/**
 * Heuristic step 1: runs the predictor over every conditional branch of
 * the trace in order (predict, then update) and reports the accuracy.
 * Each query carries the record's own backward flag.
 */
AccuracyReport measureAccuracy(const Trace &trace, BranchPredictor &pred);

/**
 * Adds one accuracy measurement to the registry's per-predictor
 * bookkeeping: bpred.<name>.branches, .mispredicts and .accuracy, with
 * each run of characters a registry path cannot hold in @p name folded
 * into one '_' ("gshare(14,8)" -> bpred.gshare_14_8).
 */
void publishAccuracy(const std::string &name, const AccuracyReport &report);

} // namespace dee

#endif // DEE_BPRED_BPRED_HH
