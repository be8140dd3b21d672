/**
 * @file
 * Cycle accounting: top-down attribution of every issue-slot-cycle.
 *
 * DEE's argument (Theorem 1) is about where speculative resources go:
 * how much issued work survives branch resolution versus being
 * squashed, and which branches paid for the waste. The raw counters of
 * the stats registry cannot answer that; this layer can. Every slot of
 * every cycle of a run — PEs x cycles slots in total — is classified
 * into exactly one category of a *closed* taxonomy:
 *
 *   useful            an actual-path instruction issued in this slot
 *   squashed_spec     slot burned during an in-flight misprediction:
 *                     the machine was executing the wrong path, and
 *                     that work is squashed at resolution. Further
 *                     attributed to the confidence bucket of the
 *                     offending branch (the DEE-vs-EE waste claim).
 *   fetch_stall       whole-machine empty cycle: the front end had
 *                     nothing covered/fetched to deliver
 *   resource_starved  an instruction was ready but every PE was busy
 *                     (only with an explicit PE limit)
 *   refill_stall      Levo only: IQ window move / linear-mode refill
 *   copy_back         Levo only: DEE path state copy-back after a
 *                     covered misprediction
 *   idle              spare slots in a partially filled cycle
 *                     (dependency-height / ILP bound)
 *
 * The taxonomy is enforced by the accounting identity
 *
 *     sum over categories == PEs x cycles
 *
 * which SlotLedger::finalize() checks fatally at end-of-run (and
 * CycleAccount::identityHolds() re-checks in tests). Accounts are
 * published into the stats registry as "acct.<machine>.*" counters,
 * which a manifest carries under stats.acct and tools/dee_report diffs
 * across runs, and emitted as Perfetto counter tracks ('C'-phase
 * events) through the existing tracer. Ratios such as the waste
 * fraction are computed by whoever displays them.
 *
 * Attribution discipline (documented, deliberately simple): while an
 * eventually-mispredicted branch is unresolved, the machine's spare
 * slots are filled with wrong-path work that is doomed to squash, so
 * spare slots in such cycles are charged to speculation, bucketed by
 * the branch's measured prediction accuracy. Overlapping causes are
 * resolved by fixed priority: squashed_spec > copy_back > refill_stall
 * > resource_starved; fetch_stall and idle are the residue.
 */

#ifndef DEE_OBS_ACCOUNTING_HH
#define DEE_OBS_ACCOUNTING_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace dee::obs
{

class Registry;
class Tracer;

/**
 * Attribution site for a stall mark: the static id of the branch (or
 * other cause) responsible. kNoSite marks charge their slots to an
 * "unattributed" pseudo-site so the per-site squash sum still closes
 * against the SquashedSpec class total.
 */
constexpr std::uint32_t kNoSite = 0xffffffffu;

/** The closed issue-slot taxonomy; see file comment. */
enum class SlotClass : unsigned
{
    Useful = 0,
    SquashedSpec,
    FetchStall,
    ResourceStarved,
    RefillStall,
    CopyBack,
    Idle,
};

constexpr std::size_t kNumSlotClasses = 7;

/** Registry/manifest spelling, e.g. "squashed_spec". */
const char *slotClassName(SlotClass cls);

/**
 * Branch-confidence buckets for squashed-work attribution. A branch
 * with measured prediction accuracy a lands in:
 *   0: a <  0.75   ("lt75"  — DEE would side-path these first)
 *   1: a <  0.90   ("75to90")
 *   2: a <  0.97   ("90to97")
 *   3: a >= 0.97   ("ge97"  — waste here is hard to avoid by gating)
 */
constexpr std::size_t kNumConfidenceBuckets = 4;

std::size_t confidenceBucket(double accuracy);
const char *confidenceBucketName(std::size_t bucket);

/**
 * One run's (or an aggregate's) closed slot-cycle account. Plain data:
 * build one through a SlotLedger, or merge() several for totals.
 */
class CycleAccount
{
  public:
    void
    add(SlotClass cls, std::uint64_t slots)
    {
        slots_[static_cast<std::size_t>(cls)] += slots;
    }

    /** Adds squashed slots attributed to a confidence bucket (also
     *  counted in the SquashedSpec class total). */
    void
    addSquashed(std::uint64_t slots, std::size_t bucket)
    {
        add(SlotClass::SquashedSpec, slots);
        squashedByBucket_[bucket] += slots;
    }

    /** Declares the identity denominator (accumulates on merge). */
    void setDenominator(std::uint64_t pes, std::uint64_t cycles);

    std::uint64_t
    slots(SlotClass cls) const
    {
        return slots_[static_cast<std::size_t>(cls)];
    }

    std::uint64_t
    squashedInBucket(std::size_t bucket) const
    {
        return squashedByBucket_[bucket];
    }

    /** Sum over every class. */
    std::uint64_t totalSlots() const;

    /** PEs x cycles (summed denominators after merge()). */
    std::uint64_t peSlotCycles() const { return peSlotCycles_; }
    std::uint64_t pes() const { return pes_; }
    std::uint64_t cycles() const { return cycles_; }

    /** True iff the run carries a valid account (ledger not skipped). */
    bool valid() const { return peSlotCycles_ > 0; }

    /**
     * The accounting identity: sum of categories == PEs x cycles, and
     * the bucket sum == the SquashedSpec class total. @param why is
     * filled with a diagnostic on failure when non-null.
     */
    bool identityHolds(std::string *why = nullptr) const;

    /** squashed / (useful + squashed): the fraction of issued
     *  speculative work that was wasted — the paper's key ratio. */
    double wasteFraction() const;

    /** useful / (PEs x cycles): top-down utilization. */
    double usefulFraction() const;

    void merge(const CycleAccount &other);

    /**
     * Accumulates into @p registry under "acct.<prefix>.*": one
     * counter per class, per-bucket squash counters and the
     * denominator. The fractions above are not published; a reader
     * divides the counters with the same formulas. An invalid account,
     * the one finalize() returns for a run the ledger could not hold,
     * bumps "acct.skipped_runs" instead; so publish a run's account
     * only when the run gathered accounting.
     */
    void publish(Registry &registry, const std::string &prefix) const;

  private:
    std::uint64_t slots_[kNumSlotClasses] = {};
    std::uint64_t squashedByBucket_[kNumConfidenceBuckets] = {};
    std::uint64_t pes_ = 0;
    std::uint64_t cycles_ = 0;
    std::uint64_t peSlotCycles_ = 0;
};

/**
 * Per-cycle classifier that the simulators feed while (or after) they
 * run. Callers record issued instructions per cycle and mark stall
 * intervals; finalize() classifies every slot and returns a
 * CycleAccount satisfying the identity by construction.
 *
 * Cycle indices are 0-based and must stay below kMaxCycles; a run
 * longer than that deactivates the ledger (finalize() then returns an
 * invalid account, which CycleAccount::publish() counts under
 * "acct.skipped_runs") rather than burning unbounded memory. Interval
 * marks may overlap; class priority decides (see file comment).
 */
class SlotLedger
{
  public:
    /** ~64M cycles. Ledger state is 5 bytes per cycle, 9 with site
     *  attribution. */
    static constexpr std::uint64_t kMaxCycles = 1ull << 26;

    /**
     * @param pes issue slots per cycle; 0 derives the PE count from
     *            the peak per-cycle issue at finalize() (the paper's
     *            implicitly-limited-PEs reading).
     * @param cycles_hint expected cycle count (pre-allocation only).
     * @param attribute_sites keep each cycle's winning mark site, so
     *            finalize() can credit squashed slots per site; off,
     *            the ledger drops mark sites and saves 4 bytes per
     *            cycle.
     */
    explicit SlotLedger(std::uint64_t pes, std::uint64_t cycles_hint = 0,
                        bool attribute_sites = false);

    /** Returns the cycle buffers to a thread-local recycling pool, so
     *  per-run ledgers (one per simulated cell) reuse warmed capacity
     *  instead of round-tripping multi-megabyte allocations through
     *  the allocator every run. */
    ~SlotLedger();

    SlotLedger(const SlotLedger &) = delete;
    SlotLedger &operator=(const SlotLedger &) = delete;

    /** False once a cycle index exceeded kMaxCycles. */
    bool active() const { return active_; }

    /** Records one instruction issued at @p cycle. */
    void
    issue(std::int64_t cycle)
    {
        if (!ensure(cycle))
            return;
        ++issued_[static_cast<std::size_t>(cycle)];
    }

    /**
     * The per-cycle issue counts, grown to cover every cycle below
     * @p bound, for a caller that knows each instruction it is about to
     * issue lands in [0, @p bound): it may bump the counts itself, with
     * none of issue()'s checks. Null, changing nothing, once the ledger
     * is inactive or when @p bound is at or past kMaxCycles; the caller
     * then calls issue(), which deactivates the ledger only if a cycle
     * really is out of range.
     */
    std::uint32_t *
    issueCounts(std::int64_t bound)
    {
        if (!active_ || bound >= static_cast<std::int64_t>(kMaxCycles))
            return nullptr;
        const std::uint64_t need =
            bound > 0 ? static_cast<std::uint64_t>(bound) : 0;
        if (need > issued_.size()) {
            // Callers ask once per few instructions, each time for a
            // bound a little past the last: grow a step at a time.
            grow(std::min(std::max(need, issued_.size() + kGrowStep),
                          kMaxCycles));
        }
        return issued_.data();
    }

    /** Instructions issued so far, per cycle (index = cycle); complete
     *  only while active(). */
    const std::vector<std::uint32_t> &
    issuedPerCycle() const
    {
        return issued_;
    }

    /** Most instructions issued in any one cycle: the peak busy PEs,
     *  which finalize() provisions when constructed with pes == 0. */
    std::uint64_t peakIssue() const;

    /**
     * Marks [begin, end) as stalled for @p cls (one of SquashedSpec,
     * CopyBack, RefillStall, ResourceStarved); @p bucket attributes
     * SquashedSpec slots to a confidence bucket. @p site names the
     * static branch responsible (for the speculation profiler); it
     * follows the winning mark exactly, so whichever mark owns a
     * cycle also owns its attribution.
     */
    void mark(SlotClass cls, std::int64_t begin, std::int64_t end,
              std::size_t bucket = 0, std::uint32_t site = kNoSite);

    /**
     * Classifies every slot of the run's PEs x @p cycles grid.
     * Fatal if the identity does not hold (cannot happen by
     * construction — the check guards future edits). When @p tracer
     * is non-null and enabled, also emits "acct.<class>" counter
     * tracks ('C' events) at every cycle where a class's slot count
     * changes. When @p squash_by_site is non-null, the spare slots of
     * every squash-classified cycle are credited to the site recorded
     * by the winning mark, so
     *   sum over sites == account.slots(SquashedSpec)
     * by construction; it must be null unless the ledger was built to
     * attribute sites. Call once.
     */
    CycleAccount finalize(
        std::uint64_t cycles, Tracer *tracer = nullptr,
        std::unordered_map<std::uint32_t, std::uint64_t>
            *squash_by_site = nullptr);

  private:
    bool
    ensure(std::int64_t cycle)
    {
        if (!active_ || cycle < 0)
            return active_ = false;
        const auto c = static_cast<std::uint64_t>(cycle);
        if (c >= kMaxCycles)
            return active_ = false;
        grow(c + 1);
        return true;
    }

    /** Covers cycles [0, @p cycles), keeping the buffers in lock-step. */
    void
    grow(std::uint64_t cycles)
    {
        if (cycles > issued_.size()) {
            issued_.resize(cycles, 0);
            marks_.resize(cycles, 0);
            if (attributeSites_)
                owner_.resize(cycles, kNoSite);
        }
    }

    /** Fewest cycles issueCounts() adds when it grows the buffers. */
    static constexpr std::uint64_t kGrowStep = 4096;

    bool active_ = true;
    bool attributeSites_;
    std::uint64_t pes_;
    std::vector<std::uint32_t> issued_; ///< instructions per cycle
    /** Per-cycle winning stall mark: (priority << 4) | bucket; 0 =
     *  no mark. Priorities: squash 4, copy-back 3, refill 2,
     *  starved 1. */
    std::vector<std::uint8_t> marks_;
    /** Attribution site of the winning mark (kNoSite when unmarked or
     *  unattributed); kept in lock-step with marks_ when attributing
     *  sites, empty otherwise. */
    std::vector<std::uint32_t> owner_;
};

} // namespace dee::obs

#endif // DEE_OBS_ACCOUNTING_HH
