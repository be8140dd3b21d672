/**
 * @file
 * Speculation profiler: per-branch-site attribution of speculative
 * waste.
 *
 * The cycle-accounting layer (obs/accounting.hh) answers *how much*
 * issued work each machine model squashes; this layer answers *where*.
 * Every static branch PC accumulates
 *
 *   - executions and mispredicts (the latter split by the confidence
 *     bucket the branch occupied when it mispredicted),
 *   - squashed issue-slot-cycles attributed to it as the causing
 *     branch (via SlotLedger's per-cycle mark ownership),
 *   - a resolution-latency histogram (log2 buckets, fetch->resolve),
 *   - DEE-specific residency: cycles its successor path spent fetched
 *     as mainline vs. as a DEE side path, and the Theorem-1 cumulative
 *     path probability / resource-assignment rank its side paths had
 *     at assignment time.
 *
 * Each site also lists its enclosing loop headers (loop structure is
 * computed by the caller from cfg/structure.hh and passed in as plain
 * data — dee_obs stays a leaf library), which root its folded stack.
 *
 * The attribution identity mirrors PR 2's Sigma-classes identity:
 *
 *     sum over sites of squashed_slots (+ unattributed)
 *         == acct.<scope>.squashed_spec
 *
 * It holds by construction because squashed slots are credited to the
 * owner of the winning ledger mark, and it is asserted in-sim through
 * attributionMatches().
 *
 * Exposure: ProfileStore::global() collects per-scope profiles that
 * the run manifest serializes as its "profile" section, the one home
 * of every profiled number (the stats registry mirrors none of them);
 * foldedStacks() emits standard flamegraph folded-stack lines
 * ("scope;loop_B<h>;..;branch_0x<pc> slots").
 */

#ifndef DEE_OBS_PROFILE_PROFILE_HH
#define DEE_OBS_PROFILE_PROFILE_HH

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/accounting.hh"
#include "obs/json.hh"

namespace dee::obs
{

/**
 * Process-wide profiling request, set by Session when the user passes
 * --profile/--profile-out (same pattern as Tracer::global().enable()):
 * every simulator collects a profile while it is on. It is a plain
 * flag, so set it before any worker thread starts and clear it after
 * they join.
 */
bool profilingRequested();
void requestProfiling(bool on);

/** Holds the profiling request on for its lifetime, then restores the
 *  previous state. */
class ScopedProfilingRequest
{
  public:
    ScopedProfilingRequest() : previous_(profilingRequested())
    {
        requestProfiling(true);
    }
    ~ScopedProfilingRequest() { requestProfiling(previous_); }
    ScopedProfilingRequest(const ScopedProfilingRequest &) = delete;
    ScopedProfilingRequest &
    operator=(const ScopedProfilingRequest &) = delete;

  private:
    bool previous_;
};

/** Resolution-latency buckets: <=1, <=2, <=4, ... <=64, >64 cycles. */
constexpr std::size_t kNumLatencyBuckets = 8;

std::size_t latencyBucket(std::int64_t latency);
const char *latencyBucketName(std::size_t bucket);

/** Everything attributed to one static branch PC. */
struct BranchSiteProfile
{
    /** CFG block holding the branch (-1 when unknown). */
    std::int64_t block = -1;
    std::uint64_t executions = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t mispredictsByConf[kNumConfidenceBuckets] = {};
    /** Issue-slot-cycles squashed because of this branch. */
    std::uint64_t squashedSlots = 0;
    std::uint64_t resolveLatency[kNumLatencyBuckets] = {};
    /** Cycles the branch's successor paths spent fetched on the
     *  predicted (mainline) vs. not-predicted (DEE side) edge. */
    std::uint64_t mainlineCycles = 0;
    std::uint64_t deeSlotCycles = 0;
    /** Theorem-1 cumulative probability / assignment rank sums over
     *  every side-path assignment hanging off this branch. */
    double cpSum = 0.0;
    std::uint64_t rankSum = 0;
    std::uint64_t assignments = 0;
    /** Enclosing loop headers, outermost first (from setLoopHeaders). */
    std::vector<std::int64_t> loopHeaders;

    double cpMean() const;
    double rankMean() const;
    void merge(const BranchSiteProfile &other);
};

/** One scope's (machine model x workload) speculation profile. */
class SpeculationProfile
{
  public:
    /** Branch sites serialized per scope; the rest aggregate into
     *  "branch_other" (counts and resolve latency) so manifests stay
     *  bounded. */
    static constexpr std::size_t kTopSites = 64;

    /** Records one dynamic execution of the branch at @p pc. */
    void recordExecution(std::uint32_t pc, std::int64_t block,
                         bool mispredicted, std::size_t conf_bucket);

    /** Fetch-to-resolve latency of one dynamic instance of @p pc. */
    void recordResolveLatency(std::uint32_t pc, std::int64_t latency);

    /** A speculative path hanging off @p pc received resources with
     *  Theorem-1 cumulative probability @p cp and assignment @p rank
     *  (1 = first-assigned; 0 = origin/unranked). */
    void recordAssignment(std::uint32_t pc, double cp, int rank);

    /** @p cycles of fetched residency for a path hanging off @p pc,
     *  on the DEE (not-predicted) side when @p dee_side. */
    void addResidency(std::uint32_t pc, std::uint64_t cycles,
                      bool dee_side);

    /** Credits SlotLedger::finalize()'s per-site squash attribution
     *  (kNoSite slots land in unattributedSquashedSlots()). */
    void attributeSquash(
        const std::unordered_map<std::uint32_t, std::uint64_t>
            &by_site);

    /**
     * The attribution identity: sum of per-site squashed slots plus
     * the unattributed remainder equals the account's SquashedSpec
     * class total. Vacuously true for an invalid (skipped) account.
     */
    bool attributionMatches(const CycleAccount &account,
                            std::string *why = nullptr) const;

    /** Sets each site's loopHeaders from @p by_block, the enclosing
     *  headers (outermost first) indexed by CFG block id; sites with
     *  unknown or out-of-range blocks get none. */
    void setLoopHeaders(
        const std::vector<std::vector<std::int64_t>> &by_block);

    void setMeta(const std::string &workload, const std::string &model);
    const std::string &workload() const { return workload_; }
    const std::string &model() const { return model_; }

    bool empty() const;
    const std::map<std::uint32_t, BranchSiteProfile> &sites() const
    {
        return sites_;
    }
    std::uint64_t unattributedSquashedSlots() const
    {
        return unattributedSquashedSlots_;
    }
    /** Sites + unattributed — the identity's left-hand side. */
    std::uint64_t totalSquashedSlots() const;
    std::uint64_t totalExecutions() const;
    std::uint64_t totalMispredicts() const;

    void merge(const SpeculationProfile &other);

    /** Bounded object for the manifest "profile" section. */
    Json toJson() const;

    /** Appends "scope;loop_B<h>;..;branch_0x<pc> slots" lines for
     *  every site with squashed slots (plus an "unattributed" frame)
     *  to @p out. */
    void appendFoldedStacks(const std::string &scope,
                            std::string *out) const;

  private:
    std::map<std::uint32_t, BranchSiteProfile> sites_;
    std::uint64_t unattributedSquashedSlots_ = 0;
    std::string workload_;
    std::string model_;
};

/**
 * Process-wide scope -> profile map, mirroring how Registry::global()
 * feeds the manifest "stats" section: simulators merge their run's
 * profile under "<workload>.<model>" (or "levo"), Manifest::toJson()
 * serializes the store as the "profile" section, Session writes the
 * folded stacks next to the manifest.
 */
class ProfileStore
{
  public:
    /** The calling thread's store: the thread-local override when a
     *  parallel-runner cell installed one (setCurrent()), else the
     *  process-wide instance. */
    static ProfileStore &global();

    /** The process-wide instance, ignoring thread-local overrides. */
    static ProfileStore &process();

    /** Installs @p store (null to clear) as the calling thread's
     *  global() override; returns the previous override. Prefer the
     *  RAII obs::IsolationScope. */
    static ProfileStore *setCurrent(ProfileStore *store);

    void merge(const std::string &scope,
               const SpeculationProfile &profile);

    /** Folds every scope of @p other into this store. Profiles are
     *  integer accumulations, so the merge is exact and, with scopes
     *  keyed in a sorted map, order-independent. */
    void mergeFrom(const ProfileStore &other);
    void clear();
    bool empty() const;
    const SpeculationProfile *find(const std::string &scope) const;
    const std::map<std::string, SpeculationProfile> &scopes() const
    {
        return scopes_;
    }

    /** {"<scope>": SpeculationProfile::toJson(), ...} */
    Json toJson() const;

    /** Folded-stack lines over every scope (flamegraph input). */
    std::string foldedStacks() const;

  private:
    std::map<std::string, SpeculationProfile> scopes_;
};

} // namespace dee::obs

#endif // DEE_OBS_PROFILE_PROFILE_HH
