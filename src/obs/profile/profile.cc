#include "obs/profile/profile.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"

namespace dee::obs
{

namespace
{

bool g_profiling_requested = false;

std::string
hexPc(std::uint32_t pc)
{
    std::ostringstream oss;
    oss << "0x" << std::hex << pc;
    return oss.str();
}

} // namespace

bool
profilingRequested()
{
    return g_profiling_requested;
}

void
requestProfiling(bool on)
{
    g_profiling_requested = on;
}

std::size_t
latencyBucket(std::int64_t latency)
{
    if (latency < 0)
        latency = 0;
    std::size_t bucket = 0;
    std::int64_t bound = 1;
    while (bucket + 1 < kNumLatencyBuckets && latency > bound) {
        bound *= 2;
        ++bucket;
    }
    return bucket;
}

const char *
latencyBucketName(std::size_t bucket)
{
    static const char *const kNames[kNumLatencyBuckets] = {
        "le1", "le2", "le4", "le8", "le16", "le32", "le64", "gt64",
    };
    dee_assert(bucket < kNumLatencyBuckets, "bad latency bucket");
    return kNames[bucket];
}

double
BranchSiteProfile::cpMean() const
{
    return assignments == 0
               ? 0.0
               : cpSum / static_cast<double>(assignments);
}

double
BranchSiteProfile::rankMean() const
{
    return assignments == 0 ? 0.0
                            : static_cast<double>(rankSum) /
                                  static_cast<double>(assignments);
}

void
BranchSiteProfile::merge(const BranchSiteProfile &other)
{
    if (block < 0)
        block = other.block;
    executions += other.executions;
    mispredicts += other.mispredicts;
    for (std::size_t i = 0; i < kNumConfidenceBuckets; ++i)
        mispredictsByConf[i] += other.mispredictsByConf[i];
    squashedSlots += other.squashedSlots;
    for (std::size_t i = 0; i < kNumLatencyBuckets; ++i)
        resolveLatency[i] += other.resolveLatency[i];
    mainlineCycles += other.mainlineCycles;
    deeSlotCycles += other.deeSlotCycles;
    cpSum += other.cpSum;
    rankSum += other.rankSum;
    assignments += other.assignments;
    if (loopHeaders.empty())
        loopHeaders = other.loopHeaders;
}

void
SpeculationProfile::recordExecution(std::uint32_t pc,
                                    std::int64_t block,
                                    bool mispredicted,
                                    std::size_t conf_bucket)
{
    dee_assert(conf_bucket < kNumConfidenceBuckets,
               "bad confidence bucket");
    BranchSiteProfile &site = sites_[pc];
    if (site.block < 0)
        site.block = block;
    ++site.executions;
    if (mispredicted) {
        ++site.mispredicts;
        ++site.mispredictsByConf[conf_bucket];
    }
}

void
SpeculationProfile::recordResolveLatency(std::uint32_t pc,
                                         std::int64_t latency)
{
    ++sites_[pc].resolveLatency[latencyBucket(latency)];
}

void
SpeculationProfile::recordAssignment(std::uint32_t pc, double cp,
                                     int rank)
{
    BranchSiteProfile &site = sites_[pc];
    site.cpSum += cp;
    site.rankSum += rank < 0 ? 0u : static_cast<std::uint64_t>(rank);
    ++site.assignments;
}

void
SpeculationProfile::addResidency(std::uint32_t pc, std::uint64_t cycles,
                                 bool dee_side)
{
    BranchSiteProfile &site = sites_[pc];
    if (dee_side)
        site.deeSlotCycles += cycles;
    else
        site.mainlineCycles += cycles;
}

void
SpeculationProfile::attributeSquash(
    const std::unordered_map<std::uint32_t, std::uint64_t> &by_site)
{
    for (const auto &[site, slots] : by_site) {
        if (site == kNoSite)
            unattributedSquashedSlots_ += slots;
        else
            sites_[site].squashedSlots += slots;
    }
}

bool
SpeculationProfile::attributionMatches(const CycleAccount &account,
                                       std::string *why) const
{
    if (!account.valid())
        return true; // ledger skipped: nothing to attribute
    const std::uint64_t attributed = totalSquashedSlots();
    const std::uint64_t squashed =
        account.slots(SlotClass::SquashedSpec);
    if (attributed != squashed) {
        if (why) {
            *why = "per-site squash sum " + std::to_string(attributed) +
                   " != acct squashed_spec " + std::to_string(squashed);
        }
        return false;
    }
    return true;
}

void
SpeculationProfile::setLoopHeaders(
    const std::vector<std::vector<std::int64_t>> &by_block)
{
    for (auto &[pc, site] : sites_) {
        if (site.block >= 0 &&
            static_cast<std::size_t>(site.block) < by_block.size())
            site.loopHeaders =
                by_block[static_cast<std::size_t>(site.block)];
        else
            site.loopHeaders.clear();
    }
}

void
SpeculationProfile::setMeta(const std::string &workload,
                            const std::string &model)
{
    workload_ = workload;
    model_ = model;
}

bool
SpeculationProfile::empty() const
{
    return sites_.empty() && unattributedSquashedSlots_ == 0;
}

std::uint64_t
SpeculationProfile::totalSquashedSlots() const
{
    std::uint64_t total = unattributedSquashedSlots_;
    for (const auto &[pc, site] : sites_)
        total += site.squashedSlots;
    return total;
}

std::uint64_t
SpeculationProfile::totalExecutions() const
{
    std::uint64_t total = 0;
    for (const auto &[pc, site] : sites_)
        total += site.executions;
    return total;
}

std::uint64_t
SpeculationProfile::totalMispredicts() const
{
    std::uint64_t total = 0;
    for (const auto &[pc, site] : sites_)
        total += site.mispredicts;
    return total;
}

void
SpeculationProfile::merge(const SpeculationProfile &other)
{
    if (workload_.empty())
        workload_ = other.workload_;
    if (model_.empty())
        model_ = other.model_;
    for (const auto &[pc, site] : other.sites_)
        sites_[pc].merge(site);
    unattributedSquashedSlots_ += other.unattributedSquashedSlots_;
}

Json
SpeculationProfile::toJson() const
{
    Json out = Json::object();
    out["workload"] = workload_;
    out["model"] = model_;
    out["executions"] = Json(totalExecutions());
    out["mispredicts"] = Json(totalMispredicts());
    out["squashed_slots"] = Json(totalSquashedSlots());
    out["unattributed_squashed_slots"] =
        Json(unattributedSquashedSlots_);
    std::uint64_t mainline = 0;
    std::uint64_t dee_slot = 0;
    for (const auto &[pc, site] : sites_) {
        mainline += site.mainlineCycles;
        dee_slot += site.deeSlotCycles;
    }
    out["mainline_cycles"] = Json(mainline);
    out["dee_slot_cycles"] = Json(dee_slot);

    // Heaviest sites first; everything past kTopSites folds into one
    // "branch_other" aggregate so manifests stay bounded.
    std::vector<const std::map<std::uint32_t,
                               BranchSiteProfile>::value_type *>
        ranked;
    ranked.reserve(sites_.size());
    for (const auto &entry : sites_)
        ranked.push_back(&entry);
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto *a, const auto *b) {
                         if (a->second.squashedSlots !=
                             b->second.squashedSlots)
                             return a->second.squashedSlots >
                                    b->second.squashedSlots;
                         if (a->second.executions !=
                             b->second.executions)
                             return a->second.executions >
                                    b->second.executions;
                         return a->first < b->first;
                     });

    const std::size_t serialized =
        std::min(ranked.size(), kTopSites);
    out["sites_total"] = Json(static_cast<std::uint64_t>(
        ranked.size()));
    out["sites_serialized"] =
        Json(static_cast<std::uint64_t>(serialized));

    Json branches = Json::object();
    for (std::size_t i = 0; i < serialized; ++i) {
        const auto &[pc, site] = *ranked[i];
        Json b = Json::object();
        b["pc"] = Json(static_cast<std::uint64_t>(pc));
        b["block"] = Json(static_cast<std::int64_t>(site.block));
        b["executions"] = Json(site.executions);
        b["mispredicts"] = Json(site.mispredicts);
        Json conf = Json::object();
        for (std::size_t k = 0; k < kNumConfidenceBuckets; ++k)
            conf[confidenceBucketName(k)] =
                Json(site.mispredictsByConf[k]);
        b["mispredicts_conf"] = std::move(conf);
        b["squashed_slots"] = Json(site.squashedSlots);
        b["mainline_cycles"] = Json(site.mainlineCycles);
        b["dee_slot_cycles"] = Json(site.deeSlotCycles);
        b["assignments"] = Json(site.assignments);
        b["cp_mean"] = Json(site.cpMean());
        b["rank_mean"] = Json(site.rankMean());
        Json lat = Json::object();
        for (std::size_t k = 0; k < kNumLatencyBuckets; ++k)
            lat[latencyBucketName(k)] = Json(site.resolveLatency[k]);
        b["resolve_latency"] = std::move(lat);
        Json loops = Json::array();
        for (const std::int64_t header : site.loopHeaders) {
            std::string tag = "B";
            tag += std::to_string(header);
            loops.push(Json(std::move(tag)));
        }
        b["loops"] = std::move(loops);
        branches[hexPc(pc)] = std::move(b);
    }
    out["branches"] = std::move(branches);

    Json other = Json::object();
    std::uint64_t other_exec = 0;
    std::uint64_t other_misp = 0;
    std::uint64_t other_squash = 0;
    std::uint64_t other_lat[kNumLatencyBuckets] = {};
    for (std::size_t i = serialized; i < ranked.size(); ++i) {
        const BranchSiteProfile &site = ranked[i]->second;
        other_exec += site.executions;
        other_misp += site.mispredicts;
        other_squash += site.squashedSlots;
        for (std::size_t k = 0; k < kNumLatencyBuckets; ++k)
            other_lat[k] += site.resolveLatency[k];
    }
    other["sites"] = Json(static_cast<std::uint64_t>(
        ranked.size() - serialized));
    other["executions"] = Json(other_exec);
    other["mispredicts"] = Json(other_misp);
    other["squashed_slots"] = Json(other_squash);
    Json other_latency = Json::object();
    for (std::size_t k = 0; k < kNumLatencyBuckets; ++k)
        other_latency[latencyBucketName(k)] = Json(other_lat[k]);
    other["resolve_latency"] = std::move(other_latency);
    out["branch_other"] = std::move(other);
    return out;
}

void
SpeculationProfile::appendFoldedStacks(const std::string &scope,
                                       std::string *out) const
{
    dee_assert(out != nullptr, "appendFoldedStacks needs a sink");
    for (const auto &[pc, site] : sites_) {
        if (site.squashedSlots == 0)
            continue;
        *out += scope;
        for (const std::int64_t header : site.loopHeaders) {
            *out += ";loop_B";
            *out += std::to_string(header);
        }
        *out += ";branch_";
        *out += hexPc(pc);
        *out += ' ';
        *out += std::to_string(site.squashedSlots);
        *out += '\n';
    }
    if (unattributedSquashedSlots_ > 0) {
        *out += scope;
        *out += ";unattributed ";
        *out += std::to_string(unattributedSquashedSlots_);
        *out += '\n';
    }
}

namespace
{

thread_local ProfileStore *current_store = nullptr;

} // namespace

ProfileStore &
ProfileStore::global()
{
    return current_store != nullptr ? *current_store : process();
}

ProfileStore &
ProfileStore::process()
{
    static ProfileStore store;
    return store;
}

ProfileStore *
ProfileStore::setCurrent(ProfileStore *store)
{
    ProfileStore *previous = current_store;
    current_store = store;
    return previous;
}

void
ProfileStore::merge(const std::string &scope,
                    const SpeculationProfile &profile)
{
    scopes_[scope].merge(profile);
}

void
ProfileStore::mergeFrom(const ProfileStore &other)
{
    for (const auto &[scope, profile] : other.scopes_)
        scopes_[scope].merge(profile);
}

void
ProfileStore::clear()
{
    scopes_.clear();
}

bool
ProfileStore::empty() const
{
    return scopes_.empty();
}

const SpeculationProfile *
ProfileStore::find(const std::string &scope) const
{
    const auto it = scopes_.find(scope);
    return it == scopes_.end() ? nullptr : &it->second;
}

Json
ProfileStore::toJson() const
{
    Json out = Json::object();
    for (const auto &[scope, profile] : scopes_)
        out[scope] = profile.toJson();
    return out;
}

std::string
ProfileStore::foldedStacks() const
{
    std::string out;
    for (const auto &[scope, profile] : scopes_)
        profile.appendFoldedStacks(scope, &out);
    return out;
}

} // namespace dee::obs
