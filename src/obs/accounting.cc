#include "obs/accounting.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"
#include "obs/registry.hh"
#include "obs/trace_event.hh"

namespace dee::obs
{

const char *
slotClassName(SlotClass cls)
{
    switch (cls) {
      case SlotClass::Useful: return "useful";
      case SlotClass::SquashedSpec: return "squashed_spec";
      case SlotClass::FetchStall: return "fetch_stall";
      case SlotClass::ResourceStarved: return "resource_starved";
      case SlotClass::RefillStall: return "refill_stall";
      case SlotClass::CopyBack: return "copy_back";
      case SlotClass::Idle: return "idle";
    }
    return "???";
}

std::size_t
confidenceBucket(double accuracy)
{
    if (accuracy < 0.75)
        return 0;
    if (accuracy < 0.90)
        return 1;
    if (accuracy < 0.97)
        return 2;
    return 3;
}

const char *
confidenceBucketName(std::size_t bucket)
{
    switch (bucket) {
      case 0: return "lt75";
      case 1: return "75to90";
      case 2: return "90to97";
      case 3: return "ge97";
    }
    return "???";
}

void
CycleAccount::setDenominator(std::uint64_t pes, std::uint64_t cycles)
{
    pes_ = pes;
    cycles_ = cycles;
    peSlotCycles_ += pes * cycles;
}

std::uint64_t
CycleAccount::totalSlots() const
{
    std::uint64_t total = 0;
    for (const std::uint64_t s : slots_)
        total += s;
    return total;
}

bool
CycleAccount::identityHolds(std::string *why) const
{
    if (totalSlots() != peSlotCycles_) {
        if (why) {
            *why = "class sum " + std::to_string(totalSlots()) +
                   " != PEs x cycles " + std::to_string(peSlotCycles_);
        }
        return false;
    }
    std::uint64_t bucket_sum = 0;
    for (const std::uint64_t b : squashedByBucket_)
        bucket_sum += b;
    if (bucket_sum != slots(SlotClass::SquashedSpec)) {
        if (why) {
            *why = "confidence-bucket sum " +
                   std::to_string(bucket_sum) + " != squashed_spec " +
                   std::to_string(slots(SlotClass::SquashedSpec));
        }
        return false;
    }
    return true;
}

double
CycleAccount::wasteFraction() const
{
    const std::uint64_t useful = slots(SlotClass::Useful);
    const std::uint64_t squashed = slots(SlotClass::SquashedSpec);
    if (useful + squashed == 0)
        return 0.0;
    return static_cast<double>(squashed) /
           static_cast<double>(useful + squashed);
}

double
CycleAccount::usefulFraction() const
{
    if (peSlotCycles_ == 0)
        return 0.0;
    return static_cast<double>(slots(SlotClass::Useful)) /
           static_cast<double>(peSlotCycles_);
}

void
CycleAccount::merge(const CycleAccount &other)
{
    for (std::size_t i = 0; i < kNumSlotClasses; ++i)
        slots_[i] += other.slots_[i];
    for (std::size_t i = 0; i < kNumConfidenceBuckets; ++i)
        squashedByBucket_[i] += other.squashedByBucket_[i];
    pes_ = std::max(pes_, other.pes_);
    cycles_ += other.cycles_;
    peSlotCycles_ += other.peSlotCycles_;
}

void
CycleAccount::publish(Registry &registry, const std::string &prefix) const
{
    if (!valid()) {
        ++registry.counter("acct.skipped_runs");
        return;
    }
    const std::string base = "acct." + prefix + ".";
    for (std::size_t i = 0; i < kNumSlotClasses; ++i) {
        const auto cls = static_cast<SlotClass>(i);
        registry.counter(base + slotClassName(cls)) += slots_[i];
    }
    for (std::size_t i = 0; i < kNumConfidenceBuckets; ++i) {
        registry.counter(base + "squashed_conf." +
                         confidenceBucketName(i)) += squashedByBucket_[i];
    }
    registry.counter(base + "pe_slot_cycles") += peSlotCycles_;
}

namespace
{

/** Mark-byte priority for an interval class (higher wins). */
unsigned
markPriority(SlotClass cls)
{
    switch (cls) {
      case SlotClass::SquashedSpec: return 4;
      case SlotClass::CopyBack: return 3;
      case SlotClass::RefillStall: return 2;
      case SlotClass::ResourceStarved: return 1;
      default: return 0;
    }
}

SlotClass
classOfPriority(unsigned prio)
{
    switch (prio) {
      case 4: return SlotClass::SquashedSpec;
      case 3: return SlotClass::CopyBack;
      case 2: return SlotClass::RefillStall;
      case 1: return SlotClass::ResourceStarved;
      default: return SlotClass::Idle;
    }
}

} // namespace

namespace
{

/** Recycled cycle-buffer storage; see ~SlotLedger(). */
struct LedgerBuffers
{
    std::vector<std::uint32_t> issued;
    std::vector<std::uint8_t> marks;
    std::vector<std::uint32_t> owner;
};

thread_local LedgerBuffers t_ledger_buffers;

} // namespace

SlotLedger::SlotLedger(std::uint64_t pes, std::uint64_t cycles_hint,
                       bool attribute_sites)
    : attributeSites_(attribute_sites), pes_(pes)
{
    // Adopt the thread's recycled buffers (empty on first use or if
    // another ledger currently holds them); clear() keeps capacity and
    // ensure()/finalize() value-initialize every element they expose,
    // so a recycled ledger is indistinguishable from a fresh one.
    issued_.swap(t_ledger_buffers.issued);
    marks_.swap(t_ledger_buffers.marks);
    owner_.swap(t_ledger_buffers.owner);
    issued_.clear();
    marks_.clear();
    owner_.clear();
    const std::uint64_t hint = std::min(cycles_hint, kMaxCycles);
    issued_.reserve(hint);
    marks_.reserve(hint);
    if (attributeSites_)
        owner_.reserve(hint);
}

SlotLedger::~SlotLedger()
{
    if (issued_.capacity() > t_ledger_buffers.issued.capacity()) {
        issued_.swap(t_ledger_buffers.issued);
        marks_.swap(t_ledger_buffers.marks);
        owner_.swap(t_ledger_buffers.owner);
    }
}

std::uint64_t
SlotLedger::peakIssue() const
{
    std::uint32_t peak = 0;
    for (const std::uint32_t u : issued_)
        peak = std::max(peak, u);
    return peak;
}

void
SlotLedger::mark(SlotClass cls, std::int64_t begin, std::int64_t end,
                 std::size_t bucket, std::uint32_t site)
{
    const unsigned prio = markPriority(cls);
    dee_assert(prio > 0, "unmarkable slot class ", slotClassName(cls));
    dee_assert(bucket < kNumConfidenceBuckets, "bad confidence bucket");
    if (begin < 0)
        begin = 0;
    if (end <= begin)
        return;
    if (!ensure(end - 1))
        return;
    const auto code =
        static_cast<std::uint8_t>((prio << 4) | (bucket & 0x0f));
    for (std::int64_t c = begin; c < end; ++c) {
        std::uint8_t &m = marks_[static_cast<std::size_t>(c)];
        if ((m >> 4) < prio) {
            m = code;
            if (attributeSites_)
                owner_[static_cast<std::size_t>(c)] = site;
        }
    }
}

CycleAccount
SlotLedger::finalize(
    std::uint64_t cycles, Tracer *tracer,
    std::unordered_map<std::uint32_t, std::uint64_t> *squash_by_site)
{
    dee_assert(squash_by_site == nullptr || attributeSites_,
               "squash attribution from a ledger built without sites");
    CycleAccount account;
    if (!active_ || cycles > kMaxCycles)
        return account; // invalid: run too long to ledger
    issued_.resize(cycles, 0);
    marks_.resize(cycles, 0);
    if (attributeSites_)
        owner_.resize(cycles, kNoSite);

    // Implicit PE provisioning: the machine owns exactly its peak
    // concurrency (the paper sized hardware by peak busy PEs).
    const std::uint64_t pes =
        pes_ != 0 ? pes_ : std::max<std::uint64_t>(peakIssue(), 1);
    account.setDenominator(pes, cycles);

    const bool tracing = tracer != nullptr && tracer->enabled();
    // Previous per-class slot value, for change-point counter tracks.
    std::uint64_t prev[kNumSlotClasses];
    std::fill(prev, prev + kNumSlotClasses,
              std::numeric_limits<std::uint64_t>::max());
    static const char *const kTrackNames[kNumSlotClasses] = {
        "acct.useful",         "acct.squashed_spec",
        "acct.fetch_stall",    "acct.resource_starved",
        "acct.refill_stall",   "acct.copy_back",
        "acct.idle",
    };

    for (std::uint64_t c = 0; c < cycles; ++c) {
        const std::uint64_t u =
            std::min<std::uint64_t>(issued_[c], pes);
        const std::uint64_t spare = pes - u;
        account.add(SlotClass::Useful, u);

        const std::uint8_t m = marks_[c];
        SlotClass cls;
        if (m != 0) {
            cls = classOfPriority(m >> 4);
            if (cls == SlotClass::SquashedSpec) {
                account.addSquashed(spare, m & 0x0f);
                if (squash_by_site != nullptr && spare > 0)
                    (*squash_by_site)[owner_[c]] += spare;
            } else {
                account.add(cls, spare);
            }
        } else if (u == 0) {
            // Whole machine empty with no charged cause: the front
            // end delivered nothing (window movement, serial branch
            // resolution) — frontend-bound in top-down terms.
            cls = SlotClass::FetchStall;
            account.add(cls, spare);
        } else {
            cls = SlotClass::Idle;
            account.add(cls, spare);
        }

        if (tracing) {
            std::uint64_t now[kNumSlotClasses] = {};
            now[static_cast<std::size_t>(SlotClass::Useful)] = u;
            now[static_cast<std::size_t>(cls)] += spare;
            for (std::size_t k = 0; k < kNumSlotClasses; ++k) {
                if (now[k] != prev[k]) {
                    tracer->record(kTrackNames[k], 'C',
                                   static_cast<std::int64_t>(c),
                                   "slots",
                                   static_cast<std::int64_t>(now[k]));
                    prev[k] = now[k];
                }
            }
        }
    }

    std::string why;
    dee_assert(account.identityHolds(&why),
               "cycle-accounting identity violated: ", why);
    return account;
}

} // namespace dee::obs
