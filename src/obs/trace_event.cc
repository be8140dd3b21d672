#include "obs/trace_event.hh"

#include <fstream>
#include <ostream>

#include "common/logging.hh"

namespace dee::obs
{

namespace
{

thread_local Tracer *current_tracer = nullptr;

} // namespace

Tracer &
Tracer::global()
{
    return current_tracer != nullptr ? *current_tracer : process();
}

Tracer &
Tracer::process()
{
    static Tracer instance;
    return instance;
}

Tracer *
Tracer::setCurrent(Tracer *tracer)
{
    Tracer *previous = current_tracer;
    current_tracer = tracer;
    return previous;
}

void
Tracer::mergeFrom(const Tracer &other)
{
    for (std::size_t i = 0; i < other.size(); ++i) {
        const TraceEvent &e = other.event(i);
        record(e.name, e.phase, e.ts, e.arg1Name, e.arg1, e.arg2Name,
               e.arg2, e.tid, e.dur);
    }
    // The replay above re-counted the buffered events; fold in the
    // ones @p other had already pushed out, so recorded()/dropped()
    // match a single shared ring.
    recorded_ += other.dropped();
    dropped_ += other.dropped();
}

Tracer::Tracer(std::size_t capacity) : capacity_(capacity)
{
    dee_assert(capacity_ > 0, "Tracer needs a positive capacity");
}

void
Tracer::enable()
{
    ring_.reserve(capacity_);
    enabled_ = true;
}

void
Tracer::disable()
{
    enabled_ = false;
}

void
Tracer::setCapacity(std::size_t capacity)
{
    dee_assert(capacity > 0, "Tracer needs a positive capacity");
    capacity_ = capacity;
    ring_.clear();
    if (enabled_)
        ring_.reserve(capacity_);
    head_ = 0;
    count_ = 0;
}

void
Tracer::clear()
{
    dropped_ += count_;
    head_ = 0;
    count_ = 0;
}

const TraceEvent &
Tracer::event(std::size_t i) const
{
    dee_assert(i < count_, "Tracer event index out of range");
    const std::size_t oldest = (head_ + capacity_ - count_) % capacity_;
    return ring_[(oldest + i) % capacity_];
}

void
Tracer::writeJsonLines(std::ostream &os) const
{
    for (std::size_t i = 0; i < count_; ++i) {
        const TraceEvent &e = event(i);
        os << "{\"name\":\"" << e.name << "\",\"ph\":\"" << e.phase
           << "\",\"ts\":" << e.ts << ",\"pid\":0,\"tid\":" << e.tid;
        if (e.phase == 'X')
            os << ",\"dur\":" << e.dur;
        if (e.arg1Name) {
            os << ",\"args\":{\"" << e.arg1Name << "\":" << e.arg1;
            if (e.arg2Name)
                os << ",\"" << e.arg2Name << "\":" << e.arg2;
            os << "}";
        }
        os << "}\n";
    }
}

void
Tracer::writeFile(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        dee_fatal("cannot open trace output file '", path, "'");
    writeJsonLines(out);
    if (!out.good())
        dee_fatal("error writing trace output file '", path, "'");
}

} // namespace dee::obs
