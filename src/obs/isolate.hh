/**
 * @file
 * Per-cell observability isolation for parallel sweeps.
 *
 * Simulators publish through Registry::global(), Tracer::global() and
 * ProfileStore::global(), which all consult a thread-local override
 * before falling back to the process-wide instance. A parallel-runner
 * worker wraps each cell in an IsolationScope so everything the cell
 * publishes lands in that cell's private CellSink; once cells finish,
 * the runner merges the sinks back into the process instances in
 * deterministic grid order (CellSink::mergeInto), making the merged
 * state bit-identical to a serial run regardless of thread count or
 * scheduling (see DESIGN.md "Deterministic parallel runner").
 */

#ifndef DEE_OBS_ISOLATE_HH
#define DEE_OBS_ISOLATE_HH

#include "obs/profile/profile.hh"
#include "obs/registry.hh"
#include "obs/trace_event.hh"

namespace dee::obs
{

/**
 * One cell's private observability state. Construction is cheap: the
 * registry starts empty (with exact-merge sample logging on), the
 * tracer reserves its ring only if the process tracer is tracing, and
 * touches only as much of it as the cell records.
 */
class CellSink
{
  public:
    CellSink()
    {
        registry.logStatSamples();
        if (Tracer::process().enabled()) {
            tracer.setCapacity(Tracer::process().capacity());
            tracer.enable();
        }
    }

    /**
     * Folds this cell's output into the process-wide instances (call
     * on one thread, in grid order, after the cell finished). Every
     * fold is exact, so nothing needs re-deriving afterwards.
     */
    void
    mergeInto(Registry &reg, Tracer &tr, ProfileStore &stores) const
    {
        reg.merge(registry);
        if (tracer.recorded() > 0)
            tr.mergeFrom(tracer);
        stores.mergeFrom(profiles);
    }

    Registry registry;
    Tracer tracer;
    ProfileStore profiles;
};

/** RAII thread-local redirection of the three global() accessors into
 *  a CellSink; restores the previous overrides on destruction (scopes
 *  nest). */
class IsolationScope
{
  public:
    explicit IsolationScope(CellSink &sink)
        : prevRegistry_(Registry::setCurrent(&sink.registry)),
          prevTracer_(Tracer::setCurrent(&sink.tracer)),
          prevProfiles_(ProfileStore::setCurrent(&sink.profiles))
    {
    }

    ~IsolationScope()
    {
        Registry::setCurrent(prevRegistry_);
        Tracer::setCurrent(prevTracer_);
        ProfileStore::setCurrent(prevProfiles_);
    }

    IsolationScope(const IsolationScope &) = delete;
    IsolationScope &operator=(const IsolationScope &) = delete;

  private:
    Registry *prevRegistry_;
    Tracer *prevTracer_;
    ProfileStore *prevProfiles_;
};

} // namespace dee::obs

#endif // DEE_OBS_ISOLATE_HH
