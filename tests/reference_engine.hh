/**
 * @file
 * The seed simulation kernels, kept as the differential oracle for the
 * library's data-oriented kernels (core/sim/fast_engine.cc).
 *
 * They implement the same internal contract (core/sim/forward_pass.hh)
 * the library's kernels do: referenceForward() is a ForwardKernel and
 * referenceOracle() an OracleKernel. test_engine_differential passes
 * them to the sim_detail entry points next to the fast kernels and
 * requires bit-exact results. Nothing outside tests/ links them.
 */

#ifndef DEE_TESTS_REFERENCE_ENGINE_HH
#define DEE_TESTS_REFERENCE_ENGINE_HH

#include <cstdint>
#include <vector>

#include "core/sim/forward_pass.hh"

namespace dee::sim_detail
{

/** The seed window forward pass: one pointer-chasing walk and one
 *  dependence scan per path over the raw records. */
std::int64_t referenceForward(ForwardCtx &ctx);

/** The seed oracle: a dataflow pass over the raw records, then a
 *  second pass that issues each ready cycle into @p ledger. */
std::int64_t referenceOracle(const Trace &trace,
                             const LatencyModel &latency,
                             const std::vector<int> *load_latencies,
                             obs::SlotLedger *ledger);

/** The seed kernels, as one Kernels pair. */
inline constexpr Kernels kReferenceKernels{&referenceForward,
                                           &referenceOracle};

} // namespace dee::sim_detail

#endif // DEE_TESTS_REFERENCE_ENGINE_HH
