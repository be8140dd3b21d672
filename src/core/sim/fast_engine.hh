/**
 * @file
 * Data-oriented fast simulation engine.
 *
 * Same semantics as the seed engine, restructured for the host machine:
 *
 *  - The issue loops read the trace's shared packed decode
 *    (PreparedTrace: 8-byte entries of register slots, op class and a
 *    dense memory id) instead of 40-byte trace records, and map the op
 *    class to a latency through a per-cell table (plus the optional
 *    per-record load latencies), never calling opClass() per record.
 *  - Register dataflow through a flat availability table (completion
 *    time of the last writer per architectural register, with an
 *    always-zero slot standing in for "no dependence" so the inner
 *    loop is branch-free on the register path).
 *  - Memory dataflow through a flat last-store table indexed by the
 *    trace's dense address ids — slot 0, read by every non-memory op,
 *    stays zero — replacing the per-access node-allocating
 *    unordered_map.
 *  - Tree moves over the FlatSpecTree array view; per-path mispredict
 *    sets live in BitVec64 words (common/bit_matrix.hh) scanned with
 *    popcount/ctz in the shared epilogue.
 *  - Route-B mispredict stalls via a per-path sorted suffix-max over
 *    pending join points with a monotone cursor, replacing the
 *    per-instruction scan of the whole pending deque.
 *  - Scratch (walk state, stall tables, bypass spans) is hoisted into
 *    per-run arenas reused across every tree move.
 *
 * fastForward() is declared in forward_pass.hh next to its reference
 * twin; both are provably bit-exact (tests/test_engine_differential.cc).
 */

#ifndef DEE_CORE_SIM_FAST_ENGINE_HH
#define DEE_CORE_SIM_FAST_ENGINE_HH

#include <cstdint>

#include "core/sim/forward_pass.hh"
#include "obs/accounting.hh"

namespace dee::sim_detail
{

/**
 * Dataflow + accounting sweep for oracleSim()'s fast engine over the
 * trace's shared decode: returns the dataflow-limit completion horizon
 * and, when @p ledger is non-null, issues each instruction's ready
 * cycle into it in trace order — the same evidence the reference
 * engine's separate second pass produces.
 */
std::int64_t fastOracle(const PreparedTrace &prepared,
                        const LatencyModel &latency,
                        const std::vector<int> *load_latencies,
                        obs::SlotLedger *ledger);

} // namespace dee::sim_detail

#endif // DEE_CORE_SIM_FAST_ENGINE_HH
