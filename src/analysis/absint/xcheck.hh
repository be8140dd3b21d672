/**
 * @file
 * Static <-> dynamic cross-check over a run manifest.
 *
 * crossCheckManifest() loads the measured side from a dee.run.v7
 * manifest document and checks it against freshly computed static
 * bounds (bounds.hh) for the same (workload, scale, seed):
 *
 *  - every perf scope's mean cycles per run must be at least the
 *    workload's critical-path lower bound;
 *  - the Oracle's measured IPC must not exceed the dataflow limit
 *    (instructions / critical-path lower bound);
 *  - measured per-branch mispredict rates of provably-monotone loop
 *    tests must sit inside the predicted band (2-bit predictor runs
 *    only: skipped when the config carries a "predictor" override);
 *  - spec-tree cumulative probabilities (prof.* cp_mean) must respect
 *    the 0.995 characteristic-accuracy ceiling;
 *  - DEE residency: single-path models must report zero DEE slot
 *    cycles, and eager/DEE models at most E_T_max per simulated cycle.
 *
 * Violations are the theory failing to bound the simulator — the exact
 * regression the paper's optimality claims cannot survive, so
 * dee_lint --xcheck turns them into a failing exit code for CI.
 */

#ifndef DEE_ANALYSIS_ABSINT_XCHECK_HH
#define DEE_ANALYSIS_ABSINT_XCHECK_HH

#include <cstddef>
#include <string>
#include <vector>

#include "obs/json.hh"

namespace dee::analysis::absint
{

/** Outcome of cross-checking one manifest. */
struct XcheckResult
{
    /** One "FAIL static_bounds.<scope>.<check>: measured ... static
     *  ..." line per violated bound. */
    std::vector<std::string> failures;
    /** Scopes or sections that could not be checked (and why). */
    std::vector<std::string> notes;
    /** Bounds actually evaluated (observability: 0 means the manifest
     *  carried nothing checkable). */
    std::size_t checks = 0;

    bool ok() const { return failures.empty(); }

    /** FAIL lines, then notes, then a one-line summary. */
    std::string renderText() const;
};

/** Cross-checks a parsed manifest document against static bounds
 *  recomputed from its config's (scale, seed). */
XcheckResult crossCheckManifest(const obs::Json &doc);

} // namespace dee::analysis::absint

#endif // DEE_ANALYSIS_ABSINT_XCHECK_HH
