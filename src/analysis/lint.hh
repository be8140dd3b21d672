/**
 * @file
 * The full dee_lint pass: verify, analyze, cross-check.
 *
 * One LintReport per subject program. lintProgram() runs the verifier
 * and — when the program is structurally sound — the static profile
 * measurement (loops, dependence distances, ILP bounds).
 * lintWorkload() additionally cross-checks the measured profile
 * against the generator's declared ranges (workloads/profiles.hh).
 *
 * Every run feeds the `lint.*` subtree of the global stats registry so
 * manifests record what was linted and what was found.
 */

#ifndef DEE_ANALYSIS_LINT_HH
#define DEE_ANALYSIS_LINT_HH

#include <string>
#include <vector>

#include "analysis/absint/bounds.hh"
#include "analysis/findings.hh"
#include "analysis/profile.hh"
#include "isa/isa.hh"
#include "obs/json.hh"
#include "workloads/workloads.hh"

namespace dee::analysis
{

/** Result of linting one program. */
struct LintReport
{
    /** What was linted, e.g. "eqntott scale=4" or a file name. */
    std::string subject;
    std::vector<Finding> findings;
    /** True when the program was sound enough to profile. */
    bool profiled = false;
    StaticProfile profile;
    /** True when the abstract-interpretation bounds were computed
     *  (same precondition as profiled). */
    bool boundsComputed = false;
    absint::StaticBounds bounds;

    /** No Error-severity findings (warnings allowed). */
    bool clean() const { return !anyError(findings); }

    /** Human-readable report: header, findings, profile table. */
    std::string renderText() const;

    /** {"subject", "clean", "findings": [...], "profile": {...},
     *  "bounds": {...}}. */
    obs::Json toJson() const;
};

/**
 * Verifies @p program and, if it has no structural errors, measures
 * its static profile. Never asserts on broken input — that is the
 * point of the pass.
 */
LintReport lintProgram(const std::string &subject, const Program &program);

/**
 * Lints makeWorkload(id, scale, seed) and cross-checks the measured
 * profile against the generator's declared ranges; drift is an Error
 * finding. At scale 1 with the calibrated seed 0, the computed
 * critical-path lower bound is additionally checked against the
 * generator's declared cpLowerScale1 range.
 */
LintReport lintWorkload(WorkloadId id, int scale,
                        std::uint64_t seed = 0);

/** Accumulates a report into the global `lint.*` registry counters. */
void recordLintStats(const LintReport &report);

/**
 * Re-ranks @p report's findings by speculation heat. @p profile_section
 * is the "profile" object of a dee.run.v9 manifest (scopes keyed
 * "<workload>.<model>"); scopes whose "workload" matches the report's
 * subject's first token contribute their per-branch squashed slots,
 * summed by block. Findings anchored to hot blocks move to the front
 * (hottest first, stable otherwise) and gain a
 * "[profile: N squashed slots]" message suffix.
 * @return the number of findings that were annotated.
 */
std::size_t annotateWithProfile(LintReport *report,
                                const obs::Json &profile_section);

} // namespace dee::analysis

#endif // DEE_ANALYSIS_LINT_HH
