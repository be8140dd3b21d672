/**
 * @file
 * Umbrella header for the dee::obs observability layer.
 *
 *   registry.hh      hierarchical stats registry (dotted paths)
 *   trace_event.hh   cycle-level ring-buffer tracer (trace_event JSONL)
 *   accounting.hh    closed per-slot cycle accounting (acct.*)
 *   perf/perf.hh     host throughput meter, one per simulated run (perf.*)
 *   profile/profile.hh per-branch speculation profiler (prof.*)
 *   profile/report.hh  self-contained HTML profile report (dee_prof)
 *   heartbeat.hh     rate/ETA progress lines for long bench runs
 *   isolate.hh       per-cell obs isolation for parallel sweeps
 *   telemetry/telemetry.hh  live sampler + time series (dee_top feed)
 *   telemetry/stats_server.hh  unix-socket live-stats endpoint
 *   manifest.hh      machine-readable run manifests
 *   manifest_diff.hh manifest loading/flattening/diffing (dee_report)
 *   session.hh       --json/--trace-out/--stats wiring for binaries
 *   json.hh          the minimal JSON model everything above emits
 */

#ifndef DEE_OBS_OBS_HH
#define DEE_OBS_OBS_HH

#include "obs/accounting.hh"
#include "obs/heartbeat.hh"
#include "obs/isolate.hh"
#include "obs/json.hh"
#include "obs/manifest.hh"
#include "obs/manifest_diff.hh"
#include "obs/perf/perf.hh"
#include "obs/profile/profile.hh"
#include "obs/profile/report.hh"
#include "obs/registry.hh"
#include "obs/session.hh"
#include "obs/telemetry/stats_server.hh"
#include "obs/telemetry/telemetry.hh"
#include "obs/trace_event.hh"

#endif // DEE_OBS_OBS_HH
