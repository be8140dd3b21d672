/**
 * @file
 * Unit tests for the observability layer: stats registry naming rules,
 * tracer ring-buffer semantics, JSON emission round-tripped through the
 * built-in parser, run manifests and the one home of each of their
 * numbers, and the manifest regression gate (against synthetic
 * manifests and the committed Figure 5 baseline).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <iterator>
#include <random>
#include <sstream>

#include "analysis/absint/bounds.hh"
#include "bpred/bpred.hh"
#include "core/sim/models.hh"
#include "obs/hotspot/hotspot.hh"
#include "obs/obs.hh"
#include "runner/sweep.hh"
#include "workloads/suite.hh"

namespace
{

using dee::obs::Json;
using dee::obs::Manifest;
using dee::obs::Registry;
using dee::obs::Tracer;

TEST(Registry, CounterAndStat)
{
    Registry reg;
    reg.counter("sim.window.runs") += 3;
    reg.counter("sim.window.runs") += 2;
    EXPECT_EQ(reg.counter("sim.window.runs"), 5u);

    reg.stat("sim.window.speedup").add(2.0);
    reg.stat("sim.window.speedup").add(4.0);
    EXPECT_EQ(reg.stat("sim.window.speedup").count(), 2u);
    EXPECT_DOUBLE_EQ(reg.stat("sim.window.speedup").mean(), 3.0);

    EXPECT_TRUE(reg.contains("sim.window.runs"));
    EXPECT_FALSE(reg.contains("sim.window"));
    EXPECT_EQ(reg.size(), 2u);
    reg.clear();
    EXPECT_EQ(reg.size(), 0u);
}

TEST(RegistryDeathTest, KindConflictIsFatal)
{
    Registry reg;
    reg.counter("levo.copybacks");
    EXPECT_EXIT(reg.stat("levo.copybacks"),
                ::testing::ExitedWithCode(1), "registered as a counter");
}

TEST(RegistryDeathTest, PrefixOfLeafIsFatal)
{
    Registry reg;
    reg.counter("bpred.2bit.mispredicts");
    // A leaf cannot also be an interior node, in either direction.
    EXPECT_EXIT(reg.counter("bpred.2bit"),
                ::testing::ExitedWithCode(1), "prefix");
    EXPECT_EXIT(reg.counter("bpred.2bit.mispredicts.fast"),
                ::testing::ExitedWithCode(1), "descends through");
}

TEST(RegistryDeathTest, MalformedPathIsFatal)
{
    Registry reg;
    EXPECT_EXIT(reg.counter(""), ::testing::ExitedWithCode(1), "path");
    EXPECT_EXIT(reg.counter("a..b"), ::testing::ExitedWithCode(1),
                "path");
    EXPECT_EXIT(reg.counter("a.b!"), ::testing::ExitedWithCode(1),
                "path");
}

TEST(Registry, TextAndJsonDumps)
{
    Registry reg;
    reg.counter("sim.window.mispredicts") = 7;
    reg.stat("sim.window.speedup").add(12.0);

    const std::string text = reg.renderText();
    EXPECT_NE(text.find("sim.window.mispredicts"), std::string::npos);
    EXPECT_NE(text.find("7"), std::string::npos);

    const Json doc = reg.toJson();
    const Json *sim = doc.find("sim");
    ASSERT_NE(sim, nullptr);
    const Json *window = sim->find("window");
    ASSERT_NE(window, nullptr);
    const Json *mp = window->find("mispredicts");
    ASSERT_NE(mp, nullptr);
    EXPECT_EQ(mp->asInt(), 7);
    const Json *speedup = window->find("speedup");
    ASSERT_NE(speedup, nullptr);
    ASSERT_TRUE(speedup->isObject());
    EXPECT_EQ(speedup->find("count")->asInt(), 1);
    EXPECT_DOUBLE_EQ(speedup->find("mean")->asDouble(), 12.0);
}

TEST(Tracer, RingWraparoundKeepsNewestEvents)
{
    Tracer tracer(4);
    tracer.enable();
    for (int i = 0; i < 6; ++i)
        tracer.record("tick", 'i', i);
    EXPECT_EQ(tracer.size(), 4u);
    EXPECT_EQ(tracer.recorded(), 6u);
    EXPECT_EQ(tracer.dropped(), 2u);
    // Oldest-first iteration yields timestamps 2..5.
    for (std::size_t i = 0; i < tracer.size(); ++i)
        EXPECT_EQ(tracer.event(i).ts, static_cast<std::int64_t>(i + 2));

    tracer.clear();
    EXPECT_EQ(tracer.size(), 0u);
    EXPECT_EQ(tracer.dropped(), 6u);
}

TEST(Tracer, MacroSkipsArgumentEvaluationWhenDisabled)
{
    Tracer tracer(4);
    int evaluations = 0;
    auto ts = [&]() -> std::int64_t { return ++evaluations; };

    dee_trace_event(tracer, "off", 'i', ts());
    EXPECT_EQ(evaluations, 0);
    EXPECT_EQ(tracer.size(), 0u);

    tracer.enable();
    dee_trace_event(tracer, "on", 'i', ts());
    EXPECT_EQ(evaluations, 1);
    EXPECT_EQ(tracer.size(), 1u);
}

TEST(Tracer, JsonLinesAreWellFormedTraceEvents)
{
    Tracer tracer(8);
    tracer.enable();
    tracer.record("sim.root_advance", 'i', 10, "path", 3, "mispredict",
                  1);
    tracer.record("sim.issue_occupancy", 'C', 11, "busy", 42);
    tracer.record("sim.window.run", 'X', 0, nullptr, 0, nullptr, 0, 2,
                  100);

    std::ostringstream os;
    tracer.writeJsonLines(os);
    std::istringstream is(os.str());
    std::string line;
    std::size_t lines = 0;
    while (std::getline(is, line)) {
        Json event;
        std::string err;
        ASSERT_TRUE(Json::parse(line, &event, &err)) << err;
        ASSERT_TRUE(event.isObject());
        EXPECT_NE(event.find("name"), nullptr);
        EXPECT_NE(event.find("ph"), nullptr);
        EXPECT_NE(event.find("ts"), nullptr);
        EXPECT_NE(event.find("pid"), nullptr);
        EXPECT_NE(event.find("tid"), nullptr);
        ++lines;
    }
    EXPECT_EQ(lines, 3u);

    std::ostringstream os2;
    tracer.writeJsonLines(os2);
    const std::string text = os2.str();
    EXPECT_NE(text.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(text.find("\"dur\":100"), std::string::npos);
    EXPECT_NE(text.find("\"mispredict\":1"), std::string::npos);
}

TEST(Json, RoundTripThroughParser)
{
    Json doc = Json::object();
    doc["name"] = Json("quote \" backslash \\ newline \n tab \t");
    doc["count"] = Json(std::int64_t{-42});
    doc["ratio"] = Json(31.9);
    doc["flag"] = Json(true);
    doc["nothing"] = Json();
    Json arr = Json::array();
    arr.push(Json(1));
    arr.push(Json("two"));
    Json inner = Json::object();
    inner["deep"] = Json(3.5);
    arr.push(std::move(inner));
    doc["items"] = std::move(arr);

    for (int indent : {-1, 2}) {
        Json back;
        std::string err;
        ASSERT_TRUE(Json::parse(doc.dump(indent), &back, &err)) << err;
        EXPECT_EQ(back.find("name")->asString(),
                  "quote \" backslash \\ newline \n tab \t");
        EXPECT_EQ(back.find("count")->asInt(), -42);
        EXPECT_DOUBLE_EQ(back.find("ratio")->asDouble(), 31.9);
        EXPECT_TRUE(back.find("flag")->asBool());
        EXPECT_EQ(back.find("nothing")->kind(), Json::Kind::Null);
        const Json &items = *back.find("items");
        ASSERT_EQ(items.size(), 3u);
        EXPECT_EQ(items.items()[0].asInt(), 1);
        EXPECT_EQ(items.items()[1].asString(), "two");
        EXPECT_DOUBLE_EQ(items.items()[2].find("deep")->asDouble(),
                         3.5);
    }
}

TEST(Json, ParserRejectsMalformedInput)
{
    for (const char *bad :
         {"", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "tru",
          "\"unterminated", "{\"a\":1}trailing", "nan"}) {
        Json out;
        std::string err;
        EXPECT_FALSE(Json::parse(bad, &out, &err)) << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }
}

TEST(Json, UnicodeEscapes)
{
    Json out;
    std::string err;
    ASSERT_TRUE(Json::parse("\"a\\u00e9b\\u20acc\"", &out, &err))
        << err;
    EXPECT_EQ(out.asString(), "a\xc3\xa9"
                              "b\xe2\x82\xac"
                              "c");
}

TEST(Json, EscapeEdgeCases)
{
    // Every single-character escape of RFC 8259, plus \u0041 ('A').
    Json out;
    std::string err;
    ASSERT_TRUE(Json::parse(
        "\"\\\"\\\\\\/\\b\\f\\n\\r\\t\\u0041\"", &out, &err))
        << err;
    EXPECT_EQ(out.asString(), "\"\\/\b\f\n\r\t"
                              "A");

    // \u0000 must survive as an embedded NUL, not truncate the string.
    ASSERT_TRUE(Json::parse("\"a\\u0000b\"", &out, &err)) << err;
    EXPECT_EQ(out.asString(), std::string("a\0b", 3));

    // Malformed escapes are rejected, not silently passed through.
    for (const char *bad : {"\"\\u12\"", "\"\\u12zq\"", "\"\\q\""}) {
        std::string why;
        EXPECT_FALSE(Json::parse(bad, &out, &why)) << bad;
        EXPECT_FALSE(why.empty()) << bad;
    }
}

TEST(Json, DeepNestingIsRejectedNotOverflowed)
{
    // Just inside the parser's depth cap: fine.
    const int ok_depth = 200;
    std::string ok(static_cast<std::size_t>(ok_depth), '[');
    ok += std::string(static_cast<std::size_t>(ok_depth), ']');
    Json out;
    std::string err;
    EXPECT_TRUE(Json::parse(ok, &out, &err)) << err;

    // Far past the cap: a clean parse error, not a stack overflow.
    const int bad_depth = 100000;
    std::string bad(static_cast<std::size_t>(bad_depth), '[');
    bad += std::string(static_cast<std::size_t>(bad_depth), ']');
    EXPECT_FALSE(Json::parse(bad, &out, &err));
    EXPECT_NE(err.find("deep"), std::string::npos) << err;
}

TEST(Json, DuplicateObjectKeysLastWins)
{
    Json out;
    std::string err;
    ASSERT_TRUE(Json::parse("{\"a\":1,\"b\":2,\"a\":3}", &out, &err))
        << err;
    ASSERT_TRUE(out.isObject());
    // One member per key, holding the last value — the behaviour
    // registry dumps rely on when a path is re-emitted.
    EXPECT_EQ(out.size(), 2u);
    EXPECT_EQ(out.find("a")->asInt(), 3);
    EXPECT_EQ(out.find("b")->asInt(), 2);
}

TEST(Manifest, DocumentShapeAndRoundTrip)
{
    Registry reg;
    reg.counter("sim.window.runs") = 1;

    Manifest manifest("test_tool");
    manifest.setConfig("scale", 4);
    manifest.results()["speedup"] = Json(31.9);

    Json back;
    std::string err;
    ASSERT_TRUE(Json::parse(manifest.toJson(reg).dump(2), &back, &err))
        << err;
    EXPECT_EQ(back.find("schema")->asString(), "dee.run.v9");
    EXPECT_EQ(back.find("tool")->asString(), "test_tool");
    EXPECT_EQ(back.find("config")->find("scale")->asInt(), 4);
    EXPECT_DOUBLE_EQ(back.find("results")->find("speedup")->asDouble(),
                     31.9);
    EXPECT_EQ(back.find("stats")
                  ->find("sim")
                  ->find("window")
                  ->find("runs")
                  ->asInt(),
              1);
    ASSERT_NE(back.find("wall_clock_ms"), nullptr);
    EXPECT_TRUE(back.find("wall_clock_ms")->isNumber());

    // The trace section reports tracer health.
    const Json *trace = back.find("trace");
    ASSERT_NE(trace, nullptr);
    ASSERT_NE(trace->find("recorded"), nullptr);
    ASSERT_NE(trace->find("dropped"), nullptr);
    ASSERT_NE(trace->find("buffered"), nullptr);
    EXPECT_EQ(trace->size(), 3u);

    // v3 section: the speculation profile, {} when nothing profiled.
    const Json *profile = back.find("profile");
    ASSERT_NE(profile, nullptr);
    EXPECT_TRUE(profile->isObject());

    // v7 section: the hotspot report, {"enabled": false} when the
    // sampler never ran. v9 has no telemetry section.
    const Json *hotspots = back.find("hotspots");
    ASSERT_NE(hotspots, nullptr);
    ASSERT_NE(hotspots->find("enabled"), nullptr);
    EXPECT_EQ(back.find("telemetry"), nullptr);
}

TEST(Manifest, EveryNumberHasOneHome)
{
    // Every publisher on: two profiled cells merged at --jobs 2, the
    // hotspot sampler running and the static bounds installed.
    Registry::process().clear();
    dee::obs::ProfileStore::process().clear();
    dee::obs::requestProfiling(true);
    dee::obs::hotspot::Sampler &sampler =
        dee::obs::hotspot::Sampler::process();
    const bool sampling = sampler.start(dee::obs::hotspot::Options{});
    const dee::BenchmarkInstance inst =
        dee::makeInstance(dee::WorkloadId::Compress, 1);
    const dee::ModelKind kinds[] = {dee::ModelKind::SP,
                                    dee::ModelKind::DEE_CD_MF};
    dee::runner::SweepOptions sweep;
    sweep.jobs = 2;
    dee::runner::runCells(2, sweep, [&inst, &kinds](std::size_t i) {
        dee::TwoBitPredictor pred(inst.trace.numStatic);
        dee::ModelRunOptions options;
        options.profileWorkload = inst.name;
        dee::runModel(kinds[i], inst.trace, &inst.cfg, pred, 8, options);
    });
    dee::analysis::absint::publishStaticBounds(
        {dee::WorkloadId::Compress}, 1, 0);
    if (sampling)
        sampler.stop();
    dee::obs::requestProfiling(false);
    const Json doc = Manifest("test_tool").toJson(Registry::process());
    Registry::process().clear();
    dee::obs::ProfileStore::process().clear();
    dee::obs::setStaticBoundsSection(Json::object());

    std::vector<std::string> keys;
    for (const auto &[key, value] : doc.members())
        keys.push_back(key);
    EXPECT_EQ(keys, (std::vector<std::string>{
                        "schema", "tool", "config", "results", "trace",
                        "profile", "static_bounds", "hotspots", "stats",
                        "wall_clock_ms"}));
    ASSERT_FALSE(doc.find("profile")->members().empty());
    ASSERT_NE(doc.find("static_bounds")->find("workloads"), nullptr);

    // No registry mirror of another section.
    const Json *stats = doc.find("stats");
    ASSERT_NE(stats->find("acct"), nullptr);
    for (const char *mirror : {"prof", "hot", "bounds", "trace"})
        EXPECT_EQ(stats->find(mirror), nullptr) << mirror;

    // No stored ratio: whatever displays one computes it.
    std::vector<std::pair<std::string, double>> leaves;
    dee::obs::flattenNumeric(doc, "", &leaves);
    ASSERT_GT(leaves.size(), 100u);
    const auto ends_with = [](const std::string &path, const char *tail) {
        const std::size_t n = std::char_traits<char>::length(tail);
        return path.size() >= n &&
               path.compare(path.size() - n, n, tail) == 0;
    };
    for (const auto &[path, value] : leaves) {
        for (const char *ratio :
             {"_fraction", "kips", "mcps", "_p50", "_p90"})
            EXPECT_FALSE(ends_with(path, ratio)) << path;
    }
}

// --- Manifest diffing and the regression gate (the dee_report core) ----

using dee::obs::checkManifest;
using dee::obs::flattenNumeric;
using dee::obs::GateItem;
using dee::obs::globMatch;
using dee::obs::LoadedManifest;
using dee::obs::loadManifestFile;
using dee::obs::parseManifest;
using dee::obs::renderManifestDiff;
using dee::obs::withoutHostMeasured;

/** A tiny v9 manifest with one tweakable result and one tweakable
 *  cycle-accounting counter. */
std::string
manifestText(double speedup, std::uint64_t squashed,
             bool with_extra = true)
{
    Json doc = Json::object();
    doc["schema"] = Json("dee.run.v9");
    doc["tool"] = Json("unit_test");
    doc["config"] = Json::object();
    doc["results"] = Json::object();
    doc["results"]["speedup"] = Json(speedup);
    if (with_extra)
        doc["results"]["extra"] = Json(7);
    doc["stats"] = Json::object();
    doc["stats"]["acct"] = Json::object();
    doc["stats"]["acct"]["window"] = Json::object();
    doc["stats"]["acct"]["window"]["squashed_spec"] = Json(squashed);
    doc["wall_clock_ms"] = Json(1.5);
    return doc.dump(2);
}

LoadedManifest
loaded(const std::string &text, const std::string &label)
{
    LoadedManifest m;
    std::string err;
    EXPECT_TRUE(parseManifest(text, label, &m, &err)) << err;
    return m;
}

/** The rendered FAIL lines of @p items, one per line. */
std::string
failLines(const std::vector<GateItem> &items)
{
    std::string out;
    for (const GateItem &item : items) {
        if (item.fail)
            out += item.line() + "\n";
    }
    return out;
}

TEST(ManifestDiff, GlobMatch)
{
    EXPECT_TRUE(globMatch("a.b.c", "a.b.c"));
    EXPECT_FALSE(globMatch("a.b.c", "a.b.d"));
    EXPECT_TRUE(globMatch("*", "anything.at.all"));
    EXPECT_TRUE(globMatch("acct.*.squashed_spec",
                          "acct.window.squashed_spec"));
    EXPECT_FALSE(globMatch("acct.*.squashed_spec",
                           "acct.window.useful"));
    EXPECT_TRUE(globMatch("*speedup*", "results.DEE-CD-MF.speedup"));
    EXPECT_FALSE(globMatch("", "x"));
    EXPECT_TRUE(globMatch("**", "x"));
}

TEST(ManifestDiff, FlattenNumericWalksObjectsAndArrays)
{
    Json doc = Json::object();
    doc["a"] = Json(1);
    doc["b"] = Json::object();
    doc["b"]["c"] = Json(2.5);
    doc["b"]["skip"] = Json("string");
    Json arr = Json::array();
    arr.push(Json(10));
    arr.push(Json(20));
    doc["d"] = std::move(arr);

    std::vector<std::pair<std::string, double>> out;
    flattenNumeric(doc, "", &out);
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out[0].first, "a");
    EXPECT_DOUBLE_EQ(out[1].second, 2.5);
    EXPECT_EQ(out[1].first, "b.c");
    EXPECT_EQ(out[2].first, "d.0");
    EXPECT_EQ(out[3].first, "d.1");
}

TEST(ManifestDiff, ParseAcceptsV9RejectsOthers)
{
    const LoadedManifest v9 = loaded(manifestText(30.0, 20), "a.json");
    double value = 0.0;
    ASSERT_TRUE(v9.metric("results.speedup", &value));
    EXPECT_DOUBLE_EQ(value, 30.0);
    ASSERT_TRUE(v9.metric("stats.acct.window.squashed_spec", &value));
    EXPECT_DOUBLE_EQ(value, 20.0);
    ASSERT_TRUE(v9.metric("wall_clock_ms", &value));

    // Every older schema is refused, naming the version it found.
    LoadedManifest old;
    std::string err;
    for (int v = 1; v <= 8; ++v) {
        const std::string schema = "dee.run.v" + std::to_string(v);
        EXPECT_FALSE(parseManifest("{\"schema\":\"" + schema +
                                       "\",\"results\":{\"x\":1}}",
                                   "old.json", &old, &err))
            << schema;
        EXPECT_NE(err.find(schema), std::string::npos) << err;
    }
    EXPECT_FALSE(parseManifest("{\"schema\":\"dee.run.v99\"}", "bad",
                               &old, &err));
    EXPECT_FALSE(parseManifest("not json", "bad", &old, &err));
    EXPECT_FALSE(parseManifest("[1,2]", "bad", &old, &err));
}

TEST(ManifestV8, V7DocumentsAreRejected)
{
    // A v7 document, accounting copy and all, is refused by its schema
    // tag alone.
    Json doc;
    ASSERT_TRUE(Json::parse(manifestText(30.0, 20), &doc));
    doc["schema"] = Json("dee.run.v7");
    doc["accounting"] = Json::object();
    doc["accounting"]["window"] = Json::object();
    doc["accounting"]["window"]["waste_fraction"] = Json(0.2);

    // A refused document leaves an already loaded manifest untouched.
    LoadedManifest back = loaded(manifestText(33.0, 20), "new.json");
    const std::size_t metrics = back.metrics.size();
    std::string err;
    EXPECT_FALSE(parseManifest(doc.dump(2), "old.json", &back, &err));
    EXPECT_NE(err.find("dee.run.v7"), std::string::npos) << err;
    EXPECT_EQ(back.doc.find("schema")->asString(), "dee.run.v9");
    EXPECT_EQ(back.path, "new.json");
    EXPECT_EQ(back.metrics.size(), metrics);
    double value = 0.0;
    ASSERT_TRUE(back.metric("results.speedup", &value));
    EXPECT_DOUBLE_EQ(value, 33.0);
    EXPECT_FALSE(back.metric("accounting.window.waste_fraction", &value));
}

TEST(ManifestDiff, ExactGateTripsInEitherDirection)
{
    // Simulated results are deterministic, so a drop, a rise and a
    // change in the fourth significant digit all fail alike.
    const LoadedManifest base = loaded(manifestText(30.0, 20), "base");
    const std::vector<std::pair<double, std::uint64_t>> moved{
        {27.0, 20}, {33.0, 20}, {29.99, 20}, {30.0, 21}};
    for (const auto &[speedup, squashed] : moved) {
        const std::vector<GateItem> items = checkManifest(
            base, loaded(manifestText(speedup, squashed), "c"));
        ASSERT_EQ(items.size(), 1u) << speedup << " " << squashed;
        EXPECT_TRUE(items[0].fail);
        EXPECT_EQ(items[0].metric, speedup != 30.0
                                       ? "results.speedup"
                                       : "stats.acct.window.squashed_spec");
    }
    EXPECT_TRUE(
        checkManifest(base, loaded(manifestText(30.0, 20), "same"))
            .empty());
}

TEST(ManifestDiff, MissingWatchedMetricCountsAsRegression)
{
    // Every leaf outside the host-measured keys is watched.
    const LoadedManifest base = loaded(manifestText(30.0, 20), "base");
    const LoadedManifest gone =
        loaded(manifestText(30.0, 20, /*with_extra=*/false), "cand");
    const std::vector<GateItem> items = checkManifest(base, gone);
    ASSERT_EQ(items.size(), 1u);
    EXPECT_TRUE(items[0].fail);
    EXPECT_EQ(items[0].metric, "results.extra");
}

TEST(ManifestDiff, FailureLinesNameTheMetricAndBothValues)
{
    const LoadedManifest base = loaded(manifestText(30.0, 20), "base");
    const LoadedManifest slower = loaded(manifestText(27.5, 20), "c1");
    // The offending leaf and both exact values, on one FAIL line;
    // unchanged leaves contribute nothing.
    EXPECT_EQ(failLines(checkManifest(base, slower)),
              "FAIL results.speedup: baseline 30, candidate 27.5\n");
}

TEST(ManifestDiff, EveryRegressedMetricGetsItsOwnFailureLine)
{
    // Two leaves move at once (speedup down, squash up): both FAIL
    // lines render — the gate never stops at the first failure, so a
    // CI log shows the full damage in one run.
    const LoadedManifest base = loaded(manifestText(30.0, 20), "base");
    const LoadedManifest worse = loaded(manifestText(20.0, 40), "c1");
    EXPECT_EQ(failLines(checkManifest(base, worse)),
              "FAIL results.speedup: baseline 30, candidate 20\n"
              "FAIL stats.acct.window.squashed_spec: baseline 20, "
              "candidate 40\n");
}

TEST(ManifestDiff, FailureLinesReportMissingMetrics)
{
    const LoadedManifest with = loaded(manifestText(30.0, 20), "base");
    const LoadedManifest without =
        loaded(manifestText(30.0, 20, /*with_extra=*/false), "cand");
    EXPECT_EQ(failLines(checkManifest(with, without)),
              "FAIL results.extra: baseline 7, candidate missing\n");
    EXPECT_EQ(failLines(checkManifest(without, with)),
              "FAIL results.extra: baseline missing, candidate 7\n");
}

TEST(ManifestDiff, HostMeasuredKeysNeverGate)
{
    Json base_doc;
    ASSERT_TRUE(Json::parse(manifestText(30.0, 20), &base_doc));
    Json cand_doc = base_doc;
    cand_doc["wall_clock_ms"] = Json(99.0);
    cand_doc["config"]["jobs"] = Json("8");
    cand_doc["stats"]["sim"] = Json::object();
    cand_doc["stats"]["sim"]["run_ms"] = Json(3.0);
    cand_doc["hotspots"] = Json::object();
    cand_doc["hotspots"]["samples"] = Json(1234);
    EXPECT_TRUE(checkManifest(loaded(base_doc.dump(), "base"),
                              loaded(cand_doc.dump(), "cand"))
                    .empty());

    // The keys go at any depth; everything else stays.
    const Json kept = withoutHostMeasured(cand_doc);
    EXPECT_EQ(kept.find("wall_clock_ms"), nullptr);
    EXPECT_EQ(kept.find("hotspots"), nullptr);
    EXPECT_EQ(kept.find("config")->find("jobs"), nullptr);
    EXPECT_EQ(kept.find("stats")->find("sim")->find("run_ms"), nullptr);
    EXPECT_NE(kept.find("results")->find("speedup"), nullptr);
}

TEST(ManifestDiff, SideBySideRenderIncludesDeltaForPairs)
{
    const std::vector<LoadedManifest> pair{
        loaded(manifestText(30.0, 20), "runs/base.json"),
        loaded(manifestText(33.0, 20), "runs/cand.json")};
    const std::string diff =
        renderManifestDiff(pair, "results.*");
    EXPECT_NE(diff.find("results.speedup"), std::string::npos);
    EXPECT_NE(diff.find("base"), std::string::npos);
    EXPECT_NE(diff.find("cand"), std::string::npos);
    EXPECT_NE(diff.find("10.00%"), std::string::npos);
    // Filter excludes accounting rows.
    EXPECT_EQ(diff.find("squashed_spec"), std::string::npos);
}

// --- The gate against the committed Figure 5 baseline -------------------

/** tools/baselines/fig5_scale1.json, the manifest CI gates against. */
const LoadedManifest &
fig5Baseline()
{
    static const LoadedManifest baseline = [] {
        LoadedManifest m;
        std::string err;
        EXPECT_TRUE(loadManifestFile(std::string(DEE_SOURCE_DIR) +
                                         "/tools/baselines/fig5_scale1.json",
                                     &m, &err))
            << err;
        return m;
    }();
    return baseline;
}

/** @p node with every number multiplied by @p factor. */
Json
scaled(const Json &node, double factor)
{
    if (node.isNumber())
        return Json(node.asDouble() * factor);
    if (node.isObject()) {
        Json out = Json::object();
        for (const auto &[key, value] : node.members())
            out[key] = scaled(value, factor);
        return out;
    }
    if (node.isArray()) {
        Json out = Json::array();
        for (const Json &item : node.items())
            out.push(scaled(item, factor));
        return out;
    }
    return node;
}

TEST(ManifestGate, BaselinePassesAgainstItself)
{
    const LoadedManifest &base = fig5Baseline();
    ASSERT_NE(base.doc.find("results"), nullptr);
    EXPECT_TRUE(checkManifest(base, base).empty());
}

TEST(ManifestGate, ScaledFigure5SpeedupsFailNamingEveryLeaf)
{
    // Every Figure 5 speedup cut by 30%. The old gate's default
    // "results.*speedup*" watch matched none of these leaves.
    const LoadedManifest &base = fig5Baseline();
    Json doc = base.doc;
    Json &benchmarks = doc["results"]["benchmarks"];
    benchmarks = scaled(benchmarks, 0.7);
    std::vector<std::pair<std::string, double>> leaves;
    flattenNumeric(benchmarks, "results.benchmarks", &leaves);
    ASSERT_EQ(leaves.size(), 240u); // 5 programs x 8 models x 6 E_T

    const std::vector<GateItem> items =
        checkManifest(base, loaded(doc.dump(2), "scaled.json"));
    ASSERT_EQ(items.size(), leaves.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
        EXPECT_TRUE(items[i].fail);
        EXPECT_EQ(items[i].metric, leaves[i].first);
    }
}

TEST(ManifestGate, OneSquashedSlotFailsNamingTheLeaf)
{
    // One more squashed slot on one branch: far under the old profile
    // gate's 64-slot floor, and still a behaviour change.
    const LoadedManifest &base = fig5Baseline();
    const Json *profile = base.doc.find("profile");
    ASSERT_NE(profile, nullptr);
    ASSERT_FALSE(profile->members().empty());
    const auto &[scope, scope_doc] = profile->members().front();
    const Json *branches = scope_doc.find("branches");
    ASSERT_NE(branches, nullptr);
    ASSERT_FALSE(branches->members().empty());
    const std::string &pc = branches->members().front().first;

    Json doc = base.doc;
    Json &slots = doc["profile"][scope]["branches"][pc]["squashed_slots"];
    ASSERT_EQ(slots.kind(), Json::Kind::Int);
    slots = Json(slots.asInt() + 1);

    const std::vector<GateItem> items =
        checkManifest(base, loaded(doc.dump(2), "slot.json"));
    ASSERT_EQ(items.size(), 1u);
    EXPECT_TRUE(items[0].fail);
    EXPECT_EQ(items[0].metric,
              "profile." + scope + ".branches." + pc + ".squashed_slots");
}

TEST(ManifestGate, DoubledHotspotShareWarnsButPasses)
{
    const LoadedManifest &base = fig5Baseline();
    const Json *hotspots = base.doc.find("hotspots");
    ASSERT_NE(hotspots, nullptr);
    const Json *phases = hotspots->find("phases");
    ASSERT_NE(phases, nullptr) << "baseline recorded without --hotspots";
    // The most-sampled phase, its self share doubled.
    std::string top;
    double top_self = 0.0, top_pct = 0.0;
    for (const auto &[phase, entry] : phases->members()) {
        if (entry.find("self")->asDouble() > top_self) {
            top = phase;
            top_self = entry.find("self")->asDouble();
            top_pct = entry.find("self_pct")->asDouble();
        }
    }
    Json doc = base.doc;
    doc["hotspots"]["phases"][top]["self"] = Json(2.0 * top_self);
    doc["hotspots"]["phases"][top]["self_pct"] = Json(2.0 * top_pct);

    const std::vector<GateItem> items =
        checkManifest(base, loaded(doc.dump(2), "skew.json"));
    ASSERT_EQ(items.size(), 1u);
    EXPECT_FALSE(items[0].fail);
    EXPECT_EQ(items[0].metric, "hotspots.phases." + top + ".self_pct");
    EXPECT_EQ(items[0].line().rfind("WARN ", 0), 0u) << items[0].line();
}

TEST(ManifestGate, SurvivesSeededMutations)
{
    // Byte flips and truncations of the committed baseline: each
    // mutant is an error, or a manifest the gate compares against the
    // original to the end.
    std::string original;
    {
        std::ifstream in(std::string(DEE_SOURCE_DIR) +
                             "/tools/baselines/fig5_scale1.json",
                         std::ios::binary);
        original.assign(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>());
    }
    ASSERT_GT(original.size(), 1000u);
    const LoadedManifest &base = fig5Baseline();

    std::mt19937_64 rng(20261017);
    int rejected = 0;
    int accepted = 0;
    for (int m = 0; m < 300; ++m) {
        std::string text = original;
        if (m % 4 == 3) {
            text.resize(rng() % text.size());
        } else {
            const int flips = 1 + static_cast<int>(rng() % 4);
            for (int k = 0; k < flips; ++k)
                text[rng() % text.size()] ^=
                    static_cast<char>(1 + rng() % 255);
        }
        LoadedManifest mutant;
        std::string err;
        if (!parseManifest(text, "mutant.json", &mutant, &err)) {
            EXPECT_FALSE(err.empty()) << "mutant " << m;
            ++rejected;
            continue;
        }
        ++accepted;
        for (const GateItem &item : checkManifest(base, mutant))
            EXPECT_FALSE(item.line().empty()) << "mutant " << m;
    }
    // Both outcomes occur, so neither half of the contract is vacuous.
    EXPECT_GT(rejected, 0);
    EXPECT_GT(accepted, 0);
}

TEST(Session, SurfacesTracerDropCountsInManifest)
{
    Tracer &tracer = Tracer::global();
    tracer.setCapacity(4);
    tracer.enable();
    for (int i = 0; i < 9; ++i)
        tracer.record("tick", 'i', i);
    tracer.disable();

    const std::string path = ::testing::TempDir() + "trace_drops.json";
    {
        dee::obs::SessionOptions options;
        options.jsonPath = path;
        dee::obs::Session session("test_tool", options);
    }
    std::ifstream in(path);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    Json doc;
    ASSERT_TRUE(Json::parse(text, &doc));
    const Json *trace = doc.find("trace");
    ASSERT_NE(trace, nullptr);
    EXPECT_EQ(trace->find("recorded")->asInt(), 9);
    // Ring of 4 wrapped: 5 events silently discarded — the bug this
    // surfacing exists to expose.
    EXPECT_EQ(trace->find("dropped")->asInt(), 5);
    // The section is the counts' one home: no registry copy.
    EXPECT_EQ(doc.find("stats")->find("trace"), nullptr);
    EXPECT_FALSE(Registry::global().contains("trace.recorded"));
}

TEST(Session, DeclaresEightFlags)
{
    // Progress is Heartbeat's stderr line, not a recorded stream: no
    // --telemetry* flag is left.
    dee::Cli cli("test");
    dee::obs::declareFlags(cli);
    std::vector<std::string> names;
    for (const auto &[name, value] : cli.values())
        names.push_back(name);
    EXPECT_EQ(names, (std::vector<std::string>{
                         "json", "trace-out", "stats", "profile",
                         "profile-out", "hotspots", "hotspot-out",
                         "hotspot-interval"}));
}

TEST(SessionDeathTest, TelemetryFlagIsUnknown)
{
    dee::Cli cli("test");
    dee::obs::declareFlags(cli);
    const char *argv[] = {"tool", "--telemetry", "true"};
    EXPECT_EXIT(cli.parse(3, argv), ::testing::ExitedWithCode(1),
                "unknown flag --telemetry");
}

TEST(SessionDeathTest, NonPositiveHotspotIntervalIsFatal)
{
    // A run that asked for hotspots must not go on without them, and
    // must fail before it truncates any output it was asked to write.
    const std::string path = ::testing::TempDir() + "bad_hotspot.json";
    std::ofstream(path) << "keep\n";
    dee::obs::SessionOptions options;
    options.jsonPath = path;
    options.hotspots = true;
    options.hotspotIntervalMs = -5.0;
    EXPECT_EXIT(dee::obs::Session("test_tool", options),
                ::testing::ExitedWithCode(1),
                "--hotspot-interval must be a finite number > 0 ms "
                "\\(got -5\\)");
    options.hotspotIntervalMs = 0.0;
    EXPECT_EXIT(dee::obs::Session("test_tool", options),
                ::testing::ExitedWithCode(1), "\\(got 0\\)");
    // NaN passes a plain "<= 0" test; infinity never ticks.
    options.hotspotIntervalMs = std::nan("");
    EXPECT_EXIT(dee::obs::Session("test_tool", options),
                ::testing::ExitedWithCode(1), "\\(got nan\\)");
    options.hotspotIntervalMs = HUGE_VAL;
    EXPECT_EXIT(dee::obs::Session("test_tool", options),
                ::testing::ExitedWithCode(1), "\\(got inf\\)");

    std::ifstream in(path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "keep");
}

} // namespace
