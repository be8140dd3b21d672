/**
 * @file
 * Unit tests for src/common: statistics, RNG, tables, bit matrix, CLI.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/bit_matrix.hh"
#include "common/cli.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/table.hh"

namespace dee
{
namespace
{

TEST(RunningStat, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStat, MeanMinMax)
{
    RunningStat s;
    for (double x : {3.0, 1.0, 2.0})
        s.add(x);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 3.0);
    EXPECT_DOUBLE_EQ(s.sum(), 6.0);
}

TEST(RunningStat, VarianceMatchesClosedForm)
{
    RunningStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_NEAR(s.variance(), 4.0, 1e-12);
    EXPECT_NEAR(s.stddev(), 2.0, 1e-12);
}

TEST(Means, PythagoreanOrdering)
{
    const std::vector<double> xs{2.0, 8.0};
    EXPECT_DOUBLE_EQ(arithmeticMean(xs), 5.0);
    EXPECT_DOUBLE_EQ(geometricMean(xs), 4.0);
    EXPECT_DOUBLE_EQ(harmonicMean(xs), 3.2);
}

TEST(Means, HarmonicOfEqualValuesIsValue)
{
    const std::vector<double> xs{7.5, 7.5, 7.5};
    EXPECT_DOUBLE_EQ(harmonicMean(xs), 7.5);
}

TEST(Means, ArithmeticOfEmptyIsZero)
{
    EXPECT_DOUBLE_EQ(arithmeticMean({}), 0.0);
}

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h(0.0, 10.0, 5);
    h.add(-1.0);
    h.add(0.0);
    h.add(3.9);
    h.add(9.99);
    h.add(10.0);
    h.add(25.0);
    EXPECT_EQ(h.total(), 6u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(4), 1u);
    EXPECT_DOUBLE_EQ(h.fraction(0), 1.0 / 6.0);
}

TEST(Histogram, WeightedAddMatchesRepeatedAdd)
{
    Histogram a(0.0, 10.0, 5);
    Histogram b(0.0, 10.0, 5);
    for (int i = 0; i < 7; ++i)
        a.add(3.0);
    b.add(3.0, 7);
    b.add(5.0, 0); // zero weight is a no-op
    EXPECT_EQ(a.total(), b.total());
    for (std::size_t i = 0; i < a.numBuckets(); ++i)
        EXPECT_EQ(a.bucketCount(i), b.bucketCount(i));
}

TEST(Histogram, PercentileEmptyIsNaNSentinel)
{
    const Histogram empty(0.0, 10.0, 5);
    EXPECT_TRUE(std::isnan(empty.percentile(0.5)));
    EXPECT_TRUE(std::isnan(empty.percentile(0.0)));
    EXPECT_TRUE(std::isnan(empty.percentile(1.0)));
}

TEST(Histogram, PercentileSingleBucketStaysInRange)
{
    // All mass in the one (and only) bucket: every percentile must
    // interpolate inside [lo, hi], never index past the bucket array.
    Histogram h(0.0, 4.0, 1);
    h.add(1.0, 10);
    for (const double p : {0.0, 0.25, 0.5, 0.9, 1.0}) {
        const double v = h.percentile(p);
        EXPECT_GE(v, 0.0) << "p=" << p;
        EXPECT_LE(v, 4.0) << "p=" << p;
    }
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 2.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 4.0);
}

TEST(Histogram, PercentileInterpolatesAndClampsTails)
{
    Histogram h(0.0, 10.0, 5);
    h.add(1.0, 50);  // bucket [0,2)
    h.add(9.0, 50);  // bucket [8,10)
    EXPECT_DOUBLE_EQ(h.percentile(0.25), 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.75), 9.0);

    // Underflow mass reports lo; overflow mass reports hi.
    Histogram tails(0.0, 10.0, 5);
    tails.add(-5.0, 10);
    tails.add(50.0, 10);
    EXPECT_DOUBLE_EQ(tails.percentile(0.1), 0.0);
    EXPECT_DOUBLE_EQ(tails.percentile(0.99), 10.0);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a() == b()) ? 1 : 0;
    EXPECT_LT(same, 4);
}

TEST(Rng, BelowInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(13), 13u);
}

TEST(Rng, BelowCoversAllResidues)
{
    Rng rng(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(rng.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(3);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceFrequency)
{
    Rng rng(5);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, GeometricMeanApproximatelyRight)
{
    Rng rng(9);
    double sum = 0.0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i)
        sum += static_cast<double>(rng.geometric(5.0));
    EXPECT_NEAR(sum / trials, 5.0, 0.25);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(13);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 500; ++i) {
        const auto v = rng.range(-2, 2);
        ASSERT_GE(v, -2);
        ASSERT_LE(v, 2);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, ForkIndependent)
{
    Rng a(42);
    Rng b = a.fork();
    EXPECT_NE(a(), b());
}

TEST(Table, RendersAlignedColumns)
{
    Table t({"model", "speedup"});
    t.addRow({"SP", "5.50"});
    t.addRow({"DEE-CD-MF", "31.90"});
    const std::string out = t.render();
    EXPECT_NE(out.find("model"), std::string::npos);
    EXPECT_NE(out.find("DEE-CD-MF"), std::string::npos);
    EXPECT_NE(out.find("31.90"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(Table, FmtPrecision)
{
    EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
    EXPECT_EQ(Table::fmt(2.0, 0), "2");
}

TEST(BitMatrix, SetClearPopcount)
{
    BitMatrix bm(4, 3);
    EXPECT_EQ(bm.popcount(), 0u);
    bm.set(0, 0);
    bm.set(3, 2);
    bm.set(1, 1);
    EXPECT_TRUE(bm.get(0, 0));
    EXPECT_TRUE(bm.get(3, 2));
    EXPECT_EQ(bm.popcount(), 3u);
    bm.clear(0, 0);
    EXPECT_FALSE(bm.get(0, 0));
    EXPECT_EQ(bm.popcount(), 2u);
}

TEST(BitMatrix, ClearColumnAndRow)
{
    BitMatrix bm(3, 3);
    for (std::size_t r = 0; r < 3; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            bm.set(r, c);
    bm.clearColumn(1);
    EXPECT_EQ(bm.popcount(), 6u);
    bm.clearRow(0);
    EXPECT_EQ(bm.popcount(), 4u);
    bm.reset();
    EXPECT_EQ(bm.popcount(), 0u);
}

TEST(Cli, ParsesFlagsBothForms)
{
    Cli cli("test");
    cli.flag("alpha", "1", "an int");
    cli.flag("beta", "x", "a string");
    cli.flag("gamma", "0.5", "a real");
    cli.flag("delta", "false", "a bool");
    const char *argv[] = {"prog", "--alpha", "42", "--beta=hello",
                          "--gamma", "2.25", "--delta=true"};
    cli.parse(7, argv);
    EXPECT_EQ(cli.integer("alpha"), 42);
    EXPECT_EQ(cli.str("beta"), "hello");
    EXPECT_DOUBLE_EQ(cli.real("gamma"), 2.25);
    EXPECT_TRUE(cli.boolean("delta"));
}

TEST(Cli, BareBooleanFlagsReadAsTrue)
{
    // Bare before another flag, and bare as the last argument: the
    // boolean must not swallow "--out" as its value.
    Cli cli("test");
    cli.flag("hotspots", "false", "a bool");
    cli.flag("out", "", "a path");
    cli.flag("profile", "false", "a bool");
    const char *bare[] = {"prog", "--hotspots", "--out", "f.folded",
                          "--profile"};
    cli.parse(5, bare);
    EXPECT_TRUE(cli.boolean("hotspots"));
    EXPECT_EQ(cli.str("out"), "f.folded");
    EXPECT_TRUE(cli.boolean("profile"));

    // The valued spellings still parse, an explicit false included.
    Cli valued("test");
    valued.flag("hotspots", "true", "a bool");
    valued.flag("profile", "false", "a bool");
    const char *spelled[] = {"prog", "--hotspots", "false",
                             "--profile=true"};
    valued.parse(4, spelled);
    EXPECT_FALSE(valued.boolean("hotspots"));
    EXPECT_TRUE(valued.boolean("profile"));
}

TEST(Cli, DefaultsSurviveParse)
{
    Cli cli("test");
    cli.flag("x", "7", "");
    const char *argv[] = {"prog"};
    cli.parse(1, argv);
    EXPECT_EQ(cli.integer("x"), 7);
}

} // namespace
} // namespace dee
