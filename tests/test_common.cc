/**
 * @file
 * Unit tests for src/common: statistics, RNG, tables, CLI.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>

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

/** A Cli with one integer flag --n parsed from @p value. */
Cli
parsedInt(const char *value)
{
    Cli cli("test");
    cli.flag("n", "0", "an int");
    const char *argv[] = {"prog", "--n", value};
    cli.parse(3, argv);
    return cli;
}

TEST(Cli, IntegerRangeKeepsItsBounds)
{
    EXPECT_EQ(parsedInt("1").integer("n", 1, 4), 1);
    EXPECT_EQ(parsedInt("4").integer("n", 1, 4), 4);
    EXPECT_EQ(parsedInt("-9223372036854775808").integer("n"),
              std::numeric_limits<std::int64_t>::min());
}

TEST(CliDeathTest, IntegerOutsideItsRangeIsFatal)
{
    EXPECT_EXIT(parsedInt("0").integer("n", 1, 4),
                ::testing::ExitedWithCode(1),
                "flag --n must be in \\[1, 4\\], got 0");
    EXPECT_EXIT(parsedInt("-5").integer("n", 0, 4),
                ::testing::ExitedWithCode(1),
                "flag --n must be in \\[0, 4\\], got -5");
    EXPECT_EXIT(parsedInt("4294967297").integer("n", 0, 1024),
                ::testing::ExitedWithCode(1),
                "flag --n must be in \\[0, 1024\\], got 4294967297");
}

TEST(CliDeathTest, IntegerOverflowIsFatal)
{
    // strtoll saturates to LLONG_MAX / LLONG_MIN; neither may pass as
    // a value.
    EXPECT_EXIT(parsedInt("99999999999999999999").integer("n"),
                ::testing::ExitedWithCode(1),
                "flag --n is out of range, got '99999999999999999999'");
    EXPECT_EXIT(parsedInt("-99999999999999999999").integer("n", -1, 1),
                ::testing::ExitedWithCode(1),
                "flag --n is out of range, got '-99999999999999999999'");
    EXPECT_EXIT(parsedInt("12x").integer("n", 0, 100),
                ::testing::ExitedWithCode(1),
                "flag --n expects an integer, got '12x'");
}

} // namespace
} // namespace dee
