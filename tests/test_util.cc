/**
 * @file
 * Unit tests for the util library: deterministic RNG, statistics
 * accumulators, and the table builder.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "util/bootstrap.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/stats.hh"
#include "util/table.hh"

using namespace javelin;

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformIntRespectsBound)
{
    Rng rng(9);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.uniformInt(17), 17u);
}

TEST(Rng, UniformIntCoversRange)
{
    Rng rng(11);
    std::vector<int> seen(8, 0);
    for (int i = 0; i < 8000; ++i)
        ++seen[rng.uniformInt(8)];
    for (int count : seen)
        EXPECT_GT(count, 700); // each bucket near 1000
}

TEST(Rng, BernoulliEdgeCases)
{
    Rng rng(17);
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(19);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(5.0);
    EXPECT_NEAR(sum / n, 5.0, 0.25);
}

TEST(Rng, NormalMoments)
{
    Rng rng(23);
    RunningStat s;
    for (int i = 0; i < 20000; ++i)
        s.add(rng.normal(10.0, 2.0));
    EXPECT_NEAR(s.mean(), 10.0, 0.1);
    EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(RunningStat, Basics)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    s.add(1.0);
    s.add(2.0);
    s.add(3.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 3.0);
    EXPECT_DOUBLE_EQ(s.variance(), 1.0);
    EXPECT_DOUBLE_EQ(s.sum(), 6.0);
}

TEST(RunningStat, EmptyExtremaAreNaN)
{
    RunningStat s;
    EXPECT_TRUE(std::isnan(s.min()));
    EXPECT_TRUE(std::isnan(s.max()));
    s.add(4.0);
    EXPECT_DOUBLE_EQ(s.min(), 4.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    s.reset();
    EXPECT_TRUE(std::isnan(s.min()));
    EXPECT_TRUE(std::isnan(s.max()));
}

TEST(Bootstrap, QuantileInterpolates)
{
    const std::vector<double> xs = {4.0, 1.0, 3.0, 2.0};
    EXPECT_DOUBLE_EQ(quantileOf(xs, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(quantileOf(xs, 1.0), 4.0);
    EXPECT_DOUBLE_EQ(quantileOf(xs, 0.5), 2.5);
}

TEST(Bootstrap, DegenerateSamples)
{
    EXPECT_DOUBLE_EQ(meanOf({}), 0.0);
    const BootstrapCi one = bootstrapMeanCi({3.5}, 100, 0.95, 1);
    EXPECT_DOUBLE_EQ(one.point, 3.5);
    EXPECT_DOUBLE_EQ(one.lo, 3.5);
    EXPECT_DOUBLE_EQ(one.hi, 3.5);
}

TEST(Bootstrap, DeterministicPerSeed)
{
    const std::vector<double> xs = {1.0, 2.5, 2.0, 4.0, 3.5,
                                    0.5, 2.2, 3.1};
    const BootstrapCi a = bootstrapMeanCi(xs, 1000, 0.95, 77);
    const BootstrapCi b = bootstrapMeanCi(xs, 1000, 0.95, 77);
    EXPECT_DOUBLE_EQ(a.lo, b.lo);
    EXPECT_DOUBLE_EQ(a.hi, b.hi);
    EXPECT_LE(a.lo, a.point);
    EXPECT_LE(a.point, a.hi);
}

TEST(Bootstrap, CoverageNearNominal)
{
    // Frequentist check of the percentile method: across many
    // synthetic ensembles from a known normal, the 95% CI must contain
    // the true mean at close to the nominal rate. Small-sample
    // percentile bootstrap undercovers slightly, so accept [85%, 99%].
    const double trueMean = 3.0;
    int covered = 0;
    const int reps = 200;
    for (int rep = 0; rep < reps; ++rep) {
        Rng rng(1000 + static_cast<std::uint64_t>(rep));
        std::vector<double> xs(30);
        for (double &x : xs)
            x = rng.normal(trueMean, 1.0);
        const BootstrapCi ci = bootstrapMeanCi(
            xs, 400, 0.95, static_cast<std::uint64_t>(rep));
        covered += (ci.lo <= trueMean && trueMean <= ci.hi);
    }
    EXPECT_GE(covered, 170);
    EXPECT_LE(covered, 199);
}

TEST(Bootstrap, MannWhitneyVerdicts)
{
    const std::vector<double> same = {1.0, 2.0, 3.0, 4.0,
                                      5.0, 6.0, 7.0, 8.0};
    EXPECT_DOUBLE_EQ(mannWhitneyP(same, same), 1.0);
    EXPECT_DOUBLE_EQ(mannWhitneyP({}, same), 1.0);

    std::vector<double> shifted = same;
    for (double &x : shifted)
        x += 100.0;
    EXPECT_LT(mannWhitneyP(same, shifted), 0.01);
    EXPECT_DOUBLE_EQ(mannWhitneyP(same, shifted),
                     mannWhitneyP(shifted, same));
}

TEST(Table, BuildAndFormat)
{
    Table t({"name", "value"});
    t.beginRow();
    t.cell("alpha").cell(static_cast<std::int64_t>(42));
    t.beginRow();
    t.cell("beta").cell(2.5, 1);
    EXPECT_EQ(t.rows(), 2u);
    EXPECT_EQ(t.at(0, 0), "alpha");
    EXPECT_EQ(t.at(0, 1), "42");
    EXPECT_EQ(t.at(1, 1), "2.5");

    std::ostringstream os;
    t.print(os);
    EXPECT_NE(os.str().find("alpha"), std::string::npos);
}

TEST(Table, PercentCell)
{
    Table t({"p"});
    t.beginRow();
    t.cellPct(0.1234, 1);
    EXPECT_EQ(t.at(0, 0), "12.3%");
}

TEST(LoggingDeath, PanicAborts)
{
    EXPECT_DEATH(JAVELIN_PANIC("boom ", 42), "boom 42");
}

TEST(LoggingDeath, AssertAborts)
{
    EXPECT_DEATH(JAVELIN_ASSERT(1 == 2, "math broke"), "math broke");
}

TEST(LoggingDeath, FatalExits)
{
    EXPECT_EXIT(JAVELIN_FATAL("bad config"),
                testing::ExitedWithCode(1), "bad config");
}
