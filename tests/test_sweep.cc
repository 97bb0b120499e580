/**
 * @file
 * Tests for the parallel sweep engine: results must be bit-identical
 * to a serial run for any worker count, per-task seeds deterministic,
 * failures isolated per task, and every index visited exactly once.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <stdexcept>

#include "harness/sweep.hh"

using namespace javelin;
using namespace javelin::harness;

namespace {

std::vector<SweepTask>
smallSweep()
{
    // A mixed sweep: two benchmarks, two heaps, one noisy config so
    // the per-task RNG seeding matters.
    std::vector<SweepTask> tasks;
    for (const char *name : {"_202_jess", "_209_db"}) {
        for (const std::uint32_t heap : {32u, 64u}) {
            ExperimentConfig cfg;
            cfg.dataset = workloads::DatasetScale::Small;
            cfg.heapNominalMB = heap;
            cfg.senseNoiseVoltsRms = heap == 64 ? 0.0005 : 0.0;
            tasks.push_back({cfg, workloads::benchmark(name)});
        }
    }
    return tasks;
}

void
expectIdentical(const std::vector<ExperimentResult> &a,
                const std::vector<ExperimentResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_FALSE(a[i].failed);
        EXPECT_FALSE(b[i].failed);
        EXPECT_EQ(a[i].run.endTick, b[i].run.endTick);
        EXPECT_EQ(a[i].run.returnValue, b[i].run.returnValue);
        EXPECT_EQ(a[i].run.gc.collections, b[i].run.gc.collections);
        EXPECT_DOUBLE_EQ(a[i].attribution.totalCpuJoules,
                         b[i].attribution.totalCpuJoules);
        EXPECT_DOUBLE_EQ(a[i].attribution.totalMemJoules,
                         b[i].attribution.totalMemJoules);
        EXPECT_DOUBLE_EQ(a[i].groundTruthCpuJoules,
                         b[i].groundTruthCpuJoules);
    }
}

} // namespace

TEST(SweepRunner, ParallelResultsIdenticalToSerial)
{
    const auto tasks = smallSweep();
    SweepRunner::Config serial;
    serial.jobs = 1;
    SweepRunner::Config parallel;
    parallel.jobs = 4;
    const auto a = SweepRunner(serial).run(tasks);
    const auto b = SweepRunner(parallel).run(tasks);
    expectIdentical(a, b);
}

TEST(SweepRunner, MatchesHandWrittenSerialLoop)
{
    const auto tasks = smallSweep();
    std::vector<ExperimentResult> byHand(tasks.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        auto task = tasks[i];
        task.config.seed =
            SweepRunner::taskSeed(task.config.seed, i);
        byHand[i] = runExperiment(task.config, task.profile);
    }
    SweepRunner::Config cfg;
    cfg.jobs = 4;
    const auto pooled = SweepRunner(cfg).run(tasks);
    expectIdentical(byHand, pooled);
}

TEST(SweepRunner, TaskSeedDeterministicAndDistinct)
{
    std::set<std::uint64_t> seen;
    for (std::size_t i = 0; i < 100; ++i) {
        const auto s = SweepRunner::taskSeed(7, i);
        EXPECT_EQ(s, SweepRunner::taskSeed(7, i));
        seen.insert(s);
    }
    seen.insert(SweepRunner::taskSeed(8, 0));
    EXPECT_EQ(seen.size(), 101u);
}

TEST(SweepRunner, ExceptionCapturedPerTask)
{
    std::vector<SweepTask> tasks(3);
    for (std::uint32_t i = 0; i < 3; ++i)
        tasks[i].config.heapNominalMB = i;

    SweepRunner::Config cfg;
    cfg.jobs = 2;
    cfg.execute = [](const SweepTask &task) {
        if (task.config.heapNominalMB == 1)
            throw std::runtime_error("injected failure");
        ExperimentResult res;
        res.config = task.config;
        res.run.returnValue = task.config.heapNominalMB;
        return res;
    };
    const auto results = SweepRunner(cfg).run(tasks);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_FALSE(results[0].failed);
    EXPECT_TRUE(results[1].failed);
    EXPECT_EQ(results[1].failMessage, "injected failure");
    EXPECT_FALSE(results[2].failed);
    EXPECT_EQ(results[0].run.returnValue, 0u);
    EXPECT_EQ(results[2].run.returnValue, 2u);
    // The failed slot is stamped with the task it belongs to.
    EXPECT_EQ(results[1].config.heapNominalMB, 1u);
    EXPECT_EQ(results[1].config.seed,
              SweepRunner::taskSeed(tasks[1].config.seed, 1));
    EXPECT_FALSE(results[1].ok());
}

TEST(SweepRunner, ProgressReportsEveryCompletion)
{
    std::vector<SweepTask> tasks(5);
    std::vector<std::pair<std::size_t, std::size_t>> calls;
    SweepRunner::Config cfg;
    cfg.jobs = 3;
    cfg.execute = [](const SweepTask &) { return ExperimentResult(); };
    // The runner invokes progress under its own lock.
    cfg.progress = [&](std::size_t done, std::size_t total) {
        calls.emplace_back(done, total);
    };
    SweepRunner(cfg).run(tasks);
    ASSERT_EQ(calls.size(), 5u);
    for (std::size_t i = 0; i < calls.size(); ++i) {
        EXPECT_EQ(calls[i].first, i + 1);
        EXPECT_EQ(calls[i].second, 5u);
    }
}

TEST(SweepRunner, ParallelForCoversEachIndexOnce)
{
    std::vector<int> hits(97, 0);
    SweepRunner::parallelFor(
        hits.size(), [&](std::size_t i) { ++hits[i]; }, 4);
    for (const int h : hits)
        EXPECT_EQ(h, 1);
}

TEST(SweepRunner, ResolveJobsHonorsEnvironment)
{
    EXPECT_EQ(SweepRunner::resolveJobs(5), 5u);
    ::setenv("JAVELIN_JOBS", "3", 1);
    EXPECT_EQ(SweepRunner::resolveJobs(0), 3u);
    ::setenv("JAVELIN_JOBS", "not-a-number", 1);
    EXPECT_GE(SweepRunner::resolveJobs(0), 1u);
    ::unsetenv("JAVELIN_JOBS");
    EXPECT_GE(SweepRunner::resolveJobs(0), 1u);
}
