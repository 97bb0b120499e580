#include "harness/sweep.hh"

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <thread>

#include "util/parse.hh"

namespace javelin {
namespace harness {

namespace {

/**
 * Drain an atomic work queue: claim indices until none remain, run
 * work(i) for each, then report completion under the progress lock.
 */
void
drainQueue(std::atomic<std::size_t> &next, std::size_t total,
           const std::function<void(std::size_t)> &work,
           std::mutex *progress_mutex, std::size_t *done,
           const SweepRunner::Progress &progress)
{
    for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= total)
            return;
        work(i);
        if (progress) {
            std::lock_guard<std::mutex> lock(*progress_mutex);
            progress(++*done, total);
        }
    }
}

} // namespace

ExperimentResult
runTask(const SweepTask &task, const TaskExecutor &execute)
{
    std::string error;
    try {
        return execute ? execute(task)
                       : runExperiment(task.config, task.profile);
    } catch (const std::exception &e) {
        error = e.what();
    } catch (...) {
        error = "unknown exception";
    }
    ExperimentResult res;
    res.config = task.config;
    res.benchmark = task.profile.name;
    res.failed = true;
    res.failMessage = std::move(error);
    return res;
}

std::string
failureText(const ExperimentResult &res)
{
    if (res.failed)
        return res.failMessage.empty() ? "harness failure"
                                       : res.failMessage;
    if (res.run.outOfMemory)
        return "out of memory";
    if (res.run.stackOverflow)
        return "stack overflow";
    return "";
}

unsigned
SweepRunner::resolveJobs(unsigned requested)
{
    if (requested > 0)
        return requested;
    if (const char *env = std::getenv("JAVELIN_JOBS")) {
        const auto parsed = parseUnsigned<unsigned>(env);
        if (parsed && *parsed > 0)
            return *parsed;
        std::cerr << "javelin: ignoring invalid JAVELIN_JOBS='" << env
                  << "'\n";
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

std::uint64_t
SweepRunner::taskSeed(std::uint64_t base_seed, std::size_t index)
{
    // SplitMix64 finalizer over the (seed, index) pair: distinct,
    // well-mixed streams for every task regardless of the base seed.
    std::uint64_t z = base_seed + 0x9e3779b97f4a7c15ULL *
                                      (static_cast<std::uint64_t>(index) + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::vector<ExperimentResult>
SweepRunner::run(const std::vector<SweepTask> &tasks) const
{
    std::vector<ExperimentResult> results(tasks.size());
    parallelFor(
        tasks.size(),
        [&](std::size_t i) {
            SweepTask task = tasks[i];
            task.config.seed = taskSeed(task.config.seed, i);
            results[i] = runTask(task, config_.execute);
        },
        config_.jobs, config_.progress);
    return results;
}

void
SweepRunner::parallelFor(std::size_t n,
                         const std::function<void(std::size_t)> &fn,
                         unsigned jobs, const Progress &progress)
{
    if (n == 0)
        return;
    jobs = resolveJobs(jobs);
    if (jobs > n)
        jobs = static_cast<unsigned>(n);

    std::atomic<std::size_t> next{0};
    std::mutex progressMutex;
    std::size_t done = 0;
    if (jobs <= 1) {
        // Serial path on the calling thread (JAVELIN_JOBS=1): easier to
        // debug and guaranteed free of thread scheduling entirely.
        drainQueue(next, n, fn, &progressMutex, &done, progress);
        return;
    }

    std::vector<std::thread> workers;
    workers.reserve(jobs);
    for (unsigned t = 0; t < jobs; ++t)
        workers.emplace_back([&] {
            drainQueue(next, n, fn, &progressMutex, &done, progress);
        });
    for (auto &w : workers)
        w.join();
}

SweepRunner::Progress
consoleProgress(std::string label)
{
    return [label = std::move(label)](std::size_t done,
                                      std::size_t total) {
        std::cerr << '\r' << label << ": " << done << '/' << total;
        if (done == total)
            std::cerr << '\n';
    };
}

} // namespace harness
} // namespace javelin
