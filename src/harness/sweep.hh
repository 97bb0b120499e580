/**
 * @file
 * The one sweep execution path: worker pool, task runner and failure
 * text shared by SweepRunner, JobEngine and EnsembleRunner.
 *
 * The paper's headline results are full-factorial sweeps (benchmarks x
 * collectors x heap sizes); every run constructs an independent
 * sim::System, so the sweep is embarrassingly parallel. SweepRunner
 * fans a task list out across a pool of worker threads and returns the
 * results in deterministic input order:
 *
 *  - each task's config seed is re-derived from (config.seed, task
 *    index) with taskSeed(), so noise streams are independent per task
 *    and identical whether the sweep runs serially or in parallel;
 *  - every task runs through runTask(), which turns an escaping
 *    exception into a failed ExperimentResult (failed/failMessage)
 *    instead of aborting the whole sweep;
 *  - an optional progress callback reports completed/total counts for
 *    long runs.
 *
 * parallelFor() is the only place in the harness that starts threads;
 * the job engine and the ensemble runner drive their own index spaces
 * through it. The worker count defaults to
 * std::thread::hardware_concurrency() and can be overridden with
 * Config::jobs or the JAVELIN_JOBS environment variable (JAVELIN_JOBS=1
 * forces serial execution for debugging).
 */

#ifndef JAVELIN_HARNESS_SWEEP_HH
#define JAVELIN_HARNESS_SWEEP_HH

#include <functional>
#include <string>
#include <vector>

#include "harness/experiment.hh"

namespace javelin {
namespace harness {

/** One unit of sweep work: run one benchmark under one configuration. */
struct SweepTask
{
    ExperimentConfig config;
    workloads::BenchmarkProfile profile;
};

/** Task executor: runs one task (runExperiment by default). */
using TaskExecutor = std::function<ExperimentResult(const SweepTask &)>;

/**
 * Run one task through `execute` (runExperiment when null). An
 * exception escaping the executor is caught: the returned result
 * carries the task's config and benchmark with failed = true and
 * failMessage = what() ("unknown exception" for non-std throws), so a
 * failed task can never masquerade as a successful zero-energy run.
 * The caller sets the task's seeds before the call.
 */
ExperimentResult runTask(const SweepTask &task,
                         const TaskExecutor &execute = nullptr);

/**
 * The failure text of a result that is not ok(): the harness failure
 * message ("harness failure" when empty), else "out of memory" or
 * "stack overflow". Empty for a successful run.
 */
std::string failureText(const ExperimentResult &res);

/**
 * Thread-pool sweep engine. Stateless between run() calls; one instance
 * can be reused for several sweeps.
 */
class SweepRunner
{
  public:
    /** Progress callback: (completed tasks, total tasks). */
    using Progress = std::function<void(std::size_t, std::size_t)>;

    struct Config
    {
        /**
         * Worker threads: 0 means auto (the JAVELIN_JOBS environment
         * variable if set, else std::thread::hardware_concurrency()).
         */
        unsigned jobs = 0;
        /** Called (under a lock) after every completed task. */
        Progress progress;
        /**
         * Task executor; defaults to runExperiment. A custom executor
         * supports study-specific rigs and failure-injection tests.
         */
        TaskExecutor execute;
    };

    SweepRunner() = default;
    explicit SweepRunner(Config config) : config_(std::move(config)) {}

    /**
     * Run every task and return results in input order; a task that
     * threw comes back with failed set (see runTask). Results are
     * bit-identical for any worker count: the per-task seed depends
     * only on (task.config.seed, index), and each task simulates a
     * private sim::System.
     */
    std::vector<ExperimentResult>
    run(const std::vector<SweepTask> &tasks) const;

    /**
     * The worker pool: run fn(i) for every i in [0, n), each index
     * claimed exactly once, on resolveJobs(jobs) threads (serially on
     * the calling thread for one job). fn must only touch state
     * private to its index or take its own lock. progress, when set,
     * is called under the pool's lock after every index.
     */
    static void parallelFor(std::size_t n,
                            const std::function<void(std::size_t)> &fn,
                            unsigned jobs = 0,
                            const Progress &progress = nullptr);

    /**
     * Resolve a worker count: requested if nonzero, else JAVELIN_JOBS,
     * else hardware concurrency (at least 1).
     */
    static unsigned resolveJobs(unsigned requested);

    /**
     * Deterministic per-task seed: a SplitMix64-style mix of the base
     * config seed and the task's position in the sweep. Serial loops
     * that must reproduce SweepRunner results apply the same mix.
     */
    static std::uint64_t taskSeed(std::uint64_t base_seed,
                                  std::size_t index);

  private:
    Config config_;
};

/**
 * Progress callback that rewrites a "label: done/total" line on stderr
 * (and finishes the line when the sweep completes).
 */
SweepRunner::Progress consoleProgress(std::string label);

} // namespace harness
} // namespace javelin

#endif // JAVELIN_HARNESS_SWEEP_HH
