/**
 * @file
 * Resumable sweep job engine (ROADMAP item 1).
 *
 * SweepRunner is a one-shot fork-join loop: a crash at shard 9,000 of
 * 10,000 loses everything. JobEngine shards a sweep into independent
 * work items, executes them through the shared sweep path
 * (SweepRunner::parallelFor for the pool, runTask for each shard,
 * failureText for a failed shard's error), and journals one
 * completion record per shard — shard index, shard key, and the
 * result payload — to an append-only checkpoint file (JSON lines,
 * schema "javelin-journal-v1"). A killed run restarts with --resume
 * and re-executes only the shards missing from the journal.
 *
 * Determinism: the per-shard seed is SweepRunner::taskSeed(seed,
 * global shard index), so a shard computes the same result whether it
 * runs in the first attempt, a resume, or a --shard i/N partition.
 * Restored payloads round-trip exactly (precision-17 doubles, raw
 * integer tokens), and the final report orders records by shard
 * index, so a crashed-and-resumed sweep's report is byte-identical to
 * an uninterrupted run at any worker count.
 *
 * Journal robustness: a torn final record (the crash happened
 * mid-write) is truncated away on load; duplicate records for one
 * shard resolve last-write-wins; a journal whose scenario hash does
 * not match the scenario being run is refused outright — never
 * silently merged. Failed shards (simulated OOM or a thrown
 * exception) are journaled too, with their error text, so they
 * surface in the report under their shard key instead of vanishing,
 * and a resume does not pointlessly re-run a deterministic failure.
 *
 * Fault-injection hooks: JAVELIN_JOB_CRASH_AFTER=<n> raises SIGKILL
 * immediately after the n-th record commits (the CI kill-and-resume
 * smoke), and Config::keepGoing lets tests abort in-process at an
 * exact commit count without tearing down the test binary: shards
 * already running still commit, every shard claimed after the abort
 * is skipped.
 */

#ifndef JAVELIN_HARNESS_JOB_ENGINE_HH
#define JAVELIN_HARNESS_JOB_ENGINE_HH

#include "harness/sweep.hh"

namespace javelin {
namespace harness {

/** Journal / checkpoint failure (stale hash, corrupt record, I/O). */
struct JobEngineError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** Metric names serialized per shard, in payload order. */
const std::vector<std::string> &jobMetricNames();

/** One journaled shard completion: identity plus result payload. */
struct ShardRecord
{
    /** Global shard index in the expanded scenario. */
    std::size_t shard = 0;
    /** Stable identity (harness::shardKey of the task). */
    std::string key;
    bool ok = false;
    /** Failure text when !ok (OOM, stack overflow, exception). */
    std::string error;
    /** jobMetricNames() order; empty when !ok. */
    std::vector<double> metrics;
    std::uint64_t gcCollections = 0;
    std::uint64_t bytecodes = 0;
};

/** Outcome of one JobEngine::run invocation. */
struct JobReport
{
    std::string scenarioName;
    std::string scenarioHash;
    /** Shards in the full sweep (not just this partition). */
    std::size_t shardCount = 0;
    /** All known completion records, ordered by shard index. */
    std::vector<ShardRecord> records;

    /** Records restored from the checkpoint (not re-executed). */
    std::size_t restored = 0;
    /** Shards executed by this invocation. */
    std::size_t executed = 0;
    /** True when Config::keepGoing aborted the run mid-sweep. */
    bool aborted = false;

    std::size_t failures() const;
};

/**
 * The engine. One instance runs one sweep; configuration is immutable
 * after construction.
 */
class JobEngine
{
  public:
    struct Config
    {
        /** Journal path; empty disables checkpointing. */
        std::string checkpointPath;
        /**
         * Load an existing journal and re-run only missing shards.
         * Without this flag an existing checkpoint file is an error
         * (protects against clobbering a half-finished run).
         */
        bool resume = false;
        /** Worker threads (0 = auto, SweepRunner policy). */
        unsigned jobs = 0;
        /** Partition: run only shards with index % shardCount == shardIndex. */
        std::size_t shardIndex = 0;
        std::size_t shardCount = 1;
        /** Called (under the commit lock) as (done, partition total). */
        SweepRunner::Progress progress;
        /** Task executor; defaults to runExperiment (tests override). */
        TaskExecutor execute;
        /**
         * In-process kill switch: called after every record commit
         * with the number committed this invocation; returning false
         * stops the sweep as a crash would (no more shards claimed,
         * JobReport::aborted set). Null means always keep going.
         */
        std::function<bool(std::size_t)> keepGoing;
    };

    JobEngine() = default;
    explicit JobEngine(Config config) : config_(std::move(config)) {}

    /**
     * Run the sweep. `tasks` must be the FULL expansion (all shards,
     * every invocation — partitioning and resume select what
     * executes); `scenario_hash` stamps/validates the journal.
     * Throws JobEngineError on checkpoint problems.
     */
    JobReport run(const std::vector<SweepTask> &tasks,
                  const std::string &scenario_name,
                  const std::string &scenario_hash) const;

  private:
    Config config_;
};

/**
 * Serialize a report as versioned JSON (schema "javelin-sweep-v1"),
 * derived purely from the completion records so that a resumed run
 * reproduces an uninterrupted run's bytes exactly.
 */
void writeJobReport(std::ostream &os, const JobReport &report);

} // namespace harness
} // namespace javelin

#endif // JAVELIN_HARNESS_JOB_ENGINE_HH
