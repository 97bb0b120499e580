/**
 * @file
 * Shared declarations of the same-host benchmark (see README.md).
 *
 * The benchmark runs one workload — a fixed list of experiments, the
 * "pass" — repeatedly for a fixed number of host seconds. Untraced
 * passes go through the entry points users call (runExperiment,
 * JobEngine). Traced passes rebuild each experiment from the public
 * pieces of every layer and record host-time spans around the calls
 * into them.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "harness/sweep.hh"

namespace perfbench {

using javelin::harness::ExperimentResult;
using javelin::harness::SweepTask;
constexpr std::size_t kComponents = javelin::core::kNumComponents;

/** Host seconds since process start (steady clock). */
double now();

// ------------------------------------------------------------- inputs

/** One workload: the inputs of one pass and how the pass runs. */
struct Workload
{
    /** The pass: every experiment, in execution order. */
    std::vector<SweepTask> tasks;
    /** Run the pass through harness::JobEngine (else serially). */
    bool sweep = false;
    unsigned workers = 1;
    std::string scenarioName;
    std::string scenarioHash;
};

/**
 * Derive a workload's inputs from the benchmark seed. Builds every
 * program of the pass once and verifies it (the set-up work).
 * `spool_dir` is the trace-spool directory gc_bound tees into.
 */
Workload makeWorkload(const std::string &name, std::uint64_t seed,
                      const std::string &spool_dir);

/** Names makeWorkload() accepts. */
const std::vector<std::string> &workloadNames();

// ------------------------------------------------------------- checks

/** Relative tolerance of the energy-conservation checks. */
constexpr double kEnergyTolerance = 1e-12;

/**
 * Check one simulated result: ok(), DAQ-measured joules against the
 * ground-truth accountant, and per-component attributed joules
 * against the attributed total. Returns "" when every check passes.
 */
std::string checkResult(const ExperimentResult &res);

/**
 * Check a javelin-journal-v1 checkpoint: exactly one record per shard
 * in [0, shards), each ok. Returns "" when it holds.
 */
std::string checkJournal(const std::string &text, std::size_t shards);

/** FNV-1a digests of one result's simulated outputs. */
struct Digest
{
    std::uint64_t counters = 0; ///< PerfCounters, run totals and slices
    std::uint64_t joules = 0;   ///< every joule's bit pattern
    std::uint64_t gc = 0;       ///< collector stats and run result

    std::uint64_t combined() const;
    bool operator==(const Digest &o) const = default;
};

Digest digest(const ExperimentResult &res);

/** Which digest part differs ("" when equal). */
std::string describeMismatch(const Digest &a, const Digest &b);

/**
 * Feed the checks deliberately broken inputs built from a real result
 * and journal: a flipped joule bit, a missing journal record. Returns
 * "" when every check rejects them.
 */
std::string selfTest(const ExperimentResult &res,
                     const std::string &journal, std::size_t shards);

// ------------------------------------------------------------- tracing

/** Closed span: name, host interval, parent span and experiment id. */
struct SpanRecord
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root
    std::uint64_t experiment = 0;
    const char *name = "";
    double start = 0.0;
    double end = 0.0;
};

/** In-memory span store; written out when the run ends. */
class Tracer
{
  public:
    std::uint64_t nextId() { return ++lastId_; }
    void record(const SpanRecord &span);
    std::vector<SpanRecord> spans() const;

  private:
    std::atomic<std::uint64_t> lastId_{0};
    mutable std::mutex mutex_;
    std::vector<SpanRecord> spans_;
};

/** A span open from construction until close(). */
class Span
{
  public:
    Span(Tracer &tracer, const char *name, std::uint64_t parent,
         std::uint64_t experiment);
    /** Close and record; returns the duration in seconds. */
    double close();
    std::uint64_t id() const { return rec_.id; }

  private:
    Tracer &tracer_;
    SpanRecord rec_;
};

/** Host-time split of one traced experiment, by layer. */
struct LayerTimes
{
    double wall = 0.0;     ///< experiment span
    double build = 0.0;    ///< workloads::buildProgram
    double assembly = 0.0; ///< System, Jvm, DAQ, HPM, accountant
    double run = 0.0;      ///< Jvm::run / TenantSet::run
    double finish = 0.0;   ///< accountant, DAQ/HPM stop, attribute
    /** Host seconds per component, split at component-port switches. */
    std::array<double, kComponents> component{};
    std::uint64_t programOps = 0;
    std::uint64_t portWrites = 0;
    std::uint64_t portSwitches = 0;
    std::uint64_t daqSamples = 0;
    std::uint64_t hpmSamples = 0;
    std::uint64_t spoolBytes = 0;

    /** Experiment time no child span covers: harness overhead. */
    double uncovered() const { return wall - build - assembly - run - finish; }

    LayerTimes &operator+=(const LayerTimes &o);
};

struct TracedResult
{
    ExperimentResult result;
    LayerTimes layers;
};

/**
 * Rebuild one experiment from the public pieces of each layer, as
 * harness::runExperiment assembles it, with spans around every call.
 */
TracedResult runTraced(const SweepTask &task, Tracer &tracer,
                       std::uint64_t experiment);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
