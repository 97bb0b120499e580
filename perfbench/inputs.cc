/**
 * @file
 * Workload inputs, derived from the benchmark seed alone.
 *
 * Profile seeds come from a pool that was checked to run without
 * running out of memory or overflowing the stack under every
 * configuration below; the benchmark seed picks from the pool, the
 * heap sizes and the ExperimentConfig seeds.
 */

#include <stdexcept>
#include <utility>

#include "bench.hh"
#include "harness/scenario.hh"
#include "workloads/program_builder.hh"
#include "workloads/suite.hh"

namespace perfbench {

using namespace javelin;
using harness::ExperimentConfig;

namespace {

constexpr std::uint64_t kProfileSeedPool = 6; // profile seeds 1..6

/** Deterministic stream of 64-bit draws from the benchmark seed. */
class Draws
{
  public:
    explicit Draws(std::uint64_t seed) : seed_(seed) {}
    std::uint64_t next()
    {
        return harness::SweepRunner::taskSeed(seed_, index_++);
    }
    std::uint64_t below(std::uint64_t n) { return next() % n; }
    std::uint64_t profileSeed() { return 1 + below(kProfileSeedPool); }

  private:
    std::uint64_t seed_;
    std::size_t index_ = 0;
};

SweepTask
task(const ExperimentConfig &config, const std::string &bench,
     std::uint64_t profile_seed)
{
    SweepTask t{config, workloads::benchmark(bench)};
    t.profile.seed = profile_seed;
    return t;
}

/**
 * Jikes / P6 / GenMS, Full dataset, compute-dense profiles. Each
 * benchmark runs once at a seeded heap in 64-96 MB and once at 128 MB,
 * so every pass has the same shape and the same largest heap.
 */
Workload
mutator(Draws &d)
{
    Workload w;
    ExperimentConfig base;
    base.collector = jvm::CollectorKind::GenMS;
    for (const char *bench : {"_201_compress", "_222_mpegaudio", "moldyn"})
        for (bool large : {false, true}) {
            ExperimentConfig cfg = base;
            cfg.heapNominalMB =
                large ? 128
                      : 64 + 16 * static_cast<std::uint32_t>(d.below(3));
            cfg.seed = d.next();
            w.tasks.push_back(task(cfg, bench, d.profileSeed()));
        }
    return w;
}

/**
 * Jikes / P6 / SemiSpace at 32 MB, Full dataset: three pmd runs (three
 * distinct profile seeds) plus _213_javac and euler, each tee-spooling
 * its power and perf traces.
 */
Workload
gcBound(Draws &d, const std::string &spool_dir)
{
    Workload w;
    ExperimentConfig base;
    base.collector = jvm::CollectorKind::SemiSpace;
    base.heapNominalMB = 32;
    base.traceSpoolDir = spool_dir;
    // Three distinct pmd profile seeds: a seeded shuffle of the pool.
    std::uint64_t pool[kProfileSeedPool];
    for (std::uint64_t i = 0; i < kProfileSeedPool; ++i)
        pool[i] = i + 1;
    for (std::uint64_t i = kProfileSeedPool - 1; i > 0; --i)
        std::swap(pool[i], pool[d.below(i + 1)]);

    const std::pair<const char *, std::uint64_t> order[] = {
        {"pmd", pool[0]},   {"_213_javac", d.profileSeed()},
        {"pmd", pool[1]},   {"euler", d.profileSeed()},
        {"pmd", pool[2]},
    };
    for (const auto &[bench, profileSeed] : order) {
        ExperimentConfig cfg = base;
        cfg.seed = d.next();
        w.tasks.push_back(task(cfg, bench, profileSeed));
    }
    return w;
}

/**
 * The Fig. 11 matrix (Kaffe / PXA255 / IncMS, -s10 Small, the five
 * embedded benchmarks x the 12-32 MB heap ladder) over four seeds,
 * then 2-tenant co-tenancy cells (under a tenth of all cells), as one
 * JobEngine sweep on two workers.
 */
Workload
embeddedSweep(Draws &d)
{
    harness::Scenario fig11;
    fig11.name = "perfbench-fig11";
    fig11.base.platform = sim::PlatformKind::Pxa255;
    fig11.base.vm = jvm::VmKind::Kaffe;
    fig11.base.collector = jvm::CollectorKind::IncrementalMS;
    fig11.base.dataset = workloads::DatasetScale::Small;
    for (const auto &p : workloads::embeddedBenchmarks())
        fig11.benchmarks.push_back(p.name);
    fig11.heapsMB.assign(harness::kPxaHeapsMB.begin(),
                         harness::kPxaHeapsMB.end());
    for (int i = 0; i < 4; ++i)
        fig11.seeds.push_back(d.next());

    harness::Scenario tenants = fig11;
    tenants.name = "perfbench-cotenancy";
    tenants.base.tenants = 2;
    tenants.base.requestsPerTenant = 4;
    tenants.benchmarks = {"_213_javac", "_228_jack"};
    tenants.heapsMB = {16, 24, 32};
    tenants.seeds = {fig11.seeds[0], fig11.seeds[1]};

    Workload w;
    w.sweep = true;
    w.workers = 2;
    w.tasks = harness::expandScenario(fig11);
    for (auto &t : harness::expandScenario(tenants))
        w.tasks.push_back(std::move(t));
    for (auto &t : w.tasks)
        t.profile.seed = d.profileSeed();
    w.scenarioName = "perfbench-embedded";
    w.scenarioHash = harness::scenarioHash(fig11) + "+" +
                     harness::scenarioHash(tenants);
    return w;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"mutator", "gc_bound",
                                                   "embedded_sweep"};
    return names;
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed,
             const std::string &spool_dir)
{
    Draws d(seed);
    Workload w;
    if (name == "mutator")
        w = mutator(d);
    else if (name == "gc_bound")
        w = gcBound(d, spool_dir);
    else if (name == "embedded_sweep")
        w = embeddedSweep(d);
    else
        throw std::invalid_argument("unknown workload " + name);

    // Build and verify every program of the pass once, as the
    // harness will (co-tenancy cells build request-sized programs per
    // tenant; their untenanted build stands in for the check).
    for (const auto &t : w.tasks) {
        workloads::StudyScale scale =
            workloads::studyScaleFor(t.config.dataset);
        scale.volume = t.config.heapScale;
        const jvm::Program program =
            workloads::buildProgram(t.profile, scale);
        const auto problems = program.verify();
        if (!problems.empty())
            throw std::runtime_error("generated program " + program.name +
                                     " fails verification: " +
                                     problems.front());
    }
    return w;
}

} // namespace perfbench
