#include "harness/ensemble.hh"

#include <cmath>
#include <ostream>
#include <sstream>

#include "jvm/gc/collector.hh"
#include "jvm/jvm.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace javelin {
namespace harness {

std::vector<double>
ensembleMetrics(const ExperimentResult &res)
{
    const double seconds = res.run.seconds();
    const double throughput =
        seconds > 0.0
            ? static_cast<double>(res.run.bytecodesExecuted) / seconds
            : 0.0;
    return {
        res.attribution.totalJoules(),
        res.attribution.totalCpuJoules,
        res.attribution.totalMemJoules,
        res.edp(),
        seconds,
        throughput,
        res.attribution.powerOf(core::ComponentId::Gc).cpuJoules,
        res.attribution.powerOf(core::ComponentId::App).cpuJoules,
        // Model-exact total (switch-boundary integration): unlike the
        // attributed total it carries no DAQ-sampling error and no
        // final-partial-window truncation, which on short simulated
        // runs can jitter the attributed total by a few tenths of a
        // percent between otherwise identical trajectories. Effect
        // studies (e.g. the sampler-overhead ablation) difference this
        // metric; the gate keeps reading the attributed energies the
        // paper's rig would report.
        res.groundTruthCpuJoules + res.groundTruthMemJoules,
    };
}

namespace {

/** FNV-1a, so bootstrap streams are stable across standard libraries. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace

const std::vector<std::string> &
ensembleMetricNames()
{
    static const std::vector<std::string> names = {
        "total_joules",  "cpu_joules",     "mem_joules",
        "edp_js",        "seconds",        "bytecodes_per_sec",
        "gc_cpu_joules", "app_cpu_joules", "gt_total_joules",
    };
    return names;
}

const MetricSummary *
EnsembleCellResult::metric(const std::string &name) const
{
    for (const auto &m : metrics)
        if (m.name == name)
            return &m;
    return nullptr;
}

std::uint64_t
EnsembleRunner::memberProfileSeed(std::uint64_t profile_seed,
                                  std::uint64_t ensemble_seed)
{
    // Same SplitMix64-style mix the sweep engine uses, keyed by the
    // ensemble seed *value* so the executed stream is independent of
    // both the cell's and the seed's position in their lists.
    return SweepRunner::taskSeed(profile_seed,
                                 static_cast<std::size_t>(ensemble_seed));
}

std::vector<EnsembleCellResult>
EnsembleRunner::run(const std::vector<SweepTask> &cells) const
{
    JAVELIN_ASSERT(!config_.seeds.empty(),
                   "ensemble needs at least one seed");
    const std::size_t nSeeds = config_.seeds.size();
    const std::size_t total = cells.size() * nSeeds;

    struct MemberOutcome
    {
        std::vector<double> metrics;
        bool ok = false;
        std::string error;
    };
    std::vector<MemberOutcome> members(total);

    SweepRunner::parallelFor(
        total,
        [&](std::size_t flat) {
            const std::size_t cellIdx = flat / nSeeds;
            const std::size_t seedIdx = flat % nSeeds;
            const std::uint64_t ensembleSeed = config_.seeds[seedIdx];

            SweepTask task = cells[cellIdx];
            task.profile.seed =
                memberProfileSeed(task.profile.seed, ensembleSeed);
            task.config.seed = ensembleSeed;
            if (config_.senseNoiseVoltsRms > 0.0)
                task.config.senseNoiseVoltsRms =
                    config_.senseNoiseVoltsRms;

            const ExperimentResult res = runTask(task);
            auto &slot = members[flat];
            slot.ok = res.ok();
            if (slot.ok)
                slot.metrics = ensembleMetrics(res);
            else
                slot.error = failureText(res);
        },
        config_.jobs, config_.progress);

    const auto &names = ensembleMetricNames();
    std::vector<EnsembleCellResult> results(cells.size());
    for (std::size_t c = 0; c < cells.size(); ++c) {
        auto &cell = results[c];
        cell.cell = cells[c];
        std::ostringstream key;
        key << cells[c].profile.name << '/'
            << jvm::vmKindName(cells[c].config.vm) << '/'
            << jvm::collectorName(cells[c].config.collector) << '/'
            << cells[c].config.heapNominalMB << "MB/"
            << sim::platformKindName(cells[c].config.platform);
        cell.key = key.str();

        cell.metrics.resize(names.size());
        for (std::size_t m = 0; m < names.size(); ++m)
            cell.metrics[m].name = names[m];
        for (std::size_t s = 0; s < nSeeds; ++s) {
            const auto &member = members[c * nSeeds + s];
            if (!member.ok) {
                ++cell.failures;
                if (cell.firstError.empty())
                    cell.firstError = member.error;
                continue;
            }
            for (std::size_t m = 0; m < names.size(); ++m)
                cell.metrics[m].samples.push_back(member.metrics[m]);
        }
        for (std::size_t m = 0; m < names.size(); ++m) {
            auto &metric = cell.metrics[m];
            // Distinct bootstrap stream per (cell, metric): mix the
            // configured seed with stable identifiers, not positions.
            const std::uint64_t seed = SweepRunner::taskSeed(
                config_.bootstrapSeed ^ fnv1a(cell.key), m);
            metric.ci = bootstrapMeanCi(metric.samples,
                                        config_.resamples,
                                        config_.confidence, seed);
        }
    }
    return results;
}

void
writeEnsembleReport(std::ostream &os,
                    const std::vector<EnsembleCellResult> &cells,
                    const EnsembleConfig &config)
{
    os << "{\n";
    os << "  \"schema\": \"javelin-ensemble-v1\",\n";
    os << "  \"seeds\": [";
    for (std::size_t i = 0; i < config.seeds.size(); ++i)
        os << (i ? ", " : "") << config.seeds[i];
    os << "],\n";
    os << "  \"confidence\": ";
    json::writeNumber(os, config.confidence);
    os << ",\n  \"resamples\": " << config.resamples << ",\n";
    os << "  \"sense_noise_volts_rms\": ";
    json::writeNumber(os, config.senseNoiseVoltsRms);
    os << ",\n  \"cells\": [\n";
    for (std::size_t c = 0; c < cells.size(); ++c) {
        const auto &cell = cells[c];
        os << "    {\n      \"key\": ";
        json::writeString(os, cell.key);
        os << ",\n      \"benchmark\": ";
        json::writeString(os, cell.cell.profile.name);
        os << ",\n      \"collector\": ";
        json::writeString(os,
                        jvm::collectorName(cell.cell.config.collector));
        os << ",\n      \"vm\": ";
        json::writeString(os, jvm::vmKindName(cell.cell.config.vm));
        os << ",\n      \"heap_mb\": " << cell.cell.config.heapNominalMB;
        os << ",\n      \"platform\": ";
        json::writeString(os, sim::platformKindName(cell.cell.config.platform));
        os << ",\n      \"failures\": " << cell.failures;
        os << ",\n      \"metrics\": {\n";
        for (std::size_t m = 0; m < cell.metrics.size(); ++m) {
            const auto &metric = cell.metrics[m];
            os << "        ";
            json::writeString(os, metric.name);
            os << ": {\"samples\": [";
            for (std::size_t i = 0; i < metric.samples.size(); ++i) {
                os << (i ? ", " : "");
                json::writeNumber(os, metric.samples[i]);
            }
            os << "], \"mean\": ";
            json::writeNumber(os, metric.ci.point);
            os << ", \"ci_lo\": ";
            json::writeNumber(os, metric.ci.lo);
            os << ", \"ci_hi\": ";
            json::writeNumber(os, metric.ci.hi);
            os << "}" << (m + 1 < cell.metrics.size() ? "," : "")
               << "\n";
        }
        os << "      }\n    }" << (c + 1 < cells.size() ? "," : "")
           << "\n";
    }
    os << "  ]\n}\n";
}

} // namespace harness
} // namespace javelin
