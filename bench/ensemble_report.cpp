/**
 * @file
 * Energy-regression ensemble report generator (ROADMAP item 4).
 *
 * Runs the committed regression matrix — a small set of (benchmark x
 * collector x heap) cells chosen to cover the GC-bound and
 * mutator-bound corners — over the pinned seed ensemble and writes the
 * versioned JSON report scripts/compare_ensemble.py gates on. The
 * committed baseline lives at bench/ENSEMBLE_energy.baseline.json;
 * regenerate it with:
 *
 *   build-release/bench/ensemble_report --out bench/ENSEMBLE_energy.baseline.json
 *
 * after any *intentional* model change, and say so in the commit (the
 * same protocol as the golden runs). The report is deterministic for a
 * fixed seed list at any JAVELIN_JOBS setting.
 */

#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>

#include "harness/ensemble.hh"
#include "harness/scenario.hh"
#include "util/parse.hh"

using namespace javelin;
using namespace javelin::harness;

namespace {

/**
 * Parse a comma-separated seed list; empty items are skipped. Returns
 * nullopt when any item is not an unsigned 64-bit decimal.
 */
std::optional<std::vector<std::uint64_t>>
parseSeeds(const std::string &csv)
{
    std::vector<std::uint64_t> seeds;
    std::istringstream is(csv);
    std::string item;
    while (std::getline(is, item, ',')) {
        if (item.empty())
            continue;
        const auto seed = parseUnsigned<std::uint64_t>(item);
        if (!seed)
            return std::nullopt;
        seeds.push_back(*seed);
    }
    return seeds;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string outPath;
    std::string scenarioPath;
    EnsembleConfig cfg;
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--out" && i + 1 < argc) {
            outPath = argv[++i];
        } else if (arg == "--seeds" && i + 1 < argc) {
            const auto seeds = parseSeeds(argv[++i]);
            if (!seeds) {
                std::cerr << "ensemble_report: bad --seeds value '"
                          << argv[i]
                          << "' (want comma-separated unsigned "
                             "integers)\n";
                return 2;
            }
            cfg.seeds = *seeds;
        } else if (arg == "--quick") {
            quick = true;
        } else if (arg == "--scenario" && i + 1 < argc) {
            scenarioPath = argv[++i];
        } else {
            std::cerr << "usage: ensemble_report [--out FILE] "
                         "[--seeds 1,2,...] [--quick]\n"
                         "                       [--scenario FILE]\n";
            return 2;
        }
    }
    if (cfg.seeds.empty()) {
        std::cerr << "ensemble_report: empty seed list\n";
        return 2;
    }
    if (quick)
        cfg.seeds.resize(std::min<std::size_t>(cfg.seeds.size(), 3));

    // The regression matrix is data: the builtin "ensemble-regression"
    // scenario (pinned as tests/fixtures/ensemble_regression.scenario
    // .json), or any scenario file passed with --scenario. The quick
    // mode prunes the matrix to its GC-bound corner.
    Scenario scenario;
    try {
        scenario = scenarioPath.empty()
                       ? builtinScenario("ensemble-regression")
                       : parseScenarioFile(scenarioPath);
    } catch (const ScenarioError &e) {
        std::cerr << "ensemble_report: " << e.what() << "\n";
        return 2;
    }
    if (quick && scenarioPath.empty()) {
        scenario.benchmarks = {"_202_jess"};
        scenario.collectors = {jvm::CollectorKind::SemiSpace};
    }

    cfg.progress = consoleProgress("ensemble");
    const auto cells = expandScenario(scenario);
    const auto results = EnsembleRunner(cfg).run(cells);

    for (const auto &cell : results) {
        if (cell.failures > 0)
            std::cerr << "warning: " << cell.key << ": "
                      << cell.failures
                      << " failed ensemble member(s), first: "
                      << cell.firstError << "\n";
        const auto *total = cell.metric("total_joules");
        std::cerr << cell.key << ": total "
                  << total->ci.point << " J  [" << total->ci.lo << ", "
                  << total->ci.hi << "] @" << total->ci.confidence
                  << "\n";
    }

    if (outPath.empty()) {
        writeEnsembleReport(std::cout, results, cfg);
    } else {
        std::ofstream out(outPath);
        if (!out) {
            std::cerr << "ensemble_report: cannot open " << outPath
                      << "\n";
            return 1;
        }
        writeEnsembleReport(out, results, cfg);
        std::cerr << "wrote " << outPath << "\n";
    }
    return 0;
}
