/**
 * @file
 * Example: the paper's core experiment in miniature — sweep the four
 * Jikes RVM collectors over the heap range for one benchmark and print
 * the EDP matrix plus a recommendation, the way a VM engineer would use
 * javelin to choose a collector for a deployment.
 *
 * Usage: gc_comparison [benchmark]
 */

#include <iostream>
#include <string>

#include "core/energy_accounting.hh"
#include "harness/experiment.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"

using namespace javelin;
using namespace javelin::harness;

int
main(int argc, char **argv)
{
    const std::string name = argc > 1 ? argv[1] : "_209_db";
    const auto &bench = workloads::benchmark(name);

    const std::vector<jvm::CollectorKind> collectors = {
        jvm::CollectorKind::SemiSpace, jvm::CollectorKind::MarkSweep,
        jvm::CollectorKind::GenCopy, jvm::CollectorKind::GenMS};
    const std::vector<std::uint32_t> heaps(kP6HeapsMB.begin(),
                                           kP6HeapsMB.end());

    std::cout << "collector comparison for " << name
              << " (Jikes RVM on the simulated Pentium M)\n\n";

    // One task per (collector, heap) cell; the sweep runner spreads
    // them over every core and returns results in input order.
    std::vector<SweepTask> tasks;
    for (const auto collector : collectors) {
        for (const auto heap : heaps) {
            ExperimentConfig cfg;
            cfg.collector = collector;
            cfg.heapNominalMB = heap;
            tasks.push_back({cfg, bench});
        }
    }
    SweepRunner::Config rc;
    rc.progress = consoleProgress("gc comparison");
    const auto results = SweepRunner(rc).run(tasks);
    if (reportSweepFailures(std::cerr, tasks, results) > 0)
        return 1;

    std::vector<std::vector<ExperimentResult>> rows;
    double bestEdp = 1e300;
    std::string best;
    for (std::size_t c = 0; c < collectors.size(); ++c) {
        std::vector<ExperimentResult> row;
        for (std::size_t h = 0; h < heaps.size(); ++h) {
            row.push_back(results[c * heaps.size() + h]);
            const auto &r = row.back();
            if (r.ok() && r.edp() < bestEdp) {
                bestEdp = r.edp();
                best = std::string(jvm::collectorName(collectors[c])) +
                       " @ " + std::to_string(heaps[h]) + "MB";
            }
        }
        rows.push_back(std::move(row));
    }

    edpTable(rows, heaps).print(std::cout);

    std::cout << "\nper-collector detail at 32MB:\n";
    for (std::size_t c = 0; c < collectors.size(); ++c) {
        const auto &r = rows[c][0];
        std::cout << "  " << jvm::collectorName(collectors[c]) << ": ";
        if (!r.ok()) {
            std::cout << "OOM\n";
            continue;
        }
        std::cout << r.run.seconds() * 1e3 << " ms, "
                  << r.attribution.totalJoules() << " J, "
                  << r.run.gc.collections << " GCs ("
                  << r.run.gc.minorCollections << " minor), GC energy "
                  << r.attribution.energyFraction(core::ComponentId::Gc)
                         * 100 << "%\n";
    }
    std::cout << "\nbest energy-delay product: " << best << "\n";
    return 0;
}
