/**
 * @file
 * Reproduces paper Fig. 11: energy decomposition for Kaffe on the Intel
 * XScale PXA255 development board, five SpecJVM98 benchmarks at -s10
 * over 12-32 MB heaps.
 *
 * Expected shape (Section VI-E): the class loader becomes the highest
 * JVM energy consumer (~18% average) thanks to Kaffe's long, CL-heavy
 * initialization against the shrunken -s10 application work; the GC and
 * JIT average ~5% each; and — unlike on the P6 — the garbage collector
 * is the most power-hungry component (~270 mW, about 7% above the
 * application) because without an L2 its tight loops keep a relatively
 * high IPC.
 */

#include <iostream>

#include "harness/experiment.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"
#include "util/stats.hh"

using namespace javelin;
using namespace javelin::harness;

int
main()
{
    std::vector<ExperimentResult> rows;
    RunningStat clShare, gcShare, jitShare, gcPowerMw, appPowerMw;

    std::vector<SweepTask> tasks;
    for (const auto &bench : workloads::embeddedBenchmarks()) {
        for (const auto heap : kPxaHeapsMB) {
            ExperimentConfig cfg;
            cfg.platform = sim::PlatformKind::Pxa255;
            cfg.vm = jvm::VmKind::Kaffe;
            cfg.collector = jvm::CollectorKind::IncrementalMS;
            cfg.dataset = workloads::DatasetScale::Small;
            cfg.heapNominalMB = heap;
            tasks.push_back({cfg, bench});
        }
    }
    SweepRunner::Config rc;
    rc.progress = consoleProgress("fig11 sweep");
    const auto results = SweepRunner(rc).run(tasks);
    if (reportSweepFailures(std::cerr, tasks, results) > 0)
        return 1;

    for (const auto &res : results) {
        rows.push_back(res);
        if (!res.ok())
            continue;
        clShare.add(res.attribution.energyFraction(
            core::ComponentId::ClassLoader));
        gcShare.add(
            res.attribution.energyFraction(core::ComponentId::Gc));
        jitShare.add(
            res.attribution.energyFraction(core::ComponentId::Jit));
        const auto &gc = res.attribution.powerOf(core::ComponentId::Gc);
        const auto &app =
            res.attribution.powerOf(core::ComponentId::App);
        if (gc.samples > 3)
            gcPowerMw.add(gc.avgCpuWatts() * 1e3);
        appPowerMw.add(app.avgCpuWatts() * 1e3);
    }

    std::cout << "=== Fig. 11: Kaffe energy decomposition, DBPXA255, "
                 "SpecJVM98 -s10 ===\n\n";
    energyDecompositionTable(rows, kaffeComponents()).print(std::cout);

    std::cout << "\nsummary (paper expectations in parentheses):\n"
              << "  avg CL share " << clShare.mean() * 100
              << "%  (~18%: the top JVM consumer)\n"
              << "  avg GC share " << gcShare.mean() * 100
              << "%  (~5%)\n"
              << "  avg JIT share " << jitShare.mean() * 100
              << "%  (~5%)\n"
              << "  GC avg power " << gcPowerMw.mean() << " mW vs app "
              << appPowerMw.mean()
              << " mW  (GC ~270 mW, ~7% above the application)\n";
    return 0;
}
