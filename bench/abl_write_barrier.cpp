/**
 * @file
 * Ablation A2: write-barrier overhead.
 *
 * Section VI-B attributes part of GenCopy's mutator cost to "a slight
 * performance overhead of write barriers" that undermines its locality
 * benefit for _209_db. The simulator can isolate exactly that term:
 * the same run with the barrier's mutator charges switched off (the
 * remembered set stays correct, only the cost disappears) bounds the
 * barrier's contribution to time and energy.
 */

#include <iostream>

#include "harness/experiment.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"
#include "util/table.hh"

using namespace javelin;
using namespace javelin::harness;

int
main()
{
    std::cout << "=== A2: write-barrier overhead, Jikes RVM + GenCopy, "
                 "128 MB ===\n\n";

    Table t({"benchmark", "time w/ barrier(ms)", "time w/o(ms)",
             "overhead", "energy overhead", "barrier hits"});
    const std::vector<const char *> names = {"_209_db", "_213_javac",
                                             "_202_jess", "pmd"};
    std::vector<SweepTask> tasks;
    for (const char *name : names) {
        ExperimentConfig cfg;
        cfg.collector = jvm::CollectorKind::GenCopy;
        cfg.heapNominalMB = 128;
        tasks.push_back({cfg, workloads::benchmark(name)});
        cfg.chargeBarrierCost = false;
        tasks.push_back({cfg, workloads::benchmark(name)});
    }
    const auto results = SweepRunner().run(tasks);
    if (reportSweepFailures(std::cerr, tasks, results) > 0)
        return 1;

    for (std::size_t i = 0; i < names.size(); ++i) {
        const char *name = names[i];
        const auto &with = results[2 * i];
        const auto &without = results[2 * i + 1];
        if (!with.ok() || !without.ok())
            continue;

        t.beginRow();
        t.cell(name);
        t.cell(with.run.seconds() * 1e3, 2);
        t.cell(without.run.seconds() * 1e3, 2);
        t.cellPct((with.run.seconds() - without.run.seconds()) /
                  without.run.seconds(), 2);
        t.cellPct((with.attribution.totalCpuJoules -
                   without.attribution.totalCpuJoules) /
                  without.attribution.totalCpuJoules, 2);
        t.cell(with.run.gc.barrierHits);
    }
    t.print(std::cout);
    std::cout << "\nA few percent of mutator time — the \"slight "
                 "overhead\" the paper blames for GenCopy losing to "
                 "SemiSpace on _209_db at 128 MB.\n";
    return 0;
}
