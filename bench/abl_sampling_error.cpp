/**
 * @file
 * Ablation A1: the measurement infrastructure, measured.
 *
 * Part A — DAQ sampling period vs attribution accuracy. The paper's
 * rig samples at 40 us — its fastest rate — and argues (Section IV-D)
 * that because component durations are hundreds of microseconds on the
 * P6, "our sampling fidelity accurately captures all important
 * behavior". The simulator can check that argument directly against
 * exact switch-boundary integration: this ablation sweeps the sampling
 * period and reports the per-component energy attribution error,
 * showing 40 us sits comfortably on the flat part of the error curve
 * while 8x-16x slower sampling does not.
 *
 * Part B — HPM sampler self-perturbation vs period. The DAQ is an
 * external box, but the HPM counters are read by an OS-timer ISR *on
 * the measured CPU*: the sampler spends the machine's own energy to
 * measure it. Each period runs a paired seed ensemble — ISR cost
 * charged vs free — and reports the relative shift of the model-exact
 * total energy with a percentile-bootstrap CI over the ensemble
 * (util/bootstrap.hh), deterministic for the fixed seed list. Two
 * columns separate two different effects: with adaptive optimization
 * *off* the ISR's direct cost is the only difference between the
 * paired runs, so the perturbation is the clean energy price of
 * sampling; with Jikes' timer-sampled adaptive optimization *on*, the
 * ISR shifts which method each sample-tick catches, the optimizer
 * makes different compilation decisions, and the indirect drift can
 * exceed the direct cost by an order of magnitude — the classic
 * observer effect of sample-driven JITs.
 *
 * Part C — component-ID port writes, the paper's other self-inflicted
 * cost (Section IV-C charges an I/O store per component switch), with
 * the same paired-ensemble CI treatment.
 */

#include <cmath>
#include <sstream>
#include <iostream>

#include "harness/ensemble.hh"
#include "harness/experiment.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace javelin;
using namespace javelin::harness;

namespace {

/**
 * Relative perturbation samples between two ensembles that ran the
 * same cell and seed list: (variant_i - reference_i) / reference_i,
 * paired per seed. Pairing requires both ensembles to have completed
 * every member.
 */
std::vector<double>
pairedPerturbation(const EnsembleCellResult &variant,
                   const EnsembleCellResult &reference,
                   const std::string &metric)
{
    const auto *v = variant.metric(metric);
    const auto *r = reference.metric(metric);
    JAVELIN_ASSERT(v && r && variant.failures == 0 &&
                       reference.failures == 0 &&
                       v->samples.size() == r->samples.size(),
                   "perturbation pairing needs complete ensembles");
    std::vector<double> rel(v->samples.size());
    for (std::size_t i = 0; i < rel.size(); ++i)
        rel[i] = (v->samples[i] - r->samples[i]) / r->samples[i];
    return rel;
}

/** Paired dE/E with a bootstrap CI, from the model-exact total. */
BootstrapCi
perturbationCi(const EnsembleCellResult &variant,
               const EnsembleCellResult &reference,
               const EnsembleConfig &ecfg, std::uint64_t seed)
{
    const auto rel =
        pairedPerturbation(variant, reference, "gt_total_joules");
    return bootstrapMeanCi(rel, ecfg.resamples, ecfg.confidence, seed);
}

void
perturbationStudy()
{
    std::cout << "\n=== A1 part B: HPM sampler self-perturbation vs "
                 "period (_213_javac small, Jikes RVM + SemiSpace, "
                 "8-seed ensemble, 95% bootstrap CI on the model-exact "
                 "total energy) ===\n\n";

    // 250 cycles per timer ISR: a PMU read plus handler entry/exit,
    // charged ahead of the counter snapshot (core::HpmSampler).
    constexpr double kIsrCostCycles = 250.0;
    const std::vector<Tick> hpmPeriodsUs = {40, 100, 250, 1000};

    EnsembleConfig ecfg;
    ecfg.senseNoiseVoltsRms = 0.0; // isolate the model perturbation
    ecfg.progress = consoleProgress("A1.B ensembles");

    // Four cells per period: {ISR free, ISR charged} x {adaptive
    // optimization off, on}. Differencing within each adaptive setting
    // separates the sampler's direct energy price from the indirect
    // drift it induces in the timer-sampled optimizer.
    std::vector<SweepTask> cells;
    const auto &profile = workloads::benchmark("_213_javac");
    for (const Tick us : hpmPeriodsUs) {
        for (const bool adaptive : {false, true}) {
            for (const bool charged : {false, true}) {
                ExperimentConfig cfg;
                cfg.collector = jvm::CollectorKind::SemiSpace;
                cfg.heapNominalMB = 32;
                cfg.dataset = workloads::DatasetScale::Small;
                cfg.hpmPeriod = us * kTicksPerMicro;
                cfg.hpmIsrCostCycles = charged ? kIsrCostCycles : 0.0;
                cfg.adaptiveOptimization = adaptive;
                cells.push_back({cfg, profile});
            }
        }
    }
    // Part C cells ride in the same fan-out: port-write charging
    // on/off at the default sampling rates (adaptive opt off, so the
    // differenced pairs isolate the port stores themselves).
    for (const bool charged : {false, true}) {
        ExperimentConfig cfg;
        cfg.collector = jvm::CollectorKind::SemiSpace;
        cfg.heapNominalMB = 32;
        cfg.dataset = workloads::DatasetScale::Small;
        cfg.adaptiveOptimization = false;
        cfg.chargePortWrites = charged;
        cells.push_back({cfg, profile});
    }

    const auto results = EnsembleRunner(ecfg).run(cells);

    Table t({"period(us)", "direct dE/E", "ci", "with JIT dE/E", "ci",
             "signif"});
    const auto ciCell = [](const BootstrapCi &ci) {
        std::ostringstream os;
        os.precision(3);
        os << "[" << 100.0 * ci.lo << "%, " << 100.0 * ci.hi << "%]";
        return os.str();
    };
    for (std::size_t p = 0; p < hpmPeriodsUs.size(); ++p) {
        const auto *base = &results[4 * p];
        const BootstrapCi direct =
            perturbationCi(base[1], base[0], ecfg, 0xab1a + 2 * p);
        const BootstrapCi jit =
            perturbationCi(base[3], base[2], ecfg, 0xab1b + 2 * p);
        // Unpaired rank test on the realistic (adaptive on) energies:
        // does the perturbation rise above ensemble noise at all?
        const double pValue =
            mannWhitneyP(base[3].metric("gt_total_joules")->samples,
                         base[2].metric("gt_total_joules")->samples);
        t.beginRow();
        t.cell(static_cast<std::int64_t>(hpmPeriodsUs[p]));
        t.cellPct(direct.point, 3);
        t.cell(ciCell(direct));
        t.cellPct(jit.point, 3);
        t.cell(ciCell(jit));
        t.cell(pValue < 0.05 ? "yes" : "no");
    }
    t.print(std::cout);

    const auto *port = &results[4 * hpmPeriodsUs.size()];
    const BootstrapCi portCi =
        perturbationCi(port[1], port[0], ecfg, 0xab1aff);
    std::cout << "\nPart C: component-ID port writes (2 cycles per "
                 "switch write): dE/E = "
              << 100.0 * portCi.point << "%  95% CI ["
              << 100.0 * portCi.lo << "%, " << 100.0 * portCi.hi
              << "%]\n";
    std::cout << "\nThe direct ISR cost scales inversely with the "
                 "period: visible at DAQ-class rates (40 us), "
                 "negligible at the 1 ms OS-timer rate the paper's HPM "
                 "path uses. With the timer-sampled optimizer enabled "
                 "the same ISR also shifts which methods get compiled, "
                 "and that observer effect dwarfs the direct cost.\n";
}

} // namespace

int
main()
{
    std::cout << "=== A1: attribution error vs DAQ sampling period "
                 "(_213_javac, Jikes RVM + SemiSpace, 32 MB) ===\n\n";

    Table t({"period(us)", "GC err", "App err", "total err",
             "GC samples"});
    const std::vector<Tick> periodsUs = {5, 10, 20, 40,
                                         80, 160, 320, 640};
    std::vector<SweepTask> tasks;
    for (const Tick us : periodsUs) {
        ExperimentConfig cfg;
        cfg.collector = jvm::CollectorKind::SemiSpace;
        cfg.heapNominalMB = 32;
        cfg.daqPeriod = us * kTicksPerMicro;
        tasks.push_back({cfg, workloads::benchmark("_213_javac")});
    }
    const auto results = SweepRunner().run(tasks);
    if (reportSweepFailures(std::cerr, tasks, results) > 0)
        return 1;

    for (std::size_t i = 0; i < results.size(); ++i) {
        const Tick us = periodsUs[i];
        const auto &res = results[i];
        if (!res.ok())
            continue;

        const auto errOf = [&](core::ComponentId id) {
            const double truth =
                res.groundTruth[core::componentIndex(id)].cpuJoules;
            const double sampled =
                res.attribution.powerOf(id).cpuJoules;
            return truth > 0 ? std::abs(sampled - truth) / truth : 0.0;
        };
        const double totalErr =
            std::abs(res.attribution.totalCpuJoules -
                     res.groundTruthCpuJoules) /
            res.groundTruthCpuJoules;

        t.beginRow();
        t.cell(static_cast<std::int64_t>(us));
        t.cellPct(errOf(core::ComponentId::Gc), 2);
        t.cellPct(errOf(core::ComponentId::App), 2);
        t.cellPct(totalErr, 2);
        t.cell(res.attribution.powerOf(core::ComponentId::Gc).samples);
    }
    t.print(std::cout);
    std::cout << "\nThe paper's 40 us design point keeps per-component "
                 "error in the low percent range; component durations "
                 "(hundreds of us) are well resolved.\n";

    perturbationStudy();
    return 0;
}
