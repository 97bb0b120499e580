#include "harness/report.hh"

#include <ostream>
#include <string>

#include "harness/scenario.hh"

namespace {

/** Table label for a run that produced no numbers. */
const char *
failureLabel(const javelin::harness::ExperimentResult &r)
{
    return r.failed ? "FAIL" : "OOM";
}

} // namespace

namespace javelin {
namespace harness {

using core::ComponentId;

std::vector<ComponentId>
jikesComponents()
{
    return {ComponentId::OptCompiler, ComponentId::BaseCompiler,
            ComponentId::ClassLoader, ComponentId::Gc, ComponentId::App};
}

std::vector<ComponentId>
kaffeComponents()
{
    return {ComponentId::Jit, ComponentId::ClassLoader, ComponentId::Gc,
            ComponentId::App};
}

Table
energyDecompositionTable(const std::vector<ExperimentResult> &results,
                         const std::vector<ComponentId> &components)
{
    std::vector<std::string> headers = {"benchmark", "heap(MB)"};
    for (const auto c : components)
        headers.push_back(std::string(componentName(c)) + "%");
    headers.push_back("JVM%");
    headers.push_back("mem%");
    Table t(std::move(headers));

    for (const auto &r : results) {
        t.beginRow();
        t.cell(r.benchmark).cell(
            static_cast<std::int64_t>(r.config.heapNominalMB));
        if (!r.ok()) {
            for (std::size_t i = 0; i < components.size() + 2; ++i)
                t.cell(failureLabel(r));
            continue;
        }
        for (const auto c : components)
            t.cellPct(r.attribution.energyFraction(c));
        t.cellPct(r.attribution.jvmEnergyFraction());
        const double total = r.attribution.totalJoules();
        t.cellPct(total > 0 ? r.attribution.totalMemJoules / total : 0.0);
    }
    return t;
}

Table
edpTable(const std::vector<std::vector<ExperimentResult>> &rows,
         const std::vector<std::uint32_t> &heaps_mb)
{
    std::vector<std::string> headers = {"benchmark", "collector"};
    for (const auto h : heaps_mb)
        headers.push_back(std::to_string(h) + "MB");
    Table t(std::move(headers));

    for (const auto &row : rows) {
        if (row.empty())
            continue;
        t.beginRow();
        t.cell(row.front().benchmark);
        t.cell(jvm::collectorName(row.front().config.collector));
        for (const auto &r : row) {
            if (r.ok())
                t.cell(r.edp() * 1e3, 3); // mJ*s at study scale
            else
                t.cell(failureLabel(r));
        }
    }
    return t;
}

Table
powerTable(const std::vector<ExperimentResult> &results,
           const std::vector<ComponentId> &components)
{
    std::vector<std::string> headers = {"benchmark", "heap(MB)"};
    for (const auto c : components) {
        headers.push_back(std::string(componentName(c)) + " avgW");
        headers.push_back(std::string(componentName(c)) + " pkW");
    }
    Table t(std::move(headers));

    for (const auto &r : results) {
        t.beginRow();
        t.cell(r.benchmark).cell(
            static_cast<std::int64_t>(r.config.heapNominalMB));
        if (!r.ok()) {
            for (std::size_t i = 0; i < components.size() * 2; ++i)
                t.cell(failureLabel(r));
            continue;
        }
        for (const auto c : components) {
            const auto &p = r.attribution.powerOf(c);
            t.cell(p.avgCpuWatts(), 2);
            t.cell(p.peakCpuWatts, 2);
        }
    }
    return t;
}

void
printRunSummary(std::ostream &os, const ExperimentResult &r)
{
    os << r.benchmark << " [" << jvm::vmKindName(r.config.vm) << "/"
       << jvm::collectorName(r.config.collector) << " heap "
       << r.config.heapNominalMB << "MB] ";
    if (!r.ok()) {
        if (r.failed)
            os << "HARNESS-FAILURE: " << r.failMessage << "\n";
        else
            os << (r.run.outOfMemory ? "OUT-OF-MEMORY"
                                     : "STACK-OVERFLOW")
               << "\n";
        return;
    }
    os << "time " << r.run.seconds() * 1e3 << " ms, cpu "
       << r.attribution.totalCpuJoules << " J, mem "
       << r.attribution.totalMemJoules << " J, JVM "
       << r.attribution.jvmEnergyFraction() * 100.0 << "%, GCs "
       << r.run.gc.collections << ", bytecodes "
       << r.run.bytecodesExecuted << "\n";
}

std::size_t
reportSweepFailures(std::ostream &os,
                    const std::vector<SweepTask> &tasks,
                    const std::vector<ExperimentResult> &results)
{
    // Harness failures only: a simulated OOM/stack overflow is a
    // legitimate experimental result ("did not fit", shown as OOM in
    // the tables), but a worker exception means the shard never ran.
    std::size_t failures = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (!results[i].failed)
            continue;
        ++failures;
        const std::string key =
            i < tasks.size() ? shardKey(tasks[i]) : "<unknown shard>";
        os << "sweep failure: shard " << i << " [" << key
           << "]: " << failureText(results[i]) << "\n";
    }
    return failures;
}

} // namespace harness
} // namespace javelin
