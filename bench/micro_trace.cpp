/**
 * @file
 * Micro-benchmarks for the asynchronous trace spool (DESIGN.md §10).
 *
 * BM_TraceCapture times the hot-path cost the spool adds per sample:
 * encode into the active block buffer, with sealing and file I/O
 * riding on the writer thread. items_per_second is the gate metric —
 * capture must stay cheap enough that a 40 µs-period DAQ never
 * notices it.
 *
 * BM_TraceCaptureInMemory is the push_back baseline the spool is
 * compared against, and BM_EndToEndExperimentSpooled re-runs the
 * end-to-end experiment with both spools attached, so "spooling is
 * free at the experiment level" is a measured, regression-gated claim
 * (scripts/bench_ab.py).
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "core/trace_spool.hh"
#include "harness/experiment.hh"
#include "workloads/suite.hh"

using namespace javelin;

namespace {

core::PowerSample
synthSample(std::uint64_t i)
{
    core::PowerSample s;
    s.tick = (i + 1) * 40 * kTicksPerMicro;
    s.windowTicks = 40 * kTicksPerMicro;
    s.cpuWatts = 2.0 + static_cast<double>(i % 997) / 997.0;
    s.memWatts = 0.3 + static_cast<double>(i % 101) / 303.0;
    s.component =
        static_cast<core::ComponentId>(i % core::kNumComponents);
    return s;
}

std::string
scratchPath(const char *name)
{
    return std::string("/tmp/javelin_bench_") + name + ".jtrc";
}

void
BM_TraceCapture(benchmark::State &state)
{
    // Per-sample spool append, writer thread draining to /tmp.
    core::TraceSpool::Config cfg;
    cfg.path = scratchPath("capture");
    core::TraceSpool spool(cfg);
    std::uint64_t i = 0;
    for (auto _ : state)
        spool.append(synthSample(i++));
    state.SetItemsProcessed(static_cast<std::int64_t>(i));
    state.counters["samples_per_sec"] = benchmark::Counter(
        static_cast<double>(i), benchmark::Counter::kIsRate);
    spool.close();
    std::remove(cfg.path.c_str());
}

void
BM_TraceCaptureInMemory(benchmark::State &state)
{
    // The baseline the spool competes with: unbounded-RSS push_back.
    core::PowerTrace trace;
    std::uint64_t i = 0;
    for (auto _ : state) {
        trace.push_back(synthSample(i++));
        benchmark::DoNotOptimize(trace.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(i));
    state.counters["samples_per_sec"] = benchmark::Counter(
        static_cast<double>(i), benchmark::Counter::kIsRate);
}

void
BM_EndToEndExperimentSpooled(benchmark::State &state)
{
    // The end-to-end pipeline of BM_EndToEndExperiment with power +
    // perf spooling enabled.
    std::uint64_t total_bytecodes = 0;
    for (auto _ : state) {
        harness::ExperimentConfig cfg;
        cfg.dataset = workloads::DatasetScale::Small;
        cfg.heapNominalMB = 32;
        cfg.traceSpoolDir = "/tmp/javelin_bench_spooldir";
        const auto res = harness::runExperiment(
            cfg, workloads::benchmark("_202_jess"));
        benchmark::DoNotOptimize(res.run.returnValue);
        total_bytecodes += res.run.bytecodesExecuted;
    }
    state.counters["bytecodes_per_sec"] =
        benchmark::Counter(static_cast<double>(total_bytecodes),
                           benchmark::Counter::kIsRate);
}

} // namespace

BENCHMARK(BM_TraceCapture);
BENCHMARK(BM_TraceCaptureInMemory);
BENCHMARK(BM_EndToEndExperimentSpooled)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
