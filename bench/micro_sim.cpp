/**
 * @file
 * M2: simulator micro-benchmarks (google-benchmark): raw host-side
 * throughput of the cache model, the CPU timing model, the power
 * integrator and a full end-to-end experiment (bytecodes per second of
 * host time), so regressions in simulation speed are visible.
 */

#include <benchmark/benchmark.h>

#include "harness/experiment.hh"
#include "jvm/jvm.hh"
#include "jvm/method_builder.hh"
#include "sim/platform.hh"
#include "util/random.hh"

using namespace javelin;

namespace {

void
BM_CacheAccess(benchmark::State &state)
{
    sim::Cache cache({"l1", 32 * kKiB, 8, 64});
    Rng rng(1);
    std::uint64_t hits = 0;
    for (auto _ : state) {
        const sim::Address a = rng.uniformInt(1 << state.range(0));
        hits += cache.access(a, false).hit;
    }
    benchmark::DoNotOptimize(hits);
    state.SetItemsProcessed(state.iterations());
}

void
BM_CpuExecute(benchmark::State &state)
{
    sim::System system(sim::p6Spec());
    for (auto _ : state)
        system.cpu().execute(8, 0x1000, 32);
    state.SetItemsProcessed(state.iterations() * 8);
}

void
BM_CpuLoadStore(benchmark::State &state)
{
    sim::System system(sim::p6Spec());
    Rng rng(3);
    for (auto _ : state) {
        system.cpu().load(rng.uniformInt(1 << 22));
        system.cpu().store(rng.uniformInt(1 << 22));
    }
    state.SetItemsProcessed(state.iterations() * 2);
}

void
BM_PowerUpdate(benchmark::State &state)
{
    sim::System system(sim::p6Spec());
    for (auto _ : state) {
        system.cpu().execute(100, 0x1000, 64);
        system.syncPower();
    }
}

void
BM_InterpreterDispatch(benchmark::State &state)
{
    // ALU/branch-dense loop run entirely under the interpreted tier:
    // no heap traffic, no GC, no compilation, so host time is dominated
    // by the dispatch + cost-table hot path of Interpreter::run. Pins
    // the threaded-dispatch rewrite's throughput independently of the
    // end-to-end pipeline.
    jvm::Program p;
    p.name = "dispatch";
    jvm::ClassInfo cls;
    cls.id = 0;
    cls.name = "Main";
    p.classes.push_back(cls);
    jvm::MethodBuilder mb(p, "main", 0);
    const auto acc = mb.constant(0);
    const auto one = mb.constant(1);
    const auto tmp = mb.constant(3);
    const auto n = mb.constant(50000);
    const auto i = mb.constant(0);
    const auto top = mb.here();
    mb.emit(jvm::Op::IAdd, acc, acc, one);
    mb.emit(jvm::Op::IXor, tmp, acc, i);
    mb.emit(jvm::Op::ISub, acc, acc, tmp);
    mb.emit(jvm::Op::IAdd, i, i, one);
    const auto br = mb.emit(jvm::Op::IfLt, i, n, 0);
    mb.patchTarget(br, top);
    p.entry = mb.finishHalt();
    p.layout();

    std::uint64_t total_bytecodes = 0;
    for (auto _ : state) {
        sim::System system(sim::p6Spec());
        jvm::JvmConfig cfg;
        cfg.interp.compileOnInvoke = jvm::Tier::Interpreted;
        cfg.adaptiveOptimization = false;
        jvm::Jvm vm(system, p, cfg);
        const auto r = vm.run();
        benchmark::DoNotOptimize(r.returnValue);
        total_bytecodes += r.bytecodesExecuted;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(total_bytecodes));
    state.counters["bytecodes_per_sec"] =
        benchmark::Counter(static_cast<double>(total_bytecodes),
                           benchmark::Counter::kIsRate);
}

void
BM_EndToEndExperiment(benchmark::State &state)
{
    // Full pipeline: build + run one small benchmark with measurement.
    std::uint64_t total_bytecodes = 0;
    for (auto _ : state) {
        harness::ExperimentConfig cfg;
        cfg.dataset = workloads::DatasetScale::Small;
        cfg.heapNominalMB = 32;
        const auto res = harness::runExperiment(
            cfg, workloads::benchmark("_202_jess"));
        benchmark::DoNotOptimize(res.run.returnValue);
        total_bytecodes += res.run.bytecodesExecuted;
        state.counters["bytecodes"] =
            static_cast<double>(res.run.bytecodesExecuted);
    }
    // Host-side simulation throughput: the perf-trajectory metric that
    // scripts/bench_ab.py compares against the reference revision.
    state.counters["bytecodes_per_sec"] =
        benchmark::Counter(static_cast<double>(total_bytecodes),
                           benchmark::Counter::kIsRate);
}

void
BM_EndToEndCallHeavy(benchmark::State &state)
{
    // Call-dominated pipeline: the synthetic call_heavy profile is
    // jess-shaped but with most of the compute replaced by a deep
    // helper chain, per-iteration recursion and six cold calls through
    // the dispatch tree, so frames push and pop every handful of
    // bytecodes. This is the benchmark the trace executor's inline
    // Call/Ret path (DESIGN.md §5g) is gated on: before it, every call
    // exited runTraceFast back to generic dispatch.
    std::uint64_t total_bytecodes = 0;
    for (auto _ : state) {
        harness::ExperimentConfig cfg;
        cfg.dataset = workloads::DatasetScale::Small;
        cfg.heapNominalMB = 32;
        const auto res = harness::runExperiment(
            cfg, workloads::benchmark("call_heavy"));
        benchmark::DoNotOptimize(res.run.returnValue);
        total_bytecodes += res.run.bytecodesExecuted;
        state.counters["gc_count"] =
            static_cast<double>(res.run.gc.collections);
        state.counters["bytecodes"] =
            static_cast<double>(res.run.bytecodesExecuted);
    }
    state.counters["bytecodes_per_sec"] =
        benchmark::Counter(static_cast<double>(total_bytecodes),
                           benchmark::Counter::kIsRate);
}

void
BM_EndToEndGcHeavy(benchmark::State &state)
{
    // GC-dominated pipeline: pmd's big live set (14 MB nominal) under
    // SemiSpace at the tightest paper heap (32 MB nominal, 2 MB
    // scaled; each semispace ~1 MB over a ~0.9 MB live graph) forces a
    // full-heap copying collection every few hundred KB of allocation,
    // so host time concentrates in the GC fast paths (marker/evacuator
    // drain, copy, sweep). Full dataset keeps the live set
    // paper-proportioned.
    // The bytecodes counter guards against silent OOM truncation: a
    // config that runs out of heap finishes early with far fewer
    // bytecodes and would otherwise look "faster".
    std::uint64_t total_bytecodes = 0;
    for (auto _ : state) {
        harness::ExperimentConfig cfg;
        cfg.dataset = workloads::DatasetScale::Full;
        cfg.heapNominalMB = 32;
        cfg.collector = jvm::CollectorKind::SemiSpace;
        const auto res = harness::runExperiment(
            cfg, workloads::benchmark("pmd"));
        benchmark::DoNotOptimize(res.run.returnValue);
        total_bytecodes += res.run.bytecodesExecuted;
        state.counters["gc_count"] =
            static_cast<double>(res.run.gc.collections);
        state.counters["bytecodes"] =
            static_cast<double>(res.run.bytecodesExecuted);
    }
    state.counters["bytecodes_per_sec"] =
        benchmark::Counter(static_cast<double>(total_bytecodes),
                           benchmark::Counter::kIsRate);
}

void
BM_EndToEndMutatorHeavy(benchmark::State &state)
{
    // Mutator-dominated pipeline: _201_compress is the suite's
    // compute-dense workload (tight ALU/array kernels, low allocation
    // rate), and a generous heap (64 MB nominal) keeps collections to a
    // handful, so host time concentrates in the interpreter execute
    // path — the trace executor, the folded segment charges and the
    // per-tier cost tables (DESIGN.md §5f). This is the benchmark the
    // execute-batching fast path is gated on; the gc_count counter
    // makes an accidental drift into GC-bound territory visible.
    std::uint64_t total_bytecodes = 0;
    for (auto _ : state) {
        harness::ExperimentConfig cfg;
        cfg.dataset = workloads::DatasetScale::Small;
        cfg.heapNominalMB = 64;
        const auto res = harness::runExperiment(
            cfg, workloads::benchmark("_201_compress"));
        benchmark::DoNotOptimize(res.run.returnValue);
        total_bytecodes += res.run.bytecodesExecuted;
        state.counters["gc_count"] =
            static_cast<double>(res.run.gc.collections);
        state.counters["bytecodes"] =
            static_cast<double>(res.run.bytecodesExecuted);
    }
    state.counters["bytecodes_per_sec"] =
        benchmark::Counter(static_cast<double>(total_bytecodes),
                           benchmark::Counter::kIsRate);
}

void
BM_EndToEndMultiTenant(benchmark::State &state)
{
    // Co-tenancy pipeline (DESIGN.md §11): two tenants interleaved at
    // quantum granularity on one platform, each serving Poisson
    // request traffic. Exercises the slice scheduler, the shared-port
    // per-tenant attribution and the arrival machinery on top of the
    // classic stack; the context_switches counter makes scheduler-
    // cadence drift visible alongside host throughput.
    std::uint64_t total_bytecodes = 0;
    for (auto _ : state) {
        harness::ExperimentConfig cfg;
        cfg.dataset = workloads::DatasetScale::Small;
        cfg.heapNominalMB = 32;
        cfg.tenants = 2;
        cfg.requestsPerTenant = 12;
        cfg.requestRateHz = 3000.0;
        const auto res = harness::runExperiment(
            cfg, workloads::benchmark("_202_jess"));
        benchmark::DoNotOptimize(res.cotenancy.platformCpuJoules);
        total_bytecodes += res.run.bytecodesExecuted;
        state.counters["context_switches"] =
            static_cast<double>(res.cotenancy.contextSwitches);
        state.counters["bytecodes"] =
            static_cast<double>(res.run.bytecodesExecuted);
    }
    state.counters["bytecodes_per_sec"] =
        benchmark::Counter(static_cast<double>(total_bytecodes),
                           benchmark::Counter::kIsRate);
}

} // namespace

BENCHMARK(BM_CacheAccess)->Arg(14)->Arg(18)->Arg(24);
BENCHMARK(BM_CpuExecute);
BENCHMARK(BM_CpuLoadStore);
BENCHMARK(BM_PowerUpdate);
BENCHMARK(BM_InterpreterDispatch)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EndToEndExperiment)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EndToEndCallHeavy)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EndToEndGcHeavy)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EndToEndMutatorHeavy)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EndToEndMultiTenant)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
