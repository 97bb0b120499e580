/**
 * @file
 * The traced rebuild: one experiment assembled from the public pieces
 * of each layer exactly as harness::runExperiment assembles it, with a
 * span around every call into a layer and a component-port observer
 * that splits the run's host time among JVM components.
 *
 * The rebuild mirrors src/harness/experiment.cc. If the two drift
 * apart the benchmark's traced/untraced equality check fails.
 */

#include <filesystem>
#include <memory>

#include "bench.hh"
#include "core/energy_accounting.hh"
#include "core/trace_spool.hh"

namespace perfbench {

using namespace javelin;
using harness::ExperimentConfig;

double
now()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - epoch)
        .count();
}

void
Tracer::record(const SpanRecord &span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
}

std::vector<SpanRecord>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

Span::Span(Tracer &tracer, const char *name, std::uint64_t parent,
           std::uint64_t experiment)
    : tracer_(tracer)
{
    rec_.id = tracer.nextId();
    rec_.parent = parent;
    rec_.experiment = experiment;
    rec_.name = name;
    rec_.start = now();
}

double
Span::close()
{
    rec_.end = now();
    tracer_.record(rec_);
    return rec_.end - rec_.start;
}

LayerTimes &
LayerTimes::operator+=(const LayerTimes &o)
{
    wall += o.wall;
    build += o.build;
    assembly += o.assembly;
    run += o.run;
    finish += o.finish;
    for (std::size_t i = 0; i < kComponents; ++i)
        component[i] += o.component[i];
    programOps += o.programOps;
    portWrites += o.portWrites;
    portSwitches += o.portSwitches;
    daqSamples += o.daqSamples;
    hpmSamples += o.hpmSamples;
    spoolBytes += o.spoolBytes;
    return *this;
}

namespace {

/** Reads the host clock at every component switch. */
class ComponentClock
{
  public:
    explicit ComponentClock(LayerTimes &layers) : layers_(layers) {}

    void attach(core::ComponentPort &port)
    {
        port.addObserver([this](core::ComponentId prev, core::ComponentId,
                                Tick) {
            lap(prev);
            ++layers_.portSwitches;
        });
    }
    void start() { last_ = now(); }
    void stop(core::ComponentId current) { lap(current); }

  private:
    void lap(core::ComponentId id)
    {
        const double t = now();
        layers_.component[core::componentIndex(id)] += t - last_;
        last_ = t;
    }

    LayerTimes &layers_;
    double last_ = 0.0;
};

jvm::JvmConfig
jvmConfigFor(const ExperimentConfig &config)
{
    jvm::JvmConfig vm;
    vm.kind = config.vm;
    vm.collector = config.collector;
    vm.heapBytes = harness::scaledHeapBytes(config);
    vm.interp = jvm::interpConfigFor(config.vm);
    vm.chargePortWrites = config.chargePortWrites;
    vm.adaptiveOptimization = config.adaptiveOptimization;
    vm.chargeBarrierCost = config.chargeBarrierCost;
    return vm;
}

core::Daq::Config
daqConfigFor(const ExperimentConfig &config)
{
    core::Daq::Config daq;
    daq.cpuSense.noiseVoltsRms = config.senseNoiseVoltsRms;
    daq.cpuSense.seed = config.seed * 31 + 1;
    daq.memSense.noiseVoltsRms = config.senseNoiseVoltsRms;
    daq.memSense.seed = config.seed * 31 + 2;
    return daq;
}

std::unique_ptr<core::TraceSpool>
openSpool(const ExperimentConfig &config, const std::string &bench,
          core::tracefmt::RecordKind kind)
{
    if (config.traceSpoolDir.empty())
        return nullptr;
    std::filesystem::create_directories(config.traceSpoolDir);
    core::TraceSpool::Config sp;
    sp.backend = core::TraceSpool::backendFromEnv();
    sp.path = config.traceSpoolDir + "/" + bench +
              (kind == core::tracefmt::RecordKind::Power ? ".power.jtrc"
                                                         : ".perf.jtrc");
    sp.kind = kind;
    return std::make_unique<core::TraceSpool>(sp);
}

/** Copy the accountant's and platform's totals into the result. */
void
collect(ExperimentResult &res, sim::System &system,
        const core::GroundTruthAccountant &truth)
{
    res.counters = system.counters();
    for (std::size_t i = 0; i < kComponents; ++i)
        res.groundTruth[i] = truth.slice(static_cast<core::ComponentId>(i));
    res.groundTruthCpuJoules = truth.totalCpuJoules();
    res.groundTruthMemJoules = truth.totalMemJoules();
    res.maxTemperatureC = system.thermal().maxTemperatureC();
    res.throttledSeconds = system.thermal().throttledSeconds();
}

/** Single-VM experiment (harness::runExperiment, program overload). */
void
runSingle(const SweepTask &task, Tracer &tracer, std::uint64_t exp,
          std::uint64_t parent, TracedResult &out)
{
    const ExperimentConfig &config = task.config;
    ExperimentResult &res = out.result;
    LayerTimes &L = out.layers;
    ComponentClock clock(L); // outlives the port it observes

    Span build(tracer, "workloads.build", parent, exp);
    workloads::StudyScale scale = workloads::studyScaleFor(config.dataset);
    scale.volume = config.heapScale;
    const jvm::Program program = workloads::buildProgram(task.profile, scale);
    L.build = build.close();
    L.programOps = program.totalCodeSize();

    Span assembly(tracer, "harness.assembly", parent, exp);
    sim::System system(harness::scaledPlatformSpec(config));
    if (config.dvfsPoint >= 0)
        system.dvfs().set(static_cast<std::size_t>(config.dvfsPoint));
    jvm::Jvm vm(system, program, jvmConfigFor(config));
    core::Daq::Config daqCfg = daqConfigFor(config);
    auto powerSpool =
        openSpool(config, program.name, core::tracefmt::RecordKind::Power);
    auto perfSpool =
        openSpool(config, program.name, core::tracefmt::RecordKind::Perf);
    daqCfg.spool = powerSpool.get();
    core::Daq daq(system, vm.port(), daqCfg);
    core::HpmSampler::Config hpmCfg;
    hpmCfg.isrCostCycles = config.hpmIsrCostCycles;
    hpmCfg.spool = perfSpool.get();
    core::HpmSampler hpm(system, vm.port(), hpmCfg);
    core::GroundTruthAccountant truth(system, vm.port());
    clock.attach(vm.port());
    L.assembly = assembly.close();

    Span run(tracer, "jvm.run", parent, exp);
    clock.start();
    res.run = vm.run();
    clock.stop(vm.port().current());
    L.run = run.close();

    Span finish(tracer, "core.finish", parent, exp);
    truth.finalize();
    daq.stop();
    hpm.stop();
    if (powerSpool) {
        powerSpool->close();
        perfSpool->close();
        L.spoolBytes = powerSpool->bytesWritten() + perfSpool->bytesWritten();
    }
    res.attribution = core::attribute(daq.trace(), hpm.trace());
    L.finish = finish.close();

    collect(res, system, truth);
    L.portWrites = vm.port().writeCount();
    L.daqSamples = daq.samplesTaken();
    L.hpmSamples = hpm.samplesTaken();
}

/** Co-tenancy experiment (harness::runExperiment with tenants > 0). */
void
runTenants(const SweepTask &task, Tracer &tracer, std::uint64_t exp,
           std::uint64_t parent, TracedResult &out)
{
    // Constants private to src/harness/experiment.cc.
    constexpr double kRequestVolumeDivisor = 64.0;
    constexpr std::uint64_t kTenantSeedStride = 0x9e3779b97f4a7c15ULL;
    constexpr std::uint32_t kCollectorKinds = 5;

    const ExperimentConfig &config = task.config;
    ExperimentResult &res = out.result;
    LayerTimes &L = out.layers;
    ComponentClock clock(L); // outlives the port it observes

    Span build(tracer, "workloads.build", parent, exp);
    workloads::StudyScale scale = workloads::studyScaleFor(config.dataset);
    scale.volume = config.heapScale / kRequestVolumeDivisor;
    std::vector<jvm::Program> programs;
    programs.reserve(config.tenants);
    for (std::uint32_t i = 0; i < config.tenants; ++i) {
        workloads::BenchmarkProfile p = task.profile;
        p.seed = task.profile.seed + kTenantSeedStride * (i + 1);
        programs.push_back(workloads::buildProgram(p, scale));
        L.programOps += programs.back().totalCodeSize();
    }
    L.build = build.close();

    Span assembly(tracer, "harness.assembly", parent, exp);
    sim::System system(harness::scaledPlatformSpec(config));
    if (config.dvfsPoint >= 0)
        system.dvfs().set(static_cast<std::size_t>(config.dvfsPoint));
    core::ComponentPort port(
        system, core::ComponentPort::Config{2.0, config.chargePortWrites});
    harness::TenantSet set(system, port);
    for (std::uint32_t i = 0; i < config.tenants; ++i) {
        harness::TenantSpec spec;
        spec.vm = jvmConfigFor(config);
        if (config.tenantCollectorRotate)
            spec.vm.collector = static_cast<jvm::CollectorKind>(
                (static_cast<std::uint32_t>(config.collector) + i) %
                kCollectorKinds);
        spec.program = &programs[i];
        spec.arrival.kind = config.arrival;
        spec.arrival.ratePerSec = config.requestRateHz;
        spec.requests = config.requestsPerTenant;
        spec.seed = config.seed * 131 + 2 * i + 1;
        set.add(spec);
    }
    core::Daq daq(system, port, daqConfigFor(config));
    core::HpmSampler::Config hpmCfg;
    hpmCfg.isrCostCycles = config.hpmIsrCostCycles;
    core::HpmSampler hpm(system, port, hpmCfg);
    core::GroundTruthAccountant truth(system, port);
    clock.attach(port);
    L.assembly = assembly.close();

    Span run(tracer, "jvm.run", parent, exp);
    clock.start();
    res.cotenancy = set.run();
    clock.stop(port.current());
    L.run = run.close();

    Span finish(tracer, "core.finish", parent, exp);
    truth.finalize();
    daq.stop();
    hpm.stop();
    res.attribution = core::attribute(daq.trace(), hpm.trace());
    L.finish = finish.close();

    collect(res, system, truth);
    L.portWrites = port.writeCount();
    L.daqSamples = daq.samplesTaken();
    L.hpmSamples = hpm.samplesTaken();

    // Cross-tenant rollup into ExperimentResult::run.
    res.run.startTick = res.cotenancy.startTick;
    res.run.endTick = res.cotenancy.endTick;
    for (const auto &a : res.cotenancy.tenants) {
        res.run.bytecodesExecuted += a.vm.bytecodesExecuted;
        res.run.classesLoaded += a.vm.classesLoaded;
        res.run.methodsCompiled += a.vm.methodsCompiled;
        res.run.methodsOptimized += a.vm.methodsOptimized;
        auto &g = res.run.gc;
        const auto &t = a.vm.gc;
        g.collections += t.collections;
        g.minorCollections += t.minorCollections;
        g.majorCollections += t.majorCollections;
        g.pauseTicks += t.pauseTicks;
        g.bytesAllocated += t.bytesAllocated;
        g.objectsAllocated += t.objectsAllocated;
        g.bytesCopied += t.bytesCopied;
        g.objectsCopied += t.objectsCopied;
        g.objectsMarked += t.objectsMarked;
        g.bytesFreed += t.bytesFreed;
        g.barrierHits += t.barrierHits;
        g.remsetEntries += t.remsetEntries;
        if (a.failed && !res.failed) {
            res.failed = true;
            res.failMessage = "tenant failed: " + a.failMessage;
        }
    }
}

} // namespace

TracedResult
runTraced(const SweepTask &task, Tracer &tracer, std::uint64_t experiment)
{
    TracedResult out;
    out.result.config = task.config;
    out.result.benchmark = task.profile.name;
    Span span(tracer, "harness.experiment", 0, experiment);
    // The rig lives inside the call, so its teardown falls inside the
    // experiment span (as harness overhead), like runExperiment's.
    if (task.config.tenants > 0)
        runTenants(task, tracer, experiment, span.id(), out);
    else
        runSingle(task, tracer, experiment, span.id(), out);
    out.layers.wall = span.close();
    return out;
}

} // namespace perfbench
