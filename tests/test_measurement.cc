/**
 * @file
 * Tests for the measurement infrastructure: component port, sense
 * resistors, DAQ, HPM sampler, ground-truth accountant, attribution and
 * energy accounting.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/attribution.hh"
#include "core/component_port.hh"
#include "core/daq.hh"
#include "core/energy_accounting.hh"
#include "core/ground_truth.hh"
#include "core/hpm_sampler.hh"
#include "core/sense_resistor.hh"
#include "sim/platform.hh"

using namespace javelin;
using core::ComponentId;
using core::ComponentPort;
using core::Daq;
using core::SenseResistor;
using sim::System;

namespace {

sim::PlatformSpec
testSpec()
{
    auto spec = sim::p6Spec();
    spec.memory.l1i.sizeBytes = 4 * kKiB;
    spec.memory.l1d.sizeBytes = 4 * kKiB;
    spec.memory.l2->sizeBytes = 64 * kKiB;
    return spec;
}

void
burn(System &sys, std::uint32_t uops)
{
    sys.cpu().execute(uops, 0x1000, 64);
    sys.poll();
}

} // namespace

TEST(ComponentPort, PushPopRestores)
{
    System sys(testSpec());
    ComponentPort port(sys);
    EXPECT_EQ(port.current(), ComponentId::App);
    port.push(ComponentId::Gc);
    EXPECT_EQ(port.current(), ComponentId::Gc);
    port.push(ComponentId::ClassLoader);
    EXPECT_EQ(port.current(), ComponentId::ClassLoader);
    port.pop();
    EXPECT_EQ(port.current(), ComponentId::Gc);
    port.pop();
    EXPECT_EQ(port.current(), ComponentId::App);
}

TEST(ComponentPort, PopWithoutPushPanics)
{
    System sys(testSpec());
    ComponentPort port(sys);
    EXPECT_DEATH(port.pop(), "pop without push");
}

TEST(ComponentPort, RawWriteClearsStack)
{
    System sys(testSpec());
    ComponentPort port(sys);
    port.push(ComponentId::Gc);
    port.rawWrite(ComponentId::OptCompiler);
    EXPECT_EQ(port.current(), ComponentId::OptCompiler);
    EXPECT_EQ(port.depth(), 0u);
}

TEST(ComponentPort, ObserversSeeSwitches)
{
    System sys(testSpec());
    ComponentPort port(sys);
    std::vector<std::pair<ComponentId, ComponentId>> seen;
    port.addObserver([&](ComponentId a, ComponentId b, Tick) {
        seen.emplace_back(a, b);
    });
    port.push(ComponentId::Gc);
    port.push(ComponentId::Gc); // no change, no callback
    port.pop();
    port.pop();
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0].first, ComponentId::App);
    EXPECT_EQ(seen[0].second, ComponentId::Gc);
    EXPECT_EQ(seen[1].second, ComponentId::App);
}

TEST(ComponentPort, WriteCostCharged)
{
    System sys(testSpec());
    ComponentPort charged(sys, {4.0, true});
    const auto c0 = sys.cpu().counters().cycles;
    charged.push(ComponentId::Gc);
    EXPECT_GE(sys.cpu().counters().cycles - c0, 4u);

    ComponentPort free(sys, {4.0, false});
    const auto c1 = sys.cpu().counters().cycles;
    free.push(ComponentId::Gc);
    EXPECT_EQ(sys.cpu().counters().cycles, c1);
}

TEST(ComponentScope, RaiiBracket)
{
    System sys(testSpec());
    ComponentPort port(sys);
    {
        core::ComponentScope scope(port, ComponentId::Jit);
        EXPECT_EQ(port.current(), ComponentId::Jit);
    }
    EXPECT_EQ(port.current(), ComponentId::App);
}

TEST(Component, NamesAndClassification)
{
    EXPECT_EQ(core::componentName(ComponentId::Gc), "GC");
    EXPECT_EQ(core::componentName(ComponentId::App), "App");
    EXPECT_TRUE(core::isJvmServiceComponent(ComponentId::Gc));
    EXPECT_TRUE(core::isJvmServiceComponent(ComponentId::Jit));
    EXPECT_FALSE(core::isJvmServiceComponent(ComponentId::App));
    EXPECT_FALSE(core::isJvmServiceComponent(ComponentId::Idle));
}

TEST(SenseResistor, ExactWithoutNoise)
{
    SenseResistor sr({0.01, 0.0, 0.0, 1});
    EXPECT_NEAR(sr.measureAmps(14.84, 1.484), 10.0, 1e-12);
    EXPECT_NEAR(sr.measureWatts(12.0, 1.484), 12.0, 1e-12);
}

TEST(SenseResistor, NoiseIsZeroMean)
{
    SenseResistor::Config cfg;
    cfg.resistanceOhms = 0.01;
    cfg.noiseVoltsRms = 0.001;
    SenseResistor sr(cfg);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += sr.measureWatts(12.0, 1.5);
    EXPECT_NEAR(sum / n, 12.0, 0.05);
}

TEST(SenseResistor, AdcQuantizes)
{
    SenseResistor::Config cfg;
    cfg.resistanceOhms = 0.01;
    cfg.adcLsbVolts = 0.01; // 1 A per LSB
    SenseResistor sr(cfg);
    const double amps = sr.measureAmps(12.3, 1.0);
    EXPECT_DOUBLE_EQ(amps, std::round(amps));
}

TEST(Daq, SamplesAtConfiguredPeriod)
{
    System sys(testSpec());
    ComponentPort port(sys);
    Daq::Config cfg;
    cfg.period = 40 * kTicksPerMicro;
    Daq daq(sys, port, cfg);
    while (sys.cpu().now() < 4 * kTicksPerMilli)
        burn(sys, 200);
    EXPECT_NEAR(static_cast<double>(daq.trace().size()), 100.0, 3.0);
}

TEST(Daq, MeasuredEnergyMatchesModel)
{
    System sys(testSpec());
    ComponentPort port(sys);
    Daq daq(sys, port);
    while (sys.cpu().now() < 10 * kTicksPerMilli)
        burn(sys, 500);
    const double model = sys.cpuJoules();
    const double measured = daq.measuredCpuJoules();
    // The last partial window is unsampled; allow a small gap.
    EXPECT_NEAR(measured, model, model * 0.02);
    EXPECT_NEAR(daq.measuredMemJoules(), sys.memoryJoules(),
                sys.memoryJoules() * 0.03);
}

TEST(Daq, SamplesCarryComponentId)
{
    System sys(testSpec());
    ComponentPort port(sys);
    Daq daq(sys, port);
    burn(sys, 100);
    port.push(ComponentId::Gc);
    while (sys.cpu().now() < 2 * kTicksPerMilli)
        burn(sys, 200);
    port.pop();
    int gcSamples = 0;
    for (const auto &s : daq.trace())
        gcSamples += s.component == ComponentId::Gc;
    EXPECT_GT(gcSamples, 40);
}

TEST(HpmSampler, DeltasSumToTotals)
{
    System sys(testSpec());
    ComponentPort port(sys);
    core::HpmSampler hpm(sys, port, core::HpmSampler::Config{
                                        100 * kTicksPerMicro});
    while (sys.cpu().now() < 5 * kTicksPerMilli)
        burn(sys, 300);
    sim::PerfCounters sum;
    for (const auto &s : hpm.trace())
        sum += s.delta;
    // Samples cover all but the tail of the run.
    EXPECT_GE(sum.instructions,
              sys.counters().instructions * 95 / 100);
    EXPECT_LE(sum.instructions, sys.counters().instructions);
}

TEST(GroundTruth, SplitsEnergyBetweenComponents)
{
    System sys(testSpec());
    ComponentPort port(sys);
    core::GroundTruthAccountant truth(sys, port);

    while (sys.cpu().now() < kTicksPerMilli)
        burn(sys, 300);
    port.push(ComponentId::Gc);
    while (sys.cpu().now() < 2 * kTicksPerMilli)
        burn(sys, 300);
    port.pop();
    truth.finalize();

    const auto &app = truth.slice(ComponentId::App);
    const auto &gc = truth.slice(ComponentId::Gc);
    EXPECT_GT(app.cpuJoules, 0.0);
    EXPECT_GT(gc.cpuJoules, 0.0);
    EXPECT_NEAR(truth.totalCpuJoules(), sys.cpuJoules(), 1e-9);
    EXPECT_NEAR(ticksToSeconds(truth.totalTime()),
                ticksToSeconds(sys.cpu().now()), 1e-9);
    // Components ran for about the same time at the same activity.
    EXPECT_NEAR(gc.cpuJoules, app.cpuJoules, app.cpuJoules * 0.1);
}

TEST(Attribution, SampledMatchesGroundTruthOnLongPhases)
{
    System sys(testSpec());
    ComponentPort port(sys);
    Daq daq(sys, port);
    core::GroundTruthAccountant truth(sys, port);

    // Two long phases: attribution error should be tiny.
    while (sys.cpu().now() < 10 * kTicksPerMilli)
        burn(sys, 300);
    port.push(ComponentId::Gc);
    while (sys.cpu().now() < 20 * kTicksPerMilli)
        burn(sys, 300);
    port.pop();
    truth.finalize();

    const auto a = core::attribute(daq.trace(), {});
    const double gcTruth = truth.slice(ComponentId::Gc).cpuJoules;
    const double gcSampled = a.powerOf(ComponentId::Gc).cpuJoules;
    EXPECT_NEAR(gcSampled, gcTruth, gcTruth * 0.02);
    EXPECT_NEAR(a.totalCpuJoules, truth.totalCpuJoules(),
                truth.totalCpuJoules() * 0.02);
}

TEST(Attribution, FractionsSumToOne)
{
    System sys(testSpec());
    ComponentPort port(sys);
    Daq daq(sys, port);
    for (int phase = 0; phase < 6; ++phase) {
        port.push(static_cast<ComponentId>(phase % 4));
        while (sys.cpu().now() <
               static_cast<Tick>(phase + 1) * kTicksPerMilli)
            burn(sys, 250);
        port.pop();
    }
    const auto a = core::attribute(daq.trace(), {});
    double total = 0;
    for (std::size_t i = 0; i < core::kNumComponents; ++i)
        total += a.energyFraction(static_cast<ComponentId>(i));
    EXPECT_NEAR(total, 1.0, 1e-9);
    EXPECT_GE(a.peakCpuWatts, a.totalCpuJoules / a.totalSeconds);
}

TEST(Attribution, JvmFractionExcludesApp)
{
    core::PowerTrace trace;
    for (int i = 0; i < 10; ++i) {
        core::PowerSample s;
        s.tick = static_cast<Tick>(i) * 40 * kTicksPerMicro;
        s.windowTicks = 40 * kTicksPerMicro;
        s.cpuWatts = 10.0;
        s.component = i < 6 ? ComponentId::App : ComponentId::Gc;
        trace.push_back(s);
    }
    const auto a = core::attribute(trace, {});
    EXPECT_NEAR(a.jvmEnergyFraction(), 0.4, 1e-9);
    EXPECT_NEAR(a.energyFraction(ComponentId::App), 0.6, 1e-9);
}

TEST(EnergyAccounting, EdpDefinition)
{
    EXPECT_DOUBLE_EQ(core::energyDelayProduct(2.0, 3.0), 6.0);
    EXPECT_NEAR(core::relativeImprovement(10.0, 3.0), 0.7, 1e-12);
    EXPECT_DOUBLE_EQ(core::relativeImprovement(0.0, 3.0), 0.0);
}
