#include "core/hpm_sampler.hh"

#include "util/logging.hh"

namespace javelin {
namespace core {

namespace {

/** Samples preallocated for the in-memory trace. */
constexpr std::size_t kReserveSamples = 1 << 12;

} // namespace

HpmSampler::HpmSampler(sim::System &system, ComponentPort &port)
    : HpmSampler(system, port, Config())
{
}

HpmSampler::HpmSampler(sim::System &system, ComponentPort &port,
                       const Config &config)
    : system_(system), port_(port),
      period_(config.period ? config.period : system.spec().hpmPeriod),
      isrCostCycles_(config.isrCostCycles), spool_(config.spool),
      keepInMemory_(config.keepInMemory)
{
    JAVELIN_ASSERT(period_ > 0, "HPM period must be positive");
    JAVELIN_ASSERT(keepInMemory_ || spool_,
                   "spool-only capture needs a spool");
    if (spool_)
        JAVELIN_ASSERT(spool_->kind() ==
                           core::tracefmt::RecordKind::Perf,
                       "HPM spool must carry perf records");
    if (keepInMemory_)
        trace_.reserve(kReserveSamples);
    last_ = system_.counters();
    system_.addPeriodicTask("hpm", period_,
                            [this](Tick now) { sample(now); });
}

void
HpmSampler::stop()
{
    if (stopped_)
        return;
    stopped_ = true;
    const sim::PerfCounters current = system_.counters();
    if (current.cycles == last_.cycles)
        return; // on-boundary stop: nothing accumulated to flush
    PerfSample s;
    s.tick = system_.cpu().now();
    s.component = port_.current();
    s.delta = current - last_;
    if (keepInMemory_)
        trace_.push_back(s);
    if (spool_)
        spool_->append(s);
    ++samplesTaken_;
    last_ = current;
}

void
HpmSampler::sample(Tick now)
{
    if (stopped_)
        return;
    // Charge the ISR before reading: the counter snapshot then includes
    // the sampler's own work, exactly as a real OS-timer handler would.
    if (isrCostCycles_ > 0.0)
        system_.cpu().stall(isrCostCycles_);
    const sim::PerfCounters current = system_.counters();
    PerfSample s;
    s.tick = now;
    s.component = port_.current();
    s.delta = current - last_;
    if (keepInMemory_)
        trace_.push_back(s);
    if (spool_)
        spool_->append(s);
    ++samplesTaken_;
    last_ = current;
}

} // namespace core
} // namespace javelin
