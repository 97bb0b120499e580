/**
 * @file
 * High-speed data acquisition system (paper Section IV-D).
 *
 * Samples the CPU and memory power channels (through sense-resistor
 * models) and the component-ID register every 40 us of simulated time.
 * As in the paper, this places a 40 us measurement window on all power
 * measurements: transient changes inside the window are not captured,
 * nor is the exact instant of a component switch. The sampled power for
 * a window is the window-average of the (exactly integrated) power
 * model, which is what a real integrating DAQ front-end reports.
 */

#ifndef JAVELIN_CORE_DAQ_HH
#define JAVELIN_CORE_DAQ_HH

#include "core/component_port.hh"
#include "core/sense_resistor.hh"
#include "core/trace_spool.hh"
#include "core/traces.hh"
#include "sim/system.hh"
#include "util/kahan.hh"

namespace javelin {
namespace core {

/**
 * The sampling DAQ: one instance per experiment run.
 */
class Daq
{
  public:
    struct Config
    {
        /** Sampling period; 0 means "use the platform's default". */
        Tick period = 0;
        /** CPU rail sense channel. */
        SenseResistor::Config cpuSense;
        /** Memory rail sense channel. */
        SenseResistor::Config memSense;
        /**
         * Asynchronous sink (non-owning): every sample is appended to
         * this spool as it is taken. With keepInMemory left on this
         * tees capture (the differential oracle); with it off,
         * capture runs at flat RSS for arbitrarily long traces.
         */
        TraceSpool *spool = nullptr;
        /** Keep the in-memory PowerTrace (the oracle mode). */
        bool keepInMemory = true;
    };

    Daq(sim::System &system, ComponentPort &port);
    Daq(sim::System &system, ComponentPort &port, const Config &config);

    /** Sampling period actually in use. */
    Tick period() const { return period_; }

    /** In-memory trace; empty in spool-only capture mode. */
    const PowerTrace &trace() const { return trace_; }

    /** Samples taken (both modes). */
    std::uint64_t samplesTaken() const { return samplesTaken_; }

    /** Total measured CPU energy: sum of sample power * actual window. */
    double measuredCpuJoules() const;

    /** Total measured memory energy. */
    double measuredMemJoules() const;

    /**
     * Detach: flush the in-progress partial window as one final sample
     * covering [last sample, now), so the measured totals equal the
     * exactly-integrated energy of the whole attachment interval. On
     * ms-scale runs the truncated final window used to be a visible
     * fraction of the total. Idempotent; periodic firings after stop()
     * are ignored. The harness calls this once before attribution.
     */
    void stop();

    bool stopped() const { return stopped_; }

  private:
    void sample(Tick now);

    sim::System &system_;
    ComponentPort &port_;
    Tick period_;
    SenseResistor cpuSense_;
    SenseResistor memSense_;
    PowerTrace trace_;
    TraceSpool *spool_ = nullptr;
    bool keepInMemory_ = true;
    bool stopped_ = false;
    std::uint64_t samplesTaken_ = 0;

    /**
     * Running compensated energy integrals, accumulated sample by
     * sample in the exact order integrateCpuJoules/integrateMemJoules
     * walk the trace, so measured totals are bit-identical between
     * the in-memory and spooled capture modes.
     */
    NeumaierSum cpuJoules_;
    NeumaierSum memJoules_;

    double refCpuJoules_ = 0.0;
    double refMemJoules_ = 0.0;
    Tick refTick_ = 0;
    double lastCpuWatts_ = 0.0;
    double lastMemWatts_ = 0.0;
};

} // namespace core
} // namespace javelin

#endif // JAVELIN_CORE_DAQ_HH
