/**
 * @file
 * The execution engine.
 *
 * Executes javelin bytecode under any compilation tier. One engine
 * implements the semantics; the *cost model* differs per tier:
 *
 *  - Interpreted: template-dispatch micro-ops at the interpreter's own
 *    code addresses plus a data-side fetch of the bytecode itself.
 *  - Baseline (Jikes first-invoke): modest per-bytecode overhead,
 *    instruction fetch walks the method's emitted code linearly.
 *  - Optimized (adaptive recompilation): lower overhead, denser code,
 *    and a fraction of scalar field traffic elided by register
 *    allocation (the value is still read — only the timing access is
 *    removed, so semantics never depend on the tier).
 *  - Jitted (Kaffe): baseline-like but with bulkier, slower code.
 *
 * The engine polls the system's periodic tasks at bytecode granularity
 * (the safepoint mechanism) and yields to service work — the optimizing
 * compiler thread — every scheduling quantum.
 *
 * Dispatch is threaded (GNU computed goto). The dispatch loop and the
 * trace executor share one set of opcode handler bodies
 * (interpreter_ops.inc) and drive the cost model from a per-tier,
 * per-opcode precomputed table, so the architectural event stream is
 * identical to the original switch loop (DESIGN.md §5d, pinned by
 * tests/test_golden_runs.cc).
 */

#ifndef JAVELIN_JVM_INTERPRETER_HH
#define JAVELIN_JVM_INTERPRETER_HH

#include <functional>

#include "core/component_port.hh"
#include "jvm/classloader.hh"
#include "jvm/compilers.hh"
#include "jvm/gc/collector.hh"
#include "jvm/statics.hh"
#include "util/random.hh"

namespace javelin {
namespace jvm {

/** Default for Interpreter::Config::fastPath: true unless
 *  JAVELIN_INTERP_NO_FAST_PATH is set in the environment (checked
 *  once; scripts/ci.sh runs the whole suite with it set). */
bool interpFastPathDefault();

/** Thrown when the collector cannot satisfy an allocation. */
struct OutOfMemoryError
{
    std::uint32_t requestedBytes = 0;
};

/** Thrown when the call stack exceeds its configured limit. */
struct StackOverflowError
{
};

/**
 * Bytecode execution engine.
 */
class Interpreter
{
  public:
    struct Config
    {
        /** Tier installed on a method's first invocation. */
        Tier compileOnInvoke = Tier::Baseline;
        /** Bytecodes between scheduler-quantum callbacks. */
        std::uint32_t quantumBytecodes = 4096;
        /** Bytecodes between periodic-task polls. */
        std::uint32_t pollInterval = 16;
        /** Maximum call depth. */
        std::uint32_t maxStackDepth = 256;
        /** Taken branches mispredicted: one in N. */
        std::uint32_t mispredictOneIn = 8;
        /** Scalar field accesses elided in optimized code: one in N. */
        std::uint32_t optElideOneIn = 4;
        /**
         * Use the execute-batching fast path (DESIGN.md §5f): maximal
         * straight-line runs of foldable bytecodes execute in one host
         * loop under one folded charge. Off = the per-op threaded
         * dispatch, kept as the oracle for tests/test_interp_diff.cc.
         * Both emit bit-identical architectural events and joules.
         */
        bool fastPath = interpFastPathDefault();
    };

    Interpreter(sim::System &system, core::ComponentPort &port,
                const Program &program, ObjectModel &om,
                Collector &collector, ClassLoader &loader,
                CompilerModel &compiler,
                std::vector<MethodRuntime> &method_rt, Statics &statics,
                const Config &config);

    /**
     * Run the program's entry method to completion.
     * @return the entry method's return value (0 if it halts).
     * @throws OutOfMemoryError, StackOverflowError
     */
    std::int64_t run(MethodId entry);

    /**
     * Sliced execution (multi-tenant interleaving, DESIGN.md §11):
     * start() arms a run of entry without executing a bytecode;
     * runSlice() then executes until the program finishes or a
     * requestYield() is observed at the next quantum boundary. run()
     * is exactly start() + runSlice() until finished, so a run that
     * never yields is bit-identical to the historical single call.
     */
    void start(MethodId entry);

    /**
     * Execute the started program until it finishes or yields.
     * @return true when finished (result() is valid), false on yield.
     * @throws OutOfMemoryError, StackOverflowError
     */
    bool runSlice();

    /** Stop at the next quantum boundary; runSlice() returns false.
     *  Only honored from within onQuantum (the scheduling points). */
    void requestYield() { yield_ = true; }

    /** A start()ed program that has not finished yet. */
    bool active() const { return active_; }

    /** Entry return value of the last finished run (0 if it halted). */
    std::int64_t result() const { return result_; }

    /** Discard the current run's stack (failed-tenant teardown after
     *  an OutOfMemoryError/StackOverflowError escaped runSlice()). */
    void abortRun();

    /** Visit every reference register of every live frame. */
    void forEachStackRoot(const std::function<void(Address &)> &fn);

    /** Method currently on top of the stack (for adaptive sampling). */
    MethodId currentMethod() const;

    /** Invoked every scheduling quantum (service-thread dispatch). */
    std::function<void()> onQuantum;

    /** Total bytecodes executed. */
    std::uint64_t bytecodesExecuted() const { return executed_; }

    const Config &config() const { return config_; }

  private:
    struct Frame
    {
        const MethodInfo *method;
        MethodRuntime *rt;
        /** Per-pc foldable-run lengths of method (built once by
         *  Program::layout() — MethodInfo::runLen). */
        const std::uint16_t *runLen;
        std::uint32_t pc;
        std::uint32_t intBase;
        std::uint32_t refBase;
        std::int32_t retDst;
    };

    /**
     * Per-tier cost table, precomputed at construction (DESIGN.md §5d):
     * the dispatch overhead, code stride, spill-gate mask and the
     * semUops tier transform folded into a per-opcode micro-op count.
     */
    struct TierCost
    {
        /** Micro-ops charged per bytecode dispatch. */
        std::uint32_t dispatchUops = 0;
        /** Emitted bytes per bytecode (compiled tiers' code stride). */
        std::uint32_t bytesPerBc = 0;
        /** Spill load fires when (++spillCounter_ & mask) == 0. */
        std::uint32_t spillMask = 0;
        /** Semantic micro-ops per opcode after the tier transform. */
        std::uint8_t uops[kNumOps] = {};
        /**
         * dispatchUops + uops[op]: the v3 per-op charge folds an op's
         * semantic micro-ops into its dispatch execute (one execute
         * call per non-foldable bytecode instead of two; the fetch
         * span and every other event are unchanged — DESIGN.md §5f).
         */
        std::uint8_t opExecUops[kNumOps] = {};
    };

    void pushFrame(MethodId id, const Frame *caller, std::int32_t ret_dst,
                   std::int32_t int_arg_base, std::int32_t ref_arg_base);
    void popFrame(std::int64_t value);
    void prepareMethod(MethodId id);
    void buildTierCosts();

    /**
     * Emit the folded v3 charge stream for the segment of n foldable
     * bytecodes at [pc0, pc0 + n) of frame f: one execute covering the
     * run's dispatch + semantic micro-ops (uops) and its fetch span,
     * the per-op operand loads (interpreted tier), the per-op
     * spill-gate loads with exact counter semantics, then one folded
     * stall (stall_cycles). Shared verbatim by the fast path and the
     * per-op oracle so every floating-point accumulation happens in
     * the same order (DESIGN.md §5f).
     */
    void emitSegmentCharges(sim::CpuModel &cpu, const Frame &f,
                            const TierCost &tc, std::uint32_t pc0,
                            std::uint32_t n, std::uint32_t uops,
                            double stall_cycles);

    /** Sum a segment's semantic micro-ops and FP stall cycles (the
     *  oracle's charge pass; the fast path fuses this into its
     *  execution loop — the sums are exact either way). */
    std::uint32_t sumSegmentUops(const Frame &f, const TierCost &tc,
                                 std::uint32_t pc0, std::uint32_t n,
                                 double *stall_cycles) const;

    /** Execute n foldable bytecodes at pc0 host-side and emit their
     *  folded charges (the fast path's segment body). */
    void runSegmentFast(sim::CpuModel &cpu, Frame &f, const TierCost &tc,
                        std::uint32_t pc0, std::uint32_t n);

    /** Fast-path trace executor: folded segments plus inline branch
     *  and heap-accessor ops, until the next frame-changing or
     *  allocating op. Ticks the countdowns exactly like the per-op
     *  tail checks. */
    void runTraceFast(sim::CpuModel &cpu, std::uint32_t &poll_countdown,
                      std::uint32_t &quantum_countdown);

    /** Taken-branch mispredict gate; counts and fires exactly like the
     *  original (++branchCounter_ % mispredictOneIn) == 0. */
    bool
    fireMispredict()
    {
        ++branchCounter_;
        return mispredictPow2_
            ? (branchCounter_ & mispredictMask_) == 0
            : branchCounter_ % config_.mispredictOneIn == 0;
    }

    bool
    elideFieldAccess(const Frame &f)
    {
        if (f.rt->tier != Tier::Optimized)
            return false;
        ++elideCounter_;
        return elidePow2_ ? (elideCounter_ & elideMask_) == 0
                          : elideCounter_ % config_.optElideOneIn == 0;
    }

    Address allocObject(ClassId cls_id, std::uint32_t array_len);
    void doNativeWork(std::uint32_t uops, std::uint32_t bytes);

    /** Iterations of doNativeWork's full chunk guaranteed not to reach
     *  the next periodic-task deadline (always >= 1; see DESIGN §5d). */
    std::uint32_t pollFreeIterations(const sim::CpuModel &cpu) const;

    sim::System &system_;
    core::ComponentPort &port_;
    const Program &program_;
    ObjectModel &om_;
    Collector &collector_;
    ClassLoader &loader_;
    CompilerModel &compiler_;
    std::vector<MethodRuntime> &methodRt_;
    Statics &statics_;
    Config config_;
    Rng rng_;

    TierCost tierCosts_[4]; // indexed by static_cast<unsigned>(Tier)
    std::uint32_t mispredictMask_ = 0;
    std::uint32_t elideMask_ = 0;
    bool mispredictPow2_ = true;
    bool elidePow2_ = true;

    std::vector<Frame> frames_;
    /** Register pools, sized once (maxStackDepth * widest method) so
     *  the storage never moves: a frame push zero-fills its window and
     *  bumps the top, a pop drops the top back — no per-call vector
     *  resize, and every pointer the trace executor hoists stays valid
     *  for the life of the run. Only [0, intTop_) / [0, refTop_) are
     *  live; forEachStackRoot must never walk past the top. */
    std::vector<std::int64_t> intRegs_;
    std::vector<Address> refRegs_;
    std::uint32_t intTop_ = 0;
    std::uint32_t refTop_ = 0;

    bool needsBarrier_;
    std::uint64_t executed_ = 0;
    std::uint32_t branchCounter_ = 0;
    std::uint32_t spillCounter_ = 0;
    std::uint32_t elideCounter_ = 0;
    /** Oracle mode: bytecodes of the current segment whose charges
     *  were already emitted by emitSegmentCharges. */
    std::uint32_t segPrepaid_ = 0;
    /** One-line bytecode-operand stream buffer (D-side analogue of
     *  the i-fetch buffer, DESIGN.md §5g): the last operand D-line
     *  the interpreted tier fetched. Threaded through every operand
     *  fetch — per-op and folded, fast path and oracle — in bytecode
     *  order, so both dispatch modes evolve it identically. ~0 means
     *  empty; reset at the top of run(). */
    Address bcFetchLine_ = ~Address{0};
    std::uint64_t nativeCursor_ = 0;
    std::int64_t result_ = 0;
    bool halted_ = false;
    /** Slice state: the countdowns live in locals inside runSlice()'s
     *  hot loop and are carried across slices through these members;
     *  yield_ is observed at quantum boundaries only. */
    std::uint32_t pollCountdown_ = 0;
    std::uint32_t quantumCountdown_ = 0;
    bool yield_ = false;
    bool active_ = false;
};

} // namespace jvm
} // namespace javelin

#endif // JAVELIN_JVM_INTERPRETER_HH
