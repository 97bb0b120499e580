/**
 * @file
 * The perfbench program. Usage:
 *
 *   perfbench --workload <mutator|gc_bound|embedded_sweep> --seed <n>
 *             --seconds <s> --trace <0|1> [--out <dir>]
 *
 * Derives the workload's inputs from the seed and sets them up
 * repeatedly (setup_s is the median), then runs passes over them for
 * --seconds.
 * With --trace 0 every pass is untraced and the end-to-end metrics are
 * printed. With --trace 1 untraced and traced passes alternate, every
 * traced result must be bit-identical to its untraced twin, and the
 * per-layer metrics are printed. The last stdout line is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}. A result file
 * (with provenance) and, when tracing, the spans go to --out.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <numeric>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "bench.hh"
#include "harness/job_engine.hh"
#include "harness/scenario.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace javelin;
using namespace perfbench;
namespace fs = std::filesystem;

namespace {

/** Set-up repeats: at least kSetupMinRepeats, and until kSetupMinSeconds
 *  of set-up time have passed (at most kSetupMaxRepeats). */
constexpr int kSetupMinRepeats = 5;
constexpr int kSetupMaxRepeats = 200;
constexpr double kSetupMinSeconds = 0.25;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out = ".bench_build/perfbench-out";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out <dir>]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool sawWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                a.workload = value;
                sawWorkload = true;
            } else if (flag == "--seed") {
                a.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                a.seconds = std::stod(value);
            } else if (flag == "--trace") {
                if (value != "0" && value != "1")
                    usage("--trace takes 0 or 1");
                a.trace = value == "1";
            } else if (flag == "--out") {
                a.out = value;
            } else {
                usage("unknown flag " + flag);
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + flag + ": " + value);
        }
    }
    const auto &names = workloadNames();
    if (!sawWorkload ||
        std::find(names.begin(), names.end(), a.workload) == names.end())
        usage("--workload must be mutator, gc_bound or embedded_sweep");
    if (!(a.seconds > 0.0))
        usage("--seconds must be positive");
    return a;
}

// ------------------------------------------------------------ statistics

/** Type-7 (linear interpolation) quantile; q in [0, 1]. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double h = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(h);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (h - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

double
peakRssMB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // kB on Linux
}

// ------------------------------------------------------------ provenance

std::string
firstLine(const fs::path &p)
{
    std::ifstream in(p);
    std::string line;
    std::getline(in, line);
    return line;
}

/** HEAD's commit, read from .git in the working directory (the
 *  checkout root) without running git. */
std::string
gitRev(const fs::path &repo)
{
    const fs::path git = repo / ".git";
    const std::string head = firstLine(git / "HEAD");
    if (head.rfind("ref: ", 0) != 0)
        return head.empty() ? "unknown" : head;
    const std::string ref = head.substr(5);
    if (std::string rev = firstLine(git / ref); !rev.empty())
        return rev;
    std::ifstream packed(git / "packed-refs");
    for (std::string line; std::getline(packed, line);)
        if (line.size() > 41 && line.substr(41) == ref)
            return line.substr(0, 40);
    return "unknown";
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    for (std::string line; std::getline(in, line);)
        if (line.rfind("model name", 0) == 0)
            return line.substr(line.find(':') + 2);
    return "unknown";
}

std::string
loadAverage()
{
    const std::string line = firstLine("/proc/loadavg");
    std::istringstream in(line);
    std::string a, b, c;
    in >> a >> b >> c;
    return a + " " + b + " " + c;
}

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

// ------------------------------------------------------------ passes

/** One executed experiment (or sweep shard). */
struct ExpRecord
{
    bool ran = false;
    double start = 0.0;
    double end = 0.0;
    std::thread::id worker;
    ExperimentResult result;
    LayerTimes layers;
};

struct Pass
{
    bool traced = false;
    double wall = 0.0;
    std::vector<ExpRecord> exps; ///< in task order
    std::string report;          ///< writeJobReport bytes (sweeps)
    std::string journalError;
    std::uint64_t journalBytes = 0;
};

/** Everything a pass needs besides its inputs. */
struct Runner
{
    const Workload &w;
    Tracer &tracer;
    std::string outDir;
    /** Shard key (with the engine's per-shard seed) -> shard index. */
    std::unordered_map<std::string, std::size_t> shardIndex;
    std::atomic<std::uint64_t> experiments{0};

    Runner(const Workload &workload, Tracer &t, std::string out)
        : w(workload), tracer(t), outDir(std::move(out))
    {
        for (std::size_t g = 0; g < w.tasks.size(); ++g) {
            SweepTask task = w.tasks[g];
            task.config.seed =
                harness::SweepRunner::taskSeed(task.config.seed, g);
            shardIndex.emplace(harness::shardKey(task), g);
        }
    }

    ExperimentResult execute(const SweepTask &task, bool traced,
                             ExpRecord &rec)
    {
        rec.worker = std::this_thread::get_id();
        rec.start = now();
        try {
            if (traced) {
                TracedResult t = runTraced(task, tracer, ++experiments);
                rec.result = std::move(t.result);
                rec.layers = t.layers;
            } else {
                ++experiments;
                rec.result =
                    harness::runExperiment(task.config, task.profile);
            }
        } catch (const std::exception &e) {
            rec.result.failed = true;
            rec.result.failMessage = e.what();
        }
        rec.end = now();
        rec.ran = true;
        return rec.result;
    }

    /**
     * Serial workloads, traced run: one untraced and one traced pass,
     * interleaved per experiment (alternating which side goes first),
     * so both sides of every pair see the same host conditions. A
     * serial pass's wall time is the sum of its experiments'.
     */
    std::pair<Pass, Pass> runPairedSerial(int k)
    {
        Pass u, t;
        t.traced = true;
        u.exps.resize(w.tasks.size());
        t.exps.resize(w.tasks.size());
        for (std::size_t i = 0; i < w.tasks.size(); ++i) {
            const bool tracedFirst = (i + k) % 2 == 1;
            execute(w.tasks[i], tracedFirst, (tracedFirst ? t : u).exps[i]);
            execute(w.tasks[i], !tracedFirst, (tracedFirst ? u : t).exps[i]);
        }
        for (Pass *p : {&u, &t})
            for (const auto &e : p->exps)
                p->wall += e.end - e.start;
        return {std::move(u), std::move(t)};
    }

    Pass run(bool traced)
    {
        Pass p;
        p.traced = traced;
        p.exps.resize(w.tasks.size());
        const double start = now();
        if (!w.sweep) {
            for (std::size_t i = 0; i < w.tasks.size(); ++i)
                execute(w.tasks[i], traced, p.exps[i]);
            p.wall = now() - start;
            return p;
        }

        const std::string journal = outDir + "/journal.jsonl";
        fs::remove(journal);
        harness::JobEngine::Config cfg;
        cfg.checkpointPath = journal;
        cfg.jobs = w.workers;
        cfg.execute = [&](const SweepTask &task) {
            return execute(task, traced,
                           p.exps[shardIndex.at(harness::shardKey(task))]);
        };
        const harness::JobReport report =
            harness::JobEngine(cfg).run(w.tasks, w.scenarioName,
                                        w.scenarioHash);
        p.wall = now() - start;
        std::ostringstream os;
        harness::writeJobReport(os, report);
        p.report = os.str();
        const std::string text = readFile(journal);
        p.journalBytes = text.size();
        p.journalError = checkJournal(text, w.tasks.size());
        return p;
    }
};

/**
 * A real javelin-journal-v1 file for the self-test: a three-shard
 * JobEngine run whose executor returns a canned result.
 */
std::string
selfTestJournal(const Workload &w, const ExperimentResult &canned,
                const std::string &out_dir)
{
    const std::string path = out_dir + "/selftest-journal.jsonl";
    fs::remove(path);
    std::vector<SweepTask> tasks;
    for (std::size_t g = 0; g < 3; ++g) {
        tasks.push_back(w.tasks.front());
        tasks.back().config.seed = g; // distinct shard keys
    }
    harness::JobEngine::Config cfg;
    cfg.checkpointPath = path;
    cfg.jobs = 1;
    cfg.execute = [&](const SweepTask &) { return canned; };
    harness::JobEngine(cfg).run(tasks, "perfbench-selftest", "0");
    return readFile(path);
}

/**
 * The traced experiment's child spans (build, assembly, run, finish)
 * must cover its wall time to within kSpanCoverage, the rest being
 * harness overhead, and the component split must cover the run span.
 */
constexpr double kSpanCoverage = 0.05;
constexpr double kComponentCoverageS = 1e-5;

std::string
checkCoverage(const LayerTimes &L)
{
    const double uncovered = L.uncovered();
    if (!(uncovered >= 0.0 && uncovered <= kSpanCoverage * L.wall))
        return "child spans leave " + std::to_string(uncovered) +
               " s of the " + std::to_string(L.wall) +
               " s experiment span uncovered";
    double components = 0.0;
    for (double c : L.component)
        components += c;
    if (!(std::fabs(components - L.run) <= kComponentCoverageS))
        return "component host times sum to " + std::to_string(components) +
               " s, the run span is " + std::to_string(L.run) + " s";
    return "";
}

// ------------------------------------------------------------ metrics

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Per-pass layer totals over the traced passes. */
struct LayerSummary
{
    LayerTimes layers;
    double passes = 0.0;
    std::uint64_t bytecodes = 0, collections = 0, objectsTraced = 0,
                  bytesCopied = 0, bytesFreed = 0, classesLoaded = 0,
                  methodsCompiled = 0, methodsOptimized = 0,
                  contextSwitches = 0, requests = 0;
    sim::PerfCounters counters;
    std::uint64_t appInst = 0, gcInst = 0;
    double simSeconds = 0.0;
    std::vector<double> gaps;
    double idleTail = 0.0;
    std::uint64_t journalBytes = 0;
    /** Worst share of an experiment span no child span covers. */
    double maxUncovered = 0.0;
};

/** Gaps between consecutive experiments on each worker, and idle time. */
void
workerTimeline(const Pass &p, unsigned workers, std::vector<double> &gaps,
               double &idle)
{
    std::map<std::thread::id, std::vector<std::pair<double, double>>> byW;
    double busy = 0.0;
    for (const auto &e : p.exps) {
        if (!e.ran)
            continue;
        byW[e.worker].push_back({e.start, e.end});
        busy += e.end - e.start;
    }
    for (auto &[id, spans] : byW) {
        std::sort(spans.begin(), spans.end());
        for (std::size_t k = 1; k < spans.size(); ++k)
            gaps.push_back(spans[k].first - spans[k - 1].second);
    }
    idle += workers * p.wall - busy;
}

LayerSummary
summarizeTraced(const std::vector<Pass> &passes, const Workload &w)
{
    using core::ComponentId;
    LayerSummary s;
    for (const auto &p : passes) {
        if (!p.traced)
            continue;
        s.passes += 1.0;
        s.journalBytes += p.journalBytes;
        if (w.sweep)
            workerTimeline(p, w.workers, s.gaps, s.idleTail);
        for (const auto &e : p.exps) {
            const auto &r = e.result;
            const LayerTimes &L = e.layers;
            s.layers += L;
            s.maxUncovered = std::max(s.maxUncovered, L.uncovered() / L.wall);
            s.bytecodes += r.run.bytecodesExecuted;
            s.collections += r.run.gc.collections;
            s.objectsTraced += r.run.gc.objectsMarked + r.run.gc.objectsCopied;
            s.bytesCopied += r.run.gc.bytesCopied;
            s.bytesFreed += r.run.gc.bytesFreed;
            s.classesLoaded += r.run.classesLoaded;
            s.methodsCompiled += r.run.methodsCompiled;
            s.methodsOptimized += r.run.methodsOptimized;
            s.contextSwitches += r.cotenancy.contextSwitches;
            for (const auto &t : r.cotenancy.tenants)
                s.requests += t.requestsServed;
            s.counters += r.counters;
            s.appInst += r.groundTruth[core::componentIndex(ComponentId::App)]
                             .counters.instructions;
            s.gcInst += r.groundTruth[core::componentIndex(ComponentId::Gc)]
                            .counters.instructions;
            s.simSeconds += r.run.seconds();
        }
    }
    return s;
}

std::vector<Metric>
layerMetrics(const LayerSummary &s, double overhead_ratio)
{
    const double n = s.passes;
    const LayerTimes &L = s.layers;
    using core::ComponentId;
    const auto comp = [&](ComponentId id) {
        return L.component[core::componentIndex(id)] / n;
    };
    const double app = comp(ComponentId::App), gc = comp(ComponentId::Gc);
    const double compile = comp(ComponentId::BaseCompiler) +
                           comp(ComponentId::OptCompiler) +
                           comp(ComponentId::Jit);
    double jvmTotal = 0.0;
    for (double c : L.component)
        jvmTotal += c / n;
    const auto per = [&](double host_s, std::uint64_t events) {
        return events ? 1e9 * host_s * n / static_cast<double>(events)
                      : 0.0;
    };
    const auto cnt = [&](std::uint64_t v) {
        return static_cast<double>(v) / n;
    };
    const double meanGap =
        s.gaps.empty() ? 0.0
                       : std::accumulate(s.gaps.begin(), s.gaps.end(), 0.0) /
                             static_cast<double>(s.gaps.size());
    return {
        {"workloads.build_s", L.build / n, "s"},
        {"workloads.program_ops", cnt(L.programOps), "count"},
        {"harness.assembly_s", L.assembly / n, "s"},
        {"harness.overhead_s", L.uncovered() / n, "s"},
        {"harness.shard_gap_s", meanGap, "s"},
        {"harness.idle_tail_s", s.idleTail / n, "s"},
        {"harness.journal_bytes", cnt(s.journalBytes), "bytes"},
        {"harness.tenant.context_switches", cnt(s.contextSwitches), "count"},
        {"harness.tenant.requests", cnt(s.requests), "count"},
        {"jvm.app_s", app, "s"},
        {"jvm.gc_s", gc, "s"},
        {"jvm.cl_s", comp(ComponentId::ClassLoader), "s"},
        {"jvm.compile_s", compile, "s"},
        {"jvm.sched_s", comp(ComponentId::Scheduler), "s"},
        {"jvm.idle_s", comp(ComponentId::Idle), "s"},
        {"jvm.app_share", jvmTotal > 0 ? app / jvmTotal : 0.0, "frac"},
        {"jvm.gc_share", jvmTotal > 0 ? gc / jvmTotal : 0.0, "frac"},
        {"jvm.bytecodes", cnt(s.bytecodes), "count"},
        {"jvm.gc.collections", cnt(s.collections), "count"},
        {"jvm.gc.objects_traced", cnt(s.objectsTraced), "count"},
        {"jvm.gc.bytes_copied", cnt(s.bytesCopied), "bytes"},
        {"jvm.gc.bytes_freed", cnt(s.bytesFreed), "bytes"},
        {"jvm.classes_loaded", cnt(s.classesLoaded), "count"},
        {"jvm.methods_compiled", cnt(s.methodsCompiled), "count"},
        {"jvm.methods_optimized", cnt(s.methodsOptimized), "count"},
        {"jvm.app_ns_per_bytecode", per(app, s.bytecodes), "ns/bytecode"},
        {"jvm.gc_ns_per_object", per(gc, s.objectsTraced), "ns/object"},
        {"sim.instructions", cnt(s.counters.instructions), "count"},
        {"sim.cycles", cnt(s.counters.cycles), "count"},
        {"sim.seconds", s.simSeconds / n, "sim_s"},
        {"sim.l1d_accesses", cnt(s.counters.l1dAccesses), "count"},
        {"sim.l1d_misses", cnt(s.counters.l1dMisses), "count"},
        {"sim.l2_accesses", cnt(s.counters.l2Accesses), "count"},
        {"sim.l2_misses", cnt(s.counters.l2Misses), "count"},
        {"sim.dram_accesses", cnt(s.counters.dramAccesses), "count"},
        {"sim.app_host_ns_per_inst", per(app, s.appInst), "ns/inst"},
        {"sim.gc_host_ns_per_inst", per(gc, s.gcInst), "ns/inst"},
        {"core.port.writes", cnt(L.portWrites), "count"},
        {"core.port.switches", cnt(L.portSwitches), "count"},
        {"core.daq.samples", cnt(L.daqSamples), "count"},
        {"core.hpm.samples", cnt(L.hpmSamples), "count"},
        {"core.finish_s", L.finish / n, "s"},
        {"core.spool_bytes", cnt(L.spoolBytes), "bytes"},
        {"trace.overhead_ratio", overhead_ratio, "ratio"},
        {"trace.max_uncovered_frac", s.maxUncovered, "frac"},
    };
}

/** Self time per layer (span name prefix), from the recorded spans. */
std::map<std::string, double>
layerSelfTimes(const std::vector<SpanRecord> &spans)
{
    std::unordered_map<std::uint64_t, double> childTime;
    for (const auto &s : spans)
        if (s.parent)
            childTime[s.parent] += s.end - s.start;
    std::map<std::string, double> self;
    for (const auto &s : spans) {
        const std::string name = s.name;
        self[name.substr(0, name.find('.'))] +=
            s.end - s.start - childTime[s.id];
    }
    return self;
}

void
writeSpans(const std::string &path, const std::vector<SpanRecord> &spans)
{
    std::ofstream out(path);
    char buf[64];
    for (const auto &s : spans) {
        out << "{\"id\": " << s.id << ", \"parent\": " << s.parent
            << ", \"experiment\": " << s.experiment << ", \"name\": \""
            << s.name << "\"";
        std::snprintf(buf, sizeof buf, ", \"start\": %.9f", s.start);
        out << buf;
        std::snprintf(buf, sizeof buf, ", \"end\": %.9f}\n", s.end);
        out << buf;
    }
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string out = "{";
    char buf[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
        out += (i ? ", " : "") + jsonString(metrics[i].name) +
               ": {\"value\": " + buf +
               ", \"unit\": " + jsonString(metrics[i].unit) + "}";
    }
    return out + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    now(); // process-start epoch
    const Args args = parseArgs(argc, argv);
    const std::string loadStart = loadAverage();
    fs::create_directories(args.out);
    const std::string outDir =
        args.out + "/" + args.workload + "-s" + std::to_string(args.seed) +
        "-t" + (args.trace ? "1" : "0");
    fs::create_directories(outDir);

    // --- set-up, repeated: derive inputs, build and verify programs.
    std::vector<double> setupTimes;
    Workload w;
    for (int k = 0; k < kSetupMaxRepeats &&
                    (k < kSetupMinRepeats || now() < kSetupMinSeconds);
         ++k) {
        const double t0 = k == 0 ? 0.0 : now();
        w = makeWorkload(args.workload, args.seed, outDir + "/spool");
        setupTimes.push_back(now() - t0);
    }
    Tracer tracer;
    Runner runner(w, tracer, outDir);

    // --- measured phase.
    std::vector<Pass> passes;
    const double cpu0 = cpuSeconds();
    const double t0 = now();
    double firstPassRssMB = 0.0; // peak RSS through the first pass(es)
    for (int k = 0; passes.empty() || now() - t0 < args.seconds; ++k) {
        if (k == 1)
            firstPassRssMB = peakRssMB();
        if (!args.trace) {
            passes.push_back(runner.run(false));
            continue;
        }
        if (!w.sweep) {
            auto [untraced, traced] = runner.runPairedSerial(k);
            passes.push_back(std::move(untraced));
            passes.push_back(std::move(traced));
            continue;
        }
        // Alternate which side runs first in each pair of sweeps.
        const bool tracedFirst = k % 2 == 1;
        passes.push_back(runner.run(tracedFirst));
        passes.push_back(runner.run(!tracedFirst));
    }
    const double wall = now() - t0;
    const double cpu = cpuSeconds() - cpu0;
    if (firstPassRssMB == 0.0)
        firstPassRssMB = peakRssMB();

    // --- checks.
    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> errors;
    const auto fail = [&](const std::string &what) {
        ++failed;
        if (errors.size() < 20)
            errors.push_back(what);
    };
    const Pass *refPass = nullptr; // first untraced pass
    for (const auto &p : passes)
        if (!p.traced && !refPass)
            refPass = &p;
    std::vector<Digest> ref;
    for (const auto &e : refPass->exps)
        ref.push_back(digest(e.result));
    std::uint64_t passDigest = 0xcbf29ce484222325ULL;
    for (const auto &d : ref)
        passDigest = (passDigest ^ d.combined()) * 0x100000001b3ULL;

    for (const auto &p : passes) {
        const char *kind = p.traced ? "traced" : "untraced";
        for (std::size_t i = 0; i < p.exps.size(); ++i) {
            ++attempted;
            const ExpRecord &e = p.exps[i];
            const std::string where = std::string(kind) + " " +
                                      w.tasks[i].profile.name + " #" +
                                      std::to_string(i) + ": ";
            if (!e.ran) {
                fail(where + "did not run");
                continue;
            }
            if (const std::string err = checkResult(e.result); !err.empty()) {
                fail(where + err);
                continue;
            }
            if (const std::string d = describeMismatch(digest(e.result),
                                                       ref[i]);
                !d.empty()) {
                fail(where + "simulated outputs " + d +
                     " from the first untraced pass");
                continue;
            }
            if (p.traced)
                if (const std::string err = checkCoverage(e.layers);
                    !err.empty())
                    fail(where + err);
        }
        if (!p.journalError.empty())
            fail(std::string(kind) + " journal: " + p.journalError);
        if (w.sweep && p.report != refPass->report)
            fail(std::string(kind) +
                 " writeJobReport bytes differ from the first untraced "
                 "pass");
    }
    const std::string selfTestError = selfTest(
        refPass->exps.front().result,
        selfTestJournal(w, refPass->exps.front().result, outDir), 3);
    if (!selfTestError.empty())
        errors.push_back("self-test: " + selfTestError);

    // --- end-to-end metrics (untraced passes). Host speed on a shared
    // machine drifts between modes for seconds at a time; per-slot and
    // per-pass means move linearly with the share of time spent in each
    // mode, where a median over individual runs would jump between them.
    std::vector<double> slotWall(w.tasks.size(), 0.0);
    double untracedWall = 0.0, bytecodes = 0.0, untracedPasses = 0.0;
    for (const auto &p : passes) {
        if (p.traced)
            continue;
        untracedPasses += 1.0;
        untracedWall += p.wall;
        for (std::size_t i = 0; i < p.exps.size(); ++i) {
            const ExpRecord &e = p.exps[i];
            slotWall[i] += e.end - e.start;
            bytecodes += static_cast<double>(e.result.run.bytecodesExecuted);
        }
    }
    for (double &x : slotWall)
        x /= untracedPasses;
    const std::vector<Metric> endToEnd = {
        {"bytecodes_per_s", bytecodes / untracedWall, "bytecodes/s"},
        {"exp_s_p50", median(slotWall), "s"},
        {"exp_s_p90", quantile(slotWall, 0.9), "s"},
        {"sweep_s", untracedWall / untracedPasses, "s"},
        {"setup_s", median(setupTimes), "s"},
        {"peak_rss_mb", firstPassRssMB, "MB"},
        {"ok_frac",
         static_cast<double>(attempted - failed) /
             static_cast<double>(attempted),
         "frac"},
    };

    // --- per-layer metrics (traced passes).
    std::vector<Metric> perLayer;
    std::map<std::string, double> selfTimes;
    if (args.trace) {
        // Observer cost: traced over untraced wall time of the paired
        // passes. The first pair runs cold (untraced side first), so it
        // is left out whenever a later pair exists.
        double pairWall[2] = {0.0, 0.0};
        for (std::size_t k = passes.size() > 2 ? 2 : 0; k < passes.size();
             ++k)
            pairWall[passes[k].traced] += passes[k].wall;
        const LayerSummary s = summarizeTraced(passes, w);
        perLayer = layerMetrics(s, pairWall[1] / pairWall[0]);
        const auto spans = tracer.spans();
        selfTimes = layerSelfTimes(spans);
        writeSpans(outDir + "/spans.jsonl", spans);
    }

    // --- report.
    const bool correct = failed == 0 && selfTestError.empty();
    const std::vector<Metric> &printed = args.trace ? perLayer : endToEnd;
    std::ostringstream file;
    file << "{\n  \"schema\": \"javelin-perfbench-v1\",\n"
         << "  \"workload\": " << jsonString(args.workload)
         << ",\n  \"seed\": " << args.seed
         << ",\n  \"trace\": " << (args.trace ? "true" : "false")
         << ",\n  \"provenance\": {\"git_rev\": "
         << jsonString(gitRev("."))
         << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
         << ", \"compiler\": " << jsonString(compilerName())
         << ", \"cpu_model\": " << jsonString(cpuModel())
         << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
         << ", \"loadavg_start\": " << jsonString(loadStart)
         << ", \"loadavg_end\": " << jsonString(loadAverage()) << "},\n"
         << "  \"measured_wall_s\": " << wall
         << ",\n  \"measured_cpu_s\": " << cpu
         << ",\n  \"passes\": " << passes.size()
         << ",\n  \"experiments_per_pass\": " << w.tasks.size()
         << ",\n  \"simulated_output_digest\": \"" << hex(passDigest)
         << "\",\n  \"self_test\": "
         << jsonString(selfTestError.empty() ? "pass" : selfTestError)
         << ",\n  \"errors\": [";
    for (std::size_t i = 0; i < errors.size(); ++i)
        file << (i ? ", " : "") << jsonString(errors[i]);
    file << "],\n  \"setup_s\": [";
    for (std::size_t k = 0; k < setupTimes.size(); ++k)
        file << (k ? ", " : "") << setupTimes[k];
    file << "],\n  \"experiment_walls_s\": [";
    for (std::size_t k = 0; k < passes.size(); ++k) {
        file << (k ? ", " : "") << "{\"traced\": "
             << (passes[k].traced ? "true" : "false")
             << ", \"pass_s\": " << passes[k].wall << ", \"walls\": [";
        for (std::size_t i = 0; i < passes[k].exps.size(); ++i) {
            const ExpRecord &e = passes[k].exps[i];
            file << (i ? ", " : "") << e.end - e.start;
        }
        file << "]}";
    }
    file << "],\n  \"layer_self_s\": {";
    bool first = true;
    for (const auto &[layer, t] : selfTimes) {
        file << (first ? "" : ", ") << jsonString(layer) << ": " << t;
        first = false;
    }
    file << "},\n  \"end_to_end\": " << metricsJson(endToEnd)
         << ",\n  \"per_layer\": " << metricsJson(perLayer) << "\n}\n";
    std::ofstream(outDir + "/result.json") << file.str();

    std::cout << "workload " << args.workload << " seed " << args.seed
              << ": " << passes.size() << " passes x " << w.tasks.size()
              << " experiments, wall " << wall << " s, cpu " << cpu
              << " s\n";
    std::cout << "simulated-output digest " << hex(passDigest) << "\n";
    if (!selfTimes.empty()) {
        std::cout << "layer self time (s):";
        for (const auto &[layer, t] : selfTimes)
            std::cout << " " << layer << " " << t;
        std::cout << "\n";
    }
    for (const auto &e : errors)
        std::cout << "error: " << e << "\n";
    for (const auto &m : printed)
        std::cout << "  " << m.name << " = " << m.value << " " << m.unit
                  << "\n";
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed
              << ", \"metrics\": " << metricsJson(printed) << "}"
              << std::endl;
    return correct ? 0 : 1;
}
