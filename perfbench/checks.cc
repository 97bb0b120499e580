/**
 * @file
 * Output checks, simulated-output digests and the checks' self-test.
 */

#include <bit>
#include <cmath>
#include <cstring>
#include <map>
#include <sstream>

#include "bench.hh"
#include "util/json.hh"
#include "util/kahan.hh"

namespace perfbench {

using namespace javelin;

namespace {

/** 64-bit FNV-1a over little-endian words. */
class Fnv
{
  public:
    void add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ULL;
        }
    }
    void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
    void add(const sim::PerfCounters &c)
    {
        for (std::uint64_t v :
             {c.cycles, c.instructions, c.stallCycles, c.branches,
              c.branchMispredicts, c.l1iAccesses, c.l1iMisses,
              c.l1dAccesses, c.l1dMisses, c.l2Accesses, c.l2Misses,
              c.l2Probes, c.dramAccesses, c.dramWritebacks})
            add(v);
    }
    void add(const jvm::Collector::Stats &s)
    {
        for (std::uint64_t v :
             {s.collections, s.minorCollections, s.majorCollections,
              s.pauseTicks, s.bytesAllocated, s.objectsAllocated,
              s.bytesCopied, s.objectsCopied, s.objectsMarked,
              s.bytesFreed, s.barrierHits, s.remsetEntries})
            add(v);
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

bool
withinTolerance(double a, double b)
{
    return std::fabs(a - b) <= kEnergyTolerance * std::fabs(b);
}

std::string
relDiff(double a, double b)
{
    std::ostringstream os;
    os.precision(3);
    os << std::fabs(a - b) / std::fabs(b);
    return os.str();
}

/** Flip one mantissa bit (0 = least significant). */
double
flipBit(double v, int bit)
{
    return std::bit_cast<double>(std::bit_cast<std::uint64_t>(v) ^
                                 (std::uint64_t{1} << bit));
}

} // namespace

std::string
checkResult(const ExperimentResult &res)
{
    if (res.failed)
        return "harness failure: " + res.failMessage;
    if (res.run.outOfMemory)
        return "out of memory";
    if (res.run.stackOverflow)
        return "stack overflow";
    if (!res.ok())
        return "result not ok";

    const double measured = res.attribution.totalJoules();
    const double exact = res.groundTruthCpuJoules + res.groundTruthMemJoules;
    if (!(exact > 0.0) || !withinTolerance(measured, exact))
        return "DAQ-measured joules " + std::to_string(measured) +
               " differ from the ground-truth total by " +
               relDiff(measured, exact) + " relative";

    NeumaierSum parts;
    for (const auto &c : res.attribution.power) {
        parts.add(c.cpuJoules);
        parts.add(c.memJoules);
    }
    if (!withinTolerance(parts.value(), measured))
        return "per-component joules sum to " +
               std::to_string(parts.value()) + ", total is " +
               std::to_string(measured) + " (" +
               relDiff(parts.value(), measured) + " relative)";
    return "";
}

std::string
checkJournal(const std::string &text, std::size_t shards)
{
    std::istringstream in(text);
    std::string line;
    bool header = false;
    std::map<std::uint64_t, int> records;
    try {
        while (std::getline(in, line)) {
            if (line.empty())
                continue;
            const json::Value v = json::parse(line);
            if (!header) {
                const json::Value *schema = v.find("schema");
                if (!schema || schema->asString() != "javelin-journal-v1")
                    return "journal has no javelin-journal-v1 header";
                header = true;
                continue;
            }
            const json::Value *shard = v.find("shard");
            const json::Value *ok = v.find("ok");
            if (!shard || !ok)
                return "journal record without shard/ok";
            if (!ok->asBool())
                return "journal records a failed shard: " + line;
            ++records[shard->asU64()];
        }
    } catch (const std::exception &e) {
        return std::string("unreadable journal: ") + e.what();
    }
    if (!header)
        return "empty journal";
    for (std::size_t g = 0; g < shards; ++g) {
        const auto it = records.find(g);
        const int n = it == records.end() ? 0 : it->second;
        if (n != 1)
            return "shard " + std::to_string(g) + " has " +
                   std::to_string(n) + " journal records, expected 1";
    }
    if (records.size() != shards)
        return "journal holds records for shards outside the sweep";
    return "";
}

std::uint64_t
Digest::combined() const
{
    Fnv f;
    f.add(counters);
    f.add(joules);
    f.add(gc);
    return f.value();
}

Digest
digest(const ExperimentResult &res)
{
    Fnv counters, joules, gc;

    counters.add(res.counters);
    counters.add(res.run.bytecodesExecuted);
    counters.add(res.run.startTick);
    counters.add(res.run.endTick);
    for (const auto &s : res.groundTruth) {
        counters.add(s.counters);
        counters.add(s.time);
    }
    for (const auto &p : res.attribution.perf) {
        counters.add(p.counters);
        counters.add(p.samples);
    }

    joules.add(res.attribution.totalCpuJoules);
    joules.add(res.attribution.totalMemJoules);
    joules.add(res.attribution.totalSeconds);
    joules.add(res.attribution.peakCpuWatts);
    for (const auto &p : res.attribution.power) {
        joules.add(p.cpuJoules);
        joules.add(p.memJoules);
        joules.add(p.seconds);
        joules.add(p.peakCpuWatts);
        joules.add(p.samples);
    }
    for (const auto &s : res.groundTruth) {
        joules.add(s.cpuJoules);
        joules.add(s.memJoules);
    }
    joules.add(res.groundTruthCpuJoules);
    joules.add(res.groundTruthMemJoules);
    joules.add(res.maxTemperatureC);
    joules.add(res.throttledSeconds);
    for (const auto &t : res.cotenancy.tenants) {
        joules.add(t.cpuJoules);
        joules.add(t.memJoules);
        counters.add(t.counters);
    }

    gc.add(res.run.gc);
    gc.add(static_cast<std::uint64_t>(res.run.returnValue));
    gc.add(std::uint64_t{res.run.outOfMemory});
    gc.add(std::uint64_t{res.run.stackOverflow});
    gc.add(std::uint64_t{res.run.classesLoaded});
    gc.add(std::uint64_t{res.run.methodsCompiled});
    gc.add(std::uint64_t{res.run.methodsOptimized});

    return {counters.value(), joules.value(), gc.value()};
}

std::string
describeMismatch(const Digest &a, const Digest &b)
{
    std::string out;
    if (a.counters != b.counters)
        out += " PerfCounters";
    if (a.joules != b.joules)
        out += " joules";
    if (a.gc != b.gc)
        out += " GC-stats";
    return out.empty() ? out : "differ in" + out;
}

std::string
selfTest(const ExperimentResult &res, const std::string &journal,
         std::size_t shards)
{
    if (const std::string e = checkResult(res); !e.empty())
        return "self-test needs a passing result: " + e;
    if (const std::string e = checkJournal(journal, shards); !e.empty())
        return "self-test needs a passing journal: " + e;

    // One joule bit flipped: the bit-identity comparison sees the
    // lowest bit; the conservation checks see bits above their
    // tolerance (bit 44 moves a joule by 2^-8 relative).
    ExperimentResult bad = res;
    bad.attribution.totalCpuJoules =
        flipBit(bad.attribution.totalCpuJoules, 0);
    if (digest(bad) == digest(res))
        return "digest missed a flipped joule bit";
    bad = res;
    bad.groundTruthCpuJoules = flipBit(bad.groundTruthCpuJoules, 44);
    if (checkResult(bad).empty())
        return "ground-truth check missed a flipped joule bit";
    bad = res;
    auto &app = bad.attribution.power[0];
    app.cpuJoules = flipBit(app.cpuJoules, 44);
    if (checkResult(bad).empty())
        return "component-sum check missed a flipped joule bit";

    // One record missing, then one duplicated.
    const std::size_t last = journal.rfind('\n', journal.size() - 2);
    const std::string missing = journal.substr(0, last + 1);
    if (checkJournal(missing, shards).empty())
        return "journal check missed a missing record";
    if (checkJournal(journal + journal.substr(last + 1), shards).empty())
        return "journal check missed a duplicated record";
    return "";
}

} // namespace perfbench
