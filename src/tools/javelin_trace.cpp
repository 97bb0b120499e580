/**
 * @file
 * javelin-trace: inspect, export, and exercise javelin-trace-v1
 * binary trace files (core/trace_format.hh, DESIGN.md §10).
 *
 *   javelin-trace cat FILE                 decode all records as CSV
 *                                          on stdout
 *   javelin-trace index FILE               print the per-block footer
 *                                          index and recovery status
 *   javelin-trace export-csv FILE OUT.csv  decode to a CSV file
 *                                          (byte-identical to the
 *                                          in-memory writer's CSV)
 *   javelin-trace range FILE FROM TO       decode only ticks in
 *                                          [FROM, TO] as CSV, using
 *                                          the block index to skip
 *
 *   javelin-trace record [options]         synthetic spool writer for
 *                                          smoke tests and RSS checks
 *     --kind power|perf        record type (default power)
 *     --samples N              records to append (default 100000)
 *     --buffer-bytes B         spool block size (default 1 MiB)
 *     --out FILE               trace path (default trace.jtrc)
 *     --csv-oracle FILE        also keep samples in memory and write
 *                              them via the CSV writer (the
 *                              differential oracle; small N only)
 *     --crash-after-blocks K   tear the K-th block and SIGKILL
 *     --print-rss              print max RSS (KB) on stderr at exit
 *
 * The synthetic sample stream is a pure function of the record index,
 * so two `record` runs at any buffer size produce records that decode
 * identically — that is what the CI smoke's cmp relies on.
 *
 * Exit status: 0 ok; 2 usage or I/O errors. Structural corruption
 * fails through JAVELIN_FATAL (exit 1) like every other loader.
 */

#include <sys/resource.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "core/trace_io.hh"
#include "core/trace_spool.hh"
#include "util/parse.hh"
#include "util/units.hh"

using namespace javelin;
using namespace javelin::core;

namespace {

int
usage()
{
    std::cerr
        << "usage: javelin-trace cat FILE\n"
           "       javelin-trace index FILE\n"
           "       javelin-trace export-csv FILE OUT.csv\n"
           "       javelin-trace range FILE FROM_TICK TO_TICK\n"
           "       javelin-trace record [--kind power|perf]\n"
           "                            [--samples N] "
           "[--buffer-bytes B]\n"
           "                            [--out FILE] "
           "[--csv-oracle FILE]\n"
           "                            [--crash-after-blocks K]\n"
           "                            [--print-rss]\n";
    return 2;
}

/** Parse `text` into `out` as `what`'s unsigned decimal value; on
 *  malformed input print a diagnostic naming `what` and return false. */
template <typename T>
bool
parseArg(const char *what, const char *text, T &out)
{
    const auto v = parseUnsigned<T>(text);
    if (!v) {
        std::cerr << "javelin-trace: bad " << what << " value '" << text
                  << "' (want an unsigned integer)\n";
        return false;
    }
    out = *v;
    return true;
}

void
writeCsv(std::ostream &os, const TraceReader &reader,
         const PowerTrace &power, const PerfTrace &perf)
{
    if (reader.kind() == tracefmt::RecordKind::Power)
        writePowerCsv(os, power);
    else
        writePerfCsv(os, perf);
}

/** Deterministic synthetic power sample for record index i. */
PowerSample
syntheticPower(std::uint64_t i)
{
    PowerSample s;
    s.tick = (i + 1) * kTicksPerMicro;
    s.windowTicks = kTicksPerMicro;
    // Shapes chosen to exercise the full double width (non-terminating
    // binary fractions) so the CSV round-trip test is not vacuous.
    s.cpuWatts = 2.0 + static_cast<double>(i % 997) / 997.0;
    s.memWatts = 0.3 + static_cast<double>(i % 101) / 303.0;
    s.component =
        static_cast<ComponentId>(i % kNumComponents);
    return s;
}

/** Deterministic synthetic perf sample for record index i. */
PerfSample
syntheticPerf(std::uint64_t i)
{
    PerfSample s;
    s.tick = (i + 1) * kTicksPerMicro;
    s.component = static_cast<ComponentId>(i % kNumComponents);
    s.delta.cycles = 1000 + i % 400;
    s.delta.instructions = 700 + i % 350;
    s.delta.stallCycles = i % 90;
    s.delta.branches = 120 + i % 60;
    s.delta.branchMispredicts = i % 7;
    s.delta.l1iAccesses = 650 + i % 100;
    s.delta.l1iMisses = i % 11;
    s.delta.l1dAccesses = 300 + i % 200;
    s.delta.l1dMisses = i % 23;
    s.delta.l2Accesses = i % 23 + i % 11;
    s.delta.l2Misses = i % 5;
    s.delta.l2Probes = i % 3;
    s.delta.dramAccesses = i % 5;
    s.delta.dramWritebacks = i % 2;
    return s;
}

int
cmdRecord(int argc, char **argv)
{
    tracefmt::RecordKind kind = tracefmt::RecordKind::Power;
    std::uint64_t samples = 100000;
    TraceSpool::Config cfg;
    cfg.path = "trace.jtrc";
    std::string oraclePath;
    bool printRss = false;

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--kind" && i + 1 < argc) {
            const std::string k = argv[++i];
            if (k == "power") {
                kind = tracefmt::RecordKind::Power;
            } else if (k == "perf") {
                kind = tracefmt::RecordKind::Perf;
            } else {
                std::cerr << "javelin-trace: bad --kind " << k << "\n";
                return 2;
            }
        } else if (arg == "--samples" && i + 1 < argc) {
            if (!parseArg("--samples", argv[++i], samples))
                return 2;
        } else if (arg == "--buffer-bytes" && i + 1 < argc) {
            if (!parseArg("--buffer-bytes", argv[++i], cfg.bufferBytes))
                return 2;
        } else if (arg == "--out" && i + 1 < argc) {
            cfg.path = argv[++i];
        } else if (arg == "--csv-oracle" && i + 1 < argc) {
            oraclePath = argv[++i];
        } else if (arg == "--crash-after-blocks" && i + 1 < argc) {
            if (!parseArg("--crash-after-blocks", argv[++i],
                          cfg.crashAfterBlocks))
                return 2;
        } else if (arg == "--print-rss") {
            printRss = true;
        } else {
            return usage();
        }
    }
    cfg.kind = kind;

    // Oracle mode keeps every sample in memory (that IS the oracle);
    // plain mode must not, so the RSS check measures the spool alone.
    PowerTrace oraclePower;
    PerfTrace oraclePerf;
    {
        TraceSpool spool(cfg);
        for (std::uint64_t i = 0; i < samples; ++i) {
            if (kind == tracefmt::RecordKind::Power) {
                const PowerSample s = syntheticPower(i);
                spool.append(s);
                if (!oraclePath.empty())
                    oraclePower.push_back(s);
            } else {
                const PerfSample s = syntheticPerf(i);
                spool.append(s);
                if (!oraclePath.empty())
                    oraclePerf.push_back(s);
            }
        }
        spool.close();
        std::cerr << "javelin-trace: wrote " << spool.path() << ": "
                  << spool.recordsAppended() << " records, "
                  << spool.blocksWritten() << " blocks, "
                  << spool.bytesWritten() << " bytes\n";
    }

    if (!oraclePath.empty()) {
        std::ofstream out(oraclePath, std::ios::binary);
        if (!out) {
            std::cerr << "javelin-trace: cannot open " << oraclePath
                      << "\n";
            return 2;
        }
        if (kind == tracefmt::RecordKind::Power)
            writePowerCsv(out, oraclePower);
        else
            writePerfCsv(out, oraclePerf);
    }

    if (printRss) {
        struct rusage ru;
        getrusage(RUSAGE_SELF, &ru);
        std::cerr << "javelin-trace: max_rss_kb=" << ru.ru_maxrss
                  << "\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];

    if (cmd == "record")
        return cmdRecord(argc, argv);

    if (argc < 3)
        return usage();
    const std::string path = argv[2];

    if (cmd == "cat") {
        if (argc != 3)
            return usage();
        TraceReader reader(path);
        writeCsv(std::cout, reader,
                 reader.kind() == tracefmt::RecordKind::Power
                     ? reader.readPower()
                     : PowerTrace(),
                 reader.kind() == tracefmt::RecordKind::Perf
                     ? reader.readPerf()
                     : PerfTrace());
        return 0;
    }
    if (cmd == "index") {
        if (argc != 3)
            return usage();
        TraceReader reader(path);
        std::cout << "kind: "
                  << (reader.kind() == tracefmt::RecordKind::Power
                          ? "power"
                          : "perf")
                  << "\nblocks: " << reader.blocks().size()
                  << "\nrecords: " << reader.recordCount()
                  << "\nintact_bytes: " << reader.intactBytes()
                  << "\ntorn_tail: " << (reader.torn() ? "yes" : "no")
                  << "\n";
        std::cout << "offset,records,first_tick,last_tick,"
                     "component_mask\n";
        for (const auto &b : reader.blocks())
            std::cout << b.offset << ',' << b.recordCount << ','
                      << b.firstTick << ',' << b.lastTick << ','
                      << b.componentMask << '\n';
        return 0;
    }
    if (cmd == "export-csv") {
        if (argc != 4)
            return usage();
        std::ofstream out(argv[3], std::ios::binary);
        if (!out) {
            std::cerr << "javelin-trace: cannot open " << argv[3]
                      << "\n";
            return 2;
        }
        TraceReader reader(path);
        writeCsv(out, reader,
                 reader.kind() == tracefmt::RecordKind::Power
                     ? reader.readPower()
                     : PowerTrace(),
                 reader.kind() == tracefmt::RecordKind::Perf
                     ? reader.readPerf()
                     : PerfTrace());
        std::cerr << "javelin-trace: wrote " << argv[3] << " ("
                  << reader.recordCount() << " records"
                  << (reader.torn() ? ", torn tail dropped" : "")
                  << ")\n";
        return 0;
    }
    if (cmd == "range") {
        if (argc != 5)
            return usage();
        Tick from = 0;
        Tick to = 0;
        if (!parseArg("FROM_TICK", argv[3], from) ||
            !parseArg("TO_TICK", argv[4], to))
            return 2;
        TraceReader reader(path);
        writeCsv(std::cout, reader,
                 reader.kind() == tracefmt::RecordKind::Power
                     ? reader.readPowerRange(from, to)
                     : PowerTrace(),
                 reader.kind() == tracefmt::RecordKind::Perf
                     ? reader.readPerfRange(from, to)
                     : PerfTrace());
        return 0;
    }
    return usage();
}
