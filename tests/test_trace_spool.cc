/**
 * @file
 * Tests for the asynchronous trace spool and the javelin-trace-v1
 * binary format: bit-identical spooled-vs-in-memory round trips
 * (differential fuzz across buffer sizes, writer schedules, and
 * backends), torn-tail recovery, mid-file corruption refusal,
 * fault-injected crashes, and the Daq/HpmSampler spool plumbing.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/component_port.hh"
#include "core/daq.hh"
#include "core/hpm_sampler.hh"
#include "core/trace_spool.hh"
#include "sim/platform.hh"

using namespace javelin;
using namespace javelin::core;
using sim::System;

namespace {

namespace fs = std::filesystem;

fs::path
scratchDir(const std::string &name)
{
    const fs::path dir =
        fs::temp_directory_path() / ("javelin_spool_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/**
 * Deterministic synthetic samples. The power shapes are
 * non-terminating binary fractions, so equality below is only
 * satisfiable by a bit-exact round trip.
 */
PowerSample
synthPower(std::uint64_t i)
{
    PowerSample s;
    s.tick = (i + 1) * 40 * kTicksPerMicro;
    s.windowTicks = i % 37 == 0 ? 0 : 40 * kTicksPerMicro;
    s.cpuWatts = 2.0 + static_cast<double>(i % 997) / 997.0;
    s.memWatts = 0.3 + static_cast<double>(i % 101) / 303.0;
    s.component = static_cast<ComponentId>(i % kNumComponents);
    return s;
}

PerfSample
synthPerf(std::uint64_t i)
{
    PerfSample s;
    s.tick = (i + 1) * kTicksPerMilli;
    s.component = static_cast<ComponentId>((i * 3) % kNumComponents);
    s.delta.cycles = 1000 + i % 400;
    s.delta.instructions = 700 + i % 350;
    s.delta.stallCycles = i % 90;
    s.delta.branches = 120 + i % 60;
    s.delta.branchMispredicts = i % 7;
    s.delta.l1iAccesses = 650 + i % 100;
    s.delta.l1iMisses = i % 11;
    s.delta.l1dAccesses = 300 + i % 200;
    s.delta.l1dMisses = i % 23;
    s.delta.l2Accesses = i % 34;
    s.delta.l2Misses = i % 5;
    s.delta.l2Probes = i % 3;
    s.delta.dramAccesses = i % 5;
    s.delta.dramWritebacks = i % 2;
    return s;
}

void
expectPowerEq(const PowerTrace &a, const PowerTrace &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].tick, b[i].tick) << "sample " << i;
        ASSERT_EQ(a[i].windowTicks, b[i].windowTicks) << "sample " << i;
        // Exact (bit-identical) double comparison, deliberately.
        ASSERT_EQ(a[i].cpuWatts, b[i].cpuWatts) << "sample " << i;
        ASSERT_EQ(a[i].memWatts, b[i].memWatts) << "sample " << i;
        ASSERT_EQ(a[i].component, b[i].component) << "sample " << i;
    }
}

void
expectPerfEq(const PerfTrace &a, const PerfTrace &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].tick, b[i].tick) << "sample " << i;
        ASSERT_EQ(a[i].component, b[i].component) << "sample " << i;
        const auto &x = a[i].delta;
        const auto &y = b[i].delta;
        ASSERT_EQ(x.cycles, y.cycles) << "sample " << i;
        ASSERT_EQ(x.instructions, y.instructions) << "sample " << i;
        ASSERT_EQ(x.stallCycles, y.stallCycles) << "sample " << i;
        ASSERT_EQ(x.branches, y.branches) << "sample " << i;
        ASSERT_EQ(x.branchMispredicts, y.branchMispredicts)
            << "sample " << i;
        ASSERT_EQ(x.l1iAccesses, y.l1iAccesses) << "sample " << i;
        ASSERT_EQ(x.l1iMisses, y.l1iMisses) << "sample " << i;
        ASSERT_EQ(x.l1dAccesses, y.l1dAccesses) << "sample " << i;
        ASSERT_EQ(x.l1dMisses, y.l1dMisses) << "sample " << i;
        ASSERT_EQ(x.l2Accesses, y.l2Accesses) << "sample " << i;
        ASSERT_EQ(x.l2Misses, y.l2Misses) << "sample " << i;
        ASSERT_EQ(x.l2Probes, y.l2Probes) << "sample " << i;
        ASSERT_EQ(x.dramAccesses, y.dramAccesses) << "sample " << i;
        ASSERT_EQ(x.dramWritebacks, y.dramWritebacks)
            << "sample " << i;
    }
}

/** Spool `count` synthetic power samples and return the oracle. */
PowerTrace
spoolPower(const TraceSpool::Config &cfg, std::uint64_t count)
{
    PowerTrace oracle;
    oracle.reserve(count);
    TraceSpool spool(cfg);
    for (std::uint64_t i = 0; i < count; ++i) {
        const PowerSample s = synthPower(i);
        spool.append(s);
        oracle.push_back(s);
    }
    spool.close();
    return oracle;
}

std::vector<char>
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
}

void
writeFile(const fs::path &path, const std::vector<char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

} // namespace

TEST(TraceSpool, PowerRoundTripIsBitIdentical)
{
    const fs::path dir = scratchDir("power_rt");
    TraceSpool::Config cfg;
    cfg.path = (dir / "t.jtrc").string();
    const PowerTrace oracle = spoolPower(cfg, 10000);

    TraceReader reader(cfg.path);
    EXPECT_EQ(reader.kind(), tracefmt::RecordKind::Power);
    EXPECT_FALSE(reader.torn());
    EXPECT_EQ(reader.recordCount(), oracle.size());
    expectPowerEq(reader.readPower(), oracle);
}

TEST(TraceSpool, PerfRoundTripIsBitIdentical)
{
    const fs::path dir = scratchDir("perf_rt");
    TraceSpool::Config cfg;
    cfg.path = (dir / "t.jtrc").string();
    cfg.kind = tracefmt::RecordKind::Perf;
    cfg.bufferBytes = 1 << 14;

    PerfTrace oracle;
    {
        TraceSpool spool(cfg);
        for (std::uint64_t i = 0; i < 20000; ++i) {
            const PerfSample s = synthPerf(i);
            spool.append(s);
            oracle.push_back(s);
        }
        spool.close();
    }
    TraceReader reader(cfg.path);
    EXPECT_EQ(reader.kind(), tracefmt::RecordKind::Perf);
    expectPerfEq(reader.readPerf(), oracle);
}

/**
 * The differential fuzz of the acceptance criteria: one synthetic
 * stream (> 1M samples over the matrix) spooled under every
 * combination of block size (including the minimum, one record per
 * block) and writer schedule (a slow writer forces the appender into
 * the backpressure wait). Every decode must be bit-identical to the
 * in-memory oracle.
 */
TEST(TraceSpool, DifferentialFuzzAcrossBuffersAndSchedules)
{
    const fs::path dir = scratchDir("fuzz");
    struct Case
    {
        std::size_t bufferBytes;
        unsigned writerDelayMicros;
        std::uint64_t samples;
    };
    const Case cases[] = {
        {1, 0, 20000},        // clamped to one record per block
        {256, 50, 20000},     // tiny blocks + slow writer
        {1 << 10, 0, 50000},  //
        {1 << 10, 20, 50000}, // backpressure at 1 KiB blocks
        {1 << 16, 0, 400000}, //
        {1 << 20, 0, 600000}, // default-sized blocks, bulk volume
    };
    std::size_t n = 0;
    std::uint64_t total = 0;
    for (const auto &c : cases) {
        TraceSpool::Config cfg;
        cfg.path = (dir / ("f" + std::to_string(n++))).string();
        cfg.bufferBytes = c.bufferBytes;
        cfg.writerDelayMicros = c.writerDelayMicros;
        const PowerTrace oracle = spoolPower(cfg, c.samples);
        total += c.samples;
        TraceReader reader(cfg.path);
        ASSERT_FALSE(reader.torn());
        expectPowerEq(reader.readPower(), oracle);
    }
    EXPECT_GE(total, 1000000u) << "fuzz volume fell below the 1M floor";
}

TEST(TraceSpool, RangeReadsMatchFilteredFullRead)
{
    const fs::path dir = scratchDir("range");
    TraceSpool::Config cfg;
    cfg.path = (dir / "t.jtrc").string();
    cfg.bufferBytes = 1 << 12;
    const PowerTrace oracle = spoolPower(cfg, 30000);

    TraceReader reader(cfg.path);
    ASSERT_GT(reader.blocks().size(), 4u);
    const Tick from = oracle[10000].tick;
    const Tick to = oracle[12345].tick;
    PowerTrace expected;
    for (const auto &s : oracle)
        if (s.tick >= from && s.tick <= to)
            expected.push_back(s);
    expectPowerEq(reader.readPowerRange(from, to), expected);
    // Degenerate ranges.
    EXPECT_TRUE(reader.readPowerRange(1, 2).empty());
    expectPowerEq(reader.readPowerRange(0, ~Tick(0)), oracle);
}

TEST(TraceSpool, TornTailIsDroppedAtEveryTruncationPoint)
{
    const fs::path dir = scratchDir("torn");
    TraceSpool::Config cfg;
    cfg.path = (dir / "t.jtrc").string();
    cfg.bufferBytes = 1 << 12;
    const PowerTrace oracle = spoolPower(cfg, 5000);
    const std::vector<char> whole = readFile(cfg.path);

    std::vector<TraceReader::BlockInfo> blocks;
    {
        TraceReader reader(cfg.path);
        blocks = reader.blocks();
        ASSERT_GT(blocks.size(), 3u);
    }

    // Truncate inside the final block at several depths: header
    // prefix, payload, and mid-footer. The reader must recover
    // exactly the records of the preceding intact blocks.
    const auto &last = blocks.back();
    std::uint64_t intactRecords = 0;
    for (std::size_t b = 0; b + 1 < blocks.size(); ++b)
        intactRecords += blocks[b].recordCount;
    const std::uint64_t tailLen = whole.size() - last.offset;
    for (const std::uint64_t cut :
         {std::uint64_t(1), std::uint64_t(7), std::uint64_t(8),
          std::uint64_t(9), tailLen / 2, tailLen - 1}) {
        const fs::path cutPath = dir / ("cut" + std::to_string(cut));
        std::vector<char> bytes(whole.begin(),
                                whole.begin() +
                                    static_cast<long>(last.offset +
                                                      cut));
        writeFile(cutPath, bytes);
        TraceReader reader(cutPath.string());
        EXPECT_TRUE(reader.torn()) << "cut " << cut;
        EXPECT_EQ(reader.recordCount(), intactRecords)
            << "cut " << cut;
        EXPECT_EQ(reader.intactBytes(), last.offset) << "cut " << cut;
        PowerTrace expected(oracle.begin(),
                            oracle.begin() +
                                static_cast<long>(intactRecords));
        expectPowerEq(reader.readPower(), expected);
    }

    // Truncation exactly at a block boundary is not a tear at all.
    {
        const fs::path cleanPath = dir / "clean_cut";
        std::vector<char> bytes(whole.begin(),
                                whole.begin() +
                                    static_cast<long>(last.offset));
        writeFile(cleanPath, bytes);
        TraceReader reader(cleanPath.string());
        EXPECT_FALSE(reader.torn());
        EXPECT_EQ(reader.recordCount(), intactRecords);
    }
}

TEST(TraceSpool, MidFileCorruptionIsRefused)
{
    const fs::path dir = scratchDir("corrupt");
    TraceSpool::Config cfg;
    cfg.path = (dir / "t.jtrc").string();
    cfg.bufferBytes = 1 << 12;
    spoolPower(cfg, 5000);
    const std::vector<char> whole = readFile(cfg.path);
    std::vector<TraceReader::BlockInfo> blocks;
    {
        TraceReader reader(cfg.path);
        blocks = reader.blocks();
        ASSERT_GT(blocks.size(), 3u);
    }

    // A flipped byte in an early block's footer: structural failure
    // before the tail, caught while indexing.
    {
        std::vector<char> bytes = whole;
        bytes[blocks[1].offset + tracefmt::kBlockHeaderBytes +
              blocks[1].recordCount * tracefmt::kPowerRecordBytes] ^=
            0x5A;
        const fs::path p = dir / "bad_footer";
        writeFile(p, bytes);
        EXPECT_EXIT(TraceReader reader(p.string()),
                    testing::ExitedWithCode(1), "block");
    }

    // A flipped byte inside an early payload: footer shape is fine,
    // so indexing succeeds, but decoding trips the payload CRC.
    {
        std::vector<char> bytes = whole;
        bytes[blocks[1].offset + tracefmt::kBlockHeaderBytes + 5] ^=
            0x5A;
        const fs::path p = dir / "bad_payload";
        writeFile(p, bytes);
        EXPECT_EXIT(
            {
                TraceReader reader(p.string());
                reader.readPower();
            },
            testing::ExitedWithCode(1), "payload CRC");
    }

    // A scrambled block magic is corruption wherever it appears.
    {
        std::vector<char> bytes = whole;
        bytes[blocks[1].offset] ^= 0xFF;
        const fs::path p = dir / "bad_magic";
        writeFile(p, bytes);
        EXPECT_EXIT(TraceReader reader(p.string()),
                    testing::ExitedWithCode(1), "bad magic");
    }

    // A damaged file header never reads as an empty trace.
    {
        std::vector<char> bytes = whole;
        bytes[1] ^= 0xFF;
        const fs::path p = dir / "bad_header";
        writeFile(p, bytes);
        EXPECT_EXIT(TraceReader reader(p.string()),
                    testing::ExitedWithCode(1), "magic");
    }
}

TEST(TraceSpool, CrashInjectionTearsTheFileMidBlock)
{
    const fs::path dir = scratchDir("crash");
    TraceSpool::Config cfg;
    cfg.path = (dir / "t.jtrc").string();
    cfg.bufferBytes = 1 << 12;
    cfg.crashAfterBlocks = 3;

    EXPECT_EXIT(spoolPower(cfg, 5000),
                testing::KilledBySignal(SIGKILL), "");

    // The death test ran in a child; the wreckage is on disk: two
    // intact blocks and a half-written third.
    TraceReader reader(cfg.path);
    EXPECT_TRUE(reader.torn());
    EXPECT_EQ(reader.blocks().size(), 2u);
    std::uint64_t intactRecords = reader.recordCount();
    ASSERT_GT(intactRecords, 0u);
    PowerTrace expected;
    for (std::uint64_t i = 0; i < intactRecords; ++i)
        expected.push_back(synthPower(i));
    expectPowerEq(reader.readPower(), expected);
}

TEST(TraceSpool, DaqTeeModeSpoolsBitIdenticalTrace)
{
    const fs::path dir = scratchDir("daq_tee");
    auto spec = sim::p6Spec();
    TraceSpool::Config sp;
    sp.path = (dir / "power.jtrc").string();
    sp.bufferBytes = 1 << 12;
    TraceSpool spool(sp);

    System sys(spec);
    core::ComponentPort port(sys);
    Daq::Config cfg;
    cfg.spool = &spool;
    Daq daq(sys, port, cfg);
    std::uint64_t i = 0;
    while (sys.cpu().now() < 20 * kTicksPerMilli) {
        if (++i % 5 == 0)
            port.rawWrite(static_cast<ComponentId>(i % kNumComponents));
        sys.cpu().execute(200, 0x1000 + (i % 64) * 64, 64);
        sys.poll();
    }
    spool.close();

    ASSERT_FALSE(daq.trace().empty());
    EXPECT_EQ(daq.samplesTaken(), daq.trace().size());
    TraceReader reader(sp.path);
    expectPowerEq(reader.readPower(), daq.trace());
}

TEST(TraceSpool, DaqSpoolOnlyModeMatchesInMemoryMeasurement)
{
    const fs::path dir = scratchDir("daq_only");
    const auto drive = [](System &sys, core::ComponentPort &port) {
        std::uint64_t i = 0;
        while (sys.cpu().now() < 20 * kTicksPerMilli) {
            if (++i % 7 == 0)
                port.rawWrite(
                    static_cast<ComponentId>(i % kNumComponents));
            sys.cpu().execute(150, 0x2000 + (i % 32) * 64, 64);
            sys.poll();
        }
    };

    // Reference run: plain in-memory capture.
    PowerTrace memTrace;
    double memCpuJ = 0, memMemJ = 0;
    {
        System sys(sim::p6Spec());
        core::ComponentPort port(sys);
        Daq daq(sys, port);
        drive(sys, port);
        memTrace = daq.trace();
        memCpuJ = daq.measuredCpuJoules();
        memMemJ = daq.measuredMemJoules();
    }

    // Spool-only run: keepInMemory off; RSS-flat path.
    {
        TraceSpool::Config sp;
        sp.path = (dir / "power.jtrc").string();
        TraceSpool spool(sp);
        System sys(sim::p6Spec());
        core::ComponentPort port(sys);
        Daq::Config cfg;
        cfg.spool = &spool;
        cfg.keepInMemory = false;
        Daq daq(sys, port, cfg);
        drive(sys, port);
        spool.close();

        EXPECT_TRUE(daq.trace().empty());
        EXPECT_EQ(daq.samplesTaken(), memTrace.size());
        // Measured energy must be bit-identical between modes: the
        // spool-only running sums accumulate in integrateCpuJoules
        // order.
        EXPECT_EQ(daq.measuredCpuJoules(), memCpuJ);
        EXPECT_EQ(daq.measuredMemJoules(), memMemJ);
        TraceReader reader(sp.path);
        expectPowerEq(reader.readPower(), memTrace);
        EXPECT_EQ(integrateCpuJoules(reader.readPower()), memCpuJ);
    }
}

TEST(TraceSpool, HpmSamplerSpoolsBitIdenticalPerfTrace)
{
    const fs::path dir = scratchDir("hpm_tee");
    TraceSpool::Config sp;
    sp.path = (dir / "perf.jtrc").string();
    sp.kind = tracefmt::RecordKind::Perf;
    TraceSpool spool(sp);

    System sys(sim::p6Spec());
    core::ComponentPort port(sys);
    core::HpmSampler::Config cfg;
    cfg.period = kTicksPerMilli;
    cfg.spool = &spool;
    core::HpmSampler hpm(sys, port, cfg);
    std::uint64_t i = 0;
    while (sys.cpu().now() < 30 * kTicksPerMilli) {
        if (++i % 3 == 0)
            port.rawWrite(static_cast<ComponentId>(i % kNumComponents));
        sys.cpu().execute(400, 0x8000 + (i % 128) * 64, 64);
        sys.poll();
    }
    spool.close();

    ASSERT_FALSE(hpm.trace().empty());
    TraceReader reader(sp.path);
    EXPECT_EQ(reader.kind(), tracefmt::RecordKind::Perf);
    expectPerfEq(reader.readPerf(), hpm.trace());
}

TEST(TraceSpool, MismatchedRecordKindPanics)
{
    const fs::path dir = scratchDir("kind");
    TraceSpool::Config cfg;
    cfg.path = (dir / "t.jtrc").string();
    cfg.kind = tracefmt::RecordKind::Perf;
    TraceSpool spool(cfg);
    // Kind mismatch is an internal invariant violation: panic/abort.
    EXPECT_EXIT(spool.append(synthPower(0)),
                testing::KilledBySignal(SIGABRT), "power");
    spool.append(synthPerf(0));
    spool.close();
}
