/**
 * @file
 * Double-buffered asynchronous trace spooling (DESIGN.md §10).
 *
 * TraceSpool takes PowerSample/PerfSample appends on the measured
 * path, encodes them into one of two fixed-size block buffers, and
 * hands sealed blocks to a dedicated writer thread, so capture memory
 * is bounded by the two buffers no matter how long the run is and the
 * simulation never blocks on file I/O unless it outruns the disk (at
 * which point the swap waits — backpressure, never data loss). Blocks
 * land on disk in the javelin-trace-v1 format (core/trace_format.hh):
 * framed, CRC-stamped, each carrying a footer index of its tick range
 * and component mask.
 *
 * The writer drains each sealed block with plain pwrite(2).
 *
 * TraceReader is the other half: it validates the file, builds the
 * block index from footers alone (no record decoding), recovers a
 * torn tail the way the job-engine journal does (drop the incomplete
 * final block, refuse corruption anywhere earlier), and serves whole
 * reads or tick-range reads that skip non-intersecting blocks.
 */

#ifndef JAVELIN_CORE_TRACE_SPOOL_HH
#define JAVELIN_CORE_TRACE_SPOOL_HH

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/trace_format.hh"
#include "core/traces.hh"

namespace javelin {
namespace core {

/**
 * Asynchronous double-buffered writer of javelin-trace-v1 files.
 */
class TraceSpool
{
  public:
    /**
     * The only write path. Backend, Config::backend and
     * backendFromEnv() exist only because perfbench still names them.
     */
    enum class Backend
    {
        /** pwrite(2) on the writer thread. */
        Pwrite,
    };

    struct Config
    {
        std::string path;
        tracefmt::RecordKind kind = tracefmt::RecordKind::Power;
        /**
         * Capacity of each of the two block buffers, frame overhead
         * included; also the on-disk block size. Clamped up so a
         * buffer always holds at least one record.
         */
        std::size_t bufferBytes = 1 << 20;
        Backend backend = Backend::Pwrite;
        /** fsync the file before closing it. */
        bool fsyncOnClose = false;
        /**
         * Fault injection (0 = off): the Nth block write is
         * deliberately torn — only half its bytes reach the file —
         * and SIGKILL is raised, leaving exactly the wreckage an
         * external kill mid-write would. Mirrors
         * JAVELIN_JOB_CRASH_AFTER; used by the CI kill-mid-spool
         * smoke and the torn-tail tests.
         */
        std::size_t crashAfterBlocks = 0;
        /**
         * Test hook: writer thread sleeps this long before each block
         * write, forcing the appender into the backpressure wait so
         * the differential fuzz can cover slow-disk schedules.
         */
        unsigned writerDelayMicros = 0;
    };

    explicit TraceSpool(Config config);
    ~TraceSpool();

    TraceSpool(const TraceSpool &) = delete;
    TraceSpool &operator=(const TraceSpool &) = delete;

    /** Append one power sample (kind must be Power). */
    void append(const PowerSample &s);
    /** Append one perf sample (kind must be Perf). */
    void append(const PerfSample &s);

    /**
     * Seal the partial block, drain the writer, close the file.
     * Idempotent; the destructor calls it. After close() the file is
     * complete and readable.
     */
    void close();

    const std::string &path() const { return config_.path; }
    tracefmt::RecordKind kind() const { return config_.kind; }
    std::uint64_t recordsAppended() const { return recordsAppended_; }

    /** Blocks fully written to the file so far (writer-side). */
    std::uint64_t blocksWritten() const;
    /** Bytes written to the file so far, header included. */
    std::uint64_t bytesWritten() const;

    /** Always Backend::Pwrite; reads no environment variable. */
    static Backend backendFromEnv();

  private:
    struct Buffer
    {
        std::vector<unsigned char> data;
        /** Next free byte (starts past the block header). */
        std::size_t fill = 0;
        std::uint32_t recordCount = 0;
        Tick firstTick = 0;
        Tick lastTick = 0;
        std::uint32_t componentMask = 0;
        bool sealed = false;
        bool inFlight = false;
    };

    void appendEncoded(Tick tick, std::uint32_t componentBit,
                       const unsigned char *rec, std::size_t len);
    void sealActive();
    void writerLoop();
    void pwriteAll(const unsigned char *data, std::size_t len);

    Config config_;
    std::size_t recordBytes_ = 0;
    int fd_ = -1;
    std::uint64_t recordsAppended_ = 0;

    Buffer buffers_[2];
    int active_ = 0;

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<int> sealedQueue_;
    bool stopping_ = false;
    bool closed_ = false;
    std::uint64_t blocksWritten_ = 0;
    std::uint64_t fileOffset_ = 0;
    std::thread writer_;
};

/**
 * Reader/recovery side of javelin-trace-v1 files.
 */
class TraceReader
{
  public:
    /** One entry of the block index, straight from the footers. */
    struct BlockInfo
    {
        /** Byte offset of the block header in the file. */
        std::uint64_t offset = 0;
        std::uint32_t recordCount = 0;
        Tick firstTick = 0;
        Tick lastTick = 0;
        std::uint32_t componentMask = 0;
    };

    /**
     * Open and index a trace file. Fails through JAVELIN_FATAL on
     * structural corruption anywhere before the final block; a torn
     * final block is dropped and reported via torn().
     */
    explicit TraceReader(const std::string &path);
    ~TraceReader();

    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    tracefmt::RecordKind kind() const { return kind_; }
    const std::vector<BlockInfo> &blocks() const { return blocks_; }
    /** True when an incomplete final block was dropped on open. */
    bool torn() const { return torn_; }
    /** Bytes of the file covered by intact blocks (incl. header). */
    std::uint64_t intactBytes() const { return intactBytes_; }
    std::uint64_t recordCount() const;

    /** Decode every record (payload CRCs verified per block). */
    PowerTrace readPower() const;
    PerfTrace readPerf() const;

    /**
     * Decode only records with tick in [fromTick, toTick], consulting
     * the block index to skip blocks that cannot intersect the range.
     */
    PowerTrace readPowerRange(Tick fromTick, Tick toTick) const;
    PerfTrace readPerfRange(Tick fromTick, Tick toTick) const;

  private:
    std::vector<unsigned char> blockPayload(const BlockInfo &b) const;

    std::string path_;
    int fd_ = -1;
    tracefmt::RecordKind kind_ = tracefmt::RecordKind::Power;
    std::size_t recordBytes_ = 0;
    std::vector<BlockInfo> blocks_;
    bool torn_ = false;
    std::uint64_t intactBytes_ = 0;
};

} // namespace core
} // namespace javelin

#endif // JAVELIN_CORE_TRACE_SPOOL_HH
