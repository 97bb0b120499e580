#include "core/trace_spool.hh"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/logging.hh"

namespace javelin {
namespace core {

using namespace tracefmt;

// ---------------------------------------------------------------------
// TraceSpool
// ---------------------------------------------------------------------

TraceSpool::Backend
TraceSpool::backendFromEnv()
{
    return Backend::Pwrite;
}

TraceSpool::TraceSpool(Config config) : config_(std::move(config))
{
    recordBytes_ = tracefmt::recordBytes(config_.kind);
    const std::size_t minBytes =
        kBlockHeaderBytes + recordBytes_ + kBlockFooterBytes;
    if (config_.bufferBytes < minBytes)
        config_.bufferBytes = minBytes;

    JAVELIN_ASSERT(!config_.path.empty(), "trace spool needs a path");
    fd_ = ::open(config_.path.c_str(),
                 O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
    if (fd_ < 0)
        JAVELIN_FATAL("trace spool: cannot create ", config_.path, ": ",
                      std::strerror(errno));

    unsigned char header[kFileHeaderBytes];
    encodeFileHeader(config_.kind, header);
    pwriteAll(header, kFileHeaderBytes);
    fileOffset_ = kFileHeaderBytes;

    for (auto &b : buffers_) {
        b.data.resize(config_.bufferBytes);
        b.fill = kBlockHeaderBytes;
    }

    writer_ = std::thread([this] { writerLoop(); });
}

TraceSpool::~TraceSpool()
{
    close();
}

void
TraceSpool::append(const PowerSample &s)
{
    JAVELIN_ASSERT(config_.kind == RecordKind::Power,
                   "power append on a perf spool");
    unsigned char rec[kPowerRecordBytes];
    encodePowerRecord(s, rec);
    appendEncoded(s.tick,
                  1u << static_cast<std::uint32_t>(
                      componentIndex(s.component)),
                  rec, kPowerRecordBytes);
}

void
TraceSpool::append(const PerfSample &s)
{
    JAVELIN_ASSERT(config_.kind == RecordKind::Perf,
                   "perf append on a power spool");
    unsigned char rec[kPerfRecordBytes];
    encodePerfRecord(s, rec);
    appendEncoded(s.tick,
                  1u << static_cast<std::uint32_t>(
                      componentIndex(s.component)),
                  rec, kPerfRecordBytes);
}

void
TraceSpool::appendEncoded(Tick tick, std::uint32_t componentBit,
                          const unsigned char *rec, std::size_t len)
{
    JAVELIN_ASSERT(!closed_, "append on a closed trace spool");
    Buffer *b = &buffers_[active_];
    if (b->fill + len + kBlockFooterBytes > b->data.size()) {
        sealActive();
        b = &buffers_[active_];
    }
    std::memcpy(b->data.data() + b->fill, rec, len);
    b->fill += len;
    if (b->recordCount == 0) {
        b->firstTick = tick;
        b->lastTick = tick;
    } else {
        b->firstTick = std::min(b->firstTick, tick);
        b->lastTick = std::max(b->lastTick, tick);
    }
    b->componentMask |= componentBit;
    ++b->recordCount;
    ++recordsAppended_;
}

void
TraceSpool::sealActive()
{
    Buffer &b = buffers_[active_];
    if (b.recordCount == 0)
        return;

    const std::size_t payloadBytes = b.fill - kBlockHeaderBytes;
    encodeBlockHeader(static_cast<std::uint32_t>(payloadBytes),
                      b.data.data());
    BlockFooter footer;
    footer.firstTick = b.firstTick;
    footer.lastTick = b.lastTick;
    footer.recordCount = b.recordCount;
    footer.componentMask = b.componentMask;
    footer.payloadCrc =
        crc32(b.data.data() + kBlockHeaderBytes, payloadBytes);
    encodeBlockFooter(footer, b.data.data() + b.fill);
    b.fill += kBlockFooterBytes;

    const int next = active_ ^ 1;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        b.sealed = true;
        sealedQueue_.push_back(active_);
        cv_.notify_all();
        // Backpressure: the other buffer must be drained before it
        // can fill. Capture memory stays bounded by the two buffers.
        cv_.wait(lock, [&] {
            return !buffers_[next].sealed && !buffers_[next].inFlight;
        });
    }
    active_ = next;
    Buffer &a = buffers_[active_];
    a.fill = kBlockHeaderBytes;
    a.recordCount = 0;
    a.firstTick = 0;
    a.lastTick = 0;
    a.componentMask = 0;
}

void
TraceSpool::writerLoop()
{
    for (;;) {
        int idx;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [&] {
                return stopping_ || !sealedQueue_.empty();
            });
            if (sealedQueue_.empty()) {
                if (stopping_)
                    return;
                continue;
            }
            idx = sealedQueue_.front();
            sealedQueue_.erase(sealedQueue_.begin());
            buffers_[idx].inFlight = true;
            buffers_[idx].sealed = false;
        }
        if (config_.writerDelayMicros)
            ::usleep(config_.writerDelayMicros);

        Buffer &b = buffers_[idx];
        const bool crashThisBlock =
            config_.crashAfterBlocks != 0 &&
            blocksWritten_ + 1 >= config_.crashAfterBlocks;
        if (crashThisBlock) {
            // Fault injection: tear this block halfway through its
            // write and die as an external SIGKILL would leave the
            // file — the torn-tail rule's natural habitat.
            pwriteAll(b.data.data(), b.fill / 2);
            std::raise(SIGKILL);
        }
        pwriteAll(b.data.data(), b.fill);

        {
            std::lock_guard<std::mutex> lock(mutex_);
            fileOffset_ += b.fill;
            ++blocksWritten_;
            b.inFlight = false;
        }
        cv_.notify_all();
    }
}

void
TraceSpool::pwriteAll(const unsigned char *data, std::size_t len)
{
    std::size_t done = 0;
    while (done < len) {
        const ssize_t n =
            ::pwrite(fd_, data + done, len - done,
                     static_cast<off_t>(fileOffset_ + done));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            JAVELIN_FATAL("trace spool: write to ", config_.path,
                          " failed: ", std::strerror(errno));
        }
        done += static_cast<std::size_t>(n);
    }
}

void
TraceSpool::close()
{
    if (closed_)
        return;
    sealActive();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    if (writer_.joinable())
        writer_.join();
    if (config_.fsyncOnClose && ::fsync(fd_) != 0)
        JAVELIN_FATAL("trace spool: fsync of ", config_.path,
                      " failed: ", std::strerror(errno));
    ::close(fd_);
    fd_ = -1;
    closed_ = true;
}

std::uint64_t
TraceSpool::blocksWritten() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return blocksWritten_;
}

std::uint64_t
TraceSpool::bytesWritten() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return fileOffset_;
}

// ---------------------------------------------------------------------
// TraceReader
// ---------------------------------------------------------------------

namespace {

/** pread exactly len bytes; false on EOF-short reads. */
bool
preadAll(int fd, unsigned char *out, std::size_t len,
         std::uint64_t offset, const std::string &path)
{
    std::size_t done = 0;
    while (done < len) {
        const ssize_t n = ::pread(fd, out + done, len - done,
                                  static_cast<off_t>(offset + done));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            JAVELIN_FATAL("trace reader: read of ", path, " failed: ",
                          std::strerror(errno));
        }
        if (n == 0)
            return false;
        done += static_cast<std::size_t>(n);
    }
    return true;
}

} // namespace

TraceReader::TraceReader(const std::string &path) : path_(path)
{
    fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd_ < 0)
        JAVELIN_FATAL("trace reader: cannot open ", path, ": ",
                      std::strerror(errno));
    struct stat st;
    if (::fstat(fd_, &st) != 0)
        JAVELIN_FATAL("trace reader: cannot stat ", path);
    const std::uint64_t fileSize =
        static_cast<std::uint64_t>(st.st_size);

    if (fileSize < kFileHeaderBytes)
        JAVELIN_FATAL(path, ": too short for a javelin-trace file (",
                      fileSize, " bytes)");
    unsigned char header[kFileHeaderBytes];
    preadAll(fd_, header, kFileHeaderBytes, 0, path_);
    kind_ = decodeFileHeader(header, path.c_str());
    recordBytes_ = tracefmt::recordBytes(kind_);

    // Block scan: hop header-to-header, validate footers, apply the
    // torn-tail rule (see trace_format.hh).
    std::uint64_t off = kFileHeaderBytes;
    while (off < fileSize) {
        const std::uint64_t remaining = fileSize - off;
        if (remaining < kBlockHeaderBytes) {
            torn_ = true; // tear inside a block header
            break;
        }
        unsigned char bh[kBlockHeaderBytes];
        preadAll(fd_, bh, kBlockHeaderBytes, off, path_);
        if (getU32(bh) != kBlockMagic)
            JAVELIN_FATAL(path, ": corrupt block header at offset ",
                          off, " (bad magic)");
        const std::uint64_t payloadBytes = getU32(bh + 4);
        if (payloadBytes == 0 || payloadBytes % recordBytes_ != 0)
            JAVELIN_FATAL(path, ": corrupt block header at offset ",
                          off, " (payload length ", payloadBytes, ")");
        const std::uint64_t blockEnd =
            off + kBlockHeaderBytes + payloadBytes + kBlockFooterBytes;
        if (blockEnd > fileSize) {
            torn_ = true; // tear inside payload or footer
            break;
        }

        unsigned char fb[kBlockFooterBytes];
        preadAll(fd_, fb, kBlockFooterBytes,
                 off + kBlockHeaderBytes + payloadBytes, path_);
        BlockFooter footer;
        const bool footerOk =
            decodeBlockFooter(fb, footer) &&
            footer.recordCount * recordBytes_ == payloadBytes &&
            footer.firstTick <= footer.lastTick;
        if (!footerOk) {
            if (blockEnd == fileSize) {
                torn_ = true; // corrupt final block: drop it
                break;
            }
            JAVELIN_FATAL(path, ": corrupt block footer at offset ",
                          off + kBlockHeaderBytes + payloadBytes,
                          " (not at the end of the file)");
        }

        BlockInfo info;
        info.offset = off;
        info.recordCount = footer.recordCount;
        info.firstTick = footer.firstTick;
        info.lastTick = footer.lastTick;
        info.componentMask = footer.componentMask;
        blocks_.push_back(info);
        off = blockEnd;
    }
    intactBytes_ = blocks_.empty()
                       ? kFileHeaderBytes
                       : blocks_.back().offset + kBlockHeaderBytes +
                             blocks_.back().recordCount * recordBytes_ +
                             kBlockFooterBytes;
}

TraceReader::~TraceReader()
{
    if (fd_ >= 0)
        ::close(fd_);
}

std::uint64_t
TraceReader::recordCount() const
{
    std::uint64_t n = 0;
    for (const auto &b : blocks_)
        n += b.recordCount;
    return n;
}

std::vector<unsigned char>
TraceReader::blockPayload(const BlockInfo &b) const
{
    const std::size_t payloadBytes = b.recordCount * recordBytes_;
    std::vector<unsigned char> payload(payloadBytes);
    preadAll(fd_, payload.data(), payloadBytes,
             b.offset + kBlockHeaderBytes, path_);

    unsigned char fb[kBlockFooterBytes];
    preadAll(fd_, fb, kBlockFooterBytes,
             b.offset + kBlockHeaderBytes + payloadBytes, path_);
    BlockFooter footer;
    if (!decodeBlockFooter(fb, footer) ||
        crc32(payload.data(), payloadBytes) != footer.payloadCrc)
        JAVELIN_FATAL(path_, ": block payload CRC mismatch at offset ",
                      b.offset);
    return payload;
}

PowerTrace
TraceReader::readPower() const
{
    return readPowerRange(0, ~static_cast<Tick>(0));
}

PerfTrace
TraceReader::readPerf() const
{
    return readPerfRange(0, ~static_cast<Tick>(0));
}

PowerTrace
TraceReader::readPowerRange(Tick fromTick, Tick toTick) const
{
    JAVELIN_ASSERT(kind_ == RecordKind::Power,
                   "power read on a perf trace");
    PowerTrace out;
    for (const auto &b : blocks_) {
        if (b.lastTick < fromTick || b.firstTick > toTick)
            continue; // index seek: block cannot intersect the range
        const auto payload = blockPayload(b);
        for (std::uint32_t i = 0; i < b.recordCount; ++i) {
            const unsigned char *rec =
                payload.data() + i * kPowerRecordBytes;
            const Tick t = recordTick(rec);
            if (t < fromTick || t > toTick)
                continue;
            out.push_back(decodePowerRecord(rec));
        }
    }
    return out;
}

PerfTrace
TraceReader::readPerfRange(Tick fromTick, Tick toTick) const
{
    JAVELIN_ASSERT(kind_ == RecordKind::Perf,
                   "perf read on a power trace");
    PerfTrace out;
    for (const auto &b : blocks_) {
        if (b.lastTick < fromTick || b.firstTick > toTick)
            continue;
        const auto payload = blockPayload(b);
        for (std::uint32_t i = 0; i < b.recordCount; ++i) {
            const unsigned char *rec =
                payload.data() + i * kPerfRecordBytes;
            const Tick t = recordTick(rec);
            if (t < fromTick || t > toTick)
                continue;
            out.push_back(decodePerfRecord(rec));
        }
    }
    return out;
}

} // namespace core
} // namespace javelin
