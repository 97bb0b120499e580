#include "core/trace_io.hh"

#include <charconv>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <system_error>

#include "util/logging.hh"
#include "util/parse.hh"
#include "util/units.hh"

namespace javelin {
namespace core {

namespace {

/**
 * Shortest representation that round-trips the exact double
 * (std::to_chars with no precision argument), so a written trace
 * parses back bit-identical — default ostream precision (6) loses
 * low-order bits on every power value.
 */
void
writeDouble(std::ostream &os, double v)
{
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    os.write(buf, res.ptr - buf);
}

} // namespace

void
writePowerCsv(std::ostream &os, const PowerTrace &trace)
{
    os << "tick,us,window_ticks,cpu_watts,mem_watts,component\n";
    for (const auto &s : trace) {
        os << s.tick << ',';
        writeDouble(os, static_cast<double>(s.tick) / kTicksPerMicro);
        os << ',' << s.windowTicks << ',';
        writeDouble(os, s.cpuWatts);
        os << ',';
        writeDouble(os, s.memWatts);
        os << ',' << componentName(s.component) << '\n';
    }
}

void
writePerfCsv(std::ostream &os, const PerfTrace &trace)
{
    os << "tick,component,cycles,instructions,stall_cycles,"
          "l1d_accesses,l1d_misses,l2_accesses,l2_misses,"
          "dram_accesses,ipc,l2_miss_rate\n";
    for (const auto &s : trace) {
        const auto &d = s.delta;
        os << s.tick << ',' << componentName(s.component) << ','
           << d.cycles << ',' << d.instructions << ',' << d.stallCycles
           << ',' << d.l1dAccesses << ',' << d.l1dMisses << ','
           << d.l2Accesses << ',' << d.l2Misses << ','
           << d.dramAccesses << ',';
        writeDouble(os, d.ipc());
        os << ',';
        writeDouble(os, d.l2MissRate());
        os << '\n';
    }
}

namespace {

ComponentId
componentByName(const std::string &name, std::size_t lineNo)
{
    for (std::size_t i = 0; i < kNumComponents; ++i) {
        const auto id = static_cast<ComponentId>(i);
        if (componentName(id) == name)
            return id;
    }
    JAVELIN_FATAL("power CSV line ", lineNo,
                  ": unknown component in trace: ", name);
}

/** Split the next comma field; fatal (with line number) if missing. */
std::string
nextField(std::istringstream &ls, std::size_t lineNo, const char *what)
{
    std::string field;
    if (!std::getline(ls, field, ','))
        JAVELIN_FATAL("power CSV line ", lineNo, ": missing ", what,
                      " field");
    return field;
}

/**
 * Strict full-field numeric parses: a malformed field fails through
 * JAVELIN_FATAL naming the line and the offending text (matching
 * util/json's line-numbered diagnostics) instead of escaping as an
 * uncaught std::invalid_argument from std::stoull/std::stod.
 */
std::uint64_t
parseU64Field(const std::string &field, std::size_t lineNo,
              const char *what)
{
    const auto v = parseUnsigned<std::uint64_t>(field);
    if (!v)
        JAVELIN_FATAL("power CSV line ", lineNo, ": malformed ", what,
                      " field '", field, "'");
    return *v;
}

double
parseDoubleField(const std::string &field, std::size_t lineNo,
                 const char *what)
{
    double v = 0.0;
    const char *first = field.data();
    const char *last = field.data() + field.size();
    const auto res = std::from_chars(first, last, v);
    if (res.ec != std::errc() || res.ptr != last || field.empty())
        JAVELIN_FATAL("power CSV line ", lineNo, ": malformed ", what,
                      " field '", field, "'");
    return v;
}

} // namespace

PowerTrace
readPowerCsv(std::istream &is)
{
    PowerTrace trace;
    std::string line;
    if (!std::getline(is, line))
        return trace; // empty input: empty trace
    if (line.rfind("tick,", 0) != 0)
        JAVELIN_FATAL("power CSV missing header");
    std::size_t lineNo = 1;
    while (std::getline(is, line)) {
        ++lineNo;
        if (line.empty())
            continue;
        std::istringstream ls(line);
        PowerSample s;

        s.tick = static_cast<Tick>(
            parseU64Field(nextField(ls, lineNo, "tick"), lineNo,
                          "tick"));
        nextField(ls, lineNo, "us"); // derived microseconds (ignored)
        s.windowTicks = static_cast<Tick>(
            parseU64Field(nextField(ls, lineNo, "window"), lineNo,
                          "window"));
        s.cpuWatts =
            parseDoubleField(nextField(ls, lineNo, "cpu watts"),
                             lineNo, "cpu watts");
        s.memWatts =
            parseDoubleField(nextField(ls, lineNo, "mem watts"),
                             lineNo, "mem watts");
        s.component =
            componentByName(nextField(ls, lineNo, "component"),
                            lineNo);
        trace.push_back(s);
    }
    return trace;
}

} // namespace core
} // namespace javelin
