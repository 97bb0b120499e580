/**
 * @file
 * Simple column-oriented table builder used by the benchmark harness to
 * print paper-style result tables with aligned columns.
 */

#ifndef JAVELIN_UTIL_TABLE_HH
#define JAVELIN_UTIL_TABLE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace javelin {

/**
 * A growable table of string cells with typed convenience setters.
 *
 * Usage:
 * @code
 *   Table t({"bench", "heap(MB)", "EDP(Js)"});
 *   t.beginRow();
 *   t.cell("javac").cell(32).cell(1.25, 3);
 *   t.print(std::cout);
 * @endcode
 */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    /** Start a new row; subsequent cell() calls fill it left to right. */
    Table &beginRow();

    Table &cell(const std::string &s);
    Table &cell(const char *s);
    Table &cell(std::int64_t v);
    Table &cell(std::uint64_t v);
    Table &cell(int v) { return cell(static_cast<std::int64_t>(v)); }

    /** Fixed-precision floating point cell. */
    Table &cell(double v, int precision = 3);

    /** Percentage cell rendered as "12.3%". */
    Table &cellPct(double fraction, int precision = 1);

    std::size_t rows() const { return cells_.size(); }
    std::size_t columns() const { return headers_.size(); }
    const std::string &at(std::size_t row, std::size_t col) const;

    /** Pretty-print with aligned columns. */
    void print(std::ostream &os) const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> cells_;
};

} // namespace javelin

#endif // JAVELIN_UTIL_TABLE_HH
