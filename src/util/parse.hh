/**
 * @file
 * Strict unsigned-decimal parsing for command-line flags and
 * environment variables, where std::strtoul would silently read "abc"
 * as 0 and "2x" as 2.
 */

#ifndef JAVELIN_UTIL_PARSE_HH
#define JAVELIN_UTIL_PARSE_HH

#include <charconv>
#include <optional>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace javelin {

/**
 * Parse `text` as an unsigned decimal of type T: one or more digits
 * and nothing else (no sign, no whitespace, no trailing characters),
 * with a value that fits in T. Anything else returns nullopt.
 */
template <typename T>
std::optional<T>
parseUnsigned(std::string_view text)
{
    static_assert(std::is_unsigned_v<T>);
    T value = 0;
    const char *last = text.data() + text.size();
    const auto res = std::from_chars(text.data(), last, value);
    if (text.empty() || res.ec != std::errc() || res.ptr != last)
        return std::nullopt;
    return value;
}

} // namespace javelin

#endif // JAVELIN_UTIL_PARSE_HH
