#include "util/json.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <ostream>
#include <sstream>

#include "util/parse.hh"

namespace javelin {
namespace json {

namespace {

/** Recursive-descent parser over a flat buffer with line tracking. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    Value
    run()
    {
        Value v = parseValue();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing content after the document");
        return v;
    }

  private:
    const std::string &text_;
    std::size_t pos_ = 0;
    int line_ = 1;

    [[noreturn]] void
    fail(const std::string &msg) const
    {
        throw ParseError(line_, msg);
    }

    bool
    atEnd() const
    {
        return pos_ >= text_.size();
    }

    char
    peek() const
    {
        return text_[pos_];
    }

    char
    advance()
    {
        const char c = text_[pos_++];
        if (c == '\n')
            ++line_;
        return c;
    }

    void
    skipWs()
    {
        while (!atEnd()) {
            const char c = peek();
            if (c == ' ' || c == '\t' || c == '\r' || c == '\n')
                advance();
            else
                break;
        }
    }

    void
    expect(char c)
    {
        if (atEnd() || peek() != c)
            fail(std::string("expected '") + c + "'");
        advance();
    }

    bool
    consumeIf(char c)
    {
        if (!atEnd() && peek() == c) {
            advance();
            return true;
        }
        return false;
    }

    void
    expectKeyword(const char *word)
    {
        for (const char *p = word; *p; ++p) {
            if (atEnd() || peek() != *p)
                fail(std::string("invalid token (expected \"") + word +
                     "\")");
            advance();
        }
    }

    Value
    parseValue()
    {
        skipWs();
        if (atEnd())
            fail("unexpected end of input");
        Value v;
        v.line = line_;
        switch (peek()) {
          case '{':
            parseObject(v);
            return v;
          case '[':
            parseArray(v);
            return v;
          case '"':
            v.kind = Value::Kind::String;
            v.str = parseString();
            return v;
          case 't':
            expectKeyword("true");
            v.kind = Value::Kind::Bool;
            v.boolean = true;
            return v;
          case 'f':
            expectKeyword("false");
            v.kind = Value::Kind::Bool;
            v.boolean = false;
            return v;
          case 'n':
            expectKeyword("null");
            v.kind = Value::Kind::Null;
            return v;
          default:
            parseNumber(v);
            return v;
        }
    }

    void
    parseObject(Value &v)
    {
        v.kind = Value::Kind::Object;
        expect('{');
        skipWs();
        if (consumeIf('}'))
            return;
        for (;;) {
            skipWs();
            if (atEnd() || peek() != '"')
                fail("expected a quoted object key");
            const int keyLine = line_;
            std::string key = parseString();
            for (const auto &m : v.members)
                if (m.first == key)
                    throw ParseError(keyLine, "duplicate key \"" + key +
                                                  "\"");
            skipWs();
            expect(':');
            v.members.emplace_back(std::move(key), parseValue());
            skipWs();
            if (consumeIf(','))
                continue;
            expect('}');
            return;
        }
    }

    void
    parseArray(Value &v)
    {
        v.kind = Value::Kind::Array;
        expect('[');
        skipWs();
        if (consumeIf(']'))
            return;
        for (;;) {
            v.items.push_back(parseValue());
            skipWs();
            if (consumeIf(','))
                continue;
            expect(']');
            return;
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (atEnd())
                fail("unterminated string");
            const char c = advance();
            if (c == '"')
                return out;
            if (c == '\n')
                fail("raw newline in string");
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (atEnd())
                fail("unterminated escape");
            const char e = advance();
            switch (e) {
              case '"': out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/': out.push_back('/'); break;
              case 'b': out.push_back('\b'); break;
              case 'f': out.push_back('\f'); break;
              case 'n': out.push_back('\n'); break;
              case 'r': out.push_back('\r'); break;
              case 't': out.push_back('\t'); break;
              case 'u': out += parseUnicodeEscape(); break;
              default: fail("invalid escape");
            }
        }
    }

    std::string
    parseUnicodeEscape()
    {
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
            if (atEnd() || !std::isxdigit(
                               static_cast<unsigned char>(peek())))
                fail("invalid \\u escape");
            const char c = advance();
            code = code * 16 +
                   static_cast<unsigned>(
                       std::isdigit(static_cast<unsigned char>(c))
                           ? c - '0'
                           : std::tolower(c) - 'a' + 10);
        }
        // UTF-8 encode (BMP only; surrogate pairs are not needed by any
        // javelin format and are rejected for simplicity).
        if (code >= 0xd800 && code <= 0xdfff)
            fail("surrogate \\u escapes are not supported");
        std::string out;
        if (code < 0x80) {
            out.push_back(static_cast<char>(code));
        } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
        } else {
            out.push_back(static_cast<char>(0xe0 | (code >> 12)));
            out.push_back(
                static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
        }
        return out;
    }

    void
    parseNumber(Value &v)
    {
        const std::size_t start = pos_;
        if (consumeIf('-')) {
        }
        if (atEnd() || !std::isdigit(static_cast<unsigned char>(peek())))
            fail("invalid number");
        while (!atEnd() &&
               std::isdigit(static_cast<unsigned char>(peek())))
            advance();
        if (consumeIf('.')) {
            if (atEnd() ||
                !std::isdigit(static_cast<unsigned char>(peek())))
                fail("digits required after the decimal point");
            while (!atEnd() &&
                   std::isdigit(static_cast<unsigned char>(peek())))
                advance();
        }
        if (!atEnd() && (peek() == 'e' || peek() == 'E')) {
            advance();
            if (!atEnd() && (peek() == '+' || peek() == '-'))
                advance();
            if (atEnd() ||
                !std::isdigit(static_cast<unsigned char>(peek())))
                fail("digits required in the exponent");
            while (!atEnd() &&
                   std::isdigit(static_cast<unsigned char>(peek())))
                advance();
        }
        v.kind = Value::Kind::Number;
        v.raw = text_.substr(start, pos_ - start);
        v.number = std::strtod(v.raw.c_str(), nullptr);
    }
};

} // namespace

const Value *
Value::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &m : members)
        if (m.first == key)
            return &m.second;
    return nullptr;
}

void
Value::typeError(const char *wanted) const
{
    static const char *const names[] = {"null",   "bool",  "number",
                                        "string", "array", "object"};
    throw ParseError(line, std::string("expected ") + wanted +
                               ", got " +
                               names[static_cast<int>(kind)]);
}

bool
Value::asBool() const
{
    if (kind != Kind::Bool)
        typeError("a boolean");
    return boolean;
}

double
Value::asDouble() const
{
    if (kind != Kind::Number)
        typeError("a number");
    return number;
}

std::uint64_t
Value::asU64() const
{
    if (kind != Kind::Number || raw.find_first_of(".eE-") !=
                                    std::string::npos)
        typeError("a non-negative integer");
    const auto v = parseUnsigned<std::uint64_t>(raw);
    if (!v)
        typeError("a 64-bit unsigned integer");
    return *v;
}

std::int64_t
Value::asI64() const
{
    if (kind != Kind::Number ||
        raw.find_first_of(".eE") != std::string::npos)
        typeError("an integer");
    errno = 0;
    char *end = nullptr;
    const long long v = std::strtoll(raw.c_str(), &end, 10);
    if (errno == ERANGE || end == raw.c_str() || *end != '\0')
        typeError("a 64-bit signed integer");
    return v;
}

const std::string &
Value::asString() const
{
    if (kind != Kind::String)
        typeError("a string");
    return str;
}

Value
parse(const std::string &text)
{
    return Parser(text).run();
}

void
writeString(std::ostream &os, const std::string &s)
{
    os << '"';
    for (const char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\r': os << "\\r"; break;
          case '\t': os << "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                static const char *hex = "0123456789abcdef";
                os << "\\u00" << hex[(c >> 4) & 0xf] << hex[c & 0xf];
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

void
writeNumber(std::ostream &os, double v)
{
    if (!std::isfinite(v)) {
        os << "null";
        return;
    }
    std::ostringstream tmp;
    tmp.precision(17);
    tmp << v;
    os << tmp.str();
}

} // namespace json
} // namespace javelin
