#include "json.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string_view>

namespace prosperity::json {

namespace {

/**
 * Locale-independent string -> double. Returns false for magnitudes
 * outside double range (subnormals are fine); the caller guarantees
 * [first, last) is a syntactically valid JSON number.
 */
bool
parseDoubleClassic(const char* first, const char* last, double& out)
{
    return std::from_chars(first, last, out).ec == std::errc();
}

/**
 * The contract's reference form: std::to_chars in general format at
 * precision p is printf's %.*g in the C locale, and the smallest p of
 * 15, 16, 17 whose parse-back is bitwise v wins (17 significant digits
 * always round-trip).
 */
void
appendPrecisionLoop(std::string& out, double v)
{
    char buf[32];
    for (int precision = 15;; ++precision) {
        char* const end = std::to_chars(buf, buf + sizeof buf, v,
                                        std::chars_format::general,
                                        precision)
                              .ptr;
        double back = 0.0;
        if (precision == 17 || (parseDoubleClassic(buf, end, back) &&
                                std::memcmp(&back, &v, sizeof v) == 0)) {
            out.append(buf, end);
            return;
        }
    }
}

} // namespace

void
appendDouble(std::string& out, double v)
{
    if (std::isnan(v)) {
        out += "nan";
        return;
    }
    if (std::isinf(v)) {
        out += v > 0.0 ? "inf" : "-inf";
        return;
    }
    char buf[32];
    // Integral fast path: every |v| < 2^53 integer is exact in double,
    // so plain decimal digits round-trip and read better than 1e+06.
    if (v == std::floor(v) && std::fabs(v) < 9007199254740992.0) {
        if (v == 0.0)
            out += std::signbit(v) ? "-0" : "0";
        else
            out.append(buf, std::to_chars(buf, buf + sizeof buf,
                                          static_cast<long long>(v))
                                .ptr);
        return;
    }
    // The shortest digits that round-trip (Ryu), as d.ddde+XX.
    const char* const first = buf;
    const char* const end =
        std::to_chars(buf, buf + sizeof buf, v, std::chars_format::scientific)
            .ptr;
    const char* const e = std::find(first, end, 'e');
    const char* const lead = first + (v < 0.0);
    // Significant digits; a lone digit has no decimal point.
    const int digits = static_cast<int>(e - lead) - (e - lead > 1);
    // The two kinds of value whose %.Pg digits may not be the shortest
    // ones (json.h): subnormals, and powers of two with 16 digits.
    if (std::fabs(v) < std::numeric_limits<double>::min() ||
        (digits == 16 &&
         (std::bit_cast<std::uint64_t>(v) & 0xfffffffffffffULL) == 0)) {
        appendPrecisionLoop(out, v);
        return;
    }
    // Otherwise only %.Pg's layout is left, at P = max(15, digits):
    // scientific (as to_chars wrote it) when the decimal exponent is
    // below -4 or at least P, else fixed.
    int exponent = 0;
    std::from_chars(e + (e[1] == '+' ? 2 : 1), end, exponent);
    if (exponent < -4 || exponent >= std::max(15, digits)) {
        out.append(first, end);
        return;
    }
    if (v < 0.0)
        out += '-';
    char mantissa[17];
    mantissa[0] = *lead;
    if (digits > 1)
        std::copy(lead + 2, e, mantissa + 1);
    if (exponent < 0) {
        out += "0.";
        out.append(static_cast<std::size_t>(-exponent - 1), '0');
        out.append(mantissa, static_cast<std::size_t>(digits));
        return;
    }
    // Every digit before the point is significant here: an integer
    // with fewer digits than places is below 10^15, so below 2^53.
    const int whole = exponent + 1;
    out.append(mantissa, static_cast<std::size_t>(std::min(whole, digits)));
    if (digits > whole) {
        out += '.';
        out.append(mantissa + whole, static_cast<std::size_t>(digits - whole));
    }
}

std::string
formatDouble(double v)
{
    std::string out;
    appendDouble(out, v);
    return out;
}

ParseError::ParseError(const std::string& message, std::size_t line,
                       std::size_t column)
    : std::runtime_error("JSON parse error at line " +
                         std::to_string(line) + ", column " +
                         std::to_string(column) + ": " + message),
      line_(line),
      column_(column)
{
}

Value::Type
Value::type() const
{
    return static_cast<Type>(data_.index());
}

const char*
Value::typeName(Type type)
{
    switch (type) {
      case Type::kNull: return "null";
      case Type::kBool: return "bool";
      case Type::kNumber: return "number";
      case Type::kString: return "string";
      case Type::kArray: return "array";
      case Type::kObject: return "object";
    }
    return "?";
}

namespace {

[[noreturn]] void
typeMismatch(const char* expected, Value::Type actual)
{
    throw std::runtime_error(std::string("JSON value is ") +
                             Value::typeName(actual) + ", expected " +
                             expected);
}

} // namespace

bool
Value::asBool() const
{
    if (!isBool())
        typeMismatch("bool", type());
    return std::get<bool>(data_);
}

double
Value::asNumber() const
{
    if (!isNumber())
        typeMismatch("number", type());
    return std::get<double>(data_);
}

const std::string&
Value::asString() const
{
    if (!isString())
        typeMismatch("string", type());
    return std::get<std::string>(data_);
}

const Value::Array&
Value::asArray() const
{
    if (!isArray())
        typeMismatch("array", type());
    return std::get<Array>(data_);
}

const Value::Object&
Value::asObject() const
{
    if (!isObject())
        typeMismatch("object", type());
    return std::get<Object>(data_);
}

const Value*
Value::find(const std::string& key) const
{
    if (!isObject())
        return nullptr;
    for (const Member& member : std::get<Object>(data_))
        if (member.first == key)
            return &member.second;
    return nullptr;
}

const Value&
Value::at(const std::string& key) const
{
    if (!isObject())
        typeMismatch("object", type());
    if (const Value* found = find(key))
        return *found;
    throw std::runtime_error("JSON object has no member \"" + key + "\"");
}

Value&
Value::set(const std::string& key, Value value)
{
    if (!isObject())
        typeMismatch("object", type());
    for (Member& member : std::get<Object>(data_)) {
        if (member.first == key) {
            member.second = std::move(value);
            return *this;
        }
    }
    std::get<Object>(data_).emplace_back(key, std::move(value));
    return *this;
}

Value&
Value::push(Value value)
{
    if (!isArray())
        typeMismatch("array", type());
    std::get<Array>(data_).push_back(std::move(value));
    return *this;
}

// --- Parser -----------------------------------------------------------

namespace {

class Parser
{
  public:
    explicit Parser(const std::string& text) : text_(text) {}

    Value parseDocument()
    {
        skipWhitespace();
        Value value = parseValue();
        skipWhitespace();
        if (pos_ != text_.size())
            fail("trailing content after the JSON document");
        return value;
    }

  private:
    [[noreturn]] void fail(const std::string& message) const
    {
        // Compute 1-based line/column of pos_ on demand (errors only).
        std::size_t line = 1, column = 1;
        for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
            if (text_[i] == '\n') {
                ++line;
                column = 1;
            } else {
                ++column;
            }
        }
        throw ParseError(message, line, column);
    }

    bool atEnd() const { return pos_ >= text_.size(); }
    char peek() const { return text_[pos_]; }

    char next()
    {
        if (atEnd())
            fail("unexpected end of input");
        return text_[pos_++];
    }

    void skipWhitespace()
    {
        while (!atEnd() && (peek() == ' ' || peek() == '\t' ||
                            peek() == '\n' || peek() == '\r'))
            ++pos_;
    }

    void expectLiteral(const char* literal)
    {
        for (const char* c = literal; *c; ++c)
            if (atEnd() || text_[pos_++] != *c) {
                --pos_;
                fail(std::string("invalid literal (expected \"") +
                     literal + "\")");
            }
    }

    Value parseValue()
    {
        if (atEnd())
            fail("unexpected end of input");
        switch (peek()) {
          case '{':
          case '[': {
            // Each level is one recursion: bound it before the stack.
            if (depth_ == kMaxNestingDepth)
                fail("arrays and objects nest deeper than " +
                     std::to_string(kMaxNestingDepth) + " levels");
            ++depth_;
            Value value = peek() == '{' ? parseObject() : parseArray();
            --depth_;
            return value;
          }
          case '"': return Value(parseString());
          case 't': expectLiteral("true"); return Value(true);
          case 'f': expectLiteral("false"); return Value(false);
          case 'n': expectLiteral("null"); return Value(nullptr);
          default: return parseNumber();
        }
    }

    Value parseObject()
    {
        ++pos_; // '{'
        Value::Object members;
        skipWhitespace();
        if (!atEnd() && peek() == '}') {
            ++pos_;
            return Value(std::move(members));
        }
        for (;;) {
            skipWhitespace();
            if (atEnd() || peek() != '"')
                fail("expected a string object key");
            std::string key = parseString();
            for (const Value::Member& member : members)
                if (member.first == key)
                    fail("duplicate object key \"" + key + "\"");
            skipWhitespace();
            if (atEnd() || next() != ':')
                fail("expected ':' after object key \"" + key + "\"");
            skipWhitespace();
            members.emplace_back(std::move(key), parseValue());
            skipWhitespace();
            const char c = next();
            if (c == '}')
                return Value(std::move(members));
            if (c != ',') {
                --pos_;
                fail("expected ',' or '}' in object");
            }
        }
    }

    Value parseArray()
    {
        ++pos_; // '['
        Value::Array elements;
        skipWhitespace();
        if (!atEnd() && peek() == ']') {
            ++pos_;
            return Value(std::move(elements));
        }
        for (;;) {
            skipWhitespace();
            elements.push_back(parseValue());
            skipWhitespace();
            const char c = next();
            if (c == ']')
                return Value(std::move(elements));
            if (c != ',') {
                --pos_;
                fail("expected ',' or ']' in array");
            }
        }
    }

    unsigned parseHex4()
    {
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = next();
            code <<= 4;
            if (c >= '0' && c <= '9')
                code += static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                code += static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                code += static_cast<unsigned>(c - 'A' + 10);
            else {
                --pos_;
                fail("invalid \\u escape digit");
            }
        }
        return code;
    }

    static void appendUtf8(std::string& out, unsigned code)
    {
        if (code < 0x80) {
            out += static_cast<char>(code);
        } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
        } else if (code < 0x10000) {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
        } else {
            out += static_cast<char>(0xF0 | (code >> 18));
            out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
        }
    }

    std::string parseString()
    {
        ++pos_; // '"'
        std::string out;
        for (;;) {
            const char c = next();
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20) {
                --pos_;
                fail("unescaped control character in string");
            }
            if (c != '\\') {
                out += c;
                continue;
            }
            const char esc = next();
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                  unsigned code = parseHex4();
                  if (code >= 0xD800 && code <= 0xDBFF) {
                      // High surrogate: a low surrogate must follow.
                      if (atEnd() || next() != '\\' || next() != 'u') {
                          --pos_;
                          fail("unpaired UTF-16 surrogate");
                      }
                      const unsigned low = parseHex4();
                      if (low < 0xDC00 || low > 0xDFFF)
                          fail("invalid UTF-16 low surrogate");
                      code = 0x10000 + ((code - 0xD800) << 10) +
                             (low - 0xDC00);
                  } else if (code >= 0xDC00 && code <= 0xDFFF) {
                      fail("unpaired UTF-16 surrogate");
                  }
                  appendUtf8(out, code);
                  break;
              }
              default:
                  --pos_;
                  fail("invalid string escape");
            }
        }
    }

    Value parseNumber()
    {
        const std::size_t start = pos_;
        if (!atEnd() && peek() == '-')
            ++pos_;
        if (atEnd() || peek() < '0' || peek() > '9')
            fail("invalid number");
        if (peek() == '0')
            ++pos_; // leading zero may not be followed by digits
        else
            while (!atEnd() && peek() >= '0' && peek() <= '9')
                ++pos_;
        if (!atEnd() && peek() == '.') {
            ++pos_;
            if (atEnd() || peek() < '0' || peek() > '9')
                fail("invalid number: digit expected after '.'");
            while (!atEnd() && peek() >= '0' && peek() <= '9')
                ++pos_;
        }
        if (!atEnd() && (peek() == 'e' || peek() == 'E')) {
            ++pos_;
            if (!atEnd() && (peek() == '+' || peek() == '-'))
                ++pos_;
            if (atEnd() || peek() < '0' || peek() > '9')
                fail("invalid number: digit expected in exponent");
            while (!atEnd() && peek() >= '0' && peek() <= '9')
                ++pos_;
        }
        // Convert the validated slice locale-independently.
        double v = 0.0;
        if (!parseDoubleClassic(text_.data() + start, text_.data() + pos_,
                                v)) {
            pos_ = start;
            fail("number out of range");
        }
        return Value(v);
    }

    const std::string& text_;
    std::size_t pos_ = 0;
    std::size_t depth_ = 0; ///< arrays and objects open at pos_
};

} // namespace

Value
Value::parse(const std::string& text)
{
    return Parser(text).parseDocument();
}

// --- Writer -----------------------------------------------------------

namespace {

void
appendEscaped(std::string& out, std::string_view s)
{
    // Copy the runs between characters that need an escape whole.
    std::size_t run = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const char c = s[i];
        const char* escaped = nullptr;
        switch (c) {
          case '"': escaped = "\\\""; break;
          case '\\': escaped = "\\\\"; break;
          case '\b': escaped = "\\b"; break;
          case '\f': escaped = "\\f"; break;
          case '\n': escaped = "\\n"; break;
          case '\r': escaped = "\\r"; break;
          case '\t': escaped = "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) >= 0x20)
                continue;
        }
        out.append(s.data() + run, i - run);
        run = i + 1;
        if (escaped) {
            out += escaped;
        } else {
            out += "\\u00";
            out += "0123456789abcdef"[c >> 4];
            out += "0123456789abcdef"[c & 0xf];
        }
    }
    out.append(s.data() + run, s.size() - run);
}

} // namespace

std::string
escape(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    appendEscaped(out, s);
    return out;
}

namespace {

void
appendValue(std::string& out, const Value& value, int indent, int depth)
{
    const bool pretty = indent >= 0;
    const auto newline = [&](int level) {
        if (pretty) {
            out += '\n';
            out.append(static_cast<std::size_t>(indent * level), ' ');
        }
    };

    switch (value.type()) {
      case Value::Type::kNull:
        out += "null";
        break;
      case Value::Type::kBool:
        out += value.asBool() ? "true" : "false";
        break;
      case Value::Type::kNumber: {
          const double v = value.asNumber();
          // JSON has no NaN/Infinity literal; null is the least-bad
          // representable stand-in (documented in json.h).
          if (std::isnan(v) || std::isinf(v))
              out += "null";
          else
              appendDouble(out, v);
          break;
      }
      case Value::Type::kString:
        out += '"';
        appendEscaped(out, value.asString());
        out += '"';
        break;
      case Value::Type::kArray: {
          const Value::Array& elements = value.asArray();
          if (elements.empty()) {
              out += "[]";
              break;
          }
          out += '[';
          for (std::size_t i = 0; i < elements.size(); ++i) {
              if (i)
                  out += ',';
              newline(depth + 1);
              appendValue(out, elements[i], indent, depth + 1);
          }
          newline(depth);
          out += ']';
          break;
      }
      case Value::Type::kObject: {
          const Value::Object& members = value.asObject();
          if (members.empty()) {
              out += "{}";
              break;
          }
          out += '{';
          for (std::size_t i = 0; i < members.size(); ++i) {
              if (i)
                  out += ',';
              newline(depth + 1);
              out += '"';
              appendEscaped(out, members[i].first);
              out += pretty ? "\": " : "\":";
              appendValue(out, members[i].second, indent, depth + 1);
          }
          newline(depth);
          out += '}';
          break;
      }
    }
}

} // namespace

std::string
Value::dump(int indent) const
{
    std::string out;
    appendValue(out, *this, indent, 0);
    return out;
}

} // namespace prosperity::json
