#include "json.h"

#include <charconv>
#include <cmath>
#include <cstring>
#include <iomanip>
#include <locale>
#include <sstream>

namespace prosperity::json {

namespace {

/**
 * Locale-independent string -> double. Returns false for magnitudes
 * outside double range (subnormals are fine); the caller guarantees
 * `s` is a syntactically valid JSON number.
 */
bool
parseDoubleClassic(const std::string& s, double& out)
{
#if defined(__cpp_lib_to_chars)
    return std::from_chars(s.data(), s.data() + s.size(), out).ec ==
           std::errc();
#else
    std::istringstream is(s);
    is.imbue(std::locale::classic());
    is >> out;
    return !is.fail();
#endif
}

} // namespace

std::string
formatDouble(double v)
{
    if (std::isnan(v))
        return "nan";
    if (std::isinf(v))
        return v > 0.0 ? "inf" : "-inf";
    // Integral fast path: every |v| < 2^53 integer is exact in double,
    // so plain decimal digits round-trip and read better than 1e+06.
    if (v == std::floor(v) && std::fabs(v) < 9007199254740992.0) {
        if (v == 0.0)
            return std::signbit(v) ? "-0" : "0";
        return std::to_string(static_cast<long long>(v));
    }
    std::string repr;
    for (int precision = 15; precision <= 17; ++precision) {
        std::ostringstream os;
        os.imbue(std::locale::classic());
        // lint:allow(double-format) this IS formatDouble, the impl
        os.precision(precision);
        os << v;
        repr = os.str();
        double back = 0.0;
        if (parseDoubleClassic(repr, back) &&
            std::memcmp(&back, &v, sizeof v) == 0)
            break; // shortest round-tripping form found
        // 17 significant digits always round-trip; the loop cannot
        // fall through with a lossy repr.
    }
    return repr;
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

Value::Array&
Value::asArray()
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

Value::Object&
Value::asObject()
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
        if (!parseDoubleClassic(text_.substr(start, pos_ - start), v)) {
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

std::string
escape(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                std::ostringstream esc;
                esc << "\\u" << std::hex << std::setw(4)
                    << std::setfill('0') << static_cast<int>(c);
                out += esc.str();
            } else {
                out += c;
            }
        }
    }
    return out;
}

namespace {

void
writeValue(std::ostream& os, const Value& value, int indent, int depth)
{
    const bool pretty = indent >= 0;
    const auto newline = [&](int level) {
        if (pretty) {
            os << '\n';
            for (int i = 0; i < indent * level; ++i)
                os << ' ';
        }
    };

    switch (value.type()) {
      case Value::Type::kNull:
        os << "null";
        break;
      case Value::Type::kBool:
        os << (value.asBool() ? "true" : "false");
        break;
      case Value::Type::kNumber: {
          const double v = value.asNumber();
          // JSON has no NaN/Infinity literal; null is the least-bad
          // representable stand-in (documented in json.h).
          if (std::isnan(v) || std::isinf(v))
              os << "null";
          else
              os << formatDouble(v);
          break;
      }
      case Value::Type::kString:
        os << '"' << escape(value.asString()) << '"';
        break;
      case Value::Type::kArray: {
          const Value::Array& elements = value.asArray();
          if (elements.empty()) {
              os << "[]";
              break;
          }
          os << '[';
          for (std::size_t i = 0; i < elements.size(); ++i) {
              if (i)
                  os << ',';
              newline(depth + 1);
              writeValue(os, elements[i], indent, depth + 1);
          }
          newline(depth);
          os << ']';
          break;
      }
      case Value::Type::kObject: {
          const Value::Object& members = value.asObject();
          if (members.empty()) {
              os << "{}";
              break;
          }
          os << '{';
          for (std::size_t i = 0; i < members.size(); ++i) {
              if (i)
                  os << ',';
              newline(depth + 1);
              os << '"' << escape(members[i].first) << "\":";
              if (pretty)
                  os << ' ';
              writeValue(os, members[i].second, indent, depth + 1);
          }
          newline(depth);
          os << '}';
          break;
      }
    }
}

} // namespace

void
Value::write(std::ostream& os, int indent) const
{
    writeValue(os, *this, indent, 0);
}

std::string
Value::dump(int indent) const
{
    std::ostringstream os;
    write(os, indent);
    return os.str();
}

} // namespace prosperity::json
