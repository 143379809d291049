/**
 * @file
 * Dependency-free JSON value type: parser, writer, and the repo's
 * canonical number formatting.
 *
 * This is the serialization layer behind campaign specs
 * (campaigns/<name>.json -> CampaignSpec) and campaign reports
 * (CampaignReport -> report.json). Design points:
 *
 * - **Objects preserve insertion order** (stored as a member vector,
 *   not a map), so serializing a document reproduces the field order
 *   it was built with and reports diff cleanly across runs.
 * - **Numbers are locale-independent and round-trip exact**:
 *   formatDouble() emits the shortest classic-locale decimal string
 *   (up to 17 significant digits) that parses back to the identical
 *   bit pattern, and the parser converts through the classic locale
 *   regardless of the process's global locale. parse(dump(x)) == x
 *   bitwise for every finite double.
 * - **Errors carry positions**: ParseError reports 1-based line and
 *   column, and the typed accessors (asNumber(), at(key), ...) throw
 *   std::runtime_error naming the expected and actual type, so a
 *   malformed campaign spec fails with an actionable message instead
 *   of a default-constructed value.
 * - **Nesting is bounded**: the parser recurses once per array or
 *   object level, so input nested deeper than kMaxNestingDepth is a
 *   ParseError rather than a stack overflow. Bytes from the network
 *   and from disk reach this parser.
 *
 * Non-finite numbers have no JSON representation; dump() writes them
 * as `null` (and formatDouble() returns "nan"/"inf"/"-inf" for
 * non-JSON consumers such as CSV cells).
 */

#ifndef PROSPERITY_UTIL_JSON_H
#define PROSPERITY_UTIL_JSON_H

#include <cstddef>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace prosperity::json {

/**
 * Locale-independent, round-trip-exact double formatting: the
 * shortest %.Ng-style string (N <= 17, classic locale) whose
 * parse-back is bitwise equal to `v`. Integral values within the
 * exactly-representable range print without an exponent ("42", "-0").
 */
std::string formatDouble(double v);

/**
 * Deepest array/object nesting Value::parse accepts. The deepest
 * checked-in document (campaigns, models, golden reports) nests 6
 * levels.
 */
inline constexpr std::size_t kMaxNestingDepth = 256;

/** Parse failure with 1-based source position. */
class ParseError : public std::runtime_error
{
  public:
    ParseError(const std::string& message, std::size_t line,
               std::size_t column);

    std::size_t line() const { return line_; }
    std::size_t column() const { return column_; }

  private:
    std::size_t line_;
    std::size_t column_;
};

/** A JSON document node: null, bool, number, string, array or object. */
class Value
{
  public:
    enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

    using Array = std::vector<Value>;
    /** Object member; members keep insertion order. */
    using Member = std::pair<std::string, Value>;
    using Object = std::vector<Member>;

    Value() : data_(nullptr) {}
    Value(std::nullptr_t) : data_(nullptr) {}
    Value(bool b) : data_(b) {}
    Value(double v) : data_(v) {}
    Value(int v) : data_(static_cast<double>(v)) {}
    Value(std::size_t v) : data_(static_cast<double>(v)) {}
    Value(const char* s) : data_(std::string(s)) {}
    Value(std::string s) : data_(std::move(s)) {}
    Value(Array a) : data_(std::move(a)) {}
    Value(Object o) : data_(std::move(o)) {}

    /** Empty array / object literals (clearer than Value(Array{})). */
    static Value array() { return Value(Array{}); }
    static Value object() { return Value(Object{}); }

    Type type() const;
    /** Human-readable name of a type ("object", "number", ...). */
    static const char* typeName(Type type);

    bool isNull() const { return type() == Type::kNull; }
    bool isBool() const { return type() == Type::kBool; }
    bool isNumber() const { return type() == Type::kNumber; }
    bool isString() const { return type() == Type::kString; }
    bool isArray() const { return type() == Type::kArray; }
    bool isObject() const { return type() == Type::kObject; }

    /** Typed accessors; throw std::runtime_error naming expected vs
     *  actual type on mismatch. */
    bool asBool() const;
    double asNumber() const;
    const std::string& asString() const;
    const Array& asArray() const;
    Array& asArray();
    const Object& asObject() const;
    Object& asObject();

    /** Object lookup: nullptr when absent (or when not an object). */
    const Value* find(const std::string& key) const;

    /** Object lookup; throws std::runtime_error naming the key when
     *  absent or when this is not an object. */
    const Value& at(const std::string& key) const;

    /** Insert or replace an object member (appends new keys). */
    Value& set(const std::string& key, Value value);

    /** Append an array element. */
    Value& push(Value value);

    /**
     * Parse a complete JSON document (trailing whitespace allowed,
     * trailing content is an error). Throws ParseError, also for
     * arrays and objects nested deeper than kMaxNestingDepth.
     */
    static Value parse(const std::string& text);

    /**
     * Serialize. indent >= 0 pretty-prints with that many spaces per
     * level (members on their own lines); indent < 0 is compact.
     * Output ends without a trailing newline.
     */
    void write(std::ostream& os, int indent = 2) const;
    std::string dump(int indent = 2) const;

    bool operator==(const Value& other) const { return data_ == other.data_; }
    bool operator!=(const Value& other) const { return !(*this == other); }

  private:
    std::variant<std::nullptr_t, bool, double, std::string, Array, Object>
        data_;
};

/** JSON string escaping of `s` (quotes, backslashes, control chars). */
std::string escape(const std::string& s);

} // namespace prosperity::json

#endif // PROSPERITY_UTIL_JSON_H
