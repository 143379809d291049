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
 *   formatDouble() writes an integer below 2^53 in plain digits and
 *   any other finite double as printf's %.Pg (classic locale) for the
 *   smallest P of 15, 16 and 17 that parses back to the identical bit
 *   pattern; the parser converts through the classic locale regardless
 *   of the process's global locale. parse(dump(x)) == x bitwise for
 *   every finite double.
 * - **One output buffer**: dump() appends the whole document, numbers
 *   included (appendDouble()), to one std::string; no stream is
 *   involved.
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
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace prosperity::json {

/**
 * Locale-independent, round-trip-exact double formatting. The exact
 * contract: an integer below 2^53 in magnitude prints as plain digits
 * ("42", "-0"); any other finite double prints as printf's %.Pg in
 * the classic locale for the smallest P in 15..17 whose parse-back is
 * bitwise `v`; NaN and infinities print "nan", "inf", "-inf". That is
 * not always the shortest round-trip form: 0.3 prints "0.3", but a
 * subnormal prints at least 15 digits (4.94065645841247e-324, not
 * 5e-324), and 2^-1017 needs 17 (its 16-digit shortest form is not
 * the nearest 16-digit decimal).
 *
 * How it is computed: one std::to_chars call gives the shortest
 * round-trip digits (libstdc++ runs Ryu), laid out as %.Pg with P =
 * max(15, digit count). Those digits are %.Pg's: a normal double's
 * rounding interval holds no second 15-digit decimal, and at 16 or 17
 * digits the nearest decimal lies inside it. Two kinds of value break
 * that and print by trying P = 15, 16, 17 with a parse-back each:
 * subnormals, whose interval spans many 15-digit decimals, and powers
 * of two with 16 shortest digits, whose interval is half as wide
 * below as above.
 */
std::string formatDouble(double v);

/** Append formatDouble(v) to `out`. */
void appendDouble(std::string& out, double v);

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
    const Object& asObject() const;

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
