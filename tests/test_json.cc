/**
 * @file
 * Tests for the dependency-free JSON layer: parser correctness and
 * actionable errors, writer output, and the locale-independent
 * round-trip-exact number formatting campaign specs and reports
 * depend on (parse(dump(x)) == x bitwise for every finite double).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <locale>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "util/json.h"

namespace prosperity::json {
namespace {

TEST(Json, ParsesPrimitives)
{
    EXPECT_TRUE(Value::parse("null").isNull());
    EXPECT_EQ(Value::parse("true").asBool(), true);
    EXPECT_EQ(Value::parse("false").asBool(), false);
    EXPECT_EQ(Value::parse("42").asNumber(), 42.0);
    EXPECT_EQ(Value::parse("-0.5e2").asNumber(), -50.0);
    EXPECT_EQ(Value::parse("\"hi\"").asString(), "hi");
}

TEST(Json, ParsesNestedDocument)
{
    const Value v = Value::parse(R"({
        "name": "fig8",
        "workloads": [{"model": "VGG16", "dataset": "CIFAR100"}],
        "threads": 4,
        "flags": {"fast": true, "extra": null}
    })");
    EXPECT_EQ(v.at("name").asString(), "fig8");
    const Value::Array& workloads = v.at("workloads").asArray();
    ASSERT_EQ(workloads.size(), 1u);
    EXPECT_EQ(workloads[0].at("model").asString(), "VGG16");
    EXPECT_EQ(v.at("threads").asNumber(), 4.0);
    EXPECT_TRUE(v.at("flags").at("fast").asBool());
    EXPECT_TRUE(v.at("flags").at("extra").isNull());
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, ObjectsPreserveInsertionOrder)
{
    const Value v = Value::parse(R"({"z": 1, "a": 2, "m": 3})");
    const Value::Object& members = v.asObject();
    ASSERT_EQ(members.size(), 3u);
    EXPECT_EQ(members[0].first, "z");
    EXPECT_EQ(members[1].first, "a");
    EXPECT_EQ(members[2].first, "m");
    // And dump reproduces that order.
    EXPECT_EQ(v.dump(-1), R"({"z":1,"a":2,"m":3})");
}

TEST(Json, StringEscapes)
{
    const Value v = Value::parse(R"("line\nquote\"back\\slash\tA")");
    EXPECT_EQ(v.asString(), "line\nquote\"back\\slash\tA");
    // Surrogate pair: U+1F600 in UTF-8.
    EXPECT_EQ(Value::parse(R"("😀")").asString(),
              "\xF0\x9F\x98\x80");
    // Escaping round-trips.
    const Value s(std::string("a\"b\\c\nd\x01"));
    EXPECT_EQ(Value::parse(s.dump()).asString(), s.asString());
}

TEST(Json, ErrorsCarryPositionAndMessage)
{
    try {
        Value::parse("{\"a\": 1,\n  \"a\": 2}");
        FAIL() << "duplicate key not rejected";
    } catch (const ParseError& e) {
        EXPECT_EQ(e.line(), 2u);
        EXPECT_NE(std::string(e.what()).find("duplicate object key"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("line 2"),
                  std::string::npos);
    }
    EXPECT_THROW(Value::parse(""), ParseError);
    EXPECT_THROW(Value::parse("{\"a\": }"), ParseError);
    EXPECT_THROW(Value::parse("[1, 2"), ParseError);
    EXPECT_THROW(Value::parse("\"unterminated"), ParseError);
    EXPECT_THROW(Value::parse("01"), ParseError);
    EXPECT_THROW(Value::parse("1.e5"), ParseError);
    EXPECT_THROW(Value::parse("{} trailing"), ParseError);
    EXPECT_THROW(Value::parse(R"("\q")"), ParseError);
    EXPECT_THROW(Value::parse(R"("\uD83D")"), ParseError);
}

TEST(Json, NestingDepthIsCapped)
{
    // The parser recurses once per array or object level, so nesting
    // is capped: kMaxNestingDepth levels parse, one more is a
    // positioned ParseError, and inputs 400k and 200k levels deep throw
    // instead of overflowing the stack.
    const std::size_t cap = kMaxNestingDepth;
    const std::string arrays =
        std::string(cap, '[') + std::string(cap, ']');
    std::string objects;
    for (std::size_t i = 0; i < cap; ++i)
        objects += "{\"a\":";
    objects += "1" + std::string(cap, '}');
    EXPECT_NO_THROW(Value::parse(arrays));
    EXPECT_NO_THROW(Value::parse(objects));
    EXPECT_THROW(Value::parse("[" + arrays + "]"), ParseError);
    EXPECT_THROW(Value::parse("{\"a\":" + objects + "}"), ParseError);

    try {
        Value::parse(std::string(cap + 1, '['));
        FAIL() << "nesting past the cap not rejected";
    } catch (const ParseError& e) {
        // Reported at the bracket that opens level cap + 1.
        EXPECT_EQ(e.line(), 1u);
        EXPECT_EQ(e.column(), cap + 1);
        EXPECT_NE(std::string(e.what()).find("nest deeper than 256"),
                  std::string::npos)
            << e.what();
    }

    EXPECT_THROW(Value::parse(std::string(400000, '[') + "\n"),
                 ParseError);
    std::string deep_objects;
    for (std::size_t i = 0; i < 200000; ++i)
        deep_objects += "{\"a\":";
    EXPECT_THROW(Value::parse(deep_objects + "\n"), ParseError);
}

TEST(Json, TypedAccessorsNameTheMismatch)
{
    const Value v = Value::parse("[1]");
    try {
        v.asObject();
        FAIL() << "type mismatch not rejected";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("array"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("object"),
                  std::string::npos);
    }
    const Value obj = Value::parse("{\"a\": 1}");
    try {
        obj.at("b");
        FAIL() << "missing key not rejected";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("\"b\""), std::string::npos);
    }
}

TEST(Json, FormatDoubleIntegralAndSpecialValues)
{
    EXPECT_EQ(formatDouble(42.0), "42");
    EXPECT_EQ(formatDouble(-7.0), "-7");
    EXPECT_EQ(formatDouble(0.0), "0");
    EXPECT_EQ(formatDouble(-0.0), "-0");
    EXPECT_EQ(formatDouble(std::nan("")), "nan");
    EXPECT_EQ(formatDouble(std::numeric_limits<double>::infinity()),
              "inf");
    EXPECT_EQ(formatDouble(-std::numeric_limits<double>::infinity()),
              "-inf");
    EXPECT_EQ(formatDouble(0.5), "0.5");
}

TEST(Json, NumbersRoundTripBitwise)
{
    const double values[] = {
        0.1,
        1.0 / 3.0,
        2.0 / 3.0,
        1e-300,
        -1e-300,
        1.7976931348623157e308,
        std::numeric_limits<double>::denorm_min(),
        123456789.123456789,
        3.141592653589793,
        -0.0,
        4.626938775510204e-05,
        9007199254740993.0, // 2^53 + 1 (not integral-exact, uses %g path)
    };
    for (const double v : values) {
        const std::string repr = formatDouble(v);
        const double back = Value::parse(repr).asNumber();
        EXPECT_EQ(std::memcmp(&back, &v, sizeof v), 0)
            << "repr " << repr << " did not round-trip";
        // And through a full document dump/parse cycle.
        Value doc = Value::object();
        doc.set("v", v);
        const double back2 =
            Value::parse(doc.dump()).at("v").asNumber();
        EXPECT_EQ(std::memcmp(&back2, &v, sizeof v), 0);
    }
}

/** formatDouble's contract spelled with printf: integers below 2^53
 *  in plain digits, otherwise the shortest of %.15g, %.16g and %.17g
 *  that strtod reads back bitwise. */
std::string
printfReference(double v)
{
    char buf[64];
    if (v == std::floor(v) && std::fabs(v) < 9007199254740992.0) {
        if (v == 0.0)
            return std::signbit(v) ? "-0" : "0";
        std::snprintf(buf, sizeof buf, "%.0f", v);
        return buf;
    }
    for (int precision = 15; precision <= 17; ++precision) {
        std::snprintf(buf, sizeof buf, "%.*g", precision, v);
        const double back = std::strtod(buf, nullptr);
        if (std::memcmp(&back, &v, sizeof v) == 0)
            break;
    }
    return buf;
}

TEST(Json, FormatDoubleMatchesShortestRoundTripPrintf)
{
    std::vector<double> values = {0.0, -0.0,
                                  std::numeric_limits<double>::min(),
                                  std::numeric_limits<double>::max(),
                                  std::numeric_limits<double>::lowest()};
    // Integers around 2^53, where the integral fast path hands over.
    for (double k = -2048.0; k <= 2048.0; k += 1.0) {
        values.push_back(9007199254740992.0 + 2.0 * k);
        values.push_back(-9007199254740992.0 + 2.0 * k);
    }
    std::mt19937_64 rng(20261018);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::uniform_int_distribution<int> decade(-20, 20);
    for (int i = 0; i < 300000; ++i) {
        values.push_back(unit(rng));
        values.push_back(-unit(rng) * std::pow(10.0, decade(rng)));
    }
    for (int i = 0; i < 300000; ++i) {
        // Random bit patterns; NaN and infinity are not numbers here.
        const double v = std::bit_cast<double>(rng());
        if (std::isfinite(v))
            values.push_back(v);
        // Subnormals: exponent field zero, random mantissa and sign.
        values.push_back(std::bit_cast<double>(
            rng() & 0x800fffffffffffffULL));
    }
    const auto withNeighbours = [&values](double v) {
        for (const double each :
             {v, std::nextafter(v, 0.0), std::nextafter(v, HUGE_VAL)}) {
            values.push_back(each);
            values.push_back(-each);
        }
    };
    // Every normal power of two: its rounding interval is half as wide
    // below as above, so a 16-digit shortest form may lie where %.16g
    // does not (46 of them, 2^-1017 the first).
    for (int e = -1022; e <= 1023; ++e)
        withNeighbours(std::ldexp(1.0, e));
    // Powers of ten, where the decimal exponent steps.
    for (int e = -30; e <= 30; ++e)
        withNeighbours(std::strtod(("1e" + std::to_string(e)).c_str(),
                                   nullptr));
    // Both sides of %g's switch between fixed and scientific layout:
    // decimal exponents -5 and -4, and 14 to 17 around the precision.
    std::uniform_real_distribution<double> mantissa(1.0, 10.0);
    for (const int exponent : {-5, -4, 14, 15, 16, 17})
        for (int i = 0; i < 20000; ++i)
            values.push_back(mantissa(rng) * std::pow(10.0, exponent));
    ASSERT_GE(values.size(), 1000000u);

    std::size_t mismatches = 0;
    for (const double v : values) {
        const std::string got = formatDouble(v);
        const std::string want = printfReference(v);
        if (got == want)
            continue;
        if (mismatches++ < 5)
            ADD_FAILURE() << "formatDouble gave " << got << ", printf "
                          << want;
    }
    EXPECT_EQ(mismatches, 0u);

    // Literal spellings of each layout, which pin the reference too.
    const std::pair<double, const char*> pins[] = {
        // A power of two whose shortest form (7.120236347223045e-307)
        // is not %.16g's: 17 digits.
        {std::ldexp(1.0, -1017), "7.1202363472230444e-307"},
        {-std::ldexp(1.0, -1017), "-7.1202363472230444e-307"},
        {std::nextafter(std::ldexp(1.0, -1017), 0.0),
         "7.120236347223044e-307"},
        // Subnormals print at least 15 digits, not their shortest form.
        {std::numeric_limits<double>::denorm_min(), "4.94065645841247e-324"},
        {std::ldexp(1.0, -1030), "8.69169475979376e-311"},
        {std::numeric_limits<double>::min(), "2.2250738585072014e-308"},
        {std::numeric_limits<double>::max(), "1.7976931348623157e+308"},
        {1.0 / 3.0, "0.3333333333333333"},
        {0.1, "0.1"},
        // Fixed down to a decimal exponent of -4, scientific below.
        {1.25e-4, "0.000125"},
        {1.5e-5, "1.5e-05"},
        {std::nextafter(1e-4, 0.0), "9.999999999999999e-05"},
        // Fixed while the decimal exponent is below the precision.
        {123456789012345.6, "123456789012345.6"},
        {1e15 + 0.5, "1000000000000000.5"},
        {9007199254740994.0, "9007199254740994"},
        {1e16, "1e+16"},
        {1e17 + 16.0, "1.0000000000000002e+17"},
        {std::ldexp(1.0, 100), "1.2676506002282294e+30"},
        // Exactly halfway between two 17-digit decimals: the even one.
        {1125899906842624.25, "1125899906842624.2"},
    };
    for (const auto& [v, spelling] : pins) {
        EXPECT_EQ(formatDouble(v), spelling);
        EXPECT_EQ(printfReference(v), spelling);
    }
}

TEST(Json, NonFiniteNumbersSerializeAsNull)
{
    Value doc = Value::array();
    doc.push(std::nan(""));
    doc.push(std::numeric_limits<double>::infinity());
    EXPECT_EQ(doc.dump(-1), "[null,null]");
}

TEST(Json, FormattingIsLocaleIndependent)
{
    // If a comma-decimal locale is available, set it globally and
    // check formatting/parsing still use '.'; skip silently otherwise
    // (CI images often ship only the C locale).
    std::locale original;
    try {
        std::locale::global(std::locale("de_DE.UTF-8"));
    } catch (const std::runtime_error&) {
        GTEST_SKIP() << "de_DE.UTF-8 locale not installed";
    }
    const std::string repr = formatDouble(0.5);
    const double back = Value::parse("0.25").asNumber();
    std::locale::global(original);
    EXPECT_EQ(repr, "0.5");
    EXPECT_EQ(back, 0.25);
}

TEST(Json, PrettyPrinterShape)
{
    Value doc = Value::object();
    doc.set("a", Value::array().push(1).push(2));
    doc.set("b", "x");
    EXPECT_EQ(doc.dump(2), "{\n  \"a\": [\n    1,\n    2\n  ],\n"
                           "  \"b\": \"x\"\n}");
    EXPECT_EQ(doc.dump(-1), R"({"a":[1,2],"b":"x"})");
    // dump/parse/dump is a fixed point.
    EXPECT_EQ(Value::parse(doc.dump()).dump(), doc.dump());
}

} // namespace
} // namespace prosperity::json
