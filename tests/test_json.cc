/**
 * @file
 * Tests for the dependency-free JSON layer: parser correctness and
 * actionable errors, writer output, and the locale-independent
 * round-trip-exact number formatting campaign specs and reports
 * depend on (parse(dump(x)) == x bitwise for every finite double).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <locale>
#include <string>

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
