/**
 * @file
 * Unit tests for the table printer the benches and examples use.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/table.h"

namespace prosperity {
namespace {

TEST(Table, FormatsHelpers)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::pct(0.1319), "13.19%");
    EXPECT_EQ(Table::ratio(7.4, 1), "7.4x");
}

TEST(Table, PrintAlignsColumnsAndPads)
{
    Table t("demo");
    t.setHeader({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b"}); // ragged: padded
    std::ostringstream os;
    t.print(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("demo"), std::string::npos);
    EXPECT_NE(text.find("alpha"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2u);
}

} // namespace
} // namespace prosperity
