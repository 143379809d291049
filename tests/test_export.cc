/**
 * @file
 * Tests for the CSV export module.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "analysis/export.h"
#include "analysis/runner.h"
#include "core/prosperity_accelerator.h"

namespace prosperity {
namespace {

TEST(CsvWriter, QuotesSpecialCells)
{
    std::ostringstream os;
    CsvWriter csv(os);
    csv.writeRow({"plain", "with,comma", "with\"quote", "multi\nline"});
    EXPECT_EQ(os.str(),
              "plain,\"with,comma\",\"with\"\"quote\",\"multi\nline\"\n");
}

TEST(CsvWriter, NumericCellsRoundTrip)
{
    EXPECT_EQ(CsvWriter::cell(2.5), "2.5");
    const std::string c = CsvWriter::cell(1234567.25);
    EXPECT_NE(c.find("1234567.25"), std::string::npos);
}

TEST(Export, RunResultsHaveHeaderAndRows)
{
    ProsperityAccelerator prosperity;
    const Workload w = makeWorkload("LeNet5", "MNIST");
    const RunResult r = runWorkload(prosperity, w);

    std::ostringstream os;
    exportRunResults(os, {r});
    const std::string text = os.str();

    // Header + one data row.
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
    EXPECT_NE(text.find("workload,accelerator,cycles"),
              std::string::npos);
    EXPECT_NE(text.find("LeNet5/MNIST,Prosperity,"), std::string::npos);
}

TEST(Export, EmptyInputsProduceHeaderOnly)
{
    std::ostringstream os;
    exportRunResults(os, {});
    const std::string text = os.str();
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 1);
}

} // namespace
} // namespace prosperity
