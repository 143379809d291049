/**
 * @file
 * Tests for the CSV export module.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/export.h"
#include "analysis/runner.h"
#include "core/prosperity_accelerator.h"

namespace prosperity {
namespace {

TEST(CsvWriter, QuotesSpecialCells)
{
    CsvWriter csv;
    csv.writeRow({"plain", "with,comma", "with\"quote", "multi\nline"});
    csv.cell("a,b").cell("plain").endRow();
    EXPECT_EQ(csv.take(),
              "plain,\"with,comma\",\"with\"\"quote\",\"multi\nline\"\n"
              "\"a,b\",plain\n");
}

TEST(CsvWriter, NumericCellsRoundTrip)
{
    CsvWriter csv;
    csv.cell(2.5).cell(1234567.25).cell(0.1).cell(-0.0).endRow();
    csv.cell(1e-7).endRow();
    EXPECT_EQ(csv.take(), "2.5,1234567.25,0.1,-0\n1e-07\n");
    // take() leaves the writer empty, with no row open.
    EXPECT_EQ(csv.take(), "");
}

TEST(Export, RunResultsHaveHeaderAndRows)
{
    ProsperityAccelerator prosperity;
    const Workload w = makeWorkload("LeNet5", "MNIST");
    const RunResult r = runWorkload(prosperity, w);

    const std::string text = exportRunResults({r});

    // Header + one data row.
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
    EXPECT_NE(text.find("workload,accelerator,cycles"),
              std::string::npos);
    EXPECT_NE(text.find("LeNet5/MNIST,Prosperity,"), std::string::npos);
}

TEST(Export, EmptyInputsProduceHeaderOnly)
{
    const std::string text = exportRunResults({});
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 1);
}

} // namespace
} // namespace prosperity
