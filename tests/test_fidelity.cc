/**
 * @file
 * The paper-fidelity scorecard. tests/golden/FIDELITY.json holds one
 * entry per headline number of the paper: its id, the paper artifact,
 * the paper's value, a derivation ("from") over one golden campaign
 * report, and the checked-in model value ("measured") and "log_ratio"
 * = ln(measured / paper). This test recomputes every claim from
 * tests/golden/<report>.report.json and fails when a derivation has an
 * unknown key, when a report, label or row does not resolve, or when a
 * recomputed value or log ratio differs from the file. A model change
 * that moves a paper number therefore edits FIDELITY.json, where the
 * diff shows whether |log ratio| grew. On a mismatch the test prints
 * the recomputed document to paste over the file; it always prints the
 * scorecard.
 *
 * A derivation takes one of two forms:
 * - {"report", "table", "of", "over", "rows"?}: the geometric mean,
 *   over the rows of the report's derived `table` (or only the listed
 *   row labels), of values[of] / values[over];
 * - {"report", "cell", "field"}: the numeric `field` of the one cell
 *   whose accelerator label is `cell`.
 *
 * "measured" keeps 4 significant digits; "log_ratio" is taken from the
 * unrounded value and kept to 4 decimals.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/runner.h"
#include "sim/table.h"
#include "util/json.h"
#include "util/json_schema.h"

namespace prosperity {
namespace {

std::string
goldenDir()
{
#ifdef PROSPERITY_GOLDEN_DIR
    return PROSPERITY_GOLDEN_DIR;
#else
    return "tests/golden";
#endif
}

json::Value
readJson(const std::string& path)
{
    std::ifstream is(path);
    if (!is)
        throw std::runtime_error("cannot open " + path);
    std::ostringstream text;
    text << is.rdbuf();
    return json::Value::parse(text.str());
}

/** `v` as printf writes it under `format`, read back. */
double
printed(const char* format, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, format, v);
    return std::strtod(buf, nullptr);
}

std::size_t
columnOf(const json::Value& table, const std::string& label,
         const std::string& where)
{
    const json::Value::Array& columns = table.at("columns").asArray();
    for (std::size_t c = 0; c < columns.size(); ++c)
        if (columns[c].asString() == label)
            return c;
    throw std::runtime_error(where + " has no column \"" + label + '"');
}

/** One claim's model value, derived from its golden `report`. */
double
derive(const json::Value& from, const json::Value& report)
{
    const std::string where = from.at("report").asString() + ".report.json";
    if (const json::Value* name = from.find("table")) {
        json::expectOnlyKeys(from, {"report", "table", "of", "over", "rows"},
                             "from");
        const json::Value& table =
            report.at("derived").at(name->asString());
        const std::string in = where + " " + name->asString();
        const std::size_t of = columnOf(table, from.at("of").asString(), in);
        const std::size_t over =
            columnOf(table, from.at("over").asString(), in);
        const json::Value* listed = from.find("rows");
        std::set<std::string> wanted;
        if (listed)
            for (const json::Value& label : listed->asArray())
                wanted.insert(label.asString());
        std::vector<double> ratios;
        for (const json::Value& row : table.at("rows").asArray()) {
            const std::string& label = row.at("label").asString();
            if (listed && !wanted.erase(label))
                continue;
            // A cell missing from the table is null: asNumber throws.
            const json::Value::Array& values = row.at("values").asArray();
            const double ratio = values.at(of).asNumber() /
                                 values.at(over).asNumber();
            if (!(std::isfinite(ratio) && ratio > 0.0))
                throw std::runtime_error(in + " row " + label +
                                         " has no positive ratio");
            ratios.push_back(ratio);
        }
        if (!wanted.empty())
            throw std::runtime_error(in + " has no row \"" +
                                     *wanted.begin() + '"');
        if (ratios.empty())
            throw std::runtime_error(in + " has no rows");
        return geometricMean(ratios);
    }
    json::expectOnlyKeys(from, {"report", "cell", "field"}, "from");
    const std::string& label = from.at("cell").asString();
    const json::Value* found = nullptr;
    for (const json::Value& cell : report.at("cells").asArray()) {
        if (cell.at("accelerator").asString() != label)
            continue;
        if (found)
            throw std::runtime_error(where + " has several cells labeled \"" +
                                     label + '"');
        found = &cell;
    }
    if (!found)
        throw std::runtime_error(where + " has no cell labeled \"" + label +
                                 '"');
    return found->at(from.at("field").asString()).asNumber();
}

TEST(Fidelity, ClaimsMatchTheGoldenReports)
{
    const json::Value file = readJson(goldenDir() + "/FIDELITY.json");
    std::map<std::string, json::Value> reports;
    std::set<std::string> ids;
    Table scorecard("Paper fidelity (tests/golden/FIDELITY.json)");
    scorecard.setHeader({"artifact", "claim", "paper", "model",
                         "log ratio"});
    json::Value claims = json::Value::array();
    for (const json::Value& entry : file.at("claims").asArray()) {
        json::Value claim = entry;
        try {
            const std::string& id = entry.at("id").asString();
            EXPECT_TRUE(ids.insert(id).second) << "duplicate claim " << id;
            const double paper = entry.at("paper").asNumber();
            if (!(paper > 0.0))
                throw std::runtime_error("paper value must be positive");
            const json::Value& from = entry.at("from");
            const std::string& name = from.at("report").asString();
            if (!reports.count(name))
                reports.emplace(name, readJson(goldenDir() + "/" + name +
                                               ".report.json"));
            const double value = derive(from, reports.at(name));
            const double measured = printed("%.4g", value);
            const double log_ratio = printed("%.4f", std::log(value / paper));
            claim.set("measured", measured);
            claim.set("log_ratio", log_ratio);
            if (claim != entry)
                ADD_FAILURE() << id << ": the goldens give measured "
                              << json::formatDouble(measured)
                              << " and log_ratio "
                              << json::formatDouble(log_ratio)
                              << "; the file has " << entry.dump(-1);
            scorecard.addRow({entry.at("artifact").asString(), id,
                              json::formatDouble(paper),
                              json::formatDouble(measured),
                              json::formatDouble(log_ratio)});
        } catch (const std::exception& e) {
            ADD_FAILURE() << "claim " << entry.dump(-1) << ": " << e.what();
        }
        claims.push(std::move(claim));
    }
    EXPECT_FALSE(claims.asArray().empty());

    scorecard.print(std::cout);
    if (HasFailure()) {
        json::Value recomputed = file;
        recomputed.set("claims", std::move(claims));
        std::cout << "\nRecomputed tests/golden/FIDELITY.json:\n"
                  << recomputed.dump(2) << "\n";
    }
}

TEST(Fidelity, GoldenGeomeansAreTheGeomeansOfTheirRows)
{
    // The table form reads a derived table's rows, not its geomean
    // row; pinning that row to the rows keeps the two from drifting.
    std::size_t checked = 0;
    for (const auto& file :
         std::filesystem::directory_iterator(goldenDir())) {
        const std::string path = file.path().string();
        if (!path.ends_with(".report.json"))
            continue;
        const json::Value report = readJson(path);
        for (const auto& [metric, table] :
             report.at("derived").asObject()) {
            if (!table.isObject())
                continue; // the derived block's "baseline" label
            const json::Value::Array& geomean =
                table.at("geomean").asArray();
            for (std::size_t c = 0; c < geomean.size(); ++c) {
                std::vector<double> cells;
                for (const json::Value& row : table.at("rows").asArray()) {
                    const json::Value& v = row.at("values").asArray().at(c);
                    if (v.isNumber() && v.asNumber() > 0.0)
                        cells.push_back(v.asNumber());
                }
                const json::Value expected =
                    cells.empty() ? json::Value()
                                  : json::Value(geometricMean(cells));
                EXPECT_EQ(geomean[c].dump(), expected.dump())
                    << path << ' ' << metric << " column " << c;
                ++checked;
            }
        }
    }
    EXPECT_GT(checked, 0u);
}

} // namespace
} // namespace prosperity
