/**
 * @file
 * Exact JSON round trip for RunResult — the persistence format of the
 * on-disk ResultStore (src/serve/result_store.h) and the body of the
 * service's single-run reports.
 *
 * `runResultFromJson(runResultToJson(r))` reproduces every field
 * bitwise: numbers go through json::formatDouble (shortest
 * round-trip-exact representation) and the energy breakdown is
 * re-charged component by component. So everything a report
 * serializes — totals, breakdown, derived throughput/power — survives
 * exactly, which is what makes disk-warm reports byte-identical to
 * freshly computed ones.
 */

#ifndef PROSPERITY_ANALYSIS_RESULT_JSON_H
#define PROSPERITY_ANALYSIS_RESULT_JSON_H

#include "analysis/runner.h"
#include "util/json.h"

namespace prosperity {

/** Serialize a finished result (schema: docs/SERVING.md). */
json::Value runResultToJson(const RunResult& result);

/**
 * Set `entry`'s "energy_breakdown" (the charged components in report
 * order) and, when `result` kept layer records, its "layers": the
 * members a stored result and a campaign report cell share.
 */
void setBreakdownAndLayers(json::Value& entry, const RunResult& result);

/**
 * Rebuild a RunResult from runResultToJson output. Throws
 * std::invalid_argument with a key-path message (json_schema style)
 * on malformed input — the ResultStore turns that into a cache miss,
 * not a crash.
 */
RunResult runResultFromJson(const json::Value& value);

} // namespace prosperity

#endif // PROSPERITY_ANALYSIS_RESULT_JSON_H
