/**
 * @file
 * Hot-path benchmark driver: times the simulator's word-parallel
 * kernels against their retained naive references and writes the
 * `BENCH_hotpath.json` trajectory (schema: docs/BENCHMARKS.md).
 *
 * Stages timed:
 *  - frontend: the all-pairs selectPrefixesNaive reference vs
 *    selectPrefixes (one signature-prefiltered search per distinct
 *    row value, expanded row by row) on the same 256x16 tiles, over a
 *    sweep across densities, and summarizeTile (the same search, its
 *    sums folded per value) against summarizeTileNaive's checksum
 *    (checksums must agree — verified here); both fast cases read
 *    each tile in place through one workspace reused across the
 *    tiles; and summarizeTile over sampled tiles of a generated
 *    8192x1152 layer, read in place as a campaign reads them, checked
 *    against summarizeTileNaive on the same tiles built bit by bit;
 *  - spikegen: bit-by-bit Bernoulli fill vs the word-batched
 *    BitMatrix::randomize, plus a full SpikeGenerator layer;
 *  - gemm: the functional ProductGemm multiply;
 *  - engine: LeNet5/MNIST and SpikeBERT/SST-2 end-to-end runs of the
 *    prosperity design through SimulationEngine;
 *  - util: json::formatDouble over every number of one 224-cell report
 *    shaped like the serve-sweep benchmark's, and that report's
 *    rendering (its JSON body plus its CSV), as a served campaign's
 *    worker renders it.
 *
 * Usage: bench_hotpath [--quick] [--out PATH] [--reps N]
 *   --quick  CI-smoke configuration: fewer densities, reps and tiles.
 *   --out    output JSON path (default BENCH_hotpath.json).
 *   --reps   override timed repetitions per case.
 */

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/campaign.h"
#include "analysis/engine.h"
#include "bench_harness.h"
#include "bitmatrix/simd_dispatch.h"
#include "core/prefix_select.h"
#include "core/product_gemm.h"
#include "core/tile_pipeline.h"
#include "gen/spike_generator.h"
#include "util/json.h"

using namespace prosperity;

namespace {

/** XOR-fold a PrefixSelection for cross-implementation identity. */
std::uint64_t
checksumSelection(const PrefixSelection& s)
{
    std::uint64_t h = 0;
    for (std::size_t i = 0; i < s.rows(); ++i)
        h ^= (static_cast<std::uint64_t>(s.prefix[i] + 1) << 32) +
             0x9e3779b97f4a7c15ULL * i + s.popcounts[i];
    return h;
}

/** Fold a TileSummary's sums into one word. */
std::uint64_t
checksumSummary(const TileSummary& s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::size_t v : {s.rows, s.cols, s.ones, s.pattern_ones,
                                s.exact, s.partial, s.walk})
        h = (h ^ v) * 0x100000001b3ULL;
    return h;
}

/** FNV-1a over `bytes`, continuing from `h`. */
std::uint64_t
checksumBytes(const std::string& bytes,
              std::uint64_t h = 0xcbf29ce484222325ULL)
{
    for (const char c : bytes)
        h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    return h;
}

/** Every number of `value`, in document order. */
void
collectNumbers(const json::Value& value, std::vector<double>& out)
{
    if (value.isNumber()) {
        out.push_back(value.asNumber());
    } else if (value.isArray()) {
        for (const json::Value& each : value.asArray())
            collectNumbers(each, out);
    } else if (value.isObject()) {
        for (const json::Value::Member& member : value.asObject())
            collectNumbers(member.second, out);
    }
}

/** The tile of `matrix` at (r0, c0), cropped, built bit by bit. */
BitMatrix
bitByBitTile(const BitMatrix& matrix, std::size_t r0, std::size_t c0,
             std::size_t m, std::size_t k)
{
    BitMatrix tile(std::min(matrix.rows() - r0, m),
                   std::min(matrix.cols() - c0, k));
    for (std::size_t r = 0; r < tile.rows(); ++r)
        for (std::size_t c = 0; c < tile.cols(); ++c)
            tile.set(r, c, matrix.test(r0 + r, c0 + c));
    return tile;
}

/** XOR-fold of each row's FNV-1a word hash plus its index. */
std::uint64_t
checksumMatrix(const BitMatrix& m)
{
    std::uint64_t h = 0;
    for (std::size_t r = 0; r < m.rows(); ++r) {
        std::uint64_t fnv = 0xcbf29ce484222325ULL;
        for (const std::uint64_t word : m.row(r)) {
            fnv ^= word;
            fnv *= 0x100000001b3ULL;
        }
        h ^= fnv + r;
    }
    return h;
}

/** The pre-word-parallel Bernoulli fill, retained as the bench baseline. */
void
bitwiseRandomize(BitMatrix& m, Rng& rng, double density)
{
    for (std::size_t r = 0; r < m.rows(); ++r)
        for (std::size_t c = 0; c < m.cols(); ++c)
            m.set(r, c, rng.nextBool(density));
}

ActivationProfile
benchProfile(double density)
{
    ActivationProfile p;
    p.bit_density = density;
    p.cluster_fraction = 0.7;
    p.bank_size = 12;
    p.subset_drop_prob = 0.3;
    p.temporal_repeat = 0.4;
    return p;
}

std::string
fmt(double v)
{
    std::string s = std::to_string(v);
    while (s.size() > 1 && s.back() == '0')
        s.pop_back();
    if (!s.empty() && s.back() == '.')
        s.pop_back();
    return s;
}

} // namespace

int
main(int argc, char** argv)
{
    bool quick = false;
    std::string out_path = "BENCH_hotpath.json";
    std::size_t reps_override = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
            char* end = nullptr;
            errno = 0;
            const unsigned long long v =
                std::strtoull(argv[i + 1], &end, 10);
            if (end == argv[i + 1] || *end != '\0' ||
                argv[i + 1][0] == '-' || v == 0 || errno == ERANGE) {
                std::cerr << "bench_hotpath: --reps expects a"
                             " positive integer\n";
                return 2;
            }
            reps_override = static_cast<std::size_t>(v);
            ++i;
        } else {
            std::cerr << "usage: bench_hotpath [--quick] [--out PATH]"
                         " [--reps N]\n";
            return 2;
        }
    }

    bench::Harness h("hotpath");
    h.setConfig("mode", quick ? "quick" : "full");
    h.setConfig("seed", "7");
    // Which kernel tier the dispatch actually ran (PROSPERITY_SIMD
    // applies) — numbers are only comparable between same-tier runs.
    h.setConfig("simd_tier", simdTierName(activeSimdTier()));

    const auto reps = [&](std::size_t full_reps) {
        if (reps_override > 0)
            return reps_override;
        return quick ? std::max<std::size_t>(2, full_reps / 10)
                     : full_reps;
    };

    // ---- frontend: reference vs selectPrefixes over 256x16 tiles -----
    std::cout << "frontend (256x16 tile sweep)\n";
    const std::vector<double> densities =
        quick ? std::vector<double>{0.15}
              : std::vector<double>{0.05, 0.15, 0.30};
    const std::size_t tiles_per_density = quick ? 4 : 16;
    for (double d : densities) {
        const SpikeGenerator gen(benchProfile(d), 7);
        std::vector<BitMatrix> tiles;
        tiles.reserve(tiles_per_density);
        for (std::size_t t = 0; t < tiles_per_density; ++t)
            tiles.push_back(gen.generate(256, 16, 4, t));

        bench::CaseOptions opts;
        opts.reps = reps(30);
        opts.warmup = quick ? 1 : 3;
        opts.items = 256.0 * static_cast<double>(tiles.size());
        const bench::ParamList params = {
            {"rows", "256"}, {"cols", "16"}, {"density", fmt(d)},
            {"tiles", std::to_string(tiles.size())}};

        const auto reference = h.run(
            "frontend/reference/d=" + fmt(d), "frontend", params, opts,
            [&] {
                std::uint64_t c = 0;
                for (const BitMatrix& tile : tiles)
                    c ^= checksumSelection(selectPrefixesNaive(tile));
                return c;
            });
        // The fast paths read every tile in place through one
        // workspace reused across the tiles, as TileSummaryCache and
        // ProductGemm do.
        DistinctRows distinct;
        const auto fast = h.run(
            "frontend/select_prefixes/d=" + fmt(d), "frontend", params,
            opts, [&] {
                std::uint64_t c = 0;
                for (const BitMatrix& tile : tiles) {
                    distinct.select(tile, 0, 0, tile.rows(), tile.cols());
                    c ^= checksumSelection(selectPrefixes(distinct));
                }
                return c;
            });
        if (reference.checksum != fast.checksum) {
            std::cerr << "FATAL: selectPrefixes diverged from the "
                         "reference at density " << d << "\n";
            return 1;
        }
        std::cout << "    speedup "
                  << fmt(reference.median_ns / fast.median_ns)
                  << "x (checksums identical)\n";

        // The summary path the campaigns run.
        std::uint64_t naive = 0;
        for (const BitMatrix& tile : tiles)
            naive ^= checksumSummary(summarizeTileNaive(tile));
        const auto summary = h.run(
            "frontend/summarize_tile/d=" + fmt(d), "frontend", params,
            opts, [&] {
                std::uint64_t c = 0;
                for (const BitMatrix& tile : tiles) {
                    distinct.select(tile, 0, 0, tile.rows(), tile.cols());
                    c ^= checksumSummary(summarizeTile(distinct));
                }
                return c;
            });
        if (summary.checksum != naive) {
            std::cerr << "FATAL: summarizeTile diverged from the naive "
                         "fold at density " << d << "\n";
            return 1;
        }

        // Sampled tiles of a generated layer, read in place: what the
        // campaigns' front end pays per tile, unaligned rows and all.
        const BitMatrix layer = gen.generate(8192, 1152, 4, 0);
        const TileConfig tiling;
        const TileSample sample = sampleTiles(
            layer.rows(), layer.cols(), tiling, quick ? 24 : 96);
        const auto foldSummary = [](std::uint64_t c, const TileSummary& s) {
            return (c ^ checksumSummary(s)) * 0x100000001b3ULL;
        };
        std::uint64_t naive_sampled = 0;
        for (const auto& [r0, c0] : sample.origins)
            naive_sampled = foldSummary(
                naive_sampled, summarizeTileNaive(bitByBitTile(
                                   layer, r0, c0, tiling.m, tiling.k)));
        bench::CaseOptions sampled_opts = opts;
        sampled_opts.items = static_cast<double>(tiling.m) *
                             static_cast<double>(sample.origins.size());
        const auto sampled = h.run(
            "frontend/summarize_sampled/d=" + fmt(d), "frontend",
            {{"layer_rows", "8192"}, {"layer_cols", "1152"},
             {"rows", std::to_string(tiling.m)},
             {"cols", std::to_string(tiling.k)}, {"density", fmt(d)},
             {"tiles", std::to_string(sample.origins.size())}},
            sampled_opts, [&] {
                std::uint64_t c = 0;
                for (const auto& [r0, c0] : sample.origins) {
                    distinct.select(layer, r0, c0, tiling.m, tiling.k);
                    c = foldSummary(c, summarizeTile(distinct));
                }
                return c;
            });
        if (sampled.checksum != naive_sampled) {
            std::cerr << "FATAL: summarizeTile on sampled tiles diverged "
                         "from the naive fold at density " << d << "\n";
            return 1;
        }
    }

    // ---- spikegen: bit-by-bit vs word-batched Bernoulli fill ---------
    std::cout << "spikegen\n";
    {
        const std::size_t rows = quick ? 256 : 1024;
        const std::size_t cols = 1024;
        bench::CaseOptions opts;
        opts.reps = reps(20);
        opts.warmup = quick ? 1 : 2;
        opts.items = static_cast<double>(rows * cols);
        const bench::ParamList params = {
            {"rows", std::to_string(rows)},
            {"cols", std::to_string(cols)},
            {"density", "0.2"}};

        h.run("spikegen/bitwise_reference", "spikegen", params, opts,
              [&] {
                  Rng rng(11);
                  BitMatrix m(rows, cols);
                  bitwiseRandomize(m, rng, 0.2);
                  return checksumMatrix(m);
              });
        h.run("spikegen/word_batched", "spikegen", params, opts, [&] {
            Rng rng(11);
            BitMatrix m(rows, cols);
            m.randomize(rng, 0.2);
            return checksumMatrix(m);
        });
        bench::CaseOptions layer_opts = opts;
        layer_opts.items = 1024.0 * 512.0; // the generated layer's bits
        h.run("spikegen/generator_layer", "spikegen",
              {{"rows", "1024"}, {"cols", "512"}, {"time_steps", "4"}},
              layer_opts, [&] {
                  const SpikeGenerator gen(benchProfile(0.2), 7);
                  return checksumMatrix(gen.generate(1024, 512, 4, 1));
              });
    }

    // ---- gemm: functional ProductGemm multiply -----------------------
    std::cout << "gemm\n";
    {
        const std::size_t m = quick ? 256 : 512, k = 128, n = 64;
        const SpikeGenerator gen(benchProfile(0.2), 7);
        const BitMatrix spikes =
            gen.generate(m, k, 4, 0);
        const WeightMatrix weights = randomWeights(k, n, 3);
        const ProductGemm gemm;
        bench::CaseOptions opts;
        opts.reps = reps(10);
        opts.warmup = 1;
        opts.items = static_cast<double>(m) * static_cast<double>(k) *
                     static_cast<double>(n);
        h.run("gemm/product_multiply", "gemm",
              {{"m", std::to_string(m)}, {"k", std::to_string(k)},
               {"n", std::to_string(n)}},
              opts, [&] {
                  const ProductGemm::Result r =
                      gemm.multiply(spikes, weights);
                  std::uint64_t c = 0;
                  for (std::int32_t v : r.output.data())
                      c = c * 0x100000001b3ULL +
                          static_cast<std::uint64_t>(
                              static_cast<std::uint32_t>(v));
                  return c;
              });
    }

    // ---- engine: end-to-end runs of the prosperity design ------------
    std::cout << "engine\n";
    {
        SimulationEngine engine;
        bench::CaseOptions opts;
        opts.reps = reps_override > 0 ? reps_override
                                      : (quick ? std::size_t{1}
                                               : std::size_t{3});
        opts.warmup = 0;
        opts.items = 1.0;
        for (const auto& [name, model, dataset] :
             {std::tuple<const char*, const char*, const char*>{
                  "engine/lenet5_mnist_prosperity", "LeNet5", "MNIST"},
              {"engine/spikebert_sst2_prosperity", "SpikeBERT", "SST-2"}}) {
            SimulationJob job;
            job.accelerator = AcceleratorSpec("prosperity");
            job.workload = makeWorkload(model, dataset);
            h.run(name, "engine",
                  {{"model", model}, {"dataset", dataset},
                   {"accelerator", "prosperity"}},
                  opts, [&] {
                      engine.clearCache(); // time real runs, not hits
                      const RunResult r = engine.run(job);
                      return static_cast<std::uint64_t>(r.cycles);
                  });
        }
    }

    // ---- util: rendering one served report ---------------------------
    std::cout << "util\n";
    {
        // The serve-sweep benchmark's report shape: the seven Fig. 8
        // designs on LeNet5/MNIST over 32 seeds, 224 cells.
        CampaignSpec spec = loadNamedCampaign("fig8");
        for (CampaignAccelerator& a : spec.accelerators)
            if (a.spec.name == "prosperity")
                a.spec.params.set("max_sampled_tiles", std::size_t{24});
        spec.workloads = {makeWorkload("LeNet5", "MNIST")};
        for (std::uint64_t seed = 7; seed < 7 + 32; ++seed)
            spec.options.push_back(RunOptions{seed, false});
        SimulationEngine engine;
        const CampaignReport report = CampaignRunner(engine).run(spec);
        std::vector<double> numbers;
        collectNumbers(report.toJson(), numbers);

        bench::CaseOptions opts;
        opts.reps = reps(50);
        opts.warmup = quick ? 1 : 3;
        opts.items = static_cast<double>(numbers.size());
        h.run("util/format_double", "util",
              {{"cells", std::to_string(report.cells.size())},
               {"numbers", std::to_string(numbers.size())}},
              opts, [&] {
                  std::uint64_t c = 0xcbf29ce484222325ULL;
                  for (const double v : numbers)
                      c = checksumBytes(json::formatDouble(v) + ',', c);
                  return c;
              });
        opts.items = static_cast<double>(report.cells.size());
        h.run("util/report_render", "util",
              {{"cells", std::to_string(report.cells.size())}}, opts,
              [&] {
                  return checksumBytes(
                      report.toCsv(),
                      checksumBytes(report.toJson().dump(2) + "\n"));
              });
    }

    if (!h.writeJsonFile(out_path)) {
        std::cerr << "failed to write " << out_path << "\n";
        return 1;
    }
    std::cout << "wrote " << out_path << " (" << h.results().size()
              << " cases)\n";
    return 0;
}
