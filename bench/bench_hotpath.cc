/**
 * @file
 * Hot-path benchmark driver: times the simulator's word-parallel
 * kernels against their retained naive references and writes the
 * `BENCH_hotpath.json` trajectory (schema: docs/BENCHMARKS.md).
 *
 * Stages timed:
 *  - frontend: the all-pairs selectPrefixesNaive reference on
 *    BitMatrix tiles vs the popcount-sorted, signature-prefiltered
 *    selectPrefixes on the same tiles pre-extracted as TileWords, over
 *    a 256x16 tile sweep across densities (checksums must agree —
 *    verified here);
 *  - spikegen: bit-by-bit Bernoulli fill vs the word-batched
 *    BitVector::randomize, plus a full SpikeGenerator layer;
 *  - gemm: the functional ProductGemm multiply;
 *  - engine: LeNet5/MNIST and SpikeBERT/SST-2 end-to-end runs of the
 *    prosperity design through SimulationEngine.
 *
 * Usage: bench_hotpath [--quick] [--out PATH] [--reps N]
 *   --quick  CI-smoke configuration: fewer densities, reps and tiles.
 *   --out    output JSON path (default BENCH_hotpath.json).
 *   --reps   override timed repetitions per case.
 */

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/engine.h"
#include "bench_harness.h"
#include "bitmatrix/simd_dispatch.h"
#include "core/prefix_select.h"
#include "core/product_gemm.h"
#include "gen/spike_generator.h"

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

std::uint64_t
checksumMatrix(const BitMatrix& m)
{
    std::uint64_t h = 0;
    for (std::size_t r = 0; r < m.rows(); ++r)
        h ^= m.row(r).hash() + r;
    return h;
}

/** The pre-word-parallel Bernoulli fill, retained as the bench baseline. */
void
bitwiseRandomize(BitVector& v, Rng& rng, double density)
{
    for (std::size_t pos = 0; pos < v.size(); ++pos)
        v.set(pos, rng.nextBool(density));
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
        std::vector<TileWords> tile_words(tiles_per_density);
        for (std::size_t t = 0; t < tiles_per_density; ++t) {
            tiles.push_back(gen.generate(256, 16, 4, t));
            extractTile(tiles[t], 0, 0, 256, 16, tile_words[t]);
        }

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
        const auto fast = h.run(
            "frontend/select_prefixes/d=" + fmt(d), "frontend", params,
            opts, [&] {
                std::uint64_t c = 0;
                for (const TileWords& tile : tile_words)
                    c ^= checksumSelection(selectPrefixes(tile));
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
                  for (std::size_t r = 0; r < rows; ++r)
                      bitwiseRandomize(m.row(r), rng, 0.2);
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

    if (!h.writeJsonFile(out_path)) {
        std::cerr << "failed to write " << out_path << "\n";
        return 1;
    }
    std::cout << "wrote " << out_path << " (" << h.results().size()
              << " cases)\n";
    return 0;
}
