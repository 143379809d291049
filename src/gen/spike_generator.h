/**
 * @file
 * Synthetic spike-activation generation.
 *
 * The paper's artifact records spike matrices from trained PyTorch
 * models; this repository generates them synthetically (DESIGN.md
 * substitution #1). The generator reproduces the two statistics that
 * ProSparsity's benefit depends on:
 *
 *  1. bit density — calibrated per workload to the paper's Fig. 11
 *     values, with mild deterministic per-layer jitter;
 *  2. combinatorial row similarity — a fraction of rows is drawn from a
 *     small bank of base patterns, with 1-bits randomly *dropped*
 *     (yielding proper subsets => partial matches) and occasional exact
 *     re-emission (exact matches); consecutive time steps re-emit rows
 *     with probability `temporal_repeat`.
 *
 * All draws are made from per-(seed, layer) streams so a layer's matrix
 * is identical regardless of the order layers are simulated in. Draws
 * are word-batched: i.i.d. rows and bank base patterns are filled 64
 * bits per batch (BitMatrix::randomizeRow, one Rng::nextBernoulliWords
 * call per row; every bank base is drawn into one reused 1 x cols row
 * and walked into its spike order with forEachSetBit), and clustered
 * keep-lengths come from word-parallel binomial draws
 * (Rng::nextBinomial), so generation cost scales with words, not bits.
 * Rows are written in place in the matrix's one word array, a word at
 * a time: each bank entry keeps prefix snapshots of its spike order
 * (snapshot j holds the first 64 * j spikes), so a clustered row ORs
 * one snapshot in (BitMatrix::orRow) and sets at most 63 more bits
 * per prefix; temporal repeats use copyRow. The snapshots make no
 * draws. The batched draw sequence is still a pure function of
 * (seed, layer_index, shape, profile) — the determinism contract tested
 * by the fixed-hash pins in tests/test_spike_generator.cc.
 */

#ifndef PROSPERITY_GEN_SPIKE_GENERATOR_H
#define PROSPERITY_GEN_SPIKE_GENERATOR_H

#include <cstdint>
#include <string>

#include "bitmatrix/bit_matrix.h"
#include "bitmatrix/dense_matrix.h"
#include "snn/layer.h"
#include "snn/workload.h"

namespace prosperity {

/** Generates the spike matrices of a workload's layers. */
class SpikeGenerator
{
  public:
    SpikeGenerator(ActivationProfile profile, std::uint64_t seed);

    /**
     * Generate a `rows` x `cols` spike matrix whose rows are laid out
     * t-major over `time_steps` steps (rows/time_steps positions each).
     *
     * @param layer_index Seeds this layer's independent stream and the
     *        deterministic density jitter.
     */
    BitMatrix generate(std::size_t rows, std::size_t cols,
                       std::size_t time_steps,
                       std::size_t layer_index) const;

    /**
     * Generate the activation of one lowered layer. A layer with a
     * profile_override (declarative models may pin one) is drawn with
     * that profile instead of this generator's, under the same seed,
     * so draws stay per-(seed, layer) streams either way.
     */
    BitMatrix generateLayer(const LayerSpec& layer,
                            std::size_t layer_index) const;

    /** Effective bit density targeted for `layer_index` (with jitter). */
    double layerDensity(std::size_t layer_index) const;

    const ActivationProfile& profile() const { return profile_; }

  private:
    ActivationProfile profile_;
    std::uint64_t seed_;
};

/**
 * Whether generateLayer draws the same matrix for `a` and `b` at one
 * layer position: both or neither are spiking GeMMs, and spiking ones
 * agree on m, k, time_steps and profile_override. Field by field, so
 * it checks spikeStreamKey rather than trusting it.
 */
bool sameLayerSpikes(const LayerSpec& a, const LayerSpec& b);

/**
 * Canonical identity of the spike stream `model` draws under `profile`
 * and `seed`: every input of generateLayer at every layer position.
 * Two workloads with equal keys draw identical spike matrices, so one
 * lineup can generate and tile-summarise them once. An exact string,
 * not a digest.
 */
std::string spikeStreamKey(const ModelSpec& model,
                           const ActivationProfile& profile,
                           std::uint64_t seed);

/** Uniform random int8 weight matrix in [-127, 127]. */
WeightMatrix randomWeights(std::size_t k, std::size_t n,
                           std::uint64_t seed);

} // namespace prosperity

#endif // PROSPERITY_GEN_SPIKE_GENERATOR_H
