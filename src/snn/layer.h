/**
 * @file
 * SNN layer descriptors.
 *
 * A LayerSpec records the spiking-GeMM geometry of one layer after the
 * standard lowerings (im2col for convolutions, time-step unrolling for
 * everything — Sec. II of the paper). The simulator consumes these
 * descriptors.
 */

#ifndef PROSPERITY_SNN_LAYER_H
#define PROSPERITY_SNN_LAYER_H

#include <optional>
#include <string>
#include <vector>

#include "bitmatrix/bit_matrix.h"
#include "snn/activation_profile.h"

namespace prosperity {

/**
 * Convolution geometry. im2col lowers a spiking convolution to a
 * spiking GeMM with T * outH * outW rows and C * kernel^2 columns.
 */
struct ConvParams
{
    std::size_t in_channels = 1;
    std::size_t out_channels = 1;
    std::size_t kernel = 3;
    std::size_t stride = 1;
    std::size_t padding = 1;

    /** Output spatial size for an input of `in` pixels along one axis. */
    std::size_t
    outDim(std::size_t in) const
    {
        return (in + 2 * padding - kernel) / stride + 1;
    }
};

/** Kind of computation a layer performs. */
enum class LayerType {
    kConv,        ///< spiking convolution, lowered to spiking GeMM
    kLinear,      ///< fully connected / projection spiking GeMM
    kAttentionQK, ///< Q x K^T, binary x binary spiking GeMM
    kAttentionSV, ///< attention-score x V spiking-GeMM-like op
    kSoftmax,     ///< SFU elementwise (spiking BERT variants)
    kLayerNorm,   ///< SFU elementwise
    kPool,        ///< max/avg pooling (negligible compute, tracked)
};

const char* layerTypeName(LayerType type);

/** One layer of an SNN model, already lowered to GeMM geometry. */
struct LayerSpec
{
    std::string name;
    LayerType type = LayerType::kLinear;
    std::size_t time_steps = 4;

    /**
     * Spiking-GeMM geometry. For kConv this is the im2col shape:
     * m = T * outH * outW, k = inC * kernel^2, n = outC. For SFU layers
     * the shape is zero and `sfu_ops` carries the work.
     */
    GemmShape gemm{};

    /** Elementwise special-function ops (exp/div/mul) for SFU layers. */
    double sfu_ops = 0.0;

    /** Whether the left operand is a binary spike matrix. */
    bool spiking = true;

    /**
     * Activation statistics for this layer only, overriding the
     * workload-level profile (declarative models may pin a layer's
     * measured profile; see docs/WORKLOADS.md). Spike generation uses
     * the same per-(seed, layer) stream either way.
     */
    std::optional<ActivationProfile> profile_override;

    /** True for layers executed on the PPU (spiking GeMMs). */
    bool
    isSpikingGemm() const
    {
        return spiking && gemm.m > 0 &&
               (type == LayerType::kConv || type == LayerType::kLinear ||
                type == LayerType::kAttentionQK ||
                type == LayerType::kAttentionSV);
    }

    /** Dense MAC count of this layer. */
    double denseOps() const { return gemm.denseOps(); }
};

/** A whole model: ordered layers plus bookkeeping. */
struct ModelSpec
{
    std::string name;
    std::size_t time_steps = 4;
    std::vector<LayerSpec> layers;

    /** Total dense ops across all GeMM layers. */
    double totalDenseOps() const;

    /** Total ops of spiking GeMM layers only (>= 98% per the paper). */
    double spikingGemmOps() const;

    /** Number of spiking-GeMM layers. */
    std::size_t numSpikingGemms() const;
};

/** Helpers used by the model zoo. */
LayerSpec makeConvLayer(const std::string& name, std::size_t time_steps,
                        std::size_t in_h, std::size_t in_w,
                        const ConvParams& conv);
LayerSpec makeLinearLayer(const std::string& name, std::size_t time_steps,
                          std::size_t tokens, std::size_t in_features,
                          std::size_t out_features);

} // namespace prosperity

#endif // PROSPERITY_SNN_LAYER_H
