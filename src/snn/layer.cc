#include "layer.h"

#include "sim/logging.h"

namespace prosperity {

const char*
layerTypeName(LayerType type)
{
    switch (type) {
      case LayerType::kConv: return "conv";
      case LayerType::kLinear: return "linear";
      case LayerType::kAttentionQK: return "attn_qk";
      case LayerType::kAttentionSV: return "attn_sv";
      case LayerType::kSoftmax: return "softmax";
      case LayerType::kLayerNorm: return "layernorm";
      case LayerType::kPool: return "pool";
    }
    return "?";
}

double
ModelSpec::totalDenseOps() const
{
    double ops = 0.0;
    for (const auto& layer : layers)
        ops += layer.denseOps();
    return ops;
}

double
ModelSpec::spikingGemmOps() const
{
    double ops = 0.0;
    for (const auto& layer : layers)
        if (layer.isSpikingGemm())
            ops += layer.denseOps();
    return ops;
}

std::size_t
ModelSpec::numSpikingGemms() const
{
    std::size_t count = 0;
    for (const auto& layer : layers)
        if (layer.isSpikingGemm())
            ++count;
    return count;
}

LayerSpec
makeConvLayer(const std::string& name, std::size_t time_steps,
              std::size_t in_h, std::size_t in_w, const ConvParams& conv)
{
    PROSPERITY_ASSERT(in_h >= 1 && in_w >= 1, "empty conv input");
    LayerSpec layer;
    layer.name = name;
    layer.type = LayerType::kConv;
    layer.time_steps = time_steps;
    layer.gemm.m = time_steps * conv.outDim(in_h) * conv.outDim(in_w);
    layer.gemm.k = conv.in_channels * conv.kernel * conv.kernel;
    layer.gemm.n = conv.out_channels;
    layer.gemm.input_reuse = conv.kernel * conv.kernel;
    return layer;
}

LayerSpec
makeLinearLayer(const std::string& name, std::size_t time_steps,
                std::size_t tokens, std::size_t in_features,
                std::size_t out_features)
{
    LayerSpec layer;
    layer.name = name;
    layer.type = LayerType::kLinear;
    layer.time_steps = time_steps;
    layer.gemm.m = time_steps * tokens;
    layer.gemm.k = in_features;
    layer.gemm.n = out_features;
    return layer;
}

} // namespace prosperity
