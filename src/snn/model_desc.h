/**
 * @file
 * ModelDesc: declarative SNN model definitions — a model is *data*,
 * not code.
 *
 * A ModelDesc is the JSON-loadable form of a model architecture: an
 * ordered list of layer descriptors (conv / pool / linear / encoder)
 * that lowers against an InputConfig to the simulator's ModelSpec.
 * The paper's built-in zoo is the checked-in models/<key>.json, which
 * the ModelRegistry loads on first use (each lowering pinned by a
 * digest in tests/test_model_zoo.cc), so evaluating a new SNN means
 * writing a JSON file, not editing the library.
 *
 * Lowering keeps a running (channels, height, width) geometry that
 * convs and pools advance, a "spatial" flag that flips once any
 * conv/pool has run (encoder blocks then take their token count from
 * the feature map, NLP models from the dataset's seq_len), and a
 * checkpoint register for residual shortcut convolutions that consume
 * the geometry from *before* the downsampling conv. Values that depend
 * on the dataset — classifier widths, token counts — are written
 * symbolically ("num_classes", "seq_len") and resolved at lowering
 * time, so one JSON definition instantiates correctly for every
 * dataset geometry.
 *
 * Schema reference and a worked custom-model example:
 * docs/WORKLOADS.md. Parse errors carry the offending key path;
 * parse(serialize(desc)) == desc.
 */

#ifndef PROSPERITY_SNN_MODEL_DESC_H
#define PROSPERITY_SNN_MODEL_DESC_H

#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "snn/activation_profile.h"
#include "snn/layer.h"
#include "util/json.h"

namespace prosperity {

/** Input geometry + time steps a model is instantiated for. */
struct InputConfig
{
    std::size_t time_steps = 4;   ///< T
    std::size_t channels = 3;     ///< image channels (2 for DVS)
    std::size_t height = 32;      ///< image height
    std::size_t width = 32;       ///< image width
    std::size_t seq_len = 128;    ///< tokens (NLP models)
    std::size_t num_classes = 10;

    bool operator==(const InputConfig&) const = default;
};

/**
 * An integer field that may instead name an InputConfig field,
 * resolved when the desc is lowered ("num_classes" for classifier
 * widths, "seq_len" for token counts).
 */
struct SymbolicSize
{
    std::size_t value = 0;
    std::string symbol; ///< "" = literal `value`

    SymbolicSize() = default;
    SymbolicSize(std::size_t v) : value(v) {}
    explicit SymbolicSize(std::string s) : symbol(std::move(s)) {}

    std::size_t resolve(const InputConfig& input) const;

    bool operator==(const SymbolicSize&) const = default;
};

/** One convolution, lowered through im2col (makeConvLayer). */
struct ConvDesc
{
    std::string name;
    std::size_t out_channels = 1;
    std::size_t kernel = 3;
    std::size_t stride = 1;
    std::size_t padding = 0;
    bool spiking = true;
    /** Record the geometry *entering* this conv as the checkpoint
     *  (residual block entry). */
    bool checkpoint = false;
    /** Consume the checkpointed geometry instead of the running one
     *  (residual shortcut convs). */
    bool from_checkpoint = false;
    /** Advance the running geometry past this conv; false for branch
     *  convs whose output merges into the main path. */
    bool advance = true;

    bool operator==(const ConvDesc&) const = default;
};

/** Max/avg pooling; `global` pools the whole map to 1x1. */
struct PoolDesc
{
    std::string name;
    std::size_t factor = 2;
    bool global = false;

    bool operator==(const PoolDesc&) const = default;
};

/**
 * Fully connected layer. Without `in_features` it flattens the running
 * feature map (c*h*w) and resets the geometry to a feature vector;
 * with an explicit `in_features` (transformer heads) the running
 * geometry is left untouched.
 */
struct LinearDesc
{
    std::string name;
    SymbolicSize out_features;
    std::optional<std::size_t> in_features;
    std::size_t tokens = 1;

    bool operator==(const LinearDesc&) const = default;
};

/**
 * `blocks` transformer encoder blocks named `<prefix>0`, `<prefix>1`,
 * ...: Q/K/V projections, QxK^T, (softmax,) score x V, output
 * projection, (layernorm,) MLP. Token count defaults to the running
 * feature map's h*w after a conv stem, and to the dataset's seq_len
 * otherwise.
 */
struct EncoderDesc
{
    std::string prefix = "block";
    std::size_t blocks = 1;
    std::size_t dim = 0;
    std::size_t mlp_hidden = 0;
    bool softmax_attention = false;
    std::optional<SymbolicSize> seq_len;

    bool operator==(const EncoderDesc&) const = default;
};

/** One layer entry: the op plus an optional per-layer activation
 *  profile override (applied to every LayerSpec it lowers to). */
struct LayerDesc
{
    std::variant<ConvDesc, PoolDesc, LinearDesc, EncoderDesc> op;
    std::optional<ActivationProfile> profile;

    bool operator==(const LayerDesc&) const = default;
};

/** Declarative model definition; see the file comment. */
struct ModelDesc
{
    std::string name; ///< display name ("VGG16"); registry key lowercased
    std::string description;
    /** Default input geometry for standalone lowering (`model show`);
     *  when run as a workload the dataset's InputConfig wins. */
    std::optional<InputConfig> input;
    /** Default activation profile of workloads on this model (the
     *  built-ins take theirs from the registry's calibration table
     *  instead). */
    std::optional<ActivationProfile> profile;
    std::vector<LayerDesc> layers;

    bool operator==(const ModelDesc&) const = default;

    /**
     * Lower to the simulator's ModelSpec against `input`. Throws
     * std::invalid_argument naming the offending layer on geometry
     * errors (empty conv input, flatten before any spatial layer,
     * encoder without token source).
     */
    ModelSpec lower(const InputConfig& input) const;

    /** `input` when set, else a default-constructed InputConfig. */
    InputConfig defaultInput() const;

    /**
     * Build a desc from its JSON form (schema: docs/WORKLOADS.md).
     * Throws std::invalid_argument with the offending key path on
     * malformed input; parse(serialize(desc)) == desc.
     */
    static ModelDesc fromJson(const json::Value& value);

    /** Read + parse a model file; errors mention the path. */
    static ModelDesc load(const std::string& path);

    json::Value toJson() const;

    /** toJson() pretty-printed to `path`; false on I/O failure. */
    bool save(const std::string& path) const;
};

/**
 * Parse a (possibly partial) ActivationProfile object on top of
 * `base`; key-path errors against `context`. Shared with the campaign
 * spec's per-workload profile overrides.
 */
ActivationProfile profileFromJson(const json::Value& value,
                                  ActivationProfile base,
                                  const std::string& context);

/** Full 7-field JSON form of a profile (canonical field order). */
json::Value profileToJson(const ActivationProfile& profile);

} // namespace prosperity

#endif // PROSPERITY_SNN_MODEL_DESC_H
