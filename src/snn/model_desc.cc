#include "model_desc.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/json_schema.h"

namespace prosperity {

using json::expectOnlyKeys;
using json::optionalBool;
using json::optionalSize;
using json::optionalString;
using json::requireArray;
using json::requireNumberValue;
using json::requireObject;
using json::requireSizeValue;
using json::requireString;
using json::schemaError;

namespace {

/** Append one transformer encoder block's layers (see EncoderDesc). */
void
appendEncoderBlock(ModelSpec& model, const std::string& prefix,
                   std::size_t t, std::size_t seq_len, std::size_t dim,
                   std::size_t mlp_hidden, bool softmax_attention)
{
    auto linear = [&](const std::string& name, std::size_t in,
                      std::size_t out) {
        model.layers.push_back(
            makeLinearLayer(prefix + "." + name, t, seq_len, in, out));
    };
    linear("q_proj", dim, dim);
    linear("k_proj", dim, dim);
    linear("v_proj", dim, dim);

    // Q x K^T: binary query spikes against binary key spikes -> spiking
    // GeMM of shape (T*L, dim, L) aggregated across heads.
    LayerSpec qk;
    qk.name = prefix + ".attn_qk";
    qk.type = LayerType::kAttentionQK;
    qk.time_steps = t;
    qk.gemm = {t * seq_len, dim, seq_len};
    model.layers.push_back(qk);

    if (softmax_attention) {
        LayerSpec sm;
        sm.name = prefix + ".softmax";
        sm.type = LayerType::kSoftmax;
        sm.time_steps = t;
        sm.spiking = false;
        sm.sfu_ops = static_cast<double>(t) * seq_len * seq_len;
        model.layers.push_back(sm);
    }

    // Score x V: (T*L, L, dim). With softmax-free spiking attention the
    // score matrix is binary (a spiking GeMM); with softmax attention
    // the scores are real-valued, so every design runs it densely.
    LayerSpec sv;
    sv.name = prefix + ".attn_sv";
    sv.type = LayerType::kAttentionSV;
    sv.time_steps = t;
    sv.gemm = {t * seq_len, seq_len, dim};
    sv.spiking = !softmax_attention;
    model.layers.push_back(sv);

    linear("out_proj", dim, dim);

    if (softmax_attention) {
        LayerSpec ln;
        ln.name = prefix + ".layernorm1";
        ln.type = LayerType::kLayerNorm;
        ln.time_steps = t;
        ln.spiking = false;
        ln.sfu_ops = static_cast<double>(t) * seq_len * dim;
        model.layers.push_back(ln);
    }

    linear("mlp.fc1", dim, mlp_hidden);
    linear("mlp.fc2", mlp_hidden, dim);

    if (softmax_attention) {
        LayerSpec ln;
        ln.name = prefix + ".layernorm2";
        ln.type = LayerType::kLayerNorm;
        ln.time_steps = t;
        ln.spiking = false;
        ln.sfu_ops = static_cast<double>(t) * seq_len * dim;
        model.layers.push_back(ln);
    }
}

} // namespace

std::size_t
SymbolicSize::resolve(const InputConfig& input) const
{
    if (symbol.empty())
        return value;
    if (symbol == "num_classes")
        return input.num_classes;
    if (symbol == "seq_len")
        return input.seq_len;
    throw std::invalid_argument("unknown symbolic size \"" + symbol +
                                "\" (accepted: num_classes, seq_len)");
}

InputConfig
ModelDesc::defaultInput() const
{
    return input.value_or(InputConfig{});
}

ModelSpec
ModelDesc::lower(const InputConfig& in) const
{
    ModelSpec model;
    model.name = name;
    model.time_steps = in.time_steps;
    const std::size_t t = in.time_steps;
    std::size_t h = in.height, w = in.width, c = in.channels;
    // Checkpoint register for residual shortcuts (see header comment).
    std::size_t cp_h = h, cp_w = w, cp_c = c;
    bool spatial = false; // any conv/pool has run

    const auto fail = [this](const std::string& layer,
                             const std::string& message) -> void {
        throw std::invalid_argument("model \"" + name + "\": layer \"" +
                                    layer + "\": " + message);
    };

    for (const LayerDesc& entry : layers) {
        const std::size_t first = model.layers.size();
        if (const ConvDesc* conv = std::get_if<ConvDesc>(&entry.op)) {
            if (conv->checkpoint) {
                cp_c = c;
                cp_h = h;
                cp_w = w;
            }
            ConvParams p;
            p.in_channels = conv->from_checkpoint ? cp_c : c;
            p.out_channels = conv->out_channels;
            p.kernel = conv->kernel;
            p.stride = conv->stride;
            p.padding = conv->padding;
            const std::size_t in_h = conv->from_checkpoint ? cp_h : h;
            const std::size_t in_w = conv->from_checkpoint ? cp_w : w;
            if (in_h + 2 * p.padding < p.kernel ||
                in_w + 2 * p.padding < p.kernel)
                fail(conv->name,
                     "kernel " + std::to_string(p.kernel) +
                         " does not fit the " + std::to_string(in_h) +
                         "x" + std::to_string(in_w) + " input");
            LayerSpec layer = makeConvLayer(conv->name, t, in_h, in_w, p);
            layer.spiking = conv->spiking;
            model.layers.push_back(std::move(layer));
            if (conv->advance) {
                h = p.outDim(in_h);
                w = p.outDim(in_w);
                c = conv->out_channels;
            }
            spatial = true;
        } else if (const PoolDesc* pool = std::get_if<PoolDesc>(&entry.op)) {
            LayerSpec layer;
            layer.name = pool->name;
            layer.type = LayerType::kPool;
            layer.time_steps = t;
            model.layers.push_back(std::move(layer));
            if (pool->global) {
                // Global average pool: the whole map collapses to 1x1
                // (also for non-square maps, where dividing both axes
                // by h would leave w > 1).
                h = w = 1;
            } else {
                if (pool->factor == 0)
                    fail(pool->name, "pool factor must be positive");
                h = std::max<std::size_t>(1, h / pool->factor);
                w = std::max<std::size_t>(1, w / pool->factor);
            }
            spatial = true;
        } else if (const LinearDesc* lin = std::get_if<LinearDesc>(&entry.op)) {
            std::size_t in_features = 0;
            if (lin->in_features) {
                in_features = *lin->in_features;
            } else if (spatial) {
                in_features = c * h * w;
            } else {
                fail(lin->name,
                     "implicit in_features flattens the running feature "
                     "map, but no conv/pool has produced one — give the "
                     "layer an explicit \"in_features\"");
            }
            const std::size_t out_features =
                lin->out_features.resolve(in);
            if (out_features == 0)
                fail(lin->name, "out_features must be positive");
            model.layers.push_back(makeLinearLayer(
                lin->name, t, lin->tokens, in_features, out_features));
            if (!lin->in_features) {
                // Flattened: the model is a feature vector now.
                c = out_features;
                h = w = 1;
            }
        } else {
            const EncoderDesc& enc = std::get<EncoderDesc>(entry.op);
            std::size_t seq_len;
            if (enc.seq_len)
                seq_len = enc.seq_len->resolve(in);
            else if (spatial)
                seq_len = h * w;
            else
                seq_len = in.seq_len;
            if (seq_len == 0 || enc.dim == 0)
                fail(enc.prefix, "encoder needs positive seq_len and dim");
            for (std::size_t b = 0; b < enc.blocks; ++b)
                appendEncoderBlock(model, enc.prefix + std::to_string(b),
                                   t, seq_len, enc.dim, enc.mlp_hidden,
                                   enc.softmax_attention);
        }
        if (entry.profile)
            for (std::size_t i = first; i < model.layers.size(); ++i)
                model.layers[i].profile_override = entry.profile;
    }
    return model;
}

// --- JSON -------------------------------------------------------------

ActivationProfile
profileFromJson(const json::Value& value, ActivationProfile profile,
                const std::string& context)
{
    requireObject(value, context);
    expectOnlyKeys(value,
                   {"bit_density", "cluster_fraction", "bank_size",
                    "subset_drop_prob", "temporal_repeat", "union_prob",
                    "noise_insert_prob"},
                   context);
    for (const auto& [key, v] : value.asObject()) {
        const std::string field_context = context + "." + key;
        if (key == "bank_size") {
            profile.bank_size = requireSizeValue(v, field_context);
            continue;
        }
        const double number = requireNumberValue(v, field_context);
        // The generator needs a density strictly inside (0, 1) and
        // probabilities in [0, 1]; reject the rest here, where the
        // error can still name the key.
        const bool density = key == "bit_density";
        if (density ? !(number > 0.0 && number < 1.0)
                    : !(number >= 0.0 && number <= 1.0))
            schemaError(field_context,
                        std::string("must lie in ") +
                            (density ? "(0, 1)" : "[0, 1]") + ", got " +
                            json::formatDouble(number));
        if (key == "bit_density")
            profile.bit_density = number;
        else if (key == "cluster_fraction")
            profile.cluster_fraction = number;
        else if (key == "subset_drop_prob")
            profile.subset_drop_prob = number;
        else if (key == "temporal_repeat")
            profile.temporal_repeat = number;
        else if (key == "union_prob")
            profile.union_prob = number;
        else if (key == "noise_insert_prob")
            profile.noise_insert_prob = number;
    }
    return profile;
}

json::Value
profileToJson(const ActivationProfile& p)
{
    json::Value profile = json::Value::object();
    profile.set("bit_density", p.bit_density);
    profile.set("cluster_fraction", p.cluster_fraction);
    profile.set("bank_size", p.bank_size);
    profile.set("subset_drop_prob", p.subset_drop_prob);
    profile.set("temporal_repeat", p.temporal_repeat);
    profile.set("union_prob", p.union_prob);
    profile.set("noise_insert_prob", p.noise_insert_prob);
    return profile;
}

namespace {

SymbolicSize
parseSymbolicSize(const json::Value& value, const std::string& context)
{
    if (value.isString()) {
        const std::string& symbol = value.asString();
        if (symbol != "num_classes" && symbol != "seq_len")
            schemaError(context, "unknown symbolic size \"" + symbol +
                                     "\" (accepted: num_classes, "
                                     "seq_len, or a number)");
        return SymbolicSize(symbol);
    }
    return SymbolicSize(requireSizeValue(value, context));
}

json::Value
symbolicSizeJson(const SymbolicSize& size)
{
    if (!size.symbol.empty())
        return json::Value(size.symbol);
    return json::Value(size.value);
}

InputConfig
parseInputConfig(const json::Value& value, const std::string& context)
{
    requireObject(value, context);
    expectOnlyKeys(value,
                   {"time_steps", "channels", "height", "width",
                    "seq_len", "num_classes"},
                   context);
    InputConfig in;
    in.time_steps = optionalSize(value, "time_steps", in.time_steps,
                                 context);
    in.channels = optionalSize(value, "channels", in.channels, context);
    in.height = optionalSize(value, "height", in.height, context);
    in.width = optionalSize(value, "width", in.width, context);
    in.seq_len = optionalSize(value, "seq_len", in.seq_len, context);
    in.num_classes = optionalSize(value, "num_classes", in.num_classes,
                                  context);
    return in;
}

json::Value
inputConfigJson(const InputConfig& in)
{
    const InputConfig defaults;
    json::Value value = json::Value::object();
    if (in.time_steps != defaults.time_steps)
        value.set("time_steps", in.time_steps);
    if (in.channels != defaults.channels)
        value.set("channels", in.channels);
    if (in.height != defaults.height)
        value.set("height", in.height);
    if (in.width != defaults.width)
        value.set("width", in.width);
    if (in.seq_len != defaults.seq_len)
        value.set("seq_len", in.seq_len);
    if (in.num_classes != defaults.num_classes)
        value.set("num_classes", in.num_classes);
    return value;
}

LayerDesc
parseLayer(const json::Value& value, ActivationProfile base_profile,
           const std::string& context)
{
    requireObject(value, context);
    const std::string kind = requireString(value, "kind", context);
    LayerDesc layer;
    if (kind == "conv") {
        expectOnlyKeys(value,
                       {"kind", "name", "out_channels", "kernel",
                        "stride", "padding", "spiking", "checkpoint",
                        "from_checkpoint", "advance", "profile"},
                       context);
        ConvDesc conv;
        conv.name = requireString(value, "name", context);
        conv.out_channels =
            json::requireSize(value, "out_channels", context);
        conv.kernel = optionalSize(value, "kernel", conv.kernel, context);
        conv.stride = optionalSize(value, "stride", conv.stride, context);
        conv.padding =
            optionalSize(value, "padding", conv.padding, context);
        conv.spiking =
            optionalBool(value, "spiking", conv.spiking, context);
        conv.checkpoint =
            optionalBool(value, "checkpoint", conv.checkpoint, context);
        conv.from_checkpoint = optionalBool(value, "from_checkpoint",
                                            conv.from_checkpoint, context);
        conv.advance =
            optionalBool(value, "advance", conv.advance, context);
        if (conv.out_channels == 0 || conv.kernel == 0 ||
            conv.stride == 0)
            schemaError(context, "out_channels, kernel and stride must "
                                 "be positive");
        layer.op = conv;
    } else if (kind == "pool") {
        expectOnlyKeys(value, {"kind", "name", "factor", "global",
                               "profile"},
                       context);
        PoolDesc pool;
        pool.name = requireString(value, "name", context);
        pool.factor = optionalSize(value, "factor", pool.factor, context);
        pool.global = optionalBool(value, "global", pool.global, context);
        // A factor on a global pool would be silently ignored (and
        // dropped by serialization); fail loudly instead.
        if (pool.global && value.find("factor"))
            schemaError(context, "\"factor\" has no effect when "
                                 "\"global\" is true — remove one");
        if (!pool.global && pool.factor == 0)
            schemaError(context, "pool factor must be positive");
        layer.op = pool;
    } else if (kind == "linear") {
        expectOnlyKeys(value,
                       {"kind", "name", "out_features", "in_features",
                        "tokens", "profile"},
                       context);
        LinearDesc linear;
        linear.name = requireString(value, "name", context);
        const json::Value* out = value.find("out_features");
        if (!out)
            schemaError(context,
                        "missing required key \"out_features\"");
        linear.out_features =
            parseSymbolicSize(*out, context + ".out_features");
        if (const json::Value* in = value.find("in_features"))
            linear.in_features =
                requireSizeValue(*in, context + ".in_features");
        linear.tokens = optionalSize(value, "tokens", linear.tokens,
                                     context);
        if (linear.tokens == 0)
            schemaError(context, "tokens must be positive");
        layer.op = linear;
    } else if (kind == "encoder") {
        expectOnlyKeys(value,
                       {"kind", "prefix", "blocks", "dim", "mlp_hidden",
                        "softmax_attention", "seq_len", "profile"},
                       context);
        EncoderDesc encoder;
        encoder.prefix =
            optionalString(value, "prefix", encoder.prefix, context);
        encoder.blocks =
            optionalSize(value, "blocks", encoder.blocks, context);
        encoder.dim = json::requireSize(value, "dim", context);
        encoder.mlp_hidden =
            json::requireSize(value, "mlp_hidden", context);
        encoder.softmax_attention =
            optionalBool(value, "softmax_attention",
                         encoder.softmax_attention, context);
        if (const json::Value* seq = value.find("seq_len"))
            encoder.seq_len =
                parseSymbolicSize(*seq, context + ".seq_len");
        if (encoder.blocks == 0 || encoder.dim == 0 ||
            encoder.mlp_hidden == 0)
            schemaError(context, "blocks, dim and mlp_hidden must be "
                                 "positive");
        layer.op = encoder;
    } else {
        schemaError(context, "unknown layer kind \"" + kind +
                                 "\" (accepted: conv, pool, linear, "
                                 "encoder)");
    }
    if (const json::Value* profile = value.find("profile"))
        layer.profile = profileFromJson(*profile, base_profile,
                                        context + ".profile");
    return layer;
}

json::Value
layerJson(const LayerDesc& layer)
{
    json::Value value = json::Value::object();
    if (const auto* conv = std::get_if<ConvDesc>(&layer.op)) {
        value.set("kind", "conv");
        value.set("name", conv->name);
        value.set("out_channels", conv->out_channels);
        value.set("kernel", conv->kernel);
        value.set("stride", conv->stride);
        value.set("padding", conv->padding);
        if (!conv->spiking)
            value.set("spiking", false);
        if (conv->checkpoint)
            value.set("checkpoint", true);
        if (conv->from_checkpoint)
            value.set("from_checkpoint", true);
        if (!conv->advance)
            value.set("advance", false);
    } else if (const auto* pool =
                   std::get_if<PoolDesc>(&layer.op)) {
        value.set("kind", "pool");
        value.set("name", pool->name);
        if (pool->global)
            value.set("global", true);
        else if (pool->factor != 2)
            value.set("factor", pool->factor);
    } else if (const auto* lin =
                   std::get_if<LinearDesc>(&layer.op)) {
        value.set("kind", "linear");
        value.set("name", lin->name);
        if (lin->in_features)
            value.set("in_features", *lin->in_features);
        value.set("out_features", symbolicSizeJson(lin->out_features));
        if (lin->tokens != 1)
            value.set("tokens", lin->tokens);
    } else {
        const auto& enc = std::get<EncoderDesc>(layer.op);
        value.set("kind", "encoder");
        if (enc.prefix != "block")
            value.set("prefix", enc.prefix);
        value.set("blocks", enc.blocks);
        value.set("dim", enc.dim);
        value.set("mlp_hidden", enc.mlp_hidden);
        if (enc.softmax_attention)
            value.set("softmax_attention", true);
        if (enc.seq_len)
            value.set("seq_len", symbolicSizeJson(*enc.seq_len));
    }
    if (layer.profile)
        value.set("profile", profileToJson(*layer.profile));
    return value;
}

} // namespace

ModelDesc
ModelDesc::fromJson(const json::Value& value)
{
    const std::string top = "model definition";
    requireObject(value, top);
    expectOnlyKeys(value,
                   {"name", "description", "input", "profile", "layers"},
                   top);
    ModelDesc desc;
    desc.name = requireString(value, "name", top);
    if (desc.name.empty())
        schemaError(top, "\"name\" must not be empty");
    desc.description = optionalString(value, "description", "", top);
    if (const json::Value* input = value.find("input"))
        desc.input = parseInputConfig(*input, top + ".input");
    if (const json::Value* profile = value.find("profile"))
        desc.profile = profileFromJson(*profile, ActivationProfile{},
                                       top + ".profile");
    const json::Value::Array& layers = requireArray(value, "layers", top);
    if (layers.empty())
        schemaError(top, "\"layers\" must list at least one layer");
    const ActivationProfile base =
        desc.profile.value_or(ActivationProfile{});
    for (std::size_t i = 0; i < layers.size(); ++i)
        desc.layers.push_back(parseLayer(
            layers[i], base, "layers[" + std::to_string(i) + "]"));
    return desc;
}

ModelDesc
ModelDesc::load(const std::string& path)
{
    std::ifstream is(path);
    if (!is)
        throw std::invalid_argument("cannot open model file: " + path);
    std::ostringstream text;
    text << is.rdbuf();
    try {
        return fromJson(json::Value::parse(text.str()));
    } catch (const std::exception& e) {
        throw std::invalid_argument(path + ": " + e.what());
    }
}

json::Value
ModelDesc::toJson() const
{
    json::Value root = json::Value::object();
    root.set("name", name);
    if (!description.empty())
        root.set("description", description);
    if (input)
        root.set("input", inputConfigJson(*input));
    if (profile)
        root.set("profile", profileToJson(*profile));
    json::Value layers_json = json::Value::array();
    for (const LayerDesc& layer : layers)
        layers_json.push(layerJson(layer));
    root.set("layers", std::move(layers_json));
    return root;
}

bool
ModelDesc::save(const std::string& path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    toJson().write(os, 2);
    os << '\n';
    return static_cast<bool>(os.flush());
}

} // namespace prosperity
