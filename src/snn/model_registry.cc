#include "model_registry.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <stdexcept>

namespace prosperity {

namespace {

std::string
lowercase(const std::string& name)
{
    std::string out = name;
    std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return out;
}

std::string
roster(const std::vector<std::string>& names)
{
    std::string out;
    for (const std::string& name : names) {
        if (!out.empty())
            out += ", ";
        out += name;
    }
    return out;
}

} // namespace

// --- ModelRegistry ----------------------------------------------------

std::string
ModelRegistry::canonicalKey(const std::string& name)
{
    return lowercase(name);
}

ModelRegistry&
ModelRegistry::instance()
{
    // A throw (a missing or malformed zoo file) leaves the static
    // uninitialized and frees the partial registry, so the next call
    // retries the whole load.
    static ModelRegistry* registry = [] {
        std::unique_ptr<ModelRegistry> r(new ModelRegistry());
        registerBuiltinModels(*r);
        return r.release();
    }();
    return *registry;
}

bool
ModelRegistry::addDesc(ModelDesc desc, std::string source,
                       std::optional<Calibration> calibration)
{
    if (!calibration)
        calibration = Calibration{desc.profile.value_or(ActivationProfile{})};
    const std::string key = canonicalKey(desc.name);
    util::MutexLock lock(mutex_);
    for (const Entry& entry : entries_)
        if (entry.key == key)
            return false;
    entries_.push_back(Entry{key, std::move(desc), std::move(source),
                             std::move(*calibration)});
    return true;
}

const ModelRegistry::Entry*
ModelRegistry::find(const std::string& name) const
{
    const std::string key = canonicalKey(name);
    for (const Entry& entry : entries_)
        if (entry.key == key)
            return &entry;
    return nullptr;
}

void
ModelRegistry::throwUnknown(const std::string& name) const
{
    throw std::invalid_argument("unknown model \"" + name +
                                "\" (registered: " + roster(names()) +
                                ")");
}

bool
ModelRegistry::contains(const std::string& name) const
{
    util::MutexLock lock(mutex_);
    return find(name) != nullptr;
}

std::vector<std::string>
ModelRegistry::names() const
{
    util::MutexLock lock(mutex_);
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const Entry& entry : entries_)
        out.push_back(entry.desc.name);
    return out;
}

std::string
ModelRegistry::description(const std::string& name) const
{
    util::MutexLock lock(mutex_);
    const Entry* entry = find(name);
    return entry ? entry->desc.description : std::string{};
}

std::string
ModelRegistry::displayName(const std::string& name) const
{
    util::MutexLock lock(mutex_);
    const Entry* entry = find(name);
    return entry ? entry->desc.name : canonicalKey(name);
}

ModelSpec
ModelRegistry::build(const std::string& name,
                     const InputConfig& input) const
{
    // Lower a copy, outside the lock.
    const std::optional<ModelDesc> model = desc(name);
    if (!model)
        throwUnknown(name);
    return model->lower(input);
}

ActivationProfile
ModelRegistry::profileFor(const std::string& model,
                          const std::string& dataset) const
{
    const std::string dataset_key = DatasetRegistry::canonicalKey(dataset);
    util::MutexLock lock(mutex_);
    const Entry* entry = find(model);
    if (!entry) {
        // names() locks too; build the roster without re-entering.
        std::vector<std::string> known;
        for (const Entry& e : entries_)
            known.push_back(e.desc.name);
        throw std::invalid_argument("unknown model \"" + model +
                                    "\" (registered: " + roster(known) +
                                    ")");
    }
    ActivationProfile profile = entry->calibration.profile;
    for (const auto& [key, bit_density] :
         entry->calibration.dataset_bit_density)
        if (DatasetRegistry::canonicalKey(key) == dataset_key)
            profile.bit_density = bit_density;
    return profile;
}

std::optional<ModelDesc>
ModelRegistry::desc(const std::string& name) const
{
    util::MutexLock lock(mutex_);
    const Entry* entry = find(name);
    if (!entry)
        return std::nullopt;
    return entry->desc;
}

std::string
ModelRegistry::sourceOf(const std::string& name) const
{
    util::MutexLock lock(mutex_);
    const Entry* entry = find(name);
    return entry ? entry->source : std::string{};
}

// --- DatasetRegistry --------------------------------------------------

std::string
DatasetRegistry::canonicalKey(const std::string& name)
{
    return lowercase(name);
}

DatasetRegistry&
DatasetRegistry::instance()
{
    static DatasetRegistry* registry = [] {
        auto* r = new DatasetRegistry();
        registerBuiltinDatasets(*r);
        return r;
    }();
    return *registry;
}

bool
DatasetRegistry::add(DatasetInfo info)
{
    const std::string key = canonicalKey(info.name);
    util::MutexLock lock(mutex_);
    for (const Entry& entry : entries_)
        if (entry.key == key)
            return false;
    entries_.push_back(Entry{key, std::move(info)});
    return true;
}

const DatasetRegistry::Entry*
DatasetRegistry::find(const std::string& name) const
{
    const std::string key = canonicalKey(name);
    for (const Entry& entry : entries_)
        if (entry.key == key)
            return &entry;
    return nullptr;
}

bool
DatasetRegistry::contains(const std::string& name) const
{
    util::MutexLock lock(mutex_);
    return find(name) != nullptr;
}

std::vector<std::string>
DatasetRegistry::names() const
{
    util::MutexLock lock(mutex_);
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const Entry& entry : entries_)
        out.push_back(entry.info.name);
    return out;
}

std::string
DatasetRegistry::description(const std::string& name) const
{
    util::MutexLock lock(mutex_);
    const Entry* entry = find(name);
    return entry ? entry->info.description : std::string{};
}

std::string
DatasetRegistry::displayName(const std::string& name) const
{
    util::MutexLock lock(mutex_);
    const Entry* entry = find(name);
    return entry ? entry->info.name : canonicalKey(name);
}

InputConfig
DatasetRegistry::inputConfig(const std::string& name) const
{
    util::MutexLock lock(mutex_);
    if (const Entry* entry = find(name))
        return entry->info.input;
    std::vector<std::string> known;
    for (const Entry& entry : entries_)
        known.push_back(entry.info.name);
    throw std::invalid_argument("unknown dataset \"" + name +
                                "\" (registered: " + roster(known) + ")");
}

InputConfig
defaultInputConfig(const std::string& dataset)
{
    return DatasetRegistry::instance().inputConfig(dataset);
}

std::string
defaultModelDir()
{
    if (const char* env = std::getenv("PROSPERITY_MODEL_DIR"))
        return env;
#ifdef PROSPERITY_MODEL_DIR
    return PROSPERITY_MODEL_DIR;
#else
    return "models";
#endif
}

std::string
resolveModelPath(const std::string& path)
{
    const auto opens = [](const std::string& p) {
        return static_cast<bool>(std::ifstream(p));
    };
    if (opens(path) || path.empty() || path.front() == '/')
        return path;
    const std::string dir = defaultModelDir();
    std::string candidate = dir + "/" + path;
    if (opens(candidate))
        return candidate;
    // "models/foo.json" written repo-relative: strip the directory
    // component that defaultModelDir() already provides.
    if (path.rfind("models/", 0) == 0) {
        candidate = dir + "/" + path.substr(7);
        if (opens(candidate))
            return candidate;
    }
    return path;
}

std::string
registerModelFile(const std::string& path)
{
    const std::string resolved = resolveModelPath(path);
    ModelDesc desc = ModelDesc::load(resolved);
    ModelRegistry& registry = ModelRegistry::instance();
    const std::string key = ModelRegistry::canonicalKey(desc.name);
    // Register first, diagnose on failure: addDesc is atomic, so two
    // threads racing on the same name cannot both "win" — the loser
    // lands here and must find an identical definition already
    // present (the same rule holds for the built-ins' own files).
    if (registry.addDesc(desc, path))
        return key;
    const std::optional<ModelDesc> existing = registry.desc(key);
    if (!(*existing == desc)) {
        const std::string prior = registry.sourceOf(key);
        throw std::invalid_argument(
            resolved + ": model \"" + desc.name +
            "\" is already registered with a different definition" +
            (prior.empty() ? "" : " (loaded from " + prior + ")"));
    }
    return key;
}

// --- Built-in zoo -----------------------------------------------------

void
registerBuiltinModels(ModelRegistry& registry)
{
    struct Builtin
    {
        const char* name; ///< the file is models/<lowercase name>.json
        ModelRegistry::Calibration calibration;
    };
    // Calibration values (DESIGN.md substitution #1): bit densities the
    // paper quotes exactly are used verbatim (VGG-16/CIFAR100 34.21%,
    // SpikingBERT/SST-2 20.49%, SpikeBERT 13.19%); the rest follow the
    // per-family levels visible in Fig. 11. Correlation parameters are
    // tuned so measured product densities land in the paper's range
    // (average ~5x below bit density, up to ~20x for SpikeBERT).
    const Builtin builtins[] = {
        {"VGG16",
         {{0.32, 0.95, 8, 0.30, 0.55, 0.10},
          {{"cifar100", 0.3421}, {"cifar10dvs", 0.28}}}},
        {"VGG9",
         {{0.28, 0.92, 9, 0.30, 0.50, 0.10},
          {{"cifar100", 0.30}, {"mnist", 0.24}}}},
        {"ResNet18",
         {{0.14, 0.70, 14, 0.28, 0.30, 0.10},
          {{"cifar100", 0.15}, {"cifar10dvs", 0.18}}}},
        {"LeNet5", {{0.22, 0.78, 12, 0.30, 0.35, 0.10}, {}}},
        {"Spikformer",
         {{0.22, 0.80, 12, 0.26, 0.35, 0.12},
          {{"cifar100", 0.23}, {"cifar10dvs", 0.20}}}},
        {"SDT",
         {{0.13, 0.68, 14, 0.28, 0.30, 0.12},
          {{"cifar100", 0.14}, {"cifar10dvs", 0.15}}}},
        // Paper abstract: bit density 13.19%, product density 1.23%.
        {"SpikeBERT", {{0.1319, 0.90, 6, 0.32, 0.55, 0.08}, {}}},
        // Table II: bit 20.49%, one-prefix product 2.98% on SST-2.
        {"SpikingBERT", {{0.2049, 0.84, 12, 0.30, 0.45, 0.12}, {}}},
        // The LoAS Table V CNNs: not part of the Fig. 8 / Fig. 11
        // suites, but registered so dual-sparsity studies are one
        // campaign away. Profiles follow the spiking-CNN family
        // calibration.
        {"AlexNet", {{0.26, 0.80, 12, 0.30, 0.40, 0.10}, {}}},
        {"ResNet19", {{0.15, 0.72, 14, 0.28, 0.32, 0.10}, {}}},
    };
    const std::string dir = defaultModelDir();
    for (const Builtin& builtin : builtins) {
        const std::string path =
            dir + "/" + ModelRegistry::canonicalKey(builtin.name) + ".json";
        ModelDesc desc = ModelDesc::load(path);
        if (desc.name != builtin.name)
            throw std::invalid_argument(path + ": defines model \"" +
                                        desc.name + "\", expected \"" +
                                        builtin.name + "\"");
        registry.addDesc(std::move(desc), "", builtin.calibration);
    }
}

void
registerBuiltinDatasets(DatasetRegistry& registry)
{
    using Info = DatasetRegistry::DatasetInfo;
    registry.add(Info{"CIFAR10",
                      "32x32 RGB images, 10 classes (T=4)",
                      {4, 3, 32, 32, 64, 10}});
    registry.add(Info{"CIFAR100",
                      "32x32 RGB images, 100 classes (T=4)",
                      {4, 3, 32, 32, 64, 100}});
    // DVS event streams: 2 polarity channels, 128x128 frames resized
    // to 64x64, 8 time steps (standard SpikingJelly preprocessing).
    registry.add(Info{"CIFAR10DVS",
                      "event-camera CIFAR10: 2 polarity channels, "
                      "64x64, 10 classes (T=8)",
                      {8, 2, 64, 64, 64, 10}});
    registry.add(Info{"MNIST",
                      "28x28 grayscale digits, 10 classes (T=4)",
                      {4, 1, 28, 28, 64, 10}});
    registry.add(Info{"SST-2",
                      "binary sentiment (GLUE SST-2), 64 tokens",
                      {4, 3, 32, 32, 64, 2}});
    registry.add(Info{"SST-5",
                      "five-way sentiment (SST-5), 64 tokens",
                      {4, 3, 32, 32, 64, 5}});
    registry.add(Info{"MR",
                      "movie-review sentiment (MR), 64 tokens",
                      {4, 3, 32, 32, 64, 2}});
    registry.add(Info{"QQP",
                      "Quora question pairs (GLUE QQP), 128 tokens",
                      {4, 3, 32, 32, 128, 2}});
    registry.add(Info{"MNLI",
                      "natural language inference (GLUE MNLI), "
                      "128 tokens",
                      {4, 3, 32, 32, 128, 3}});
}

} // namespace prosperity
