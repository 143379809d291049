/**
 * @file
 * Model and dataset registries: construct any workload by name.
 *
 * The workload layer's analogue of the AcceleratorRegistry — the three
 * axes of an experiment (accelerator, model, dataset) are all open,
 * string-keyed registries. Every model is a declarative ModelDesc
 * (model_desc.h) plus its calibrated activation statistics under a
 * canonical lowercase key; every dataset registers the InputConfig it
 * imposes (time steps, geometry, classes) — the single source of truth
 * for `defaultInputConfig`. Lookup is case-insensitive so the display
 * names used in reports ("VGG16", "SST-2") resolve too.
 *
 * Built-in entries are the paper's zoo (the eight Fig. 8 / Fig. 11
 * models plus the LoAS Table V CNNs and the nine evaluation datasets).
 * The built-in models are defined only by the checked-in
 * models/<key>.json files, loaded from defaultModelDir() when the
 * registry is first used; their calibration stays in
 * model_registry.cc. Opening a new workload therefore needs no library
 * edit: register a ModelDesc at run time (`addDesc`), e.g. from a JSON
 * file — campaign specs do this for `"model": "file:<path>.json"`.
 *
 * Like the AcceleratorRegistry, registration is explicit (no
 * static-initializer tricks) and the registry hands out copies, never
 * references into its locked state.
 */

#ifndef PROSPERITY_SNN_MODEL_REGISTRY_H
#define PROSPERITY_SNN_MODEL_REGISTRY_H

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "snn/activation_profile.h"
#include "snn/model_desc.h"
#include "util/thread_annotations.h"

namespace prosperity {

/** Name -> ModelDesc registry for every known model architecture. */
class ModelRegistry
{
  public:
    /** Calibrated activation statistics of workloads on one model
     *  (DESIGN.md substitution #1). */
    struct Calibration
    {
        ActivationProfile profile{};
        /** Per-dataset bit-density overrides (dataset name -> value),
         *  for the workloads the paper quotes exactly. */
        std::vector<std::pair<std::string, double>> dataset_bit_density{};
    };

    /**
     * The process-wide registry, with all built-in models present.
     * Throws std::invalid_argument (naming the path) if a built-in
     * model file is missing or malformed; the next call retries.
     */
    static ModelRegistry& instance();

    /**
     * The canonical form a name is registered and looked up under
     * (lowercase). Workload identity — e.g. Workload::model — uses
     * this.
     */
    static std::string canonicalKey(const std::string& name);

    /**
     * Register a declarative model under `desc.name` (matched
     * case-insensitively); false if the name is already taken.
     * `source` records where the desc came from (e.g. the "file:"
     * reference of a campaign spec) so specs serialize back to the
     * same reference. Without `calibration` the model's profile is
     * `desc.profile` (or the ActivationProfile defaults) on every
     * dataset.
     */
    bool addDesc(ModelDesc desc, std::string source = "",
                 std::optional<Calibration> calibration = std::nullopt);

    bool contains(const std::string& name) const;

    /** Registered display names, in registration order. */
    std::vector<std::string> names() const;

    /** One-line description of a model ("" if unknown). */
    std::string description(const std::string& name) const;

    /** Display name of a model; the canonical key itself if unknown
     *  (never throws — report labels must not). */
    std::string displayName(const std::string& name) const;

    /**
     * Lower `name`'s desc for `input`. Throws std::invalid_argument
     * for unknown names (the message lists the registered ones).
     */
    ModelSpec build(const std::string& name,
                    const InputConfig& input) const;

    /**
     * Calibrated activation profile of (model, dataset): the model's
     * base profile with its per-dataset bit-density override applied.
     * Throws for unknown model names; unknown datasets just get the
     * base profile (custom datasets are legitimate).
     */
    ActivationProfile profileFor(const std::string& model,
                                 const std::string& dataset) const;

    /** The registered definition of a model; nullopt for unknown
     *  names. */
    std::optional<ModelDesc> desc(const std::string& name) const;

    /** Source reference a model was registered from ("" for the
     *  built-ins, programmatic registrations and unknown names). */
    std::string sourceOf(const std::string& name) const;

  private:
    ModelRegistry() = default;

    struct Entry
    {
        std::string key; ///< canonical (lowercase)
        ModelDesc desc;
        std::string source;
        Calibration calibration;
    };

    const Entry* find(const std::string& name) const REQUIRES(mutex_);
    /** Throws listing the roster; takes the lock itself (via names()). */
    [[noreturn]] void throwUnknown(const std::string& name) const
        EXCLUDES(mutex_);

    mutable util::Mutex mutex_;
    std::vector<Entry> entries_ GUARDED_BY(mutex_);
};

/** Name -> InputConfig registry for every known dataset. */
class DatasetRegistry
{
  public:
    /** Everything a dataset registers under its name. */
    struct DatasetInfo
    {
        std::string name; ///< display name ("SST-2"); key is lowercased
        std::string description;
        InputConfig input{};
    };

    /** The process-wide registry, with all built-in datasets present. */
    static DatasetRegistry& instance();

    static std::string canonicalKey(const std::string& name);

    /** Register a dataset. Returns false if the name is taken. */
    bool add(DatasetInfo info);

    bool contains(const std::string& name) const;

    /** Registered display names, in registration order. */
    std::vector<std::string> names() const;

    /** One-line description of a dataset ("" if unknown). */
    std::string description(const std::string& name) const;

    /** Display name of a dataset; the canonical key itself if
     *  unknown. */
    std::string displayName(const std::string& name) const;

    /**
     * The input geometry + time steps the dataset imposes — the single
     * source of truth for workload construction. Throws
     * std::invalid_argument for unknown names (the message lists the
     * registered ones).
     */
    InputConfig inputConfig(const std::string& name) const;

  private:
    DatasetRegistry() = default;

    struct Entry
    {
        std::string key;
        DatasetInfo info;
    };

    const Entry* find(const std::string& name) const REQUIRES(mutex_);

    mutable util::Mutex mutex_;
    std::vector<Entry> entries_ GUARDED_BY(mutex_);
};

/** DatasetRegistry::instance().inputConfig(dataset) — the InputConfig
 *  every workload construction site derives from. */
InputConfig defaultInputConfig(const std::string& dataset);

/**
 * Directory holding the checked-in model definitions. The
 * PROSPERITY_MODEL_DIR environment variable wins; otherwise the
 * compile-time configured source-tree path; otherwise "models".
 */
std::string defaultModelDir();

/**
 * Resolve a model-file reference: the path as given if it opens,
 * otherwise (for relative paths) against defaultModelDir() — with or
 * without a leading "models/" component, so "file:models/foo.json"
 * works from any working directory. Returns the original path when
 * nothing resolves (the subsequent load error then names it).
 */
std::string resolveModelPath(const std::string& path);

/**
 * Load the ModelDesc at `path` (via resolveModelPath) and register it,
 * remembering `path` as the entry's source. A name that is already
 * registered with an identical definition (a reload, or a copy of a
 * built-in's file) returns the existing key and keeps its source.
 * Throws std::invalid_argument on parse errors and on a name already
 * registered with a different definition. Returns the registry key.
 */
std::string registerModelFile(const std::string& path);

/**
 * Registration hooks for the built-in zoo, invoked once by the
 * instance() accessors (kept explicit so static archives cannot
 * dead-strip them, mirroring the accelerator registry).
 * registerBuiltinModels loads defaultModelDir()/<key>.json for each
 * built-in model and throws, naming the path, if one is missing,
 * malformed or defines a different model name.
 */
void registerBuiltinModels(ModelRegistry& registry);
void registerBuiltinDatasets(DatasetRegistry& registry);

} // namespace prosperity

#endif // PROSPERITY_SNN_MODEL_REGISTRY_H
