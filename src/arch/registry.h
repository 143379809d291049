/**
 * @file
 * Accelerator registry: construct any modeled design by name.
 *
 * Every design registers a factory under a canonical lowercase name
 * ("prosperity", "eyeriss", "ptb", "sato", "mint", "stellar", "a100",
 * "loas"); lookup is case-insensitive so the display names used in
 * reports ("Prosperity", "A100", ...) resolve too. Factories accept an
 * AcceleratorParams key/value bag for per-design knobs (Prosperity's
 * ablation modes, PTB's time steps, LoAS's weight density), so whole
 * design-space points are expressible as plain strings — the currency
 * the SimulationEngine batches and memoizes on.
 *
 * Registration code lives next to each design (see the
 * register*Accelerator hooks below): a design owns its name, its
 * parameter parsing, and its defaults. The registry pulls those hooks
 * in explicitly instead of relying on static-initializer tricks, which
 * static archives would dead-strip.
 */

#ifndef PROSPERITY_ARCH_REGISTRY_H
#define PROSPERITY_ARCH_REGISTRY_H

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "arch/accelerator.h"
#include "util/thread_annotations.h"

namespace prosperity {

/** String key/value parameters for accelerator factories. */
class AcceleratorParams
{
  public:
    AcceleratorParams& set(const std::string& key, const std::string& value);
    /** Stores json::formatDouble(value), the spelling a campaign spec's
     *  numeric parameter gets, so both fingerprint alike. */
    AcceleratorParams& set(const std::string& key, double value);
    AcceleratorParams& set(const std::string& key, std::size_t value);

    std::string getString(const std::string& key,
                          const std::string& fallback) const;
    double getDouble(const std::string& key, double fallback) const;
    std::size_t getSize(const std::string& key, std::size_t fallback) const;

    /**
     * Throw std::invalid_argument if any key is not in `known`.
     * Factories call this first so a typo'd parameter fails fast
     * instead of silently configuring a default design.
     */
    void expectOnly(std::initializer_list<const char*> known) const;

    bool empty() const { return entries_.empty(); }

    /**
     * Canonical "key=value;..." encoding (keys sorted); used by the
     * SimulationEngine as part of its memoization key.
     */
    std::string fingerprint() const;

    const std::map<std::string, std::string>& entries() const
    {
        return entries_;
    }

  private:
    std::map<std::string, std::string> entries_;
};

/** Name -> factory registry for every modeled accelerator. */
class AcceleratorRegistry
{
  public:
    using Factory =
        std::function<std::unique_ptr<Accelerator>(const AcceleratorParams&)>;

    /** The process-wide registry, with all built-in designs present. */
    static AcceleratorRegistry& instance();

    /**
     * The canonical form a name is registered and looked up under
     * (lowercase). Anything keying on design identity — e.g. the
     * SimulationEngine's memo keys — must use this.
     */
    static std::string canonicalName(const std::string& name);

    /**
     * Register a factory under `name` (matched case-insensitively).
     * Returns false if the name is already taken.
     */
    bool add(const std::string& name, const std::string& description,
             Factory factory);

    /**
     * Construct the design registered under `name`. Throws
     * std::invalid_argument for unknown names (the message lists the
     * registered ones).
     */
    std::unique_ptr<Accelerator> create(
        const std::string& name,
        const AcceleratorParams& params = {}) const;

    bool contains(const std::string& name) const;

    /** Registered canonical names, in registration order. */
    std::vector<std::string> names() const;

    /** One-line description of a registered design ("" if unknown). */
    std::string description(const std::string& name) const;

  private:
    AcceleratorRegistry() = default;

    struct Entry
    {
        std::string name; ///< canonical (lowercase) name
        std::string description;
        Factory factory;
    };

    const Entry* find(const std::string& name) const REQUIRES(mutex_);

    mutable util::Mutex mutex_;
    std::vector<Entry> entries_ GUARDED_BY(mutex_);
};

/**
 * Self-registration hooks, one per design, implemented in that design's
 * translation unit. instance() invokes each exactly once.
 */
void registerEyerissAccelerator(AcceleratorRegistry& registry);
void registerPtbAccelerator(AcceleratorRegistry& registry);
void registerSatoAccelerator(AcceleratorRegistry& registry);
void registerMintAccelerator(AcceleratorRegistry& registry);
void registerStellarAccelerator(AcceleratorRegistry& registry);
void registerA100Accelerator(AcceleratorRegistry& registry);
void registerLoasAccelerator(AcceleratorRegistry& registry);
void registerProsperityAccelerator(AcceleratorRegistry& registry);

} // namespace prosperity

#endif // PROSPERITY_ARCH_REGISTRY_H
