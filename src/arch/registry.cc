#include "registry.h"

#include <algorithm>
#include <cctype>
#include <stdexcept>

#include "sim/logging.h"
#include "util/json.h"

namespace prosperity {

AcceleratorParams&
AcceleratorParams::set(const std::string& key, const std::string& value)
{
    entries_[key] = value;
    return *this;
}

AcceleratorParams&
AcceleratorParams::set(const std::string& key, double value)
{
    entries_[key] = json::formatDouble(value);
    return *this;
}

AcceleratorParams&
AcceleratorParams::set(const std::string& key, std::size_t value)
{
    entries_[key] = std::to_string(value);
    return *this;
}

std::string
AcceleratorParams::getString(const std::string& key,
                             const std::string& fallback) const
{
    const auto it = entries_.find(key);
    return it == entries_.end() ? fallback : it->second;
}

double
AcceleratorParams::getDouble(const std::string& key, double fallback) const
{
    const auto it = entries_.find(key);
    if (it == entries_.end())
        return fallback;
    try {
        std::size_t consumed = 0;
        const double v = std::stod(it->second, &consumed);
        if (consumed != it->second.size())
            throw std::invalid_argument("trailing characters");
        return v;
    } catch (const std::exception&) {
        throw std::invalid_argument("accelerator parameter \"" + key +
                                    "\" is not a number: " + it->second);
    }
}

std::size_t
AcceleratorParams::getSize(const std::string& key,
                           std::size_t fallback) const
{
    const auto it = entries_.find(key);
    if (it == entries_.end())
        return fallback;
    try {
        std::size_t consumed = 0;
        const long long v = std::stoll(it->second, &consumed);
        if (consumed != it->second.size() || v < 0)
            throw std::invalid_argument("not a whole non-negative value");
        return static_cast<std::size_t>(v);
    } catch (const std::exception&) {
        throw std::invalid_argument("accelerator parameter \"" + key +
                                    "\" is not a non-negative integer: " +
                                    it->second);
    }
}

void
AcceleratorParams::expectOnly(
    std::initializer_list<const char*> known) const
{
    for (const auto& [key, value] : entries_) {
        bool recognized = false;
        for (const char* k : known)
            if (key == k) {
                recognized = true;
                break;
            }
        if (!recognized) {
            std::string roster;
            for (const char* k : known) {
                if (!roster.empty())
                    roster += ", ";
                roster += k;
            }
            throw std::invalid_argument(
                "unknown accelerator parameter \"" + key +
                "\" (accepted: " + (roster.empty() ? "none" : roster) +
                ")");
        }
    }
}

std::string
AcceleratorParams::fingerprint() const
{
    std::string out;
    for (const auto& [key, value] : entries_) { // std::map: sorted keys
        if (!out.empty())
            out += ';';
        out += key;
        out += '=';
        out += value;
    }
    return out;
}

std::string
AcceleratorRegistry::canonicalName(const std::string& name)
{
    std::string out = name;
    std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return out;
}

AcceleratorRegistry&
AcceleratorRegistry::instance()
{
    static AcceleratorRegistry* registry = [] {
        auto* r = new AcceleratorRegistry();
        // Pull in every built-in design's self-registration hook. Order
        // fixes names() order: baselines in Table IV / Fig. 8 order,
        // then the paper's own design.
        registerEyerissAccelerator(*r);
        registerPtbAccelerator(*r);
        registerSatoAccelerator(*r);
        registerMintAccelerator(*r);
        registerStellarAccelerator(*r);
        registerA100Accelerator(*r);
        registerLoasAccelerator(*r);
        registerProsperityAccelerator(*r);
        return r;
    }();
    return *registry;
}

bool
AcceleratorRegistry::add(const std::string& name,
                         const std::string& description, Factory factory)
{
    PROSPERITY_ASSERT(factory != nullptr, "null accelerator factory");
    const std::string canonical = canonicalName(name);
    util::MutexLock lock(mutex_);
    for (const Entry& entry : entries_)
        if (entry.name == canonical)
            return false;
    entries_.push_back(Entry{canonical, description, std::move(factory)});
    return true;
}

const AcceleratorRegistry::Entry*
AcceleratorRegistry::find(const std::string& name) const
{
    const std::string canonical = canonicalName(name);
    for (const Entry& entry : entries_)
        if (entry.name == canonical)
            return &entry;
    return nullptr;
}

std::unique_ptr<Accelerator>
AcceleratorRegistry::create(const std::string& name,
                            const AcceleratorParams& params) const
{
    Factory factory;
    {
        util::MutexLock lock(mutex_);
        if (const Entry* entry = find(name))
            factory = entry->factory;
    }
    if (!factory) {
        std::string known;
        for (const std::string& n : names()) {
            if (!known.empty())
                known += ", ";
            known += n;
        }
        throw std::invalid_argument("unknown accelerator \"" + name +
                                    "\" (registered: " + known + ")");
    }
    auto accelerator = factory(params);
    PROSPERITY_ASSERT(accelerator != nullptr,
                      "accelerator factory returned null");
    return accelerator;
}

bool
AcceleratorRegistry::contains(const std::string& name) const
{
    util::MutexLock lock(mutex_);
    return find(name) != nullptr;
}

std::vector<std::string>
AcceleratorRegistry::names() const
{
    util::MutexLock lock(mutex_);
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const Entry& entry : entries_)
        out.push_back(entry.name);
    return out;
}

std::string
AcceleratorRegistry::description(const std::string& name) const
{
    util::MutexLock lock(mutex_);
    const Entry* entry = find(name);
    return entry ? entry->description : std::string{};
}

} // namespace prosperity
