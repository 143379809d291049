/**
 * @file
 * Workloads: (model, dataset) pairs and their activation statistics.
 *
 * A Workload names its model and dataset by *registry key* (see
 * snn/model_registry.h) — the same open, string-keyed currency the
 * accelerator axis uses — so the paper's 16 end-to-end pairs (Fig. 8)
 * are just the checked-in starting set, not the API's ceiling: any
 * registered model (built-in, programmatic, or loaded from a JSON
 * ModelDesc) runs on any registered dataset.
 *
 * The original artifact ships recorded spike matrices from trained
 * PyTorch models; this repository substitutes calibrated synthetic
 * activations (see DESIGN.md): each workload carries an
 * ActivationProfile whose bit density matches the paper's reported
 * values and whose correlation structure is tuned so product density
 * lands in the reported range. makeWorkload() attaches the calibrated
 * profile from the model registry's table.
 */

#ifndef PROSPERITY_SNN_WORKLOAD_H
#define PROSPERITY_SNN_WORKLOAD_H

#include <string>
#include <vector>

#include "snn/activation_profile.h"
#include "snn/model_registry.h"

namespace prosperity {

/** One evaluated (model, dataset) pair. */
struct Workload
{
    std::string model;   ///< ModelRegistry key (canonical lowercase)
    std::string dataset; ///< DatasetRegistry key (canonical lowercase)
    ActivationProfile profile;

    /** Display label, e.g. "VGG16/CIFAR100" (registry display names). */
    std::string name() const;

    /** Display name of the model ("VGG16"). */
    std::string modelName() const;

    /** Display name of the dataset ("CIFAR100"). */
    std::string datasetName() const;

    /** Build the lowered model for this dataset's input geometry. */
    ModelSpec buildModel() const;
};

/** Same (model, dataset) keys with the same activation profile. */
bool operator==(const Workload& a, const Workload& b);
inline bool operator!=(const Workload& a, const Workload& b)
{
    return !(a == b);
}

/**
 * Construct a workload with its calibrated activation profile. Names
 * resolve case-insensitively against the registries; throws
 * std::invalid_argument listing the registered names on a miss.
 */
Workload makeWorkload(const std::string& model,
                      const std::string& dataset);

/** The 16 pairs of the end-to-end evaluation (Fig. 8), paper order. */
std::vector<Workload> fig8Suite();

/** The density-study suite (Fig. 11): Fig. 8 pairs plus VGG-9 and LN5. */
std::vector<Workload> fig11Suite();

} // namespace prosperity

#endif // PROSPERITY_SNN_WORKLOAD_H
