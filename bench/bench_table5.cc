/**
 * @file
 * Table V reproduction: ProSparsity applied on top of LoAS dual-sparse
 * (pruned-weight) SNNs. Weight density is untouched; activation density
 * drops a further ~4x, showing the two techniques are orthogonal.
 *
 * Activations are analyzed layer by layer over the real model
 * geometries (AlexNet, VGG-16, ResNet-19) at the LoAS-reported
 * activation densities.
 */

#include <iostream>

#include "analysis/density.h"
#include "baselines/loas.h"
#include "gen/spike_generator.h"
#include "sim/table.h"
#include "snn/model_registry.h"

using namespace prosperity;

namespace {

/**
 * Activation profile for a LoAS-pruned CNN: the paper reports the
 * pruned models' activation densities directly; correlation structure
 * follows the spiking-CNN family calibration.
 */
ActivationProfile
prunedCnnProfile(double activation_density)
{
    ActivationProfile p;
    p.bit_density = activation_density;
    p.cluster_fraction = 0.76;
    p.bank_size = 14;
    p.subset_drop_prob = 0.30;
    p.temporal_repeat = 0.35;
    return p;
}

ModelSpec
buildLoasModel(const std::string& name)
{
    InputConfig in;
    in.num_classes = 10;
    const ModelRegistry& models = ModelRegistry::instance();
    if (name == "AlexNet")
        return models.build("AlexNet", in);
    if (name == "VGG-16")
        return models.build("VGG16", in);
    return models.build("ResNet19", in);
}

/** Merge density analysis over every spiking-GeMM layer of a model. */
DensityReport
analyzePrunedModel(const ModelSpec& model, const ActivationProfile& p,
                   std::uint64_t seed)
{
    const SpikeGenerator gen(p, seed);
    DensityOptions opt;
    opt.max_sampled_tiles = 24;
    DensityReport total;
    std::size_t layer_index = 0;
    for (const auto& layer : model.layers) {
        ++layer_index;
        if (!layer.isSpikingGemm())
            continue;
        total.merge(analyzeMatrix(gen.generateLayer(layer, layer_index),
                                  opt));
    }
    return total;
}

} // namespace

int
main()
{
    // Paper reference values for the +Prosperity column.
    const char* paper_act[] = {"9.12% (3.21x)", "7.68% (4.05x)",
                               "6.96% (5.13x)"};

    Table table("Table V — density of weight and activation in LoAS "
                "with ProSparsity");
    table.setHeader({"model", "tensor", "LoAS", "LoAS+Prosperity",
                     "ratio", "(paper)"});

    int row = 0;
    double ratio_sum = 0.0;
    for (const LoasModel& spec : loasModelCatalog()) {
        const ModelSpec model = buildLoasModel(spec.name);
        const DensityReport report = analyzePrunedModel(
            model, prunedCnnProfile(spec.activation_density),
            7 + static_cast<std::uint64_t>(row));
        const double ratio =
            report.bitDensity() / report.productDensity();
        ratio_sum += ratio;

        table.addRow({spec.name + " (" +
                          std::to_string(model.numSpikingGemms()) +
                          " spiking GeMMs)",
                      "Weight", Table::pct(spec.weight_density, 1),
                      Table::pct(spec.weight_density, 1), "-", "-"});
        table.addRow({"", "Activation", Table::pct(report.bitDensity()),
                      Table::pct(report.productDensity()),
                      Table::ratio(ratio), paper_act[row]});
        ++row;
    }
    table.print(std::cout);

    std::cout << "Average activation-density reduction on pruned "
                 "models: "
              << Table::ratio(ratio_sum / 3.0, 1) << " (paper: 4.1x)\n";

    // Dual-side op accounting sanity: the surviving computation is the
    // product of both densities' effects.
    Rng rng(3);
    const LoasModel& vgg = loasModelCatalog()[1];
    const SpikeGenerator gen(prunedCnnProfile(vgg.activation_density), 9);
    const BitMatrix spikes = gen.generate(1024, 512, 4, 0);
    const BitMatrix mask = Loas::weightMask(512, 512, vgg.weight_density,
                                            rng);
    const double dual = Loas::dualSideOps(spikes, mask);
    const double dense = 1024.0 * 512.0 * 512.0;
    std::cout << "Dual-side surviving ops on a VGG-16-like layer: "
              << Table::pct(dual / dense)
              << " of dense (weight density x activation density = "
              << Table::pct(vgg.weight_density * spikes.density())
              << " expected)\n";
    return 0;
}
