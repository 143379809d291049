/**
 * @file
 * Common accelerator interface.
 *
 * Every modeled design — Prosperity and the baselines of Table IV /
 * Fig. 8 (Eyeriss, PTB, SATO, MINT, Stellar, A100, LoAS) — implements
 * this interface. A simulation step is a pure function: callers build a
 * LayerRequest (GeMM geometry, the spike matrix for spike-consuming
 * designs, SFU/LIF side work) and receive a LayerResult *by value* —
 * cycles, an energy breakdown, and DRAM traffic. No shared mutable
 * state crosses the call boundary, which is what lets the
 * SimulationEngine in src/analysis run batches across threads.
 *
 * The one piece of shared state is a request's optional
 * TileSummaryCache, and it cannot change any result. It is
 * lineup-local: the designs of one runWorkloadOnAll lineup share it
 * for one layer, and only that lineup's thread touches it. It memoizes
 * a pure function of the layer's spike matrix and tiling, so whichever
 * design fills an entry, every design reads the same summaries it
 * would have computed alone.
 *
 * Design authors override the protected simulate* hooks, which charge
 * into a request-local EnergyModel owned by runLayer(); the hooks are
 * not callable from outside, so external code cannot reintroduce the
 * historical mutable-EnergyModel& style.
 */

#ifndef PROSPERITY_ARCH_ACCELERATOR_H
#define PROSPERITY_ARCH_ACCELERATOR_H

#include <string>

#include "arch/energy_model.h"
#include "arch/tech.h"
#include "bitmatrix/bit_matrix.h"

namespace prosperity {

class TileSummaryCache; // core/tile_pipeline.h

/** Model-level information passed to accelerators before layers run. */
struct ModelHints
{
    std::size_t time_steps = 4;
};

/**
 * One layer's worth of simulation work. Built by the workload runner
 * (or directly by users bringing their own layers) and consumed by
 * Accelerator::runLayer.
 */
struct LayerRequest
{
    /** What the main computation of the layer is. */
    enum class Kind {
        kSpikingGemm, ///< binary spike matrix x weight GeMM (needs spikes)
        kDenseGemm,   ///< direct-coded (non-spiking) GeMM
        kAuxiliary,   ///< no GeMM; only SFU ops and/or LIF updates
    };

    Kind kind = Kind::kAuxiliary;
    GemmShape shape{};                ///< GeMM geometry (gemm kinds)
    const BitMatrix* spikes = nullptr; ///< left operand (kSpikingGemm)
    double sfu_ops = 0.0;             ///< softmax/LN elementwise ops
    double lif_updates = 0.0;         ///< neuron-array membrane updates
    /** Tile summaries of `spikes` shared across a lineup (may be null;
     *  must outlive the runLayer call). */
    TileSummaryCache* tile_summaries = nullptr;

    /** A spiking GeMM; `spikes` must outlive the runLayer call. */
    static LayerRequest spikingGemm(const GemmShape& shape,
                                    const BitMatrix& spikes);

    /** A dense (direct-coded) GeMM. */
    static LayerRequest denseGemm(const GemmShape& shape);
};

/**
 * Value-typed result of simulating one LayerRequest. The workload
 * runner folds a model's layers into its RunResult field by field.
 */
struct LayerResult
{
    double cycles = 0.0;     ///< latency of the layer
    double dense_macs = 0.0; ///< dense-equivalent MACs (paper's OP count)
    double dram_bytes = 0.0; ///< bytes charged to the DRAM channel
    EnergyModel energy;      ///< per-component energy of this layer

    /** Total energy in picojoules. */
    double totalPj() const { return energy.totalPj(); }
};

/** Abstract accelerator cost model. */
class Accelerator
{
  public:
    virtual ~Accelerator() = default;

    /** Display name used in reports. */
    virtual std::string name() const = 0;

    /** Number of processing elements (Table IV). */
    virtual std::size_t numPes() const = 0;

    /** Silicon area in mm^2 (Table IV). */
    virtual double areaMm2() const = 0;

    /**
     * Static + control energy per cycle (clock tree, leakage, sparsity
     * preprocessing overheads), charged by runLayer for every elapsed
     * cycle. Designs that model it inside their dynamic charges
     * (Prosperity's "other", the A100's board power) return 0.
     */
    virtual double staticPjPerCycle() const { return 0.0; }

    /** Clock/technology (all designs share 500 MHz / 28 nm). */
    virtual Tech tech() const { return Tech{}; }

    /**
     * Called by the workload runner / simulation engine before a
     * model's layers stream in; lets time-batching designs (PTB) learn
     * the model's T. Direct runLayer users driving whole models should
     * call this themselves first.
     */
    virtual void beginModel(const ModelHints& hints) { (void)hints; }

    /**
     * Simulate one layer and return its cost as a value. Charges the
     * main GeMM (per `request.kind`), then LIF updates, then SFU ops,
     * then the design's static energy over the layer's cycles — the
     * same accounting order the legacy runner used, so results are
     * bit-identical to it. Not reentrant on one instance (designs keep
     * per-model state); give each thread its own instance, as the
     * SimulationEngine does.
     */
    LayerResult runLayer(const LayerRequest& request);

  protected:
    /**
     * Simulate one spiking GeMM of `shape` whose left operand is
     * `spikes`; returns cycles and charges energy into the
     * request-local model.
     */
    virtual double simulateSpikingGemm(const GemmShape& shape,
                                       const BitMatrix& spikes,
                                       EnergyModel& energy) = 0;

    /**
     * Simulate a dense (non-spiking) GeMM, e.g. the first direct-coded
     * convolution. Default: MAC-per-PE-per-cycle with 8-bit MAC energy.
     */
    virtual double simulateDenseGemm(const GemmShape& shape,
                                     EnergyModel& energy);

    /**
     * Simulate `ops` special-function operations (softmax/layer norm in
     * spiking transformers). Default: 32 ops/cycle SFU.
     */
    virtual double simulateSfu(double ops, EnergyModel& energy);

    /** Charge LIF neuron-update energy (overlapped, no cycles). */
    virtual void simulateLif(double neuron_updates, EnergyModel& energy);

    /**
     * Record off-chip traffic for the current layer; runLayer reports
     * the sum in LayerResult::dram_bytes. chargeDramTraffic calls this
     * itself — designs that charge DRAM energy by hand (custom traffic
     * models) call it alongside their charge.
     */
    void noteDramBytes(double bytes) { layer_dram_bytes_ += bytes; }

    /** The current request's shared tile summaries, or null. */
    TileSummaryCache* layerTileSummaries() const
    {
        return layer_tile_summaries_;
    }

    /**
     * Default DRAM traffic for one spiking GeMM: 8-bit weights streamed
     * once, packed spikes in (re-streamed once per `row_tile`-column
     * pass over n when they exceed 8 KiB), packed spikes out. Returns
     * bytes moved, charges DRAM energy, and notes the bytes for the
     * layer result.
     */
    double chargeDramTraffic(const GemmShape& shape, std::size_t row_tile,
                             EnergyModel& energy);

  private:
    double layer_dram_bytes_ = 0.0; ///< scratch for the current layer
    TileSummaryCache* layer_tile_summaries_ = nullptr; ///< same
};

} // namespace prosperity

#endif // PROSPERITY_ARCH_ACCELERATOR_H
