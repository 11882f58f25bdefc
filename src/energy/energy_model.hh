/**
 * @file
 * Processor-wide energy accounting (Wattch-style activity model).
 *
 * Combines the cache energies with per-event core energies and the
 * clock tree to produce the breakdown the paper's metric needs:
 * energy-delay product of the whole processor.
 */

#ifndef RCACHE_ENERGY_ENERGY_MODEL_HH
#define RCACHE_ENERGY_ENERGY_MODEL_HH

#include <cstdint>
#include <ostream>

#include "energy/cache_energy.hh"

namespace rcache
{

/** Activity counts a CPU model accumulates during a run. */
struct CoreActivity
{
    /** Out-of-order cores dissipate in rename/ROB/LSQ; in-order cores
     *  have none of that machinery (the paper's in-order i-cache
     *  energy share is ~4% higher for this reason). */
    bool outOfOrder = true;
    std::uint64_t insts = 0;
    std::uint64_t cycles = 0;
    std::uint64_t intOps = 0;
    std::uint64_t fpOps = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;

    double ipc() const
    {
        return cycles ? static_cast<double>(insts) / cycles : 0.0;
    }

    /** Add @p o's instruction and event counts, not its cycles
     *  (consecutive windows add those; concurrent cores take the
     *  longest). */
    void addCounts(const CoreActivity &o)
    {
        outOfOrder = o.outOfOrder;
        insts += o.insts;
        intOps += o.intOps;
        fpOps += o.fpOps;
        loads += o.loads;
        stores += o.stores;
        branches += o.branches;
        mispredicts += o.mispredicts;
    }

    bool operator==(const CoreActivity &o) const = default;
};

/** Per-structure energy totals for one run. */
struct EnergyBreakdown
{
    double icache = 0;
    double dcache = 0;
    double l2 = 0;
    double memory = 0;
    double core = 0;
    double clock = 0;

    double total() const
    {
        return icache + dcache + l2 + memory + core + clock;
    }

    double icacheFraction() const { return icache / total(); }
    double dcacheFraction() const { return dcache / total(); }

    bool operator==(const EnergyBreakdown &o) const = default;
};

std::ostream &operator<<(std::ostream &os, const EnergyBreakdown &b);

/** Assembles the full-processor breakdown. */
class ProcessorEnergyModel
{
  public:
    explicit ProcessorEnergyModel(const EnergyParams &params)
        : params_(params), cacheModel_(params)
    {
    }

    /**
     * Price explicit activity totals. CoreLane (sim/system.hh)
     * extrapolates measured-window deltas to full-run totals and
     * prices every timing run through here.
     *
     * @param activity core event counts for the run
     * @param il1,dl1 L1 event totals (byte-cycle integrals included)
     * @param il1_extra_tag_bits,dl1_extra_tag_bits resizing tag bits
     * @param l2_accesses,l2_size_bytes the unified L2's traffic and
     *        capacity
     * @param mem_accesses total memory reads+writes
     */
    EnergyBreakdown compute(const CoreActivity &activity,
                            const CacheActivity &il1,
                            unsigned il1_extra_tag_bits,
                            const CacheActivity &dl1,
                            unsigned dl1_extra_tag_bits,
                            double l2_accesses,
                            std::uint64_t l2_size_bytes,
                            double mem_accesses) const;

    const EnergyParams &params() const { return params_; }

  private:
    EnergyParams params_;
    CacheEnergyModel cacheModel_;
};

} // namespace rcache

#endif // RCACHE_ENERGY_ENERGY_MODEL_HH
