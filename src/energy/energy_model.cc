#include "energy/energy_model.hh"

#include <iomanip>

namespace rcache
{

std::ostream &
operator<<(std::ostream &os, const EnergyBreakdown &b)
{
    const double t = b.total();
    auto row = [&](const char *name, double v) {
        os << "  " << std::left << std::setw(8) << name << std::right
           << std::setw(14) << std::fixed << std::setprecision(0) << v
           << std::setw(8) << std::setprecision(1) << (100.0 * v / t)
           << "%\n";
    };
    os << "energy breakdown (normalized units):\n";
    row("icache", b.icache);
    row("dcache", b.dcache);
    row("l2", b.l2);
    row("memory", b.memory);
    row("core", b.core);
    row("clock", b.clock);
    row("total", t);
    return os;
}

EnergyBreakdown
ProcessorEnergyModel::compute(const CoreActivity &activity,
                              const CacheActivity &il1,
                              unsigned il1_extra_tag_bits,
                              const CacheActivity &dl1,
                              unsigned dl1_extra_tag_bits,
                              double l2_accesses,
                              std::uint64_t l2_size_bytes,
                              double mem_accesses) const
{
    EnergyBreakdown b;
    b.icache = cacheModel_.l1Energy(il1, il1_extra_tag_bits);
    b.dcache = cacheModel_.l1Energy(dl1, dl1_extra_tag_bits);
    b.l2 = cacheModel_.l2Energy(
        l2_accesses, l2_size_bytes,
        static_cast<double>(activity.cycles));
    b.memory = mem_accesses * params_.memPerAccess;

    const auto insts = static_cast<double>(activity.insts);
    const double frontend = activity.outOfOrder
                                ? params_.fetchDecodeRenamePerInst +
                                      params_.robPerInst
                                : params_.fetchDecodePerInstInOrder;
    b.core = insts * (frontend + params_.regfilePerInst +
                      params_.resultBusPerInst) +
             static_cast<double>(activity.intOps) * params_.intAluOp +
             static_cast<double>(activity.fpOps) * params_.fpAluOp +
             static_cast<double>(activity.branches) *
                 params_.bpredPerBranch;
    if (activity.outOfOrder) {
        b.core += static_cast<double>(activity.loads +
                                      activity.stores) *
                  params_.lsqPerMemOp;
    }

    b.clock =
        static_cast<double>(activity.cycles) * params_.clockPerCycle;
    return b;
}

} // namespace rcache
