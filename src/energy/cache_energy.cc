#include "energy/cache_energy.hh"

namespace rcache
{

CacheActivity
CacheActivity::of(const Cache &cache)
{
    CacheActivity a;
    a.accesses = static_cast<double>(cache.accesses());
    a.misses = static_cast<double>(cache.misses());
    a.prechargeEvents =
        static_cast<double>(cache.prechargeSubarrayEvents());
    a.wayReads = static_cast<double>(cache.wayReadEvents());
    a.byteCycles = cache.byteCycles();
    return a;
}

CacheActivity
CacheActivity::operator-(const CacheActivity &earlier) const
{
    CacheActivity a;
    a.accesses = accesses - earlier.accesses;
    a.misses = misses - earlier.misses;
    a.prechargeEvents = prechargeEvents - earlier.prechargeEvents;
    a.wayReads = wayReads - earlier.wayReads;
    a.byteCycles = byteCycles - earlier.byteCycles;
    return a;
}

CacheActivity &
CacheActivity::operator+=(const CacheActivity &o)
{
    accesses += o.accesses;
    misses += o.misses;
    prechargeEvents += o.prechargeEvents;
    wayReads += o.wayReads;
    byteCycles += o.byteCycles;
    return *this;
}

CacheActivity
CacheActivity::scaled(double factor) const
{
    CacheActivity a;
    a.accesses = accesses * factor;
    a.misses = misses * factor;
    a.prechargeEvents = prechargeEvents * factor;
    a.wayReads = wayReads * factor;
    a.byteCycles = byteCycles * factor;
    return a;
}

HierarchyActivity
HierarchyActivity::of(const Hierarchy &hier)
{
    return {CacheActivity::of(hier.il1()), CacheActivity::of(hier.dl1()),
            hier.l2Accesses(), hier.l2Misses(),
            hier.memReads() + hier.memWrites()};
}

HierarchyActivity
HierarchyActivity::operator-(const HierarchyActivity &earlier) const
{
    return {il1 - earlier.il1, dl1 - earlier.dl1,
            l2Accesses - earlier.l2Accesses, l2Misses - earlier.l2Misses,
            memAccesses - earlier.memAccesses};
}

HierarchyActivity &
HierarchyActivity::operator+=(const HierarchyActivity &o)
{
    il1 += o.il1;
    dl1 += o.dl1;
    l2Accesses += o.l2Accesses;
    l2Misses += o.l2Misses;
    memAccesses += o.memAccesses;
    return *this;
}

double
CacheEnergyModel::l1AccessEnergy(const CacheActivity &activity,
                                 unsigned extra_tag_bits) const
{
    return activity.prechargeEvents * params_.l1PrechargePerSubarray +
           activity.wayReads * params_.l1ReadPerWay +
           activity.accesses * params_.l1DecodePerAccess +
           activity.wayReads * extra_tag_bits *
               params_.l1TagBitPerWayRead;
}

double
CacheEnergyModel::l1Energy(const CacheActivity &activity,
                           unsigned extra_tag_bits) const
{
    return l1AccessEnergy(activity, extra_tag_bits) +
           activity.byteCycles * params_.l1PerByteCycle;
}

double
CacheEnergyModel::l1EnergyPerAccessNow(const Cache &cache,
                                       unsigned extra_tag_bits) const
{
    return cache.enabledSubarrays() * params_.l1PrechargePerSubarray +
           cache.enabledWays() *
               (params_.l1ReadPerWay +
                extra_tag_bits * params_.l1TagBitPerWayRead) +
           params_.l1DecodePerAccess;
}

double
CacheEnergyModel::l2Energy(double accesses, std::uint64_t size_bytes,
                           double cycles) const
{
    return accesses * params_.l2PerAccess +
           static_cast<double>(size_bytes) * cycles *
               params_.l2PerByteCycle;
}

} // namespace rcache
