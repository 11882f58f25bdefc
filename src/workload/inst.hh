/**
 * @file
 * The micro-instruction vocabulary shared by the workload generators
 * and the CPU timing models.
 *
 * The timing models are ISA-less: an instruction is its class, its
 * addresses, its execution latency, and its register dependences
 * expressed as *distances* (how many instructions back the producer
 * is), which is all an instruction-driven timing model needs.
 */

#ifndef RCACHE_WORKLOAD_INST_HH
#define RCACHE_WORKLOAD_INST_HH

#include <cstdint>

#include "util/bitops.hh"

namespace rcache
{

/** Instruction classes the timing and energy models distinguish. */
enum class OpClass : std::uint8_t
{
    IntAlu,
    FpAlu,
    Load,
    Store,
    Branch,
};

/** One dynamic instruction. */
struct MicroInst
{
    OpClass op = OpClass::IntAlu;
    /** Instruction address. */
    Addr pc = 0;
    /** Effective address (loads/stores only). */
    Addr effAddr = 0;
    /** Execution latency in cycles (1 for simple ops). */
    std::uint8_t latency = 1;
    /**
     * Dependence distances: this instruction reads the results of the
     * instructions @c dep1 and @c dep2 positions earlier in program
     * order (0 = no dependence).
     */
    std::uint8_t dep1 = 0;
    std::uint8_t dep2 = 0;
    /** Actual direction (branches only). */
    bool taken = false;
    /** Marks the stream's FrontEnd (cpu/front_end.hh) sets; they fit
     *  in padding, and streams leave them clear. */
    bool probe = false;
    bool mispredict = false;
    /** Actual target (branches only, taken). */
    Addr target = 0;

    bool operator==(const MicroInst &o) const = default;
};
static_assert(sizeof(MicroInst) == 40);

} // namespace rcache

#endif // RCACHE_WORKLOAD_INST_HH
