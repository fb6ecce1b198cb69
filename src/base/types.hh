/**
 * @file
 * Fundamental scalar types shared by every module in the simulator.
 *
 * The simulator measures time in processor clock cycles ("ticks"); all
 * latency parameters in proto/ProtoConfig are expressed in this unit.
 */

#ifndef MSPDSM_BASE_TYPES_HH
#define MSPDSM_BASE_TYPES_HH

#include <cstdint>
#include <limits>

namespace mspdsm
{

/** Simulated time, in processor clock cycles. */
using Tick = std::uint64_t;

/** Largest representable tick; used as "never" for availability times. */
constexpr Tick maxTick = std::numeric_limits<Tick>::max();

/** Byte address in the simulated global physical address space. */
using Addr = std::uint64_t;

/** Identifier of a node (processor + caches + DSM board). */
using NodeId = std::uint16_t;

/** Sentinel for "no node". */
constexpr NodeId invalidNode = std::numeric_limits<NodeId>::max();

/**
 * Largest supported machine: sharer sets are 64-bit NodeSets, and the
 * node count is capped below that.
 */
inline constexpr unsigned maxNodes = 61;

/**
 * Identifier of an aligned coherence block. A compiled workload
 * numbers its blocks densely per home (workload/compiled_trace.hh);
 * a bare address maps to address / blockSize. The directory,
 * predictors, and caches all index state by BlockId rather than raw
 * byte address.
 */
using BlockId = std::uint64_t;

/** Sentinel for "no block". */
constexpr BlockId invalidBlock = std::numeric_limits<BlockId>::max();

} // namespace mspdsm

#endif // MSPDSM_BASE_TYPES_HH
