/**
 * @file
 * Timing and geometry configuration of the simulated CC-NUMA machine
 * (paper Table 1), plus the interconnect-topology selection that
 * parameterizes the network model (src/topo/).
 *
 * Latency calibration. The paper reports, for a 600 MHz processor:
 * local memory / remote-cache access 104 cycles, network latency 80
 * cycles, round-trip read miss 418 cycles, remote-to-local ratio ~4.
 * We express everything in processor cycles. On the default *crossbar*
 * topology -- the paper's constant-latency switched network, where
 * every (src, dst) pair has a dedicated path of netLatency cycles --
 * the 418-cycle round trip splits as:
 *
 *   GetS:  niControl + netLatency + niControl  (request hop)
 *   home:  dirLookup + memAccess               (directory + memory)
 *   Data:  niData + netLatency + niData        (reply hop)
 *
 * with niControl = 20 (header-only message: bus + NI occupancy),
 * netLatency = 80 and niData = 56 (message carrying a 32-byte block),
 * giving 40 + 80 + 2 + 104 + 112 + 80 = 418. NI occupancy is a
 * contention point on every topology: a node's interface serializes
 * message injection/delivery, and small control messages
 * (invalidations, acks) occupy it for less time than data transfers
 * -- which is what allows concurrently issued invalidation
 * acknowledgements to race and arrive re-ordered, the effect that
 * perturbs the general message predictor (Section 3).
 *
 * The non-crossbar topologies (TopoConfig: ring, mesh2d, torus2d)
 * replace the flat netLatency flight time with a deterministic route
 * of links, each a serial resource with per-hop wire latency
 * TopoConfig::linkLatency -- so flight time composes per hop and
 * messages additionally contend for shared links, not just the NIs.
 */

#ifndef MSPDSM_PROTO_CONFIG_HH
#define MSPDSM_PROTO_CONFIG_HH

#include <bit>
#include <cstdint>

#include "base/types.hh"

namespace mspdsm
{

/** Interconnect topology shapes (src/topo/topology.hh builds them). */
enum class TopoKind : std::uint8_t
{
    Crossbar, //!< dedicated path per pair, flat netLatency (paper)
    Ring,     //!< bidirectional ring, shortest direction
    Mesh2D,   //!< near-square 2D mesh, dimension-order (X then Y)
    Torus2D,  //!< 2D torus: mesh plus wraparound, shortest per dim
};

/**
 * Interconnect-topology selection. The default reproduces the paper's
 * constant-latency switched network exactly (bit-identical fixed-seed
 * runs); the other shapes route each message over a deterministic
 * sequence of serially-occupied links.
 */
struct TopoConfig
{
    TopoKind kind = TopoKind::Crossbar;

    /**
     * Per-hop wire latency of a ring/mesh/torus link, cycles;
     * 0 = use ProtoConfig::netLatency (so a one-hop neighbour costs
     * exactly what the crossbar charges every pair). Ignored by the
     * crossbar, whose flight time is always netLatency.
     */
    Tick linkLatency = 0;
};

/**
 * Machine configuration (paper Table 1 defaults).
 */
struct ProtoConfig
{
    /** Number of nodes (one processor per node in this study). */
    unsigned numNodes = 16;

    /** Coherence block size in bytes. */
    unsigned blockSize = 32;

    /** Page size in bytes; home assignment is page-interleaved. */
    unsigned pageSize = 4096;

    /** Local memory / remote cache access time, processor cycles. */
    Tick memAccess = 104;

    /** One-way network latency, processor cycles. */
    Tick netLatency = 80;

    /** NI/bus occupancy of a header-only (control) message. */
    Tick niControl = 20;

    /** NI/bus occupancy of a message carrying a data block. */
    Tick niData = 56;

    /** Directory state lookup/update. */
    Tick dirLookup = 2;

    /** Processor cache hit. */
    Tick cacheHit = 1;

    /**
     * Maximum uniform random extra delivery delay per message,
     * modelling queueing at switches and controllers. Workloads with
     * heavy contention (e.g. em3d's concurrent invalidations) use a
     * larger value; barnes, whose acknowledgements arrive in-order
     * ("minimal queueing in the system"), uses zero.
     */
    Tick netJitter = 8;

    /** Interconnect topology (default: the paper's crossbar model). */
    TopoConfig topo = {};

    /** Seed for all randomness in one run. */
    std::uint64_t seed = 1;

    /** Blocks per page. */
    unsigned
    blocksPerPage() const
    {
        return pageSize / blockSize;
    }

    /** Home node of a block: page-interleaved. */
    NodeId
    homeOf(BlockId blk) const
    {
        return static_cast<NodeId>((blk / blocksPerPage()) % numNodes);
    }

    /** Block id containing a byte address. */
    BlockId
    blockOf(Addr a) const
    {
        return a / blockSize;
    }
};

/**
 * Address-to-block and block-to-home mapping with the divisions
 * folded at construction. ProtoConfig::homeOf() costs three integer
 * divides; the cache controller and directory evaluate the mapping
 * once or twice per simulated message, so they snapshot it into an
 * AddrMap (power-of-two geometries -- every configuration the paper
 * uses -- reduce to shifts and masks). Equivalent to the ProtoConfig
 * methods for any geometry.
 */
class AddrMap
{
  public:
    explicit AddrMap(const ProtoConfig &cfg)
        : blockSize_(cfg.blockSize), bpp_(cfg.blocksPerPage()),
          nodes_(cfg.numNodes),
          blockShift_(static_cast<std::uint8_t>(
              std::countr_zero(cfg.blockSize))),
          bppShift_(static_cast<std::uint8_t>(
              std::countr_zero(cfg.blocksPerPage()))),
          nodesShift_(static_cast<std::uint8_t>(
              std::countr_zero(cfg.numNodes))),
          nodesMask_(cfg.numNodes - 1),
          blockPow2_(std::has_single_bit(cfg.blockSize)),
          bppPow2_(std::has_single_bit(cfg.blocksPerPage())),
          nodesPow2_(std::has_single_bit(cfg.numNodes))
    {}

    /** Block id containing a byte address (== ProtoConfig::blockOf). */
    BlockId
    blockOf(Addr a) const
    {
        return blockPow2_ ? a >> blockShift_ : a / blockSize_;
    }

    /**
     * Home node of a block (== ProtoConfig::homeOf in a fault-free
     * machine). With a re-home table attached, the geometric home is
     * one extra indexed load away from the current home -- directory
     * re-homing after a node failure is a table swap, not a geometry
     * rebuild. remap_ is null by default, so fault-free runs pay one
     * predictable branch.
     */
    NodeId
    homeOf(BlockId blk) const
    {
        const NodeId h = geometricHomeOf(blk);
        return remap_ ? remap_[h] : h;
    }

    /** Home node by machine geometry alone, ignoring any re-homing. */
    NodeId
    geometricHomeOf(BlockId blk) const
    {
        const BlockId page = pageOf(blk);
        return static_cast<NodeId>(nodesPow2_ ? page & nodesMask_
                                              : page % nodes_);
    }

    /**
     * A block's geometric home and its local index within that home's
     * shard, (page / numNodes) * blocksPerPage + blk mod blocksPerPage.
     * A workload compiled by CompiledWorkload numbers each home's
     * blocks 0, 1, 2, ... in this index, so per-block tables are plain
     * arrays per home (proto/shard_table.hh).
     */
    struct ShardSlot
    {
        NodeId home;
        std::uint64_t local;
    };

    /** ShardSlot of @p blk, one divide. */
    ShardSlot
    shardSlotOf(BlockId blk) const
    {
        const BlockId page = pageOf(blk);
        const BlockId round = nodesPow2_ ? page >> nodesShift_
                                         : page / nodes_;
        return {static_cast<NodeId>(page - round * nodes_),
                round * bpp_ + offsetOf(blk)};
    }

    /** Inverse of shardSlotOf(). */
    BlockId
    blockAt(NodeId home, std::uint64_t local) const
    {
        return ((local / bpp_) * nodes_ + home) * bpp_ + local % bpp_;
    }

    /** Node count the mapping was built with. */
    unsigned numNodes() const { return nodes_; }

    /** Blocks per page the mapping was built with. */
    unsigned blocksPerPage() const { return bpp_; }

    /**
     * Attach a per-home indirection table of at least numNodes
     * entries (owned by the fault layer, shared by every AddrMap in
     * the machine so all components re-home atomically when the fault
     * sweep rewrites an entry). Null detaches.
     */
    void setRemap(const NodeId *table) { remap_ = table; }

    /** Block size the mapping was built with, in bytes. */
    unsigned blockSizeBytes() const { return blockSize_; }

  private:
    BlockId
    pageOf(BlockId blk) const
    {
        return bppPow2_ ? blk >> bppShift_ : blk / bpp_;
    }

    BlockId
    offsetOf(BlockId blk) const
    {
        return bppPow2_ ? blk & (bpp_ - 1) : blk % bpp_;
    }

    const NodeId *remap_ = nullptr;
    unsigned blockSize_;
    unsigned bpp_;
    unsigned nodes_;
    std::uint8_t blockShift_;
    std::uint8_t bppShift_;
    std::uint8_t nodesShift_;
    unsigned nodesMask_;
    bool blockPow2_;
    bool bppPow2_;
    bool nodesPow2_;
};

} // namespace mspdsm

#endif // MSPDSM_PROTO_CONFIG_HH
