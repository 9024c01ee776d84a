/**
 * @file
 * MemoryHierarchy: wires the evaluated machine's memory system together.
 *
 * Per shader array: an L1 vector cache and (when configured) an L1 Zero
 * Cache. Memory-side: a crossbar router that interleaves addresses across
 * the banked L2s (and L2 Zero Caches), each bank backed by its own DRAM
 * channel. Mask (zero-cache) traffic shares the DRAM channels with data,
 * as in the paper.
 *
 * Every component lives in one event domain of a DomainScheduler
 * (DESIGN.md §13): the SA-side caches on their shader array's domain,
 * each L2/ZL2 bank and its DRAM channel on that bank's domain, with the
 * scheduler's boundary channels carrying the L1->L2 hop between them.
 */

#ifndef LAZYGPU_MEM_HIERARCHY_HH
#define LAZYGPU_MEM_HIERARCHY_HH

#include <memory>
#include <vector>

#include "mem/cache.hh"
#include "mem/device.hh"
#include "mem/dram.hh"
#include "mem/memory.hh"
#include "sim/config.hh"
#include "obs/registry.hh"

namespace lazygpu
{

class DomainScheduler;

/**
 * The L1->L2 crossbar: picks the L2 bank owning an address and models
 * the aggregate ingress port. Runs on the domain scheduler's
 * coordinator at the window barrier, once per boundary request in the
 * fixed merge order, so its port state is deterministic for any thread
 * count.
 */
class BankRouter
{
  public:
    BankRouter(unsigned num_banks, unsigned interleave,
               unsigned bytes_per_cycle);

    /**
     * Reserve the aggregate ingress port for an access arriving at
     * `when`: returns the serialised start tick and advances the port.
     */
    Tick arbitrate(Tick when, unsigned size);

    unsigned bankFor(Addr addr) const;

    /** Checkpoint access: the ingress port's busy high-water mark. */
    Tick portBusy() const { return port_busy_; }
    void restorePortBusy(Tick t) { port_busy_ = t; }

  private:
    const unsigned num_banks_;
    const unsigned interleave_;
    const unsigned bytes_per_cycle_;
    Tick port_busy_ = 0;
};

class MemoryHierarchy
{
  public:
    /**
     * Place the hierarchy onto `domains` (cfg.numShaderArrays SA
     * domains, cfg.l2Banks bank domains): L1s/ZL1s on their SA's domain
     * engine with the scheduler's boundary ports below them, L2/ZL2
     * bank b and DRAM channel b on bank domain b, and the bank routers
     * arbitrating at the window barrier (DESIGN.md §13).
     */
    MemoryHierarchy(DomainScheduler &domains, StatsRegistry &stats,
                    const GpuConfig &cfg, GlobalMemory &mem);

    /** Issue a data transaction from shader array sa. */
    void accessData(unsigned sa, Addr addr, unsigned size, bool write,
                    Completion done);

    /**
     * Issue a zero-mask transaction from shader array sa. The mask
     * address space is GlobalMemory::maskAddr(data address).
     */
    void accessMask(unsigned sa, Addr mask_addr, bool write,
                    Completion done);

    /**
     * Tag probe of the SA's L1 Zero Cache (EagerZC's concurrent check).
     * A hit refreshes the line's LRU recency.
     */
    bool maskResidentInL1(unsigned sa, Addr mask_addr);

    bool hasZeroCaches() const { return !l1_zero_.empty(); }

    /**
     * Route every cache's occupancy records into `trace`, appending one
     * track name per cache to `tracks` (the index in `tracks` is the
     * record's track id; the Gpu embeds the list in the trace meta).
     */
    void attachTrace(TraceSink *trace, std::vector<std::string> &tracks);

    /**
     * Serialize every cache's tag state plus the DRAM-channel and
     * router port occupancy, in fixed declaration order. Part of the
     * Gpu checkpoint (DESIGN.md §15); only legal while the hierarchy is
     * transaction-quiescent (engine idle).
     */
    void checkpointTo(ByteWriter &w) const;

    /** Restore state saved by checkpointTo into this idle hierarchy. */
    void restoreFrom(ByteReader &r);

    Cache &l1(unsigned sa) { return *l1_[sa]; }
    Cache &l2(unsigned bank) { return *l2_[bank]; }
    Cache &l1Zero(unsigned sa) { return *l1_zero_[sa]; }
    Cache &l2Zero(unsigned bank) { return *l2_zero_[bank]; }
    unsigned numL2Banks() const { return static_cast<unsigned>(l2_.size()); }

  private:
    GlobalMemory &mem_;
    std::vector<std::unique_ptr<DramChannel>> dram_;
    BankRouter l2_router_;
    BankRouter zc_router_;
    std::vector<std::unique_ptr<Cache>> l2_;
    std::vector<std::unique_ptr<Cache>> l2_zero_;
    std::vector<std::unique_ptr<Cache>> l1_;
    std::vector<std::unique_ptr<Cache>> l1_zero_;
};

} // namespace lazygpu

#endif // LAZYGPU_MEM_HIERARCHY_HH
