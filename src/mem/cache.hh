/**
 * @file
 * A set-associative, non-blocking, timing-only cache.
 *
 * Tags are modelled; data is not (function lives in GlobalMemory). The
 * cache supports the two policies the evaluated GPU uses: write-around
 * (L1 vector caches: writes bypass and invalidate) and write-back with
 * write-allocate (memory-side L2 banks). Misses allocate MSHRs with
 * same-line coalescing; when MSHRs are exhausted requests wait in a FIFO,
 * which is where the paper's queuing congestion comes from.
 *
 * The miss path allocates nothing once warm: the MSHR file is a fixed
 * array of `mshrs` entries behind a small open-addressed index, the
 * requests waiting on a fill are pooled intrusive lists, and the FIFO
 * is a ring that only ever grows to its peak depth.
 */

#ifndef LAZYGPU_MEM_CACHE_HH
#define LAZYGPU_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mem/device.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "sim/config.hh"
#include "sim/engine.hh"

namespace lazygpu
{

class Cache : public MemDevice
{
  public:
    enum class WritePolicy
    {
        WriteAround, //!< forward writes below; invalidate local copy
        WriteBack,   //!< write-allocate; dirty eviction writes below
    };

    Cache(Engine &engine, StatsRegistry &stats, const std::string &name,
          const CacheParams &params, WritePolicy policy,
          MemDevice &below);

    void access(const MemAccess &acc, Completion done) override;

    /**
     * Probe the tags without any side effects at all (testing and
     * introspection only; does not count as a use of the line).
     */
    bool contains(Addr addr) const;

    /**
     * Tag probe that counts as a use: when the line is present its LRU
     * recency is refreshed so actively probed lines are not evicted.
     * Used by the EagerZC model's concurrent L1 Zero Cache check.
     */
    bool probe(Addr addr);

    const std::string &name() const { return name_; }

    /**
     * True while the miss path is saturated: every MSHR is in use or
     * requests are already parked in the FIFO. Used by cycle accounting
     * to split memory-bound CU stalls into latency vs backpressure.
     */
    bool
    saturated() const
    {
        return mshrs_used_ >= mshr_limit_ || pending_count_ != 0;
    }

    /** Sample MSHR/pending occupancy into `trace` as track `track`. */
    void
    attachTrace(TraceSink *trace, std::uint16_t track)
    {
        trace_ = trace;
        track_ = track;
    }

    /**
     * Serialize the resumable tag-array state (valid lines, LRU clock,
     * port occupancy). Only legal while the cache is transaction-
     * quiescent — no MSHRs and no parked requests — which holds at the
     * engine-idle kernel boundaries where checkpoints are taken.
     */
    void checkpointTo(ByteWriter &w) const;

    /** Restore state saved by checkpointTo into this (idle) cache. */
    void restoreFrom(ByteReader &r);

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lruStamp = 0;
    };

    static constexpr Tick notStalled = maxTick;

    /**
     * A request the cache answers: its completion plus what the cache
     * itself does when the answer fires. A write-allocate miss marks
     * the line dirty then (the line may have been evicted meanwhile);
     * a request that found every MSHR busy samples its stall, measured
     * from when it parked, then.
     */
    struct Waiter
    {
        Completion done;
        Tick stalledAt = notStalled;
        bool dirty = false;

        /** Whether answering it does anything at all. */
        bool
        live() const
        {
            return done || dirty || stalledAt != notStalled;
        }
    };

    static constexpr std::uint32_t noIndex = ~std::uint32_t(0);

    /** One outstanding line fill and the FIFO list of its waiters. */
    struct Mshr
    {
        Addr lineAddr = 0;
        std::uint32_t head = noIndex; //!< first waiter node
        std::uint32_t tail = noIndex;
    };

    struct WaiterNode
    {
        Waiter waiter;
        std::uint32_t next = noIndex;
    };

    /** A request parked while every MSHR is busy. */
    struct Parked
    {
        MemAccess acc;
        Waiter waiter;
    };

    Addr lineAddr(Addr a) const { return a & ~Addr(line_size_ - 1); }
    std::uint64_t
    setIndex(Addr line_addr) const
    {
        const Addr line = line_addr >> line_shift_;
        return sets_pow2_ ? line & (num_sets_ - 1) : line % num_sets_;
    }
    Line *findLine(Addr line_addr);
    const Line *findLine(Addr line_addr) const;
    Line &victimLine(Addr line_addr);

    /** Start the tag lookup once the port accepts the request. */
    void lookup(const MemAccess &acc, const Waiter &w);
    void handleRead(Addr line_addr, const Waiter &w);
    void handleWrite(const MemAccess &acc, Waiter w);
    /** Miss on a line: coalesce, park, or allocate an MSHR and fetch. */
    void miss(const MemAccess &acc, Addr line_addr, const Waiter &w);
    void fill(Addr line_addr);
    void drainPending();
    /** Answer w latency_ from now (line_addr is the line it touched). */
    void respond(Addr line_addr, const Waiter &w);
    void fire(Addr line_addr, const Waiter &w);

    // --- MSHR file ---------------------------------------------------------
    /** Slot of the MSHR tracking line_addr, or noIndex. */
    std::uint32_t findMshr(Addr line_addr) const;
    Mshr &allocMshr(Addr line_addr);
    void freeMshr(Addr line_addr);
    std::uint32_t
    indexHome(Addr line_addr) const
    {
        // Fibonacci hashing of the line number.
        return static_cast<std::uint32_t>(
            ((line_addr >> line_shift_) * 0x9E3779B97F4A7C15ull) >>
            index_shift_);
    }
    void pushWaiter(Mshr &m, const Waiter &w);

    // --- Parked-request ring ------------------------------------------------
    void park(const MemAccess &acc, const Waiter &w);

    /** Occupancy changed: one depth record when tracing is attached. */
    void
    traceDepth()
    {
        if (trace_) {
            trace_->emit(TraceKind::CacheDepth, track_, 0,
                         engine_.now(), mshrs_used_, pending_count_);
        }
    }

    Engine &engine_;
    const std::string name_;
    const unsigned line_size_;
    const unsigned assoc_;
    const unsigned num_sets_;
    const unsigned mshr_limit_;
    const unsigned bytes_per_cycle_;
    const Tick latency_;
    const WritePolicy policy_;
    MemDevice &below_;

    unsigned line_shift_ = 0;
    bool sets_pow2_ = false;

    std::vector<Line> lines_; //!< num_sets_ x assoc_

    std::vector<Mshr> mshrs_; //!< mshr_limit_ slots
    std::vector<std::uint32_t> mshr_free_;
    unsigned mshrs_used_ = 0;
    /** Open-addressed (linear probing) line -> MSHR slot index; slots
     *  hold slot + 1, 0 = empty. At most half full. */
    std::vector<std::uint32_t> mshr_index_;
    unsigned index_shift_ = 0;

    std::vector<WaiterNode> waiter_nodes_;
    std::uint32_t free_waiter_ = noIndex;

    std::vector<Parked> pending_; //!< ring, power-of-two capacity
    std::size_t pending_head_ = 0;
    std::size_t pending_count_ = 0;

    Tick port_busy_ = 0;
    std::uint64_t lru_clock_ = 0;
    TraceSink *trace_ = nullptr;
    std::uint16_t track_ = 0;

    Counter &hits_;
    Counter &misses_;
    Counter &write_throughs_;
    Counter &evictions_;
    Distribution &mshr_wait_;
};

} // namespace lazygpu

#endif // LAZYGPU_MEM_CACHE_HH
