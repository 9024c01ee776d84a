/**
 * @file
 * GlobalMemory: the functional backing store of the simulated GPU.
 *
 * Timing and function are decoupled: caches and DRAM model *when* data
 * moves, GlobalMemory holds *what* the data is. It is paged so workloads
 * can use sparse 64-bit address spaces, provides a bump allocator for
 * buffers, and serves the zero-mask queries the Zero Caches are built on
 * (one mask bit per aligned 4-byte word).
 */

#ifndef LAZYGPU_MEM_MEMORY_HH
#define LAZYGPU_MEM_MEMORY_HH

#include <cstdint>
#include <cstring>
#include <shared_mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/serialize.hh"
#include "sim/types.hh"

namespace lazygpu
{

class GlobalMemory
{
  public:
    static constexpr unsigned pageShift = 12;
    static constexpr Addr pageSize = Addr(1) << pageShift;

    // Copyable/movable (the verifier snapshots memory images). The
    // concurrency guard is per-instance state, not data: a copy gets
    // its own fresh mutex and starts in single-thread mode with a cold
    // cache. Only copy while no simulation thread is inside an accessor.
    GlobalMemory() = default;
    GlobalMemory(const GlobalMemory &o)
        : pages_(o.pages_), next_alloc_(o.next_alloc_)
    {
    }
    GlobalMemory(GlobalMemory &&o) noexcept
        : pages_(std::move(o.pages_)), next_alloc_(o.next_alloc_)
    {
    }
    GlobalMemory &
    operator=(const GlobalMemory &o)
    {
        pages_ = o.pages_;
        next_alloc_ = o.next_alloc_;
        cached_key_ = ~Addr(0);
        cached_page_ = nullptr;
        concurrent_ = false;
        return *this;
    }
    GlobalMemory &
    operator=(GlobalMemory &&o) noexcept
    {
        pages_ = std::move(o.pages_);
        next_alloc_ = o.next_alloc_;
        cached_key_ = ~Addr(0);
        cached_page_ = nullptr;
        concurrent_ = false;
        return *this;
    }

    /** Allocate size bytes, aligned to align (power of two). */
    Addr alloc(std::uint64_t size, std::uint64_t align = 256);

    // The byte/word accessors sit on the simulator's hottest path (every
    // functional register fill and zero-mask probe lands here), so they
    // are inline fast paths over a one-entry page cache: consecutive
    // accesses to the same 4 KiB page skip the hash lookup entirely.
    // Little-endian word layout, matching the byte-at-a-time definition
    // (all supported hosts are little-endian, so memcpy is equivalent).

    std::uint8_t
    readByte(Addr a) const
    {
        const std::uint8_t *page = pageFor(a);
        return page ? page[a & (pageSize - 1)] : 0;
    }

    void writeByte(Addr a, std::uint8_t v)
    {
        pageForWrite(a)[a & (pageSize - 1)] = v;
    }

    std::uint32_t
    readU32(Addr a) const
    {
        const Addr off = a & (pageSize - 1);
        if (off + 4 <= pageSize) {
            const std::uint8_t *page = pageFor(a);
            if (!page)
                return 0; // untouched pages read as zero
            std::uint32_t v;
            std::memcpy(&v, page + off, sizeof(v));
            return v;
        }
        return readU32Straddle(a);
    }

    void
    writeU32(Addr a, std::uint32_t v)
    {
        const Addr off = a & (pageSize - 1);
        if (off + 4 <= pageSize) {
            std::memcpy(pageForWrite(a) + off, &v, sizeof(v));
            return;
        }
        writeU32Straddle(a, v);
    }

    /**
     * The page buffer holding addr, or nullptr when the page is
     * untouched (reads as zero). For callers resolving many words of
     * one transaction: a transactionSize-aligned block never straddles
     * a page (transactionSize divides pageSize), so one lookup covers
     * every word that starts inside the block. The pointer stays valid
     * as documented on the page cache below.
     */
    const std::uint8_t *pageForSpan(Addr a) const { return pageFor(a); }

    /**
     * Writable counterpart of pageForSpan: the (materialised) page
     * buffer holding addr, for bulk writers that have already checked
     * their whole span stays inside one page.
     */
    std::uint8_t *pageForSpanWrite(Addr a) { return pageForWrite(a); }

    float readF32(Addr a) const;
    void writeF32(Addr a, float v);

    /** Bulk helpers for workload initialisation. */
    void writeF32Array(Addr a, const std::vector<float> &vals);
    void writeU32Array(Addr a, const std::vector<std::uint32_t> &vals);
    std::vector<float> readF32Array(Addr a, std::uint64_t count) const;

    /** True iff the aligned 4-byte word containing a is all zero. */
    bool
    isZeroWord(Addr a) const
    {
        return readU32(a & ~Addr(maskGranularity - 1)) == 0;
    }

    /**
     * The zero mask byte for the 32 B block containing a: bit i set iff
     * word i of the block is all zero.
     */
    std::uint8_t zeroMaskByte(Addr a) const;

    /** Total bytes handed out by the allocator. */
    std::uint64_t footprint() const { return next_alloc_ - allocBase; }

    /**
     * Serialize the full functional image (allocator cursor + every
     * non-zero page, in ascending page order). All-zero pages are
     * skipped: an untouched page and a materialised page of zeros read
     * identically, so the encoding — like contentHash() — depends only
     * on content, never on which pages happen to be materialised.
     */
    void checkpointTo(ByteWriter &w) const;

    /** Restore an image saved by checkpointTo, replacing all content. */
    void restoreFrom(ByteReader &r);

    /**
     * Order- and materialisation-independent FNV-1a hash of the whole
     * image (the fault campaign's output-divergence test).
     */
    std::uint64_t contentHash() const;

    /**
     * Toggle concurrent-access mode (the Gpu's SA domains read and
     * write functional state from multiple domain threads). While
     * enabled, the shared one-entry page cache is bypassed in favour of
     * a per-thread cache and the page table itself is guarded by a
     * reader/writer lock; page buffers never move once materialised, so
     * cached data pointers stay valid across materialisations.
     * Disabling invalidates the shared cache (pages materialised
     * concurrently may have been cached as absent). Only call while no
     * simulation thread is inside an accessor.
     */
    void setConcurrent(bool on);

    /** Base of the heap; fixed so kernels get stable addresses. */
    static constexpr Addr allocBase = 0x10000000ull;

    /**
     * Base of the shadow mask region. One mask byte per 32 data bytes:
     * maskAddr(a) = maskBase + a / 32.
     */
    static constexpr Addr maskBase = Addr(1) << 40;

    static Addr
    maskAddr(Addr data_addr)
    {
        return maskBase + data_addr / transactionSize;
    }

    static bool isMaskAddr(Addr a) { return a >= maskBase; }

    /** The data address whose mask lives at mask address a. */
    static Addr
    maskedDataAddr(Addr mask_addr)
    {
        return (mask_addr - maskBase) * transactionSize;
    }

  private:
    /**
     * One-entry page cache in front of the page table. Page buffers are
     * never freed or reallocated once materialised (pages_ values are
     * only ever assigned once, and a rehash moves the vector objects,
     * not their heap buffers), so a cached data() pointer stays valid;
     * pageForWrite refreshes the entry when it materialises a page that
     * may have been cached as absent. NOT thread-safe for concurrent
     * readers of one GlobalMemory -- fine here because every parallel
     * job owns its own instance.
     */
    const std::uint8_t *
    pageFor(Addr a) const
    {
        const Addr key = a >> pageShift;
        // In concurrent mode cached_key_ is pinned to ~0 (no real page
        // key reaches it), so the shared-cache fast path never hits and
        // the lookup routes through the per-thread cache.
        if (key == cached_key_)
            return cached_page_;
        if (concurrent_)
            return pageForConcurrent(key);
        return pageForMiss(key);
    }

    const std::uint8_t *pageForMiss(Addr key) const;
    const std::uint8_t *pageForConcurrent(Addr key) const;
    std::uint8_t *
    pageForWrite(Addr a)
    {
        const Addr key = a >> pageShift;
        // The read cache's fast path: a cached page is materialised
        // unless it was cached as absent (nullptr). In concurrent mode
        // cached_key_ never matches, as above.
        if (key == cached_key_ && cached_page_)
            return const_cast<std::uint8_t *>(cached_page_);
        if (concurrent_)
            return pageForWriteConcurrent(key);
        return pageForWriteMiss(key);
    }
    std::uint8_t *pageForWriteMiss(Addr key);
    std::uint8_t *pageForWriteConcurrent(Addr key);
    std::uint32_t readU32Straddle(Addr a) const;
    void writeU32Straddle(Addr a, std::uint32_t v);

    // Untouched pages read as zero without being materialised.
    std::unordered_map<Addr, std::vector<std::uint8_t>> pages_;
    Addr next_alloc_ = allocBase;

    mutable Addr cached_key_ = ~Addr(0);
    mutable const std::uint8_t *cached_page_ = nullptr;

    // Concurrent mode (several domain threads): the page table is
    // guarded by a reader/writer lock and each thread keeps its own
    // one-entry cache, validated against a global epoch stamped per
    // setConcurrent(true) so entries can never dangle into a later
    // simulation's memory.
    bool concurrent_ = false;
    std::uint64_t concurrent_epoch_ = 0;
    mutable std::shared_mutex pages_mutex_;
};

} // namespace lazygpu

#endif // LAZYGPU_MEM_MEMORY_HH
