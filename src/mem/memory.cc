#include "mem/memory.hh"

#include <algorithm>
#include <atomic>
#include <mutex>

#include "sim/logging.hh"

namespace lazygpu
{

namespace
{

/**
 * Concurrent-mode page cache epoch. Every setConcurrent(true) stamps the
 * GlobalMemory with a fresh epoch from this counter, and per-thread
 * cache entries are only valid for the epoch they were filled under —
 * a worker thread reused across sweep jobs can therefore never serve a
 * page pointer from a previous job's (destroyed) GlobalMemory, even if
 * the new instance landed at the same address.
 */
std::atomic<std::uint64_t> g_concurrent_epoch{0};

struct ThreadPageCache
{
    std::uint64_t epoch = 0;
    Addr key = ~Addr(0);
    std::uint8_t *page = nullptr; //!< always a materialised buffer
};

thread_local ThreadPageCache t_page_cache;

} // namespace

void
GlobalMemory::setConcurrent(bool on)
{
    concurrent_ = on;
    if (on)
        concurrent_epoch_ =
            g_concurrent_epoch.fetch_add(1, std::memory_order_relaxed) + 1;
    // Invalidate the shared one-entry cache both ways: entering, so the
    // single-thread fast path never hits while domain threads run;
    // leaving, because pages materialised concurrently may have been
    // cached as absent.
    cached_key_ = ~Addr(0);
    cached_page_ = nullptr;
}

const std::uint8_t *
GlobalMemory::pageForConcurrent(Addr key) const
{
    ThreadPageCache &c = t_page_cache;
    if (c.epoch == concurrent_epoch_ && c.key == key)
        return c.page;
    std::shared_lock lk(pages_mutex_);
    auto it = pages_.find(key);
    if (it == pages_.end())
        return nullptr; // absent pages are never cached per-thread
    // Safe to cache: page buffers never move once materialised.
    std::uint8_t *page = const_cast<std::uint8_t *>(it->second.data());
    c = {concurrent_epoch_, key, page};
    return page;
}

std::uint8_t *
GlobalMemory::pageForWriteConcurrent(Addr key)
{
    ThreadPageCache &c = t_page_cache;
    if (c.epoch == concurrent_epoch_ && c.key == key)
        return c.page;
    {
        std::shared_lock lk(pages_mutex_);
        auto it = pages_.find(key);
        if (it != pages_.end()) {
            std::uint8_t *page = it->second.data();
            c = {concurrent_epoch_, key, page};
            return page;
        }
    }
    std::unique_lock lk(pages_mutex_);
    auto &page = pages_[key];
    if (page.empty())
        page.assign(pageSize, 0);
    c = {concurrent_epoch_, key, page.data()};
    return page.data();
}

Addr
GlobalMemory::alloc(std::uint64_t size, std::uint64_t align)
{
    panic_if(align == 0 || (align & (align - 1)) != 0,
             "alignment must be a power of two");
    next_alloc_ = (next_alloc_ + align - 1) & ~(align - 1);
    Addr base = next_alloc_;
    next_alloc_ += size;
    fatal_if(next_alloc_ >= maskBase,
             "workload footprint collides with the mask shadow region");
    return base;
}

const std::uint8_t *
GlobalMemory::pageForMiss(Addr key) const
{
    auto it = pages_.find(key);
    const std::uint8_t *page =
        it == pages_.end() ? nullptr : it->second.data();
    cached_key_ = key;
    cached_page_ = page;
    return page;
}

std::uint8_t *
GlobalMemory::pageForWriteMiss(Addr key)
{
    auto &page = pages_[key];
    if (page.empty())
        page.assign(pageSize, 0);
    // Refresh the read cache: this page may have been cached as absent.
    cached_key_ = key;
    cached_page_ = page.data();
    return page.data();
}

std::uint32_t
GlobalMemory::readU32Straddle(Addr a) const
{
    // Words may straddle pages; the byte path is the simple, correct one.
    std::uint32_t v = 0;
    for (unsigned i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(readByte(a + i)) << (8 * i);
    return v;
}

void
GlobalMemory::writeU32Straddle(Addr a, std::uint32_t v)
{
    for (unsigned i = 0; i < 4; ++i)
        writeByte(a + i, static_cast<std::uint8_t>(v >> (8 * i)));
}

float
GlobalMemory::readF32(Addr a) const
{
    std::uint32_t bits = readU32(a);
    float f;
    std::memcpy(&f, &bits, sizeof(f));
    return f;
}

void
GlobalMemory::writeF32(Addr a, float v)
{
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    writeU32(a, bits);
}

void
GlobalMemory::writeF32Array(Addr a, const std::vector<float> &vals)
{
    for (std::uint64_t i = 0; i < vals.size(); ++i)
        writeF32(a + 4 * i, vals[i]);
}

void
GlobalMemory::writeU32Array(Addr a, const std::vector<std::uint32_t> &vals)
{
    for (std::uint64_t i = 0; i < vals.size(); ++i)
        writeU32(a + 4 * i, vals[i]);
}

std::vector<float>
GlobalMemory::readF32Array(Addr a, std::uint64_t count) const
{
    std::vector<float> out(count);
    for (std::uint64_t i = 0; i < count; ++i)
        out[i] = readF32(a + 4 * i);
    return out;
}

namespace
{

bool
allZero(const std::vector<std::uint8_t> &page)
{
    for (std::uint8_t b : page) {
        if (b)
            return false;
    }
    return true;
}

/** Non-zero page keys in ascending order (deterministic traversal). */
std::vector<Addr>
sortedPageKeys(const std::unordered_map<Addr, std::vector<std::uint8_t>>
                   &pages)
{
    std::vector<Addr> keys;
    keys.reserve(pages.size());
    for (const auto &[key, page] : pages) {
        if (!allZero(page))
            keys.push_back(key);
    }
    std::sort(keys.begin(), keys.end());
    return keys;
}

} // namespace

void
GlobalMemory::checkpointTo(ByteWriter &w) const
{
    w.tag("GMEM");
    w.u64(next_alloc_);
    const std::vector<Addr> keys = sortedPageKeys(pages_);
    w.u64(keys.size());
    for (Addr key : keys) {
        w.u64(key);
        w.bytes(pages_.at(key).data(), pageSize);
    }
}

void
GlobalMemory::restoreFrom(ByteReader &r)
{
    if (!r.tag("GMEM"))
        return;
    pages_.clear();
    cached_key_ = ~Addr(0);
    cached_page_ = nullptr;
    next_alloc_ = r.u64();
    const std::uint64_t n = r.u64();
    for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
        const Addr key = r.u64();
        std::vector<std::uint8_t> page(pageSize);
        if (!r.bytes(page.data(), pageSize))
            return;
        pages_.emplace(key, std::move(page));
    }
}

std::uint64_t
GlobalMemory::contentHash() const
{
    std::uint64_t h = 1469598103934665603ull; // FNV offset basis
    const auto mix = [&h](std::uint64_t v) {
        for (unsigned i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull; // FNV prime
        }
    };
    for (Addr key : sortedPageKeys(pages_)) {
        mix(key);
        const std::vector<std::uint8_t> &page = pages_.at(key);
        for (std::uint8_t b : page) {
            h ^= b;
            h *= 1099511628211ull;
        }
    }
    return h;
}

std::uint8_t
GlobalMemory::zeroMaskByte(Addr a) const
{
    // A transaction-aligned block never straddles a page: one lookup
    // covers its eight words.
    const Addr block = a & ~Addr(transactionSize - 1);
    const std::uint8_t *page = pageFor(block);
    if (!page)
        return 0xff; // untouched pages read as zero
    const std::uint8_t *p = page + (block & (pageSize - 1));
    std::uint8_t mask = 0;
    for (unsigned w = 0; w < transactionSize / maskGranularity; ++w) {
        std::uint32_t v;
        std::memcpy(&v, p + w * maskGranularity, sizeof(v));
        mask |= static_cast<std::uint8_t>((v == 0 ? 1u : 0u) << w);
    }
    return mask;
}

} // namespace lazygpu
