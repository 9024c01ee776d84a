#include "mem/cache.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "sim/logging.hh"

namespace lazygpu
{

Cache::Cache(Engine &engine, StatsRegistry &stats, const std::string &name,
             const CacheParams &params, WritePolicy policy,
             MemDevice &below)
    : engine_(engine), name_(name), line_size_(params.lineSize),
      assoc_(params.assoc),
      num_sets_(std::max<unsigned>(
          1, params.size / (params.lineSize * params.assoc))),
      mshr_limit_(params.mshrs),
      bytes_per_cycle_(std::max(1u, params.bytesPerCycle)),
      latency_(params.latency), policy_(policy), below_(below),
      line_shift_(static_cast<unsigned>(std::countr_zero(params.lineSize))),
      sets_pow2_(std::has_single_bit(num_sets_)),
      lines_(num_sets_ * assoc_), mshrs_(mshr_limit_),
      hits_(stats.counter(name + ".hits")),
      misses_(stats.counter(name + ".misses")),
      write_throughs_(stats.counter(name + ".write_throughs")),
      evictions_(stats.counter(name + ".evictions")),
      mshr_wait_(stats.dist(name + ".mshr_wait"))
{
    panic_if(params.size == 0, "%s: zero-sized cache instantiated",
             name.c_str());
    panic_if(!std::has_single_bit(line_size_),
             "%s: line size %u is not a power of two", name.c_str(),
             line_size_);
    mshr_free_.reserve(mshr_limit_);
    for (unsigned i = mshr_limit_; i-- > 0;)
        mshr_free_.push_back(i);
    // At most half full, so a probe sequence stays short.
    const unsigned index_size =
        std::bit_ceil(std::max(2u, 2 * mshr_limit_));
    mshr_index_.assign(index_size, 0);
    index_shift_ = 64 - static_cast<unsigned>(std::countr_zero(index_size));
}

Cache::Line *
Cache::findLine(Addr line_addr)
{
    Line *set = &lines_[setIndex(line_addr) * assoc_];
    for (unsigned w = 0; w < assoc_; ++w) {
        if (set[w].valid && set[w].tag == line_addr)
            return &set[w];
    }
    return nullptr;
}

const Cache::Line *
Cache::findLine(Addr line_addr) const
{
    return const_cast<Cache *>(this)->findLine(line_addr);
}

Cache::Line &
Cache::victimLine(Addr line_addr)
{
    Line *set = &lines_[setIndex(line_addr) * assoc_];
    Line *victim = &set[0];
    for (unsigned w = 0; w < assoc_; ++w) {
        if (!set[w].valid)
            return set[w];
        if (set[w].lruStamp < victim->lruStamp)
            victim = &set[w];
    }
    return *victim;
}

bool
Cache::contains(Addr addr) const
{
    return findLine(lineAddr(addr)) != nullptr;
}

bool
Cache::probe(Addr addr)
{
    if (Line *line = findLine(lineAddr(addr))) {
        line->lruStamp = ++lru_clock_;
        return true;
    }
    return false;
}

void
Cache::access(const MemAccess &acc, Completion done)
{
    // Transactions never straddle a line: they are <= 32 B and aligned.
    panic_if(lineAddr(acc.addr) != lineAddr(acc.addr + acc.size - 1),
             "%s: access straddles a cache line", name_.c_str());

    const Tick now = engine_.now();
    const Tick service = std::max<Tick>(
        1, (acc.size + bytes_per_cycle_ - 1) / bytes_per_cycle_);
    const Tick start = std::max(now, port_busy_);
    port_busy_ = start + service;

    if (start == now) {
        lookup(acc, Waiter{done});
    } else {
        engine_.schedule(start, [this, acc, done]() {
            lookup(acc, Waiter{done});
        });
    }
}

void
Cache::lookup(const MemAccess &acc, const Waiter &w)
{
    if (acc.write)
        handleWrite(acc, w);
    else
        handleRead(lineAddr(acc.addr), w);
}

void
Cache::handleRead(Addr line_addr, const Waiter &w)
{
    if (Line *line = findLine(line_addr)) {
        ++hits_;
        line->lruStamp = ++lru_clock_;
        respond(line_addr, w);
        return;
    }
    ++misses_;
    miss(MemAccess{line_addr, line_size_, false}, line_addr, w);
}

void
Cache::handleWrite(const MemAccess &acc, Waiter w)
{
    if (policy_ == WritePolicy::WriteAround) {
        // Writes bypass this level entirely; drop any stale local copy.
        if (Line *line = findLine(lineAddr(acc.addr)))
            line->valid = false;
        ++write_throughs_;
        below_.access(acc, w.done);
        return;
    }

    // Write-back, write-allocate.
    Addr la = lineAddr(acc.addr);
    if (Line *line = findLine(la)) {
        ++hits_;
        line->dirty = true;
        line->lruStamp = ++lru_clock_;
        respond(la, w);
        return;
    }
    ++misses_;
    // The line is marked dirty when the fill answers this write.
    w.dirty = true;
    miss(MemAccess{acc.addr, acc.size, true}, la, w);
}

void
Cache::miss(const MemAccess &acc, Addr line_addr, const Waiter &w)
{
    if (const std::uint32_t slot = findMshr(line_addr); slot != noIndex) {
        // Secondary miss: ride the outstanding fill.
        if (w.live())
            pushWaiter(mshrs_[slot], w);
        return;
    }
    if (mshrs_used_ >= mshr_limit_) {
        // Structural stall: this is the congestion LazyCore relieves.
        park(acc, w);
        traceDepth();
        return;
    }
    Mshr &mshr = allocMshr(line_addr);
    if (w.live())
        pushWaiter(mshr, w);
    traceDepth();
    below_.access(MemAccess{line_addr, line_size_, false},
                  [this, line_addr]() { fill(line_addr); });
}

void
Cache::respond(Addr line_addr, const Waiter &w)
{
    if (w.dirty || w.stalledAt != notStalled) {
        engine_.scheduleIn(latency_,
                           [this, line_addr, w]() { fire(line_addr, w); });
    } else if (w.done) {
        engine_.scheduleIn(latency_, w.done);
    }
}

void
Cache::fire(Addr line_addr, const Waiter &w)
{
    if (w.dirty) {
        if (Line *line = findLine(line_addr))
            line->dirty = true;
    }
    if (w.stalledAt != notStalled) {
        mshr_wait_.sample(
            static_cast<double>(engine_.now() - w.stalledAt));
    }
    if (w.done) {
        Completion done = w.done;
        done();
    }
}

void
Cache::fill(Addr line_addr)
{
    Line &victim = victimLine(line_addr);
    if (victim.valid && victim.dirty) {
        ++evictions_;
        // Fire-and-forget writeback; it consumes downstream bandwidth.
        below_.access(MemAccess{victim.tag, line_size_, true}, nullptr);
    }
    victim.tag = line_addr;
    victim.valid = true;
    victim.dirty = false;
    victim.lruStamp = ++lru_clock_;

    const std::uint32_t slot = findMshr(line_addr);
    panic_if(slot == noIndex, "%s: fill without an MSHR", name_.c_str());
    std::uint32_t node = mshrs_[slot].head;
    freeMshr(line_addr);
    while (node != noIndex) {
        WaiterNode &n = waiter_nodes_[node];
        respond(line_addr, n.waiter);
        const std::uint32_t next = n.next;
        n.next = free_waiter_;
        free_waiter_ = node;
        node = next;
    }
    drainPending();
    traceDepth();
}

void
Cache::drainPending()
{
    while (pending_count_ != 0 && mshrs_used_ < mshr_limit_) {
        const Parked p = pending_[pending_head_];
        pending_head_ = (pending_head_ + 1) & (pending_.size() - 1);
        --pending_count_;
        lookup(p.acc, p.waiter);
        // A pending hit or coalesce does not consume an MSHR, so keep
        // draining; the loop terminates because each iteration pops.
    }
}

void
Cache::park(const MemAccess &acc, const Waiter &w)
{
    // Drained requests always find a free MSHR, so no request parks
    // twice (its one stall sample covers the whole wait).
    panic_if(w.stalledAt != notStalled, "%s: a request parked twice",
             name_.c_str());
    if (pending_count_ == pending_.size()) {
        std::vector<Parked> grown(std::max<std::size_t>(
            16, 2 * pending_.size()));
        for (std::size_t i = 0; i < pending_count_; ++i) {
            grown[i] =
                pending_[(pending_head_ + i) & (pending_.size() - 1)];
        }
        pending_ = std::move(grown);
        pending_head_ = 0;
    }
    Parked &p =
        pending_[(pending_head_ + pending_count_) & (pending_.size() - 1)];
    p.acc = acc;
    p.waiter = w;
    p.waiter.stalledAt = engine_.now();
    ++pending_count_;
}

std::uint32_t
Cache::findMshr(Addr line_addr) const
{
    const std::uint32_t mask =
        static_cast<std::uint32_t>(mshr_index_.size() - 1);
    for (std::uint32_t i = indexHome(line_addr);; i = (i + 1) & mask) {
        const std::uint32_t e = mshr_index_[i];
        if (e == 0)
            return noIndex;
        if (mshrs_[e - 1].lineAddr == line_addr)
            return e - 1;
    }
}

Cache::Mshr &
Cache::allocMshr(Addr line_addr)
{
    const std::uint32_t slot = mshr_free_.back();
    mshr_free_.pop_back();
    ++mshrs_used_;
    mshrs_[slot] = Mshr{line_addr, noIndex, noIndex};
    const std::uint32_t mask =
        static_cast<std::uint32_t>(mshr_index_.size() - 1);
    std::uint32_t i = indexHome(line_addr);
    while (mshr_index_[i] != 0)
        i = (i + 1) & mask;
    mshr_index_[i] = slot + 1;
    return mshrs_[slot];
}

void
Cache::freeMshr(Addr line_addr)
{
    const std::uint32_t mask =
        static_cast<std::uint32_t>(mshr_index_.size() - 1);
    std::uint32_t i = indexHome(line_addr);
    while (mshrs_[mshr_index_[i] - 1].lineAddr != line_addr)
        i = (i + 1) & mask;
    mshr_free_.push_back(mshr_index_[i] - 1);
    --mshrs_used_;
    // Backward-shift deletion: pull later entries of the probe run into
    // the hole unless their home lies cyclically in (hole, entry].
    for (std::uint32_t j = (i + 1) & mask; mshr_index_[j] != 0;
         j = (j + 1) & mask) {
        const std::uint32_t home =
            indexHome(mshrs_[mshr_index_[j] - 1].lineAddr);
        const bool stays = i <= j ? (i < home && home <= j)
                                  : (i < home || home <= j);
        if (!stays) {
            mshr_index_[i] = mshr_index_[j];
            i = j;
        }
    }
    mshr_index_[i] = 0;
}

void
Cache::pushWaiter(Mshr &m, const Waiter &w)
{
    std::uint32_t n = free_waiter_;
    if (n != noIndex) {
        free_waiter_ = waiter_nodes_[n].next;
        waiter_nodes_[n] = WaiterNode{w, noIndex};
    } else {
        n = static_cast<std::uint32_t>(waiter_nodes_.size());
        waiter_nodes_.push_back(WaiterNode{w, noIndex});
    }
    if (m.tail == noIndex)
        m.head = n;
    else
        waiter_nodes_[m.tail].next = n;
    m.tail = n;
}

void
Cache::checkpointTo(ByteWriter &w) const
{
    panic_if(mshrs_used_ != 0 || pending_count_ != 0,
             "checkpointing cache '%s' with transactions in flight",
             name_.c_str());
    w.tag("CACH");
    w.u64(lru_clock_);
    w.u64(port_busy_);
    w.u64(lines_.size());
    std::uint64_t n_valid = 0;
    for (const Line &line : lines_) {
        if (line.valid)
            ++n_valid;
    }
    w.u64(n_valid);
    for (std::size_t i = 0; i < lines_.size(); ++i) {
        const Line &line = lines_[i];
        if (!line.valid)
            continue;
        w.u64(i);
        w.u64(line.tag);
        w.u8(line.dirty ? 1 : 0);
        w.u64(line.lruStamp);
    }
}

void
Cache::restoreFrom(ByteReader &r)
{
    panic_if(mshrs_used_ != 0 || pending_count_ != 0,
             "restoring cache '%s' with transactions in flight",
             name_.c_str());
    if (!r.tag("CACH"))
        return;
    lru_clock_ = r.u64();
    port_busy_ = r.u64();
    const std::uint64_t n_lines = r.u64();
    if (n_lines != lines_.size()) {
        // Geometry mismatch means the restoring Gpu was built from a
        // different configuration; the caller checks r.ok() and fatals.
        while (r.ok())
            r.u8();
        return;
    }
    for (Line &line : lines_)
        line = Line{};
    const std::uint64_t n_valid = r.u64();
    for (std::uint64_t i = 0; i < n_valid && r.ok(); ++i) {
        const std::uint64_t idx = r.u64();
        if (idx >= lines_.size())
            return;
        Line &line = lines_[idx];
        line.valid = true;
        line.tag = r.u64();
        line.dirty = r.u8() != 0;
        line.lruStamp = r.u64();
    }
}

} // namespace lazygpu
