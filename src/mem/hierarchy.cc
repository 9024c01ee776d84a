#include "mem/hierarchy.hh"

#include <algorithm>

#include "sim/domains.hh"
#include "sim/logging.hh"

namespace lazygpu
{

BankRouter::BankRouter(unsigned num_banks, unsigned interleave,
                       unsigned bytes_per_cycle)
    : num_banks_(num_banks), interleave_(interleave),
      bytes_per_cycle_(std::max(1u, bytes_per_cycle))
{
}

unsigned
BankRouter::bankFor(Addr addr) const
{
    return static_cast<unsigned>((addr / interleave_) % num_banks_);
}

Tick
BankRouter::arbitrate(Tick when, unsigned size)
{
    // Crossbar occupancy: the aggregate ingress port serialises bursts.
    const Tick service = std::max<Tick>(
        1, (size + bytes_per_cycle_ - 1) / bytes_per_cycle_);
    const Tick start = std::max(when, port_busy_);
    port_busy_ = start + service;
    return start;
}

MemoryHierarchy::MemoryHierarchy(DomainScheduler &domains,
                                 StatsRegistry &stats,
                                 const GpuConfig &cfg, GlobalMemory &mem)
    : mem_(mem),
      l2_router_(cfg.l2Banks, cfg.interleave,
                 cfg.l2.bytesPerCycle * cfg.l2Banks),
      zc_router_(cfg.l2Banks, cfg.interleave,
                 cfg.l2Zero.bytesPerCycle * cfg.l2Banks)
{
    panic_if(domains.numSaDomains() != cfg.numShaderArrays ||
                 domains.numBankDomains() != cfg.l2Banks,
             "hierarchy placed onto %u SA / %u bank domains, config has "
             "%u / %u",
             domains.numSaDomains(), domains.numBankDomains(),
             cfg.numShaderArrays, cfg.l2Banks);
    const bool zero_caches = cfg.l1Zero.size > 0 && cfg.l2Zero.size > 0;

    // One DRAM channel per L2 bank, on the bank's domain.
    for (unsigned b = 0; b < cfg.l2Banks; ++b) {
        dram_.push_back(std::make_unique<DramChannel>(
            domains.bankEngine(b), stats,
            "mem.dram.ch" + std::to_string(b), cfg.dramBytesPerCycle,
            cfg.dramLatency));
    }

    // Memory-side L2 banks. The L1->L2 hop latency is not a cache
    // latency: the scheduler charges it on the response crossing back
    // to the SA (the lookahead it adds in respond()).
    for (unsigned b = 0; b < cfg.l2Banks; ++b) {
        CacheParams p = cfg.l2;
        p.latency = 0;
        l2_.push_back(std::make_unique<Cache>(
            domains.bankEngine(b), stats,
            "mem.l2.bank" + std::to_string(b), p,
            Cache::WritePolicy::WriteBack, *dram_[b]));
    }
    if (zero_caches) {
        for (unsigned b = 0; b < cfg.l2Banks; ++b) {
            CacheParams p = cfg.l2Zero;
            p.latency = 0;
            l2_zero_.push_back(std::make_unique<Cache>(
                domains.bankEngine(b), stats,
                "mem.zl2.bank" + std::to_string(b), p,
                Cache::WritePolicy::WriteBack, *dram_[b]));
        }
    }

    // A router function runs on the coordinator at the window barrier,
    // arbitrates the shared ingress port in the fixed merge order, and
    // names the owning bank; the scheduler injects the access there.
    const auto router = [&domains](
                            BankRouter &xbar,
                            std::vector<std::unique_ptr<Cache>> &banks) {
        return domains.addRouter(
            [&xbar, &banks](unsigned, Tick when, const MemAccess &acc) {
                const unsigned b = xbar.bankFor(acc.addr);
                return DomainScheduler::Route{
                    b, xbar.arbitrate(when, acc.size), banks[b].get()};
            });
    };
    const unsigned data_router = router(l2_router_, l2_);
    const unsigned mask_router =
        zero_caches ? router(zc_router_, l2_zero_) : 0;

    // Core-side L1s, one per shader array.
    for (unsigned sa = 0; sa < cfg.numShaderArrays; ++sa) {
        Engine &sa_engine = domains.saEngine(sa);
        CacheParams p = cfg.l1;
        p.latency = cfg.l1HitLatency;
        l1_.push_back(std::make_unique<Cache>(
            sa_engine, stats, "mem.l1.sa" + std::to_string(sa), p,
            Cache::WritePolicy::WriteAround,
            domains.port(sa, data_router)));
        if (zero_caches) {
            CacheParams zp = cfg.l1Zero;
            zp.latency = cfg.zcacheHitLatency;
            l1_zero_.push_back(std::make_unique<Cache>(
                sa_engine, stats, "mem.zl1.sa" + std::to_string(sa), zp,
                Cache::WritePolicy::WriteAround,
                domains.port(sa, mask_router)));
        }
    }
}

void
MemoryHierarchy::attachTrace(TraceSink *trace,
                             std::vector<std::string> &tracks)
{
    auto attach = [&](std::vector<std::unique_ptr<Cache>> &caches) {
        for (auto &c : caches) {
            c->attachTrace(trace,
                           static_cast<std::uint16_t>(tracks.size()));
            tracks.push_back(c->name());
        }
    };
    attach(l1_);
    attach(l1_zero_);
    attach(l2_);
    attach(l2_zero_);
}

void
MemoryHierarchy::accessData(unsigned sa, Addr addr, unsigned size,
                            bool write, Completion done)
{
    panic_if(sa >= l1_.size(), "shader array %u out of range", sa);
    l1_[sa]->access(MemAccess{addr, size, write}, done);
}

void
MemoryHierarchy::accessMask(unsigned sa, Addr mask_addr, bool write,
                            Completion done)
{
    panic_if(l1_zero_.empty(),
             "mask access on a configuration without Zero Caches");
    l1_zero_[sa]->access(MemAccess{mask_addr, transactionSize, write},
                         done);
}

void
MemoryHierarchy::checkpointTo(ByteWriter &w) const
{
    w.tag("HIER");
    const auto caches = [&w](const std::vector<std::unique_ptr<Cache>>
                                 &level) {
        w.u64(level.size());
        for (const auto &c : level)
            c->checkpointTo(w);
    };
    caches(l1_);
    caches(l1_zero_);
    caches(l2_);
    caches(l2_zero_);
    w.u64(dram_.size());
    for (const auto &d : dram_)
        w.u64(d->busyUntil());
    w.u64(l2_router_.portBusy());
    w.u64(zc_router_.portBusy());
}

void
MemoryHierarchy::restoreFrom(ByteReader &r)
{
    if (!r.tag("HIER"))
        return;
    const auto caches = [&r](const std::vector<std::unique_ptr<Cache>>
                                 &level) {
        if (r.u64() != level.size())
            return false;
        for (const auto &c : level)
            c->restoreFrom(r);
        return true;
    };
    if (!caches(l1_) || !caches(l1_zero_) || !caches(l2_) ||
        !caches(l2_zero_)) {
        fatal("checkpoint cache geometry does not match this "
              "configuration");
    }
    fatal_if(r.u64() != dram_.size(),
             "checkpoint DRAM geometry does not match this configuration");
    for (const auto &d : dram_)
        d->restoreBusyUntil(r.u64());
    l2_router_.restorePortBusy(r.u64());
    zc_router_.restorePortBusy(r.u64());
}

bool
MemoryHierarchy::maskResidentInL1(unsigned sa, Addr mask_addr)
{
    if (l1_zero_.empty())
        return false;
    // A successful probe is a real use of the mask line: refresh its LRU
    // recency so hot masks are not evicted while under active reuse.
    return l1_zero_[sa]->probe(mask_addr);
}

} // namespace lazygpu
