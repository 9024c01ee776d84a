/**
 * @file
 * Unit tests for the timing memory system: caches (hits, LRU, MSHRs,
 * write policies), DRAM channels (bandwidth occupancy), the bank
 * router, and the end-to-end latencies of Table 2's hierarchy.
 */

#include <gtest/gtest.h>

#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/hierarchy.hh"
#include "sim/config.hh"
#include "sim/domains.hh"

namespace lazygpu
{
namespace
{

struct Fixture
{
    Engine engine;
    StatsRegistry stats;
};

/** A hierarchy placed on its own one-thread domain scheduler. */
struct HierFixture
{
    explicit HierFixture(const GpuConfig &cfg)
        : sched({std::max<Tick>(1, cfg.l2HopLatency), 1, false},
                cfg.numShaderArrays, cfg.l2Banks),
          hier(sched, stats, cfg, mem)
    {
    }

    /**
     * Run `issue` as an event of SA sa's domain at the simulation
     * frontier (boundary requests are only exchanged while the
     * scheduler runs; an SA domain that has not run yet still sits at
     * tick 0), then run the scheduler until idle.
     */
    template <typename F>
    void
    inWindow(unsigned sa, F &&issue)
    {
        sched.saEngine(sa).schedule(sched.now(), std::forward<F>(issue));
        sched.run();
    }

    /** Data access from SA sa; returns its round trip in ticks. */
    Tick
    roundTrip(unsigned sa, Addr addr)
    {
        Engine &e = sched.saEngine(sa);
        const Tick start = sched.now();
        Tick done = maxTick;
        inWindow(sa, [&]() {
            hier.accessData(sa, addr, 32, false,
                            [&]() { done = e.now(); });
        });
        return done - start;
    }

    StatsRegistry stats;
    GlobalMemory mem;
    DomainScheduler sched;
    MemoryHierarchy hier;
};

/** Run an access and return its completion tick. */
Tick
timedAccess(Engine &engine, MemDevice &dev, Addr addr, bool write = false)
{
    Tick done = maxTick;
    dev.access(MemAccess{addr, transactionSize, write},
               [&]() { done = engine.now(); });
    engine.run();
    return done;
}

TEST(DramChannel, AddsAccessLatency)
{
    Fixture f;
    DramChannel dram(f.engine, f.stats, "d", 32, 100);
    EXPECT_EQ(101u, timedAccess(f.engine, dram, 0)); // 1 occupancy + 100
}

TEST(DramChannel, BandwidthOccupancySerialisesBursts)
{
    Fixture f;
    // 8 B/cycle: each 32 B transaction occupies 4 cycles.
    DramChannel dram(f.engine, f.stats, "d", 8, 100);
    std::vector<Tick> done;
    for (int i = 0; i < 4; ++i) {
        dram.access(MemAccess{Addr(i) * 32, 32, false},
                    [d = &done, e = &f.engine]() {
                        d->push_back(e->now());
                    });
    }
    f.engine.run();
    ASSERT_EQ(4u, done.size());
    EXPECT_EQ(104u, done[0]);
    EXPECT_EQ(108u, done[1]);
    EXPECT_EQ(116u, done[3]); // queuing latency is emergent
    EXPECT_GT(f.stats.dist("d.queue_delay").max(), 0.0);
}

TEST(DramChannel, CountsReadsAndWrites)
{
    Fixture f;
    DramChannel dram(f.engine, f.stats, "d", 32, 10);
    dram.access(MemAccess{0, 32, false}, nullptr);
    dram.access(MemAccess{64, 32, true}, nullptr);
    dram.access(MemAccess{128, 32, true}, nullptr);
    f.engine.run();
    EXPECT_EQ(1u, f.stats.counter("d.reads").value());
    EXPECT_EQ(2u, f.stats.counter("d.writes").value());
}

class CacheFixture : public ::testing::Test
{
  public:
    CacheFixture()
        : dram_(f_.engine, f_.stats, "d", 32, 100),
          params_(makeParams()),
          cache_(f_.engine, f_.stats, "c", params_,
                 Cache::WritePolicy::WriteBack, dram_)
    {
    }

    static CacheParams
    makeParams()
    {
        CacheParams p;
        p.size = 4 * 1024; // 4 KiB, 4-way, 64 B lines -> 16 sets
        p.assoc = 4;
        p.lineSize = 64;
        p.mshrs = 2;
        p.bytesPerCycle = 64;
        p.latency = 10;
        return p;
    }

    Fixture f_;
    DramChannel dram_;
    CacheParams params_;
    Cache cache_;
};

TEST_F(CacheFixture, MissThenHit)
{
    Tick first = timedAccess(f_.engine, cache_, 0x1000);
    EXPECT_EQ(1u, f_.stats.counter("c.misses").value());
    EXPECT_GT(first, 100u); // went to DRAM

    Tick t0 = f_.engine.now();
    Tick second = timedAccess(f_.engine, cache_, 0x1000);
    EXPECT_EQ(1u, f_.stats.counter("c.hits").value());
    EXPECT_EQ(t0 + 10, second); // hit latency only
}

TEST_F(CacheFixture, SameLineDifferentTransactionHits)
{
    timedAccess(f_.engine, cache_, 0x1000);
    timedAccess(f_.engine, cache_, 0x1020); // other half of the line
    EXPECT_EQ(1u, f_.stats.counter("c.misses").value());
    EXPECT_EQ(1u, f_.stats.counter("c.hits").value());
}

TEST_F(CacheFixture, SecondaryMissCoalescesIntoMshr)
{
    int completions = 0;
    cache_.access(MemAccess{0x2000, 32, false}, [&]() { ++completions; });
    cache_.access(MemAccess{0x2020, 32, false}, [&]() { ++completions; });
    f_.engine.run();
    EXPECT_EQ(2, completions);
    EXPECT_EQ(2u, f_.stats.counter("c.misses").value());
    // Only one fill travelled to DRAM.
    EXPECT_EQ(1u, f_.stats.counter("d.reads").value());
}

TEST_F(CacheFixture, MshrExhaustionQueuesRequests)
{
    int completions = 0;
    // 4 distinct lines with only 2 MSHRs.
    for (Addr a = 0; a < 4; ++a) {
        cache_.access(MemAccess{0x4000 + a * 64, 32, false},
                      [&]() { ++completions; });
    }
    f_.engine.run();
    EXPECT_EQ(4, completions);
    EXPECT_GT(f_.stats.dist("c.mshr_wait").count(), 0u);
    EXPECT_GT(f_.stats.dist("c.mshr_wait").max(), 0.0);
}

TEST_F(CacheFixture, MshrOverflowSamplesWaitOnBothPaths)
{
    int completions = 0;
    // Two read misses claim both MSHRs; then one read and one write to
    // further lines overflow into the pending FIFO. Both overflowed
    // requests must contribute an mshr_wait sample (the write path used
    // to be dropped, skewing the Table 5 congestion stats).
    for (Addr a = 0; a < 2; ++a) {
        cache_.access(MemAccess{0x5000 + a * 64, 32, false},
                      [&]() { ++completions; });
    }
    cache_.access(MemAccess{0x5080, 32, false}, [&]() { ++completions; });
    cache_.access(MemAccess{0x50C0, 32, true}, [&]() { ++completions; });
    f_.engine.run();
    EXPECT_EQ(4, completions);
    EXPECT_EQ(2u, f_.stats.dist("c.mshr_wait").count());
}

TEST_F(CacheFixture, StallSecondaryAndDirtyPathsKeepTheirTicks)
{
    // One burst through every MSHR path of a write-back cache with two
    // MSHRs: primary and secondary read misses, a write-allocate miss
    // and a write coalescing into it, then two reads and a write that
    // find the MSHRs full and park in the FIFO (the last read of the
    // burst rides a parked line's fill once it drains). Completion
    // ticks, the stall samples and the dirty write-backs are pinned.
    struct Log
    {
        Engine *engine;
        std::vector<std::pair<unsigned, Tick>> done;
    } log{&f_.engine, {}};
    const std::pair<Addr, bool> burst[] = {
        {0x6000, false}, {0x6020, false}, {0x6040, true}, {0x6050, true},
        {0x6080, false}, {0x60C0, true},  {0x6090, false},
    };
    for (unsigned i = 0; i < std::size(burst); ++i) {
        Log *l = &log;
        cache_.access(MemAccess{burst[i].first, 32, burst[i].second},
                      [l, i]() {
                          l->done.emplace_back(i, l->engine->now());
                      });
    }
    f_.engine.run();
    const std::vector<std::pair<unsigned, Tick>> want = {
        {0, 112}, {1, 112}, {2, 114}, {3, 114},
        {4, 214}, {6, 214}, {5, 216},
    };
    EXPECT_EQ(want, log.done);
    const Distribution &wait = f_.stats.dist("c.mshr_wait");
    EXPECT_EQ(3u, wait.count());
    EXPECT_EQ(629.0, wait.sum());
    EXPECT_EQ(211.0, wait.max());
    EXPECT_EQ(1u, f_.stats.counter("c.hits").value());
    EXPECT_EQ(9u, f_.stats.counter("c.misses").value());
    EXPECT_EQ(4u, f_.stats.counter("d.reads").value());

    // Both written lines are dirty: evicting their sets writes each
    // back exactly once, and no clean line is written.
    for (Addr w = 1; w <= 4; ++w) {
        timedAccess(f_.engine, cache_, 0x6040 + w * 0x400);
        timedAccess(f_.engine, cache_, 0x60C0 + w * 0x400);
    }
    f_.engine.run();
    EXPECT_EQ(2u, f_.stats.counter("c.evictions").value());
    EXPECT_EQ(2u, f_.stats.counter("d.writes").value());
    EXPECT_EQ(1112u, f_.engine.now());
}

TEST_F(CacheFixture, LruEvictsTheColdestWay)
{
    // Fill one set (16 sets: addresses 0x1000 apart share set 0).
    for (Addr w = 0; w < 4; ++w)
        timedAccess(f_.engine, cache_, 0x10000 + w * 0x400);
    // Touch the first three again, then bring in a fifth line.
    for (Addr w = 0; w < 3; ++w)
        timedAccess(f_.engine, cache_, 0x10000 + w * 0x400);
    timedAccess(f_.engine, cache_, 0x10000 + 4 * 0x400);
    // Way 3 (0x10C00) was LRU and must be gone; way 0 must survive.
    EXPECT_TRUE(cache_.contains(0x10000));
    EXPECT_FALSE(cache_.contains(0x10000 + 3 * 0x400));
}

TEST_F(CacheFixture, ProbeRefreshesRecencyAndKeepsHotLinesResident)
{
    // Fill all four ways of one set (set-conflicting addresses are
    // 0x400 apart), oldest first.
    for (Addr w = 0; w < 4; ++w)
        timedAccess(f_.engine, cache_, 0x10000 + w * 0x400);
    // A successful probe counts as a use: way 0 becomes most recent.
    EXPECT_TRUE(cache_.probe(0x10000));
    EXPECT_FALSE(cache_.probe(0x90000));
    // Bringing in a fifth line must now evict way 1 (the true LRU),
    // not the probed way 0.
    timedAccess(f_.engine, cache_, 0x10000 + 4 * 0x400);
    EXPECT_TRUE(cache_.contains(0x10000));
    EXPECT_FALSE(cache_.contains(0x10000 + 0x400));
}

TEST(HierarchyProbe, MaskProbeRefreshesL1ZeroCacheRecency)
{
    // The EagerZC short-circuit probes the L1 Zero Cache; the probe must
    // protect hot mask lines from eviction (they are under active reuse).
    HierFixture f(GpuConfig::lazyGpu());
    MemoryHierarchy &hier = f.hier;
    ASSERT_TRUE(hier.hasZeroCaches());

    Addr ma = GlobalMemory::maskAddr(0x200000);
    f.inWindow(0, [&]() {
        hier.accessMask(0, ma & ~Addr(31), false, nullptr);
    });
    EXPECT_TRUE(hier.maskResidentInL1(0, ma));
    // (recency effects under pressure are covered at the Cache level;
    // here we assert the probe still reports residency correctly)
    EXPECT_FALSE(hier.maskResidentInL1(1, ma));
}

TEST_F(CacheFixture, WriteBackMarksDirtyAndWritesBackOnEviction)
{
    timedAccess(f_.engine, cache_, 0x20000, true); // write-allocate
    EXPECT_EQ(0u, f_.stats.counter("d.writes").value());
    // Evict it by filling the set with reads.
    for (Addr w = 1; w <= 4; ++w)
        timedAccess(f_.engine, cache_, 0x20000 + w * 0x400);
    f_.engine.run();
    EXPECT_EQ(1u, f_.stats.counter("c.evictions").value());
    EXPECT_EQ(1u, f_.stats.counter("d.writes").value());
}

TEST(CacheWriteAround, WritesBypassAndInvalidate)
{
    Fixture f;
    DramChannel dram(f.engine, f.stats, "d", 32, 50);
    CacheParams p = CacheFixture::makeParams();
    Cache cache(f.engine, f.stats, "c", p,
                Cache::WritePolicy::WriteAround, dram);

    timedAccess(f.engine, cache, 0x3000); // fill
    EXPECT_TRUE(cache.contains(0x3000));
    timedAccess(f.engine, cache, 0x3000, true); // write around
    EXPECT_FALSE(cache.contains(0x3000));
    EXPECT_EQ(1u, f.stats.counter("c.write_throughs").value());
    EXPECT_EQ(1u, f.stats.counter("d.writes").value());
}

TEST(BankRouter, RoutesByInterleaving)
{
    BankRouter router(2, 128, 16);
    EXPECT_EQ(0u, router.bankFor(0));
    EXPECT_EQ(0u, router.bankFor(127));
    EXPECT_EQ(1u, router.bankFor(128));
    EXPECT_EQ(1u, router.bankFor(160));
    EXPECT_EQ(0u, router.bankFor(256));

    // 16 B/cycle: a 32 B access holds the ingress port for 2 cycles, so
    // back-to-back arrivals serialise and a later one starts on time.
    EXPECT_EQ(10u, router.arbitrate(10, 32));
    EXPECT_EQ(12u, router.arbitrate(10, 32));
    EXPECT_EQ(14u, router.arbitrate(11, 32));
    EXPECT_EQ(30u, router.arbitrate(30, 32));
    EXPECT_EQ(32u, router.portBusy());
}

TEST(Hierarchy, RoundTripLatenciesMatchTable2)
{
    // L1 hit 60, L2 hit 112, DRAM 146 (MGPUSim defaults).
    HierFixture f(GpuConfig::r9Nano());
    EXPECT_NEAR(146.0, static_cast<double>(f.roundTrip(0, 0x100000)),
                4.0);
    EXPECT_NEAR(60.0, static_cast<double>(f.roundTrip(0, 0x100000)),
                2.0);
    // A different SA misses its own L1 but hits the shared L2.
    EXPECT_NEAR(112.0, static_cast<double>(f.roundTrip(1, 0x100000)),
                3.0);
}

TEST(Hierarchy, MaskPathUsesTheZeroCaches)
{
    HierFixture f(GpuConfig::lazyGpu());
    MemoryHierarchy &hier = f.hier;
    ASSERT_TRUE(hier.hasZeroCaches());

    Addr ma = GlobalMemory::maskAddr(0x200000);
    EXPECT_FALSE(hier.maskResidentInL1(0, ma));
    f.inWindow(0, [&]() {
        hier.accessMask(0, ma & ~Addr(31), false, nullptr);
    });
    EXPECT_TRUE(hier.maskResidentInL1(0, ma));
    EXPECT_FALSE(hier.maskResidentInL1(1, ma)); // per-SA L1 Zero Caches
    EXPECT_EQ(1u, f.stats.sumCounters("mem.zl1.", ".misses"));
    EXPECT_EQ(0u, f.stats.sumCounters("mem.l1.", ".misses"));
}

TEST(HierarchyDeath, MaskAccessWithoutZeroCachesPanics)
{
    HierFixture f(GpuConfig::r9Nano());
    MemoryHierarchy &hier = f.hier;
    EXPECT_DEATH(hier.accessMask(0, GlobalMemory::maskBase, false,
                                 nullptr),
                 "Zero Caches");
}

} // namespace
} // namespace lazygpu
