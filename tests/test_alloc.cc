/**
 * @file
 * Heap-allocation regression tests: a machine-independent proxy for the
 * Lazy Unit's host cost. This binary replaces the global operator new
 * to count every allocation, so it is built on its own and only without
 * sanitizers (which install their own allocator).
 *
 * The cell is one LazyGPU GEMM layer of ResNet-18 at the benchmark's
 * shape (channels /8, spatial /2, 50% pruned weights, 4 CUs); its
 * weight loads are broadcasts that put 32-64 words on one transaction.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "gpu/gpu.hh"
#include "gpu/rabbit.hh"
#include "workloads/resnet18.hh"

namespace
{

std::atomic<std::uint64_t> g_allocs{0};

} // namespace

void *
operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *operator new[](std::size_t n) { return operator new(n); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace lazygpu
{
namespace
{

std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

/** The benchmark's ResNet-18 shape: channels /8, spatial /2. */
const Resnet18 &
net()
{
    static const Resnet18 n = [] {
        Resnet18::Params rp;
        rp.weightSparsity = 0.5;
        rp.channelDiv = 8;
        rp.spatialDiv = 2;
        rp.seed = 42;
        return Resnet18(rp);
    }();
    return n;
}

/** conv2_1_1: a 3x3 convolution as a GEMM with broadcast weight loads
 *  (98 waves, 9310 load instructions). */
constexpr unsigned gemmLayer = 2;

GpuConfig
cellConfig()
{
    return GpuConfig::lazyGpu(ExecMode::LazyGPU).scaled(16); // 4 CUs
}

struct CellCount
{
    std::uint64_t runAllocs = 0; //!< allocations inside Gpu::run
    std::uint64_t loadInsts = 0;
};

CellCount
runCell()
{
    Workload w = net().layerWorkload(gemmLayer, false);
    Gpu gpu(cellConfig(), *w.mem);
    CellCount c;
    const std::uint64_t before = allocs();
    for (const Kernel &k : w.kernels)
        gpu.run(k);
    c.runAllocs = allocs() - before;
    c.loadInsts = gpu.stats().sumCounters("gpu.", ".load_insts");
    EXPECT_EQ("", w.verify ? w.verify(*w.mem) : std::string());
    return c;
}

TEST(Allocations, LazyUnitPathsAllocateNothingPerLoad)
{
    // The functional executor runs every Lazy Unit path the timed CU
    // runs (record, mask probe and zero-mask resolve, issue, fill,
    // suspension, elimination, retire) with no memory hierarchy in
    // between. Once one wave has warmed the unit's pools, a wave costs
    // only its own register file, however many loads it records.
    Workload w = net().layerWorkload(gemmLayer, false);
    StatsRegistry stats;
    RabbitExecutor rabbit(cellConfig(), *w.mem, stats, nullptr);
    const Kernel &k = w.kernels.front();
    rabbit.beginKernel();
    rabbit.run(k, 0);

    const unsigned waves = std::min(k.numWavefronts, 17u) - 1;
    ASSERT_GT(waves, 0u);
    const std::uint64_t loads0 = stats.counter("gpu.rabbit.load_insts")
                                     .value();
    const std::uint64_t before = allocs();
    for (unsigned wid = 1; wid <= waves; ++wid)
        rabbit.run(k, wid);
    const std::uint64_t per_wave = (allocs() - before) / waves;
    const std::uint64_t loads =
        stats.counter("gpu.rabbit.load_insts").value() - loads0;
    ASSERT_GT(loads, 8u * waves) << "the cell should be load-heavy";

    // A Wavefront allocates its scalar file, five per-register rows and
    // the slot store: a fixed count, independent of the loads.
    EXPECT_LE(per_wave, 12u) << loads / waves << " loads per wave";
}

TEST(Allocations, GemmCellTotalIsPinned)
{
    runCell(); // warm the process: allocator, static tables
    const CellCount c = runCell();
    ASSERT_GT(c.loadInsts, 0u);
    // What remains is per wave (the Wavefront, its value rows,
    // scoreboard records, scalar file and slot store) and the pools
    // warming to their peak (event records, boundary crossings, pending
    // loads a chunk at a time, MSHR waiter nodes, parked-request rings),
    // not per load or per miss: the Lazy Unit's record, fill, zero-mask
    // and response paths and the caches' MSHR, stall and write-allocate
    // paths allocate nothing once warm. Pinned for libstdc++ (GCC 12): a
    // rise means a per-load or per-miss allocation came back; re-pin
    // only deliberately.
    EXPECT_LE(c.runAllocs, 2327u) << c.loadInsts << " load instructions";
}

} // namespace
} // namespace lazygpu
