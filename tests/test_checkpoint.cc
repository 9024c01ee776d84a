/**
 * @file
 * Deterministic checkpoint/restore: a run resumed from a mid-workload
 * checkpoint must be byte-identical to the straight-through run — the
 * property the fault campaign's fork-at-injection-cycle protocol rests
 * on. Pinned by comparing the two runs' *final checkpoint images*
 * byte-for-byte (memory, caches, stats and every domain engine's state
 * all serialize), across domain-thread counts, plus the guard fatals
 * for images that cannot be restored.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "gpu/gpu.hh"
#include "sim/sim_error.hh"
#include "workloads/suite.hh"

namespace lazygpu
{
namespace
{

WorkloadParams
ckptParams()
{
    WorkloadParams p;
    p.sparsity = 0.5;
    p.scale = 16;
    return p;
}

/** 4 shader arrays and 2 L2 banks: six event domains. */
GpuConfig
ckptCfg(unsigned sa_threads = 0)
{
    GpuConfig cfg = GpuConfig::lazyGpu(ExecMode::LazyGPU).scaled(4);
    cfg.saThreads = sa_threads;
    return cfg;
}

TEST(Checkpoint, ResumeIsByteIdenticalToStraightThrough)
{
    // FFT: one kernel per butterfly stage, so a checkpoint taken after
    // stage 0 restores real in-flight workload state (stage outputs in
    // memory, warm caches, advanced engine clock).
    const WorkloadParams p = ckptParams();
    Workload straight = makeFFT(p);
    ASSERT_GE(straight.kernels.size(), 2u);

    std::vector<std::uint8_t> mid, final_straight;
    std::uint64_t hash_straight = 0;
    Tick cycles_straight = 0;
    {
        Gpu gpu(ckptCfg(), *straight.mem);
        for (std::size_t k = 0; k < straight.kernels.size(); ++k) {
            if (k == 1)
                gpu.saveCheckpoint(mid);
            gpu.run(straight.kernels[k]);
        }
        gpu.saveCheckpoint(final_straight);
        hash_straight = straight.mem->contentHash();
        cycles_straight = gpu.domains()->now();
    }
    ASSERT_FALSE(mid.empty());

    // Fresh GPU + fresh workload image, restored from the stage-0
    // checkpoint, runs the remaining stages.
    Workload resumed = makeFFT(p);
    std::vector<std::uint8_t> final_resumed;
    {
        Gpu gpu(ckptCfg(), *resumed.mem);
        gpu.restoreCheckpoint(mid);
        for (std::size_t k = 1; k < resumed.kernels.size(); ++k)
            gpu.run(resumed.kernels[k]);
        gpu.saveCheckpoint(final_resumed);
        EXPECT_EQ(cycles_straight, gpu.domains()->now());
    }
    EXPECT_EQ(hash_straight, resumed.mem->contentHash());
    // The cmp: every serialized byte of final state matches.
    ASSERT_EQ(final_straight.size(), final_resumed.size());
    EXPECT_TRUE(final_straight == final_resumed);

    // The functional reference agrees with the resumed run's output.
    if (resumed.verify) {
        EXPECT_EQ("", resumed.verify(*resumed.mem));
    }
}

TEST(Checkpoint, RestoreRequiresAFreshGpu)
{
    const RecoverableScope scope;
    const WorkloadParams p = ckptParams();
    Workload w = makeFFT(p);
    std::vector<std::uint8_t> ckpt;
    {
        Gpu gpu(ckptCfg(), *w.mem);
        gpu.saveCheckpoint(ckpt);
        gpu.run(w.kernels[0]);
        // now() > 0: the engine already has history to contradict.
        EXPECT_THROW(gpu.restoreCheckpoint(ckpt), SimError);
    }
}

TEST(Checkpoint, ResumeIsByteIdenticalAcrossDomainThreads)
{
    // Checkpoint after FFT stage 0 on one domain thread, resume on one
    // and on two: every final image must match the straight run, and the
    // mid-run images must not depend on the thread count either.
    const WorkloadParams p = ckptParams();
    const GpuConfig cfg = ckptCfg(1);
    ASSERT_EQ(4u, cfg.numShaderArrays);
    ASSERT_EQ(2u, cfg.l2Banks);

    std::vector<std::uint8_t> mid1, final_straight;
    {
        Workload w = makeFFT(p);
        Gpu gpu(cfg, *w.mem);
        for (std::size_t k = 0; k < w.kernels.size(); ++k) {
            if (k == 1)
                gpu.saveCheckpoint(mid1);
            gpu.run(w.kernels[k]);
        }
        gpu.saveCheckpoint(final_straight);
    }
    for (unsigned threads : {1u, 2u}) {
        std::vector<std::uint8_t> mid, final_resumed;
        {
            Workload w = makeFFT(p);
            Gpu gpu(ckptCfg(threads), *w.mem);
            gpu.run(w.kernels[0]);
            gpu.saveCheckpoint(mid);
        }
        EXPECT_TRUE(mid == mid1) << "--sa-threads " << threads;
        {
            Workload w = makeFFT(p);
            Gpu gpu(ckptCfg(threads), *w.mem);
            gpu.restoreCheckpoint(mid1);
            for (std::size_t k = 1; k < w.kernels.size(); ++k)
                gpu.run(w.kernels[k]);
            gpu.saveCheckpoint(final_resumed);
            if (w.verify) {
                EXPECT_EQ("", w.verify(*w.mem));
            }
        }
        ASSERT_EQ(final_straight.size(), final_resumed.size());
        EXPECT_TRUE(final_straight == final_resumed)
            << "--sa-threads " << threads;
    }
}

TEST(Checkpoint, TruncatedOrCorruptImageIsRejected)
{
    const RecoverableScope scope;
    const WorkloadParams p = ckptParams();
    Workload w = makeFFT(p);
    std::vector<std::uint8_t> ckpt;
    {
        Gpu gpu(ckptCfg(), *w.mem);
        gpu.saveCheckpoint(ckpt);
    }
    ASSERT_GT(ckpt.size(), 16u);

    {
        Workload v = makeFFT(p);
        Gpu gpu(ckptCfg(), *v.mem);
        std::vector<std::uint8_t> truncated(ckpt.begin(),
                                            ckpt.end() - 9);
        EXPECT_THROW(gpu.restoreCheckpoint(truncated), SimError);
    }
    {
        Workload v = makeFFT(p);
        Gpu gpu(ckptCfg(), *v.mem);
        std::vector<std::uint8_t> bad_tag = ckpt;
        bad_tag[0] ^= 0xff; // "LZGC" becomes something else
        EXPECT_THROW(gpu.restoreCheckpoint(bad_tag), SimError);
    }
}

} // namespace
} // namespace lazygpu
