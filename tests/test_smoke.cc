/**
 * @file
 * End-to-end smoke tests: a simple elementwise-multiply kernel must
 * produce identical functional results under every execution mode, and
 * the timing must be sane.
 */

#include <gtest/gtest.h>

#include "gpu/gpu.hh"
#include "isa/kernel.hh"
#include "mem/memory.hh"
#include "sim/config.hh"
#include "sim/rng.hh"

namespace lazygpu
{
namespace
{

struct MulSetup
{
    GlobalMemory mem;
    Addr a, b, c;
    unsigned n;
    Kernel kernel;
};

/** c[i] = a[i] * b[i] for n = waves * 64 elements. */
MulSetup
makeMulWorkload(unsigned waves, double sparsity, std::uint64_t seed = 1)
{
    MulSetup s;
    s.n = waves * wavefrontSize;
    s.a = s.mem.alloc(4ull * s.n);
    s.b = s.mem.alloc(4ull * s.n);
    s.c = s.mem.alloc(4ull * s.n);

    Rng rng(seed);
    for (unsigned i = 0; i < s.n; ++i) {
        float av = rng.chance(sparsity) ? 0.0f : rng.range(0.5f, 2.0f);
        float bv = rng.chance(sparsity) ? 0.0f : rng.range(0.5f, 2.0f);
        s.mem.writeF32(s.a + 4ull * i, av);
        s.mem.writeF32(s.b + 4ull * i, bv);
    }

    KernelBuilder kb("mul");
    // v0 = tid, v1 = byte offset, v2 = a[i], v3 = b[i], v4 = product
    kb.threadId(0);
    kb.valu(Opcode::VShlU32, 1, Src::vreg(0), Src::imm(2));
    kb.load(Opcode::LoadDword, 2, 1, s.a);
    kb.load(Opcode::LoadDword, 3, 1, s.b);
    kb.valu(Opcode::VMulF32, 4, Src::vreg(2), Src::vreg(3));
    kb.store(Opcode::StoreDword, 1, 4, s.c);
    s.kernel = kb.build(waves);
    return s;
}

class SmokeAllModes : public ::testing::TestWithParam<ExecMode>
{
};

TEST_P(SmokeAllModes, MulKernelIsFunctionallyCorrect)
{
    const ExecMode mode = GetParam();
    MulSetup s = makeMulWorkload(8, 0.4);
    GpuConfig cfg = mode == ExecMode::Baseline
                        ? GpuConfig::r9Nano()
                        : GpuConfig::lazyGpu(mode);
    cfg = cfg.scaled(8); // 2 SAs, 8 CUs: plenty for 8 wavefronts
    Gpu gpu(cfg, s.mem);

    KernelResult res = gpu.run(s.kernel);
    EXPECT_GT(res.cycles, 0u);

    for (unsigned i = 0; i < s.n; ++i) {
        float expect = s.mem.readF32(s.a + 4ull * i) *
                       s.mem.readF32(s.b + 4ull * i);
        EXPECT_FLOAT_EQ(expect, s.mem.readF32(s.c + 4ull * i))
            << "element " << i << " mode " << toString(mode);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, SmokeAllModes,
    ::testing::Values(ExecMode::Baseline, ExecMode::LazyCore,
                      ExecMode::LazyZC, ExecMode::LazyGPU,
                      ExecMode::EagerZC),
    [](const ::testing::TestParamInfo<ExecMode> &info) {
        std::string name = toString(info.param);
        for (char &c : name) {
            if (c == '+')
                c = '_';
        }
        return name;
    });

TEST(Smoke, SparseWorkloadEliminatesRequestsOnLazyGpu)
{
    MulSetup s = makeMulWorkload(32, 0.9, 7);
    GpuConfig cfg = GpuConfig::lazyGpu().scaled(8);
    Gpu gpu(cfg, s.mem);
    gpu.run(s.kernel);

    const auto &st = gpu.stats();
    EXPECT_GT(st.sumCounters("gpu.", ".lanes_zeroed"), 0u);
    EXPECT_GT(st.sumCounters("gpu.", ".txs_elim_zero") +
                  st.sumCounters("gpu.", ".txs_elim_otimes"),
              0u);
}

TEST(Smoke, LazyIsNoSlowerThanBaselineOnDenseMul)
{
    // Laziness must not catastrophically regress a trivially dense
    // kernel; allow generous slack since it adds use-time latency.
    MulSetup s1 = makeMulWorkload(64, 0.0);
    GpuConfig base = GpuConfig::r9Nano().scaled(8);
    Gpu g1(base, s1.mem);
    Tick t_base = g1.run(s1.kernel).cycles;

    MulSetup s2 = makeMulWorkload(64, 0.0);
    GpuConfig lazy = GpuConfig::lazyGpu(ExecMode::LazyCore).scaled(8);
    Gpu g2(lazy, s2.mem);
    Tick t_lazy = g2.run(s2.kernel).cycles;

    EXPECT_LT(t_lazy, 3 * t_base);
    EXPECT_LT(t_base, 3 * t_lazy);
}

TEST(WavePick, EqualDispatchTicksIssueOldestFirst)
{
    // Four waves dispatched in the same tick share one SIMD. The pick
    // is greedy-oldest: among the eligible waves the one dispatched
    // first (the lowest wid here) issues, so wave 0 runs its VALU chain
    // back to back and retires before wave 1 starts its second
    // instruction. Each wave's last issue slot is pinned.
    GlobalMemory mem;
    KernelBuilder kb("valu_chain");
    kb.threadId(0);
    for (unsigned i = 0; i < 5; ++i)
        kb.valu(Opcode::VShlU32, 1, Src::vreg(0), Src::imm(1));
    const Kernel kernel = kb.build(4);

    GpuConfig cfg = GpuConfig::r9Nano();
    cfg.numShaderArrays = 1;
    cfg.cusPerSa = 1;
    cfg.simdPerCu = 1;
    cfg.l2Banks = 1;
    Gpu gpu(cfg, mem);
    std::vector<std::pair<unsigned, Tick>> retired;
    gpu.setRetireObserver([&retired](const Wavefront &w) {
        retired.emplace_back(w.wid(), w.nextIssue);
    });
    gpu.run(kernel);
    const std::vector<std::pair<unsigned, Tick>> want = {
        {0, 24}, {1, 49}, {2, 74}, {3, 99}};
    EXPECT_EQ(want, retired);
}

} // namespace
} // namespace lazygpu
