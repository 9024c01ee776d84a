/**
 * @file
 * Tier-1 determinism suite for the domain schedule's thread count
 * (--sa-threads).
 *
 * The scheduler's contract is that the logical event schedule depends
 * only on the domain decomposition, never on the worker-thread count:
 * the full stats dump (every counter, distribution and histogram
 * digit) must be byte-identical for any --sa-threads value. These tests
 * pin that contract for all five execution modes and for the
 * observational features that run at window barriers (the interval
 * sampler) or force one thread (traces), and replay the committed
 * verif corpus on several domain threads to cross-check the parallel
 * execution against the untimed reference executor. The schedule's
 * own golden rows live in test_golden_stats.cc.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/exec_mode.hh"
#include "gpu/gpu.hh"
#include "sim/config.hh"
#include "verif/differential.hh"
#include "verif/kernel_gen.hh"
#include "workloads/common.hh"
#include "workloads/suite.hh"

namespace lazygpu
{
namespace
{

std::string
sanitizedModeName(ExecMode mode)
{
    std::string name = toString(mode);
    for (char &c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return name;
}

GpuConfig
shardedConfig(ExecMode mode, unsigned sa_threads)
{
    // scaled(4) keeps 4 shader arrays and 2 L2 banks, so thread counts
    // below, at and above the domain count are all exercised.
    GpuConfig cfg = hasZeroCaches(mode) ? GpuConfig::lazyGpu(mode).scaled(4)
                                        : GpuConfig::r9Nano().scaled(4);
    cfg.mode = mode;
    cfg.saThreads = sa_threads;
    return cfg;
}

/** Run the small MM cell and capture the full stats dump. */
std::string
runShardedMM(ExecMode mode, double sparsity, unsigned sa_threads,
             Tick &cycles)
{
    WorkloadParams p;
    p.sparsity = sparsity;
    p.scale = 16;
    Workload w = makeMM(p);

    const GpuConfig cfg = shardedConfig(mode, sa_threads);
    Gpu gpu(cfg, *w.mem);
    cycles = 0;
    for (const Kernel &k : w.kernels)
        cycles += gpu.run(k).cycles;
    EXPECT_EQ("", w.verify(*w.mem))
        << toString(mode) << " --sa-threads " << sa_threads;
    return gpu.stats().dump();
}

class SaParallelDeterminism : public ::testing::TestWithParam<ExecMode>
{
};

// The tentpole acceptance test: for every execution mode, the stats
// dump -- and therefore any BENCH_*.json derived from it -- is
// byte-identical whether the domains run on 1, 2 or 8 worker threads.
TEST_P(SaParallelDeterminism, DumpByteIdenticalAcrossThreadCounts)
{
    const ExecMode mode = GetParam();
    const double sparsity = hasZeroCaches(mode) ? 0.5 : 0.0;

    Tick cycles1 = 0, cycles2 = 0, cycles8 = 0;
    const std::string dump1 = runShardedMM(mode, sparsity, 1, cycles1);
    const std::string dump2 = runShardedMM(mode, sparsity, 2, cycles2);
    const std::string dump8 = runShardedMM(mode, sparsity, 8, cycles8);

    EXPECT_EQ(cycles1, cycles2);
    EXPECT_EQ(cycles1, cycles8);
    EXPECT_EQ(dump1, dump2);
    EXPECT_EQ(dump1, dump8);
    EXPECT_NE(std::string::npos, dump1.find("gpu.sa0.cu0."))
        << "dump lost its per-CU counters; the comparison above would "
           "be vacuous";
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, SaParallelDeterminism,
    ::testing::Values(ExecMode::Baseline, ExecMode::LazyCore,
                      ExecMode::LazyZC, ExecMode::LazyGPU,
                      ExecMode::EagerZC),
    [](const ::testing::TestParamInfo<ExecMode> &info) {
        return sanitizedModeName(info.param);
    });

/** A traced, sampled MM run: the stats dump and every trace record. */
std::string
runObservedMM(unsigned sa_threads, bool traces)
{
    WorkloadParams p;
    p.sparsity = 0.5;
    p.scale = 16;
    Workload w = makeMM(p);
    GpuConfig cfg = shardedConfig(ExecMode::LazyGPU, sa_threads);
    cfg.cycleAccounting = true;
    cfg.cycacctSampleTicks = 256;
    cfg.enableTraces = traces; // empty tracePath: in-memory sink
    Gpu gpu(cfg, *w.mem);
    for (const Kernel &k : w.kernels)
        gpu.run(k);
    const auto &series = gpu.stats().allSeries();
    EXPECT_TRUE(series.count("cyc.busy") &&
                !series.at("cyc.busy").points().empty())
        << "the interval sampler took no samples";
    std::string out = gpu.stats().dump();
    if (traces) {
        for (const TraceRecord &r : gpu.trace()->records()) {
            out += std::to_string(r.kind) + ' ' + std::to_string(r.track) +
                   ' ' + std::to_string(r.tick) + ' ' +
                   std::to_string(r.id) + ' ' + std::to_string(r.arg) +
                   '\n';
        }
    }
    return out;
}

// The interval sampler fires at window barriers and traces run the
// domains on one thread: neither the sampled series nor the trace may
// depend on the requested thread count.
TEST(SaParallel, SamplerAndTraceByteIdenticalAcrossThreadCounts)
{
    const std::string sampled1 = runObservedMM(1, false);
    EXPECT_EQ(sampled1, runObservedMM(2, false));
    EXPECT_EQ(sampled1, runObservedMM(8, false));

    const std::string traced1 = runObservedMM(1, true);
    EXPECT_EQ(traced1, runObservedMM(2, true));
    EXPECT_EQ(traced1, runObservedMM(8, true));
}

// Replay the committed verif corpus on two domain threads: the timed
// simulation must still match the untimed reference word-for-word in
// every mode.
TEST(SaParallel, CorpusReplayOnShardedEngine)
{
    const auto files = verif::listCorpusFiles(LAZYGPU_CORPUS_DIR);
    ASSERT_FALSE(files.empty())
        << "no *.case files under " LAZYGPU_CORPUS_DIR;

    verif::DiffOptions opt;
    opt.saThreads = 2;
    for (const std::string &path : files) {
        const verif::CorpusCase cc = verif::loadCorpusFile(path);
        const verif::GeneratedCase probe = verif::generateCase(cc.opt);
        const verif::GeneratedCase c = verif::generateCase(
            cc.opt, verif::enabledMask(cc, probe.numActions));
        const verif::DiffReport rep = verif::runDifferential(c, opt);
        EXPECT_TRUE(rep.ok())
            << path << " (" << c.summary << ") under --sa-threads 2\n  "
            << rep.firstDivergence();
    }
}

} // namespace
} // namespace lazygpu
