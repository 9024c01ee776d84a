/**
 * @file
 * GPU configuration: Table 2 (R9 Nano / LazyGPU) and Table 4 (zero-cache
 * partitionings).
 *
 * All sizes are bytes, all latencies core cycles (1 GHz). The defaults
 * reproduce the paper's simulated R9 Nano; helper factories produce the
 * LazyGPU variants and the Table 4 ablation points. A scale factor shrinks
 * the machine uniformly so benches run in seconds on one host core; the
 * demand/resource ratios that drive congestion are preserved.
 */

#ifndef LAZYGPU_SIM_CONFIG_HH
#define LAZYGPU_SIM_CONFIG_HH

#include <cstdint>
#include <string>

#include "core/exec_mode.hh"
#include "sim/types.hh"

namespace lazygpu
{

/** Parameters of one cache level (normal or zero cache). */
struct CacheParams
{
    std::uint64_t size = 0;         //!< total bytes per instance
    unsigned assoc = 4;             //!< ways
    unsigned lineSize = 64;         //!< bytes
    unsigned mshrs = 32;            //!< outstanding misses
    unsigned bytesPerCycle = 128;   //!< port throughput
    Tick latency = 1;               //!< added round-trip cycles at this hop
};

/** Full machine configuration. */
struct GpuConfig
{
    ExecMode mode = ExecMode::Baseline;

    // --- Core organization (Table 2) -----------------------------------
    unsigned numShaderArrays = 16;  //!< SAs per GPU
    unsigned cusPerSa = 4;          //!< compute units per SA
    unsigned simdPerCu = 4;         //!< SIMD units per CU
    unsigned maxWavesPerSimd = 10;  //!< architectural occupancy limit
    unsigned vregsPerSimd = 256;    //!< 64 KiB GPRs / (64 lanes x 4 B)
    Tick aluLatency = 4;            //!< pipelined VALU result latency
    Tick lsuPipeLatency = 8;        //!< address gen + coalescing pipeline

    // --- Memory hierarchy (Table 2) -------------------------------------
    CacheParams l1;                 //!< one per shader array
    CacheParams l1Zero;             //!< one per shader array
    unsigned l2Banks = 8;           //!< banked memory-side L2
    CacheParams l2;                 //!< per bank
    CacheParams l2Zero;             //!< per bank
    unsigned interleave = 128;      //!< L2 bank interleaving in bytes
    Tick dramLatency = 34;          //!< added beyond an L2 hit (146 total)
    unsigned dramBytesPerCycle = 32; //!< per channel (256 GB/s / 8 ch)
    unsigned dramQueueDepth = 64;   //!< per-channel FCFS buffer

    // Round-trip targets (MGPUSim defaults): L1 hit 60, L2 hit 112,
    // DRAM 146. Encoded as incremental hop latencies below.
    Tick l1HitLatency = 60;
    Tick l2HopLatency = 52;         //!< extra cycles for an L1 miss, L2 hit
    /**
     * L1 Zero Cache hit latency. The Zero Caches are small and sit next
     * to the Lazy Unit; they are "designed for fast responses" (Sec 2),
     * unlike the far larger banked L1 vector caches.
     */
    Tick zcacheHitLatency = 8;

    std::string name = "r9nano";

    /** Attach the trace sink (timeline records for every CU/cache). */
    bool enableTraces = false;

    /**
     * Where the binary trace is written (see obs/trace.hh for the file
     * format; bench/trace_export converts to Perfetto JSON). Empty with
     * enableTraces set keeps the records in memory (Gpu::trace()).
     */
    std::string tracePath;

    /** Print the hierarchical stats report to stderr after each run. */
    bool statsReport = false;

    /**
     * Dump the full StatsRegistry as JSON to this path after each run
     * (--stats-json). Deterministic key order, tmp+rename write. Purely
     * observational — never part of the config name.
     */
    std::string statsJsonPath;

    /**
     * Per-CU cycle accounting (CPI stacks, DESIGN.md §16): classify
     * every CU cycle into exclusive stall buckets maintained
     * incrementally in the CU hot path (trace-sink pattern: one
     * predicted branch per site when off). Deterministic — buckets are
     * pure tick arithmetic — so enabling it never perturbs simulated
     * results, and bucket totals are byte-identical across --jobs and
     * --sa-threads. Never part of the config name.
     */
    bool cycleAccounting = false;

    /**
     * Interval sampler period in ticks for cycle accounting: at the
     * first window barrier after every N cycles the Gpu snapshots the
     * GPU-wide bucket totals plus key elimination counters into
     * TimeSeries stats (and, when tracing, StatSample trace records for
     * Perfetto counter tracks). 0 disables sampling.
     */
    Tick cycacctSampleTicks = 4096;

    /**
     * Host-side phase profiler for the DomainScheduler: accumulate wall
     * time per scheduler phase (SA windows, bank windows,
     * coordinator-serial barrier work, barrier waits).
     * Reported by perf_engine into BENCH_perf.json sa_parallel; wall
     * times are host-dependent and never enter BENCH artifacts from
     * figure benches. Never part of the config name.
     */
    bool profileScheduler = false;

    /**
     * Fault injection for the differential checker's self-test: a
     * (2)-suspended lane is NOT requalified to Pending when a non-otimes
     * consumer reads it, so the consumer wrongly observes zero instead of
     * triggering the deferred load. src/verif must flag this in LazyGPU
     * mode; never set outside verification.
     */
    bool injectSkipSuspendRequalify = false;

    /**
     * Structured hardware fault injection (--inject-plan): the textual
     * form of one inject::InjectionPlan, parsed and armed by the Gpu at
     * construction. Empty (the default) builds no injector at all, so
     * every hook collapses to one predicted null-pointer branch. Never
     * part of the config name: a fault is an experiment on a
     * configuration, not a configuration.
     */
    std::string injectPlan;

    /** timingWaves value meaning "no sampling: every wave is timed". */
    static constexpr unsigned timingWavesAll = ~0u;

    /**
     * Multi-resolution sampling window (--timing-waves): the first
     * timingWaves wavefronts of each kernel run through the detailed
     * timing pipeline; the rest are interpreted by the functional
     * RabbitExecutor with full sparsity accounting. Timing-only stats
     * (cycles, memory traffic, SIMD busy cycles) are linearly
     * extrapolated from the timed window. timingWavesAll (the default)
     * disables sampling entirely; 0 runs everything in rabbit mode.
     */
    unsigned timingWaves = timingWavesAll;

    /**
     * Intra-GPU parallel simulation (--sa-threads): the worker threads
     * executing the Gpu's event domains (one per shader array plus one
     * per L2 bank, synchronized by conservative lookahead windows of
     * l2HopLatency cycles; DESIGN.md §13). 0 and 1 both run every
     * domain inline on the calling thread. The schedule is
     * deterministic and thread-count-independent: identical statistics
     * for any value. Traced runs (enableTraces) always use one thread.
     * Never part of the config name: the knob must not change which
     * artifact a sweep writes.
     */
    unsigned saThreads = 0;

    unsigned numCus() const { return numShaderArrays * cusPerSa; }
    unsigned maxWavesPerCu() const { return simdPerCu * maxWavesPerSimd; }

    /**
     * Maximum resident wavefronts per CU for a kernel using n_vregs
     * vector registers (register-usage-limited occupancy, Sec 3).
     */
    unsigned wavesPerCuForKernel(unsigned n_vregs) const;

    /** The paper's baseline R9 Nano (Table 2, left column). */
    static GpuConfig r9Nano();

    /**
     * The LazyGPU configuration (Table 2, right column): 1/8 of L1 and
     * 1/8 of L2 capacity repurposed as Zero Caches.
     */
    static GpuConfig lazyGpu(ExecMode mode = ExecMode::LazyGPU);

    /**
     * A Table 4 ablation point: l1_frac / l2_frac of each level
     * repurposed as Zero Caches (e.g. 8 -> 1/8 of the level).
     */
    static GpuConfig withZeroCacheSplit(unsigned l1_frac, unsigned l2_frac,
                                        ExecMode mode = ExecMode::LazyGPU);

    /**
     * Uniformly shrink the machine by factor (SA count and L2 banks) for
     * fast benches; demand must be scaled by the caller too.
     */
    GpuConfig scaled(unsigned factor) const;
};

} // namespace lazygpu

#endif // LAZYGPU_SIM_CONFIG_HH
