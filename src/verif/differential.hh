/**
 * @file
 * Differential checker: run one kernel through the timed simulator in
 * each execution mode and compare the final architectural state against
 * the untimed reference executor.
 *
 * Two surfaces are compared per mode:
 *
 *  - the caller-listed global-memory regions, word by word;
 *  - every wavefront's scalar registers, plus each vector register lane
 *    that is architecturally *live* at retirement -- the scoreboard
 *    snapshot taken at retire() entry, before the Lazy Unit's dead-load
 *    elimination, marks a lane live iff its state is Ready. Lanes still
 *    Pending/Suspended/InFlight at retirement were never observed by any
 *    instruction (or fed only otimes operands with a zero counterpart),
 *    so the architecture never defines their values (see DESIGN.md §9).
 *
 * Words are compared modulo the sign of zero: optimization (2) reads a
 * suspended lane as +0 where the reference may hold -0, and for the op
 * pool generated kernels draw from (no VRcpF32) this is the only
 * observable difference IEEE 754 permits.
 *
 * The first divergence per mode is reported with full provenance: the
 * address or register, wavefront, lane, both values, and -- for memory --
 * the store instruction that produced the word in the reference run.
 */

#ifndef LAZYGPU_VERIF_DIFFERENTIAL_HH
#define LAZYGPU_VERIF_DIFFERENTIAL_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/exec_mode.hh"
#include "isa/kernel.hh"
#include "mem/memory.hh"
#include "sim/config.hh"
#include "sim/types.hh"
#include "verif/kernel_gen.hh"

namespace lazygpu
{
namespace verif
{

/** All five modes, in the paper's ablation order. */
const std::vector<ExecMode> &allModes();

struct DiffOptions
{
    /** Modes to check; empty = all five. */
    std::vector<ExecMode> modes;
    /**
     * Arm the optimization-(2) fault in GpuConfig
     * (injectSkipSuspendRequalify): the checker must then flag LazyGPU.
     */
    bool injectSuspendBug = false;
    /** Run the invariant checkers on every wavefront at retirement. */
    bool checkInvariants = true;
    /** Shrink factor for the simulated machine (fuzz throughput). */
    unsigned scale = 8;
    Tick limitCycles = 100'000'000ull;
    /**
     * Multi-resolution sampling window (GpuConfig::timingWaves): waves
     * beyond the window run through the rabbit executor, so a sampled
     * differential checks rabbit<->reference equivalence too.
     */
    unsigned timingWaves = GpuConfig::timingWavesAll;
    /**
     * Intra-GPU domain threads (GpuConfig::saThreads): N >= 2 runs the
     * timed simulations' event domains on N threads, so a corpus replay
     * cross-checks the parallel execution against the untimed
     * reference.
     */
    unsigned saThreads = 0;
};

/** Outcome of one mode's timed run vs the reference. */
struct ModeReport
{
    ExecMode mode = ExecMode::Baseline;
    bool diverged = false;
    std::string detail; //!< first divergence, fully attributed
};

struct DiffReport
{
    std::string refError; //!< reference executor failure, if any
    std::vector<ModeReport> modes;

    bool
    ok() const
    {
        if (!refError.empty())
            return false;
        for (const ModeReport &m : modes) {
            if (m.diverged)
                return false;
        }
        return true;
    }

    /** First failing mode's report ("" when everything matched). */
    std::string firstDivergence() const;
};

/**
 * Run kernel through every requested mode (fresh Gpu and memory copy
 * each) and compare against the reference execution of image.
 */
DiffReport runDifferential(
    const Kernel &kernel, const GlobalMemory &image,
    const std::vector<std::pair<Addr, std::uint64_t>> &check_regions,
    const DiffOptions &opt = {});

/** Convenience overload for generator output. */
DiffReport runDifferential(const GeneratedCase &c,
                           const DiffOptions &opt = {});

} // namespace verif
} // namespace lazygpu

#endif // LAZYGPU_VERIF_DIFFERENTIAL_HH
