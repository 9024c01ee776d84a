/**
 * @file
 * Shared command-line handling for the figure bench binaries.
 *
 * Every bench accepts `--jobs N` (worker threads for its simulation
 * grid; `--jobs 0` or omitting the flag defers to the LAZYGPU_JOBS env
 * var, then to hardware concurrency) plus the fault-tolerance flags
 * below, which map onto ParallelRunner's SweepOptions:
 *
 *   --timeout S      cancel any grid cell running longer than S seconds
 *                    (wall clock); reported as status "timeout"
 *   --stall S        cancel a cell whose engine makes no progress for
 *                    S seconds
 *   --keep-going     record failed cells and finish the sweep instead
 *                    of exiting on the first failure
 *   --resume         replay Ok cells from the sweep journal and re-run
 *                    only missing/failed ones
 *   --journal PATH   journal location (default
 *                    BENCH_<name>.journal.jsonl)
 *   --crash-dir DIR  crash-report directory (default crash-reports)
 *   --inject-panic KEY / --inject-livelock KEY
 *                    fault injection for the CI smoke job: force the
 *                    named cell to panic / spin forever
 *   --progress       periodic stderr line: cells done/total and an ETA
 *   --report         print each cell's hierarchical stats report to
 *                    stderr after it runs
 *   --trace FILE     write one cell's binary timeline trace to FILE
 *                    (convert with trace_export; tracing never changes
 *                    simulated results)
 *   --trace-cell KEY which cell --trace records (default: the first
 *                    cell of the first sweep)
 *   --stats-json FILE
 *                    dump one cell's full StatsRegistry as JSON to FILE
 *                    (deterministic key order, tmp+rename write; purely
 *                    observational)
 *   --stats-cell KEY which cell --stats-json dumps (default: the first
 *                    cell of the first sweep)
 *   --timing-waves N multi-resolution sampling: the first N wavefronts
 *                    of each kernel run in detailed timing, the rest in
 *                    the fast functional rabbit executor with exact
 *                    sparsity accounting and extrapolated timing stats;
 *                    'all' (the default) disables sampling
 *   --sa-threads N   intra-GPU parallel simulation: run every cell's
 *                    per-shader-array and per-L2-bank event domains on
 *                    N threads (0 or 1, the default, runs them inline
 *                    on the calling thread; falls back to the
 *                    LAZYGPU_SA_THREADS env var). Results are identical
 *                    for any N; composed with --jobs > 1 the value is
 *                    clamped to hardware_concurrency / jobs
 *
 * Remaining arguments are returned positionally for bench-specific
 * knobs (`--quick`, wave counts, ...). Printed tables and JSON
 * artifacts are byte-identical for any job count.
 */

#ifndef LAZYGPU_BENCH_BENCH_MAIN_HH
#define LAZYGPU_BENCH_BENCH_MAIN_HH

#include <string>
#include <vector>

#include "analysis/parallel_runner.hh"

namespace lazygpu
{

struct BenchOptions
{
    /** Worker threads; 0 means auto (LAZYGPU_JOBS, else hardware). */
    unsigned jobs = 0;

    // Fault-tolerance knobs (see file comment).
    double timeoutSec = 0.0;
    double stallSec = 0.0;
    bool keepGoing = false;
    bool resume = false;
    std::string journalPath;
    std::string crashDir = "crash-reports";
    std::string injectPanicKey;
    std::string injectLivelockKey;

    // Observability knobs (see file comment).
    bool progress = false;
    bool statsReport = false;
    std::string tracePath;
    std::string traceCellKey;
    std::string statsJsonPath;
    std::string statsCellKey;

    /** --timing-waves sampling window; timingWavesAll disables it. */
    unsigned timingWaves = GpuConfig::timingWavesAll;

    /** --sa-threads domain threads per cell; 0 and 1 run them inline. */
    unsigned saThreads = 0;

    /** Arguments other than the shared flags, in order. */
    std::vector<std::string> args;

    /** The bench-specific argument at index i, or fallback. */
    std::string arg(std::size_t i, const std::string &fallback = "") const
    {
        return i < args.size() ? args[i] : fallback;
    }

    bool
    hasFlag(const std::string &flag) const
    {
        for (const std::string &a : args) {
            if (a == flag)
                return true;
        }
        return false;
    }

    /**
     * The value of a bench-specific value flag (`--flag V` or
     * `--flag=V`), or fallback when absent. The flag must be in the
     * allowlist passed to parseBenchOptions or parsing already failed.
     */
    std::string
    flagValue(const std::string &flag,
              const std::string &fallback = "") const
    {
        const std::string eq = flag + "=";
        for (std::size_t k = 0; k < args.size(); ++k) {
            if (args[k] == flag && k + 1 < args.size())
                return args[k + 1];
            if (args[k].rfind(eq, 0) == 0)
                return args[k].substr(eq.size());
        }
        return fallback;
    }

    /**
     * The SweepOptions these flags describe for the named bench: the
     * journal defaults to BENCH_<bench>.journal.jsonl, crash reports to
     * crash-reports/<bench>-<cell>.json.
     */
    SweepOptions sweepOptions(const std::string &bench) const;
};

/**
 * Parse argv, consuming the shared flags; fatal on a malformed value.
 *
 * Any `--flag` that is neither a shared flag nor listed in
 * `bench_flags` (each bench's own knobs, e.g. {"--quick", "--full"})
 * fails fast with a usage message naming both sets — a typo like
 * `--job 4` must not silently become a positional argument. Non-flag
 * arguments still pass through positionally via BenchOptions::args.
 */
BenchOptions
parseBenchOptions(int argc, char **argv,
                  const std::vector<std::string> &bench_flags = {});

} // namespace lazygpu

#endif // LAZYGPU_BENCH_BENCH_MAIN_HH
