/**
 * @file
 * ParallelRunner: execute a grid of independent simulations across a
 * thread pool, preserving submission order — and survive the cells
 * that fail.
 *
 * Every figure bench sweeps a (workload x mode x config) grid whose
 * points are embarrassingly parallel: each run builds a fresh Engine /
 * StatsRegistry / GlobalMemory via runWorkload, and all workload generation is
 * seeded through the per-instance Rng, so runs share no mutable state.
 * Because a Workload may only be run once (in-place kernels mutate their
 * inputs), jobs carry a *factory* and each worker materialises its own
 * instance.
 *
 * Fault isolation: workers run inside a RecoverableScope, so a panic()
 * or fatal() in one grid cell becomes a SimError recorded in that
 * cell's RunResult (status + error detail + crash report) instead of
 * process death. A watchdog thread cancels cells that exceed a
 * wall-clock budget or stop making engine progress (status Timeout).
 * Completed cells are journaled to a JSON-lines file as they finish;
 * `resume` restores the Ok cells from the journal and re-runs only the
 * missing/failed ones.
 *
 * Results are returned indexed by submission order regardless of thread
 * count, so tables and JSON artifacts are byte-identical between
 * --jobs 1 and --jobs N (and across clean / degraded / resumed runs for
 * the healthy cells).
 */

#ifndef LAZYGPU_ANALYSIS_PARALLEL_RUNNER_HH
#define LAZYGPU_ANALYSIS_PARALLEL_RUNNER_HH

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/harness.hh"

namespace lazygpu
{

class SweepJournal;

/** One grid point: a configuration plus a fresh-workload factory. */
struct RunJob
{
    GpuConfig cfg;
    std::function<Workload()> make;
    bool verify = false;
    /**
     * Stable identity for the journal, crash reports and fault
     * injection. Empty keys are auto-assigned "b<batch>/cell-<index>",
     * which is stable because batches are submitted deterministically.
     */
    std::string key = {};
    /** Free-form description (workload, seed) echoed in crash reports. */
    std::string note = {};
    /** Per-kernel livelock guard; 0 uses Gpu's default. */
    Tick limitCycles = 0;
    /**
     * Custom cell body (the fault campaign's clean + injected + classify
     * sequence). When set, it replaces the default make()/runWorkload
     * body but still runs inside the worker's RecoverableScope, watchdog
     * slot and journal bookkeeping: a panic/fatal inside it is recorded
     * against this cell, and its RunResult (including tag) is journaled
     * and restorable like any other. `cfg` arrives with the sweep-level
     * observability knobs already applied.
     */
    std::function<RunResult(const GpuConfig &cfg, ExecControl *ctl)>
        custom = {};
};

/** Fault-tolerance policy for a runner's sweeps. */
struct SweepOptions
{
    /**
     * false: the historical fail-fast contract — on the first failed
     * cell the runner stops claiming new cells, finishes in-flight
     * ones, journals, and run() terminates the process with exit 1.
     * true: degrade gracefully — failed cells are recorded with their
     * status and every healthy cell still produces its exact result.
     */
    bool keepGoing = false;
    /** Wall-clock budget per cell in seconds; 0 disables. */
    double timeoutSec = 0.0;
    /**
     * Cancel a cell whose engine heartbeat is frozen this long
     * (seconds); 0 disables. Only catches stalls that re-enter the
     * engine loop — a thread stuck outside the engine cannot observe
     * the cancel flag and falls to timeoutSec.
     */
    double stallSec = 0.0;
    /** JSON-lines journal of finished cells; empty disables. */
    std::string journalPath;
    /** Restore Ok cells from the journal instead of re-running them. */
    bool resume = false;
    /** Directory for per-cell crash reports; empty disables. */
    std::string crashDir;
    /** Bench name used to label crash reports. */
    std::string benchName;
    /** Fault injection (CI smoke): panic when this cell starts. */
    std::string injectPanicKey;
    /** Fault injection: replace this cell's workload with a spin loop. */
    std::string injectLivelockKey;
    /** Periodic "cells done/total, ETA" line on stderr. */
    bool progress = false;
    /** Print each cell's hierarchical stats report to stderr. */
    bool statsReport = false;
    /**
     * Multi-resolution sampling window applied to every cell
     * (--timing-waves): the first N wavefronts of each kernel run in
     * detailed timing, the rest in the functional rabbit executor.
     * GpuConfig::timingWavesAll (the default) disables sampling.
     */
    unsigned timingWaves = GpuConfig::timingWavesAll;
    /**
     * Intra-GPU domain threads applied to every cell (--sa-threads):
     * 0 keeps each cell's own GpuConfig::saThreads; N >= 1 runs each
     * simulation's event domains on N threads (results are independent
     * of N; see GpuConfig::saThreads). When
     * composed with --jobs > 1, the runner clamps this to
     * hardware_concurrency / jobs so cell-level and intra-cell
     * parallelism do not oversubscribe the host.
     */
    unsigned saThreads = 0;
    /**
     * Write the traced cell's binary timeline to this file; empty
     * disables tracing. Tracing is observational (it never perturbs the
     * simulated outcome), so the traced cell's results stay identical.
     */
    std::string tracePath;
    /**
     * Which cell gets the trace; empty with a tracePath set traces the
     * first cell of the first batch. The traced cell is always re-run,
     * never restored from the journal, so a --trace --resume run still
     * produces the trace file.
     */
    std::string traceCellKey;
    /**
     * Dump one cell's full StatsRegistry as JSON to this file
     * (--stats-json); empty disables. Like tracing, the dump is
     * observational and never perturbs the dumped cell's results.
     */
    std::string statsJsonPath;
    /**
     * Which cell --stats-json dumps; empty with statsJsonPath set dumps
     * the first cell of the first batch. Like the traced cell, the
     * dumped cell is always re-run, never restored from the journal, so
     * a --stats-json --resume run still produces the file.
     */
    std::string statsCellKey;
};

/** What a sweep did, beyond the per-cell results. */
struct SweepOutcome
{
    std::vector<RunResult> results; //!< submission-order, one per job
    std::size_t numRestored = 0;    //!< Ok cells replayed from the journal
    std::size_t numFailed = 0;      //!< cells with status != Ok

    bool allOk() const { return numFailed == 0; }
};

class ParallelRunner
{
  public:
    /**
     * @param jobs worker threads; 0 resolves via defaultJobs()
     *        (LAZYGPU_JOBS env var, else hardware concurrency).
     * @param opts fault-tolerance policy applied to every sweep this
     *        runner executes.
     */
    explicit ParallelRunner(unsigned jobs = 0, SweepOptions opts = {});
    ~ParallelRunner();

    unsigned jobs() const { return jobs_; }
    const SweepOptions &options() const { return opts_; }

    /**
     * Run every job and return its RunResult at the job's submission
     * index. Without keepGoing, a failed cell terminates the process
     * (exit 1) after journaling, so callers may assume every returned
     * result is Ok; with keepGoing, failed cells come back with their
     * status set and zeroed metrics.
     */
    std::vector<RunResult> run(const std::vector<RunJob> &batch);

    /** Run a sweep and report restored/failed counts alongside. */
    SweepOutcome runSweep(const std::vector<RunJob> &batch);

    /** Failed cells accumulated across every sweep of this runner. */
    std::size_t failures() const { return failures_; }
    /** 1 when any cell of any sweep failed, else 0 (bench exit code). */
    int exitCode() const { return failures_ ? 1 : 0; }

    /** LAZYGPU_JOBS env var if set, else std::thread::hardware_concurrency. */
    static unsigned defaultJobs();

  private:
    unsigned jobs_;
    SweepOptions opts_;
    std::unique_ptr<SweepJournal> journal_;
    std::map<std::string, RunResult> restored_;
    bool journal_opened_ = false;
    std::size_t failures_ = 0;
    std::uint64_t batch_counter_ = 0;
};

} // namespace lazygpu

#endif // LAZYGPU_ANALYSIS_PARALLEL_RUNNER_HH
