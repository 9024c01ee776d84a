/**
 * @file
 * Lazy-load lifecycle tracking (the paper's Figs 14-16 as first-class
 * metrics).
 *
 * Every pending transaction moves through recorded -> mask-probe ->
 * issued / suspended / eliminated / resolved; the tracker turns the
 * timestamps of those transitions into per-terminal-state latency
 * histograms registered under "lifecycle.<mode>.*". The histogram
 * counts are defined to equal the corresponding Fig 14 counters:
 *
 *   issue_wait.count    == sum(gpu.*.txs_issued)
 *   resolve_time.count  == sum(gpu.*.txs_completed)
 *   elim_zero_time.count   == sum(gpu.*.txs_elim_zero)
 *   elim_otimes_time.count == sum(gpu.*.txs_elim_otimes)
 *   elim_dead_time.count   == sum(gpu.*.txs_elim_dead)
 *   mask_probe_wait.count  == zero-mask responses observed
 *   suspend_wait.count     == sum(gpu.*.lanes_suspended)
 *
 * All samples are ages relative to the load's record tick. One Gpu runs
 * one ExecMode, so registering under the mode token gives per-mode
 * histograms for free when sweeps aggregate registries.
 *
 * The tracker is always on: a sample is a handful of arithmetic ops per
 * *transaction* event, invisible next to the event-scheduling cost, and
 * it never perturbs simulated behaviour.
 */

#ifndef LAZYGPU_OBS_LIFECYCLE_HH
#define LAZYGPU_OBS_LIFECYCLE_HH

#include <string>

#include "core/exec_mode.hh"
#include "obs/registry.hh"
#include "sim/types.hh"

namespace lazygpu
{

class LifecycleTracker
{
  public:
    LifecycleTracker(StatsRegistry &stats, ExecMode mode);

    /** "baseline", "lazycore", "lazycore_1", "lazygpu", "eagerzc". */
    static std::string modeToken(ExecMode mode);

    /** Transaction issued to the memory system (record -> issue age). */
    void issued(Tick age) { issue_wait_.sample(age); }
    /** Issued transaction's data arrived (record -> resolve age). */
    void resolved(Tick age) { resolve_time_.sample(age); }
    /** Eliminated by optimization (1): all needed words mask-zero. */
    void eliminatedZero(Tick age) { elim_zero_.sample(age); }
    /** Eliminated by optimization (2): otimes-suspended words. */
    void eliminatedOtimes(Tick age) { elim_otimes_.sample(age); }
    /** Eliminated dead: overwritten / retired while still pending. */
    void eliminatedDead(Tick age) { elim_dead_.sample(age); }
    /** A zero-mask probe response arrived for the load. */
    void maskProbed(Tick age) { mask_probe_.sample(age); }
    /** A lane was (2)-suspended (record -> suspension age). */
    void suspended(Tick age) { suspend_wait_.sample(age); }

    /**
     * Per-SA shard support: the Gpu folds each SA's shard tracker into
     * its main tracker in a fixed SA order at the end of each run (merge,
     * then reset the shard), so dumps are identical for any thread
     * count.
     */
    void reset()
    {
        issue_wait_.reset();
        resolve_time_.reset();
        elim_zero_.reset();
        elim_otimes_.reset();
        elim_dead_.reset();
        mask_probe_.reset();
        suspend_wait_.reset();
    }

    void merge(const LifecycleTracker &o)
    {
        issue_wait_.merge(o.issue_wait_);
        resolve_time_.merge(o.resolve_time_);
        elim_zero_.merge(o.elim_zero_);
        elim_otimes_.merge(o.elim_otimes_);
        elim_dead_.merge(o.elim_dead_);
        mask_probe_.merge(o.mask_probe_);
        suspend_wait_.merge(o.suspend_wait_);
    }

    const Histogram &issueWait() const { return issue_wait_; }
    const Histogram &resolveTime() const { return resolve_time_; }
    const Histogram &elimZero() const { return elim_zero_; }
    const Histogram &elimOtimes() const { return elim_otimes_; }
    const Histogram &elimDead() const { return elim_dead_; }
    const Histogram &maskProbeWait() const { return mask_probe_; }
    const Histogram &suspendWait() const { return suspend_wait_; }

  private:
    Histogram &issue_wait_;
    Histogram &resolve_time_;
    Histogram &elim_zero_;
    Histogram &elim_otimes_;
    Histogram &elim_dead_;
    Histogram &mask_probe_;
    Histogram &suspend_wait_;
};

} // namespace lazygpu

#endif // LAZYGPU_OBS_LIFECYCLE_HH
