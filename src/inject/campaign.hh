/**
 * @file
 * Fault-injection campaign cells: run one planned fault against one
 * workload and classify the architectural outcome.
 *
 * Each cell simulates the workload twice:
 *
 *  1. a clean run, taking a deterministic full-state checkpoint at
 *     every kernel-launch boundary at or before the fault's planned
 *     cycle (the last one wins), and recording the output image hash
 *     plus the Fig-14 outcome-class signature;
 *  2. an injected run forked from that checkpoint with the
 *     InjectionPlan armed, so the pre-fault prefix is never
 *     re-simulated and restore is exercised by every cell.
 *
 * The verdict compares the two runs and the workload's untimed
 * functional reference:
 *
 *  - Detected:  the injected run raised a simulation error (drain or
 *               scoreboard invariant, panic, cycle-limit fatal);
 *  - Masked:    outputs AND Fig-14 outcome classes are bit-identical;
 *  - Perturbed: outputs identical but the outcome classes moved (a
 *               timing-only upset re-raced lazy elimination) — the
 *               honest split of "masked" for a simulator whose
 *               secondary artifact is the elimination taxonomy;
 *  - SDC:       the output image silently diverged; the workload's
 *               functional verify (against the untimed reference)
 *               corroborates in RunResult::verifyError.
 *
 * Injection timing is schedule-dependent, but the domain schedule does
 * not depend on the thread count (checkpoints carry every domain
 * engine's state), so a campaign artifact is identical for any
 * --sa-threads: the knob never changes what a sweep writes.
 */

#ifndef LAZYGPU_INJECT_CAMPAIGN_HH
#define LAZYGPU_INJECT_CAMPAIGN_HH

#include <functional>
#include <string>

#include "analysis/harness.hh"
#include "inject/fault.hh"

namespace lazygpu
{

struct ExecControl;

namespace inject
{

/** Classification of one injected run against its clean twin. */
enum class Verdict : std::uint8_t
{
    Detected = 0,
    Masked,
    Perturbed,
    Sdc,
};

/** "detected" / "masked" / "perturbed" / "sdc" (RunResult::tag). */
const char *toString(Verdict v);

/** Inverse of toString; false when name is not a verdict. */
bool verdictFromString(const std::string &name, Verdict &out);

/**
 * Run one fault cell (see file comment). The returned RunResult
 * carries the clean run's metrics — the deterministic baseline the
 * artifact tables aggregate — with `tag` set to the verdict and
 * `verifyError` to the injected run's functional-check result (empty
 * for Detected cells, whose simulation never completed).
 *
 * Must run inside a RecoverableScope (the ParallelRunner worker
 * provides one): classification relies on catching SimError. A
 * watchdog Timeout is re-thrown — a host-level cancellation is a cell
 * failure, not a fault outcome; simulated-time hangs are bounded
 * deterministically by limit_cycles and classify as Detected.
 *
 * @param cfg cell configuration; injectPlan/timingWaves and tracing are
 *        overridden as the file comment describes.
 * @param make fresh-workload factory (seeded: both runs must see an
 *        identical input image).
 * @param limit_cycles per-kernel livelock guard; 0 uses Gpu's default.
 */
RunResult runFaultCell(const GpuConfig &cfg,
                       const std::function<Workload()> &make,
                       const InjectionPlan &plan,
                       ExecControl *ctl = nullptr, Tick limit_cycles = 0);

} // namespace inject

} // namespace lazygpu

#endif // LAZYGPU_INJECT_CAMPAIGN_HH
