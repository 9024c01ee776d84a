#include "inject/campaign.hh"

#include <array>
#include <vector>

#include "gpu/gpu.hh"
#include "sim/logging.hh"
#include "sim/sim_error.hh"

namespace lazygpu
{

namespace inject
{

namespace
{

struct VerdictName
{
    Verdict verdict;
    const char *name;
};

constexpr VerdictName verdictNames[] = {
    {Verdict::Detected, "detected"},
    {Verdict::Masked, "masked"},
    {Verdict::Perturbed, "perturbed"},
    {Verdict::Sdc, "sdc"},
};

/**
 * The Fig-14 outcome classes: where every candidate load transaction
 * ended up. "Masked" demands these match bit-for-bit alongside the
 * output image; a timing-only fault that re-races lazy elimination
 * moves counts between classes and classifies as Perturbed instead.
 */
std::array<std::uint64_t, 5>
outcomeSignature(const RunResult &r)
{
    return {r.txsIssued, r.txsElimZero, r.txsElimOtimes, r.txsElimDead,
            r.txsEagerFallback};
}

} // namespace

const char *
toString(Verdict v)
{
    for (const VerdictName &vn : verdictNames) {
        if (vn.verdict == v)
            return vn.name;
    }
    return "unknown";
}

bool
verdictFromString(const std::string &name, Verdict &out)
{
    for (const VerdictName &vn : verdictNames) {
        if (name == vn.name) {
            out = vn.verdict;
            return true;
        }
    }
    return false;
}

RunResult
runFaultCell(const GpuConfig &cfg, const std::function<Workload()> &make,
             const InjectionPlan &plan, ExecControl *ctl,
             Tick limit_cycles)
{
    GpuConfig base = cfg;
    base.injectPlan.clear();
    base.timingWaves = GpuConfig::timingWavesAll;
    base.enableTraces = false;
    base.tracePath.clear();

    // --- 1. Clean run, checkpointing at launch boundaries -------------
    // The last boundary at or before the fault's cycle wins; boundary 0
    // (tick 0, pristine memory) always qualifies, so every cell forks.
    Workload clean_w = make();
    std::vector<std::uint8_t> ckpt;
    std::size_t ckpt_kernel = 0;
    RunResult clean;
    std::uint64_t clean_hash = 0;
    {
        Gpu gpu(base, *clean_w.mem);
        if (ctl)
            gpu.attachControl(ctl);
        for (std::size_t k = 0; k < clean_w.kernels.size(); ++k) {
            if (gpu.domains()->now() <= plan.cycle || ckpt.empty()) {
                gpu.saveCheckpoint(ckpt);
                ckpt_kernel = k;
            }
            if (limit_cycles)
                gpu.run(clean_w.kernels[k], limit_cycles);
            else
                gpu.run(clean_w.kernels[k]);
        }
        clean = collectMetrics(gpu, gpu.domains()->now());
        clean_hash = clean_w.mem->contentHash();
    }

    // --- 2. Injected run forked from the checkpoint --------------------
    Workload inj_w = make();
    GpuConfig inj_cfg = base;
    inj_cfg.injectPlan = plan.toString();
    Verdict verdict;
    std::string inj_verify;
    try {
        Gpu gpu(inj_cfg, *inj_w.mem);
        gpu.restoreCheckpoint(ckpt);
        if (ctl)
            gpu.attachControl(ctl);
        for (std::size_t k = ckpt_kernel; k < inj_w.kernels.size(); ++k) {
            if (limit_cycles)
                gpu.run(inj_w.kernels[k], limit_cycles);
            else
                gpu.run(inj_w.kernels[k]);
        }
        const RunResult inj = collectMetrics(gpu, gpu.domains()->now());
        if (inj_w.verify)
            inj_verify = inj_w.verify(*inj_w.mem);
        const std::uint64_t inj_hash = inj_w.mem->contentHash();
        if (inj_hash != clean_hash)
            verdict = Verdict::Sdc;
        else if (outcomeSignature(inj) == outcomeSignature(clean))
            verdict = Verdict::Masked;
        else
            verdict = Verdict::Perturbed;
    } catch (const SimError &e) {
        // A watchdog cancellation is a host-level cell failure, not a
        // fault outcome; everything else (drain invariant, scoreboard
        // panic, cycle-limit fatal) is the hardware catching the upset.
        if (e.kind() == SimError::Kind::Timeout)
            throw;
        verdict = Verdict::Detected;
    }

    RunResult out = clean;
    out.tag = toString(verdict);
    out.verifyError = inj_verify;
    return out;
}

} // namespace inject

} // namespace lazygpu
