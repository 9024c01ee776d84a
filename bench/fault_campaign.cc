/**
 * @file
 * Resilience campaign: sweep structured hardware faults over the
 * (workload x mode x site x cycle) grid and classify every outcome.
 *
 * Each grid cell runs inject::runFaultCell — a clean run checkpointed
 * at kernel-launch boundaries, then an injected run forked from the
 * checkpoint — and tags the result detected / masked / perturbed / sdc
 * (see src/inject/campaign.hh for the verdict definitions). The table
 * and BENCH_resilience.json aggregate per-mode and per-site rates: the
 * paper-level claim under test is that LazyGPU's sparsity metadata
 * (zero masks, lane bitmaps, pending-load scoreboards) widens the SDC
 * surface relative to timing-only upsets, while the scoreboard and
 * drain invariants convert scoreboard/drop faults into detections.
 *
 * Flags (besides the shared bench_main set):
 *   --campaign         run the full grid (the default when no other
 *                      mode flag is given; accepted for explicitness
 *                      in scripts)
 *   --quick            one workload, one injection cycle
 *   --inject-plan SPEC run a single cell with this plan on the MM
 *                      workload in LazyGPU mode and print the verdict
 *   --inject-self-test run two cells with known classifications
 *                      (scoreboard flip => detected, never-fires =>
 *                      masked) and exit nonzero on a mismatch
 *
 * Cells pin full timing internally (runFaultCell); the schedule does not
 * depend on the domain-thread count, so BENCH_resilience.json is
 * byte-identical across --jobs and --sa-threads for a fixed grid.
 */

#include <cstdio>
#include <iterator>
#include <map>

#include "analysis/json_writer.hh"
#include "analysis/parallel_runner.hh"
#include "bench/bench_main.hh"
#include "bench/bench_util.hh"
#include "inject/campaign.hh"
#include "sim/sim_error.hh"
#include "workloads/suite.hh"

using namespace lazygpu;

namespace
{

/** Journal-key-safe lowercase mode name. */
std::string
modeKey(ExecMode m)
{
    switch (m) {
    case ExecMode::Baseline: return "base";
    case ExecMode::LazyCore: return "lazycore";
    case ExecMode::LazyZC: return "lazyzc";
    case ExecMode::LazyGPU: return "lazygpu";
    case ExecMode::EagerZC: return "eagerzc";
    }
    return "?";
}

struct CampaignWorkload
{
    std::string name;
    std::function<Workload()> make;
};

/**
 * Sparse inputs (50%) so every sparsity-metadata site is live; modest
 * sizes so the two-runs-per-cell campaign stays minutes, not hours.
 *
 * FIR is the SDC-sensitive workload: every output element is written
 * once, so a corrupted load surfaces in the image. MM with wrapped
 * output indices (waves_override) is the masking-heavy contrast — a
 * later duplicate wave overwrites a corrupted store with the clean
 * value, the architectural masking the Fig-14-style taxonomy expects.
 */
std::vector<CampaignWorkload>
campaignWorkloads(bool quick)
{
    WorkloadParams p;
    p.sparsity = 0.5;
    p.scale = 16;
    std::vector<CampaignWorkload> w;
    w.push_back({"fir", [p]() { return makeFIR(p); }});
    if (!quick)
        w.push_back({"mm", [p]() { return makeMM(p, 256); }});
    return w;
}

/** Per-kernel cycle bound: detects injected livelocks deterministically. */
constexpr Tick kCellLimitCycles = 2'000'000;

int
selfTest()
{
    // Classifications that must hold by construction: a pending-load
    // scoreboard corruption trips the retire invariant (Detected), and
    // a plan armed at a cycle the run never reaches changes nothing
    // (Masked). Exercised through the same runFaultCell path the
    // campaign uses, RecoverableScope and all.
    WorkloadParams p;
    p.sparsity = 0.5;
    p.scale = 16;
    const auto make = [p]() { return makeMM(p, 64); };
    GpuConfig cfg = configFor(ExecMode::LazyGPU);

    struct Case
    {
        const char *name;
        inject::InjectionPlan plan;
        inject::Verdict expect;
    };
    inject::InjectionPlan detect;
    detect.site = inject::FaultSite::TxScoreboardFlip;
    detect.cycle = 0;
    inject::InjectionPlan benign;
    benign.site = inject::FaultSite::MemRespFlip;
    benign.cycle = Tick(-1) / 2; // far beyond any run's end: never fires
    const Case cases[] = {
        {"scoreboard-flip@0", detect, inject::Verdict::Detected},
        {"never-fires", benign, inject::Verdict::Masked},
    };

    int rc = 0;
    for (const Case &c : cases) {
        const RecoverableScope scope;
        std::string got;
        try {
            const RunResult r = inject::runFaultCell(
                cfg, make, c.plan, nullptr, kCellLimitCycles);
            got = r.tag;
        } catch (const SimError &e) {
            got = std::string("unexpected SimError: ") + e.what();
        }
        const bool ok = got == inject::toString(c.expect);
        std::printf("self-test %-20s expected %-9s got %-9s %s\n",
                    c.name, inject::toString(c.expect), got.c_str(),
                    ok ? "OK" : "FAIL");
        if (!ok)
            rc = 1;
    }
    return rc;
}

int
singleCell(const std::string &spec)
{
    inject::InjectionPlan plan;
    std::string err;
    if (!inject::InjectionPlan::parse(spec, plan, err)) {
        std::fprintf(stderr, "bad --inject-plan '%s': %s\n", spec.c_str(),
                     err.c_str());
        return 1;
    }
    WorkloadParams p;
    p.sparsity = 0.5;
    p.scale = 16;
    const auto make = [p]() { return makeMM(p, 256); };
    const RecoverableScope scope;
    const RunResult r = inject::runFaultCell(
        configFor(ExecMode::LazyGPU), make, plan, nullptr,
        kCellLimitCycles);
    std::printf("plan %s\nverdict %s\nclean cycles %llu\nverify %s\n",
                plan.toString().c_str(), r.tag.c_str(),
                static_cast<unsigned long long>(r.cycles),
                r.verifyError.empty() ? "ok" : r.verifyError.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions opt = parseBenchOptions(
        argc, argv,
        {"--campaign", "--quick", "--inject-plan", "--inject-self-test"});
    if (opt.hasFlag("--inject-self-test"))
        return selfTest();
    if (!opt.flagValue("--inject-plan").empty())
        return singleCell(opt.flagValue("--inject-plan"));

    const bool quick = opt.hasFlag("--quick");
    const std::vector<CampaignWorkload> workloads =
        campaignWorkloads(quick);
    const std::vector<Tick> cycles =
        quick ? std::vector<Tick>{1000} : std::vector<Tick>{1000, 10000};
    std::vector<ExecMode> modes = modeLadder();

    std::printf("Resilience campaign: %zu workloads x %zu modes x %zu "
                "sites x %zu cycles\n\n",
                workloads.size(), modes.size(),
                std::size(inject::allFaultSites), cycles.size());

    // The grid as ParallelRunner jobs; runFaultCell is the custom body,
    // so each cell still gets the RecoverableScope/watchdog/journal
    // treatment and campaigns resume like any sweep.
    std::vector<RunJob> jobs;
    for (const CampaignWorkload &w : workloads) {
        for (ExecMode mode : modes) {
            for (inject::FaultSite site : inject::allFaultSites) {
                for (Tick cyc : cycles) {
                    inject::InjectionPlan plan;
                    plan.site = site;
                    plan.cycle = cyc;
                    plan.cu = 0;
                    plan.seed = 7;
                    RunJob job;
                    job.cfg = configFor(mode);
                    job.make = w.make;
                    job.key = w.name + "/" + modeKey(mode) + "/" +
                              inject::toString(site) + "@" +
                              std::to_string(cyc);
                    job.note = w.name + ", " + toString(mode) + ", " +
                               plan.toString();
                    job.limitCycles = kCellLimitCycles;
                    const auto make = w.make;
                    job.custom = [make, plan](const GpuConfig &cfg,
                                              ExecControl *ctl) {
                        return inject::runFaultCell(cfg, make, plan, ctl,
                                                    kCellLimitCycles);
                    };
                    jobs.push_back(std::move(job));
                }
            }
        }
    }
    ParallelRunner runner(opt.jobs, opt.sweepOptions("resilience"));
    const std::vector<RunResult> res = runner.run(jobs);

    // Aggregate verdict counts per mode and per site.
    const char *verdicts[] = {"detected", "masked", "perturbed", "sdc"};
    std::map<std::string, std::map<std::string, unsigned>> by_mode;
    std::map<std::string, std::map<std::string, unsigned>> by_site;
    Json cells = Json::array();
    std::size_t idx = 0;
    for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
        for (ExecMode mode : modes) {
            for (inject::FaultSite site : inject::allFaultSites) {
                for (Tick cyc : cycles) {
                    const RunResult &r = res[idx];
                    const std::string key = jobs[idx].key;
                    ++idx;
                    // A cell that failed at host level (panic outside
                    // classification, watchdog) carries no verdict; it
                    // is reported, not counted.
                    const std::string tag =
                        r.tag.empty() ? std::string("failed:") +
                                            ::lazygpu::toString(r.status)
                                      : r.tag;
                    ++by_mode[modeKey(mode)][tag];
                    ++by_site[inject::toString(site)][tag];
                    Json c = Json::object();
                    c.set("key", key)
                        .set("verdict", tag)
                        .set("clean_cycles", r.cycles);
                    if (!r.verifyError.empty())
                        c.set("verify_error", r.verifyError);
                    cells.push(std::move(c));
                    (void)cyc;
                }
            }
        }
    }

    auto printGroup = [&](const char *what,
                          const std::map<std::string,
                                         std::map<std::string, unsigned>>
                              &groups) {
        std::printf("%s\n", what);
        std::vector<std::string> header{"group"};
        for (const char *v : verdicts)
            header.push_back(v);
        printRow(header);
        Json out = Json::object();
        for (const auto &[group, counts] : groups) {
            unsigned total = 0;
            for (const auto &[tag, n] : counts)
                total += n;
            std::vector<std::string> row{group};
            Json rates = Json::object();
            for (const char *v : verdicts) {
                const auto it = counts.find(v);
                const unsigned n = it == counts.end() ? 0 : it->second;
                row.push_back(cell(total ? double(n) / total : 0.0, 2));
                rates.set(v, n);
            }
            rates.set("total", total);
            printRow(row);
            out.set(group, std::move(rates));
        }
        std::printf("\n");
        return out;
    };
    Json mode_rates = printGroup("per-mode verdict rates:", by_mode);
    Json site_rates = printGroup("per-site verdict rates:", by_site);

    Json data = Json::object();
    data.set("cells", std::move(cells))
        .set("by_mode", std::move(mode_rates))
        .set("by_site", std::move(site_rates));
    writeBenchJson("resilience", data);
    return runner.exitCode();
}
