/**
 * @file
 * Differential fuzz driver: generate seeded random kernels, run them
 * through every execution mode, and compare against the untimed
 * reference executor (src/verif).
 *
 * Usage:
 *   verif_fuzz [--seed-range A:B] [--seeds s1,s2,...]
 *              [--modes Baseline,LazyGPU,...]
 *              [--waves N] [--sparsity X] [--body-ops N]
 *              [--timing-waves W1,W2,...] (numbers, 'boundary', 'all')
 *              [--sa-threads N]
 *              [--corpus DIR] [--corpus-only] [--minimize]
 *              [--inject-bug] [--verbose]
 *
 * Default sweep: seeds [0, 100) through all five modes; exit 0 iff every
 * seed matched. On a divergence the full report is printed, and with
 * --minimize a greedy action-mask minimization shrinks the kernel and
 * prints a ready-to-commit tests/corpus entry.
 *
 * --corpus DIR replays every *.case file (minimized regressions from
 * fixed bugs) before the sweep.
 *
 * --timing-waves W1,W2,... additionally re-runs every differential with
 * GpuConfig::timingWaves set to each listed value, checking the rabbit
 * fast path against the same untimed reference. Tokens are wave counts
 * plus 'boundary' (numWavefronts - 1: one rabbit wave) and 'all'
 * (numWavefronts: sampling armed but every wave still timed); 0 runs
 * everything in rabbit mode. Any discrepancy is a real bug.
 *
 * --sa-threads N (or the LAZYGPU_SA_THREADS env var) runs every timed
 * simulation's event domains on N threads, so a sweep or corpus replay
 * cross-checks the parallel execution against the reference executor.
 *
 * --inject-bug is the self-test demanded by the PR acceptance criteria:
 * it arms GpuConfig::injectSkipSuspendRequalify (optimization (2)
 * wrongly keeps a suspended lane at zero when a non-otimes instruction
 * consumes it) and exits 0 iff the sweep CATCHES the fault on LazyGPU
 * within the seed range -- under full timing and under every
 * --timing-waves setting, since the rabbit path honours the same
 * injected fault.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/exec_mode.hh"
#include "sim/logging.hh"
#include "verif/differential.hh"
#include "verif/kernel_gen.hh"

using namespace lazygpu;
using namespace lazygpu::verif;

namespace
{

struct Args
{
    std::uint64_t seedBegin = 0;
    std::uint64_t seedEnd = 100;
    std::vector<std::uint64_t> seeds; //!< explicit list; overrides range
    std::vector<ExecMode> modes;      //!< empty = all
    unsigned waves = 0;
    double sparsity = -1.0;
    unsigned bodyOps = 0;
    /** Raw --timing-waves tokens; resolved per generated case. */
    std::vector<std::string> timingWaves;
    unsigned saThreads = 0; //!< domain threads per timed run (0 = inline)
    std::string corpusDir;
    bool corpusOnly = false;
    bool minimize = false;
    bool injectBug = false;
    bool verbose = false;
};

ExecMode
parseMode(const std::string &name)
{
    for (ExecMode m : allModes()) {
        if (toString(m) == name)
            return m;
    }
    if (name == "LazyZC") // accept the source-level name too
        return ExecMode::LazyZC;
    fatal("unknown mode '%s' (expected Baseline, LazyCore, LazyCore+1/"
          "LazyZC, LazyGPU or EagerZC)", name.c_str());
}

std::vector<std::string>
splitCsv(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        const std::size_t comma = s.find(',', pos);
        const std::size_t end = comma == std::string::npos ? s.size()
                                                           : comma;
        if (end > pos)
            out.push_back(s.substr(pos, end - pos));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return out;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    if (const char *env = std::getenv("LAZYGPU_SA_THREADS"))
        a.saThreads = static_cast<unsigned>(std::stoul(env));
    auto value = [&](int &i) -> const char * {
        fatal_if(i + 1 >= argc, "%s needs a value", argv[i]);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--seed-range") {
            const std::string v = value(i);
            const auto colon = v.find(':');
            fatal_if(colon == std::string::npos,
                     "--seed-range wants A:B, got '%s'", v.c_str());
            a.seedBegin = std::stoull(v.substr(0, colon));
            a.seedEnd = std::stoull(v.substr(colon + 1));
            fatal_if(a.seedEnd <= a.seedBegin,
                     "empty seed range %llu:%llu",
                     static_cast<unsigned long long>(a.seedBegin),
                     static_cast<unsigned long long>(a.seedEnd));
        } else if (arg == "--seeds") {
            for (const std::string &s : splitCsv(value(i)))
                a.seeds.push_back(std::stoull(s));
        } else if (arg == "--modes") {
            for (const std::string &s : splitCsv(value(i)))
                a.modes.push_back(parseMode(s));
        } else if (arg == "--waves") {
            a.waves = static_cast<unsigned>(std::stoul(value(i)));
        } else if (arg == "--sparsity") {
            a.sparsity = std::stod(value(i));
        } else if (arg == "--body-ops") {
            a.bodyOps = static_cast<unsigned>(std::stoul(value(i)));
        } else if (arg == "--timing-waves") {
            for (const std::string &s : splitCsv(value(i))) {
                fatal_if(s != "boundary" && s != "all" &&
                             s.find_first_not_of("0123456789") !=
                                 std::string::npos,
                         "--timing-waves wants wave counts, 'boundary' "
                         "or 'all', got '%s'", s.c_str());
                a.timingWaves.push_back(s);
            }
        } else if (arg == "--sa-threads") {
            a.saThreads = static_cast<unsigned>(std::stoul(value(i)));
        } else if (arg == "--corpus") {
            a.corpusDir = value(i);
        } else if (arg == "--corpus-only") {
            a.corpusOnly = true;
        } else if (arg == "--minimize") {
            a.minimize = true;
        } else if (arg == "--inject-bug") {
            a.injectBug = true;
        } else if (arg == "--verbose") {
            a.verbose = true;
        } else {
            fatal("unknown argument '%s'", arg.c_str());
        }
    }
    return a;
}

/** "full" (no sampling) followed by every --timing-waves token. */
std::vector<std::string>
samplingSettings(const Args &a)
{
    std::vector<std::string> settings = {"full"};
    settings.insert(settings.end(), a.timingWaves.begin(),
                    a.timingWaves.end());
    return settings;
}

unsigned
resolveTimingWaves(const std::string &token, const GeneratedCase &c)
{
    const unsigned waves = c.kernel.numWavefronts;
    if (token == "all")
        return waves;
    if (token == "boundary")
        return waves ? waves - 1 : 0;
    return static_cast<unsigned>(std::stoul(token));
}

GenOptions
genOptions(const Args &a, std::uint64_t seed)
{
    GenOptions g;
    g.seed = seed;
    g.waves = a.waves;
    g.sparsity = a.sparsity;
    g.bodyOps = a.bodyOps;
    return g;
}

/**
 * Greedy action-mask minimization: repeatedly drop body actions while
 * the first diverging mode still diverges. Quadratic in the body size,
 * fine for <=43 actions.
 */
CorpusCase
minimizeCase(const GenOptions &gen, const DiffOptions &base,
             ExecMode failing_mode)
{
    DiffOptions dopt = base;
    dopt.modes = {failing_mode};

    const GeneratedCase full = generateCase(gen);
    std::vector<bool> enabled(full.numActions, true);

    bool improved = true;
    while (improved) {
        improved = false;
        for (unsigned i = 0; i < full.numActions; ++i) {
            if (!enabled[i])
                continue;
            enabled[i] = false;
            const GeneratedCase c = generateCase(gen, enabled);
            if (runDifferential(c, dopt).ok())
                enabled[i] = true; // action is load-bearing: keep it
            else
                improved = true;
        }
    }

    CorpusCase cc;
    cc.opt = gen;
    for (unsigned i = 0; i < full.numActions; ++i) {
        if (!enabled[i])
            cc.disabled.push_back(i);
    }
    return cc;
}

/** Print the divergence and (optionally) a minimized corpus entry. */
void
reportFailure(const Args &a, const GenOptions &gen,
              const GeneratedCase &c, const DiffReport &rep,
              const DiffOptions &dopt)
{
    std::fprintf(stderr, "FAIL %s\n  %s\n", c.summary.c_str(),
                 rep.firstDivergence().c_str());
    if (!a.minimize || rep.modes.empty())
        return;
    ExecMode failing = rep.modes.front().mode;
    for (const ModeReport &m : rep.modes) {
        if (m.diverged) {
            failing = m.mode;
            break;
        }
    }
    const CorpusCase cc = minimizeCase(gen, dopt, failing);
    const GeneratedCase min =
        generateCase(cc.opt, enabledMask(cc, c.numActions));
    std::fprintf(stderr,
                 "minimized to %zu of %u actions; corpus entry:\n%s",
                 static_cast<std::size_t>(c.numActions -
                                          cc.disabled.size()),
                 c.numActions, formatCorpusCase(cc).c_str());
    std::fprintf(stderr, "minimized case: %s\n", min.summary.c_str());
}

int
runCorpus(const Args &a, const DiffOptions &dopt)
{
    const auto files = listCorpusFiles(a.corpusDir);
    if (files.empty()) {
        std::fprintf(stderr, "no *.case files under %s\n",
                     a.corpusDir.c_str());
        return 0;
    }
    int failures = 0;
    for (const std::string &path : files) {
        const CorpusCase cc = loadCorpusFile(path);
        const GeneratedCase probe = generateCase(cc.opt);
        const GeneratedCase c =
            generateCase(cc.opt, enabledMask(cc, probe.numActions));
        bool case_ok = true;
        for (const std::string &setting : samplingSettings(a)) {
            DiffOptions run_opt = dopt;
            if (setting != "full")
                run_opt.timingWaves = resolveTimingWaves(setting, c);
            const DiffReport rep = runDifferential(c, run_opt);
            if (!rep.ok()) {
                case_ok = false;
                std::fprintf(stderr,
                             "corpus FAIL %s [timing-waves=%s]\n  %s\n",
                             path.c_str(), setting.c_str(),
                             rep.firstDivergence().c_str());
            }
        }
        if (case_ok) {
            if (a.verbose)
                std::printf("corpus ok   %s (%s)\n", path.c_str(),
                            c.summary.c_str());
        } else {
            ++failures;
        }
    }
    std::printf("corpus: %zu cases, %d failing\n", files.size(),
                failures);
    return failures == 0 ? 0 : 1;
}

std::vector<std::uint64_t>
sweepSeeds(const Args &a)
{
    if (!a.seeds.empty())
        return a.seeds;
    std::vector<std::uint64_t> seeds;
    for (std::uint64_t s = a.seedBegin; s < a.seedEnd; ++s)
        seeds.push_back(s);
    return seeds;
}

/**
 * Self-test: the armed fault must be caught inside the seed range,
 * under full timing and under every --timing-waves setting (the rabbit
 * path honours the same injected fault).
 */
int
runInjectBug(const Args &a)
{
    DiffOptions base;
    base.saThreads = a.saThreads;
    base.injectSuspendBug = true;
    // The fault lives in optimization (2); only LazyGPU exercises it.
    base.modes = {ExecMode::LazyGPU};

    for (const std::string &setting : samplingSettings(a)) {
        bool caught = false;
        for (std::uint64_t seed : sweepSeeds(a)) {
            const GeneratedCase c = generateCase(genOptions(a, seed));
            DiffOptions dopt = base;
            if (setting != "full")
                dopt.timingWaves = resolveTimingWaves(setting, c);
            const DiffReport rep = runDifferential(c, dopt);
            if (!rep.ok()) {
                std::printf(
                    "inject-bug[%s]: caught at seed %llu\n  %s\n",
                    setting.c_str(),
                    static_cast<unsigned long long>(seed),
                    rep.firstDivergence().c_str());
                caught = true;
                break;
            }
            if (a.verbose)
                std::printf("inject-bug[%s]: seed %llu silent\n",
                            setting.c_str(),
                            static_cast<unsigned long long>(seed));
        }
        if (!caught) {
            std::fprintf(stderr,
                         "inject-bug[%s]: fault NOT caught in %zu seeds "
                         "-- the differential checker is blind\n",
                         setting.c_str(), sweepSeeds(a).size());
            return 1;
        }
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);

    if (a.injectBug)
        return runInjectBug(a);

    DiffOptions dopt;
    dopt.modes = a.modes;
    dopt.saThreads = a.saThreads;

    if (!a.corpusDir.empty()) {
        const int rc = runCorpus(a, dopt);
        if (rc != 0 || a.corpusOnly)
            return rc;
    }

    const std::vector<std::uint64_t> seeds = sweepSeeds(a);
    const std::vector<std::string> settings = samplingSettings(a);
    std::uint64_t checked = 0;
    for (std::uint64_t seed : seeds) {
        const GenOptions gen = genOptions(a, seed);
        const GeneratedCase c = generateCase(gen);
        for (const std::string &setting : settings) {
            DiffOptions run_opt = dopt;
            if (setting != "full")
                run_opt.timingWaves = resolveTimingWaves(setting, c);
            const DiffReport rep = runDifferential(c, run_opt);
            if (!rep.ok()) {
                std::fprintf(stderr, "timing-waves setting: %s\n",
                             setting.c_str());
                reportFailure(a, gen, c, rep, run_opt);
                return 1;
            }
        }
        ++checked;
        if (a.verbose)
            std::printf("ok %s\n", c.summary.c_str());
        else if (checked % 50 == 0)
            std::printf("... %llu/%zu seeds ok\n",
                        static_cast<unsigned long long>(checked),
                        seeds.size());
    }
    std::printf("verif_fuzz: %llu seeds x %zu modes x %zu sampling "
                "settings ok\n",
                static_cast<unsigned long long>(checked),
                (a.modes.empty() ? allModes() : a.modes).size(),
                settings.size());
    return 0;
}
