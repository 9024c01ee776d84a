#include "bench/bench_main.hh"

#include <cstdlib>

#include "sim/logging.hh"

namespace lazygpu
{

namespace
{

/**
 * strtoul would quietly accept leading whitespace and '+'/'-' signs
 * (with '-' wrapping modulo ULONG_MAX); any of those in a bench flag
 * is a mistake to surface, so numerics must start with a digit.
 */
bool
startsWithDigit(const std::string &value)
{
    return !value.empty() && value[0] >= '0' && value[0] <= '9';
}

unsigned
parseJobs(const std::string &value)
{
    char *end = nullptr;
    const unsigned long v = std::strtoul(value.c_str(), &end, 10);
    fatal_if(!startsWithDigit(value) || *end != '\0' || v > 4096,
             "--jobs expects a small non-negative integer, got '%s'",
             value.c_str());
    return static_cast<unsigned>(v);
}

unsigned
parseTimingWaves(const std::string &value)
{
    if (value == "all")
        return GpuConfig::timingWavesAll;
    char *end = nullptr;
    const unsigned long v = std::strtoul(value.c_str(), &end, 10);
    fatal_if(!startsWithDigit(value) || *end != '\0' ||
                 v >= GpuConfig::timingWavesAll,
             "--timing-waves expects a wave count or 'all', got '%s'",
             value.c_str());
    return static_cast<unsigned>(v);
}

unsigned
parseSaThreads(const std::string &value, const char *what)
{
    char *end = nullptr;
    const unsigned long v = std::strtoul(value.c_str(), &end, 10);
    fatal_if(!startsWithDigit(value) || *end != '\0' || v > 4096,
             "%s expects a small non-negative integer, got '%s'", what,
             value.c_str());
    return static_cast<unsigned>(v);
}

/** LAZYGPU_SA_THREADS env var, or 0 (domains inline) when unset. */
unsigned
defaultSaThreads()
{
    if (const char *env = std::getenv("LAZYGPU_SA_THREADS"))
        return parseSaThreads(env, "LAZYGPU_SA_THREADS");
    return 0;
}

double
parseSeconds(const char *flag, const std::string &value)
{
    char *end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    fatal_if(!(startsWithDigit(value) || (value.size() > 1 &&
                                          value[0] == '.')) ||
                 *end != '\0' || v < 0.0,
             "%s expects a non-negative number of seconds, got '%s'",
             flag, value.c_str());
    return v;
}

constexpr const char *sharedFlagUsage =
    "--jobs N, --timeout S, --stall S, --keep-going, --resume, "
    "--journal PATH, --crash-dir DIR, --inject-panic KEY, "
    "--inject-livelock KEY, --progress, --report, --trace FILE, "
    "--trace-cell KEY, --stats-json FILE, --stats-cell KEY, "
    "--timing-waves N|all, --sa-threads N";

} // namespace

BenchOptions
parseBenchOptions(int argc, char **argv,
                  const std::vector<std::string> &bench_flags)
{
    BenchOptions opt;
    opt.saThreads = defaultSaThreads();

    // Shared flags taking a value; accepts --flag V and --flag=V.
    auto valueFor = [&](int &i, const std::string &a,
                        const char *flag, std::string &out) {
        const std::string eq = std::string(flag) + "=";
        if (a == flag) {
            fatal_if(i + 1 >= argc, "%s requires a value", flag);
            out = argv[++i];
            return true;
        }
        if (a.rfind(eq, 0) == 0) {
            out = a.substr(eq.size());
            return true;
        }
        return false;
    };

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        std::string v;
        if (valueFor(i, a, "--jobs", v)) {
            opt.jobs = parseJobs(v);
        } else if (valueFor(i, a, "--timeout", v)) {
            opt.timeoutSec = parseSeconds("--timeout", v);
        } else if (valueFor(i, a, "--stall", v)) {
            opt.stallSec = parseSeconds("--stall", v);
        } else if (a == "--keep-going") {
            opt.keepGoing = true;
        } else if (a == "--resume") {
            opt.resume = true;
        } else if (valueFor(i, a, "--journal", v)) {
            opt.journalPath = v;
        } else if (valueFor(i, a, "--crash-dir", v)) {
            opt.crashDir = v;
        } else if (valueFor(i, a, "--inject-panic", v)) {
            opt.injectPanicKey = v;
        } else if (valueFor(i, a, "--inject-livelock", v)) {
            opt.injectLivelockKey = v;
        } else if (a == "--progress") {
            opt.progress = true;
        } else if (a == "--report") {
            opt.statsReport = true;
        } else if (valueFor(i, a, "--trace", v)) {
            opt.tracePath = v;
        } else if (valueFor(i, a, "--trace-cell", v)) {
            opt.traceCellKey = v;
        } else if (valueFor(i, a, "--stats-json", v)) {
            opt.statsJsonPath = v;
        } else if (valueFor(i, a, "--stats-cell", v)) {
            opt.statsCellKey = v;
        } else if (valueFor(i, a, "--timing-waves", v)) {
            opt.timingWaves = parseTimingWaves(v);
        } else if (valueFor(i, a, "--sa-threads", v)) {
            opt.saThreads = parseSaThreads(v, "--sa-threads");
        } else if (a.rfind("--", 0) == 0) {
            // Unknown flags fail fast: a typo must not silently turn
            // into a positional argument and change what the bench runs.
            bool known = false;
            for (const std::string &f : bench_flags) {
                if (a == f || a.rfind(f + "=", 0) == 0) {
                    known = true;
                    break;
                }
            }
            if (!known) {
                std::string allowed;
                for (const std::string &f : bench_flags)
                    allowed += (allowed.empty() ? "" : ", ") + f;
                fatal("unknown flag '%s'; shared flags: %s%s%s",
                      a.c_str(), sharedFlagUsage,
                      allowed.empty() ? "" : "; bench flags: ",
                      allowed.c_str());
            }
            opt.args.push_back(a);
        } else {
            opt.args.push_back(a);
        }
    }
    return opt;
}

SweepOptions
BenchOptions::sweepOptions(const std::string &bench) const
{
    SweepOptions s;
    s.keepGoing = keepGoing;
    s.timeoutSec = timeoutSec;
    s.stallSec = stallSec;
    s.journalPath = journalPath.empty()
                        ? "BENCH_" + bench + ".journal.jsonl"
                        : journalPath;
    s.resume = resume;
    s.crashDir = crashDir;
    s.benchName = bench;
    s.injectPanicKey = injectPanicKey;
    s.injectLivelockKey = injectLivelockKey;
    s.progress = progress;
    s.statsReport = statsReport;
    s.tracePath = tracePath;
    s.traceCellKey = traceCellKey;
    s.statsJsonPath = statsJsonPath;
    s.statsCellKey = statsCellKey;
    s.timingWaves = timingWaves;
    s.saThreads = saThreads;
    return s;
}

} // namespace lazygpu
