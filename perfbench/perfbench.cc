/**
 * @file
 * The simulator benchmark driver.
 *
 * Runs one named workload (a list of simulation cells) for a host-time
 * budget, timing every layer from outside through the public API:
 * workload construction, the Gpu constructor, Gpu::run, collectMetrics,
 * Workload::verify and verif::runReference. Every cell is checked: its
 * RunStatus, its functional verify, and a digest of its simulated
 * results that must repeat on every pass. Host times of the untraced
 * run are divided by the host's speed at the moment, measured by a
 * probe run between cells (HostProbe). The last stdout line is one
 * JSON object: the end-to-end metrics, or with --trace 1 the per-layer
 * metrics of a traced run. perfbench/README.md defines every metric.
 *
 *   lazygpu_perfbench --workload resnet-sparse --seed 42 --seconds 50
 *                     [--trace 0|1] [--commit ID]
 */

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/harness.hh"
#include "analysis/json_writer.hh"
#include "gpu/gpu.hh"
#include "isa/simd.hh"
#include "obs/cycacct.hh"
#include "sim/sim_error.hh"
#include "verif/reference.hh"
#include "workloads/resnet18.hh"
#include "workloads/suite.hh"

using namespace lazygpu;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string
modeToken(ExecMode m)
{
    std::string s = toString(m);
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return s;
}

// --- Workload definitions --------------------------------------------------
//
// The machine and workload parameters are frozen here rather than taken
// from the figure benches' helpers, so that a later change to a figure
// does not silently change what this benchmark measures.

/** A 1/scale R9 Nano (Baseline) or LazyGPU machine, as in the figures. */
GpuConfig
scaledConfig(ExecMode mode, unsigned scale)
{
    GpuConfig cfg = mode == ExecMode::Baseline ? GpuConfig::r9Nano()
                                               : GpuConfig::lazyGpu(mode);
    return cfg.scaled(scale);
}

/** The full 64-CU R9 Nano running `mode` (the fig03_paper machine). */
GpuConfig
paperConfig(ExecMode mode)
{
    GpuConfig cfg = GpuConfig::r9Nano();
    cfg.mode = mode;
    return cfg;
}

/** One simulation: a workload image and kernels run on one config. */
struct Cell
{
    std::string label; //!< "<point>/<mode>"
    /** Cells with the same point share their launch image and pair up
     *  for speedup_geomean (Baseline against each lazy mode). */
    unsigned point = 0;
    ExecMode mode = ExecMode::Baseline;
    GpuConfig cfg;
    std::function<Workload()> build;
};

/** A workload's cells plus whatever shared state their builders use. */
struct Plan
{
    std::vector<Cell> cells;
    std::shared_ptr<const Resnet18> net;
};

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "resnet-sparse", "mm64-sharded"};
    return names;
}

/** Dense MM at scale 16 with `waves` wavefronts, on every mode given. */
void
addMM(Plan &plan, std::uint64_t seed, unsigned waves,
      const std::vector<ExecMode> &modes,
      const std::function<GpuConfig(ExecMode)> &config)
{
    WorkloadParams p;
    p.sparsity = 0.0;
    p.scale = 16;
    p.seed = seed;
    for (ExecMode m : modes) {
        Cell c;
        c.label = "mm-" + std::to_string(waves) + "/" + modeToken(m);
        c.mode = m;
        c.cfg = config(m);
        c.build = [p, waves]() { return makeMM(p, waves); };
        plan.cells.push_back(std::move(c));
    }
}

/** Build the named workload's cells (workload-construction layer). */
Plan
makePlan(const std::string &workload, std::uint64_t seed)
{
    Plan plan;
    if (workload == "resnet-sparse") {
        // 50% magnitude-pruned weights, spatial /2 as in the figures,
        // but channels /8 (the figures use /4) so that a pass takes
        // seconds; the 1/16 machine (4 CUs) keeps the per-CU load, and
        // with it the LazyGPU speedup, near the figures' setting.
        Resnet18::Params rp;
        rp.weightSparsity = 0.5;
        rp.channelDiv = 8;
        rp.spatialDiv = 2;
        rp.seed = seed;
        plan.net = std::make_shared<const Resnet18>(rp);
        const std::size_t layers = plan.net->specs().size();
        for (unsigned i = 0; i < layers; ++i) {
            for (ExecMode m : {ExecMode::Baseline, ExecMode::LazyGPU}) {
                Cell c;
                c.label = "layer-" + std::to_string(i) + "-" +
                          plan.net->specs()[i].name + "/" + modeToken(m);
                c.point = i;
                c.mode = m;
                c.cfg = scaledConfig(m, 16);
                const Resnet18 *net = plan.net.get();
                c.build = [net, i]() {
                    return net->layerWorkload(i, false);
                };
                plan.cells.push_back(std::move(c));
            }
        }
    } else if (workload == "mm64-sharded") {
        addMM(plan, seed, 4096, {ExecMode::Baseline, ExecMode::LazyCore},
              [](ExecMode m) {
                  GpuConfig cfg = paperConfig(m);
                  cfg.saThreads = 2;
                  return cfg;
              });
    }
    return plan;
}

// --- Running one cell ------------------------------------------------------

/** Named raw sums of one or more cells; derived metrics divide them. */
using Tally = std::map<std::string, double>;

void
addTally(Tally &into, const Tally &from)
{
    for (const auto &[k, v] : from)
        into[k] += v;
}

double
get(const Tally &t, const std::string &key)
{
    auto it = t.find(key);
    return it == t.end() ? 0.0 : it->second;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Sum and count of every distribution named prefix...suffix. */
std::pair<double, double>
poolDists(const StatsRegistry &st, const std::string &prefix,
          const std::string &suffix)
{
    double sum = 0.0, count = 0.0;
    for (const auto &[name, d] : st.dists()) {
        if (name.size() >= prefix.size() + suffix.size() &&
            name.compare(0, prefix.size(), prefix) == 0 &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
            sum += d.sum();
            count += static_cast<double>(d.count());
        }
    }
    return {sum, count};
}

std::uint64_t
fnv(std::uint64_t h, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ull;
    }
    return h;
}

constexpr std::uint64_t fnvBasis = 1469598103934665603ull;

std::uint64_t
bitsOf(double d)
{
    std::uint64_t u = 0;
    std::memcpy(&u, &d, sizeof(u));
    return u;
}

/** Hash of every simulated field of a RunResult plus the final image. */
std::uint64_t
digestOf(const RunResult &r, const GlobalMemory &mem)
{
    std::uint64_t h = fnvBasis;
    for (std::uint64_t v :
         {std::uint64_t(r.cycles), r.txsIssued, r.txsElimZero,
          r.txsElimOtimes, r.txsElimDead, r.txsEagerFallback, r.storeTxs,
          r.storeTxsZeroSkipped, r.l1Requests, r.l2Requests,
          r.dramRequests, bitsOf(r.aluUtilization),
          bitsOf(r.avgMemLatency), r.l1Hits, r.l1Misses, r.l2Hits,
          r.l2Misses, r.zl1Hits, r.zl1Misses, r.zl2Hits, r.zl2Misses,
          mem.contentHash()})
        h = fnv(h, v);
    return h;
}

/** Outcome of one cell: timings, results, counters, failure reason. */
struct CellRun
{
    RunResult res;
    std::uint64_t digest = 0;
    std::string failure; //!< empty when the cell passed every check
    Tally tally;         //!< layer times and registry counters
    /** Kept on request for the reference cross-check. */
    std::unique_ptr<GlobalMemory> launchImage;
    std::unique_ptr<GlobalMemory> finalImage;
};

/** Read the layer counters of a finished simulation into t. */
void
harvestCounters(Gpu &gpu, const RunResult &res, Tally &t)
{
    const StatsRegistry &st = gpu.stats();
    auto ctr = [&](const std::string &prefix, const std::string &suffix) {
        return static_cast<double>(st.sumCounters(prefix, suffix));
    };
    t["cycles"] = static_cast<double>(res.cycles);
    for (const char *s : {"valu_insts", "salu_insts", "load_insts",
                          "store_insts"}) {
        t["cu_insts"] += ctr("gpu.sa", std::string(".") + s);
        t["rabbit_insts"] += ctr("gpu.rabbit.", s);
    }
    for (const char *s : {"txs_issued", "txs_elim_zero", "txs_elim_otimes",
                          "txs_elim_dead", "mask_reads",
                          "lanes_suspended"})
        t[std::string("gpu.") + s] = ctr("gpu.", std::string(".") + s);
    t["events"] = ctr("engine.events_executed", "");
    t["pool_chunks"] = ctr("engine.pool_chunks", "");
    t["oversized_events"] = ctr("engine.oversized_events", "");
    const struct
    {
        const char *level;
        std::uint64_t hits, misses;
    } caches[] = {{"l1", res.l1Hits, res.l1Misses},
                  {"l2", res.l2Hits, res.l2Misses},
                  {"zl1", res.zl1Hits, res.zl1Misses},
                  {"zl2", res.zl2Hits, res.zl2Misses}};
    for (const auto &c : caches) {
        t[std::string(c.level) + "_hits"] = double(c.hits);
        t[std::string(c.level) + "_misses"] = double(c.misses);
    }
    t["l1_requests"] = double(res.l1Requests);
    t["l2_requests"] = double(res.l2Requests);
    t["dram_requests"] = double(res.dramRequests);
    const auto lat = poolDists(st, "mem.latency", "");
    t["lat_sum"] = lat.first;
    t["lat_n"] = lat.second;
    const auto mshr = poolDists(st, "mem.l1.", ".mshr_wait");
    t["mshr_sum"] = mshr.first;
    t["mshr_n"] = mshr.second;
    const auto dq = poolDists(st, "mem.dram.", ".queue_delay");
    t["dq_sum"] = dq.first;
    t["dq_n"] = dq.second;
    for (unsigned b = 0; b < cycacct::numBuckets; ++b) {
        const std::string name =
            cycacct::bucketName(static_cast<cycacct::Bucket>(b));
        t["cyc." + name] = ctr("gpu.sa", ".cyc." + name);
    }
    if (DomainScheduler *d = gpu.domains()) {
        const DomainScheduler::Profile &p = d->profile();
        t["sa_phase_s"] = p.saPhaseSec;
        t["bank_phase_s"] = p.bankPhaseSec;
        t["barrier_wait_s"] = p.barrierWaitSec;
        t["coord_serial_s"] = p.coordSerialSec;
        t["windows"] = static_cast<double>(p.windows);
    }
}

/**
 * Build, construct, run, harvest and verify one cell, timing each
 * layer call. Simulator panics/fatals are caught and reported as a
 * failed cell, never as a crash of the benchmark.
 */
CellRun
runCell(const GpuConfig &cfg, const std::function<Workload()> &build,
        bool keepImages)
{
    CellRun out;
    Tally &t = out.tally;
    RecoverableScope recoverable;
    try {
        auto t0 = Clock::now();
        Workload w = build();
        t["build_s"] = secondsSince(t0);
        if (keepImages)
            out.launchImage = std::make_unique<GlobalMemory>(*w.mem);

        t0 = Clock::now();
        Gpu gpu(cfg, *w.mem);
        t["construct_s"] = secondsSince(t0);

        Tick cycles = 0;
        t0 = Clock::now();
        for (const Kernel &k : w.kernels)
            cycles += gpu.run(k).estCycles;
        t["run_s"] = secondsSince(t0);

        t0 = Clock::now();
        out.res = collectMetrics(gpu, cycles);
        t["collect_s"] = secondsSince(t0);

        t0 = Clock::now();
        out.res.verifyError = w.verify ? w.verify(*w.mem) : std::string();
        t["verify_s"] = secondsSince(t0);

        harvestCounters(gpu, out.res, t);
        out.digest = digestOf(out.res, *w.mem);
        if (!out.res.verifyError.empty())
            out.failure = "verify: " + out.res.verifyError;
        if (keepImages)
            out.finalImage = std::move(w.mem);
    } catch (const SimError &e) {
        out.res.status = e.kind() == SimError::Kind::Fatal
                             ? RunStatus::Fatal
                             : e.kind() == SimError::Kind::Timeout
                                   ? RunStatus::Timeout
                                   : RunStatus::Panic;
        out.failure = std::string(toString(out.res.status)) + ": " +
                      e.message();
    }
    return out;
}

/** Workload construction plus Gpu construction, without running. */
double
setupOnce(const std::string &workload, std::uint64_t seed)
{
    auto t0 = Clock::now();
    Plan plan = makePlan(workload, seed);
    double total = secondsSince(t0);
    for (const Cell &c : plan.cells) {
        t0 = Clock::now();
        Workload w = c.build();
        Gpu gpu(c.cfg, *w.mem);
        total += secondsSince(t0);
    }
    return total;
}

/**
 * Run the workload's cells, untimed, until `seconds` have passed. The
 * first simulations of a process run measurably slower (the allocator
 * and page tables are still growing); a sweep of many cells pays that
 * once, so the measured passes start warm.
 */
void
warmUp(const std::string &workload, std::uint64_t seed, double seconds)
{
    const auto t0 = Clock::now();
    const Plan plan = makePlan(workload, seed);
    for (const Cell &c : plan.cells) {
        runCell(c.cfg, c.build, false);
        if (secondsSince(t0) >= seconds)
            break;
    }
}

constexpr double warmUpSeconds = 2.0;

// --- Host speed ------------------------------------------------------------

/**
 * A fixed unit of host work that shares no code with the simulator: a
 * dependent walk over a 128 KiB random ring, which lives in the core's
 * private L1 and L2 caches. On a shared virtual machine the host slows
 * mostly through what runs beside it on the same physical core, and
 * that slows this walk about as much as it slows the simulator (in
 * sampling runs, pass run time moved with the walk's time, slope near
 * 1), while core-bound arithmetic hardly moves. A cell that runs on
 * several threads waits at every window barrier for the slowest of
 * them, so the probe runs one walker per thread, each on its own ring,
 * and a unit ends when every walker has finished it. The benchmark
 * runs the probe between cells and divides host times by its unit
 * time relative to refProbeSeconds.
 */
class HostProbe
{
  public:
    explicit HostProbe(unsigned walkers) : rings_(walkers), pos_(walkers)
    {
        // One random cycle through every slot (Sattolo's shuffle).
        std::uint64_t x = 0x9e3779b97f4a7c15ull;
        for (std::vector<std::uint32_t> &ring : rings_) {
            std::vector<std::uint32_t> order(ringSize);
            for (std::uint32_t i = 0; i < ringSize; ++i)
                order[i] = i;
            for (std::uint32_t i = ringSize - 1; i > 0; --i) {
                x = x * 6364136223846793005ull + 1442695040888963407ull;
                std::swap(order[i], order[(x >> 33) % i]);
            }
            ring.resize(ringSize);
            for (std::uint32_t i = 0; i < ringSize; ++i)
                ring[order[i]] = order[(i + 1) % ringSize];
        }
    }

    /** Run units for about `seconds` (at least one); return the mean
     *  unit time. */
    double
    sample(double seconds)
    {
        Clock::time_point last;
        double total = 0.0;
        unsigned units = 0;
        bool started = false, done = false;
        // Runs once each time every walker has arrived: at the start
        // line, then at the end of every unit.
        auto endPhase = [&]() noexcept {
            const auto now = Clock::now();
            if (started) {
                total += std::chrono::duration<double>(now - last).count();
                ++units;
                done = total >= seconds;
            }
            started = true;
            last = now;
        };
        std::barrier sync(static_cast<std::ptrdiff_t>(rings_.size()),
                          endPhase);
        auto walker = [&](std::size_t k) {
            sync.arrive_and_wait();
            do {
                std::uint32_t j = pos_[k];
                for (unsigned i = 0; i < walkSteps; ++i)
                    j = rings_[k][j];
                pos_[k] = j;
                sync.arrive_and_wait();
            } while (!done);
        };
        std::vector<std::thread> helpers;
        for (std::size_t k = 1; k < rings_.size(); ++k)
            helpers.emplace_back(walker, k);
        walker(0);
        for (std::thread &h : helpers)
            h.join();
        return total / units;
    }

  private:
    static constexpr std::uint32_t ringSize = 1u << 15;
    static constexpr unsigned walkSteps = 1u << 17;
    std::vector<std::vector<std::uint32_t>> rings_;
    std::vector<std::uint32_t> pos_;
};

/** The probe unit's time on the reference host (see README.md), so that
 *  normalised host times read in that host's seconds. */
constexpr double refProbeSeconds = 0.75e-3;

/** Share of a cell's run time spent probing the host right after it. */
constexpr double probeShare = 0.15;

// --- Results of a run ------------------------------------------------------

/** Per-run bookkeeping shared by the untraced and the traced run. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Count one cell run; report it if it failed. */
    void
    record(const std::string &what, const std::string &failure)
    {
        ++attempted;
        if (failure.empty())
            return;
        ++failed;
        std::printf("FAIL %s: %s\n", what.c_str(), failure.c_str());
    }
};

/** Model metrics over one pass: speedup geomean and pooled elimination. */
struct ModelMetrics
{
    double speedupGeomean = 0.0;
    double elimRate = 0.0;
    std::uint64_t cycles = 0;
    double insts = 0.0;
};

ModelMetrics
modelMetrics(const Plan &plan, const std::vector<CellRun> &runs)
{
    ModelMetrics m;
    std::map<unsigned, const RunResult *> base;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        if (plan.cells[i].mode == ExecMode::Baseline)
            base[plan.cells[i].point] = &runs[i].res;
        m.cycles += runs[i].res.cycles;
        m.insts += get(runs[i].tally, "cu_insts") +
                   get(runs[i].tally, "rabbit_insts");
    }
    RunResult lazy;
    double logSum = 0.0;
    unsigned pairs = 0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        if (plan.cells[i].mode == ExecMode::Baseline)
            continue;
        lazy.accumulate(runs[i].res);
        auto b = base.find(plan.cells[i].point);
        const double s =
            b == base.end() ? 0.0 : speedup(*b->second, runs[i].res);
        if (s > 0.0) {
            logSum += std::log(s);
            ++pairs;
        }
    }
    m.speedupGeomean = pairs ? std::exp(logSum / pairs) : 0.0;
    m.elimRate = lazy.eliminationRate();
    return m;
}

std::string
hex(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::uint64_t
workloadDigest(const std::vector<CellRun> &runs)
{
    std::uint64_t h = fnvBasis;
    for (const CellRun &r : runs)
        h = fnv(h, r.digest);
    return h;
}

/**
 * Peak resident memory of this process image. getrusage's ru_maxrss
 * would not do: it survives execve, so under a parent larger than the
 * simulation (the Python wrapper) it reports the parent's peak.
 */
double
peakRssMiB()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB
    }
    return 0.0;
}

/** A metric as printed: value and unit. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printMetrics(const std::vector<Metric> &ms)
{
    for (const Metric &m : ms)
        std::printf("  %-34s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

Json
metricsJson(const std::vector<Metric> &ms)
{
    Json o = Json::object();
    for (const Metric &m : ms) {
        Json v = Json::object();
        v.set("value", Json::exactNum(m.value)).set("unit", m.unit);
        o.set(m.name, std::move(v));
    }
    return o;
}

void
printResult(const Checks &checks, const std::vector<Metric> &ms)
{
    Json out = Json::object();
    out.set("correct", checks.failed == 0)
        .set("attempted", checks.attempted)
        .set("failed", checks.failed)
        .set("metrics", metricsJson(ms));
    std::printf("%s\n", out.dump(0).c_str());
}

// --- The untraced run: end-to-end metrics ----------------------------------

int
runUntraced(const std::string &workload, std::uint64_t seed,
            double seconds)
{
    constexpr unsigned minPasses = 3;
    constexpr unsigned minSetupSamples = 11;
    constexpr double minSetupSeconds = 0.5;
    constexpr double setupSliceSeconds = 0.1;
    warmUp(workload, seed, warmUpSeconds);
    const auto start = Clock::now();
    Checks checks;
    const Plan plan = makePlan(workload, seed);
    // A workload's cells all run on the same number of threads.
    HostProbe probe(std::max(1u, plan.cells.front().cfg.saThreads));
    // Per pass: raw Σ Gpu::run time, and the same normalised.
    std::vector<double> passRaw, passNorm;
    // Gpu::run time of every cell on every pass, raw and normalised:
    // [cell][pass].
    std::vector<std::vector<double>> rawTimes(plan.cells.size());
    std::vector<std::vector<double>> runTimes(plan.cells.size());
    std::vector<std::uint64_t> firstDigest;
    std::vector<CellRun> lastPass;
    // A host time t measured between probe samples p0 and p1 counts as
    // t * refProbeSeconds / mean(p0, p1): time at the reference speed.
    auto normalise = [](double t, double p0, double p1) {
        return t * refProbeSeconds / (0.5 * (p0 + p1));
    };
    // Set-up is sampled in slices after every pass, so that its median
    // sees the same host as the passes rather than a moment after them.
    std::vector<double> setupSamples;
    double setupTotal = 0.0;
    auto sampleSetup = [&]() {
        const double p0 = probe.sample(0.0);
        const double t = setupOnce(workload, seed);
        setupSamples.push_back(normalise(t, p0, probe.sample(0.0)));
        setupTotal += t;
    };
    unsigned passes = 0;
    double passSeconds = 0.0; // host time of the latest pass
    // At least minPasses, so that every cell's digest is compared with
    // an earlier pass and its time is the median of several samples;
    // beyond that, a pass starts only if it should end about in time.
    while (passes < minPasses ||
           secondsSince(start) + 0.5 * passSeconds < seconds) {
        const auto passStart = Clock::now();
        double raw = 0.0, norm = 0.0;
        std::vector<CellRun> runs;
        double before = probe.sample(0.0);
        for (std::size_t i = 0; i < plan.cells.size(); ++i) {
            const Cell &c = plan.cells[i];
            CellRun r = runCell(c.cfg, c.build, false);
            const double runS = get(r.tally, "run_s");
            const double after = probe.sample(probeShare * runS);
            rawTimes[i].push_back(runS);
            runTimes[i].push_back(normalise(runS, before, after));
            before = after;
            raw += runS;
            norm += runTimes[i].back();
            std::string failure = r.failure;
            if (failure.empty() && passes > 0 && r.digest != firstDigest[i])
                failure = "simulated results differ from pass 1";
            if (passes == 0)
                firstDigest.push_back(r.digest);
            checks.record(c.label, failure);
            runs.push_back(std::move(r));
        }
        passRaw.push_back(raw);
        passNorm.push_back(norm);
        lastPass = std::move(runs);
        ++passes;
        const auto slice = Clock::now();
        do
            sampleSetup();
        while (secondsSince(slice) < setupSliceSeconds);
        passSeconds = secondsSince(passStart);
    }
    const double rssMiB = peakRssMiB();
    // Set-up takes milliseconds on mm64-sharded: top the samples up
    // until the median rests on enough of them and enough time.
    while (setupSamples.size() < minSetupSamples ||
           setupTotal < minSetupSeconds)
        sampleSetup();

    std::printf("workload %s  seed %llu  passes %u  cells %zu  "
                "set-up samples %zu\n",
                workload.c_str(), static_cast<unsigned long long>(seed),
                passes, plan.cells.size(), setupSamples.size());
    std::printf("  pass run times, raw (s):       ");
    for (double w : passRaw)
        std::printf(" %.4f", w);
    std::printf("\n  pass run times, normalised (s):");
    for (double w : passNorm)
        std::printf(" %.4f", w);
    std::printf("\n");
    double wall = 0.0, rawWall = 0.0;
    for (std::size_t i = 0; i < plan.cells.size(); ++i) {
        const double cellWall = median(runTimes[i]);
        wall += cellWall;
        rawWall += median(rawTimes[i]);
        std::printf("  cell %-36s run %.4f s  cycles %llu\n",
                    plan.cells[i].label.c_str(), cellWall,
                    static_cast<unsigned long long>(
                        lastPass[i].res.cycles));
    }
    const ModelMetrics mm = modelMetrics(plan, lastPass);
    const double failRate =
        static_cast<double>(checks.failed) / double(checks.attempted);
    std::printf("sim_digest %s %s\n", workload.c_str(),
                hex(workloadDigest(lastPass)).c_str());
    std::printf("end-to-end metrics (host = simulator, sim = modelled "
                "GPU):\n");
    const std::vector<Metric> all = {
        {"wall_s", wall, "s"},
        {"sim_cycles_per_s", ratio(double(mm.cycles), wall), "cycles/s"},
        {"sim_insts_per_s", ratio(mm.insts, wall), "insts/s"},
        {"setup_s", median(setupSamples), "s"},
        {"peak_rss_mb", rssMiB, "MiB"},
        {"fail_rate", failRate, "fraction"},
        {"speedup_geomean", mm.speedupGeomean, "x"},
        {"elim_rate", mm.elimRate, "fraction"},
    };
    printMetrics(all);
    std::printf("  (wall_s before normalising: %.6g s)\n", rawWall);
    // fail_rate is reported as attempted/failed in the result instead:
    // a gated metric must never read 0.
    std::vector<Metric> gated;
    for (const Metric &m : all)
        if (m.name != "fail_rate")
            gated.push_back(m);
    printResult(checks, gated);
    return 0;
}

// --- The traced run: per-layer metrics -------------------------------------

/** Normalised-zero word comparison of the allocated heap of two images
 *  (the lazy modes may store +0.0f where the reference stores -0.0f). */
std::string
compareImages(const GlobalMemory &want, const GlobalMemory &got)
{
    if (want.footprint() != got.footprint())
        return "heap footprints differ";
    const auto norm = [](std::uint32_t w) {
        return w == 0x80000000u ? 0u : w;
    };
    const Addr end = GlobalMemory::allocBase + want.footprint();
    for (Addr a = GlobalMemory::allocBase; a + 4 <= end; a += 4) {
        if (norm(want.readU32(a)) != norm(got.readU32(a))) {
            char buf[96];
            std::snprintf(buf, sizeof(buf),
                          "memory differs from the reference at 0x%llx",
                          static_cast<unsigned long long>(a));
            return buf;
        }
    }
    return {};
}

/** Per-layer metrics derived from a tally of raw sums. */
std::vector<Metric>
layerMetrics(const Tally &t)
{
    const double insts = get(t, "cu_insts") + get(t, "rabbit_insts");
    const double runS = get(t, "run_s");
    auto hitRate = [&](const char *lvl) {
        const std::string l(lvl);
        return ratio(get(t, l + "_hits"),
                     get(t, l + "_hits") + get(t, l + "_misses"));
    };
    std::vector<Metric> ms = {
        {"workloads.build_s", get(t, "build_s"), "s"},
        {"workloads.verify_s", get(t, "verify_s"), "s"},
        {"gpu.construct_s", get(t, "construct_s"), "s"},
        {"gpu.run_s", runS, "s"},
        {"gpu.ns_per_inst", ratio(runS * 1e9, insts), "ns"},
    };
    for (const char *s : {"txs_issued", "txs_elim_zero", "txs_elim_otimes",
                          "txs_elim_dead", "mask_reads", "lanes_suspended"})
        ms.push_back({std::string("gpu.") + s,
                      get(t, std::string("gpu.") + s), "count"});
    ms.insert(ms.end(), {
        {"gpu.rabbit.run_s", get(t, "rabbit_run_s"), "s"},
        {"gpu.rabbit.ns_per_inst",
         ratio(get(t, "rabbit_run_s") * 1e9, get(t, "rabbit_only_insts")),
         "ns"},
        {"gpu.timed_window_s", get(t, "timed_window_s"), "s"},
        {"sim.engine.events", get(t, "events"), "count"},
        {"sim.engine.ns_per_event", ratio(runS * 1e9, get(t, "events")),
         "ns"},
        {"sim.engine.pool_chunks", get(t, "pool_chunks"), "count"},
        {"sim.engine.oversized_events", get(t, "oversized_events"),
         "count"},
        {"sim.domains.sa_phase_s", get(t, "sa_phase_s"), "s"},
        {"sim.domains.bank_phase_s", get(t, "bank_phase_s"), "s"},
        {"sim.domains.barrier_wait_s", get(t, "barrier_wait_s"), "s"},
        {"sim.domains.coord_serial_s", get(t, "coord_serial_s"), "s"},
        {"sim.domains.windows", get(t, "windows"), "count"},
        {"sim.domains.speedup_2t",
         ratio(get(t, "run_1t_s"), get(t, "run_2t_s")), "x"},
        {"mem.l1.hit_rate", hitRate("l1"), "fraction"},
        {"mem.l2.hit_rate", hitRate("l2"), "fraction"},
        {"mem.zl1.hit_rate", hitRate("zl1"), "fraction"},
        {"mem.zl2.hit_rate", hitRate("zl2"), "fraction"},
        {"mem.l1.requests", get(t, "l1_requests"), "count"},
        {"mem.l2.requests", get(t, "l2_requests"), "count"},
        {"mem.dram.requests", get(t, "dram_requests"), "count"},
        {"mem.latency_mean", ratio(get(t, "lat_sum"), get(t, "lat_n")),
         "cycles"},
        {"mem.l1.mshr_wait_mean",
         ratio(get(t, "mshr_sum"), get(t, "mshr_n")), "cycles"},
        {"mem.dram.queue_delay_mean", ratio(get(t, "dq_sum"), get(t, "dq_n")),
         "cycles"},
        {"verif.reference_s", get(t, "reference_s"), "s"},
        {"verif.reference_ns_per_inst",
         ratio(get(t, "reference_s") * 1e9, get(t, "reference_insts")),
         "ns"},
        {"analysis.collect_s", get(t, "collect_s"), "s"},
    });
    double cycTotal = 0.0;
    for (unsigned b = 0; b < cycacct::numBuckets; ++b)
        cycTotal += get(t, std::string("cyc.") + cycacct::bucketName(
                                                     cycacct::Bucket(b)));
    for (unsigned b = 0; b < cycacct::numBuckets; ++b) {
        const std::string name = cycacct::bucketName(cycacct::Bucket(b));
        ms.push_back({"obs.cyc." + name, ratio(get(t, "cyc." + name),
                                               cycTotal),
                      "fraction"});
    }
    return ms;
}

int
runTraced(const std::string &workload, std::uint64_t seed)
{
    Checks checks;
    warmUp(workload, seed, warmUpSeconds);

    // Pass A, instruments off: the untraced reference point for the
    // digest and for obs.trace_overhead.
    auto t0 = Clock::now();
    Plan plan = makePlan(workload, seed);
    const double planS = secondsSince(t0);
    std::vector<CellRun> untraced;
    double wallUntraced = 0.0;
    for (const Cell &c : plan.cells) {
        untraced.push_back(runCell(c.cfg, c.build, false));
        wallUntraced += get(untraced.back().tally, "run_s");
        checks.record(c.label + " (untraced)",
                           untraced.back().failure);
    }

    // Pass B, instruments on: cycle accounting and the domain profiler.
    // Launch and final images are kept for the reference cross-check.
    Tally pooled;
    std::map<std::string, Tally> perMode;
    std::vector<CellRun> traced;
    for (std::size_t i = 0; i < plan.cells.size(); ++i) {
        const Cell &c = plan.cells[i];
        GpuConfig cfg = c.cfg;
        cfg.cycleAccounting = true;
        cfg.profileScheduler = cfg.saThreads > 0;
        CellRun r = runCell(cfg, c.build, true);
        std::string failure = r.failure;
        if (failure.empty() && r.digest != untraced[i].digest)
            failure = "instrumented run changed the simulated results";
        checks.record(c.label + " (traced)", failure);
        traced.push_back(std::move(r));
    }

    // Layer-specific extra runs through the public config.
    for (std::size_t i = 0; i < plan.cells.size(); ++i) {
        const Cell &c = plan.cells[i];
        Tally &t = traced[i].tally;
        if (c.cfg.saThreads >= 2) {
            // The same kernel with no wave timed (all of it in the
            // rabbit functional executor), against the fully timed
            // untraced run: the two halves of a sampled run.
            GpuConfig cfg = c.cfg;
            cfg.timingWaves = 0;
            CellRun r = runCell(cfg, c.build, false);
            checks.record(c.label + " (rabbit only)", r.failure);
            t["rabbit_run_s"] = get(r.tally, "run_s");
            t["rabbit_only_insts"] = get(r.tally, "rabbit_insts");
            t["timed_window_s"] = get(untraced[i].tally, "run_s");
            // The sharded schedule is thread-count independent, so the
            // one-thread run must reproduce the digest exactly.
            cfg = c.cfg;
            cfg.saThreads = 1;
            r = runCell(cfg, c.build, false);
            std::string failure = r.failure;
            if (failure.empty() && r.digest != untraced[i].digest)
                failure = "one-thread sharded run changed the results";
            checks.record(c.label + " (1 thread)", failure);
            t["run_1t_s"] = get(r.tally, "run_s");
            t["run_2t_s"] = get(untraced[i].tally, "run_s");
        }
    }

    // Reference cross-check, last so its memory stays out of the
    // timings: one untimed reference execution per launch image.
    std::map<unsigned, std::pair<std::uint64_t, GlobalMemory>> refs;
    for (std::size_t i = 0; i < plan.cells.size(); ++i) {
        const Cell &c = plan.cells[i];
        CellRun &r = traced[i];
        if (!r.launchImage || !r.finalImage)
            continue;
        const std::uint64_t imageHash = r.launchImage->contentHash();
        auto it = refs.find(c.point);
        std::string failure;
        if (it == refs.end() || it->second.first != imageHash) {
            GlobalMemory mem = *r.launchImage;
            const Workload w = c.build(); // same seed: the same kernels
            t0 = Clock::now();
            for (const Kernel &k : w.kernels) {
                const verif::RefResult ref = verif::runReference(k, mem);
                r.tally["reference_insts"] +=
                    static_cast<double>(ref.instsExecuted);
                if (!ref.ok())
                    failure = "reference: " + ref.error;
            }
            r.tally["reference_s"] = secondsSince(t0);
            it = refs.insert_or_assign(c.point,
                                       std::make_pair(imageHash,
                                                      std::move(mem)))
                     .first;
        }
        if (failure.empty())
            failure = compareImages(it->second.second, *r.finalImage);
        checks.record(c.label + " (reference)", failure);
        r.launchImage.reset();
        r.finalImage.reset();
    }

    double wallTraced = 0.0;
    for (std::size_t i = 0; i < plan.cells.size(); ++i) {
        addTally(pooled, traced[i].tally);
        addTally(perMode[modeToken(plan.cells[i].mode)], traced[i].tally);
        wallTraced += get(traced[i].tally, "run_s");
    }
    pooled["build_s"] += planS;

    std::printf("workload %s  seed %llu  cells %zu  (traced)\n",
                workload.c_str(), static_cast<unsigned long long>(seed),
                plan.cells.size());
    std::printf("sim_digest %s %s\n", workload.c_str(),
                hex(workloadDigest(untraced)).c_str());
    std::vector<Metric> ms = layerMetrics(pooled);
    ms.push_back({"obs.trace_overhead", ratio(wallTraced, wallUntraced),
                  "x"});
    std::printf("per-layer metrics, all modes pooled:\n");
    printMetrics(ms);
    for (const auto &[mode, t] : perMode) {
        std::printf("per-layer metrics, mode %s:\n", mode.c_str());
        std::vector<Metric> modeMs = layerMetrics(t);
        for (Metric &m : modeMs)
            m.name += "." + mode;
        printMetrics(modeMs);
    }
    printResult(checks, ms);
    return 0;
}

// --- Build and host guard --------------------------------------------------

/** Why this build or process must not report speeds; empty if it may. */
std::string
buildGuard()
{
#if defined(LAZYGPU_CHECK)
    return "built with LAZYGPU_CHECK (in-pipeline invariant checks)";
#endif
#if !defined(NDEBUG)
    return "built without NDEBUG (not an optimised release build)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "built with a sanitizer";
#endif
    if (isa::scalarRefEnabled())
        return "the scalar functional oracle is on (LAZYGPU_SCALAR_REF)";
    return {};
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    }
    return "unknown";
}

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "lazygpu_perfbench: %s\nusage: lazygpu_perfbench "
                 "--workload NAME [--seed N] [--seconds S] [--trace 0|1] "
                 "[--commit ID]\nworkloads:",
                 msg);
    for (const std::string &n : workloadNames())
        std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, commit = "unknown";
    std::uint64_t seed = 42;
    double seconds = 50.0;
    bool trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        if (a == "--workload")
            workload = v;
        else if (a == "--seed")
            seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds")
            seconds = std::atof(v.c_str());
        else if (a == "--trace")
            trace = v != "0";
        else if (a == "--commit")
            commit = v;
        else
            return usage(("unknown option " + a).c_str());
    }
    if (std::find(workloadNames().begin(), workloadNames().end(),
                  workload) == workloadNames().end())
        return usage("unknown or missing --workload");

    const std::string refused = buildGuard();
    if (!refused.empty()) {
        std::fprintf(stderr, "lazygpu_perfbench: refusing to report: %s\n",
                     refused.c_str());
        return 3;
    }
    std::printf("host: cpu \"%s\"  nproc %u  compiler \"%s\"  commit %s\n",
                cpuModel().c_str(), std::thread::hardware_concurrency(),
                __VERSION__, commit.c_str());
    return trace ? runTraced(workload, seed)
                 : runUntraced(workload, seed, seconds);
}
