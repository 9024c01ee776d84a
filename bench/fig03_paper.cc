/**
 * @file
 * Figure 3 at paper scale: the full 64-CU R9 Nano with the complete
 * 32..262144 wavefront grid, made tractable by multi-resolution
 * sampling -- the first --timing-waves wavefronts (default 2048) run on
 * the timed model, the rest through the rabbit functional executor.
 *
 * This is the default paper-scale experiment cell: the machine is NOT
 * scaled down, so crossover points land where the paper puts them
 * (LazyCore crosses the baseline around 2048 waves, peak ~1.4x).
 * Pass --timing-waves all to run the grid fully timed (hours), or a
 * wave-count argument to cap the grid. Composes with --sa-threads to
 * run each cell's timed window on several domain threads.
 */

#include <cstdio>
#include <cstdlib>

#include "analysis/json_writer.hh"
#include "analysis/parallel_runner.hh"
#include "bench/bench_main.hh"
#include "workloads/suite.hh"

using namespace lazygpu;

int
main(int argc, char **argv)
{
    BenchOptions opt = parseBenchOptions(argc, argv);
    const unsigned max_waves =
        static_cast<unsigned>(std::atoi(opt.arg(0, "262144").c_str()));
    // Rabbit-sample by default: 2048 timed waves bound each cell's cost
    // while covering the paper's crossover region with timed waves.
    if (opt.timingWaves == GpuConfig::timingWavesAll)
        opt.timingWaves = 2048;

    std::printf("Figure 3 (paper scale): MM wavefront sweep, 64 CUs\n");
    std::printf("timing window: %u waves (rabbit beyond)\n\n",
                opt.timingWaves);
    std::printf("%s\n",
                formatRow({"waves", "base cyc", "lazy cyc", "speedup",
                           "base lat", "lazy lat"})
                    .c_str());

    std::vector<unsigned> wave_counts;
    for (unsigned waves = 32; waves <= max_waves; waves *= 2)
        wave_counts.push_back(waves);

    std::vector<RunJob> jobs;
    for (unsigned waves : wave_counts) {
        WorkloadParams p;
        p.sparsity = 0.0;
        p.scale = 16;
        const std::string note =
            "MM dense, scale 16, seed " + std::to_string(p.seed);

        jobs.push_back(RunJob{GpuConfig::r9Nano(),
                              [p, waves]() { return makeMM(p, waves); },
                              false,
                              "waves-" + std::to_string(waves) + "/base",
                              note});

        GpuConfig lazy = GpuConfig::r9Nano();
        lazy.mode = ExecMode::LazyCore;
        jobs.push_back(RunJob{lazy,
                              [p, waves]() { return makeMM(p, waves); },
                              false,
                              "waves-" + std::to_string(waves) +
                                  "/lazycore",
                              note});
    }

    ParallelRunner runner(opt.jobs, opt.sweepOptions("fig03_paper"));
    const std::vector<RunResult> res = runner.run(jobs);

    Json rows = Json::array();
    for (std::size_t i = 0; i < wave_counts.size(); ++i) {
        const RunResult &base = res[2 * i];
        const RunResult &test = res[2 * i + 1];
        std::printf("%s\n",
                    formatRow({std::to_string(wave_counts[i]),
                               base.ok() ? std::to_string(base.cycles)
                                         : toString(base.status),
                               test.ok() ? std::to_string(test.cycles)
                                         : toString(test.status),
                               std::to_string(speedup(base, test)),
                               std::to_string(static_cast<int>(
                                   base.avgMemLatency)),
                               std::to_string(static_cast<int>(
                                   test.avgMemLatency))})
                        .c_str());
        Json row = Json::object();
        row.set("waves", wave_counts[i])
            .set("speedup", speedup(base, test))
            .set("eliminationRate", test.eliminationRate())
            .set("base", toJson(base))
            .set("lazycore", toJson(test));
        rows.push(std::move(row));
    }

    Json data = Json::object();
    data.set("rows", std::move(rows));
    data.set("timingWaves", opt.timingWaves);
    writeBenchJson("fig03_paper", data);
    return runner.exitCode();
}
