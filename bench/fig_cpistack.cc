/**
 * @file
 * fig_cpistack: CPI stacks for all five execution modes over MM, FIR
 * and SpMV — where do the cycles go, and which stall classes does
 * LazyGPU eliminate?
 *
 * Every cell runs with per-CU cycle accounting enabled (DESIGN.md §16):
 * each CU cycle lands in exactly one bucket, so per-mode stacks are
 * directly comparable — a cycle that stops being MemLatency must show
 * up somewhere else. The printed table shows each bucket as a fraction
 * of all CU cycles; BENCH_cpistack.json carries the absolute counts.
 *
 * The grid/artifact builder is shared with tests/test_cycacct.cc
 * (bench/cpistack_common.hh), which pins the artifact byte-identical
 * across --jobs and --sa-threads.
 */

#include <algorithm>
#include <array>
#include <cstdio>

#include "bench/bench_main.hh"
#include "bench/bench_util.hh"
#include "bench/cpistack_common.hh"
#include "obs/cycacct.hh"

using namespace lazygpu;

int
main(int argc, char **argv)
{
    const BenchOptions opt = parseBenchOptions(argc, argv, {"--quick"});
    const bool quick = opt.hasFlag("--quick");

    std::printf("CPI stacks: per-CU cycle attribution by mode%s\n",
                quick ? " (quick)" : "");

    const std::vector<RunJob> jobs = cpistack::buildJobs(quick);
    ParallelRunner runner(opt.jobs, opt.sweepOptions("cpistack"));
    const std::vector<RunResult> res = runner.run(jobs);

    // Rows are built first so the column width fits the longest cell
    // (bucket names such as mshr_backpressure, labels such as
    // spmv/LazyCore+1); an empty row separates the workloads.
    std::vector<std::vector<std::string>> rows;
    std::vector<std::string> header{"workload/mode"};
    for (unsigned i = 0; i < cycacct::numBuckets; ++i)
        header.push_back(
            cycacct::bucketName(static_cast<cycacct::Bucket>(i)));
    rows.push_back(std::move(header));

    std::size_t idx = 0;
    for (const std::string &w : cpistack::workloads()) {
        for (ExecMode mode : cpistack::modes()) {
            const RunResult &r = res[idx++];
            std::array<std::uint64_t, cycacct::numBuckets> t{};
            const bool have = cycacct::decodeTotals(r.tag, t);
            std::uint64_t total = 0;
            for (std::uint64_t v : t)
                total += v;
            std::vector<std::string> row{w + "/" + toString(mode)};
            for (unsigned i = 0; i < cycacct::numBuckets; ++i) {
                row.push_back(
                    have && total
                        ? pct(static_cast<double>(t[i]) /
                              static_cast<double>(total))
                        : std::string("-"));
            }
            rows.push_back(std::move(row));
        }
        rows.emplace_back();
    }

    std::size_t longest = 0;
    for (const auto &row : rows) {
        for (const std::string &cell : row)
            longest = std::max(longest, cell.size());
    }
    const unsigned width = static_cast<unsigned>(longest) + 2;
    for (const auto &row : rows) {
        if (row.empty())
            std::printf("\n");
        else
            printRow(row, width);
    }

    writeBenchJson("cpistack", cpistack::buildDoc(quick, res));
    return runner.exitCode();
}
