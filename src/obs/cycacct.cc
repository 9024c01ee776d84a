/**
 * @file
 * Cycle-accounting implementation (see cycacct.hh / DESIGN.md §16).
 */

#include "obs/cycacct.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "obs/trace.hh"

namespace lazygpu
{

namespace cycacct
{

const char *
bucketName(Bucket b)
{
    switch (b) {
      case Bucket::Busy:
        return "busy";
      case Bucket::ScoreboardWait:
        return "scoreboard";
      case Bucket::SuspZero:
        return "susp_zero";
      case Bucket::MemLatency:
        return "mem_latency";
      case Bucket::MshrBackpressure:
        return "mshr_backpressure";
      case Bucket::FetchEmpty:
        return "fetch_empty";
      case Bucket::DrainedIdle:
        return "drained_idle";
    }
    return "?";
}

CuCycleAccount::CuCycleAccount(StatsRegistry &stats,
                               const std::string &cu_prefix)
{
    for (unsigned i = 0; i < numBuckets; ++i) {
        buckets_[i] = &stats.counter(
            cu_prefix + "cyc." + bucketName(static_cast<Bucket>(i)));
    }
}

std::uint64_t
CuCycleAccount::total() const
{
    std::uint64_t t = 0;
    for (const Counter *c : buckets_)
        t += c->value();
    return t;
}

std::array<std::uint64_t, numBuckets>
sumBuckets(const StatsRegistry &stats)
{
    std::array<std::uint64_t, numBuckets> t{};
    for (unsigned i = 0; i < numBuckets; ++i) {
        t[i] = stats.sumCounters(
            "gpu.sa",
            std::string(".cyc.") + bucketName(static_cast<Bucket>(i)));
    }
    return t;
}

std::string
encodeTotals(const std::array<std::uint64_t, numBuckets> &t)
{
    std::string out = "cyc";
    char buf[32];
    for (std::uint64_t v : t) {
        std::snprintf(buf, sizeof(buf), " %" PRIu64, v);
        out += buf;
    }
    return out;
}

bool
decodeTotals(const std::string &tag,
             std::array<std::uint64_t, numBuckets> &out)
{
    if (tag.rfind("cyc ", 0) != 0)
        return false;
    const char *p = tag.c_str() + 3;
    for (unsigned i = 0; i < numBuckets; ++i) {
        char *end = nullptr;
        out[i] = std::strtoull(p, &end, 10);
        if (end == p)
            return false;
        p = end;
    }
    return *p == '\0';
}

IntervalSampler::IntervalSampler(StatsRegistry &stats, TraceSink *trace,
                                 Tick period)
    : stats_(stats), trace_(trace), period_(period ? period : 1)
{
    for (unsigned i = 0; i < numBuckets; ++i)
        names_.push_back(std::string("cyc.") +
                         bucketName(static_cast<Bucket>(i)));
    names_.push_back("cyc.txs_issued");
    names_.push_back("cyc.txs_elim_zero");
    names_.push_back("cyc.mask_reads");
    for (const std::string &n : names_)
        series_.push_back(&stats_.series(n));
}

void
IntervalSampler::sample(Tick now)
{
    // Flush every account so the GPU-wide totals cover [0, now) of every
    // CU whose domain has reached now.
    for (const Account &a : accounts_)
        a.acct->closeGap(std::min(now, a.clock->now()));

    std::array<std::uint64_t, numBuckets> totals = sumBuckets(stats_);
    std::array<std::uint64_t, 3> extra = {
        stats_.sumCounters("gpu.sa", ".txs_issued"),
        stats_.sumCounters("gpu.sa", ".txs_elim_zero"),
        stats_.sumCounters("gpu.sa", ".mask_reads"),
    };

    for (unsigned i = 0; i < names_.size(); ++i) {
        std::uint64_t v =
            i < numBuckets ? totals[i] : extra[i - numBuckets];
        series_[i]->sample(now, static_cast<double>(v));
        if (trace_) {
            trace_->emit(TraceKind::StatSample,
                         static_cast<std::uint16_t>(i), 0, now, 0, v);
        }
    }
}

} // namespace cycacct

} // namespace lazygpu
