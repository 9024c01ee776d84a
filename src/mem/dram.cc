#include "mem/dram.hh"

#include <algorithm>

namespace lazygpu
{

DramChannel::DramChannel(Engine &engine, StatsRegistry &stats,
                         const std::string &name, unsigned bytes_per_cycle,
                         Tick access_latency)
    : engine_(engine), bytes_per_cycle_(std::max(1u, bytes_per_cycle)),
      access_latency_(access_latency),
      reads_(stats.counter(name + ".reads")),
      writes_(stats.counter(name + ".writes")),
      queue_delay_(stats.dist(name + ".queue_delay"))
{
}

void
DramChannel::access(const MemAccess &acc, Completion done)
{
    const Tick now = engine_.now();
    const Tick service =
        std::max<Tick>(1, (acc.size + bytes_per_cycle_ - 1) /
                              bytes_per_cycle_);
    const Tick start = std::max(now, busy_until_);
    busy_until_ = start + service;

    queue_delay_.sample(static_cast<double>(start - now));
    if (acc.write)
        ++writes_;
    else
        ++reads_;

    if (done)
        engine_.schedule(start + service + access_latency_, done);
}

} // namespace lazygpu
